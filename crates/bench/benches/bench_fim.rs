//! Criterion microbench: maximal frequent itemset mining over the
//! consumers-as-transactions view, across minimum supports (the substrate
//! of the FreqItemset baselines). On the 896 medium consumers `minsup0.001`
//! is absolute support 1, which the miner reads off the maximal
//! transactions; `minsup0.002` (absolute 2) keeps the MAFIA search's
//! low-support regime measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revmax_bench::args::Scale;
use revmax_bench::data;
use revmax_fim::{mine_maximal, relative_minsup, TransactionDb};

fn bench_fim(c: &mut Criterion) {
    let d = data::dataset(Scale::Medium, 2015);
    let transactions: Vec<Vec<u32>> = {
        let mut tx = vec![Vec::new(); d.n_users()];
        for r in d.ratings() {
            tx[r.user as usize].push(r.item);
        }
        tx
    };
    let db = TransactionDb::from_transactions(d.n_items(), &transactions);

    let mut g = c.benchmark_group("fim");
    g.sample_size(10);
    for minsup_frac in [0.01f64, 0.005, 0.002, 0.001] {
        let minsup = relative_minsup(minsup_frac, db.n_transactions());
        g.bench_with_input(
            BenchmarkId::new("mine_maximal", format!("minsup{minsup_frac}")),
            &db,
            |b, db| {
                b.iter(|| mine_maximal(std::hint::black_box(db), minsup));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_fim);
criterion_main!(benches);
