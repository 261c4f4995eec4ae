//! Golden pin of the two FreqItemset baselines on the small market
//! (seed 2015, θ = 0.05) and on one of its three activity cohorts.
//!
//! The miner behind them has two paths (`revmax_fim::mine_maximal`): at
//! absolute support 1 it reads the maximal transactions off the database,
//! at higher supports it runs the MAFIA search. Both must hand the
//! configurators the same candidate sets, so the mined sets, the revenue
//! bits, the root counts and the canonical menus below were recorded with
//! the MAFIA-only miner and must not move.

use revmax::core::config::OfferNode;
use revmax::core::fingerprint::Fingerprinter;
use revmax::core::prelude::*;
use revmax::dataset::AmazonBooksConfig;
use revmax::engine::{activity_labels, market_from_data};
use revmax::fim::{mine_maximal_with_threads, TransactionDb};

/// The pinned cohort: the heaviest third of the consumers by activity.
const COHORT: usize = 2;

/// One pinned solve: revenue bits, root count, canonical-menu digest.
type Pin = (u64, usize, u64);

/// Pure and Mixed FreqItemset on the whole market, then on the cohort.
const WANT_SOLVES: [Pin; 4] = [
    (0x40c2daaf0a3d70a4, 60, 0xa23d0a7cbb77581e),
    (0x40c304c8624dd2f2, 35, 0xbc4e402813da71ff),
    (0x40b2dad147ae147f, 60, 0xec89a06d7187af02),
    (0x40b3107a4dd2f1ad, 46, 0x2284290a16759960),
];

/// Maximal itemsets (count, digest) of the whole market's transactions at
/// absolute supports 1, 2 and 3, then of the cohort's at support 1.
const WANT_MINED: [(usize, u64); 4] = [
    (113, 0xd147a03963167266),
    (518, 0xc9c1665d7493a27b),
    (351, 0x897425152a8690ff),
    (39, 0x9e5c068b8298fe92),
];

/// The menu as a canonical string: strategy, then every offer in root
/// order, depth first, as `items@price-bits` with its children in brackets.
fn canonical(config: &BundleConfig) -> String {
    fn node(out: &mut String, n: &OfferNode) {
        let items: Vec<String> = n.bundle.items().iter().map(u32::to_string).collect();
        out.push_str(&format!("{}@{:016x}[", items.join(","), n.price.to_bits()));
        for c in &n.children {
            node(out, c);
        }
        out.push(']');
    }
    let mut out = format!("{:?}:", config.strategy);
    for r in &config.roots {
        node(&mut out, r);
    }
    out
}

fn solve(method: &dyn Configurator, market: &Market) -> Pin {
    let out = method.run(market);
    let mut fp = Fingerprinter::new("freq-golden");
    fp.write_str(&canonical(&out.config));
    (out.revenue.to_bits(), out.config.roots.len(), fp.finish())
}

/// Mine the consumers-as-transactions view the way the configurators do.
fn mined(market: &Market, minsup: u32, threads: usize) -> (usize, u64) {
    let bitmaps = (0..market.n_items() as u32).map(|i| market.item_raters(i)).collect();
    let db = TransactionDb::from_item_bitmaps(market.n_users(), bitmaps);
    let sets = mine_maximal_with_threads(&db, minsup, threads);
    let mut fp = Fingerprinter::new("freq-golden-mined");
    for s in &sets {
        fp.write_usize(s.items.len());
        for &i in &s.items {
            fp.write_u32(i);
        }
        fp.write_u32(s.support);
    }
    (sets.len(), fp.finish())
}

fn small_market() -> Market {
    market_from_data(&AmazonBooksConfig::small().generate(2015), 0.05)
}

#[test]
fn freqitemset_solves_match_the_recorded_menus() {
    let market = small_market();
    let cohort = market.partition_by(&activity_labels(&market, 3)).swap_remove(COHORT);
    let pure = PureFreqItemset::default();
    let mixed = MixedFreqItemset::default();
    let got = [
        solve(&pure, &market),
        solve(&mixed, &market),
        solve(&pure, &cohort),
        solve(&mixed, &cohort),
    ];
    assert_eq!(got, WANT_SOLVES);
}

#[test]
fn mined_candidates_match_the_recorded_sets() {
    let market = small_market();
    let cohort = market.partition_by(&activity_labels(&market, 3)).swap_remove(COHORT);
    for threads in [1, 2, 8] {
        let got = [
            mined(&market, 1, threads),
            mined(&market, 2, threads),
            mined(&market, 3, threads),
            mined(&cohort, 1, threads),
        ];
        assert_eq!(got, WANT_MINED, "threads={threads}");
    }
}
