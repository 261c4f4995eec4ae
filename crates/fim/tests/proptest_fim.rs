//! Property tests tying the three miners together on random databases:
//! Eclat must equal Apriori exactly; the maximal miner must equal the
//! maximality filter over Eclat's output, and at support 1 (where it reads
//! the maximal transactions off directly) the definition checked by brute
//! force on databases of up to 150 transactions.

use proptest::prelude::*;
use revmax_fim::{apriori, mine_frequent, mine_maximal, EclatLimit, Itemset, TransactionDb};

fn arb_db(max_items: usize, max_tx: usize) -> impl Strategy<Value = TransactionDb> {
    (2usize..=max_items).prop_flat_map(move |n| {
        let tx = proptest::collection::vec(0u32..n as u32, 0..=n);
        proptest::collection::vec(tx, 0..=max_tx).prop_map(move |mut txs| {
            for tx in &mut txs {
                tx.sort_unstable();
                tx.dedup();
            }
            TransactionDb::from_transactions(n, &txs)
        })
    })
}

fn normalized(mut sets: Vec<Itemset>) -> Vec<(Vec<u32>, u32)> {
    sets.sort_by(|a, b| a.items.cmp(&b.items));
    sets.into_iter().map(|s| (s.items, s.support)).collect()
}

/// Maximal frequent itemsets at support 1 by the definition, over every
/// itemset of the (≤ 16-item) universe: contained in some transaction, and
/// no single-item extension is.
fn brute_maximal_support_one(db: &TransactionDb) -> Vec<(Vec<u32>, u32)> {
    let n = db.n_items();
    let mut rows = vec![0u32; db.n_transactions()];
    for i in 0..n {
        for t in db.item_bitmap(i as u32).iter_ones() {
            rows[t] |= 1 << i;
        }
    }
    let support = |m: u32| rows.iter().filter(|&&r| r & m == m).count() as u32;
    let maximal = (1u32..1 << n)
        .filter(|&m| support(m) >= 1)
        .filter(|&m| (0..n).all(|i| m & (1 << i) != 0 || support(m | (1 << i)) == 0))
        .map(|m| Itemset {
            items: (0..n as u32).filter(|&i| m & (1 << i) != 0).collect(),
            support: support(m),
        })
        .collect();
    normalized(maximal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn eclat_equals_apriori(db in arb_db(8, 24), minsup in 1u32..6) {
        let e = normalized(mine_frequent(&db, minsup, EclatLimit::Unbounded).unwrap());
        let a = normalized(apriori(&db, minsup));
        prop_assert_eq!(e, a);
    }

    #[test]
    fn maximal_equals_filtered_frequent(db in arb_db(9, 30), minsup in 1u32..6) {
        let all = mine_frequent(&db, minsup, EclatLimit::Unbounded).unwrap();
        let mut expect: Vec<Itemset> = all
            .iter()
            .filter(|s| !all.iter().any(|t| t.items.len() > s.items.len() && s.is_subset_of(t)))
            .cloned()
            .collect();
        expect.sort_by(|a, b| a.items.cmp(&b.items));
        let got = mine_maximal(&db, minsup);
        prop_assert_eq!(normalized(got), normalized(expect));
    }

    #[test]
    fn maximal_sets_are_frequent_and_pairwise_unrelated(db in arb_db(10, 25), minsup in 1u32..5) {
        let got = mine_maximal(&db, minsup);
        for s in &got {
            prop_assert!(s.support >= minsup);
            prop_assert_eq!(s.support, db.support(&s.items));
        }
        for (i, a) in got.iter().enumerate() {
            for b in got.iter().skip(i + 1) {
                prop_assert!(!a.is_subset_of(b) && !b.is_subset_of(a),
                    "maximal sets related: {:?} vs {:?}", a.items, b.items);
            }
        }
    }

    #[test]
    fn maximal_at_support_one_is_the_definition(db in arb_db(10, 150)) {
        prop_assert_eq!(normalized(mine_maximal(&db, 1)), brute_maximal_support_one(&db));
    }
}
