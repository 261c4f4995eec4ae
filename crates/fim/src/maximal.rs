//! Maximal frequent itemset mining: a direct read-off at absolute support
//! 1, MAFIA-style search at every higher support.
//!
//! **Support 1.** An itemset is frequent at absolute support 1 exactly when
//! some transaction contains it. A frequent set that is not itself a
//! transaction is a strict subset of the transaction that contains it, and
//! so is not maximal; a transaction that is a strict subset of another is
//! not maximal either. So the maximal frequent itemsets are exactly the
//! distinct, non-empty transactions that are not a strict subset of another
//! transaction, and each one's support is its number of identical copies
//! (any transaction containing a maximal transaction equals it). The
//! read-off rebuilds the rows, visits the distinct ones longest first and
//! keeps a row unless an already kept row contains it, testing that with
//! one bitmap per item over the kept rows: O(T · |t| · T/64) for T
//! transactions of length |t|, with no search. On markets of at most 1 000
//! consumers the paper's 0.1% support *is* support 1.
//!
//! **Support ≥ 2** runs a depth-first search over the set-enumeration tree
//! with the three classic MAFIA prunings (Burdick, Calimlim, Gehrke —
//! ICDM'01):
//!
//! * **PEP** (parent equivalence pruning): a tail item whose conditional
//!   support equals the prefix's support belongs to *every* maximal superset
//!   of the prefix, so it is moved into the prefix unconditionally.
//! * **FHUT** (frequent head-union-tail): if prefix ∪ tail is itself
//!   frequent, it is the unique candidate from this subtree.
//! * **HUTMFI**: if prefix ∪ tail is a subset of an already-found maximal
//!   set, the whole subtree is subsumed and is skipped.
//!
//! Tails are dynamically reordered by increasing conditional support, which
//! empirically keeps the search tree small (failing extensions first).
//! Correctness of emission-time subsumption checking follows from the
//! left-to-right exploration order: any maximal superset of an emitted
//! candidate lives in an earlier subtree (see the module tests, which
//! cross-check against a filter over Eclat's full output, and the support-1
//! read-off against this search and against the definition).

use crate::{Bitmap, Itemset, TransactionDb};
use revmax_par::par_index_map;

/// Minimum tail length before one node's conditional-bitmap intersections
/// fan out across worker threads (same contract as the Eclat threshold:
/// data-dependent only, so output is identical at any thread count).
const PAR_FANOUT_MIN: usize = 32;

/// Mine the maximal frequent itemsets at absolute support `minsup ≥ 1`.
///
/// Output is sorted lexicographically by items; every set carries its exact
/// support. Singletons that are frequent but extendable never appear — only
/// maximal sets do. Single-threaded; see [`mine_maximal_with_threads`].
pub fn mine_maximal(db: &TransactionDb, minsup: u32) -> Vec<Itemset> {
    mine_maximal_with_threads(db, minsup, 1)
}

/// [`mine_maximal`] with each DFS node's tidset intersections spread over
/// up to `threads` workers. Output is bit-identical to the sequential
/// miner at any thread count: the intersections are independent, their
/// tail order is preserved, and the PEP/emission logic stays sequential
/// (`DESIGN.md` §6). At `minsup == 1` the maximal transactions are read
/// off directly (see the module docs) and `threads` is unused.
pub fn mine_maximal_with_threads(db: &TransactionDb, minsup: u32, threads: usize) -> Vec<Itemset> {
    assert!(minsup >= 1, "minsup must be >= 1");
    if minsup == 1 {
        maximal_transactions(db)
    } else {
        mafia(db, minsup, threads)
    }
}

/// The maximal frequent itemsets at absolute support 1: the distinct,
/// non-empty transactions that no other transaction strictly contains,
/// each with its multiplicity as support, sorted by items.
fn maximal_transactions(db: &TransactionDb) -> Vec<Itemset> {
    // Rows from the item bitmaps; items arrive ascending.
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); db.n_transactions()];
    for item in 0..db.n_items() as u32 {
        for t in db.item_bitmap(item).iter_ones() {
            rows[t].push(item);
        }
    }
    rows.retain(|r| !r.is_empty());
    // Longest first: every strict superset of a row comes before it, and
    // identical rows sit next to each other.
    rows.sort_unstable_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));

    let mut kept: Vec<Itemset> = Vec::new();
    // For each item, the bitmap (over `kept` indices) of kept rows holding
    // it, grown a word at a time as rows are kept.
    let mut holding: Vec<Vec<u64>> = vec![Vec::new(); db.n_items()];
    for row in rows {
        if let Some(last) = kept.last_mut() {
            if last.items == row {
                last.support += 1;
                continue;
            }
        }
        // A row is subsumed iff some kept row holds all its items. A strict
        // superset that was itself dropped sits inside a kept row, so the
        // kept rows suffice.
        let words = row.iter().map(|&i| holding[i as usize].len()).min().unwrap_or(0);
        let subsumed = (0..words).any(|w| {
            row.iter().map(|&i| holding[i as usize][w]).fold(!0u64, |acc, x| acc & x) != 0
        });
        if subsumed {
            continue;
        }
        let (word, bit) = (kept.len() / 64, kept.len() % 64);
        for &i in &row {
            let h = &mut holding[i as usize];
            h.resize(h.len().max(word + 1), 0);
            h[word] |= 1u64 << bit;
        }
        kept.push(Itemset { items: row, support: 1 });
    }
    kept.sort_unstable_by(|a, b| a.items.cmp(&b.items));
    kept
}

/// The MAFIA search (module docs), exact at any `minsup ≥ 1`.
fn mafia(db: &TransactionDb, minsup: u32, threads: usize) -> Vec<Itemset> {
    let roots: Vec<(u32, Bitmap, u32)> = (0..db.n_items() as u32)
        .filter_map(|i| {
            let bm = db.item_bitmap(i);
            let sup = bm.count();
            (sup >= minsup).then(|| (i, bm.clone(), sup))
        })
        .collect();
    let mut miner = Miner {
        minsup,
        threads: threads.max(1),
        found: Vec::new(),
        index: InvertedIndex::default(),
    };
    // Root: empty prefix with full-transaction "bitmap" (represented lazily:
    // each root already carries its own bitmap, so recursion starts per-root
    // the same way inner nodes do).
    let mut ordered = roots;
    ordered.sort_by_key(|r| r.2); // increasing support
    miner.search(&mut Vec::new(), None, ordered);
    let mut out = miner.found;
    out.sort_by(|a, b| a.items.cmp(&b.items));
    out
}

#[derive(Default)]
struct InvertedIndex {
    /// For each item id, the indices of found maximal sets containing it.
    by_item: Vec<Vec<u32>>,
}

impl InvertedIndex {
    fn ensure(&mut self, item: u32) {
        if self.by_item.len() <= item as usize {
            self.by_item.resize(item as usize + 1, Vec::new());
        }
    }

    fn insert(&mut self, set_idx: u32, items: &[u32]) {
        for &i in items {
            self.ensure(i);
            self.by_item[i as usize].push(set_idx);
        }
    }

    /// Candidate set ids that contain `item` (empty if none).
    fn sets_with(&self, item: u32) -> &[u32] {
        self.by_item.get(item as usize).map(Vec::as_slice).unwrap_or(&[])
    }
}

struct Miner {
    minsup: u32,
    threads: usize,
    found: Vec<Itemset>,
    index: InvertedIndex,
}

impl Miner {
    /// Is `candidate` (sorted) a subset of any found maximal set?
    fn subsumed(&self, candidate: &[u32]) -> bool {
        // Any superset contains every candidate item, so scan only the sets
        // holding the candidate's rarest item among the found sets.
        let Some(probe) =
            candidate.iter().map(|&i| self.index.sets_with(i)).min_by_key(|s| s.len())
        else {
            return !self.found.is_empty();
        };
        probe.iter().any(|&si| crate::is_subset(candidate, &self.found[si as usize].items))
    }

    fn emit(&mut self, items: Vec<u32>, support: u32) {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        if !self.subsumed(&items) {
            let idx = self.found.len() as u32;
            self.index.insert(idx, &items);
            self.found.push(Itemset { items, support });
        }
    }

    /// DFS. `prefix` is the current head (sorted), `pbm` its bitmap (None at
    /// the artificial root), `tail` the frequent extensions with their
    /// conditional bitmaps and supports, in increasing-support order.
    fn search(
        &mut self,
        prefix: &mut Vec<u32>,
        pbm: Option<&Bitmap>,
        tail: Vec<(u32, Bitmap, u32)>,
    ) {
        if tail.is_empty() {
            if let Some(bm) = pbm {
                let mut items = prefix.clone();
                items.sort_unstable();
                self.emit(items, bm.count());
            }
            return;
        }
        // HUTMFI: prefix ∪ tail already covered by a known maximal set?
        let mut hut: Vec<u32> = prefix.iter().copied().chain(tail.iter().map(|t| t.0)).collect();
        hut.sort_unstable();
        if self.subsumed(&hut) {
            return;
        }
        // FHUT: is prefix ∪ tail itself frequent?
        {
            let mut acc = tail[0].1.clone();
            for (_, bm, _) in &tail[1..] {
                acc.and_assign(bm);
            }
            // Tail bitmaps are already conditioned on the prefix.
            let sup = acc.count();
            if sup >= self.minsup {
                self.emit(hut, sup);
                return;
            }
        }
        for idx in 0..tail.len() {
            let (item, bm, _sup) = &tail[idx];
            let item = *item;
            prefix.push(item);
            // Build the child's tail from strictly later entries, applying
            // PEP: equal-support extensions join the prefix immediately.
            let parent_sup = bm.count();
            let mut pep_moved: Vec<u32> = Vec::new();
            let mut child_tail: Vec<(u32, Bitmap, u32)> = Vec::new();
            // The independent tidset intersections of this node, fanned out
            // over workers for wide tails. Each is counted first; only a
            // frequent extension that is not PEP gets its bitmap (a PEP
            // extension's bitmap equals `bm`). PEP classification stays
            // sequential in tail order, so the child tail is identical to
            // the sequential construction.
            let minsup = self.minsup;
            let extend = |(jtem, jbm, _): &(u32, Bitmap, u32)| {
                let nsup = bm.and_count(jbm);
                let nbm = (nsup >= minsup && nsup < parent_sup).then(|| bm.and(jbm));
                (*jtem, nbm, nsup)
            };
            let exts = &tail[idx + 1..];
            let intersected: Vec<(u32, Option<Bitmap>, u32)> =
                if self.threads > 1 && exts.len() >= PAR_FANOUT_MIN {
                    par_index_map(self.threads, exts.len(), |j| extend(&exts[j]))
                } else {
                    exts.iter().map(extend).collect()
                };
            for (jtem, nbm, nsup) in intersected {
                match nbm {
                    Some(nbm) => child_tail.push((jtem, nbm, nsup)),
                    // PEP: jtem occurs in every transaction of the prefix.
                    None if nsup == parent_sup => pep_moved.push(jtem),
                    None => {} // infrequent
                }
            }
            prefix.extend_from_slice(&pep_moved);
            child_tail.sort_by_key(|t| t.2);
            // The PEP items' tid-sets contain bm's, so bm stays the prefix
            // bitmap and child_tail needs no re-conditioning on them.
            self.search(prefix, Some(bm), child_tail);
            prefix.truncate(prefix.len() - 1 - pep_moved.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mine_frequent, EclatLimit};

    /// Reference: maximal sets = frequent sets with no frequent strict
    /// superset (filter over Eclat's complete output).
    fn reference_maximal(db: &TransactionDb, minsup: u32) -> Vec<Itemset> {
        let all = mine_frequent(db, minsup, EclatLimit::Unbounded).unwrap();
        let mut out: Vec<Itemset> = all
            .iter()
            .filter(|s| !all.iter().any(|t| t.items.len() > s.items.len() && s.is_subset_of(t)))
            .cloned()
            .collect();
        out.sort_by(|a, b| a.items.cmp(&b.items));
        out
    }

    fn check(db: &TransactionDb, minsup: u32) {
        let got = mine_maximal(db, minsup);
        let want = reference_maximal(db, minsup);
        assert_eq!(got, want, "maximal mismatch at minsup {minsup}");
    }

    #[test]
    fn textbook_example() {
        let db = TransactionDb::from_transactions(
            5,
            &[vec![0, 1, 4], vec![1, 3], vec![1, 2], vec![0, 1, 3], vec![0, 2]],
        );
        for minsup in 1..=5 {
            check(&db, minsup);
        }
    }

    #[test]
    fn single_maximal_superset() {
        let db = TransactionDb::from_transactions(
            4,
            &[vec![0, 1, 2], vec![0, 1, 2], vec![0, 1], vec![3]],
        );
        let got = mine_maximal(&db, 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].items, vec![0, 1, 2]);
        assert_eq!(got[0].support, 2);
    }

    #[test]
    fn pep_merges_equal_support_items() {
        // Items 0 and 1 always co-occur: PEP should fuse them.
        let db =
            TransactionDb::from_transactions(3, &[vec![0, 1], vec![0, 1], vec![0, 1, 2], vec![2]]);
        let got = mine_maximal(&db, 2);
        assert!(got.iter().any(|s| s.items == vec![0, 1] && s.support == 3));
        for minsup in 1..=4 {
            check(&db, minsup);
        }
    }

    #[test]
    fn empty_db_yields_nothing() {
        let db = TransactionDb::from_transactions(3, &[]);
        assert!(mine_maximal(&db, 1).is_empty());
    }

    #[test]
    fn disjoint_transactions() {
        let db = TransactionDb::from_transactions(
            6,
            &[vec![0, 1], vec![0, 1], vec![2, 3], vec![2, 3], vec![4, 5]],
        );
        let got = mine_maximal(&db, 2);
        let sets: Vec<Vec<u32>> = got.iter().map(|s| s.items.clone()).collect();
        assert_eq!(sets, vec![vec![0, 1], vec![2, 3]]);
        check(&db, 2);
    }

    #[test]
    fn dense_random_cross_check() {
        // Pseudo-random database, all minsups, vs the Eclat filter.
        let mut state = 42u64;
        let mut txs = Vec::new();
        for _ in 0..40 {
            let mut tx = Vec::new();
            for item in 0..10u32 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (state >> 33) % 10 < 4 {
                    tx.push(item);
                }
            }
            txs.push(tx);
        }
        let db = TransactionDb::from_transactions(10, &txs);
        for minsup in [1, 2, 3, 5, 8, 12, 20] {
            check(&db, minsup);
        }
    }

    #[test]
    fn parallel_maximal_identical_to_sequential() {
        // 64 items so root tails exceed PAR_FANOUT_MIN and the parallel
        // intersection path actually runs.
        let n_items = 64usize;
        let txs: Vec<Vec<u32>> = (0..150u32)
            .map(|t| (0..n_items as u32).filter(|&i| (t * 13 + i * 7) % 6 < 2).collect())
            .collect();
        let db = TransactionDb::from_transactions(n_items, &txs);
        let seq = mine_maximal_with_threads(&db, 20, 1);
        assert!(!seq.is_empty());
        assert_eq!(seq, mine_maximal(&db, 20));
        for threads in [2, 4, 7] {
            assert_eq!(mine_maximal_with_threads(&db, 20, threads), seq, "threads={threads}");
        }
    }

    /// The definition at support 1, by brute force over every itemset of
    /// the (≤ 16-item) universe: the sets some transaction contains that no
    /// single-item extension keeps frequent, with their supports.
    fn brute_support_one(db: &TransactionDb) -> Vec<Itemset> {
        let n = db.n_items();
        assert!(n <= 16);
        let mut rows = vec![0u32; db.n_transactions()];
        for i in 0..n {
            for t in db.item_bitmap(i as u32).iter_ones() {
                rows[t] |= 1 << i;
            }
        }
        let support = |m: u32| rows.iter().filter(|&&r| r & m == m).count() as u32;
        let mut out: Vec<Itemset> = (1u32..1 << n)
            .filter(|&m| support(m) >= 1)
            .filter(|&m| (0..n).all(|i| m & (1 << i) != 0 || support(m | (1 << i)) == 0))
            .map(|m| Itemset {
                items: (0..n as u32).filter(|&i| m & (1 << i) != 0).collect(),
                support: support(m),
            })
            .collect();
        out.sort_by(|a, b| a.items.cmp(&b.items));
        out
    }

    /// The support-1 read-off equals MAFIA's search driven at support 1
    /// and the brute-force definition, at every thread count.
    fn check_support_one(db: &TransactionDb) -> Vec<Itemset> {
        let want = brute_support_one(db);
        for threads in [1, 2, 8] {
            assert_eq!(mine_maximal_with_threads(db, 1, threads), want, "threads={threads}");
            assert_eq!(mafia(db, 1, threads), want, "MAFIA at threads={threads}");
        }
        want
    }

    #[test]
    fn support_one_reads_off_maximal_transactions() {
        // Items 7 and 8 have zero support; item 6 is a maximal singleton.
        let db = TransactionDb::from_transactions(
            9,
            &[
                vec![0, 1, 2],
                vec![],
                vec![0, 1],    // nested in {0,1,2}
                vec![1, 2, 3], // shares {1,2} with {0,1,2}
                vec![0, 1, 2], // duplicate: support 2
                vec![6],
                vec![4, 5],
                vec![5],       // nested in {4,5}
                vec![1, 2, 3], // duplicate: support 2
                vec![],
            ],
        );
        let got = check_support_one(&db);
        let sets: Vec<(Vec<u32>, u32)> = got.into_iter().map(|s| (s.items, s.support)).collect();
        assert_eq!(
            sets,
            vec![(vec![0, 1, 2], 2), (vec![1, 2, 3], 2), (vec![4, 5], 1), (vec![6], 1)]
        );
    }

    #[test]
    fn support_one_spans_many_words_of_kept_rows() {
        // Kept longest first: the 126 5-subsets of items 0..9 (words 0 and
        // 1 of the kept-row bitmaps), then the nine rows {a,9,10,11} (words
        // 1 and 2). The nested rows {a,9}, {a,10,11} and {9,10,11} lie only
        // inside those late rows, so dropping them needs the later words;
        // some 3-subsets of 0..9 nest in the early rows. Some rows repeat,
        // item 12 is a maximal singleton and item 13 has zero support.
        let mut txs: Vec<Vec<u32>> = Vec::new();
        for m in 0u32..1 << 9 {
            let row: Vec<u32> = (0..9).filter(|&i| m & (1 << i) != 0).collect();
            match row.len() {
                5 if m % 7 == 0 => txs.extend([row.clone(), row]),
                5 => txs.push(row),
                3 if m % 4 == 0 => txs.push(row),
                _ => {}
            }
        }
        for a in 0..9 {
            txs.extend([vec![a, 9, 10, 11], vec![a, 9], vec![a, 10, 11]]);
        }
        txs.extend([vec![8, 9, 10, 11], vec![9, 10, 11], vec![12], vec![]]);
        txs.reverse(); // short rows first in the input
        let db = TransactionDb::from_transactions(14, &txs);
        let got = check_support_one(&db);
        assert_eq!(got.len(), 126 + 9 + 1);
        assert!(got.iter().any(|s| s.items == [8, 9, 10, 11] && s.support == 2));
        assert!(got.iter().all(|s| s.items.len() >= 4 || s.items == [12]));
    }

    #[test]
    fn support_one_random_cross_check() {
        // Dense and sparse pseudo-random databases with many duplicates.
        let mut state = 7u64;
        for (n_items, n_tx, density) in [(6usize, 200usize, 5u64), (12, 120, 3), (16, 300, 1)] {
            let txs: Vec<Vec<u32>> = (0..n_tx)
                .map(|_| {
                    (0..n_items as u32)
                        .filter(|_| {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            (state >> 33) % 10 < density
                        })
                        .collect()
                })
                .collect();
            check_support_one(&TransactionDb::from_transactions(n_items, &txs));
        }
    }

    #[test]
    fn support_one_edge_databases() {
        for db in [
            TransactionDb::from_transactions(3, &[]),
            TransactionDb::from_transactions(3, &[vec![], vec![]]),
            TransactionDb::from_transactions(0, &[vec![], vec![]]),
            TransactionDb::from_transactions(2, &vec![vec![0, 1]; 70]),
        ] {
            check_support_one(&db);
        }
    }
}
