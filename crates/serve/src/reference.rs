//! The row-at-a-time reference evaluation of the §4.1 adoption model
//! (`DESIGN.md` §12): the bit-exact oracle the tile kernel
//! ([`crate::kernel`]) is checked against by the parity proptests and by
//! every `serve_bench` run. No production query path calls it.
//!
//! Each user is evaluated alone, sequentially: scatter their WTP row
//! through the item→offer postings into a per-node accumulator, walk the
//! offer tables, reset. The arithmetic is the solver's operation for
//! operation (see [`crate::query`]), so per-user payments are
//! bit-identical to solver-side evaluation; [`expected_revenue`] folds
//! them with [`chunked_payment_fold`], the same §6 reduction the batched
//! queries apply.

use crate::index::{MenuIndex, MenuStore};
use crate::query::{chunked_payment_fold, Assignment};
use revmax_core::config::Strategy;

/// Per-user assignments of `users` (payment bits and threshold-held offer
/// lists), in query order. Panics on an out-of-range id.
pub fn assign(index: &MenuIndex, users: &[u32]) -> Vec<Assignment> {
    index.validate_users(users).unwrap_or_else(|e| panic!("{e}"));
    let mut scratch = ServeScratch::new(&index.store);
    users
        .iter()
        .map(|&u| {
            let (payment, offers) = eval_user(&index.store, &mut scratch, u, true);
            Assignment { user: u, payment, offers }
        })
        .collect()
}

/// Expected revenue over `users`: [`chunked_payment_fold`] of the per-user
/// payments. Panics on an out-of-range id.
pub fn expected_revenue(index: &MenuIndex, users: &[u32]) -> f64 {
    index.validate_users(users).unwrap_or_else(|e| panic!("{e}"));
    let mut scratch = ServeScratch::new(&index.store);
    let payments: Vec<f64> =
        users.iter().map(|&u| eval_user(&index.store, &mut scratch, u, false).0).collect();
    chunked_payment_fold(&payments)
}

/// One consumer's holdings while walking a mixed offer tree — the
/// single-user mirror of [`revmax_core::mixed::UserState`].
#[derive(Debug, Clone, Copy)]
struct Hold {
    /// Raw Σ of item WTPs over held items.
    sum: f64,
    /// Amount paid.
    paid: f64,
    /// Number of held items.
    count: u32,
}

/// Reusable per-worker buffers: the per-node bundle-sum accumulator, the
/// touched-node reset list, and the tree-walk state stack.
struct ServeScratch {
    acc: Vec<f64>,
    touched: Vec<u32>,
    stack: Vec<(Option<Hold>, Vec<u32>)>,
}

impl ServeScratch {
    fn new(store: &MenuStore) -> Self {
        ServeScratch {
            acc: vec![0.0; store.shape.prices.len()],
            touched: Vec::new(),
            stack: Vec::new(),
        }
    }
}

/// Evaluate one consumer against the menu. Returns their expected payment
/// and (when `collect` is set) the threshold-held offer node ids. The
/// arithmetic mirrors the solver evaluation operation for operation — see
/// the module docs for why that yields bit-identical results.
fn eval_user(
    store: &MenuStore,
    scratch: &mut ServeScratch,
    user: u32,
    collect: bool,
) -> (f64, Vec<u32>) {
    // Public entry points validate the batch up front (`validate_users`),
    // so the hot loop carries no per-user bounds branch in release builds.
    debug_assert!(
        (user as usize) < store.n_users,
        "user {user} out of range for a {}-consumer market",
        store.n_users
    );
    // Scatter the user's WTP row through the item→offer postings: each
    // touched node's bundle sum accumulates in ascending item order,
    // matching the solver's column scatter exactly.
    let row = store.wtp.row(user);
    for (i, w) in row.iter() {
        let (lo, hi) =
            (store.shape.post_indptr[i as usize], store.shape.post_indptr[i as usize + 1]);
        for &n in &store.shape.post_nodes[lo..hi] {
            let slot = &mut scratch.acc[n as usize];
            if *slot == 0.0 {
                scratch.touched.push(n);
            }
            *slot += w;
        }
    }

    let adoption = &store.adoption;
    let params = &store.params;
    let node_size =
        |n: u32| store.shape.node_indptr[n as usize + 1] - store.shape.node_indptr[n as usize];
    let mut payment = 0.0f64;
    let mut offers: Vec<u32> = Vec::new();
    match store.shape.strategy {
        Strategy::Pure => {
            // Independent take-it-or-leave-it offers. The zero-sum skip
            // is bit-safe because the solver never sees zero-sum users
            // either: `bundle_user_sums` excludes them from an offer's
            // consumer list outright (crucial under a soft sigmoid, where
            // an *included* zero-WTP consumer would contribute a positive
            // probability, not 0.0), and a single-user view of an
            // uninterested consumer yields `price * 0.0 = +0.0`, which
            // `x + 0.0 = x` makes equivalent to skipping.
            for &root in &store.shape.roots {
                let s = scratch.acc[root as usize];
                if s == 0.0 {
                    continue;
                }
                let price = store.shape.prices[root as usize];
                let w = params.set_wtp(s, node_size(root));
                payment += price * adoption.probability(w, price);
                if collect && adoption.margin(w, price) >= 0.0 {
                    offers.push(root);
                }
            }
        }
        Strategy::Mixed => {
            // Bottom-up incremental-upgrade walk of each interested tree.
            // Post-order layout: one forward scan per subtree range, the
            // stack holding each node's (holdings, held-offer) state.
            for &root in &store.shape.roots {
                if scratch.acc[root as usize] == 0.0 {
                    continue; // no WTP on any item of this tree
                }
                debug_assert!(scratch.stack.is_empty());
                for n in store.shape.subtree_start[root as usize]..=root {
                    let k = store.shape.n_children[n as usize] as usize;
                    let price = store.shape.prices[n as usize];
                    let size = node_size(n);
                    let state = if k == 0 {
                        let s = scratch.acc[n as usize];
                        if s == 0.0 {
                            (None, Vec::new())
                        } else {
                            let w = params.set_wtp(s, size);
                            if adoption.margin(w, price) >= 0.0 {
                                let held = Hold { sum: s, paid: price, count: size as u32 };
                                (Some(held), if collect { vec![n] } else { Vec::new() })
                            } else {
                                (None, Vec::new())
                            }
                        }
                    } else {
                        // Combine the children's holdings in child order —
                        // the solver's left-to-right merge_states fold.
                        let base = scratch.stack.len() - k;
                        let mut combined = Hold { sum: 0.0, paid: 0.0, count: 0 };
                        let mut any = false;
                        let mut held_offers: Vec<u32> = Vec::new();
                        for (h, v) in scratch.stack.drain(base..) {
                            if let Some(h) = h {
                                combined.sum += h.sum;
                                combined.paid += h.paid;
                                combined.count += h.count;
                                any = true;
                                if collect {
                                    held_offers.extend(v);
                                }
                            }
                        }
                        let s_b = scratch.acc[n as usize];
                        if s_b == 0.0 {
                            (None, Vec::new())
                        } else {
                            let (s_held, q, c_held) = if any {
                                (combined.sum, combined.paid, combined.count as usize)
                            } else {
                                (0.0, 0.0, 0)
                            };
                            let addon_count = size.saturating_sub(c_held);
                            let addon_wtp =
                                params.set_wtp((s_b - s_held).max(0.0), addon_count.max(1));
                            let margin =
                                adoption.alpha * addon_wtp - (price - q) + adoption.epsilon;
                            if margin >= 0.0 {
                                let held = Hold { sum: s_b, paid: price, count: size as u32 };
                                (Some(held), if collect { vec![n] } else { Vec::new() })
                            } else if any {
                                (Some(combined), held_offers)
                            } else {
                                (None, Vec::new())
                            }
                        }
                    };
                    scratch.stack.push(state);
                }
                let (state, held_offers) = scratch.stack.pop().expect("root state");
                if let Some(h) = state {
                    payment += h.paid;
                    if collect {
                        offers.extend(held_offers);
                    }
                }
            }
        }
    }

    // Reset the accumulator for the next user.
    for &n in &scratch.touched {
        scratch.acc[n as usize] = 0.0;
    }
    scratch.touched.clear();
    (payment, offers)
}
