//! Heavy-tail WTP draws through the hardened pricing edge paths at 10⁶
//! scale: the PR-5 guarantees (non-finite filtering, `total_cmp` sorting,
//! grid-step guards) must hold when the inputs come from the
//! infinite-variance and infinite-mean regimes the tail generators can
//! reach, under every pricing objective.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revmax_core::objective::Objective;
use revmax_core::pricing::{optimize, PriceMode, PricingCtx};
use revmax_dataset::TailDist;

#[test]
fn million_heavy_tail_values_price_finitely_under_every_objective() {
    let mut rng = StdRng::seed_from_u64(2015);
    for dist in [
        TailDist::Pareto { alpha: 0.8 }, // infinite mean
        TailDist::Pareto { alpha: 1.7 }, // infinite variance
        TailDist::LogNormal { sigma: 4.0 },
    ] {
        let values: Vec<f64> = (0..1_000_000).map(|_| dist.sample(&mut rng) * 12.99).collect();
        for mode in [PriceMode::Exact, PriceMode::Grid] {
            let ctx = PricingCtx {
                mode,
                ..PricingCtx::from_params(&revmax_core::params::Params::default())
            };
            for objective in [Objective::Mean, Objective::Cvar(0.9), Objective::Quantile(0.5)] {
                let out = optimize(&values, &PricingCtx { objective, ..ctx });
                assert!(
                    out.price.is_finite() && out.price >= 0.0,
                    "{dist:?}/{mode:?}/{objective:?}: price {}",
                    out.price
                );
                assert!(
                    out.revenue.is_finite() && out.revenue >= 0.0,
                    "{dist:?}/{mode:?}/{objective:?}: revenue {}",
                    out.revenue
                );
                assert!(out.expected_buyers.is_finite() && out.expected_buyers >= 0.0);
            }
        }
    }
}
