//! `serve-bulk`: the tile kernel on its own. The Mixed Greedy menu of the
//! small market, its consumers cloned to about 10⁶, scored in process by
//! `expected_revenue_all`, `assign_all` and one `try_marginal_revenue_all`
//! per root offer. No wire, no queue.

use crate::client::splitmix;
use crate::host::{clean, Host, Meter};
use crate::solve::fnv1a;
use crate::stats::{mean, median, Summary};
use crate::trace::Tracer;
use crate::{finish_trace, host_metrics, peak_rss_mb, reset_peak_rss, Args, Run};
use revmax_core::algorithms::by_name;
use revmax_core::config::Outcome;
use revmax_core::market::{Market, Scratch};
use revmax_dataset::scale::clone_users;
use revmax_engine::{market_from_data, ScaleSpec};
use revmax_serve::{Assignment, MenuIndex};
use std::hint::black_box;

const SCALE: ScaleSpec = ScaleSpec::Small;
const THETA: f64 = 0.05;
const TARGET_USERS: usize = 1_000_000;
/// Menus one untraced run scores: those of its seed and the next seeds,
/// each over `TARGET_USERS / MARKETS` cloned consumers, so a pass over all
/// of them scores about 10⁶. Menu shapes differ by seed, and so does the
/// cost of scoring a consumer; four menus keep one seed's shape from
/// setting the run's figure. The traced run replays the first menu.
const MARKETS: usize = 4;
/// Serve fan-out: two threads, the most the load may use.
const THREADS: usize = 2;
const SETUP_REPS: usize = 5;
/// Relative price move of each marginal-revenue what-if.
const DPRICE_FRAC: f64 = 0.01;
/// Point queries timed by the traced run, and their size.
const POINT_QUERIES: usize = 2000;
const POINT_IDS: usize = 16;

/// A compiled menu over the cloned market, ready to score.
struct Bulk {
    base: Market,
    outcome: Outcome,
    market: Market,
    factor: usize,
    index: MenuIndex,
}

fn setup(seed: u64, t: &mut Tracer) -> Bulk {
    let data = t.span("dataset.generate", 0, || SCALE.config().generate(seed));
    let base = t.span("core.wtp.market_build", 0, || market_from_data(&data, THETA));
    let mg = by_name("Mixed Greedy").expect("Mixed Greedy is registered");
    let outcome = t.span("core.algorithms.mixed_greedy", 0, || mg.run(&base));
    let factor = (TARGET_USERS / MARKETS).div_ceil(data.n_users());
    let cloned = t.span("dataset.clone_users", 0, || clone_users(&data, factor));
    drop(data);
    let market = t.span("core.wtp.market_build", 1, || market_from_data(&cloned, THETA));
    drop(cloned);
    let index = t.span("serve.index.compile", 0, || {
        MenuIndex::compile(&market, &outcome.config).with_threads(THREADS)
    });
    Bulk { base, outcome, market, factor, index }
}

/// Digest of a full assignment: every consumer's payment bits and held
/// offers, in order.
fn assign_digest(a: &[Assignment]) -> u64 {
    let mut bytes = Vec::with_capacity(a.len() * 16);
    for x in a {
        bytes.extend_from_slice(&x.payment.to_bits().to_le_bytes());
        for &o in &x.offers {
            bytes.extend_from_slice(&o.to_le_bytes());
        }
        bytes.push(0xff);
    }
    fnv1a(&bytes)
}

/// One full pass: revenue, assignment and a marginal what-if per root,
/// and the pass's answers.
struct Pass {
    revenue: f64,
    assign_digest: u64,
    assign_sum: f64,
    held_offers: usize,
    marginal_bases: Vec<f64>,
    marginal_deltas: Vec<u64>,
}

fn pass(b: &Bulk, t: &mut Tracer) -> Result<Pass, String> {
    let revenue = t.span("serve.query.revenue", 0, || b.index.expected_revenue_all());
    let assigned = t.span("serve.query.assign", 0, || b.index.assign_all());
    let (mut marginal_bases, mut marginal_deltas) = (Vec::new(), Vec::new());
    for &root in b.index.roots() {
        let dprice = DPRICE_FRAC * b.index.price(root);
        let m = t.span("serve.query.marginal", u64::from(root), || {
            b.index.try_marginal_revenue_all(root, dprice)
        });
        let m = m.map_err(|e| format!("marginal revenue of root {root}: {e}"))?;
        marginal_bases.push(m.base);
        marginal_deltas.push(m.delta.to_bits());
    }
    Ok(Pass {
        revenue,
        assign_digest: assign_digest(&assigned),
        assign_sum: assigned.iter().map(|a| a.payment).sum(),
        held_offers: assigned.iter().map(|a| a.offers.len()).sum(),
        marginal_bases,
        marginal_deltas,
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-8 * a.abs().max(b.abs()).max(1.0)
}

/// Output checks of a pass against the first pass and the reference
/// evaluations.
fn check_pass(p: &Pass, first: &Pass, reference: f64, run: &mut Run) {
    run.check(p.revenue.to_bits() == reference.to_bits(), || {
        format!("expected_revenue_all {} != try_expected_revenue {reference} (bitwise)", p.revenue)
    });
    run.check(p.assign_digest == first.assign_digest, || {
        "assign_all changed between passes".into()
    });
    run.check(close(p.assign_sum, p.revenue), || {
        format!("assigned payments sum to {} but revenue is {}", p.assign_sum, p.revenue)
    });
    for (k, (&base, &delta)) in p.marginal_bases.iter().zip(&p.marginal_deltas).enumerate() {
        run.check(base.to_bits() == p.revenue.to_bits(), || {
            format!("marginal {k}: base {base} != expected_revenue_all {}", p.revenue)
        });
        run.check(delta == first.marginal_deltas[k], || {
            format!("marginal {k}: delta changed between passes")
        });
    }
}

/// Checks made once per run: the id-batch path agrees bit for bit, cloned
/// consumers scale revenue linearly, and the solver's own evaluation of
/// the menu matches the served total. Returns the id-batch revenue.
fn reference_checks(b: &Bulk, t: &mut Tracer, run: &mut Run) -> Result<f64, String> {
    let users = b.index.all_users();
    let reference = t
        .span("serve.query.revenue", 1, || b.index.try_expected_revenue(&users))
        .map_err(|e| format!("try_expected_revenue over all consumers: {e}"))?;
    let base_index =
        t.span("serve.index.compile", 1, || MenuIndex::compile(&b.base, &b.outcome.config));
    let base_rev = base_index.expected_revenue_all();
    let linear = base_rev * b.factor as f64;
    run.check(close(reference, linear), || {
        format!("clone linearity: served {reference} vs {} x {base_rev}", b.factor)
    });
    let solver = t.span("core.config.eval", 0, || b.outcome.config.expected_revenue(&b.market));
    run.check(close(reference, solver), || {
        format!("solver parity: served {reference} vs solver {solver}")
    });
    Ok(reference)
}

pub fn run(args: &Args) -> Result<Run, String> {
    if args.trace {
        return traced(args);
    }
    let mut run = Run::default();
    let mut host = Host::new();
    host.settle();
    let mut setups = Vec::new();
    let mut bulks = Vec::new();
    for rep in 0..SETUP_REPS {
        bulks.clear();
        if rep + 1 == SETUP_REPS {
            reset_peak_rss();
        }
        let t0 = crate::trace::now();
        for k in 0..MARKETS as u64 {
            bulks.push(setup(args.seed + k, &mut Tracer::new(false)));
        }
        setups.push(t0.elapsed().as_secs_f64());
    }

    // One checked, untimed pass per menu: it warms the index up and gives
    // the answers every timed call must repeat.
    let mut firsts = Vec::new();
    for b in &bulks {
        let reference = reference_checks(b, &mut Tracer::new(false), &mut run)?;
        let p = pass(b, &mut Tracer::new(false))?;
        check_pass(&p, &p, reference, &mut run);
        firsts.push(p);
    }
    run.metric("rss_mb", peak_rss_mb(None)?);

    // Timed calls one at a time, cycling through the menus, then the call
    // kinds (revenue, assignment, marginal), the marginal's root rotating
    // through each menu's roots. Every answer is checked against the
    // menu's first pass.
    let mut calls: Vec<[Vec<(f64, f64)>; 3]> = bulks.iter().map(|_| Default::default()).collect();
    let start = crate::trace::now();
    let mut k = 0;
    while k < 3 * MARKETS || start.elapsed() < args.budget() {
        let (m, kind, round) = (k % MARKETS, k / MARKETS % 3, k / (3 * MARKETS));
        let (b, first) = (&bulks[m], &firsts[m]);
        let (t0, meter) = (crate::trace::now(), Meter::start());
        match kind {
            0 => {
                let revenue = b.index.expected_revenue_all();
                calls[m][0].push((t0.elapsed().as_secs_f64() * 1e3, meter.share()));
                run.check(revenue.to_bits() == first.revenue.to_bits(), || {
                    format!(
                        "menu {m}: expected_revenue_all {revenue} != first pass {}",
                        first.revenue
                    )
                });
            }
            1 => {
                let assigned = b.index.assign_all();
                calls[m][1].push((t0.elapsed().as_secs_f64() * 1e3, meter.share()));
                run.check(assign_digest(&assigned) == first.assign_digest, || {
                    format!("menu {m}: assign_all changed since the first pass")
                });
            }
            _ => {
                let j = round % b.index.roots().len();
                let root = b.index.roots()[j];
                let got = b.index.try_marginal_revenue_all(root, DPRICE_FRAC * b.index.price(root));
                calls[m][2].push((t0.elapsed().as_secs_f64() * 1e3, meter.share()));
                let got = got.map_err(|e| format!("marginal revenue of root {root}: {e}"))?;
                run.check(
                    got.base.to_bits() == first.revenue.to_bits()
                        && got.delta.to_bits() == first.marginal_deltas[j],
                    || format!("menu {m}: marginal of root {root} changed since the first pass"),
                );
            }
        }
        k += 1;
    }
    // A pass over a menu is one revenue call, one assignment and one
    // marginal per root; each call kind's time is its mean over the calls
    // measured clean of steal. Over a run's many calls the mean is
    // steadier than the median of a few calls per kind.
    let (mut scored, mut pass_ms) = (0.0, 0.0);
    for (b, c) in bulks.iter().zip(&calls) {
        let roots = b.index.roots().len();
        pass_ms += mean(&clean(&c[0])) + mean(&clean(&c[1])) + roots as f64 * mean(&clean(&c[2]));
        scored += (b.index.n_users() * (2 + roots)) as f64;
    }
    run.metric("setup_s", median(&setups));
    run.metric("users_per_s", scored / (pass_ms / 1e3));
    let calls_ms: Vec<f64> = calls.iter().flatten().flatten().map(|c| c.0).collect();
    run.note(format!("whole-population calls: {}", Summary::of(&calls_ms).render("ms")));
    for (m, b) in bulks.iter().enumerate() {
        let kind = |i: usize| mean(&clean(&calls[m][i]));
        run.note(format!(
            "menu {m} (seed {}): {} consumers (x{}), {} roots; mean ms: revenue {:.2}, \
             assign {:.2}, marginal {:.2}",
            args.seed + m as u64,
            b.index.n_users(),
            b.factor,
            b.index.roots().len(),
            kind(0),
            kind(1),
            kind(2)
        ));
    }
    run.note(host.note());
    Ok(run)
}

/// The measured work of the traced replay on a built index: the
/// reference checks, one pass, a pricing probe on the base market, and a
/// run of 16-id point queries on the daemon's one-thread query path.
fn replay(seed: u64, b: &Bulk, t: &mut Tracer, run: &mut Run) -> Result<Pass, String> {
    let reference = reference_checks(b, t, run)?;
    let p = pass(b, t)?;
    check_pass(&p, &p, reference, run);
    let mut scratch = Scratch::new(b.base.n_users());
    t.span("core.pricing", 0, || {
        for offer in b.outcome.config.offers() {
            black_box(b.base.price_bundle(&offer.bundle, &mut scratch));
        }
    });
    let point = b.index.clone().with_threads(1);
    let mut rng = seed ^ 0x9e37_79b9;
    let n = point.n_users() as u64;
    for q in 0..POINT_QUERIES {
        let ids: Vec<u32> = (0..POINT_IDS).map(|_| (splitmix(&mut rng) % n) as u32).collect();
        let ok = if q % 2 == 0 {
            t.span("serve.query.point", q as u64, || point.try_expected_revenue(&ids)).is_ok()
        } else {
            t.span("serve.query.point", q as u64, || point.try_assign(&ids)).is_ok()
        };
        run.check(ok, || format!("point query {q} refused"));
    }
    Ok(p)
}

fn traced(args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let mut host = Host::new();
    host.settle();
    let mut t = Tracer::new(true);
    let t0 = crate::trace::now();
    let b = setup(args.seed, &mut t);
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The same work traced, then untraced: the difference is the tracing
    // overhead. An untraced warm-up runs first, so neither timed replay
    // pays the first touch of the pass's ~10^6 fresh allocations.
    black_box(replay(args.seed, &b, &mut Tracer::new(false), &mut run)?);
    let t0 = crate::trace::now();
    let p = replay(args.seed, &b, &mut t, &mut run)?;
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = crate::trace::now();
    black_box(replay(args.seed, &b, &mut Tracer::new(false), &mut run)?);
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;

    let totals = t.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6);
    let n = b.index.n_users() as f64;
    let per_user =
        |name: &str| ms(name) * 1e6 / (n * totals.get(name).map_or(1, |x| x.count) as f64);

    run.metric("dataset.generate_ms", ms("dataset.generate"));
    run.metric("dataset.clone_users_ms", ms("dataset.clone_users"));
    run.metric("core.wtp.market_build_ms", ms("core.wtp.market_build"));
    run.metric("core.algorithms.mixed_greedy.run_ms", ms("core.algorithms.mixed_greedy"));
    run.metric("core.algorithms.mixed_greedy.iterations", b.outcome.trace.iterations() as f64);
    run.metric("core.algorithms.mixed_greedy.bundles", b.outcome.config.n_bundles() as f64);
    let values: usize = b
        .outcome
        .config
        .offers()
        .iter()
        .map(|o| o.bundle.items().iter().map(|&i| b.base.wtp().col(i).len()).sum::<usize>())
        .sum();
    run.metric("core.pricing.ns_per_value", ms("core.pricing") * 1e6 / values.max(1) as f64);
    run.metric("core.config.eval_ns_per_user", ms("core.config.eval") * 1e6 / n);
    let compile =
        totals.get("serve.index.compile").map_or(0.0, |x| x.self_ns as f64 / 1e6 / x.count as f64);
    run.metric("serve.index.compile_ms", compile);
    run.metric("serve.query.revenue_ns_per_user", per_user("serve.query.revenue"));
    run.metric("serve.query.assign_ns_per_user", per_user("serve.query.assign"));
    run.metric("serve.query.marginal_ns_per_user", per_user("serve.query.marginal"));
    run.metric("serve.query.held_offers", p.held_offers as f64);
    run.metric("serve.query.point_us", ms("serve.query.point") * 1e3 / POINT_QUERIES as f64);
    host_metrics(&host, &mut run);
    finish_trace(
        args,
        "serve-bulk",
        &t,
        setup_ms + replay_ms,
        replay_ms - untraced_ms,
        untraced_ms,
        &mut run,
    )
}
