//! `solve-medium`: the paper's own job. One `run_sweep` over all seven
//! configurators on the medium market (896 × 500), θ = 0.05, three
//! activity cohorts, engine fan-out 2, solve cache on.
//!
//! Untraced, it repeats the sweep for the run's budget. Traced, it replays
//! the same solves through `Configurator::run` on one thread, probes
//! pricing and menu evaluation on every solved configuration, and runs the
//! sweep at one and two threads for the engine's own counters and speedup.

use crate::host::{clean, Host, Meter};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{
    finish_trace, host_metrics, peak_rss_mb, reset_peak_rss, Args, Run, DEFAULT_SEED, METHODS,
};
use revmax_core::algorithms::registry;
use revmax_core::config::Outcome;
use revmax_core::market::{Market, Scratch};
use revmax_engine::report::SweepReport;
use revmax_engine::{activity_labels, market_from_data, run_sweep, Cohort, ScaleSpec, SweepSpec};
use std::hint::black_box;

const SCALE: ScaleSpec = ScaleSpec::Medium;
const THETA: f64 = 0.05;
const COHORTS: usize = 3;
/// Set-up repetitions before each sweep.
const SETUP_REPS: usize = 5;
/// Markets one untraced run cycles through: those of its seed and the
/// next seeds.
const MARKETS: usize = 4;

/// FNV-1a digest of `SweepReport::canonical` for [`DEFAULT_SEED`]: the
/// recorded answer the default-seed run must reproduce bit for bit.
const DEFAULT_SEED_DIGEST: u64 = 0xf11f_cac8_3e00_a77c;

fn spec(seed: u64, threads: usize) -> Result<SweepSpec, String> {
    let mut s = SweepSpec::default();
    for (k, v) in [
        ("methods", "all".to_string()),
        ("scales", SCALE.name().to_string()),
        ("thetas", THETA.to_string()),
        ("seeds", seed.to_string()),
        ("cohorts", COHORTS.to_string()),
        ("threads", threads.to_string()),
        ("cache", "on".to_string()),
    ] {
        s.apply(k, &v)?;
    }
    Ok(s)
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The sweep's output checks: the canonical digest repeats (and matches
/// the recorded one on the default seed), and no configurator earns less
/// than Components on the same (sub-)market.
fn check_report(report: &SweepReport, seed: u64, digest: &mut Option<u64>, run: &mut Run) {
    let d = fnv1a(report.canonical().as_bytes());
    match *digest {
        None if seed == DEFAULT_SEED => run.check(d == DEFAULT_SEED_DIGEST, || {
            format!("canonical digest {d:016x} != recorded {DEFAULT_SEED_DIGEST:016x}")
        }),
        None => run.check(true, String::new),
        Some(first) => {
            run.check(d == first, || format!("sweep digest changed: {d:016x} vs {first:016x}"))
        }
    }
    digest.get_or_insert(d);
    run.check(report.cells.len() == METHODS.len() * (1 + COHORTS), || {
        format!("{} cells, expected {}", report.cells.len(), METHODS.len() * (1 + COHORTS))
    });
    for c in &report.cells {
        run.check(c.revenue >= c.components_revenue, || {
            format!(
                "{} {}: revenue {} below Components {}",
                c.method, c.cohort, c.revenue, c.components_revenue
            )
        });
    }
}

fn setup(seed: u64) -> Market {
    market_from_data(&SCALE.config().generate(seed), THETA)
}

pub fn run(args: &Args) -> Result<Run, String> {
    if args.trace {
        return traced(args);
    }
    let mut run = Run::default();
    // Set-up covers every market the run sweeps. Its repetitions run
    // before each sweep, so its median spans the same stretch of the
    // host's time as the sweeps do.
    let mut setups = Vec::new();
    let mut time_setups = || {
        for _ in 0..SETUP_REPS {
            let t = crate::trace::now();
            for k in 0..MARKETS as u64 {
                black_box(setup(args.seed + k));
            }
            setups.push(t.elapsed().as_secs_f64());
        }
    };

    // Sweeps cycle through the markets of the run's seed and the next
    // `MARKETS - 1` seeds, so one market's shape does not set the run's
    // figure; the figure is consumers solved over sweep seconds, summed
    // over every sweep measured clean of steal.
    let specs: Vec<SweepSpec> =
        (0..MARKETS as u64).map(|k| spec(args.seed + k, 2)).collect::<Result<_, _>>()?;
    let mut host = Host::new();
    reset_peak_rss();
    let start = crate::trace::now();
    let mut walls_ms = Vec::new();
    let mut digests = [None; MARKETS];
    let mut sweeps = Vec::new();
    // Whole rounds, one sweep per market each, for as many rounds as fit
    // the run's seconds at the pace of the rounds so far; at least one.
    let mut rounds = 0u32;
    while rounds == 0 || start.elapsed() * (rounds + 1) <= args.budget() * rounds {
        for (k, spec) in specs.iter().enumerate() {
            time_setups();
            host.settle();
            let meter = Meter::start();
            let t = crate::trace::now();
            let report = run_sweep(spec)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            walls_ms.push(ms);
            let consumers = report.cells.iter().map(|c| c.n_users).sum::<usize>() as f64;
            sweeps.push(((consumers, ms / 1e3), meter.share()));
            check_report(&report, args.seed + k as u64, &mut digests[k], &mut run);
        }
        if rounds == 0 {
            // The peak over one sweep of every market.
            run.metric("rss_mb", peak_rss_mb(None)?);
        }
        rounds += 1;
    }
    let (consumers, seconds) =
        clean(&sweeps).iter().fold((0.0, 0.0), |(c, s), &(dc, ds)| (c + dc, s + ds));
    run.metric("setup_s", median(&setups));
    run.metric("users_per_s", consumers / seconds);
    run.note(format!(
        "solve_s: {} sweeps over {MARKETS} markets, median {:.4} s ({})",
        walls_ms.len(),
        median(&walls_ms) / 1e3,
        walls_ms.iter().map(|w| format!("{:.3}", w / 1e3)).collect::<Vec<_>>().join(", ")
    ));
    run.note(format!(
        "digests: {}",
        digests.iter().map(|d| format!("{:016x}", d.unwrap_or(0))).collect::<Vec<_>>().join(" ")
    ));
    run.note(host.note());
    Ok(run)
}

/// Span name of one configurator's `run`.
fn run_span(method: &str) -> &'static str {
    match method {
        "Components" => "core.algorithms.components",
        "Pure Matching" => "core.algorithms.pure_matching",
        "Pure Greedy" => "core.algorithms.pure_greedy",
        "Mixed Matching" => "core.algorithms.mixed_matching",
        "Mixed Greedy" => "core.algorithms.mixed_greedy",
        "Pure FreqItemset" => "core.algorithms.pure_freqitemset",
        "Mixed FreqItemset" => "core.algorithms.mixed_freqitemset",
        other => panic!("configurator '{other}' missing from the metric table"),
    }
}

/// One replay of the sweep's work through the layers' public functions:
/// build, partition, every configurator on the whole market and each
/// cohort, then pricing and menu evaluation over every solved config.
/// Returns the outcomes per (method, view) and the pricing / evaluation
/// work counts (WTP values scanned, consumers evaluated).
fn replay(seed: u64, t: &mut Tracer) -> (Vec<(&'static str, usize, Outcome)>, u64, u64) {
    let data = t.span("dataset.generate", 0, || SCALE.config().generate(seed));
    let market = t.span("core.wtp.market_build", 0, || market_from_data(&data, THETA));
    let views = t.span("core.market.partition", 0, || {
        market.partition_by(&activity_labels(&market, COHORTS))
    });
    let mut markets: Vec<&Market> = vec![&market];
    markets.extend(views.iter().map(|v| v.market()));

    let mut outcomes = Vec::new();
    for (name, conf) in registry() {
        for (v, m) in markets.iter().enumerate() {
            let o = t.span(run_span(name), v as u64, || conf.run(m));
            outcomes.push((name, v, o));
        }
    }
    let (mut values, mut consumers) = (0u64, 0u64);
    for (k, (_, v, o)) in outcomes.iter().enumerate() {
        let m = markets[*v];
        let mut scratch = Scratch::new(m.n_users());
        let offers = o.config.offers();
        t.span("core.pricing", k as u64, || {
            for offer in &offers {
                black_box(m.price_bundle(&offer.bundle, &mut scratch));
            }
        });
        values += offers
            .iter()
            .map(|of| of.bundle.items().iter().map(|&i| m.wtp().col(i).len() as u64).sum::<u64>())
            .sum::<u64>();
        black_box(t.span("core.config.eval", k as u64, || o.config.expected_revenue(m)));
        consumers += m.n_users() as u64;
    }
    (outcomes, values, consumers)
}

fn traced(args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let mut host = Host::new();
    host.settle();

    // Untraced first, then traced: the difference is the tracing overhead.
    let t0 = crate::trace::now();
    black_box(replay(args.seed, &mut Tracer::new(false)));
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut t = Tracer::new(true);
    let t0 = crate::trace::now();
    let (outcomes, values, consumers) = replay(args.seed, &mut t);
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let totals = t.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6);

    run.metric("dataset.generate_ms", ms("dataset.generate"));
    run.metric("core.wtp.market_build_ms", ms("core.wtp.market_build"));
    run.metric("core.market.partition_ms", ms("core.market.partition"));
    for (name, metric) in METHODS {
        let mine: Vec<&Outcome> =
            outcomes.iter().filter(|(n, _, _)| *n == name).map(|(_, _, o)| o).collect();
        run.metric(&format!("core.algorithms.{metric}.run_ms"), ms(run_span(name)));
        run.metric(
            &format!("core.algorithms.{metric}.iterations"),
            mine.iter().map(|o| o.trace.iterations()).sum::<usize>() as f64,
        );
        run.metric(
            &format!("core.algorithms.{metric}.bundles"),
            mine.iter().map(|o| o.config.n_bundles()).sum::<usize>() as f64,
        );
    }
    run.metric("core.pricing.ns_per_value", ms("core.pricing") * 1e6 / values.max(1) as f64);
    run.metric(
        "core.config.eval_ns_per_user",
        ms("core.config.eval") * 1e6 / consumers.max(1) as f64,
    );

    // The engine's own view of the same job, at one and two threads.
    let mut walls = Vec::new();
    let mut digest = None;
    let mut report = None;
    for threads in [1, 2] {
        let s = spec(args.seed, threads)?;
        let t0 = crate::trace::now();
        let r = run_sweep(&s)?;
        walls.push(t0.elapsed().as_secs_f64());
        check_report(&r, args.seed, &mut digest, &mut run);
        report = Some(r);
    }
    let report = report.expect("two sweeps ran");
    run.metric("engine.cells", report.cells.len() as f64);
    run.metric("engine.cache_hits", report.cache.hits as f64);
    run.metric("engine.cache_misses", report.cache.misses as f64);
    run.metric("par.sweep_speedup", walls[0] / walls[1]);

    // Every sweep cell's revenue is bit-identical to the one-thread replay
    // of the same configurator on the same (sub-)market.
    for c in &report.cells {
        let v = match c.cohort {
            Cohort::Whole => 0,
            Cohort::Seg(k) => 1 + k as usize,
        };
        let replayed = outcomes
            .iter()
            .find(|(n, view, _)| *n == c.method && *view == v)
            .map(|(_, _, o)| o.revenue);
        run.check(replayed.map(f64::to_bits) == Some(c.revenue.to_bits()), || {
            format!("{} {}: sweep revenue {} vs replay {replayed:?}", c.method, c.cohort, c.revenue)
        });
    }

    host_metrics(&host, &mut run);
    finish_trace(
        args,
        "solve-medium",
        &t,
        traced_ms,
        traced_ms - untraced_ms,
        untraced_ms,
        &mut run,
    )
}
