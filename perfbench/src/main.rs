//! The revmax benchmark: one command, four workloads.
//!
//! ```sh
//! perfbench --workload serve-wire --seed 2015 --seconds 16 --trace 0 \
//!           --served <path to revmax-served>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! runs the same workload's traced replay and reports the per-layer
//! metrics. Either way every output the workload produces is checked, and
//! the last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` next to this package for what each workload runs and
//! which layer metric should move which end-to-end metric.

mod bulk;
mod client;
mod daemon;
mod host;
mod solve;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::time::Duration;

/// Seed the recorded digest and the first measured table use. The
/// held-out seed for confirming a later claim is in README.md.
pub const DEFAULT_SEED: u64 = 2015;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("rss_mb", "MB"), ("users_per_s", "1/s")];

/// The seven configurators, in registry order, by their metric names.
pub const METHODS: [(&str, &str); 7] = [
    ("Components", "components"),
    ("Pure Matching", "pure_matching"),
    ("Pure Greedy", "pure_greedy"),
    ("Mixed Matching", "mixed_matching"),
    ("Mixed Greedy", "mixed_greedy"),
    ("Pure FreqItemset", "pure_freqitemset"),
    ("Mixed FreqItemset", "mixed_freqitemset"),
];

/// Per-layer metrics of the traced run, with units. A workload reports
/// 0 for a layer it does not run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("dataset.generate_ms", "ms"),
        ("dataset.clone_users_ms", "ms"),
        ("core.wtp.market_build_ms", "ms"),
        ("core.market.partition_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (_, m) in METHODS {
        v.push((format!("core.algorithms.{m}.run_ms"), "ms"));
        v.push((format!("core.algorithms.{m}.iterations"), "count"));
        v.push((format!("core.algorithms.{m}.bundles"), "count"));
    }
    v.extend(
        [
            ("core.pricing.ns_per_value", "ns"),
            ("core.config.eval_ns_per_user", "ns"),
            ("engine.cells", "count"),
            ("engine.cache_hits", "count"),
            ("engine.cache_misses", "count"),
            ("par.sweep_speedup", "x"),
            ("serve.index.compile_ms", "ms"),
            ("serve.query.revenue_ns_per_user", "ns"),
            ("serve.query.assign_ns_per_user", "ns"),
            ("serve.query.marginal_ns_per_user", "ns"),
            ("serve.query.held_offers", "count"),
            ("serve.query.point_us", "us"),
            ("serve.proto.encode_request_ns", "ns"),
            ("serve.proto.decode_request_ns", "ns"),
            ("serve.proto.encode_response_ns", "ns"),
            ("serve.proto.decode_response_ns", "ns"),
            ("serve.daemon.coalesced_frac", "frac"),
            ("serve.daemon.shed", "count"),
            ("serve.daemon.residual_us", "us"),
            ("serve.daemon.fresh_p50_ms", "ms"),
            ("serve.daemon.fresh_p90_ms", "ms"),
            ("serve.daemon.resolve_hit_rate", "frac"),
            ("serve.daemon.generations_per_batch", "count"),
            ("core.marketlog.apply_batch_us", "us"),
            ("core.marketlog.snapshot_ms", "ms"),
            ("core.marketlog.compactions", "count"),
            ("engine.live.resolve_ms", "ms"),
            ("engine.live.invalidated_frac", "frac"),
            ("serve.swap.swap_us", "us"),
            ("serve.daemon.cpu_us_per_request", "us"),
            ("client.p50_ms", "ms"),
            ("client.p99_ms", "ms"),
            ("client.max_rps", "1/s"),
            ("gen.late_p99_ms", "ms"),
            ("host.steal_frac", "frac"),
            ("host.wait_s", "s"),
            ("trace.wall_ms", "ms"),
            ("trace.accounted_frac", "frac"),
            ("trace.overhead_ms", "ms"),
            ("trace.overhead_frac", "frac"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `revmax-served` executable the daemon workloads start.
    pub served: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Run {
    /// Count one checked output; record it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// CPU time (user + system, all threads) process `pid` has used, in
/// seconds, at the kernel's fixed 100 ticks per second.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| format!("{path}: no ')'"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| -> Result<f64, String> {
        f.get(k).and_then(|v| v.parse::<f64>().ok()).ok_or_else(|| format!("{path}: bad field"))
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// The host's steal share and the wait for calm, as per-layer metrics.
pub fn host_metrics(host: &host::Host, run: &mut Run) {
    run.metric("host.steal_frac", host.steal_share());
    run.metric("host.wait_s", host.waited().as_secs_f64());
    run.note(host.note());
}

/// Restart this process's peak-RSS count from its current RSS, so a
/// later [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM (Linux ≥ 4.0); where that is
    // unavailable the peak simply covers the whole process lifetime.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Close a traced run: the traced wall time, the share of it the layer
/// spans account for, the tracing overhead (traced minus untraced time
/// of the same work), and the spans written once to the output dir.
pub fn finish_trace(
    args: &Args,
    workload: &str,
    t: &trace::Tracer,
    traced_ms: f64,
    overhead_ms: f64,
    untraced_ms: f64,
    run: &mut Run,
) -> Result<Run, String> {
    run.metric("trace.wall_ms", traced_ms);
    run.metric("trace.accounted_frac", t.accounted_ns() as f64 / 1e6 / traced_ms);
    run.metric("trace.overhead_ms", overhead_ms);
    run.metric("trace.overhead_frac", overhead_ms / untraced_ms);
    let path = args.out_dir.join(format!("trace_{workload}_{}.jsonl", args.seed));
    t.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    run.note(format!("spans: {} written to {}", t.spans().len(), path.display()));
    Ok(std::mem::take(run))
}

/// Peak resident set size, in MB, of process `pid` (or of this process).
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut served = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            "--served" => served = Some(PathBuf::from(value)),
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        served: served.ok_or("--served is required")?,
        out_dir,
    })
}

fn json_number(v: f64) -> String {
    // `{}` prints the shortest string that reads back to the same f64.
    format!("{v}")
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let result = match args.workload.as_str() {
        "solve-medium" => solve::run(&args),
        "serve-bulk" => bulk::run(&args),
        "serve-wire" => wire::run_wire(&args),
        "churn-live" => wire::run_churn(&args),
        other => Err(format!(
            "unknown workload '{other}' (solve-medium|serve-bulk|serve-wire|churn-live)"
        )),
    };
    let mut run = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    });

    // Every metric of the selected set, in table order; a per-layer metric
    // of a layer this workload does not run reads 0.
    let expected: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    for (name, _) in &run.metrics {
        if !expected.iter().any(|(n, _)| n == name) {
            eprintln!("perfbench: workload emitted unlisted metric '{name}'");
            std::process::exit(1);
        }
    }
    let mut fields = Vec::new();
    let mut bad_values = Vec::new();
    for (name, unit) in &expected {
        let value = run.metrics.iter().rev().find(|(n, _)| n == name).map(|&(_, v)| v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                bad_values.push(format!("metric {name} is {v}"));
                0.0
            }
            None if args.trace => 0.0,
            None => {
                bad_values.push(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for msg in bad_values {
        run.check(false, || msg);
    }
    for line in &run.notes {
        println!("{line}");
    }
    for f in &run.failures {
        eprintln!("FAIL: {f}");
    }
    let correct = run.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables above and BENCHMARK.json name the same metrics.
    #[test]
    fn benchmark_json_lists_the_metrics_the_code_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let body = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = body.find(&format!("\"{key}\"")).expect("section present");
            let rest = &body[start..];
            let end = rest.find(']').expect("section closes");
            rest[..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(section("per_layer"), layers);
        assert_eq!(
            section("workloads"),
            ["solve-medium", "serve-bulk", "serve-wire", "churn-live"].map(String::from)
        );
    }

    #[test]
    fn run_counts_failures_against_attempts() {
        let mut r = Run::default();
        r.check(true, || unreachable!());
        r.check(false, || "bad".into());
        r.check(false, || "worse".into());
        assert_eq!((r.attempted, r.failed), (3, 2));
        assert_eq!(r.failures, vec!["bad".to_string(), "worse".to_string()]);
    }
}
