//! The daemon workloads, `serve-wire` and `churn-live`: `revmax-served`
//! runs as its own process and the benchmark loads it over loopback from
//! one open-loop generator thread on two connections.
//!
//! * `serve-wire` — no churn; 16-user point queries, half
//!   `ExpectedRevenue` and half `Assign`, on a fixed rate ladder. Kernel
//!   work is a few µs of each request; framing, queueing and thread
//!   handoff are the rest.
//! * `churn-live` — a 1% `MutateMarket` batch at a fixed interval on one
//!   connection beside a fixed-rate query stream on the other: writes
//!   (log → incremental resolve → compile → swap) competing with reads
//!   for the same two cores.
//!
//! The traced run repeats the wire run and then replays the same seeded
//! requests and batches in process through the same public functions, so
//! codec, query, resolve, compile and swap get their own times and what
//! the wire adds is left as the named residual.

use crate::client::{splitmix, Clock, Lane, OpenLoop, ScheduleLane};
use crate::daemon::Served;
use crate::host::{Host, Meter, CLEAN_SHARE};
use crate::stats::{self, median, quantile, Step, Summary};
use crate::trace::Tracer;
use crate::{cpu_seconds, finish_trace, host_metrics, peak_rss_mb, Args, Run};
use revmax_core::market::Market;
use revmax_core::marketlog::{Event, MarketLog};
use revmax_engine::{market_from_data, LiveEngine, ScaleSpec};
use revmax_serve::proto::{self, DaemonStats, Request, Response, UserSel};
use revmax_serve::{MenuIndex, ServeHandle};
use std::hint::black_box;
use std::net::TcpStream;

const SCALE: ScaleSpec = ScaleSpec::Small;
const THETA: f64 = 0.05;
const WORKERS: usize = 2;
/// Consumers per point query.
const IDS: usize = 16;
/// The latency limit a ladder step's p99 must meet.
const LIMIT_MS: f64 = 5.0;
/// Daemon starts per run; set-up time is their median.
const SETUP_REPS: usize = 9;
/// The ladder, as (rate, share of the run's seconds). 2k req/s is the
/// reference step `p50_ms` and `p99_ms` are read from.
const LADDER: [(f64, f64); 4] = [(1000.0, 0.2), (2000.0, 0.4), (4000.0, 0.2), (8000.0, 0.2)];
const REFERENCE_RATE: f64 = 2000.0;
/// The top step overloads this host's daemon: its queue grows and work
/// coalesces, so its CPU per request is left out of `users_per_s`.
const SATURATING_RATE: f64 = 8000.0;
/// Requests per latency window: enough for a p99 with ten samples
/// beyond it. A step's p50 and p99 are taken over its windows.
const WINDOW_REQS: usize = 1000;
/// Time allowed after a step's last due request for answers to arrive.
const DRAIN_NS: u64 = 3_000_000_000;
/// churn-live: query rate, mutation interval, churned share, stats poll.
const CHURN_QUERY_RATE: f64 = 1000.0;
const BATCH_INTERVAL_NS: u64 = 100_000_000;
const CHURN_FRAC: f64 = 0.01;
const POLL_NS: u64 = 500_000;
const CHURN_METHODS: &str = "components,mixed_greedy";
const CHURN_COHORTS: usize = 4;
/// The daemon's default compaction threshold, mirrored by the replay.
const COMPACT_AT: f64 = 0.10;

fn base_market(seed: u64, t: &mut Tracer) -> Market {
    let data = t.span("dataset.generate", 0, || SCALE.config().generate(seed));
    t.span("core.wtp.market_build", 0, || market_from_data(&data, THETA))
}

/// Start the daemon [`SETUP_REPS`] times and keep the last one; returns
/// it with the median start-to-listening time in seconds.
fn start(args: &Args, methods: &str, cohorts: usize) -> Result<(Served, f64), String> {
    let dargs: Vec<String> = vec![
        "addr=127.0.0.1:0".into(),
        format!("scale={}", SCALE.name()),
        format!("seed={}", args.seed),
        format!("theta={THETA}"),
        format!("workers={WORKERS}"),
        format!("methods={methods}"),
        format!("cohorts={cohorts}"),
    ];
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let (served, took) = Served::start(&args.served, &dargs)?;
        times.push(took.as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((served, median(&times)));
        }
        served.stop()?;
    }
    unreachable!("SETUP_REPS >= 1")
}

/// One point query of the seeded stream.
#[derive(Clone)]
struct Query {
    revenue: bool,
    ids: Vec<u32>,
}

impl Query {
    fn request(&self) -> Request {
        let sel = UserSel::Ids(self.ids.clone());
        if self.revenue {
            Request::ExpectedRevenue(sel)
        } else {
            Request::Assign(sel)
        }
    }
}

fn query_stream(seed: u64, n_users: usize, count: usize) -> Vec<Query> {
    let mut rng = seed ^ 0xC0FF_EE00;
    (0..count)
        .map(|_| Query {
            revenue: splitmix(&mut rng).is_multiple_of(2),
            ids: (0..IDS).map(|_| (splitmix(&mut rng) % n_users as u64) as u32).collect(),
        })
        .collect()
}

/// One request as the generator saw it.
struct Record {
    due: u64,
    sent: Option<u64>,
    answer: Option<(u64, Vec<u8>)>,
}

/// Queries spread over `lanes` connections, request `k` on lane
/// `k % lanes`, due `k / rate` seconds after `start`; each lane samples
/// its backlog half-way and at the last due time.
fn schedule(
    queries: &[Query],
    rate: f64,
    start: u64,
    secs: f64,
    lanes: usize,
) -> Vec<ScheduleLane> {
    let n = queries.len();
    let period = 1e9 / rate;
    let half = start + (secs * 0.5e9) as u64;
    let end = start + ((n.max(1) - 1) as f64 * period) as u64;
    (0..lanes)
        .map(|l| {
            let reqs = (l..n)
                .step_by(lanes)
                .map(|k| {
                    (
                        start + (k as f64 * period) as u64,
                        proto::encode_request(&queries[k].request()),
                    )
                })
                .collect();
            ScheduleLane::new(reqs, vec![half, end])
        })
        .collect()
}

/// Flatten lanes back into request order.
fn records(lanes: Vec<ScheduleLane>) -> Vec<Record> {
    let n_lanes = lanes.len();
    let n: usize = lanes.iter().map(|l| l.len()).sum();
    let mut out: Vec<Option<Record>> = (0..n).map(|_| None).collect();
    for (l, mut lane) in lanes.into_iter().enumerate() {
        let answers = std::mem::take(&mut lane.answers);
        for (j, answer) in answers.into_iter().enumerate() {
            out[l + j * n_lanes] =
                Some(Record { due: lane.due_ns(j), sent: lane.sent_ns.get(j).copied(), answer });
        }
    }
    out.into_iter().map(|r| r.expect("every request has a lane slot")).collect()
}

/// Check one answer: with an `expected` index, bit for bit against it;
/// without, for its shape only.
fn check_answer(q: &Query, payload: &[u8], expected: Option<&MenuIndex>) -> Result<(), String> {
    let resp = proto::decode_response(payload).map_err(|e| format!("undecodable answer: {e:?}"))?;
    match (q.revenue, resp, expected) {
        (true, Response::Revenue(x), Some(index)) => {
            let want = index.try_expected_revenue(&q.ids).map_err(|e| e.to_string())?;
            (x.to_bits() == want.to_bits()).then_some(()).ok_or(format!("revenue {x} != {want}"))
        }
        (true, Response::Revenue(x), None) => {
            x.is_finite().then_some(()).ok_or(format!("non-finite revenue {x}"))
        }
        (false, Response::Assignments(a), Some(index)) => {
            let want = index.try_assign(&q.ids).map_err(|e| e.to_string())?;
            (a == want).then_some(()).ok_or("assignments differ from the in-process index".into())
        }
        (false, Response::Assignments(a), None) => {
            let users: Vec<u32> = a.iter().map(|x| x.user).collect();
            (users == q.ids)
                .then_some(())
                .ok_or(format!("{} assignments for the wrong users", a.len()))
        }
        (_, other, _) => Err(format!("unexpected answer {other:?}")),
    }
}

/// Score one step's records: latency from due time for each correct
/// answer, grouped into windows of [`WINDOW_REQS`] consecutive requests;
/// a failure otherwise.
fn score(
    rate: f64,
    secs: f64,
    queries: &[Query],
    recs: &[Record],
    backlog: (u64, u64),
    expected: Option<&MenuIndex>,
    run: &mut Run,
) -> Step {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut failed = 0u64;
    for (k, (q, r)) in queries.iter().zip(recs).enumerate() {
        let outcome = match &r.answer {
            None => Err("no answer (dropped)".to_string()),
            Some((at, payload)) => check_answer(q, payload, expected).map(|()| *at),
        };
        match &outcome {
            Ok(at) => {
                let w = k / WINDOW_REQS;
                if windows.len() <= w {
                    windows.resize(w + 1, Vec::new());
                }
                windows[w].push((at - r.due) as f64 / 1e6);
            }
            Err(_) => failed += 1,
        }
        run.check(outcome.is_ok(), || format!("{rate} req/s: {}", outcome.unwrap_err()));
    }
    let answered: usize = windows.iter().map(Vec::len).sum();
    let achieved = answered as f64 / secs;
    Step { rate, achieved, windows, failed, backlog_mid: backlog.0, backlog_end: backlog.1 }
}

/// Run one ladder step over the open loop; returns its records, the
/// backlog samples (half-way, end).
fn run_step(
    lp: &mut OpenLoop,
    queries: &[Query],
    rate: f64,
    secs: f64,
) -> Result<(Vec<Record>, (u64, u64)), String> {
    let start = lp.clock.ns() + 2_000_000;
    let mut lanes = schedule(queries, rate, start, secs, 2);
    let deadline = start + (secs * 1e9) as u64 + DRAIN_NS;
    {
        let (a, b) = lanes.split_at_mut(1);
        lp.run(&mut [&mut a[0] as &mut dyn Lane, &mut b[0]], deadline)?;
    }
    let backlog = lanes.iter().fold((0, 0), |(m, e), l| {
        (m + l.backlog.first().copied().unwrap_or(0), e + l.backlog.get(1).copied().unwrap_or(0))
    });
    Ok((records(lanes), backlog))
}

/// How late (ms) each sent request went out.
fn lateness(recs: &[Record]) -> Vec<f64> {
    recs.iter().filter_map(|r| r.sent.map(|s| (s - r.due) as f64 / 1e6)).collect()
}

/// Send-to-answer time (ms) of each answered request: the client's
/// view of one request without the generator's own lateness.
fn send_to_answer(recs: &[Record]) -> Vec<f64> {
    recs.iter().filter_map(|r| Some((r.answer.as_ref()?.0 - r.sent?) as f64 / 1e6)).collect()
}

/// A step's window medians next to its all-sample summary.
fn render(step: &Step) -> String {
    let all = step.all();
    if all.is_empty() {
        return "no answers".into();
    }
    format!(
        "window p50 {:.4} ms, window p99 {}; all samples {}",
        step.p50_ms().unwrap_or(f64::NAN),
        step.p99_ms().map_or("n/a".into(), |p| format!("{p:.4} ms")),
        Summary::of(&all).render("ms")
    )
}

fn stats_of(stream: &mut TcpStream) -> Result<DaemonStats, String> {
    match proto::roundtrip(stream, &Request::SwapStats) {
        Ok(Response::Stats(s)) => Ok(s),
        other => Err(format!("SwapStats answered {other:?}")),
    }
}

fn p99(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.99)
}

/// The in-process twin of the daemon's initial menu: same market, same
/// live engine, same compile.
fn initial_index(
    market: &Market,
    methods: &[&str],
    cohorts: usize,
    t: &mut Tracer,
) -> Result<(LiveEngine, MenuIndex), String> {
    let mut live = LiveEngine::new(methods, cohorts)?;
    let report = t.span("engine.live.resolve", 0, || live.resolve(market))?;
    let cell = report.whole_cell().ok_or("initial resolve has no whole-market cell")?;
    let config = cell.outcome.config.clone();
    let index =
        t.span("serve.index.compile", 0, || MenuIndex::compile(market, &config).with_threads(1));
    Ok((live, index))
}

/// In-process replay of a query stream through the codec and the point
/// query, one span per layer and request. Returns each request's summed
/// layer time (ns).
fn replay_queries(queries: &[Query], index: &MenuIndex, t: &mut Tracer, run: &mut Run) -> Vec<f64> {
    let mut per_request = Vec::with_capacity(queries.len());
    for (k, q) in queries.iter().enumerate() {
        let k = k as u64;
        let t0 = crate::trace::now();
        t.begin("serve.request", k);
        let payload =
            t.span("serve.proto.encode_request", k, || proto::encode_request(&q.request()));
        let req = t.span("serve.proto.decode_request", k, || proto::decode_request(&payload));
        let resp = t.span("serve.query.point", k, || match req {
            Ok(Request::ExpectedRevenue(UserSel::Ids(ids))) => {
                index.try_expected_revenue(&ids).map(Response::Revenue).map_err(|e| e.to_string())
            }
            Ok(Request::Assign(UserSel::Ids(ids))) => {
                index.try_assign(&ids).map(Response::Assignments).map_err(|e| e.to_string())
            }
            other => Err(format!("replayed request decoded as {other:?}")),
        });
        match resp {
            Ok(resp) => {
                let bytes =
                    t.span("serve.proto.encode_response", k, || proto::encode_response(&resp));
                let back =
                    t.span("serve.proto.decode_response", k, || proto::decode_response(&bytes));
                run.check(back.as_ref() == Ok(&resp), || {
                    format!("replay {k}: codec round trip changed the answer")
                });
            }
            Err(e) => run.check(false, || format!("replay {k}: {e}")),
        }
        t.end();
        per_request.push(t0.elapsed().as_nanos() as f64);
    }
    per_request
}

/// Per-layer metrics of a query replay, next to the client's own
/// send-to-answer p50: what the wire adds is the residual.
fn query_layer_metrics(
    t: &Tracer,
    n: usize,
    client_p50_ms: f64,
    per_request_ns: &[f64],
    run: &mut Run,
) {
    let totals = t.totals();
    let mean_ns = |name: &str| totals.get(name).map_or(0.0, |x| x.self_ns as f64 / n.max(1) as f64);
    run.metric("serve.query.point_us", mean_ns("serve.query.point") / 1e3);
    for codec in ["encode_request", "decode_request", "encode_response", "decode_response"] {
        let name = format!("serve.proto.{codec}");
        run.metric(&format!("{name}_ns"), mean_ns(&name));
    }
    run.metric("serve.daemon.residual_us", client_p50_ms * 1e3 - median(per_request_ns) / 1e3);
}

// ---------------------------------------------------------------------
// serve-wire
// ---------------------------------------------------------------------

pub fn run_wire(args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let (served, setup_s) = start(args, "components", 0)?;
    let rss_pid = served.pid();

    let mut untraced = Tracer::new(false);
    let market = base_market(args.seed, &mut untraced);
    let (_, expected) = initial_index(&market, &["components"], 0, &mut untraced)?;
    let total: usize =
        LADDER.iter().map(|&(r, share)| (r * share * args.seconds).round() as usize).sum();
    let stream = query_stream(args.seed, market.n_users(), total);

    let mut host = Host::new();
    let clock = Clock::new();
    let mut lp = OpenLoop::connect(&served.addr, 2, clock)?;
    let mut steps = Vec::new();
    let (mut ladder_cpu, mut ladder_answers) = (0.0, 0usize);
    let mut late_ms = Vec::new();
    let mut reference = None;
    let mut offset = 0;
    for (rate, share) in LADDER {
        let secs = share * args.seconds;
        let n = (rate * secs).round() as usize;
        let queries = &stream[offset..offset + n];
        offset += n;
        // A step that ran under steal runs again (its answers are still
        // checked), within the run's retry budget. The saturating step is
        // not part of `users_per_s` and runs once.
        let (recs, cpu_s, step) = loop {
            host.settle();
            let (meter, t0) = (Meter::start(), crate::trace::now());
            let cpu0 = cpu_seconds(rss_pid)?;
            let (recs, backlog) = run_step(&mut lp, queries, rate, secs)?;
            let cpu_s = cpu_seconds(rss_pid)? - cpu0;
            let stolen = meter.share();
            let step = score(rate, secs, queries, &recs, backlog, Some(&expected), &mut run);
            if stolen <= CLEAN_SHARE || rate >= SATURATING_RATE || !host.can_retry() {
                break (recs, cpu_s, step);
            }
            host.repeat(t0.elapsed());
            run.note(format!(
                "step {rate} req/s ran under {:.1}% steal; measuring it again",
                100.0 * stolen
            ));
        };
        late_ms.extend(lateness(&recs));
        if rate < SATURATING_RATE {
            ladder_cpu += cpu_s;
            ladder_answers += step.all().len();
        }
        if rate == REFERENCE_RATE {
            let send_to_answer = send_to_answer(&recs);
            reference = Some((queries.to_vec(), send_to_answer));
        }
        run.note(format!(
            "step {rate} req/s: {}; backlog {} -> {}; {}",
            render(&step),
            step.backlog_mid,
            step.backlog_end,
            if step.meets(LIMIT_MS) { "meets the limit" } else { "misses the limit" }
        ));
        steps.push(step);
    }
    let mut streams = lp.into_blocking()?;
    let daemon_stats = stats_of(&mut streams[0])?;
    let rss = peak_rss_mb(Some(rss_pid))?;
    drop(streams);
    served.stop()?;

    let ref_step =
        steps.iter().find(|s| s.rate == REFERENCE_RATE).expect("ladder holds the reference rate");
    let (queries, send_to_answer) = reference.expect("reference step ran");
    let best = stats::max_rps(&steps, LIMIT_MS);
    run.note(format!(
        "max_rps: {}",
        best.map_or("no step meets the limit".into(), |s| format!(
            "{} req/s (achieved {:.1})",
            s.rate, s.achieved
        ))
    ));
    run.note(format!("gen.late: p99 {:.4} ms over {} sends", p99(&late_ms), late_ms.len()));
    let cpu_us = ladder_cpu * 1e6 / ladder_answers.max(1) as f64;
    run.note(format!(
        "daemon cpu below {SATURATING_RATE} req/s: {ladder_cpu:.2} s for {ladder_answers} answers ({cpu_us:.1} us each)"
    ));

    if !args.trace {
        run.metric("setup_s", setup_s);
        run.metric("rss_mb", rss);
        run.metric("users_per_s", IDS as f64 * ladder_answers as f64 / ladder_cpu);
        run.note(host.note());
        return Ok(run);
    }

    // Traced: replay the reference step's requests in process.
    let t0 = crate::trace::now();
    {
        let mut off = Tracer::new(false);
        let m = base_market(args.seed, &mut off);
        let (_, index) = initial_index(&m, &["components"], 0, &mut off)?;
        black_box(replay_queries(&queries, &index, &mut off, &mut run));
    }
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut t = Tracer::new(true);
    let t0 = crate::trace::now();
    let m = base_market(args.seed, &mut t);
    let (_, index) = initial_index(&m, &["components"], 0, &mut t)?;
    let per_request = replay_queries(&queries, &index, &mut t, &mut run);
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;

    let totals = t.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6);
    run.metric("dataset.generate_ms", ms("dataset.generate"));
    run.metric("core.wtp.market_build_ms", ms("core.wtp.market_build"));
    run.metric("engine.live.resolve_ms", ms("engine.live.resolve"));
    run.metric("serve.index.compile_ms", ms("serve.index.compile"));
    query_layer_metrics(&t, queries.len(), median(&send_to_answer), &per_request, &mut run);
    let served_total = (daemon_stats.served_assign + daemon_stats.served_revenue).max(1);
    run.metric("serve.daemon.coalesced_frac", daemon_stats.coalesced as f64 / served_total as f64);
    run.metric("serve.daemon.shed", daemon_stats.shed as f64);
    run.metric("gen.late_p99_ms", p99(&late_ms));
    run.metric("serve.daemon.cpu_us_per_request", cpu_us);
    run.metric("client.p50_ms", ref_step.p50_ms().unwrap_or(0.0));
    run.metric("client.p99_ms", ref_step.p99_ms().unwrap_or(0.0));
    run.metric("client.max_rps", best.map_or(0.0, |s| s.rate));
    host_metrics(&host, &mut run);
    finish_trace(args, "serve-wire", &t, traced_ms, traced_ms - untraced_ms, untraced_ms, &mut run)
}

// ---------------------------------------------------------------------
// churn-live
// ---------------------------------------------------------------------

/// The deterministic churn batch `b`: raise a 1% stride of consumers'
/// first-rated WTP by a batch-dependent factor, and delete one rating at
/// the tail.
fn churn_batch(market: &Market, b: usize) -> Vec<Event> {
    let w = market.wtp();
    let n = market.n_users();
    let step = ((1.0 / CHURN_FRAC).round() as usize).clamp(1, n.max(1));
    let bump = 1.0 + 0.05 * (b % 20 + 1) as f64;
    let mut events: Vec<Event> = (0..n)
        .skip(b % step)
        .step_by(step)
        .filter_map(|u| {
            let row = w.row(u as u32);
            row.ids.first().map(|&item| Event::UpsertWtp {
                user: u as u32,
                item,
                wtp: row.values[0] * bump,
            })
        })
        .collect();
    if let Some(u) = (0..n).rev().find(|&u| w.row(u as u32).ids.len() > 1) {
        let row = w.row(u as u32);
        events.push(Event::DeleteWtp { user: u as u32, item: row.ids[row.ids.len() - 1] });
    }
    events
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ChurnState {
    /// Next batch goes out at this time.
    Idle(u64),
    AwaitAck,
    /// Next stats poll goes out at this time.
    Poll(u64),
    AwaitStats,
    Done,
}

/// Closed loop on one connection: send a batch, then poll `SwapStats`
/// until the daemon serves a generation that holds it, then wait for the
/// next batch's slot.
struct ChurnLane {
    batches: Vec<Vec<Event>>,
    start: u64,
    next_batch: usize,
    state: ChurnState,
    events_sent: u64,
    ack: Option<(u64, u64)>,
    fresh_ms: Vec<f64>,
    late_ms: Vec<f64>,
    generations: (Option<u64>, u64),
    errors: Vec<String>,
}

impl ChurnLane {
    fn new(batches: Vec<Vec<Event>>, start: u64) -> ChurnLane {
        ChurnLane {
            batches,
            start,
            next_batch: 0,
            state: ChurnState::Idle(start),
            events_sent: 0,
            ack: None,
            fresh_ms: Vec::new(),
            late_ms: Vec::new(),
            generations: (None, 0),
            errors: Vec::new(),
        }
    }

    fn idle_or_done(&mut self) {
        self.state = if self.next_batch < self.batches.len() {
            ChurnState::Idle(self.start + self.next_batch as u64 * BATCH_INTERVAL_NS)
        } else {
            ChurnState::Done
        };
    }
}

impl Lane for ChurnLane {
    fn next_due(&self) -> Option<u64> {
        match self.state {
            ChurnState::Idle(at) | ChurnState::Poll(at) => Some(at),
            _ => None,
        }
    }

    fn take(&mut self, now: u64) -> Vec<u8> {
        match self.state {
            ChurnState::Idle(due) => {
                self.late_ms.push((now - due) as f64 / 1e6);
                let events = self.batches[self.next_batch].clone();
                self.events_sent += events.len() as u64;
                self.next_batch += 1;
                self.state = ChurnState::AwaitAck;
                proto::encode_request(&Request::MutateMarket(events))
            }
            ChurnState::Poll(_) => {
                self.state = ChurnState::AwaitStats;
                proto::encode_request(&Request::SwapStats)
            }
            other => unreachable!("nothing is due in state {other:?}"),
        }
    }

    fn on_answer(&mut self, now: u64, payload: Vec<u8>) {
        match (self.state, proto::decode_response(&payload)) {
            (ChurnState::AwaitAck, Ok(Response::MutateAck { accepted, generation })) => {
                let sent = self.batches[self.next_batch - 1].len() as u64;
                if accepted != sent {
                    self.errors.push(format!("batch acked {accepted} of {sent} events"));
                }
                self.ack = Some((now, generation));
                self.generations.0.get_or_insert(generation);
                self.state = ChurnState::Poll(now);
            }
            (ChurnState::AwaitStats, Ok(Response::Stats(s))) => {
                let (acked_at, acked_gen) = self.ack.expect("stats polled after an ack");
                if s.generation > acked_gen
                    && s.mutations_applied + s.mutations_rejected >= self.events_sent
                {
                    self.fresh_ms.push((now - acked_at) as f64 / 1e6);
                    self.generations.1 = s.generation;
                    self.idle_or_done();
                } else {
                    self.state = ChurnState::Poll(now + POLL_NS);
                }
            }
            (state, other) => {
                self.errors.push(format!("in state {state:?} the daemon answered {other:?}"));
                self.state = ChurnState::Done;
            }
        }
    }

    fn done(&self) -> bool {
        self.state == ChurnState::Done
    }
}

pub fn run_churn(args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let (served, setup_s) = start(args, CHURN_METHODS, CHURN_COHORTS)?;
    let rss_pid = served.pid();
    let base = base_market(args.seed, &mut Tracer::new(false));
    let n_users = base.n_users();

    let n_batches = ((args.seconds * 1e9) as u64 / BATCH_INTERVAL_NS).max(1) as usize;
    let batches: Vec<Vec<Event>> = (0..n_batches).map(|b| churn_batch(&base, b)).collect();
    let n_queries = (CHURN_QUERY_RATE * args.seconds).round() as usize;
    let queries = query_stream(args.seed, n_users, n_queries);

    let mut host = Host::new();
    host.settle();
    let clock = Clock::new();
    let mut lp = OpenLoop::connect(&served.addr, 2, clock)?;
    let start = clock.ns() + 2_000_000;
    let mut qlane =
        schedule(&queries, CHURN_QUERY_RATE, start, args.seconds, 1).pop().expect("one lane");
    let cpu0 = cpu_seconds(rss_pid)?;
    let mut clane = ChurnLane::new(batches.clone(), start + BATCH_INTERVAL_NS / 2);
    let deadline = start + (args.seconds * 1e9) as u64 + DRAIN_NS + 60_000_000_000;
    let finished = lp.run(&mut [&mut qlane as &mut dyn Lane, &mut clane], deadline)?;
    run.check(finished, || "churn run did not finish before its deadline".into());
    for e in clane.errors.drain(..) {
        run.check(false, || e);
    }
    run.check(clane.fresh_ms.len() == n_batches, || {
        format!("{} of {n_batches} batches became visible", clane.fresh_ms.len())
    });

    let cpu_s = cpu_seconds(rss_pid)? - cpu0;
    let recs = records(vec![qlane]);
    let late_q = lateness(&recs);
    let step = score(CHURN_QUERY_RATE, args.seconds, &queries, &recs, (0, 0), None, &mut run);
    let send_to_answer = send_to_answer(&recs);

    // Churn parity: the served state equals a cold rebuild of the history.
    let mut streams = lp.into_blocking()?;
    let daemon_stats = stats_of(&mut streams[1])?;
    let mut log = MarketLog::new(base.clone());
    for ev in batches.iter().flatten() {
        let _ = log.apply(*ev);
    }
    let churned = log.snapshot();
    let cold_market = churned.with_wtp(churned.wtp().compact());
    let methods: Vec<&str> = CHURN_METHODS.split(',').collect();
    let (_, cold) = initial_index(&cold_market, &methods, CHURN_COHORTS, &mut Tracer::new(false))?;
    let cold_rev = cold.expected_revenue_all();
    match proto::roundtrip(&mut streams[1], &Request::ExpectedRevenue(UserSel::All)) {
        Ok(Response::Revenue(x)) => run.check(x.to_bits() == cold_rev.to_bits(), || {
            format!("served revenue {x} != cold rebuild {cold_rev} (bitwise)")
        }),
        other => run.check(false, || format!("ExpectedRevenue(All) answered {other:?}")),
    }
    match proto::roundtrip(&mut streams[1], &Request::Assign(UserSel::All)) {
        Ok(Response::Assignments(a)) => run.check(a == cold.assign_all(), || {
            "served assignments differ from the cold rebuild".into()
        }),
        other => run.check(false, || format!("Assign(All) answered {other:?}")),
    }
    let rss = peak_rss_mb(Some(rss_pid))?;
    drop(streams);
    served.stop()?;

    let fresh = Summary::of(if clane.fresh_ms.is_empty() { &[f64::NAN] } else { &clane.fresh_ms });
    let fresh_p90 = {
        let mut v = clane.fresh_ms.clone();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            f64::NAN
        } else {
            quantile(&v, 0.90)
        }
    };
    let answered = step.all().len();
    run.note(format!("queries during churn: {}", render(&step)));
    run.note(format!(
        "daemon cpu: {cpu_s:.2} s for {answered} answers and {n_batches} batches; \
         {:.0} consumers/s of freshness (n / fresh p50)",
        n_users as f64 / (fresh.p50 / 1e3)
    ));
    run.note(format!("freshness (ack -> visible): {}", fresh.render("ms")));
    let (gen0, gen1) = clane.generations;
    let gens_per_batch = (gen1 - gen0.unwrap_or(gen1)) as f64 / n_batches as f64;
    let mut late = late_q.clone();
    late.extend_from_slice(&clane.late_ms);

    if !args.trace {
        run.metric("setup_s", setup_s);
        run.metric("rss_mb", rss);
        run.metric("users_per_s", IDS as f64 * answered as f64 / cpu_s);
        run.note(host.note());
        return Ok(run);
    }

    // Traced: replay the batches and the queries in process.
    let t0 = crate::trace::now();
    black_box(replay_churn(args.seed, &batches, &queries, &mut Tracer::new(false), &mut run)?);
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut t = Tracer::new(true);
    let t0 = crate::trace::now();
    let replay = replay_churn(args.seed, &batches, &queries, &mut t, &mut run)?;
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
    run.check(replay.final_revenue.to_bits() == cold_rev.to_bits(), || {
        format!("replayed incremental revenue {} != cold rebuild {cold_rev}", replay.final_revenue)
    });

    let totals = t.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6);
    let per_batch = |name: &str| ms(name) / n_batches as f64;
    run.metric("dataset.generate_ms", ms("dataset.generate"));
    run.metric("core.wtp.market_build_ms", ms("core.wtp.market_build"));
    run.metric("core.marketlog.apply_batch_us", per_batch("core.marketlog.apply_batch") * 1e3);
    run.metric("core.marketlog.snapshot_ms", per_batch("core.marketlog.snapshot"));
    run.metric("core.marketlog.compactions", replay.compactions as f64);
    // The first resolve is the initial solve; the rest are one per batch.
    let resolve =
        totals.get("engine.live.resolve").map_or(0.0, |x| x.self_ns as f64 / 1e6 / x.count as f64);
    run.metric("engine.live.resolve_ms", resolve);
    run.metric(
        "engine.live.invalidated_frac",
        replay.invalidated as f64 / replay.cells.max(1) as f64,
    );
    run.metric("serve.index.compile_ms", ms("serve.index.compile") / (n_batches + 1) as f64);
    run.metric("serve.swap.swap_us", per_batch("serve.swap") * 1e3);
    let lookups = (daemon_stats.resolve_hits + daemon_stats.resolve_misses).max(1);
    run.metric("serve.daemon.resolve_hit_rate", daemon_stats.resolve_hits as f64 / lookups as f64);
    run.metric("serve.daemon.generations_per_batch", gens_per_batch);
    run.metric("serve.daemon.fresh_p50_ms", fresh.p50);
    run.metric("serve.daemon.fresh_p90_ms", fresh_p90);
    let served_total = (daemon_stats.served_assign + daemon_stats.served_revenue).max(1);
    run.metric("serve.daemon.coalesced_frac", daemon_stats.coalesced as f64 / served_total as f64);
    run.metric("serve.daemon.shed", daemon_stats.shed as f64);
    query_layer_metrics(&t, queries.len(), median(&send_to_answer), &replay.per_request, &mut run);
    run.metric("serve.daemon.cpu_us_per_request", cpu_s * 1e6 / answered.max(1) as f64);
    run.metric("client.p50_ms", step.p50_ms().unwrap_or(0.0));
    run.metric("client.p99_ms", step.p99_ms().unwrap_or(0.0));
    run.metric("gen.late_p99_ms", p99(&late));
    host_metrics(&host, &mut run);
    finish_trace(args, "churn-live", &t, traced_ms, traced_ms - untraced_ms, untraced_ms, &mut run)
}

struct ChurnReplay {
    final_revenue: f64,
    compactions: u64,
    invalidated: usize,
    cells: usize,
    per_request: Vec<f64>,
}

/// The daemon's churn thread, step by step in process: apply each batch
/// to the log, compact when due, snapshot, resolve incrementally, compile
/// and swap; then the query stream through codec and point query.
fn replay_churn(
    seed: u64,
    batches: &[Vec<Event>],
    queries: &[Query],
    t: &mut Tracer,
    run: &mut Run,
) -> Result<ChurnReplay, String> {
    let base = base_market(seed, t);
    let methods: Vec<&str> = CHURN_METHODS.split(',').collect();
    let (mut live, index) = initial_index(&base, &methods, CHURN_COHORTS, t)?;
    let handle = ServeHandle::new(index);
    let mut log = MarketLog::new(base);
    let (mut compactions, mut invalidated, mut cells) = (0u64, 0usize, 0usize);
    for (b, events) in batches.iter().enumerate() {
        let b = b as u64 + 1;
        t.begin("churn.batch", b);
        let rejected = t.span("core.marketlog.apply_batch", b, || {
            events.iter().filter(|ev| log.apply(**ev).is_err()).count()
        });
        run.check(rejected == 0, || format!("replay batch {b}: {rejected} events rejected"));
        if t.span("core.marketlog.compact", b, || log.maybe_compact(COMPACT_AT)) {
            compactions += 1;
        }
        let churned = t.span("core.marketlog.snapshot", b, || log.snapshot());
        let report = t.span("engine.live.resolve", b, || live.resolve(&churned))?;
        invalidated += report.invalidated.len();
        cells += report.cells.len();
        let cell = report.whole_cell().ok_or("resolve has no whole-market cell")?;
        let config = cell.outcome.config.clone();
        let index = t.span("serve.index.compile", b, || MenuIndex::compile(&churned, &config));
        t.span("serve.swap", b, || handle.swap(index));
        t.end();
    }
    let current = handle.current();
    let final_revenue = current.expected_revenue_all();
    let per_request = replay_queries(queries, &current, t, run);
    Ok(ChurnReplay { final_revenue, compactions, invalidated, cells, per_request })
}
