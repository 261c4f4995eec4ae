//! Order statistics over raw samples, and the rate-ladder verdict.
//!
//! Every timing the benchmark reports is computed here from the raw
//! samples it kept: the median plus the highest percentile that still has
//! at least [`MIN_BEYOND`] samples above it, with the sample count.

/// Samples a reported tail percentile must leave above its rank.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles, lowest first; a report uses the highest one the
/// sample count supports.
const TAIL_LADDER: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// 1-based nearest rank of quantile `q` in `n` samples: the smallest rank
/// with at least `q·n` samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending-sorted, non-empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples above its rank, if any.
pub fn tail_q(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|&q| n > 0 && n - rank(n, q) >= MIN_BEYOND)
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().fold(0.0, |a, x| a + x) / values.len() as f64
}

/// A timing as reported: count, median, and the supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(q, value)` of the highest supported tail percentile.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize a non-empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary { n: v.len(), p50: median(&v), tail: tail_q(v.len()).map(|q| (q, quantile(&v, q))) }
    }

    /// `"p50 1.234 ms, p99 5.678 ms (n = 8000)"`.
    pub fn render(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, x)) => format!(", p{} {x:.4} {unit}", 100.0 * q),
            None => String::new(),
        };
        format!("p50 {:.4} {unit}{tail} (n = {})", self.p50, self.n)
    }
}

/// One step of an open-loop rate ladder, as measured.
///
/// Latencies are kept per window of the schedule (by due time), and the
/// step's p50 and p99 are the medians of the per-window values: on a
/// shared host one scheduler stall of a few tens of milliseconds delays
/// every request due during it, which on its own can set the p99 of a
/// whole step; a median over windows keeps one stall from deciding the
/// verdict, while a stall that recurs still moves most windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Correct answers per second of the step's schedule.
    pub achieved: f64,
    /// Latency from due time, milliseconds, of each correct answer,
    /// grouped by the window its request was due in.
    pub windows: Vec<Vec<f64>>,
    /// Requests without a correct answer (dropped, refused, wrong).
    pub failed: u64,
    /// Requests due and not yet answered half-way through the schedule
    /// and when its last request was due.
    pub backlog_mid: u64,
    pub backlog_end: u64,
}

impl Step {
    /// Every latency of the step, unsorted.
    pub fn all(&self) -> Vec<f64> {
        self.windows.concat()
    }

    /// Median over windows of each window's `q` quantile, counting only
    /// windows with at least [`MIN_BEYOND`] samples above that rank.
    pub fn window_quantile(&self, q: f64) -> Option<f64> {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty() && w.len() - rank(w.len(), q) >= MIN_BEYOND)
            .map(|w| {
                let mut v = w.clone();
                v.sort_by(f64::total_cmp);
                quantile(&v, q)
            })
            .collect();
        (!per_window.is_empty()).then(|| median(&per_window))
    }

    pub fn p50_ms(&self) -> Option<f64> {
        self.window_quantile(0.50)
    }

    pub fn p99_ms(&self) -> Option<f64> {
        self.window_quantile(0.99)
    }

    /// The backlog grows when more requests are outstanding at the end of
    /// the schedule than half-way, and more than the rate lets through
    /// within the latency limit (Little's law: rate × limit).
    pub fn backlog_grows(&self, limit_ms: f64) -> bool {
        self.backlog_end > self.backlog_mid && self.backlog_end as f64 > self.rate * limit_ms / 1e3
    }

    /// A step meets the limit when nothing failed, its p99 is within
    /// `limit_ms`, and its backlog does not grow.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.p99_ms().is_some_and(|p| p <= limit_ms)
            && !self.backlog_grows(limit_ms)
    }
}

/// The highest-rate step that meets the latency limit.
pub fn max_rps(steps: &[Step], limit_ms: f64) -> Option<&Step> {
    steps.iter().filter(|s| s.meets(limit_ms)).max_by(|a, b| a.rate.total_cmp(&b.rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn mean_of_a_sample() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[0.5]), 0.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 leaves exactly 10 above rank 90.
        assert_eq!(tail_q(100), Some(0.90));
        assert_eq!(tail_q(99), None);
        assert_eq!(tail_q(999), Some(0.90));
        assert_eq!(tail_q(1000), Some(0.99));
        assert_eq!(tail_q(8000), Some(0.99));
        assert_eq!(tail_q(10_000), Some(0.999));
        assert_eq!(tail_q(0), None);
        let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.n, 1000);
    }

    fn step(rate: f64, p: f64, failed: u64, mid: u64, end: u64) -> Step {
        Step {
            rate,
            achieved: rate,
            windows: vec![vec![p; 1000]; 2],
            failed,
            backlog_mid: mid,
            backlog_end: end,
        }
    }

    #[test]
    fn window_quantiles_take_the_median_over_windows() {
        let mut s = step(1000.0, 1.0, 0, 0, 0);
        // One window stalls: its p99 is 40 ms, the others' 1 ms.
        s.windows = vec![vec![1.0; 1000], vec![1.0; 1000], vec![1.0; 1000]];
        s.windows[1][980..].fill(40.0);
        assert_eq!(s.p99_ms(), Some(1.0));
        assert_eq!(s.p50_ms(), Some(1.0));
        // A stall in most windows moves the step's p99.
        s.windows[2][980..].fill(30.0);
        assert_eq!(s.p99_ms(), Some(30.0));
        // Windows too small for a p99 do not count.
        s.windows = vec![vec![1.0; 999]];
        assert_eq!(s.p99_ms(), None);
        assert_eq!(s.p50_ms(), Some(1.0));
        assert_eq!(s.all().len(), 999);
    }

    #[test]
    fn max_rps_takes_the_highest_step_within_the_limit() {
        let steps = [
            step(1000.0, 0.3, 0, 0, 1),
            step(2000.0, 0.4, 0, 1, 1),
            step(4000.0, 1.0, 0, 2, 3),
            step(8000.0, 900.0, 0, 3000, 6000),
        ];
        assert_eq!(max_rps(&steps, 5.0).unwrap().rate, 4000.0);
    }

    #[test]
    fn a_growing_backlog_fails_a_step_even_under_the_latency_limit() {
        // 8k/s × 5 ms = 40 in flight is what the limit allows.
        assert!(step(8000.0, 4.0, 0, 20, 41).backlog_grows(5.0));
        assert!(!step(8000.0, 4.0, 0, 20, 40).backlog_grows(5.0));
        assert!(!step(8000.0, 4.0, 0, 50, 45).backlog_grows(5.0), "shrinking");
        let steps = [step(1000.0, 0.3, 0, 0, 0), step(8000.0, 4.0, 0, 20, 41)];
        assert_eq!(max_rps(&steps, 5.0).unwrap().rate, 1000.0);
    }

    #[test]
    fn failures_or_a_slow_tail_fail_a_step() {
        assert!(!step(1000.0, 0.3, 1, 0, 0).meets(5.0));
        assert!(!step(1000.0, 5.1, 0, 0, 0).meets(5.0));
        let mut short = step(1000.0, 0.3, 0, 0, 0);
        short.windows = vec![vec![0.3; 999]];
        assert!(!short.meets(5.0), "too few samples for a p99");
        assert!(max_rps(&[short], 5.0).is_none());
    }
}
