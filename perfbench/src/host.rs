//! Hypervisor steal: the benchmark's defence against a shared host.
//!
//! On a VM whose host is shared, other tenants' load arrives in episodes
//! of tens of seconds. During one the hypervisor steals vCPU time, and
//! every timing — wall clock and CPU time alike — reads 2–6× slower for
//! the same code. Before each measured unit of work the benchmark waits
//! until the kernel's steal counter stays still; a unit that ran under
//! steal anyway is measured again or left out of the figure; all of it
//! within a fixed budget per run. Each run reports the steal share it
//! measured under.

use std::time::Duration;

/// Kernel accounting ticks per second (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;
/// Length of one calm check, and how many consecutive calm checks count
/// as a calm host.
const WINDOW: Duration = Duration::from_millis(250);
const CALM_WINDOWS: usize = 2;
/// Steal share (of all vCPU time) a window may show and still be calm.
const CALM_SHARE: f64 = 0.02;
/// Most steal a measured unit may run under and still count as clean.
pub const CLEAN_SHARE: f64 = 0.03;
/// Most time one run spends waiting for calm and measuring units again,
/// over all its units; it bounds how long a run can take.
pub const RETRY_BUDGET: Duration = Duration::from_secs(5);

/// System-wide steal ticks so far, or `None` where `/proc/stat` has none.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // "cpu  user nice system idle iowait irq softirq steal ..."
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn vcpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// Steal share of all vCPU time since a starting reading.
pub struct Meter {
    ticks: Option<u64>,
    at: std::time::Instant,
}

impl Meter {
    pub fn start() -> Meter {
        Meter { ticks: steal_ticks(), at: crate::trace::now() }
    }

    /// Share of vCPU time stolen since [`Meter::start`]; 0 where the
    /// kernel does not report steal.
    pub fn share(&self) -> f64 {
        let (Some(a), Some(b)) = (self.ticks, steal_ticks()) else { return 0.0 };
        let capacity = self.at.elapsed().as_secs_f64() * TICKS_PER_S * vcpus();
        b.saturating_sub(a) as f64 / capacity.max(1e-9)
    }
}

/// The values of units measured clean, or all of them when none was.
pub fn clean<T: Copy>(units: &[(T, f64)]) -> Vec<T> {
    let kept: Vec<T> = units.iter().filter(|u| u.1 <= CLEAN_SHARE).map(|u| u.0).collect();
    if kept.is_empty() {
        units.iter().map(|u| u.0).collect()
    } else {
        kept
    }
}

/// Waits for calm and measures the steal share of what runs after.
pub struct Host {
    waited: Duration,
    repeated: Duration,
    run: Meter,
}

impl Host {
    pub fn new() -> Host {
        Host { waited: Duration::ZERO, repeated: Duration::ZERO, run: Meter::start() }
    }

    /// Wait until [`CALM_WINDOWS`] consecutive windows show at most
    /// [`CALM_SHARE`] steal, or until this run's [`RETRY_BUDGET`] is spent.
    pub fn settle(&mut self) {
        let mut calm = 0;
        while calm < CALM_WINDOWS && self.can_retry() {
            let Some(before) = steal_ticks() else { return };
            std::thread::sleep(WINDOW);
            self.waited += WINDOW;
            let stolen = steal_ticks().unwrap_or(before).saturating_sub(before) as f64;
            let capacity = WINDOW.as_secs_f64() * TICKS_PER_S * vcpus();
            calm = if stolen / capacity <= CALM_SHARE { calm + 1 } else { 0 };
        }
    }

    /// Whether this run may still wait for calm or repeat a unit.
    pub fn can_retry(&self) -> bool {
        self.waited + self.repeated < RETRY_BUDGET
    }

    /// Charge a unit measured again, that took `d`, to the budget.
    pub fn repeat(&mut self, d: Duration) {
        self.repeated += d;
    }

    /// Time spent waiting for calm so far.
    pub fn waited(&self) -> Duration {
        self.waited
    }

    /// Steal share of all vCPU time since this `Host` was made.
    pub fn steal_share(&self) -> f64 {
        self.run.share()
    }

    /// One line for the run's report.
    pub fn note(&self) -> String {
        format!(
            "host: waited {:.2} s for calm, measured {:.2} s again; steal {:.2}% of vCPU time \
             during the run",
            self.waited.as_secs_f64(),
            self.repeated.as_secs_f64(),
            100.0 * self.steal_share()
        )
    }
}
