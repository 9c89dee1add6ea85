//! The closed loop: one client, the next operation only after the previous
//! one returns, whole passes until the time budget is spent.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::trace::{Tracer, OP};
use crate::workloads::Workload;

/// A run holds at least this many operations, so that the 90th
/// percentile has at least ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Summary of one window: whole passes holding at least [`MIN_OPS`]
/// operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Operations in the window.
    pub ops: usize,
    /// Summed operation wall time, seconds.
    pub busy_s: f64,
    /// Median operation latency, seconds.
    pub p50_s: f64,
    /// Nearest-rank 90th-percentile operation latency, seconds.
    pub p90_s: f64,
}

impl Window {
    /// Summarises the latencies (seconds) of one window.
    pub fn of(latencies: &[f64]) -> Window {
        Window {
            ops: latencies.len(),
            busy_s: latencies.iter().sum(),
            p50_s: percentile(latencies, 50.0),
            p90_s: percentile(latencies, 90.0),
        }
    }
}

/// What one measured phase saw. Latencies are kept only until their
/// window closes, so the benchmark's own memory does not grow with the
/// run and `peak_rss_mb` stays the program's.
///
/// Percentiles are taken per window and averaged over windows: the host's
/// speed drifts between slower and faster spells lasting seconds, and
/// averaging weighs each spell by its share of the run, where a median
/// over windows would jump from one spell's value to the other's.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Closed windows, in execution order.
    pub windows: Vec<Window>,
    /// Latencies of the window still open.
    open: Vec<f64>,
    /// Operations that failed, with the reason (first few only).
    pub failures: Vec<String>,
    /// Count of failed operations.
    pub failed: usize,
}

impl Phase {
    /// Records one operation's wall time, seconds.
    pub fn record(&mut self, latency: f64) {
        self.open.push(latency);
    }

    /// Marks the end of a pass; closes the open window once it holds
    /// [`MIN_OPS`] operations (or when `last`, if no window closed yet).
    pub fn end_pass(&mut self, last: bool) {
        if self.open.len() >= MIN_OPS || (last && self.windows.is_empty()) {
            self.windows.push(Window::of(&self.open));
            self.open.clear();
        }
    }

    /// Operations attempted, including any in a window left open.
    pub fn attempted(&self) -> usize {
        self.windows.iter().map(|w| w.ops).sum::<usize>() + self.open.len()
    }

    /// Summed operation wall time, seconds.
    pub fn busy_s(&self) -> f64 {
        self.windows.iter().map(|w| w.busy_s).sum::<f64>() + self.open.iter().sum::<f64>()
    }

    /// Completed operations per second of operation time, over the
    /// closed windows.
    pub fn throughput(&self) -> f64 {
        let ops: usize = self.windows.iter().map(|w| w.ops).sum();
        let busy: f64 = self.windows.iter().map(|w| w.busy_s).sum();
        ops as f64 / busy.max(f64::MIN_POSITIVE)
    }

    /// Mean over windows of the windows' median latency, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        mean(self.windows.iter().map(|w| w.p50_s)) * 1e3
    }

    /// Mean over windows of the windows' 90th-percentile latency,
    /// milliseconds.
    pub fn p90_ms(&self) -> f64 {
        mean(self.windows.iter().map(|w| w.p90_s)) * 1e3
    }
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len().max(1) as f64;
    values.sum::<f64>() / n
}

/// Nearest-rank percentile (`p` in `0..=100`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Runs one operation inside an operation span, turning a panic into a
/// failure.
pub fn run_op(w: &mut dyn Workload, i: usize, tracer: &mut Tracer) -> Result<(), String> {
    tracer.begin(OP);
    let out = catch_unwind(AssertUnwindSafe(|| w.op(i, tracer)));
    // Closes the operation span, and any span a panic left open.
    tracer.unwind();
    match out {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string payload>".to_owned())
        )),
    }
}

/// Replays whole passes of `w` until `budget` would be exceeded by one
/// more pass (at least one pass and [`MIN_OPS`] operations). Operation
/// ids continue from `first_op`.
pub fn run_phase(
    w: &mut dyn Workload,
    tracer: &mut Tracer,
    budget: Duration,
    first_op: u64,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    let n = w.ops_per_pass();
    let mut op_id = first_op;
    loop {
        let pass_start = Instant::now();
        if let Err(e) = w.before_pass(tracer) {
            phase.failed += 1;
            phase.failures.push(e);
        }
        for i in 0..n {
            tracer.set_op(op_id);
            let t = Instant::now();
            let out = run_op(w, i, tracer);
            phase.record(t.elapsed().as_secs_f64());
            if let Err(e) = out {
                phase.failed += 1;
                if phase.failures.len() < 5 {
                    phase.failures.push(e);
                }
            }
            if tracer.enabled() {
                w.after_op(i, tracer);
            }
            op_id += 1;
        }
        let pass = pass_start.elapsed();
        let last = phase.attempted() >= MIN_OPS && start.elapsed() + pass > budget;
        phase.end_pass(last);
        if last {
            break;
        }
    }
    phase
}
