//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent) and the id of the operation it belongs to. Spans
//! nest strictly (they are opened and closed on the benchmark thread
//! only), so a span's *self time* is its duration minus the durations of
//! its direct children; summing self times over an operation's spans
//! gives back the operation's wall time exactly.
//!
//! With tracing disabled every call is a branch and a direct call of the
//! wrapped closure, so the untraced run executes the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Root span of one timed operation. Its self time is the benchmark's own
/// time inside the operation (building queries, checking answers).
pub const OP: &str = "bench.op";

/// At most this many raw spans are kept for the span file; aggregates
/// cover every span regardless.
const KEEP_SPANS: usize = 200_000;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call this span wraps (`"rewrite.normalize"`, …).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index (in [`Tracer::spans`]) of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_s: f64,
    /// Where this span's record will land in `kept` (if it is kept).
    slot: Option<usize>,
}

/// Span recorder and per-layer self-time accumulator.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    self_s: BTreeMap<&'static str, f64>,
    op_self_s: BTreeMap<&'static str, f64>,
    op_wall_s: f64,
    ops: u64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and otherwise only runs
    /// the wrapped calls.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            self_s: BTreeMap::new(),
            op_self_s: BTreeMap::new(),
            op_wall_s: 0.0,
            ops: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().and_then(|o| o.slot);
        let slot = (self.kept.len() < KEEP_SPANS).then(|| {
            self.kept.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op,
            });
            self.kept.len() - 1
        });
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_s: 0.0,
            slot,
        });
    }

    /// Closes the innermost open span and folds its self time into the
    /// per-layer totals.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = end.duration_since(open.start).as_secs_f64();
        let own = (dur - open.child_s).max(0.0);
        *self.self_s.entry(open.name).or_default() += own;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_s += dur;
        }
        if let Some(slot) = open.slot {
            let span = &mut self.kept[slot];
            span.start_ns = nanos(open.start.duration_since(self.origin));
            span.end_ns = nanos(end.duration_since(self.origin));
        }
        // Spans under an operation root also feed the accounting check.
        if self.stack.iter().any(|o| o.name == OP) || open.name == OP {
            *self.op_self_s.entry(open.name).or_default() += own;
        }
        if open.name == OP {
            self.op_wall_s += dur;
            self.ops += 1;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Closes every open span (after a panic unwound through them).
    pub fn unwind(&mut self) {
        while !self.stack.is_empty() {
            self.end();
        }
    }

    /// Total self time per span name, seconds, over every span.
    pub fn self_seconds(&self) -> &BTreeMap<&'static str, f64> {
        &self.self_s
    }

    /// Total self time per span name, seconds, over spans inside
    /// operation roots only.
    pub fn op_self_seconds(&self) -> &BTreeMap<&'static str, f64> {
        &self.op_self_s
    }

    /// Summed wall time of the operation roots, seconds.
    pub fn op_wall_seconds(&self) -> f64 {
        self.op_wall_s
    }

    /// Operation roots closed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The raw spans kept (the first [`KEEP_SPANS`]).
    pub fn spans(&self) -> &[Span] {
        &self.kept
    }

    /// The kept spans as tab-separated lines:
    /// `index name start_ns end_ns parent op`.
    pub fn render_spans(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\top\n");
        for (i, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
