//! # adt-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! One process runs one workload for one seed: it sets up (generates the
//! seeded inputs, reads `specs/`, warms up) several times and keeps the
//! median, then replays the workload's pass of operations in a closed loop
//! for the given number of seconds, checking every answer against a known
//! one. The untraced run (`--trace 0`) reports the end-to-end metrics; the
//! traced run (`--trace 1`) first repeats the untraced loop for half its
//! time, then runs with spans around every layer call and reports the
//! per-layer metrics, including the cost of tracing itself.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod harness;
pub mod rng;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use harness::{median, run_op, run_phase, Phase};
use trace::Tracer;
use workloads::Counters;

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 21;

/// A metric's name, unit and which direction is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported by `--trace 0` on every workload.
pub const END_TO_END: [MetricDef; 5] = [
    ("throughput_ops_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, reported by `--trace 1` on every workload (zero
/// where a workload does not exercise the layer). Times and counts are
/// per operation of the traced phase unless the unit says otherwise.
pub const PER_LAYER: [MetricDef; 38] = [
    ("rewrite.enumerate_s", "s/op", "lower"),
    ("rewrite.pairs", "count/op", "lower"),
    ("rewrite.join_s", "s/op", "lower"),
    ("rewrite.normalize_s", "s/op", "lower"),
    ("rewrite.normalize_calls", "count/op", "lower"),
    ("rewrite.steps", "count/op", "lower"),
    ("rewrite.steps_per_s", "1/s", "higher"),
    ("check.completeness_s", "s/op", "lower"),
    ("check.consistency_s", "s/op", "lower"),
    ("check.lint_s", "s/op", "lower"),
    ("check.pool_utilization", "ratio", "higher"),
    ("check.pool_busy_s", "s/op", "lower"),
    ("check.pool_wall_s", "s/op", "lower"),
    ("check.items", "count/op", "lower"),
    ("check.probes", "count/op", "lower"),
    ("check.undetermined", "count/op", "lower"),
    ("core.memo_hit_ratio", "ratio", "higher"),
    ("core.memo_entries", "count/session", "lower"),
    ("core.nf_cache_hits", "count/op", "higher"),
    ("core.intern_s", "s/op", "lower"),
    ("core.teardown_s", "s/op", "lower"),
    ("core.arena_terms", "count/session", "lower"),
    ("core.arena_bytes", "B/session", "lower"),
    ("dsl.parse_s", "s/op", "lower"),
    ("dsl.parse_bytes_per_s", "B/s", "higher"),
    ("verify.translate_s", "s/op", "lower"),
    ("verify.prove_s", "s/op", "lower"),
    ("verify.obligations_proved", "count/op", "higher"),
    ("verify.axiom_check_s", "s/op", "lower"),
    ("verify.instances", "count/op", "higher"),
    ("verify.differential_s", "s/op", "lower"),
    ("verify.differential_terms", "count/op", "higher"),
    ("structures.direct_s", "s/op", "lower"),
    ("slowdown_vs_direct", "ratio", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("bench.self_s", "s/op", "lower"),
    ("bench.op_wall_s", "s/op", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see [`workloads::NAMES`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the shipped specifications live.
    pub specs_dir: PathBuf,
    /// Where the traced run writes its spans (`None`: not written).
    pub out_dir: Option<PathBuf>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for a missing, unknown or malformed flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: Duration::from_secs(10),
            trace: false,
            specs_dir: PathBuf::from("specs"),
            out_dir: Some(PathBuf::from(".bench_out")),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload.clone_from(value),
                "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    args.seconds =
                        Duration::try_from_secs_f64(s).map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_owned()),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".to_owned());
        }
        Ok(args)
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted in the measured phase(s).
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Metric values, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The environment the run measured in, as a JSON object.
    pub env: String,
    /// Spans of the traced run, one tab-separated line each.
    pub spans: Option<String>,
}

impl Outcome {
    /// Whether every operation gave its known answer.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (k, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident memory of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit being measured, read from `.git` when the checkout has one.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_owned()
        } else {
            head.to_owned()
        };
    };
    std::fs::read_to_string(Path::new(".git").join(reference))
        .ok()
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()
                .and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_owned)
                })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Sets up `args.workload` [`SETUP_REPEATS`] times (the first time from
/// `process_start`), keeping the last workload and the median set-up time.
fn setup(
    args: &Args,
    jobs: usize,
    process_start: Instant,
) -> Result<(Box<dyn workloads::Workload>, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SETUP_REPEATS {
        let start = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut w = workloads::build(&args.workload, args.seed, &args.specs_dir, jobs)?;
        // Warm-up: one untimed operation (its answer is checked again in
        // the measured loop).
        let _ = run_op(w.as_mut(), 0, &mut Tracer::new(false));
        *w.counters() = Counters::default();
        times.push(start.elapsed().as_secs_f64());
        last = Some(w);
    }
    let w = last.ok_or("no set-up ran")?;
    Ok((w, median(&times)))
}

/// Runs one workload as `args` describe. `tamper` may alter the workload
/// after set-up (tests use it to plant a wrong known answer).
///
/// # Errors
///
/// Returns a message if set-up fails (unknown workload, unreadable
/// `specs/`); failed operations are reported in the [`Outcome`] instead.
pub fn run(
    args: &Args,
    process_start: Instant,
    tamper: impl FnOnce(&mut dyn workloads::Workload),
) -> Result<Outcome, String> {
    let jobs = nproc();
    let (mut w, setup_s) = setup(args, jobs, process_start)?;
    tamper(w.as_mut());
    let env = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"jobs\": {jobs}, \"profile\": \"{}\", \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit()
    );

    if !args.trace {
        let mut plain = Tracer::new(false);
        let phase = run_phase(w.as_mut(), &mut plain, args.seconds, 0);
        return Ok(Outcome {
            attempted: phase.attempted(),
            failed: phase.failed,
            failures: phase.failures.clone(),
            metrics: vec![
                ("throughput_ops_s", phase.throughput(), "1/s"),
                ("latency_p50_ms", phase.p50_ms(), "ms"),
                ("latency_p90_ms", phase.p90_ms(), "ms"),
                ("setup_s", setup_s, "s"),
                ("peak_rss_mb", peak_rss_mb(), "MB"),
            ],
            env,
            spans: None,
        });
    }

    // The untraced half gives the base for the tracing overhead and the
    // symbolic-vs-direct factor; the traced half gives the layers.
    let half = args.seconds / 2;
    let mut plain = Tracer::new(false);
    let base = run_phase(w.as_mut(), &mut plain, half, 0);
    let base_counters = std::mem::take(w.counters());
    let mut tracer = Tracer::new(true);
    let traced = run_phase(w.as_mut(), &mut tracer, half, base.attempted() as u64);
    let counters = w.counters().clone();
    let metrics = per_layer(&base, &base_counters, &traced, &counters, &tracer);
    let mut failures = base.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    Ok(Outcome {
        attempted: base.attempted() + traced.attempted(),
        failed: base.failed + traced.failed,
        failures,
        metrics,
        env,
        spans: Some(tracer.render_spans()),
    })
}

fn per_layer(
    base: &Phase,
    base_counters: &Counters,
    traced: &Phase,
    c: &Counters,
    tracer: &Tracer,
) -> Vec<(&'static str, f64, &'static str)> {
    let ops = traced.attempted().max(1) as f64;
    let self_s = |name: &str| tracer.self_seconds().get(name).copied().unwrap_or(0.0);
    let per_op = |x: f64| x / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let sessions = c.sessions.max(1) as f64;
    let base_mean = ratio(base.busy_s(), base.attempted() as f64);
    let traced_mean = ratio(tracer.op_wall_seconds(), tracer.ops() as f64);
    let value = |name: &str| match name {
        "rewrite.enumerate_s" => per_op(self_s("rewrite.enumerate")),
        "rewrite.pairs" => per_op(c.pairs as f64),
        "rewrite.join_s" => per_op(self_s("rewrite.join")),
        "rewrite.normalize_s" => per_op(self_s("rewrite.normalize")),
        "rewrite.normalize_calls" => per_op(c.normalize_calls as f64),
        "rewrite.steps" => per_op(c.steps as f64),
        "rewrite.steps_per_s" => ratio(c.steps as f64, self_s("rewrite.normalize")),
        "check.completeness_s" => per_op(self_s("check.completeness")),
        "check.consistency_s" => per_op(self_s("check.consistency")),
        "check.lint_s" => per_op(self_s("check.lint")),
        "check.pool_utilization" => ratio(c.pool_busy.as_secs_f64(), c.pool_capacity.as_secs_f64()),
        "check.pool_busy_s" => per_op(c.pool_busy.as_secs_f64()),
        "check.pool_wall_s" => per_op(c.pool_wall.as_secs_f64()),
        "check.items" => per_op(c.items as f64),
        "check.probes" => per_op(c.probes as f64),
        "check.undetermined" => per_op(c.undetermined as f64),
        "core.memo_hit_ratio" => ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
        "core.memo_entries" => c.memo_entries as f64 / sessions,
        "core.nf_cache_hits" => per_op(c.nf_cache_hits as f64),
        "core.intern_s" => per_op(self_s("core.intern")),
        "core.teardown_s" => per_op(self_s("core.teardown")),
        "core.arena_terms" => c.arena_terms as f64 / sessions,
        "core.arena_bytes" => c.arena_bytes as f64 / sessions,
        "dsl.parse_s" => per_op(self_s("dsl.parse")),
        "dsl.parse_bytes_per_s" => ratio(c.parse_bytes as f64, self_s("dsl.parse")),
        "verify.translate_s" => per_op(self_s("verify.translate")),
        "verify.prove_s" => per_op(self_s("verify.prove")),
        "verify.obligations_proved" => per_op(c.obligations_proved as f64),
        "verify.axiom_check_s" => per_op(self_s("verify.axiom_check")),
        "verify.instances" => per_op(c.instances as f64),
        "verify.differential_s" => per_op(self_s("verify.differential")),
        "verify.differential_terms" => per_op(c.differential_terms as f64),
        "structures.direct_s" => per_op(self_s("structures.direct")),
        "slowdown_vs_direct" => ratio(
            base_counters.symbolic.as_secs_f64(),
            base_counters.direct.as_secs_f64(),
        ),
        "fail_ratio" => ratio(traced.failed as f64, ops),
        "bench.self_s" => per_op(self_s(trace::OP)),
        "bench.op_wall_s" => per_op(tracer.op_wall_seconds()),
        "bench.trace_overhead" => ratio(traced_mean, base_mean),
        other => unreachable!("per-layer metric {other} has no definition"),
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, value(name), unit))
        .collect()
}
