//! The benchmark's own checks: the corpus gets its labels, the oracles
//! catch a wrong answer, the traced run accounts for every operation's
//! time, and `BENCHMARK.json` names what the program reports.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use adt_perfbench::corpus::{self, Family};
use adt_perfbench::harness::{percentile, run_op, Phase};
use adt_perfbench::trace::{Tracer, OP};
use adt_perfbench::workloads::{self, CheckCorpus, NAMES};
use adt_perfbench::{run, Args, END_TO_END, PER_LAYER};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn specs() -> PathBuf {
    repo().join("specs")
}

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_owned(),
        seed: 3,
        seconds: Duration::ZERO,
        trace,
        specs_dir: specs(),
        out_dir: None,
    }
}

#[test]
fn every_corpus_entry_parses_and_gets_its_labelled_verdict() {
    for seed in [1, 2] {
        let mut w = CheckCorpus::new(seed, &specs(), 2).expect("corpus builds");
        let entries = w.entries().to_vec();
        let names: HashSet<_> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names.len(), entries.len(), "entry names are unique");
        for family in [
            Family::Shipped,
            Family::Synthetic,
            Family::Overlap,
            Family::Mutant,
        ] {
            assert!(
                entries.iter().any(|e| e.family == family),
                "{family:?} present"
            );
        }
        for (i, e) in entries.iter().enumerate() {
            adt_dsl::parse(&e.source)
                .unwrap_or_else(|d| panic!("{}: {}", e.name, d.render(&e.source)));
            let verdict = run_op(&mut w, i, &mut Tracer::new(false));
            assert_eq!(verdict, Ok(()), "seed {seed}: {}", e.name);
        }
    }
}

#[test]
fn corpus_content_follows_the_seed_but_its_shape_does_not() {
    let shipped = corpus::shipped(&specs()).expect("specs/ readable");
    let a = corpus::generate(1, &shipped).expect("generates");
    let again = corpus::generate(1, &shipped).expect("generates");
    let b = corpus::generate(2, &shipped).expect("generates");
    let sources = |c: &[corpus::Entry]| c.iter().map(|e| e.source.clone()).collect::<Vec<_>>();
    assert_eq!(sources(&a), sources(&again), "same seed, same inputs");
    assert_ne!(sources(&a), sources(&b), "another seed, other inputs");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.family, y.family);
        assert_eq!(x.expect.complete, y.expect.complete);
        assert_eq!(x.expect.consistent, y.expect.consistent);
    }
}

#[test]
fn a_mislabelled_answer_fails_the_operation_on_every_workload() {
    for name in NAMES {
        let mut w = workloads::build(name, 3, &specs(), 2).expect("builds");
        let ops = w.ops_per_pass();
        let mut clean = Tracer::new(false);
        let passing: Vec<_> = (0..ops.min(40))
            .map(|i| run_op(w.as_mut(), i, &mut clean))
            .collect();
        assert!(passing.iter().all(Result::is_ok), "{name}: {passing:?}");
        w.mislabel();
        let failing: Vec<_> = (0..ops.min(40))
            .map(|i| run_op(w.as_mut(), i, &mut clean))
            .collect();
        assert!(
            failing.iter().any(Result::is_err),
            "{name}: a wrong answer went unnoticed"
        );
    }
}

#[test]
fn a_mislabelled_answer_makes_the_run_fail() {
    let start = Instant::now();
    let good = run(&args("eval_cold", false), start, |_| {}).expect("runs");
    assert!(good.correct(), "{:?}", good.failures);
    assert!(good.json().starts_with("{\"correct\": true,"));

    let bad = run(&args("eval_cold", false), start, |w| w.mislabel()).expect("runs");
    assert!(!bad.correct());
    assert!(bad.failed > 0 && bad.attempted >= 100);
    assert!(
        bad.json().starts_with("{\"correct\": false,"),
        "{}",
        bad.json()
    );
}

#[test]
fn traced_self_times_account_for_the_wall_time_of_every_operation() {
    let layers = [
        (
            "check_corpus",
            vec![
                "dsl.parse",
                "check.completeness",
                "check.consistency",
                "check.lint",
            ],
        ),
        (
            "interp_trace",
            vec!["dsl.parse", "core.intern", "rewrite.normalize"],
        ),
        (
            "eval_cold",
            vec!["dsl.parse", "rewrite.normalize", "core.teardown"],
        ),
        (
            "verify_symtab",
            vec![
                "verify.translate",
                "verify.prove",
                "verify.axiom_check",
                "verify.differential",
            ],
        ),
    ];
    for (name, expected) in layers {
        let mut w = workloads::build(name, 5, &specs(), 2).expect("builds");
        let mut t = Tracer::new(true);
        for i in 0..w.ops_per_pass().min(12) {
            t.set_op(i as u64);
            run_op(w.as_mut(), i, &mut t).expect("answer is right");
            w.after_op(i, &mut t);
        }
        let accounted: f64 = t.op_self_seconds().values().sum();
        let wall = t.op_wall_seconds();
        assert!(wall > 0.0);
        assert!(
            (accounted - wall).abs() <= 1e-9 * t.ops() as f64 + 1e-6 * wall,
            "{name}: self times {accounted} vs op wall {wall}"
        );
        for layer in expected {
            assert!(
                t.op_self_seconds().contains_key(layer),
                "{name}: no {layer} span"
            );
        }
        assert!(t.op_self_seconds().contains_key(OP));
        // Every kept span nests inside its parent and carries its op id.
        for s in t.spans() {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let parent = t.spans()[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                assert_eq!(parent.op, s.op);
            }
        }
    }
}

#[test]
fn check_corpus_traces_enumeration_and_joining_outside_the_operation() {
    let mut w = workloads::build("check_corpus", 5, &specs(), 2).expect("builds");
    let mut t = Tracer::new(true);
    let n = w.ops_per_pass();
    for i in 0..n {
        run_op(w.as_mut(), i, &mut t).expect("answer is right");
        w.after_op(i, &mut t);
    }
    assert!(t.self_seconds()["rewrite.enumerate"] > 0.0);
    assert!(t.self_seconds()["rewrite.join"] > 0.0);
    assert!(!t.op_self_seconds().contains_key("rewrite.enumerate"));
    assert!(
        w.counters().pairs > 0,
        "the overlap family yields critical pairs"
    );
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let out = run(&args("verify_symtab", true), Instant::now(), |_| {}).expect("runs");
    assert!(out.correct(), "{:?}", out.failures);
    let names: Vec<_> = out.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    assert_eq!(out.metric("verify.obligations_proved"), Some(18.0));
    assert!(out.metric("bench.trace_overhead").is_some_and(|x| x > 0.0));
    assert!(out.spans.as_deref().is_some_and(|s| s.lines().count() > 1));
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let json = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    for w in NAMES {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(
            "\"name\": \"{name}\",\n      \"unit\": \"{unit}\",\n      \"better\": \"{better}\""
        );
        assert!(json.contains(&entry), "metric {name} ({unit}, {better})");
    }
}

#[test]
fn windows_hold_whole_passes_of_at_least_a_hundred_operations() {
    let mut phase = Phase::default();
    for pass in 0..7 {
        for i in 0..45 {
            phase.record(f64::from(pass * 45 + i));
        }
        phase.end_pass(pass == 6);
    }
    assert_eq!(
        phase.windows.len(),
        2,
        "three passes per window, the seventh left open"
    );
    assert!(phase.windows.iter().all(|w| w.ops == 135));
    assert_eq!(phase.attempted(), 7 * 45);
    assert_eq!(phase.windows[0].p90_s, 121.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    assert_eq!(
        percentile(&(1..=100).map(f64::from).collect::<Vec<_>>(), 90.0),
        90.0
    );
}
