//! Fault-injection suite: the robustness claims of the checking engine,
//! exercised end to end.
//!
//! Three claims are pinned here:
//!
//! 1. **Panic isolation** — a worker panic on one work item (injected
//!    deterministically) leaves every other item's verdict byte-identical
//!    to a fault-free run, at any job count, and the sabotaged item is
//!    flagged rather than lost.
//! 2. **Fuel bounds** — a divergent axiom set (`F(x) = F(x)`) terminates
//!    with an `Exhausted` receipt at *exactly* the configured step budget
//!    in the rewriter, surfaces as a partial verdict in the checker, and
//!    as `UNDETERMINED` (exit 0) in the CLI.
//! 3. **Partial verdicts** — a deliberately incomplete specification
//!    (`queue_incomplete`, the paper's dropped axiom 4) produces a
//!    partial verdict and a clean exit-1 report; it never panics.

use std::fs;
use std::path::PathBuf;

use adt_check::{
    check_completeness_session, check_consistency_session, fault_isolation_check, CheckConfig,
    CompletenessReport, ConsistencyReport, ConsistencyVerdict, FaultSpec, ProbeConfig,
};
use adt_core::{ExhaustionCause, Fuel, Session, Spec};
use adt_rewrite::{RewriteError, Rewriter};
use adt_structures::sources;

/// One completeness check in a fresh session.
fn completeness(spec: &Spec, config: &CheckConfig) -> CompletenessReport {
    check_completeness_session(&Session::new(spec.clone()), config)
}

/// One consistency check in a fresh session.
fn consistency(spec: &Spec, probe: &ProbeConfig, config: &CheckConfig) -> ConsistencyReport {
    check_consistency_session(&Session::new(spec.clone()), probe, config)
}

/// A one-rule divergent system: every probe loops forever without fuel.
const LOOP: &str = "type L
ops
  C: -> L ctor
  F: L -> L
vars
  x: L
axioms
  [1] F(x) = F(x)
end
";

fn temp_spec(name: &str, contents: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("adt_fault_{}_{name}.adt", std::process::id()));
    fs::write(&path, contents).expect("temp file is writable");
    path
}

fn cli(args: &[&str]) -> adt_cli::Outcome {
    let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    adt_cli::run(&owned)
}

#[test]
fn injected_panic_is_contained_at_any_job_count() {
    let spec = adt_dsl::parse(sources::QUEUE).expect("shipped spec parses");
    let plan = FaultSpec::parse("seed=7,panic=1").expect("plan parses");
    for jobs in [1, 4] {
        let report = fault_isolation_check(
            &spec,
            &ProbeConfig::default(),
            &plan,
            &CheckConfig::jobs(jobs),
        );
        assert!(
            report.faults_injected() > 0,
            "jobs {jobs}: the plan must actually arm faults"
        );
        assert!(report.isolated(), "jobs {jobs}:\n{}", report.render());
        // The sabotaged chunks are flagged, not silently dropped.
        assert!(
            report.phases.iter().any(|p| !p.faulted.is_empty()),
            "jobs {jobs}: no phase flags its faulted item"
        );
    }
}

#[test]
fn all_three_fault_kinds_are_contained_together() {
    let spec = adt_dsl::parse(sources::QUEUE).expect("shipped spec parses");
    let plan = FaultSpec::parse("seed=3,panic=1,exhaust=1,slow=1,slow-ms=1").expect("plan parses");
    for jobs in [1, 4] {
        let report = fault_isolation_check(
            &spec,
            &ProbeConfig::default(),
            &plan,
            &CheckConfig::jobs(jobs),
        );
        assert!(report.isolated(), "jobs {jobs}:\n{}", report.render());
    }
}

#[test]
fn slow_faults_change_nothing_at_all() {
    // Slowness is pure scheduling noise: unlike panics and exhaustion it
    // does not change any item's verdict, so the *entire* report — the
    // slowed items included — must be byte-identical to a clean run.
    let spec = adt_dsl::parse(sources::QUEUE).expect("shipped spec parses");
    let plan = FaultSpec::parse("seed=5,slow=3,slow-ms=1").expect("plan parses");
    let probe = ProbeConfig::default();
    let clean = consistency(&spec, &probe, &CheckConfig::jobs(4));
    let slowed = consistency(
        &spec,
        &probe,
        &CheckConfig::jobs(4).with_faults(plan.clone()),
    );
    assert_eq!(clean.verdict(), slowed.verdict());
    assert_eq!(clean.pair_verdicts(), slowed.pair_verdicts());
    assert_eq!(clean.probe_verdicts(), slowed.probe_verdicts());
    assert_eq!(clean.summary(), slowed.summary());
    assert!(slowed.failures().is_empty());

    let comp_clean = completeness(&spec, &CheckConfig::jobs(4));
    let comp_slowed = completeness(&spec, &CheckConfig::jobs(4).with_faults(plan));
    assert_eq!(comp_clean.coverage(), comp_slowed.coverage());
}

#[test]
fn rewriter_exhausts_at_exactly_the_configured_budget() {
    let spec = adt_dsl::parse(LOOP).expect("loop spec parses");
    let term = adt_dsl::parse_term(&spec, "F(C)").expect("term parses");
    let rw = Rewriter::new(&spec).with_fuel(100);
    match rw.normalize_full(&term) {
        Err(RewriteError::Exhausted { spent, budget }) => {
            assert_eq!(spent.steps, 100, "exhaustion must land on the exact budget");
            assert_eq!(spent.cause, ExhaustionCause::Steps);
            assert_eq!(budget.steps, 100);
        }
        other => panic!("expected Exhausted, got {other:?}"),
    }
}

#[test]
fn checker_surfaces_divergence_as_a_partial_verdict() {
    let spec = adt_dsl::parse(LOOP).expect("loop spec parses");
    let probe = ProbeConfig {
        samples: 10,
        max_depth: 3,
        seed: 1,
    };
    let mut summaries = Vec::new();
    for jobs in [1, 4] {
        let cfg = CheckConfig::jobs(jobs).with_fuel(Fuel::steps(100));
        let report = consistency(&spec, &probe, &cfg);
        assert_eq!(
            report.verdict(),
            &ConsistencyVerdict::Exhausted,
            "jobs {jobs}: {}",
            report.summary()
        );
        assert!(!report.exhausted_probes().is_empty());
        assert_eq!(report.exhausted_probes()[0].spent.steps, 100);
        summaries.push(report.summary());
    }
    assert_eq!(summaries[0], summaries[1], "partial verdicts must not depend on the job count");
}

#[test]
fn cli_fuel_flag_reports_undetermined_and_exits_zero() {
    let path = temp_spec("loop", LOOP);
    for jobs in ["1", "4"] {
        let out = cli(&[
            "check",
            "--jobs",
            jobs,
            "--fuel",
            "100",
            path.to_str().unwrap(),
        ]);
        assert_eq!(out.code, 0, "jobs {jobs}: {}", out.output);
        assert!(
            out.output.contains("consistent: UNDETERMINED"),
            "jobs {jobs}: {}",
            out.output
        );
    }
    let _ = fs::remove_file(path);
}

#[test]
fn cli_faults_run_exits_zero_and_flags_the_chunk() {
    let path = temp_spec("queue", sources::QUEUE);
    let out = cli(&[
        "check",
        "--jobs",
        "4",
        "--faults",
        "seed=7,panic=1",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.code, 0, "{}", out.output);
    assert!(
        out.output.contains("non-faulted verdicts identical: yes"),
        "{}",
        out.output
    );
    assert!(out.output.contains("faulted item(s) ["), "{}", out.output);
    let _ = fs::remove_file(path);
}

#[test]
fn incomplete_spec_yields_partial_verdict_without_panicking() {
    let spec = adt_dsl::parse(sources::QUEUE_INCOMPLETE).expect("shipped spec parses");
    for jobs in [1, 4] {
        let cfg = CheckConfig::jobs(jobs);
        let comp = completeness(&spec, &cfg);
        assert!(!comp.is_sufficiently_complete(), "jobs {jobs}");
        assert!(comp.has_definite_missing(), "jobs {jobs}");
        assert_eq!(comp.missing_case_count(), 1, "jobs {jobs}");
        assert!(
            comp.prompts().contains("FRONT(ADD("),
            "jobs {jobs}: {}",
            comp.prompts()
        );
        // Consistency still runs to a verdict on the incomplete spec.
        let cons = consistency(&spec, &ProbeConfig::default(), &cfg);
        assert!(cons.failures().is_empty(), "jobs {jobs}");
    }

    // End to end: exit 1 (a definite negative), a prompt, and no panic.
    let path = temp_spec("incomplete", sources::QUEUE_INCOMPLETE);
    for jobs in ["1", "4"] {
        let out = cli(&["check", "--jobs", jobs, path.to_str().unwrap()]);
        assert_eq!(out.code, 1, "jobs {jobs}: {}", out.output);
        assert!(
            out.output.contains("sufficiently complete: NO"),
            "jobs {jobs}: {}",
            out.output
        );
    }
    let _ = fs::remove_file(path);
}

#[test]
fn exhaust_faults_are_never_rescued_by_the_retry_ladder() {
    // The retry ladder exists to rescue *honest* fuel exhaustion. An
    // injected exhaust fault must stay pinned at rung 0: if the ladder
    // re-ran the sabotaged item at a bigger budget it would come back
    // clean, and the isolation harness would be comparing the wrong run.
    use adt_check::RetryFuel;
    let spec = adt_dsl::parse(sources::QUEUE).expect("shipped spec parses");
    let plan = FaultSpec::parse("seed=3,exhaust=2").expect("plan parses");
    let probe = ProbeConfig::default();
    for jobs in [1, 4] {
        let base = CheckConfig::jobs(jobs).with_faults(plan.clone());
        let with_retry = base.clone().with_retry(RetryFuel::default());
        let plain = consistency(&spec, &probe, &base);
        let retried = consistency(&spec, &probe, &with_retry);
        assert_eq!(
            plain.pair_verdicts(),
            retried.pair_verdicts(),
            "jobs {jobs}: retry must not touch exhaust-faulted pairs"
        );
        assert_eq!(
            plain.probe_verdicts(),
            retried.probe_verdicts(),
            "jobs {jobs}: retry must not touch exhaust-faulted probes"
        );
        assert!(
            retried.stats().retries.is_empty(),
            "jobs {jobs}: no rung may claim a faulted rescue: {:?}",
            retried.stats().retries
        );

        let comp_plain = completeness(&spec, &base);
        let comp_retried = completeness(&spec, &with_retry);
        assert_eq!(
            comp_plain.coverage(),
            comp_retried.coverage(),
            "jobs {jobs}: retry must not touch exhaust-faulted operations"
        );
    }

    // The isolation harness agrees even with the ladder armed.
    let report = fault_isolation_check(
        &spec,
        &ProbeConfig::default(),
        &plan,
        &CheckConfig::jobs(4).with_retry(RetryFuel::default()),
    );
    assert!(report.isolated(), "{}", report.render());
}
