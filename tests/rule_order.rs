//! Rule order is axiom order, in every process.
//!
//! Critical pairs are enumerated from a `RuleSet`, so the rule set's
//! iteration order decides the order of `adt check`'s contradiction list
//! and which pair a seeded `--faults` plan hits. That order must be the
//! axiom order — never a hash order, which differs between processes
//! and between rule sets built in one process.
//!
//! The fixture has four defined operations, each with one diverging
//! general/specific axiom pair, so it yields four contradictions whose
//! order is visible.

use std::fs;
use std::path::PathBuf;

use adt_check::{
    check_consistency_session, CheckConfig, ConsistencyReport, FaultSpec, ProbeConfig,
};
use adt_core::{display, Rule, RuleSet, Session, Spec};
use adt_rewrite::superpositions;

const MULTI_HEAD: &str = "type T
ops
  A: -> T ctor
  B: -> T ctor
  F: T -> T
  G: T -> T
  H: T -> T
  K: T -> T
vars
  x: T
axioms
  [f1] F(x) = A
  [f2] F(A) = B
  [g1] G(x) = A
  [g2] G(A) = B
  [h1] H(x) = A
  [h2] H(A) = B
  [k1] K(x) = A
  [k2] K(A) = B
end
";

/// Fresh builds per assertion: each `HashMap` gets its own hash keys, so
/// a hash-ordered rule set disagrees with itself within a few builds.
const BUILDS: usize = 8;

/// One consistency check in a fresh session.
fn consistency(spec: &Spec, config: &CheckConfig) -> ConsistencyReport {
    check_consistency_session(&Session::new(spec.clone()), &ProbeConfig::default(), config)
}

fn spec() -> Spec {
    adt_dsl::parse(MULTI_HEAD).expect("fixture parses")
}

#[test]
fn rule_sets_iterate_in_axiom_order() {
    let spec = spec();
    let axiom_labels: Vec<&str> = spec.axioms().iter().map(|ax| ax.label()).collect();
    for _ in 0..BUILDS {
        let rules = RuleSet::from_spec(&spec);
        let labels: Vec<&str> = rules.iter().map(Rule::label).collect();
        assert_eq!(labels, axiom_labels);
    }
}

#[test]
fn superpositions_agree_across_builds() {
    let spec = spec();
    let first = superpositions(&spec).expect("enumerates").superpositions;
    let order: Vec<(&str, &str)> = first
        .iter()
        .map(|sp| (sp.outer_rule.as_str(), sp.inner_rule.as_str()))
        .collect();
    assert_eq!(
        order,
        [
            ("f1", "f2"),
            ("f2", "f1"),
            ("g1", "g2"),
            ("g2", "g1"),
            ("h1", "h2"),
            ("h2", "h1"),
            ("k1", "k2"),
            ("k2", "k1"),
        ]
    );
    for _ in 1..BUILDS {
        assert_eq!(
            superpositions(&spec).expect("enumerates").superpositions,
            first
        );
    }
}

#[test]
fn contradictions_are_listed_in_axiom_order() {
    let spec = spec();
    for _ in 0..BUILDS {
        let report = consistency(&spec, &CheckConfig::default());
        let peaks: Vec<String> = report
            .contradictions()
            .iter()
            .map(|c| display::term(report.spec().sig(), &c.peak).to_string())
            .collect();
        assert_eq!(peaks, ["F(A)", "G(A)", "H(A)", "K(A)"]);
    }
}

#[test]
fn a_seeded_fault_plan_hits_the_same_pairs_every_run() {
    let spec = spec();
    let plan = FaultSpec::parse("seed=7,panic=1,exhaust=1").expect("plan parses");
    let config = CheckConfig::jobs(1).with_faults(plan);
    let run = || {
        let report = consistency(&spec, &config);
        (report.pair_verdicts().to_vec(), report.summary())
    };
    let first = run();
    for _ in 1..BUILDS {
        assert_eq!(run(), first);
    }
}

#[test]
fn cli_reports_agree_across_runs() {
    let mut path: PathBuf = std::env::temp_dir();
    path.push(format!("adt_rule_order_{}.adt", std::process::id()));
    fs::write(&path, MULTI_HEAD).expect("temp file is writable");
    let file = path.to_string_lossy().into_owned();
    for extra in [&[][..], &["--faults", "seed=7,panic=1,exhaust=1"][..]] {
        let run = || {
            let mut args = vec!["check".to_owned()];
            args.extend(extra.iter().map(|s| (*s).to_owned()));
            args.push(file.clone());
            adt_cli::run(&args).output
        };
        let first = run();
        assert!(first.starts_with("T: "), "{first}");
        for _ in 1..BUILDS {
            assert_eq!(run(), first, "args {extra:?}");
        }
    }
    let _ = fs::remove_file(&path);
}
