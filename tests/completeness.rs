//! EX-2: sufficient completeness in anger — dropping axiom 4 from the
//! Queue is caught with the exact missing case, and assorted broken
//! specifications are rejected with the right diagnostics (failure
//! injection for the checking pipeline).

use adt_check::{
    check_completeness_session, check_consistency_session, CheckConfig, CompletenessReport,
    ConsistencyReport, Coverage, ProbeConfig,
};
use adt_core::{Session, Spec};
use adt_structures::sources;

fn completeness(spec: &Spec) -> CompletenessReport {
    check_completeness_session(&Session::new(spec.clone()), &CheckConfig::default())
}

fn consistency(spec: &Spec) -> ConsistencyReport {
    let session = Session::new(spec.clone());
    check_consistency_session(&session, &ProbeConfig::default(), &CheckConfig::default())
}

#[test]
fn dropping_axiom_4_is_flagged_with_a_prompt() {
    let spec = sources::load("queue_incomplete").unwrap();
    let report = completeness(&spec);
    assert!(!report.is_sufficiently_complete());
    assert_eq!(report.missing_case_count(), 1);
    let front = spec.sig().find_op("FRONT").unwrap();
    let cov = report.for_op(front).unwrap();
    assert!(matches!(cov.coverage(), Coverage::Missing(_)));
    // The prompt is the paper's interactive behaviour: the system asks
    // for the missing equation.
    let prompts = report.prompts();
    assert!(
        prompts.contains("FRONT(ADD(queue_1, item_1)) = ?"),
        "{prompts}"
    );
    // The complete spec's other operations are unaffected.
    let remove = spec.sig().find_op("REMOVE").unwrap();
    assert!(report.for_op(remove).unwrap().is_complete());
}

#[test]
fn the_incomplete_spec_is_still_consistent() {
    // Incompleteness and inconsistency are independent defects.
    let spec = sources::load("queue_incomplete").unwrap();
    assert!(consistency(&spec).is_consistent());
}

#[test]
fn a_contradictory_queue_variant_is_caught() {
    // Re-adding axiom 4 with the WRONG orientation (a LIFO front) next to
    // a general FIFO fact makes the spec inconsistent.
    let source = r#"
type Queue
param Item
ops
  NEW: -> Queue ctor
  ADD: Queue, Item -> Queue ctor
  FRONT: Queue -> Item
  A: -> Item ctor
  B: -> Item ctor
vars
  q: Queue
  i, j: Item
axioms
  [lifo] FRONT(ADD(q, i)) = i
  [fifo2] FRONT(ADD(ADD(q, i), j)) = FRONT(ADD(q, i))
end
"#;
    let spec = adt_dsl::parse(source).unwrap();
    let report = consistency(&spec);
    assert!(
        !report.is_consistent(),
        "LIFO and FIFO readings of FRONT must clash: {}",
        report.summary()
    );
    assert!(!report.contradictions().is_empty());
}

#[test]
fn ill_sorted_spec_files_are_rejected_with_spans() {
    let source = "type Queue\nops\n  NEW: -> Qeueu ctor\nend";
    let err = adt_dsl::parse(source).unwrap_err();
    let rendered = err.render(source);
    assert!(rendered.contains("unknown sort `Qeueu`"), "{rendered}");
    assert!(rendered.contains("line 3"), "{rendered}");
}

#[test]
fn every_shipped_spec_except_the_deliberate_one_is_complete() {
    for (name, _) in sources::all() {
        let spec = sources::load(name).unwrap();
        let report = completeness(&spec);
        if name == "queue_incomplete" {
            assert!(!report.is_sufficiently_complete());
        } else {
            assert!(
                report.is_sufficiently_complete(),
                "specs/{name}.adt: {}",
                report.prompts()
            );
        }
    }
}

#[test]
fn no_shipped_spec_has_overlapping_axioms() {
    for (name, _) in sources::all() {
        let spec = sources::load(name).unwrap();
        let warnings = adt_check::overlap_warnings(&spec);
        assert!(warnings.is_empty(), "specs/{name}.adt: {warnings:?}");
    }
}

#[test]
fn no_shipped_spec_risks_symbolic_divergence() {
    for (name, _) in sources::all() {
        let spec = sources::load(name).unwrap();
        let warnings = adt_check::recursion_warnings(&spec);
        assert!(warnings.is_empty(), "specs/{name}.adt: {warnings:?}");
    }
}

#[test]
fn every_shipped_spec_is_consistent() {
    for (name, _) in sources::all() {
        let spec = sources::load(name).unwrap();
        let report = consistency(&spec);
        assert!(
            report.is_consistent(),
            "specs/{name}.adt: {}",
            report.summary()
        );
    }
}
