//! Executable companion to `docs/TUTORIAL.md`: every step of the Bag
//! walkthrough, run for real so the tutorial cannot rot.

use std::collections::HashMap;

use adt_check::{check_completeness_session, check_consistency_session, CheckConfig, ProbeConfig};
use adt_core::Session;
use adt_rewrite::SymbolicSession;
use adt_verify::{check_axioms, AxiomCheckConfig, MValue, ModelBuilder};

const BAG_SPEC: &str = r#"
type Bag
param Elem

ops
  EMPTYBAG: -> Bag ctor
  PUT:      Bag, Elem -> Bag ctor
  COUNT:    Bag, Elem -> Nat
  TAKE:     Bag, Elem -> Bag
  SAME?:    Elem, Elem -> Bool
  E1: -> Elem ctor
  E2: -> Elem ctor

vars
  b: Bag
  e, e1: Elem

axioms
  [same_00] SAME?(E1, E1) = true
  [same_01] SAME?(E1, E2) = false
  [same_10] SAME?(E2, E1) = false
  [same_11] SAME?(E2, E2) = true
  [c1] COUNT(EMPTYBAG, e) = ZERO
  [c2] COUNT(PUT(b, e), e1) =
         if SAME?(e, e1) then SUCC(COUNT(b, e1)) else COUNT(b, e1)
  [t1] TAKE(EMPTYBAG, e) = EMPTYBAG
  [t2] TAKE(PUT(b, e), e1) =
         if SAME?(e, e1) then b else PUT(TAKE(b, e1), e)
end

type Nat
ops
  ZERO: -> Nat ctor
  SUCC: Nat -> Nat ctor
end
"#;

#[test]
fn step_1_and_2_specify_and_check() {
    let spec = adt_dsl::parse(BAG_SPEC).unwrap();
    assert_eq!(spec.name(), "Bag");
    let session = Session::new(spec.clone());
    let config = CheckConfig::default();
    let completeness = check_completeness_session(&session, &config);
    assert!(
        completeness.is_sufficiently_complete(),
        "{}",
        completeness.prompts()
    );
    assert!(check_consistency_session(&session, &ProbeConfig::default(), &config).is_consistent());
}

#[test]
fn dropping_c2_prompts_as_the_tutorial_says() {
    let without_c2: String = BAG_SPEC
        .lines()
        .filter(|l| !l.contains("[c2]") && !l.contains("if SAME?(e, e1) then SUCC"))
        .collect::<Vec<_>>()
        .join("\n");
    let spec = adt_dsl::parse(&without_c2).unwrap();
    let report = check_completeness_session(&Session::new(spec), &CheckConfig::default());
    assert!(!report.is_sufficiently_complete());
    assert!(
        report
            .prompts()
            .contains("COUNT(PUT(bag_1, elem_1), elem_2) = ?"),
        "{}",
        report.prompts()
    );
}

#[test]
fn the_rewrap_bug_is_caught_by_consistency() {
    // The tutorial's warning: writing PUT(b, e) instead of
    // PUT(TAKE(b, e1), e) in t2's else-branch is a real bug. It makes
    // TAKE drop nothing in the else case, contradicting … nothing
    // equational directly, but the *value-level* check against a correct
    // implementation catches it immediately.
    let buggy = BAG_SPEC.replace("PUT(TAKE(b, e1), e)", "PUT(b, e)");
    let spec = adt_dsl::parse(&buggy).unwrap();
    // The buggy spec is still complete and consistent as an axiom set —
    // it just specifies a *different* (wrong) TAKE…
    let session = Session::new(spec.clone());
    assert!(
        check_completeness_session(&session, &CheckConfig::default()).is_sufficiently_complete()
    );
    // …which the correct multiset implementation then fails:
    let model = bag_model(&spec);
    let report = check_axioms(&model, &AxiomCheckConfig::default());
    assert!(!report.passed());
    assert!(report.counterexamples.iter().all(|c| c.axiom == "t2"));
}

#[test]
fn step_3_symbolic_execution() {
    let spec = adt_dsl::parse(BAG_SPEC).unwrap();
    let sig = spec.sig();
    let mut session = SymbolicSession::new(&spec);
    session.assign("x", "EMPTYBAG", []).unwrap();
    let e1 = sig.apply("E1", vec![]).unwrap();
    let e2 = sig.apply("E2", vec![]).unwrap();
    session
        .assign("x", "PUT", ["x".into(), e1.clone().into()])
        .unwrap();
    session.assign("x", "PUT", ["x".into(), e2.into()]).unwrap();
    session
        .assign("x", "PUT", ["x".into(), e1.clone().into()])
        .unwrap();

    let two = sig
        .apply(
            "SUCC",
            vec![sig
                .apply("SUCC", vec![sig.apply("ZERO", vec![]).unwrap()])
                .unwrap()],
        )
        .unwrap();
    let count = session
        .call("COUNT", ["x".into(), e1.clone().into()])
        .unwrap();
    assert_eq!(count, two);

    session
        .assign("x", "TAKE", ["x".into(), e1.clone().into()])
        .unwrap();
    let one = sig
        .apply("SUCC", vec![sig.apply("ZERO", vec![]).unwrap()])
        .unwrap();
    let count = session.call("COUNT", ["x".into(), e1.into()]).unwrap();
    assert_eq!(count, one);
}

/// Steps 4 and 5: the multiset-of-counts implementation and its model.
fn bag_model(spec: &adt_core::Spec) -> adt_verify::TableModel<'_> {
    type Counts = HashMap<String, i64>;
    let counts = |v: &MValue| -> Counts { v.downcast::<Counts>().unwrap().clone() };
    ModelBuilder::new(spec)
        .op("EMPTYBAG", |_| MValue::data(Counts::new()))
        .op("PUT", move |args| {
            let mut c = counts(&args[0]);
            *c.entry(args[1].as_str().unwrap().to_owned()).or_insert(0) += 1;
            MValue::data(c)
        })
        .op("COUNT", move |args| {
            MValue::Int(
                *counts(&args[0])
                    .get(args[1].as_str().unwrap())
                    .unwrap_or(&0),
            )
        })
        .op("TAKE", move |args| {
            let mut c = counts(&args[0]);
            if let Some(n) = c.get_mut(args[1].as_str().unwrap()) {
                *n -= 1;
                if *n == 0 {
                    c.remove(args[1].as_str().unwrap());
                }
            }
            MValue::data(c)
        })
        .op("SAME?", |args| {
            MValue::Bool(args[0].as_str() == args[1].as_str())
        })
        .op("ZERO", |_| MValue::Int(0))
        .op("SUCC", |args| MValue::Int(args[0].as_int().unwrap() + 1))
        .op("E1", |_| MValue::Str("E1".into()))
        .op("E2", |_| MValue::Str("E2".into()))
        .eq("Bag", move |a, b| {
            a.downcast::<Counts>() == b.downcast::<Counts>()
        })
        .build()
        .unwrap()
}

#[test]
fn step_5_the_implementation_satisfies_the_axioms() {
    let spec = adt_dsl::parse(BAG_SPEC).unwrap();
    let model = bag_model(&spec);
    let report = check_axioms(&model, &AxiomCheckConfig::default());
    assert!(report.passed(), "{}", report.summary());
    assert!(report.instances_checked > 500);
}
