//! EX-4 and EX-5: the Stack (axioms 10–16) and Array (axioms 17–20)
//! specifications, driven from their `.adt` source files.

use adt_check::{check_completeness_session, check_consistency_session, CheckConfig, ProbeConfig};
use adt_core::{Session, Spec, Term};
use adt_rewrite::Rewriter;
use adt_structures::sources;

fn apply(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
    spec.sig().apply(op, args).unwrap()
}

#[test]
fn stack_source_file_checks_out() {
    let spec = sources::load("stack").unwrap();
    let session = Session::new(spec.clone());
    let config = CheckConfig::default();
    let completeness = check_completeness_session(&session, &config);
    assert!(
        completeness.is_sufficiently_complete(),
        "{}",
        completeness.prompts()
    );
    assert!(check_consistency_session(&session, &ProbeConfig::default(), &config).is_consistent());
    assert_eq!(spec.axioms().len(), 7); // 10–16
}

#[test]
fn array_source_file_checks_out() {
    let spec = sources::load("array").unwrap();
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
fn replace_is_derivable_not_primitive() {
    // Axiom 16 defines REPLACE in terms of PUSH and POP — a derived
    // operation. Schematically: REPLACE(PUSH(stk, e), e1) = PUSH(stk, e1).
    let spec = sources::load("stack").unwrap();
    let rw = Rewriter::new(&spec);
    let sig = spec.sig();
    let stk = Term::Var(sig.find_var("stk").unwrap());
    let e = Term::Var(sig.find_var("e").unwrap());
    let e2 = apply(&spec, "E2", vec![]);
    let lhs = apply(
        &spec,
        "REPLACE",
        vec![apply(&spec, "PUSH", vec![stk.clone(), e]), e2.clone()],
    );
    let rhs = apply(&spec, "PUSH", vec![stk, e2]);
    assert!(rw.prove_equal(&lhs, &rhs, 4).unwrap().is_proved());
}

#[test]
fn array_shadowing_chain_resolves_through_issame() {
    // READ walks the ASSIGN chain comparing identifiers: a three-deep
    // chain with interleaved identifiers reads back correctly, and the
    // derivation uses axiom 20 once per skipped binding.
    let spec = sources::load("array").unwrap();
    let rw = Rewriter::new(&spec);
    let x = apply(&spec, "ID_X", vec![]);
    let y = apply(&spec, "ID_Y", vec![]);
    let z = apply(&spec, "ID_Z", vec![]);
    let a1 = apply(&spec, "ATTR_1", vec![]);
    let a2 = apply(&spec, "ATTR_2", vec![]);
    let a3 = apply(&spec, "ATTR_3", vec![]);
    let arr = apply(
        &spec,
        "ASSIGN",
        vec![
            apply(
                &spec,
                "ASSIGN",
                vec![
                    apply(
                        &spec,
                        "ASSIGN",
                        vec![apply(&spec, "EMPTY", vec![]), x.clone(), a1.clone()],
                    ),
                    y,
                    a2,
                ],
            ),
            z,
            a3,
        ],
    );
    let (nf, trace) = rw
        .normalize_traced(&apply(&spec, "READ", vec![arr, x]))
        .unwrap();
    assert_eq!(nf, a1);
    // Two skips (z, y) then the hit on x: axiom 20 three times, with
    // ISSAME? table lookups in between.
    let reads = trace.axioms_used().iter().filter(|l| **l == "20").count();
    assert_eq!(reads, 3);
}

#[test]
fn stack_of_arrays_composes_across_the_specs() {
    // The representation-level file composes the two types exactly as §4
    // does: a stack whose elements are arrays.
    let spec = sources::load("symboltable_rep").unwrap();
    let rw = Rewriter::new(&spec);
    let x = apply(&spec, "ID_X", vec![]);
    let a1 = apply(&spec, "ATTR_1", vec![]);
    // TOP(PUSH(NEWSTACK, ASSIGN(EMPTY, x, a1))) reads back the array.
    let arr = apply(
        &spec,
        "ASSIGN",
        vec![apply(&spec, "EMPTY", vec![]), x.clone(), a1.clone()],
    );
    let stack = apply(
        &spec,
        "PUSH",
        vec![apply(&spec, "NEWSTACK", vec![]), arr.clone()],
    );
    let top = rw.normalize(&apply(&spec, "TOP", vec![stack])).unwrap();
    assert_eq!(top, arr);
    let read = rw.normalize(&apply(&spec, "READ", vec![top, x])).unwrap();
    assert_eq!(read, a1);
}
