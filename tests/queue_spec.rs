//! EX-1: the Queue of §3, end to end — the `.adt` source parses, the
//! specification is sufficiently complete and consistent, FIFO behaviour
//! (including the boundary conditions) is derivable by rewriting, and the
//! paper's program segments run in the symbolic interpreter.

use adt_check::{check_completeness_session, check_consistency_session, CheckConfig, ProbeConfig};
use adt_core::{Session, Term};
use adt_rewrite::{Rewriter, SymbolicSession};
use adt_structures::sources;

#[test]
fn queue_source_file_checks_out() {
    let spec = sources::load("queue").unwrap();
    let session = Session::new(spec.clone());
    let config = CheckConfig::default();
    let completeness = check_completeness_session(&session, &config);
    assert!(
        completeness.is_sufficiently_complete(),
        "{}",
        completeness.prompts()
    );
    let consistency = check_consistency_session(&session, &ProbeConfig::default(), &config);
    assert!(consistency.is_consistent(), "{}", consistency.summary());
    assert_eq!(spec.axioms().len(), 6);
}

#[test]
fn the_derivation_of_front_uses_the_expected_axioms() {
    let spec = sources::load("queue").unwrap();
    let rw = Rewriter::new(&spec);
    let sig = spec.sig();
    // FRONT(ADD(ADD(NEW, A), B)): axiom 4 twice would be wrong — the
    // trace must show 4, then 2 (deciding IS_EMPTY?), then 4 again on the
    // inner queue, then 1.
    let t = sig
        .apply(
            "FRONT",
            vec![sig
                .apply(
                    "ADD",
                    vec![
                        sig.apply(
                            "ADD",
                            vec![
                                sig.apply("NEW", vec![]).unwrap(),
                                sig.apply("A", vec![]).unwrap(),
                            ],
                        )
                        .unwrap(),
                        sig.apply("B", vec![]).unwrap(),
                    ],
                )
                .unwrap()],
        )
        .unwrap();
    let (nf, trace) = rw.normalize_traced(&t).unwrap();
    assert_eq!(nf, sig.apply("A", vec![]).unwrap());
    assert_eq!(trace.axioms_used(), vec!["4", "2", "4", "1"]);
    // The rendered derivation looks like the paper's hand calculations.
    let rendered = trace.render(sig).to_string();
    assert!(rendered.starts_with("FRONT(ADD(ADD(NEW, A), B))"));
}

#[test]
fn queue_and_stack_signatures_are_isomorphic_but_axioms_differ() {
    // §2: "The domain and range specifications for these two types are
    // isomorphic" — only the axioms distinguish Queue from Stack. Check
    // the isomorphism mechanically on arities.
    let queue = sources::load("queue").unwrap();
    let stack = sources::load("stack").unwrap();
    let shape = |spec: &adt_core::Spec, names: [&str; 5]| -> Vec<(usize, bool)> {
        names
            .iter()
            .map(|n| {
                let op = spec.sig().find_op(n).unwrap();
                (
                    spec.sig().op(op).arity(),
                    spec.sig().op(op).is_constructor(),
                )
            })
            .collect()
    };
    let queue_shape = shape(&queue, ["NEW", "ADD", "FRONT", "REMOVE", "IS_EMPTY?"]);
    let stack_shape = shape(&stack, ["NEWSTACK", "PUSH", "TOP", "POP", "IS_NEWSTACK?"]);
    assert_eq!(queue_shape, stack_shape);

    // And the behavioural difference: after inserting A then B, Queue's
    // observer yields A (first in) where Stack's yields B (last in).
    let rwq = Rewriter::new(&queue);
    let a_q = {
        let sig = queue.sig();
        let two = sig
            .apply(
                "ADD",
                vec![
                    sig.apply(
                        "ADD",
                        vec![
                            sig.apply("NEW", vec![]).unwrap(),
                            sig.apply("A", vec![]).unwrap(),
                        ],
                    )
                    .unwrap(),
                    sig.apply("B", vec![]).unwrap(),
                ],
            )
            .unwrap();
        rwq.normalize(&sig.apply("FRONT", vec![two]).unwrap())
            .unwrap()
    };
    assert_eq!(a_q, queue.sig().apply("A", vec![]).unwrap());

    let rws = Rewriter::new(&stack);
    let b_s = {
        let sig = stack.sig();
        let two = sig
            .apply(
                "PUSH",
                vec![
                    sig.apply(
                        "PUSH",
                        vec![
                            sig.apply("NEWSTACK", vec![]).unwrap(),
                            sig.apply("E1", vec![]).unwrap(),
                        ],
                    )
                    .unwrap(),
                    sig.apply("E2", vec![]).unwrap(),
                ],
            )
            .unwrap();
        rws.normalize(&sig.apply("TOP", vec![two]).unwrap())
            .unwrap()
    };
    assert_eq!(b_s, stack.sig().apply("E2", vec![]).unwrap());
}

#[test]
fn symbolic_interpretation_runs_queue_programs() {
    let spec = sources::load("queue").unwrap();
    let mut session = SymbolicSession::new(&spec);
    let a = spec.sig().apply("A", vec![]).unwrap();
    let b = spec.sig().apply("B", vec![]).unwrap();
    let c = spec.sig().apply("C", vec![]).unwrap();

    session.assign("x", "NEW", []).unwrap();
    session.assign("x", "ADD", ["x".into(), a.into()]).unwrap();
    session.assign("x", "ADD", ["x".into(), b.into()]).unwrap();
    session.assign("x", "REMOVE", ["x".into()]).unwrap();
    session.assign("x", "ADD", ["x".into(), c.into()]).unwrap();

    // The queue now holds ⟨B, C⟩.
    let front = session.call("FRONT", ["x".into()]).unwrap();
    assert_eq!(front, spec.sig().apply("B", vec![]).unwrap());
    let is_empty = session.call("IS_EMPTY?", ["x".into()]).unwrap();
    assert_eq!(is_empty, spec.sig().ff());

    // Draining past empty flows into the error value, as the axioms say.
    session.assign("x", "REMOVE", ["x".into()]).unwrap();
    session.assign("x", "REMOVE", ["x".into()]).unwrap();
    session.assign("x", "REMOVE", ["x".into()]).unwrap();
    let queue_sort = spec.sig().find_sort("Queue").unwrap();
    assert_eq!(session.get("x").unwrap(), &Term::Error(queue_sort));
}
