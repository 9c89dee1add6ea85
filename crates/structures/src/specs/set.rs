//! Finite sets — a data structure the paper does not develop but whose
//! algebraic specification is the canonical exercise in the tradition
//! the paper founded (and the first type where *constructors are not
//! free*: INSERT is idempotent and commutative up to observation).

use adt_core::{Spec, SpecBuilder, Term};

/// Builds the Set specification:
///
/// ```text
/// MEMBER?(EMPTYSET, e) = false
/// MEMBER?(INSERT(s, e), e1) = if SAME?(e, e1) then true else MEMBER?(s, e1)
/// DELETE(EMPTYSET, e) = EMPTYSET
/// DELETE(INSERT(s, e), e1) = if SAME?(e, e1) then DELETE(s, e1)
///                            else INSERT(DELETE(s, e1), e)
/// IS_EMPTYSET?(EMPTYSET) = true
/// IS_EMPTYSET?(INSERT(s, e)) = false
/// ```
///
/// Note `DELETE` must recurse *past* a match (`DELETE(s, e1)`, not `s`):
/// INSERT chains may contain duplicates, and deletion removes every
/// occurrence — a classic subtlety the completeness/consistency checkers
/// and the model check both guard.
pub fn set_spec() -> Spec {
    let mut b = SpecBuilder::new("Set");
    let set = b.sort("Set");
    let elem = b.param_sort("Elem");
    for c in ["E1", "E2", "E3"] {
        b.ctor(c, [], elem);
    }
    let same = b.op("SAME?", [elem, elem], b.bool_sort());
    // SAME? is the diagonal over the sample elements.
    for (i, a) in ["E1", "E2", "E3"].iter().enumerate() {
        for (j, c) in ["E1", "E2", "E3"].iter().enumerate() {
            let lhs = Term::App(
                same,
                vec![
                    Term::constant(b.sig().find_op(a).expect("declared")),
                    Term::constant(b.sig().find_op(c).expect("declared")),
                ],
            );
            let rhs = if i == j { b.tt() } else { b.ff() };
            b.axiom(format!("same_{i}{j}"), lhs, rhs);
        }
    }

    let empty = b.ctor("EMPTYSET", [], set);
    let insert = b.ctor("INSERT", [set, elem], set);
    let member = b.op("MEMBER?", [set, elem], b.bool_sort());
    let delete = b.op("DELETE", [set, elem], set);
    let is_empty = b.op("IS_EMPTYSET?", [set], b.bool_sort());

    let s = Term::Var(b.var("s", set));
    let e = Term::Var(b.var("e", elem));
    let e1 = Term::Var(b.var("e1", elem));
    let tt = b.tt();
    let ff = b.ff();

    b.axiom(
        "m1",
        b.app(member, [b.app(empty, []), e.clone()]),
        ff.clone(),
    );
    b.axiom(
        "m2",
        b.app(member, [b.app(insert, [s.clone(), e.clone()]), e1.clone()]),
        Term::ite(
            b.app(same, [e.clone(), e1.clone()]),
            b.tt(),
            b.app(member, [s.clone(), e1.clone()]),
        ),
    );
    b.axiom(
        "d1",
        b.app(delete, [b.app(empty, []), e.clone()]),
        b.app(empty, []),
    );
    b.axiom(
        "d2",
        b.app(delete, [b.app(insert, [s.clone(), e.clone()]), e1.clone()]),
        Term::ite(
            b.app(same, [e.clone(), e1.clone()]),
            b.app(delete, [s.clone(), e1.clone()]),
            b.app(insert, [b.app(delete, [s.clone(), e1.clone()]), e.clone()]),
        ),
    );
    b.axiom("e1_", b.app(is_empty, [b.app(empty, [])]), tt);
    b.axiom(
        "e2_",
        b.app(is_empty, [b.app(insert, [s.clone(), e.clone()])]),
        ff,
    );

    b.build().expect("the Set specification is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_check::{
        check_completeness_session, check_consistency_session, CheckConfig, ProbeConfig,
    };
    use adt_core::Session;
    use adt_rewrite::Rewriter;

    fn apply(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
        spec.sig().apply(op, args).unwrap()
    }

    #[test]
    fn set_spec_checks() {
        let spec = set_spec();
        let session = Session::new(spec.clone());
        let config = CheckConfig::default();
        let completeness = check_completeness_session(&session, &config);
        assert!(
            completeness.is_sufficiently_complete(),
            "{}",
            completeness.prompts()
        );
        assert!(
            check_consistency_session(&session, &ProbeConfig::default(), &config).is_consistent()
        );
    }

    #[test]
    fn membership_and_deletion_compute() {
        let spec = set_spec();
        let rw = Rewriter::new(&spec);
        let e1 = apply(&spec, "E1", vec![]);
        let e2 = apply(&spec, "E2", vec![]);
        // {E1, E2, E1} (duplicate insert)
        let s = apply(
            &spec,
            "INSERT",
            vec![
                apply(
                    &spec,
                    "INSERT",
                    vec![
                        apply(
                            &spec,
                            "INSERT",
                            vec![apply(&spec, "EMPTYSET", vec![]), e1.clone()],
                        ),
                        e2.clone(),
                    ],
                ),
                e1.clone(),
            ],
        );
        let member = |s: &Term, e: &Term| {
            rw.normalize(&apply(&spec, "MEMBER?", vec![s.clone(), e.clone()]))
                .unwrap()
        };
        assert_eq!(member(&s, &e1), spec.sig().tt());
        assert_eq!(member(&s, &e2), spec.sig().tt());
        // Deleting E1 removes BOTH occurrences.
        let without = rw
            .normalize(&apply(&spec, "DELETE", vec![s, e1.clone()]))
            .unwrap();
        assert_eq!(member(&without, &e1), spec.sig().ff());
        assert_eq!(member(&without, &e2), spec.sig().tt());
    }

    #[test]
    fn delete_on_empty_is_empty_not_error() {
        // Unlike Queue/Stack, deletion from the empty set is benign.
        let spec = set_spec();
        let rw = Rewriter::new(&spec);
        let e1 = apply(&spec, "E1", vec![]);
        let empty = apply(&spec, "EMPTYSET", vec![]);
        let nf = rw
            .normalize(&apply(&spec, "DELETE", vec![empty.clone(), e1]))
            .unwrap();
        assert_eq!(nf, empty);
    }
}
