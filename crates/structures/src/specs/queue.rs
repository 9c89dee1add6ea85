//! The Queue of §3 (axioms 1–6).

use adt_core::{Spec, SpecBuilder, Term};

/// Builds the Queue specification of §3, with `Item` instantiated by the
/// three constants `A`, `B`, `C`.
///
/// ```text
/// (1) IS_EMPTY?(NEW) = true
/// (2) IS_EMPTY?(ADD(q, i)) = false
/// (3) FRONT(NEW) = error
/// (4) FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
/// (5) REMOVE(NEW) = error
/// (6) REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
/// ```
pub fn queue_spec() -> Spec {
    build(true)
}

/// The same specification with axiom 4 *omitted* — the paper's running
/// example of an insufficiently complete axiom set ("Boundary conditions
/// … are particularly likely to be overlooked"; here it is the general
/// case of `FRONT` that is missing, which the checker must prompt for).
pub fn queue_spec_incomplete() -> Spec {
    build(false)
}

fn build(include_axiom_4: bool) -> Spec {
    let mut b = SpecBuilder::new("Queue");
    let queue = b.sort("Queue");
    let item = b.param_sort("Item");
    let new = b.ctor("NEW", [], queue);
    let add = b.ctor("ADD", [queue, item], queue);
    let front = b.op("FRONT", [queue], item);
    let remove = b.op("REMOVE", [queue], queue);
    let is_empty = b.op("IS_EMPTY?", [queue], b.bool_sort());
    for c in ["A", "B", "C"] {
        b.ctor(c, [], item);
    }
    let q = Term::Var(b.var("q", queue));
    let i = Term::Var(b.var("i", item));
    let tt = b.tt();
    let ff = b.ff();

    b.axiom("1", b.app(is_empty, [b.app(new, [])]), tt);
    b.axiom(
        "2",
        b.app(is_empty, [b.app(add, [q.clone(), i.clone()])]),
        ff,
    );
    b.axiom("3", b.app(front, [b.app(new, [])]), Term::Error(item));
    if include_axiom_4 {
        b.axiom(
            "4",
            b.app(front, [b.app(add, [q.clone(), i.clone()])]),
            Term::ite(
                b.app(is_empty, [q.clone()]),
                i.clone(),
                b.app(front, [q.clone()]),
            ),
        );
    }
    b.axiom("5", b.app(remove, [b.app(new, [])]), Term::Error(queue));
    b.axiom(
        "6",
        b.app(remove, [b.app(add, [q.clone(), i.clone()])]),
        Term::ite(
            b.app(is_empty, [q.clone()]),
            b.app(new, []),
            b.app(add, [b.app(remove, [q]), i]),
        ),
    );
    b.build().expect("the Queue specification is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_check::{
        check_completeness_session, check_consistency_session, CheckConfig, Coverage, ProbeConfig,
    };
    use adt_core::Session;
    use adt_rewrite::Rewriter;

    #[test]
    fn queue_spec_is_sufficiently_complete_and_consistent() {
        let spec = queue_spec();
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
    }

    #[test]
    fn incomplete_variant_is_flagged_on_front_add() {
        let spec = queue_spec_incomplete();
        let report =
            check_completeness_session(&Session::new(spec.clone()), &CheckConfig::default());
        assert!(!report.is_sufficiently_complete());
        let front = spec.sig().find_op("FRONT").unwrap();
        let cov = report.for_op(front).unwrap();
        let Coverage::Missing(cases) = cov.coverage() else {
            panic!("expected a missing case");
        };
        assert_eq!(cases.len(), 1);
        let prompt = report.prompts();
        assert!(prompt.contains("FRONT(ADD("), "{prompt}");
    }

    #[test]
    fn fifo_order_is_derivable() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let new = sig.apply("NEW", vec![]).unwrap();
        let a = sig.apply("A", vec![]).unwrap();
        let b_ = sig.apply("B", vec![]).unwrap();
        let c = sig.apply("C", vec![]).unwrap();
        // Enqueue A, B, C.
        let q3 = sig
            .apply(
                "ADD",
                vec![
                    sig.apply(
                        "ADD",
                        vec![sig.apply("ADD", vec![new, a.clone()]).unwrap(), b_.clone()],
                    )
                    .unwrap(),
                    c.clone(),
                ],
            )
            .unwrap();
        let front = |t: &adt_core::Term| {
            rw.normalize(&sig.apply("FRONT", vec![t.clone()]).unwrap())
                .unwrap()
        };
        let remove = |t: &adt_core::Term| {
            rw.normalize(&sig.apply("REMOVE", vec![t.clone()]).unwrap())
                .unwrap()
        };
        assert_eq!(front(&q3), a);
        let q2 = remove(&q3);
        assert_eq!(front(&q2), b_);
        let q1 = remove(&q2);
        assert_eq!(front(&q1), c);
    }
}
