//! The Stack of §4 (axioms 10–16).

use adt_core::{Spec, SpecBuilder, Term};

/// Builds the Stack specification of §4 (axioms 10–16), with the element
/// parameter sort `Elem` instantiated by two constants.
///
/// In the paper the stack holds Arrays; the specification itself is a
/// schema over any element type, so the standalone version uses a neutral
/// parameter. `REPLACE` is the paper's derived operation (axiom 16):
/// `REPLACE(stk, e) = if IS_NEWSTACK?(stk) then error else PUSH(POP(stk), e)`.
pub fn stack_spec() -> Spec {
    let mut b = SpecBuilder::new("Stack");
    let stack = b.sort("Stack");
    let elem = b.param_sort("Elem");
    for c in ["E1", "E2"] {
        b.ctor(c, [], elem);
    }
    let newstack = b.ctor("NEWSTACK", [], stack);
    let push = b.ctor("PUSH", [stack, elem], stack);
    let pop = b.op("POP", [stack], stack);
    let top = b.op("TOP", [stack], elem);
    let is_new = b.op("IS_NEWSTACK?", [stack], b.bool_sort());
    let replace = b.op("REPLACE", [stack, elem], stack);
    let stk = Term::Var(b.var("stk", stack));
    let e = Term::Var(b.var("e", elem));
    let tt = b.tt();
    let ff = b.ff();

    b.axiom("10", b.app(is_new, [b.app(newstack, [])]), tt);
    b.axiom(
        "11",
        b.app(is_new, [b.app(push, [stk.clone(), e.clone()])]),
        ff,
    );
    b.axiom("12", b.app(pop, [b.app(newstack, [])]), Term::Error(stack));
    b.axiom(
        "13",
        b.app(pop, [b.app(push, [stk.clone(), e.clone()])]),
        stk.clone(),
    );
    b.axiom("14", b.app(top, [b.app(newstack, [])]), Term::Error(elem));
    b.axiom(
        "15",
        b.app(top, [b.app(push, [stk.clone(), e.clone()])]),
        e.clone(),
    );
    b.axiom(
        "16",
        b.app(replace, [stk.clone(), e.clone()]),
        Term::ite(
            b.app(is_new, [stk.clone()]),
            Term::Error(stack),
            b.app(push, [b.app(pop, [stk]), e]),
        ),
    );
    b.build().expect("the Stack specification is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_check::{
        check_completeness_session, check_consistency_session, CheckConfig, ProbeConfig,
    };
    use adt_core::Session;
    use adt_rewrite::Rewriter;

    #[test]
    fn stack_spec_checks() {
        let spec = stack_spec();
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
    fn lifo_order_is_derivable() {
        let spec = stack_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let e1 = sig.apply("E1", vec![]).unwrap();
        let e2 = sig.apply("E2", vec![]).unwrap();
        let s = sig
            .apply(
                "PUSH",
                vec![
                    sig.apply(
                        "PUSH",
                        vec![sig.apply("NEWSTACK", vec![]).unwrap(), e1.clone()],
                    )
                    .unwrap(),
                    e2.clone(),
                ],
            )
            .unwrap();
        let top = rw
            .normalize(&sig.apply("TOP", vec![s.clone()]).unwrap())
            .unwrap();
        assert_eq!(top, e2);
        let popped = rw.normalize(&sig.apply("POP", vec![s]).unwrap()).unwrap();
        let top2 = rw
            .normalize(&sig.apply("TOP", vec![popped]).unwrap())
            .unwrap();
        assert_eq!(top2, e1);
    }

    #[test]
    fn replace_swaps_the_top_and_errors_on_empty() {
        let spec = stack_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let stack = sig.find_sort("Stack").unwrap();
        let e1 = sig.apply("E1", vec![]).unwrap();
        let e2 = sig.apply("E2", vec![]).unwrap();
        let new = sig.apply("NEWSTACK", vec![]).unwrap();
        // REPLACE(PUSH(NEWSTACK, E1), E2) = PUSH(NEWSTACK, E2).
        let one = sig.apply("PUSH", vec![new.clone(), e1]).unwrap();
        let replaced = rw
            .normalize(&sig.apply("REPLACE", vec![one, e2.clone()]).unwrap())
            .unwrap();
        let expected = sig.apply("PUSH", vec![new.clone(), e2.clone()]).unwrap();
        assert_eq!(replaced, expected);
        // REPLACE(NEWSTACK, E2) = error.
        let on_empty = rw
            .normalize(&sig.apply("REPLACE", vec![new, e2]).unwrap())
            .unwrap();
        assert_eq!(on_empty, Term::Error(stack));
    }

    #[test]
    fn boundary_conditions_error() {
        let spec = stack_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let stack = sig.find_sort("Stack").unwrap();
        let elem = sig.find_sort("Elem").unwrap();
        let new = sig.apply("NEWSTACK", vec![]).unwrap();
        assert_eq!(
            rw.normalize(&sig.apply("POP", vec![new.clone()]).unwrap())
                .unwrap(),
            Term::Error(stack)
        );
        assert_eq!(
            rw.normalize(&sig.apply("TOP", vec![new]).unwrap()).unwrap(),
            Term::Error(elem)
        );
    }
}
