//! Lists with append, length and reverse — the "development of data
//! structures" continued past the paper's own examples, and the natural
//! playground for generator induction (§4 cites Wegbreit's term for it).
//!
//! `LENGTH` forces a second defined sort (`Nat` with `PLUS`), making the
//! specification a two-type module like the paper's layered examples.

use adt_core::{Spec, SpecBuilder, Term};

/// Builds the List specification:
///
/// ```text
/// HEAD(NIL) = error                HEAD(CONS(e, l)) = e
/// TAIL(NIL) = error                TAIL(CONS(e, l)) = l
/// IS_NIL?(NIL) = true              IS_NIL?(CONS(e, l)) = false
/// APPEND(NIL, l2) = l2             APPEND(CONS(e, l1), l2) = CONS(e, APPEND(l1, l2))
/// LENGTH(NIL) = ZERO               LENGTH(CONS(e, l)) = SUCC(LENGTH(l))
/// REVERSE(NIL) = NIL               REVERSE(CONS(e, l)) = APPEND(REVERSE(l), CONS(e, NIL))
/// PLUS(ZERO, n) = n                PLUS(SUCC(m), n) = SUCC(PLUS(m, n))
/// ```
pub fn list_spec() -> Spec {
    let mut b = SpecBuilder::new("List");
    let list = b.sort("List");
    let nat = b.sort("Nat");
    let elem = b.param_sort("Elem");
    for c in ["E1", "E2", "E3"] {
        b.ctor(c, [], elem);
    }

    let nil = b.ctor("NIL", [], list);
    let cons = b.ctor("CONS", [elem, list], list);
    let head = b.op("HEAD", [list], elem);
    let tail = b.op("TAIL", [list], list);
    let is_nil = b.op("IS_NIL?", [list], b.bool_sort());
    let append = b.op("APPEND", [list, list], list);
    let length = b.op("LENGTH", [list], nat);
    let reverse = b.op("REVERSE", [list], list);

    let zero = b.ctor("ZERO", [], nat);
    let succ = b.ctor("SUCC", [nat], nat);
    let plus = b.op("PLUS", [nat, nat], nat);

    let e = Term::Var(b.var("e", elem));
    let l = Term::Var(b.var("l", list));
    let l1 = Term::Var(b.var("l1", list));
    let l2 = Term::Var(b.var("l2", list));
    let m = Term::Var(b.var("m", nat));
    let n = Term::Var(b.var("n", nat));
    let tt = b.tt();
    let ff = b.ff();

    b.axiom("h1", b.app(head, [b.app(nil, [])]), Term::Error(elem));
    b.axiom(
        "h2",
        b.app(head, [b.app(cons, [e.clone(), l.clone()])]),
        e.clone(),
    );
    b.axiom("t1", b.app(tail, [b.app(nil, [])]), Term::Error(list));
    b.axiom(
        "t2",
        b.app(tail, [b.app(cons, [e.clone(), l.clone()])]),
        l.clone(),
    );
    b.axiom("n1", b.app(is_nil, [b.app(nil, [])]), tt);
    b.axiom(
        "n2",
        b.app(is_nil, [b.app(cons, [e.clone(), l.clone()])]),
        ff,
    );
    b.axiom(
        "a1",
        b.app(append, [b.app(nil, []), l2.clone()]),
        l2.clone(),
    );
    b.axiom(
        "a2",
        b.app(append, [b.app(cons, [e.clone(), l1.clone()]), l2.clone()]),
        b.app(cons, [e.clone(), b.app(append, [l1.clone(), l2.clone()])]),
    );
    b.axiom("g1", b.app(length, [b.app(nil, [])]), b.app(zero, []));
    b.axiom(
        "g2",
        b.app(length, [b.app(cons, [e.clone(), l.clone()])]),
        b.app(succ, [b.app(length, [l.clone()])]),
    );
    b.axiom("r1", b.app(reverse, [b.app(nil, [])]), b.app(nil, []));
    b.axiom(
        "r2",
        b.app(reverse, [b.app(cons, [e.clone(), l.clone()])]),
        b.app(
            append,
            [
                b.app(reverse, [l.clone()]),
                b.app(cons, [e.clone(), b.app(nil, [])]),
            ],
        ),
    );
    b.axiom("p1", b.app(plus, [b.app(zero, []), n.clone()]), n.clone());
    b.axiom(
        "p2",
        b.app(plus, [b.app(succ, [m.clone()]), n.clone()]),
        b.app(succ, [b.app(plus, [m, n])]),
    );

    b.build().expect("the List specification is well-formed")
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
    fn list_spec_checks() {
        let spec = list_spec();
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
    fn append_length_reverse_compute() {
        let spec = list_spec();
        let rw = Rewriter::new(&spec);
        let e1 = apply(&spec, "E1", vec![]);
        let e2 = apply(&spec, "E2", vec![]);
        let nil = apply(&spec, "NIL", vec![]);
        // [E1, E2]
        let l12 = apply(
            &spec,
            "CONS",
            vec![
                e1.clone(),
                apply(&spec, "CONS", vec![e2.clone(), nil.clone()]),
            ],
        );
        // REVERSE([E1,E2]) = [E2,E1]
        let rev = rw
            .normalize(&apply(&spec, "REVERSE", vec![l12.clone()]))
            .unwrap();
        let l21 = apply(
            &spec,
            "CONS",
            vec![
                e2.clone(),
                apply(&spec, "CONS", vec![e1.clone(), nil.clone()]),
            ],
        );
        assert_eq!(rev, l21);
        // LENGTH(APPEND([E1,E2],[E2,E1])) = 4
        let appended = apply(&spec, "APPEND", vec![l12, l21]);
        let len = rw
            .normalize(&apply(&spec, "LENGTH", vec![appended]))
            .unwrap();
        let four = apply(
            &spec,
            "SUCC",
            vec![apply(
                &spec,
                "SUCC",
                vec![apply(
                    &spec,
                    "SUCC",
                    vec![apply(&spec, "SUCC", vec![apply(&spec, "ZERO", vec![])])],
                )],
            )],
        );
        assert_eq!(len, four);
    }

    #[test]
    fn boundary_conditions_error() {
        let spec = list_spec();
        let rw = Rewriter::new(&spec);
        let nil = apply(&spec, "NIL", vec![]);
        let elem = spec.sig().find_sort("Elem").unwrap();
        let list = spec.sig().find_sort("List").unwrap();
        assert_eq!(
            rw.normalize(&apply(&spec, "HEAD", vec![nil.clone()]))
                .unwrap(),
            Term::Error(elem)
        );
        assert_eq!(
            rw.normalize(&apply(&spec, "TAIL", vec![nil])).unwrap(),
            Term::Error(list)
        );
    }
}
