//! Edge cases of the id matcher, which matches the rule set's `Term`
//! patterns directly against run-arena subject ids and builds contracta
//! from `Term` templates straight into the run arena.
//!
//! Every case is checked three ways: the id engine's normal form equals
//! the `normalize_reference` tree-walker's, the traced run reaches the
//! same normal form, and the traced rule labels are pinned.

use adt_core::{Spec, SpecBuilder, Term};
use adt_rewrite::{Rewriter, Rule};

/// Normalizes `term` with both engines and traced, asserts the three
/// normal forms agree, and returns the normal form with the full label
/// sequence of the trace (built-in steps included).
fn run(rw: &Rewriter<'_>, term: &Term) -> (Term, Vec<String>) {
    let fast = rw.normalize_full(term).unwrap();
    let reference = rw.normalize_reference(term).unwrap();
    assert_eq!(fast.term, reference.term, "id engine vs reference");
    assert!(
        fast.steps <= reference.steps,
        "the id engine never takes more steps"
    );
    let (traced, trace) = rw.normalize_traced(term).unwrap();
    assert_eq!(traced, fast.term, "traced vs untraced");
    assert_eq!(
        trace.len() as u64,
        fast.steps,
        "one trace step per counted step"
    );
    let labels = trace.steps().iter().map(|s| s.rule.clone()).collect();
    (fast.term, labels)
}

fn app(spec: &Spec, name: &str, args: Vec<Term>) -> Term {
    spec.sig().apply(name, args).unwrap()
}

fn c(spec: &Spec, name: &str) -> Term {
    app(spec, name, vec![])
}

fn var(spec: &Spec, name: &str) -> Term {
    Term::Var(spec.sig().find_var(name).unwrap())
}

/// `S ::= A | B | C | W(S)`, with a nonlinear equality and a nonlinear
/// `PICK`, an identity, a guarded operation whose template holds `error`
/// and a conditional, and a three-argument operation whose first rule
/// fails after binding.
fn edge_spec() -> Spec {
    let mut b = SpecBuilder::new("Edges");
    let s = b.sort("S");
    let a = b.ctor("A", [], s);
    let bb = b.ctor("B", [], s);
    let cc = b.ctor("C", [], s);
    let w = b.ctor("W", [s], s);
    let eq = b.op("EQ", [s, s], b.bool_sort());
    let id = b.op("ID", [s], s);
    let is_a = b.op("IS_A?", [s], b.bool_sort());
    let unwrap = b.op("UNWRAP", [s], s);
    let guard = b.op("GUARD", [s], s);
    let poison = b.op("POISON", [s], s);
    let f = b.op("F", [s, s, s], b.bool_sort());
    let pick = b.op("PICK", [s, s], s);
    let p = b.op("P", [s], s);
    let x = Term::Var(b.var("x", s));
    let y = Term::Var(b.var("y", s));
    let z = Term::Var(b.var("z", s));
    b.var("u", s);
    let tt = b.tt();
    let ff = b.ff();
    // Nonlinear: the second occurrence of x is checked by id equality.
    b.axiom("eq-same", b.app(eq, [x.clone(), x.clone()]), tt.clone());
    b.axiom("eq-diff", b.app(eq, [x.clone(), y.clone()]), ff.clone());
    b.axiom("id", b.app(id, [x.clone()]), x.clone());
    b.axiom("is-a", b.app(is_a, [b.app(a, [])]), tt);
    b.axiom("is-b", b.app(is_a, [b.app(bb, [])]), ff.clone());
    b.axiom("is-c", b.app(is_a, [b.app(cc, [])]), ff.clone());
    b.axiom("is-w", b.app(is_a, [b.app(w, [x.clone()])]), ff);
    b.axiom(
        "unwrap-w",
        b.app(unwrap, [b.app(w, [x.clone()])]),
        x.clone(),
    );
    b.axiom("unwrap-a", b.app(unwrap, [b.app(a, [])]), Term::Error(s));
    // `error` and a conditional inside a template, around bound variables.
    b.axiom(
        "guard",
        b.app(guard, [x.clone()]),
        Term::ite(
            b.app(is_a, [x.clone()]),
            Term::Error(s),
            b.app(w, [b.app(unwrap, [b.app(w, [x.clone()])])]),
        ),
    );
    // Strictness inside a template: W(error) is error.
    b.axiom(
        "poison",
        b.app(poison, [x.clone()]),
        b.app(w, [Term::Error(s)]),
    );
    // First rule binds x and y, then fails on the third argument; the
    // second reuses the names at other positions, so a stale binding
    // from the failed attempt would wrongly block it.
    b.axiom(
        "f-partial",
        b.app(f, [x.clone(), b.app(w, [y.clone()]), b.app(bb, [])]),
        b.app(is_a, [x.clone()]),
    );
    b.axiom(
        "f-general",
        b.app(f, [y.clone(), x.clone(), z]),
        b.app(eq, [x.clone(), y]),
    );
    b.axiom("pick-same", b.app(pick, [x.clone(), x.clone()]), x);
    b.axiom("p-c", b.app(p, [b.app(cc, [])]), b.app(cc, []));
    b.build().unwrap()
}

fn labels(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn nonlinear_patterns_compare_bindings_by_id() {
    let spec = edge_spec();
    let rw = Rewriter::new(&spec);
    let (a, b) = (c(&spec, "A"), c(&spec, "B"));
    let tt = spec.sig().tt();
    let ff = spec.sig().ff();

    let (nf, used) = run(&rw, &app(&spec, "EQ", vec![a.clone(), a.clone()]));
    assert_eq!((nf, used), (tt.clone(), labels(&["eq-same"])));
    let (nf, used) = run(&rw, &app(&spec, "EQ", vec![a.clone(), b.clone()]));
    assert_eq!((nf, used), (ff.clone(), labels(&["eq-diff"])));

    // Equal arguments reached by different routes share one id.
    let wrapped = app(&spec, "W", vec![a.clone()]);
    let via_id = app(&spec, "ID", vec![wrapped.clone()]);
    let (nf, used) = run(&rw, &app(&spec, "EQ", vec![via_id, wrapped.clone()]));
    assert_eq!((nf, used), (tt.clone(), labels(&["id", "eq-same"])));
    // Unequal at depth: W(A) vs W(B).
    let wb = app(&spec, "W", vec![b]);
    let (nf, used) = run(&rw, &app(&spec, "EQ", vec![wrapped, wb]));
    assert_eq!((nf, used), (ff, labels(&["eq-diff"])));

    // Symbolic subjects: one variable twice matches, two do not.
    let (x, y) = (var(&spec, "x"), var(&spec, "y"));
    let (nf, _) = run(&rw, &app(&spec, "EQ", vec![x.clone(), x.clone()]));
    assert_eq!(nf, tt);
    let (nf, _) = run(&rw, &app(&spec, "EQ", vec![x, y]));
    assert_eq!(nf, spec.sig().ff());
}

#[test]
fn unbound_template_variables_instantiate_to_themselves() {
    let spec = edge_spec();
    let mut rw = Rewriter::new(&spec);
    // An induction-hypothesis-style rule: `u` occurs on the right only.
    let (u, cst) = (var(&spec, "u"), c(&spec, "C"));
    rw.add_rule(Rule::new(
        "ih",
        app(&spec, "P", vec![c(&spec, "A")]),
        app(&spec, "W", vec![app(&spec, "P", vec![u.clone()])]),
    ));
    // A second added rule whose template mixes a bound and an unbound
    // variable.
    let x = var(&spec, "x");
    rw.add_rule(Rule::new(
        "ih2",
        app(&spec, "P", vec![app(&spec, "W", vec![x.clone()])]),
        app(&spec, "PICK", vec![x, u.clone()]),
    ));

    let (nf, used) = run(&rw, &app(&spec, "P", vec![c(&spec, "A")]));
    assert_eq!(nf, app(&spec, "W", vec![app(&spec, "P", vec![u.clone()])]));
    assert_eq!(used, labels(&["ih"]));

    let (nf, used) = run(
        &rw,
        &app(&spec, "P", vec![app(&spec, "W", vec![cst.clone()])]),
    );
    assert_eq!(nf, app(&spec, "PICK", vec![cst.clone(), u.clone()]));
    assert_eq!(used, labels(&["ih2"]));

    // The spec's own rule for the head still fires first where it matches.
    let (nf, used) = run(&rw, &app(&spec, "P", vec![cst.clone()]));
    assert_eq!((nf, used), (cst, labels(&["p-c"])));

    // The unbound variable meets its own occurrence in the subject:
    // PICK(u, u) after instantiation is decided by the nonlinear rule.
    let (nf, used) = run(
        &rw,
        &app(&spec, "P", vec![app(&spec, "W", vec![u.clone()])]),
    );
    assert_eq!((nf, used), (u, labels(&["ih2", "pick-same"])));
}

#[test]
fn error_and_conditionals_inside_templates() {
    let spec = edge_spec();
    let rw = Rewriter::new(&spec);
    let s = spec.sig().find_sort("S").unwrap();
    let (a, b) = (c(&spec, "A"), c(&spec, "B"));

    // GUARD(A): the template's condition is true, its error branch taken.
    let (nf, used) = run(&rw, &app(&spec, "GUARD", vec![a]));
    assert_eq!(
        (nf, used),
        (Term::Error(s), labels(&["guard", "is-a", "if-true"]))
    );

    // GUARD(B): the else branch, which rewrites inside the template.
    let (nf, used) = run(&rw, &app(&spec, "GUARD", vec![b.clone()]));
    assert_eq!(nf, app(&spec, "W", vec![b]));
    assert_eq!(used, labels(&["guard", "is-b", "if-false", "unwrap-w"]));

    // GUARD(x): the condition is stuck; branches normalize under it.
    let x = var(&spec, "x");
    let (nf, used) = run(&rw, &app(&spec, "GUARD", vec![x.clone()]));
    let expected = Term::ite(
        app(&spec, "IS_A?", vec![x.clone()]),
        Term::Error(s),
        app(&spec, "W", vec![x.clone()]),
    );
    assert_eq!(nf, expected);
    assert_eq!(used, labels(&["guard", "unwrap-w"]));

    // A template that is strict in an `error` argument.
    let (nf, used) = run(&rw, &app(&spec, "POISON", vec![x]));
    assert_eq!((nf, used), (Term::Error(s), labels(&["poison", "strict"])));

    // An `error` right-hand side propagating outward.
    let nested = app(&spec, "W", vec![app(&spec, "UNWRAP", vec![c(&spec, "A")])]);
    let (nf, used) = run(&rw, &nested);
    assert_eq!(
        (nf, used),
        (Term::Error(s), labels(&["unwrap-a", "strict"]))
    );
}

#[test]
fn a_rule_failing_partway_through_binding_leaves_no_bindings_behind() {
    let spec = edge_spec();
    let rw = Rewriter::new(&spec);
    let (a, b, cst) = (c(&spec, "A"), c(&spec, "B"), c(&spec, "C"));
    let wb = app(&spec, "W", vec![b.clone()]);

    // F(A, W(B), B): the first rule matches in full.
    let (nf, used) = run(&rw, &app(&spec, "F", vec![a.clone(), wb.clone(), b]));
    assert_eq!(
        (nf, used),
        (spec.sig().tt(), labels(&["f-partial", "is-a"]))
    );

    // F(A, W(B), A): the first rule binds x := A and y := B, then fails
    // on the third argument. The second rule binds y := A, x := W(B):
    // a leftover x := A would block it.
    let (nf, used) = run(
        &rw,
        &app(&spec, "F", vec![a.clone(), wb.clone(), a.clone()]),
    );
    assert_eq!(nf, spec.sig().ff());
    assert_eq!(used, labels(&["f-general", "eq-diff"]));

    // F(W(B), W(B), C): the leftover would be x := W(B), which happens
    // to agree with the second rule's x; the result must still come from
    // the second rule's own bindings: EQ(W(B), W(B)) = true.
    let (nf, used) = run(&rw, &app(&spec, "F", vec![wb.clone(), wb, cst]));
    assert_eq!(nf, spec.sig().tt());
    assert_eq!(used, labels(&["f-general", "eq-same"]));
}
