//! The representation level of §4: Symboltable as a Stack of Arrays.
//!
//! One combined specification holds everything the paper's proof needs:
//!
//! * the concrete types **Stack** (of Arrays, axioms 10–16) and **Array**
//!   (axioms 17–20);
//! * the **primed operations** `INIT'`, `ENTERBLOCK'`, `LEAVEBLOCK'`,
//!   `ADD'`, `IS_INBLOCK'?`, `RETRIEVE'` — the implementation of the
//!   abstract operations as "code" over Stack and Array;
//! * the **abstract sort** `Symboltable` with its constructors, as the
//!   target of the abstraction function **Φ** (`PHI`), defined by the
//!   paper's clauses (a)–(d).
//!
//! The recursive primed operations are written case-by-constructor rather
//! than with an internal `IS_NEWSTACK?` test (the two are equivalent;
//! pattern form keeps symbolic rewriting terminating). `IS_INBLOCK'?`
//! returns `¬IS_UNDEFINED?(TOP(stk), id)` via a conditional, since the
//! algebra has no primitive negation.

use adt_core::{Spec, SpecBuilder, Term};
use adt_verify::OpMap;

use super::{install_attribute_lists, install_identifiers};

/// The operation/sort map from the abstract Symboltable specification
/// ([`super::symboltable_spec`]) into [`symtab_rep_spec`].
pub fn symtab_rep_op_map() -> OpMap {
    OpMap::new()
        .sort("Symboltable", "Stack")
        .op("INIT", "INIT'")
        .op("ENTERBLOCK", "ENTERBLOCK'")
        .op("LEAVEBLOCK", "LEAVEBLOCK'")
        .op("ADD", "ADD'")
        .op("IS_INBLOCK?", "IS_INBLOCK'?")
        .op("RETRIEVE", "RETRIEVE'")
}

/// Builds the combined representation-level specification.
pub fn symtab_rep_spec() -> Spec {
    let mut b = SpecBuilder::new("SymboltableRep");
    let stack = b.sort("Stack");
    let array = b.sort("Array");
    let st = b.sort("Symboltable"); // abstract level, the range of Φ
    let ident = install_identifiers(&mut b);
    let attrs_sort = install_attribute_lists(&mut b);
    let issame = b.sig().find_op("ISSAME?").expect("installed above");

    // ----- Stack of Arrays (axioms 10–16) -----
    let newstack = b.ctor("NEWSTACK", [], stack);
    let push = b.ctor("PUSH", [stack, array], stack);
    let pop = b.op("POP", [stack], stack);
    let top = b.op("TOP", [stack], array);
    let is_new = b.op("IS_NEWSTACK?", [stack], b.bool_sort());
    let replace = b.op("REPLACE", [stack, array], stack);

    // ----- Array (axioms 17–20) -----
    let empty = b.ctor("EMPTY", [], array);
    let assign = b.ctor("ASSIGN", [array, ident, attrs_sort], array);
    let read = b.op("READ", [array, ident], attrs_sort);
    let is_undef = b.op("IS_UNDEFINED?", [array, ident], b.bool_sort());

    // ----- Abstract Symboltable constructors (the range of Φ) -----
    let init_abs = b.ctor("INIT", [], st);
    let enter_abs = b.ctor("ENTERBLOCK", [st], st);
    let add_abs = b.ctor("ADD", [st, ident, attrs_sort], st);

    // ----- Primed operations -----
    let init_p = b.op("INIT'", [], stack);
    let enter_p = b.op("ENTERBLOCK'", [stack], stack);
    let leave_p = b.op("LEAVEBLOCK'", [stack], stack);
    let add_p = b.op("ADD'", [stack, ident, attrs_sort], stack);
    let inblock_p = b.op("IS_INBLOCK'?", [stack, ident], b.bool_sort());
    let retrieve_p = b.op("RETRIEVE'", [stack, ident], attrs_sort);

    // ----- Φ -----
    let phi = b.op("PHI", [stack], st);

    let stk = Term::Var(b.var("stk", stack));
    let arr = Term::Var(b.var("arr", array));
    let id = Term::Var(b.var("id", ident));
    let id1 = Term::Var(b.var("id1", ident));
    let attrs = Term::Var(b.var("attrs", attrs_sort));
    let tt = b.tt();
    let ff = b.ff();

    // Stack axioms.
    b.axiom("10", b.app(is_new, [b.app(newstack, [])]), tt.clone());
    b.axiom(
        "11",
        b.app(is_new, [b.app(push, [stk.clone(), arr.clone()])]),
        ff.clone(),
    );
    b.axiom("12", b.app(pop, [b.app(newstack, [])]), Term::Error(stack));
    b.axiom(
        "13",
        b.app(pop, [b.app(push, [stk.clone(), arr.clone()])]),
        stk.clone(),
    );
    b.axiom("14", b.app(top, [b.app(newstack, [])]), Term::Error(array));
    b.axiom(
        "15",
        b.app(top, [b.app(push, [stk.clone(), arr.clone()])]),
        arr.clone(),
    );
    b.axiom(
        "16",
        b.app(replace, [stk.clone(), arr.clone()]),
        Term::ite(
            b.app(is_new, [stk.clone()]),
            Term::Error(stack),
            b.app(push, [b.app(pop, [stk.clone()]), arr.clone()]),
        ),
    );

    // Array axioms.
    b.axiom(
        "17",
        b.app(is_undef, [b.app(empty, []), id.clone()]),
        b.tt(),
    );
    b.axiom(
        "18",
        b.app(
            is_undef,
            [
                b.app(assign, [arr.clone(), id.clone(), attrs.clone()]),
                id1.clone(),
            ],
        ),
        Term::ite(
            b.app(issame, [id.clone(), id1.clone()]),
            b.ff(),
            b.app(is_undef, [arr.clone(), id1.clone()]),
        ),
    );
    b.axiom(
        "19",
        b.app(read, [b.app(empty, []), id.clone()]),
        Term::Error(attrs_sort),
    );
    b.axiom(
        "20",
        b.app(
            read,
            [
                b.app(assign, [arr.clone(), id.clone(), attrs.clone()]),
                id1.clone(),
            ],
        ),
        Term::ite(
            b.app(issame, [id.clone(), id1.clone()]),
            attrs.clone(),
            b.app(read, [arr.clone(), id1.clone()]),
        ),
    );

    // Primed-operation definitions ("the code for each of these functions").
    b.axiom(
        "def_init",
        b.app(init_p, []),
        b.app(push, [b.app(newstack, []), b.app(empty, [])]),
    );
    b.axiom(
        "def_enter",
        b.app(enter_p, [stk.clone()]),
        b.app(push, [stk.clone(), b.app(empty, [])]),
    );
    b.axiom(
        "def_leave_new",
        b.app(leave_p, [b.app(newstack, [])]),
        Term::Error(stack),
    );
    b.axiom(
        "def_leave_push",
        b.app(leave_p, [b.app(push, [stk.clone(), arr.clone()])]),
        Term::ite(
            b.app(is_new, [stk.clone()]),
            Term::Error(stack),
            stk.clone(),
        ),
    );
    b.axiom(
        "def_add",
        b.app(add_p, [stk.clone(), id.clone(), attrs.clone()]),
        b.app(
            replace,
            [
                stk.clone(),
                b.app(
                    assign,
                    [b.app(top, [stk.clone()]), id.clone(), attrs.clone()],
                ),
            ],
        ),
    );
    b.axiom(
        "def_inblock_new",
        b.app(inblock_p, [b.app(newstack, []), id.clone()]),
        Term::Error(b.bool_sort()),
    );
    b.axiom(
        "def_inblock_push",
        b.app(
            inblock_p,
            [b.app(push, [stk.clone(), arr.clone()]), id.clone()],
        ),
        Term::ite(b.app(is_undef, [arr.clone(), id.clone()]), b.ff(), b.tt()),
    );
    b.axiom(
        "def_retrieve_new",
        b.app(retrieve_p, [b.app(newstack, []), id.clone()]),
        Term::Error(attrs_sort),
    );
    b.axiom(
        "def_retrieve_push",
        b.app(
            retrieve_p,
            [b.app(push, [stk.clone(), arr.clone()]), id.clone()],
        ),
        Term::ite(
            b.app(is_undef, [arr.clone(), id.clone()]),
            b.app(retrieve_p, [stk.clone(), id.clone()]),
            b.app(read, [arr.clone(), id.clone()]),
        ),
    );

    // Φ: clauses (a)–(d). (a), Φ(error) = error, is strictness.
    b.axiom("phi_b", b.app(phi, [b.app(newstack, [])]), Term::Error(st));
    b.axiom(
        "phi_c",
        b.app(phi, [b.app(push, [stk.clone(), b.app(empty, [])])]),
        Term::ite(
            b.app(is_new, [stk.clone()]),
            b.app(init_abs, []),
            b.app(enter_abs, [b.app(phi, [stk.clone()])]),
        ),
    );
    b.axiom(
        "phi_d",
        b.app(
            phi,
            [b.app(
                push,
                [
                    stk.clone(),
                    b.app(assign, [arr.clone(), id.clone(), attrs.clone()]),
                ],
            )],
        ),
        b.app(add_abs, [b.app(phi, [b.app(push, [stk, arr])]), id, attrs]),
    );

    b.build()
        .expect("the representation-level specification is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_rewrite::Rewriter;

    fn apply(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
        spec.sig().apply(op, args).unwrap()
    }

    #[test]
    fn the_primed_code_implements_a_symbol_table() {
        let spec = symtab_rep_spec();
        let rw = Rewriter::new(&spec);
        let x = apply(&spec, "ID_X", vec![]);
        let a1 = apply(&spec, "ATTR_1", vec![]);
        let a2 = apply(&spec, "ATTR_2", vec![]);
        // INIT'; ADD'(x, a1); ENTERBLOCK'; ADD'(x, a2).
        let t = apply(
            &spec,
            "ADD'",
            vec![
                apply(
                    &spec,
                    "ENTERBLOCK'",
                    vec![apply(
                        &spec,
                        "ADD'",
                        vec![apply(&spec, "INIT'", vec![]), x.clone(), a1.clone()],
                    )],
                ),
                x.clone(),
                a2.clone(),
            ],
        );
        let got = rw
            .normalize(&apply(&spec, "RETRIEVE'", vec![t.clone(), x.clone()]))
            .unwrap();
        assert_eq!(got, a2);
        // Leave the block: the outer binding reappears.
        let left = apply(&spec, "LEAVEBLOCK'", vec![t.clone()]);
        let got = rw
            .normalize(&apply(&spec, "RETRIEVE'", vec![left, x.clone()]))
            .unwrap();
        assert_eq!(got, a1);
        // IS_INBLOCK'? only sees the innermost array.
        let inblock = rw
            .normalize(&apply(&spec, "IS_INBLOCK'?", vec![t, x]))
            .unwrap();
        assert_eq!(inblock, spec.sig().tt());
    }

    #[test]
    fn phi_abstracts_concrete_stacks_to_symboltable_terms() {
        let spec = symtab_rep_spec();
        let rw = Rewriter::new(&spec);
        let x = apply(&spec, "ID_X", vec![]);
        let a1 = apply(&spec, "ATTR_1", vec![]);
        // Φ(ADD'(ENTERBLOCK'(INIT'), x, a1))
        //   = ADD(ENTERBLOCK(INIT), x, a1).
        let conc = apply(
            &spec,
            "ADD'",
            vec![
                apply(&spec, "ENTERBLOCK'", vec![apply(&spec, "INIT'", vec![])]),
                x.clone(),
                a1.clone(),
            ],
        );
        let abstracted = rw.normalize(&apply(&spec, "PHI", vec![conc])).unwrap();
        let expected = apply(
            &spec,
            "ADD",
            vec![
                apply(&spec, "ENTERBLOCK", vec![apply(&spec, "INIT", vec![])]),
                x,
                a1,
            ],
        );
        assert_eq!(abstracted, expected);
    }

    #[test]
    fn phi_maps_the_empty_stack_to_error() {
        let spec = symtab_rep_spec();
        let rw = Rewriter::new(&spec);
        let st = spec.sig().find_sort("Symboltable").unwrap();
        let nf = rw
            .normalize(&apply(&spec, "PHI", vec![apply(&spec, "NEWSTACK", vec![])]))
            .unwrap();
        assert_eq!(nf, Term::Error(st));
    }

    #[test]
    fn adding_to_the_empty_stack_is_error_without_assumption_1() {
        let spec = symtab_rep_spec();
        let rw = Rewriter::new(&spec);
        let stack = spec.sig().find_sort("Stack").unwrap();
        let x = apply(&spec, "ID_X", vec![]);
        let a1 = apply(&spec, "ATTR_1", vec![]);
        let t = apply(&spec, "ADD'", vec![apply(&spec, "NEWSTACK", vec![]), x, a1]);
        assert_eq!(rw.normalize(&t).unwrap(), Term::Error(stack));
    }

    #[test]
    fn rep_spec_is_consistent() {
        let session = adt_core::Session::new(symtab_rep_spec());
        let probe = adt_check::ProbeConfig::default();
        let report = adt_check::check_consistency_session(
            &session,
            &probe,
            &adt_check::CheckConfig::default(),
        );
        assert!(report.is_consistent(), "{}", report.summary());
    }
}
