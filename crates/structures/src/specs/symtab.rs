//! The Symboltable of §4 (axioms 1–9).

use adt_core::{Spec, SpecBuilder, Term};

use super::{install_attribute_lists, install_identifiers};

/// Builds the Symboltable specification of §4:
///
/// ```text
/// (1) LEAVEBLOCK(INIT) = error
/// (2) LEAVEBLOCK(ENTERBLOCK(symtab)) = symtab
/// (3) LEAVEBLOCK(ADD(symtab, id, attrs)) = LEAVEBLOCK(symtab)
/// (4) IS_INBLOCK?(INIT, id) = false
/// (5) IS_INBLOCK?(ENTERBLOCK(symtab), id) = false
/// (6) IS_INBLOCK?(ADD(symtab, id, attrs), id1) =
///       if ISSAME?(id, id1) then true else IS_INBLOCK?(symtab, id1)
/// (7) RETRIEVE(INIT, id) = error
/// (8) RETRIEVE(ENTERBLOCK(symtab), id) = RETRIEVE(symtab, id)
/// (9) RETRIEVE(ADD(symtab, id, attrs), id1) =
///       if ISSAME?(id, id1) then attrs else RETRIEVE(symtab, id1)
/// ```
///
/// "Not only does it define an abstract type that can be used in the
/// specification of various parts of the compiler, but it also provides a
/// complete self-contained specification for a major subsystem of the
/// compiler."
pub fn symboltable_spec() -> Spec {
    let mut b = SpecBuilder::new("Symboltable");
    let st = b.sort("Symboltable");
    let ident = install_identifiers(&mut b);
    let attrs_sort = install_attribute_lists(&mut b);

    let init = b.ctor("INIT", [], st);
    let enter = b.ctor("ENTERBLOCK", [st], st);
    let add = b.ctor("ADD", [st, ident, attrs_sort], st);
    let leave = b.op("LEAVEBLOCK", [st], st);
    let inblock = b.op("IS_INBLOCK?", [st, ident], b.bool_sort());
    let retrieve = b.op("RETRIEVE", [st, ident], attrs_sort);
    let issame = b.sig().find_op("ISSAME?").expect("installed above");

    let s = Term::Var(b.var("symtab", st));
    let id = Term::Var(b.var("id", ident));
    let id1 = Term::Var(b.var("id1", ident));
    let attrs = Term::Var(b.var("attrs", attrs_sort));
    let ff = b.ff();

    b.axiom("1", b.app(leave, [b.app(init, [])]), Term::Error(st));
    b.axiom("2", b.app(leave, [b.app(enter, [s.clone()])]), s.clone());
    b.axiom(
        "3",
        b.app(leave, [b.app(add, [s.clone(), id.clone(), attrs.clone()])]),
        b.app(leave, [s.clone()]),
    );
    b.axiom(
        "4",
        b.app(inblock, [b.app(init, []), id.clone()]),
        ff.clone(),
    );
    b.axiom(
        "5",
        b.app(inblock, [b.app(enter, [s.clone()]), id.clone()]),
        ff,
    );
    b.axiom(
        "6",
        b.app(
            inblock,
            [
                b.app(add, [s.clone(), id.clone(), attrs.clone()]),
                id1.clone(),
            ],
        ),
        Term::ite(
            b.app(issame, [id.clone(), id1.clone()]),
            b.tt(),
            b.app(inblock, [s.clone(), id1.clone()]),
        ),
    );
    b.axiom(
        "7",
        b.app(retrieve, [b.app(init, []), id.clone()]),
        Term::Error(attrs_sort),
    );
    b.axiom(
        "8",
        b.app(retrieve, [b.app(enter, [s.clone()]), id.clone()]),
        b.app(retrieve, [s.clone(), id.clone()]),
    );
    b.axiom(
        "9",
        b.app(
            retrieve,
            [
                b.app(add, [s.clone(), id.clone(), attrs.clone()]),
                id1.clone(),
            ],
        ),
        Term::ite(
            b.app(issame, [id, id1.clone()]),
            attrs,
            b.app(retrieve, [s, id1]),
        ),
    );
    b.build()
        .expect("the Symboltable specification is well-formed")
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
    fn symboltable_spec_checks() {
        let spec = symboltable_spec();
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

    fn sig_apply(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
        spec.sig().apply(op, args).unwrap()
    }

    #[test]
    fn inner_scopes_shadow_outer_ones() {
        let spec = symboltable_spec();
        let rw = Rewriter::new(&spec);
        let x = sig_apply(&spec, "ID_X", vec![]);
        let a1 = sig_apply(&spec, "ATTR_1", vec![]);
        let a2 = sig_apply(&spec, "ATTR_2", vec![]);
        // INIT; add x:a1; enter block; add x:a2 — retrieve sees a2.
        let t = sig_apply(
            &spec,
            "ADD",
            vec![
                sig_apply(
                    &spec,
                    "ENTERBLOCK",
                    vec![sig_apply(
                        &spec,
                        "ADD",
                        vec![sig_apply(&spec, "INIT", vec![]), x.clone(), a1.clone()],
                    )],
                ),
                x.clone(),
                a2.clone(),
            ],
        );
        let got = rw
            .normalize(&sig_apply(&spec, "RETRIEVE", vec![t.clone(), x.clone()]))
            .unwrap();
        assert_eq!(got, a2);
        // After LEAVEBLOCK, the outer binding is visible again.
        let left = sig_apply(&spec, "LEAVEBLOCK", vec![t]);
        let got = rw
            .normalize(&sig_apply(&spec, "RETRIEVE", vec![left, x]))
            .unwrap();
        assert_eq!(got, a1);
    }

    #[test]
    fn is_inblock_sees_only_the_current_scope() {
        let spec = symboltable_spec();
        let rw = Rewriter::new(&spec);
        let x = sig_apply(&spec, "ID_X", vec![]);
        let a1 = sig_apply(&spec, "ATTR_1", vec![]);
        // x declared in the outer block, then a fresh block entered.
        let t = sig_apply(
            &spec,
            "ENTERBLOCK",
            vec![sig_apply(
                &spec,
                "ADD",
                vec![sig_apply(&spec, "INIT", vec![]), x.clone(), a1],
            )],
        );
        let inblock = rw
            .normalize(&sig_apply(&spec, "IS_INBLOCK?", vec![t.clone(), x.clone()]))
            .unwrap();
        assert_eq!(inblock, spec.sig().ff());
        // But RETRIEVE still finds it (most local *occurrence*).
        let retrieved = rw
            .normalize(&sig_apply(&spec, "RETRIEVE", vec![t, x]))
            .unwrap();
        assert_eq!(retrieved, sig_apply(&spec, "ATTR_1", vec![]));
    }

    #[test]
    fn boundary_conditions_error() {
        let spec = symboltable_spec();
        let rw = Rewriter::new(&spec);
        let st = spec.sig().find_sort("Symboltable").unwrap();
        let attrs = spec.sig().find_sort("AttributeList").unwrap();
        let init = sig_apply(&spec, "INIT", vec![]);
        let x = sig_apply(&spec, "ID_X", vec![]);
        assert_eq!(
            rw.normalize(&sig_apply(&spec, "LEAVEBLOCK", vec![init.clone()]))
                .unwrap(),
            Term::Error(st)
        );
        assert_eq!(
            rw.normalize(&sig_apply(&spec, "RETRIEVE", vec![init, x]))
                .unwrap(),
            Term::Error(attrs)
        );
    }

    #[test]
    fn leaveblock_discards_adds_in_the_current_scope() {
        let spec = symboltable_spec();
        let rw = Rewriter::new(&spec);
        let x = sig_apply(&spec, "ID_X", vec![]);
        let a1 = sig_apply(&spec, "ATTR_1", vec![]);
        // LEAVEBLOCK(ADD(ENTERBLOCK(INIT), x, a1)) = INIT (axiom 3 then 2).
        let t = sig_apply(
            &spec,
            "LEAVEBLOCK",
            vec![sig_apply(
                &spec,
                "ADD",
                vec![
                    sig_apply(&spec, "ENTERBLOCK", vec![sig_apply(&spec, "INIT", vec![])]),
                    x,
                    a1,
                ],
            )],
        );
        let nf = rw.normalize(&t).unwrap();
        assert_eq!(nf, sig_apply(&spec, "INIT", vec![]));
    }
}
