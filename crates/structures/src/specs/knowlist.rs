//! The Knowlist extension (§4, end): adapting the Symboltable when the
//! language acquires "knows lists".
//!
//! "Within the specification of type Symboltable, all relations, and only
//! those relations, that explicitly deal with the ENTERBLOCK operation
//! would have to be altered."

use adt_core::{Spec, SpecBuilder, Term};

use super::{install_attribute_lists, install_identifiers};

/// Builds the standalone Knowlist specification:
///
/// ```text
/// IS_IN?(CREATE, id) = false
/// IS_IN?(APPEND(klist, id), id1) = if ISSAME?(id, id1) then true
///                                  else IS_IN?(klist, id1)
/// ```
///
/// (The paper prints the first axiom as `IS_IN?(CREATE) = false`, eliding
/// the identifier argument; it is restored here.)
pub fn knowlist_spec() -> Spec {
    let mut b = SpecBuilder::new("Knowlist");
    let kl = b.sort("Knowlist");
    let ident = install_identifiers(&mut b);
    install_knowlist_ops(&mut b, kl, ident);
    b.build()
        .expect("the Knowlist specification is well-formed")
}

fn install_knowlist_ops(b: &mut SpecBuilder, kl: adt_core::SortId, ident: adt_core::SortId) {
    let create = b.ctor("CREATE", [], kl);
    let append = b.ctor("APPEND", [kl, ident], kl);
    let is_in = b.op("IS_IN?", [kl, ident], b.bool_sort());
    let issame = b.sig().find_op("ISSAME?").expect("identifiers installed");
    let klist = Term::Var(b.var("klist", kl));
    let kid = Term::Var(b.var("kid", ident));
    let kid1 = Term::Var(b.var("kid1", ident));
    let ff = b.ff();
    b.axiom("k1", b.app(is_in, [b.app(create, []), kid.clone()]), ff);
    b.axiom(
        "k2",
        b.app(
            is_in,
            [b.app(append, [klist.clone(), kid.clone()]), kid1.clone()],
        ),
        Term::ite(
            b.app(issame, [kid, kid1.clone()]),
            b.tt(),
            b.app(is_in, [klist, kid1]),
        ),
    );
}

/// Builds the Symboltable-with-knows-lists specification: identical to
/// [`super::symboltable_spec`] except that `ENTERBLOCK` takes a
/// `Knowlist`, and the three ENTERBLOCK axioms change:
///
/// ```text
/// (2')  LEAVEBLOCK(ENTERBLOCK(symtab, klist)) = symtab
/// (5')  IS_INBLOCK?(ENTERBLOCK(symtab, klist), id) = false
/// (8')  RETRIEVE(ENTERBLOCK(symtab, klist), id) =
///         if IS_IN?(klist, id) then RETRIEVE(symtab, id) else error
/// ```
///
/// Every other axiom is carried over verbatim; compare with
/// [`super::axiom_diff`] to see that mechanically.
pub fn symboltable_kl_spec() -> Spec {
    let mut b = SpecBuilder::new("SymboltableKL");
    let st = b.sort("Symboltable");
    let kl = b.sort("Knowlist");
    let ident = install_identifiers(&mut b);
    let attrs_sort = install_attribute_lists(&mut b);
    install_knowlist_ops(&mut b, kl, ident);
    let is_in = b.sig().find_op("IS_IN?").expect("installed above");
    let issame = b.sig().find_op("ISSAME?").expect("installed above");

    let init = b.ctor("INIT", [], st);
    let enter = b.ctor("ENTERBLOCK", [st, kl], st);
    let add = b.ctor("ADD", [st, ident, attrs_sort], st);
    let leave = b.op("LEAVEBLOCK", [st], st);
    let inblock = b.op("IS_INBLOCK?", [st, ident], b.bool_sort());
    let retrieve = b.op("RETRIEVE", [st, ident], attrs_sort);

    let s = Term::Var(b.var("symtab", st));
    // `klist` was already declared by the Knowlist installer.
    let klist = Term::Var(b.sig().find_var("klist").expect("installed above"));
    let id = Term::Var(b.var("id", ident));
    let id1 = Term::Var(b.var("id1", ident));
    let attrs = Term::Var(b.var("attrs", attrs_sort));
    let ff = b.ff();

    b.axiom("1", b.app(leave, [b.app(init, [])]), Term::Error(st));
    b.axiom(
        "2",
        b.app(leave, [b.app(enter, [s.clone(), klist.clone()])]),
        s.clone(),
    );
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
        b.app(
            inblock,
            [b.app(enter, [s.clone(), klist.clone()]), id.clone()],
        ),
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
        b.app(
            retrieve,
            [b.app(enter, [s.clone(), klist.clone()]), id.clone()],
        ),
        Term::ite(
            b.app(is_in, [klist, id.clone()]),
            b.app(retrieve, [s.clone(), id.clone()]),
            Term::Error(attrs_sort),
        ),
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
        .expect("the Symboltable-with-knows-lists specification is well-formed")
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
    fn knowlist_spec_checks() {
        let spec = knowlist_spec();
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
    fn symboltable_kl_spec_checks() {
        let spec = symboltable_kl_spec();
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

    fn apply(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
        spec.sig().apply(op, args).unwrap()
    }

    #[test]
    fn knows_list_membership() {
        let spec = knowlist_spec();
        let rw = Rewriter::new(&spec);
        let x = apply(&spec, "ID_X", vec![]);
        let y = apply(&spec, "ID_Y", vec![]);
        let z = apply(&spec, "ID_Z", vec![]);
        let klist = apply(
            &spec,
            "APPEND",
            vec![
                apply(
                    &spec,
                    "APPEND",
                    vec![apply(&spec, "CREATE", vec![]), x.clone()],
                ),
                y.clone(),
            ],
        );
        let is_in = |id: &Term| {
            rw.normalize(&apply(&spec, "IS_IN?", vec![klist.clone(), id.clone()]))
                .unwrap()
        };
        assert_eq!(is_in(&x), spec.sig().tt());
        assert_eq!(is_in(&y), spec.sig().tt());
        assert_eq!(is_in(&z), spec.sig().ff());
    }

    #[test]
    fn globals_are_visible_only_through_the_knows_list() {
        let spec = symboltable_kl_spec();
        let rw = Rewriter::new(&spec);
        let attrs_sort = spec.sig().find_sort("AttributeList").unwrap();
        let x = apply(&spec, "ID_X", vec![]);
        let y = apply(&spec, "ID_Y", vec![]);
        let a1 = apply(&spec, "ATTR_1", vec![]);
        let a2 = apply(&spec, "ATTR_2", vec![]);
        // Outer block declares x and y; inner block knows only x.
        let outer = apply(
            &spec,
            "ADD",
            vec![
                apply(
                    &spec,
                    "ADD",
                    vec![apply(&spec, "INIT", vec![]), x.clone(), a1.clone()],
                ),
                y.clone(),
                a2,
            ],
        );
        let knows_x = apply(
            &spec,
            "APPEND",
            vec![apply(&spec, "CREATE", vec![]), x.clone()],
        );
        let inner = apply(&spec, "ENTERBLOCK", vec![outer, knows_x]);
        // x is retrievable through the knows list…
        let got_x = rw
            .normalize(&apply(&spec, "RETRIEVE", vec![inner.clone(), x]))
            .unwrap();
        assert_eq!(got_x, a1);
        // …but y is not: the knows list hides it.
        let got_y = rw
            .normalize(&apply(&spec, "RETRIEVE", vec![inner, y]))
            .unwrap();
        assert_eq!(got_y, Term::Error(attrs_sort));
    }
}
