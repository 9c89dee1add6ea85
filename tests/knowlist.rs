//! EX-10: the Knowlist evolution (§4, end) — changing the language
//! changes exactly the ENTERBLOCK-touching axioms, the layered Knowlist
//! specification checks out, and the new visibility behaviour is
//! derivable and implemented.

use adt_check::{check_completeness_session, check_consistency_session, CheckConfig, ProbeConfig};
use adt_core::{Session, Term};
use adt_rewrite::Rewriter;
use adt_structures::specs::{axiom_diff, symboltable_kl_spec, symboltable_spec};
use adt_structures::{sources, AttrList, Ident, KnowList, SymbolTableKl};

#[test]
fn the_change_is_localized_to_enterblock_axioms() {
    let before = symboltable_spec();
    let after = symboltable_kl_spec();
    let diff = axiom_diff(&before, &after);
    // "all relations, and only those relations, that explicitly deal with
    // the ENTERBLOCK operation would have to be altered" — 2, 5 and 8.
    assert_eq!(diff.changed_labels(), vec!["2", "5", "8"]);
    assert!(diff.only_in_first.is_empty());
    // The additions are the new layer: the Knowlist type's axioms.
    let added: Vec<&str> = diff
        .only_in_second
        .iter()
        .map(|(l, _)| l.as_str())
        .collect();
    assert_eq!(added, vec!["k1", "k2"]);
    // Axioms 1, 3, 4, 6, 7, 9 and the ISSAME? table survive verbatim.
    assert_eq!(diff.unchanged.len(), 6 + 9);
}

#[test]
fn layered_specification_checks_out() {
    let spec = symboltable_kl_spec();
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
fn undefined_is_in_would_be_caught() {
    // The paper: "the above relations are not well defined. The undefined
    // symbol IS_IN? … appears in the third axiom." Without the Knowlist
    // layer, lowering must reject the file.
    let source = r#"
type Symboltable
param Identifier
ops
  INIT: -> Symboltable ctor
  ENTERBLOCK: Symboltable, Knowlist -> Symboltable ctor
  RETRIEVE: Symboltable, Identifier -> Identifier
vars
  symtab: Symboltable
  klist: Knowlist
  id: Identifier
axioms
  [8] RETRIEVE(ENTERBLOCK(symtab, klist), id) =
        if IS_IN?(klist, id) then RETRIEVE(symtab, id) else error
end
"#;
    let err = adt_dsl::parse(source).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("Knowlist"), "{msg}");
}

#[test]
fn knows_list_visibility_is_derivable_from_the_axioms() {
    let spec = symboltable_kl_spec();
    let rw = Rewriter::new(&spec);
    let sig = spec.sig();
    let apply = |op: &str, args: Vec<Term>| sig.apply(op, args).unwrap();
    let x = apply("ID_X", vec![]);
    let y = apply("ID_Y", vec![]);
    let a1 = apply("ATTR_1", vec![]);
    let a2 = apply("ATTR_2", vec![]);
    // Outer block: x ↦ a1, y ↦ a2. Inner block knows only x.
    let outer = apply(
        "ADD",
        vec![
            apply("ADD", vec![apply("INIT", vec![]), x.clone(), a1.clone()]),
            y.clone(),
            a2,
        ],
    );
    let knows_x = apply("APPEND", vec![apply("CREATE", vec![]), x.clone()]);
    let inner = apply("ENTERBLOCK", vec![outer, knows_x]);

    let got_x = rw
        .normalize(&apply("RETRIEVE", vec![inner.clone(), x]))
        .unwrap();
    assert_eq!(got_x, apply("ATTR_1", vec![]));
    let attrs_sort = sig.find_sort("AttributeList").unwrap();
    let got_y = rw.normalize(&apply("RETRIEVE", vec![inner, y])).unwrap();
    assert_eq!(got_y, Term::Error(attrs_sort));
}

#[test]
fn the_rust_implementation_matches_the_derived_behaviour() {
    // Same scenario as above, against SymbolTableKl.
    let mut st: SymbolTableKl = SymbolTableKl::init();
    st.add(Ident::new("x"), AttrList::new().with("a", "1"));
    st.add(Ident::new("y"), AttrList::new().with("a", "2"));
    st.enter_block(KnowList::create().append(Ident::new("x")));
    assert!(st.retrieve(&Ident::new("x")).is_ok());
    assert!(st.retrieve(&Ident::new("y")).is_err());
}

#[test]
fn shipped_kl_sources_agree_with_the_builders() {
    let kl = sources::load("knowlist").unwrap();
    assert!(adt_dsl::semantically_equal(
        &kl,
        &adt_structures::specs::knowlist_spec()
    ));
    let st_kl = sources::load("symboltable_kl").unwrap();
    assert!(adt_dsl::semantically_equal(&st_kl, &symboltable_kl_spec()));
}
