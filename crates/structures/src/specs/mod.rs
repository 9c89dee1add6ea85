//! The paper's algebraic specifications, built programmatically.
//!
//! Parameter sorts are instantiated with a few constant constructors (the
//! paper's `Item`, `Identifier`, `AttributeList` are parameters of a "type
//! schema"; executable checking needs inhabitants). `ISSAME?` — "part of
//! the specification of an independently defined type Identifier"
//! (footnote 2) — is axiomatized over those constants.

mod array;
mod diff;
mod knowlist;
mod list;
mod queue;
mod rep;
mod set;
mod stack;
mod symtab;

pub use array::array_spec;
pub use diff::{axiom_diff, AxiomDiff};
pub use knowlist::{knowlist_spec, symboltable_kl_spec};
pub use list::list_spec;
pub use queue::{queue_spec, queue_spec_incomplete};
pub use rep::{symtab_rep_op_map, symtab_rep_spec};
pub use set::set_spec;
pub use stack::stack_spec;
pub use symtab::symboltable_spec;

use adt_core::{SortId, SpecBuilder, Term};

/// Names of the sample identifiers installed for the `Identifier`
/// parameter sort.
pub const SAMPLE_IDENTIFIERS: [&str; 3] = ["ID_X", "ID_Y", "ID_Z"];

/// Names of the sample attribute lists installed for the
/// `AttributeList` parameter sort.
pub const SAMPLE_ATTRIBUTES: [&str; 3] = ["ATTR_1", "ATTR_2", "ATTR_3"];

/// Declares the parameter sort `Identifier` with three constant
/// identifiers and the `ISSAME?` operation, axiomatized by the diagonal:
/// `ISSAME?(x, y) = true` iff `x` and `y` are the same constant.
pub(crate) fn install_identifiers(b: &mut SpecBuilder) -> SortId {
    let ident = b.param_sort("Identifier");
    let ids: Vec<_> = SAMPLE_IDENTIFIERS
        .iter()
        .map(|n| b.ctor(n, [], ident))
        .collect();
    let issame = b.op("ISSAME?", [ident, ident], b.bool_sort());
    for (i, &a) in ids.iter().enumerate() {
        for (j, &c) in ids.iter().enumerate() {
            let rhs = if i == j { b.tt() } else { b.ff() };
            b.axiom(
                format!("same_{i}{j}"),
                Term::App(issame, vec![Term::constant(a), Term::constant(c)]),
                rhs,
            );
        }
    }
    ident
}

/// Declares the parameter sort `AttributeList` with three constants.
pub(crate) fn install_attribute_lists(b: &mut SpecBuilder) -> SortId {
    let attrs = b.param_sort("AttributeList");
    for n in SAMPLE_ATTRIBUTES {
        b.ctor(n, [], attrs);
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_rewrite::Rewriter;

    #[test]
    fn issame_is_the_diagonal() {
        let mut b = SpecBuilder::new("IdentOnly");
        // A dummy sort of interest so the spec is valid.
        let s = b.sort("S");
        b.ctor("UNIT", [], s);
        install_identifiers(&mut b);
        let spec = b.build().unwrap();
        let rw = Rewriter::new(&spec);
        let x = spec.sig().apply("ID_X", vec![]).unwrap();
        let y = spec.sig().apply("ID_Y", vec![]).unwrap();
        let same_xx = spec
            .sig()
            .apply("ISSAME?", vec![x.clone(), x.clone()])
            .unwrap();
        let same_xy = spec.sig().apply("ISSAME?", vec![x, y]).unwrap();
        assert_eq!(rw.normalize(&same_xx).unwrap(), spec.sig().tt());
        assert_eq!(rw.normalize(&same_xy).unwrap(), spec.sig().ff());
    }

    #[test]
    fn identifier_and_attribute_installers_are_complete_and_consistent() {
        let mut b = SpecBuilder::new("Params");
        let s = b.sort("S");
        b.ctor("UNIT", [], s);
        install_identifiers(&mut b);
        install_attribute_lists(&mut b);
        let spec = b.build().unwrap();
        let session = adt_core::Session::new(spec);
        let config = adt_check::CheckConfig::default();
        let report = adt_check::check_completeness_session(&session, &config);
        assert!(report.is_sufficiently_complete(), "{}", report.prompts());
        let probe = adt_check::ProbeConfig::default();
        let consistency = adt_check::check_consistency_session(&session, &probe, &config);
        assert!(consistency.is_consistent(), "{}", consistency.summary());
    }
}
