//! The Array of §4 (axioms 17–20).

use adt_core::{Spec, SpecBuilder, Term};

use super::{install_attribute_lists, install_identifiers};

/// Builds the Array specification of §4 (axioms 17–20): a map from
/// `Identifier` to `AttributeList` with last-write-wins lookup.
///
/// ```text
/// (17) IS_UNDEFINED?(EMPTY, id) = true
/// (18) IS_UNDEFINED?(ASSIGN(arr, id, attrs), id1) =
///        if ISSAME?(id, id1) then false else IS_UNDEFINED?(arr, id1)
/// (19) READ(EMPTY, id) = error
/// (20) READ(ASSIGN(arr, id, attrs), id1) =
///        if ISSAME?(id, id1) then attrs else READ(arr, id1)
/// ```
pub fn array_spec() -> Spec {
    let mut b = SpecBuilder::new("Array");
    let array = b.sort("Array");
    let ident = install_identifiers(&mut b);
    let attrs_sort = install_attribute_lists(&mut b);
    let empty = b.ctor("EMPTY", [], array);
    let assign = b.ctor("ASSIGN", [array, ident, attrs_sort], array);
    let read = b.op("READ", [array, ident], attrs_sort);
    let is_undef = b.op("IS_UNDEFINED?", [array, ident], b.bool_sort());
    let issame = b.sig().find_op("ISSAME?").expect("installed above");

    let arr = Term::Var(b.var("arr", array));
    let id = Term::Var(b.var("id", ident));
    let id1 = Term::Var(b.var("id1", ident));
    let attrs = Term::Var(b.var("attrs", attrs_sort));
    let tt = b.tt();

    b.axiom("17", b.app(is_undef, [b.app(empty, []), id.clone()]), tt);
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
            b.app(issame, [id, id1.clone()]),
            attrs,
            b.app(read, [arr, id1]),
        ),
    );
    b.build().expect("the Array specification is well-formed")
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
    fn array_spec_checks() {
        let spec = array_spec();
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
    fn last_write_wins() {
        let spec = array_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let x = sig.apply("ID_X", vec![]).unwrap();
        let y = sig.apply("ID_Y", vec![]).unwrap();
        let a1 = sig.apply("ATTR_1", vec![]).unwrap();
        let a2 = sig.apply("ATTR_2", vec![]).unwrap();
        let a3 = sig.apply("ATTR_3", vec![]).unwrap();
        // ASSIGN(ASSIGN(ASSIGN(EMPTY, x, a1), y, a2), x, a3)
        let arr = sig
            .apply(
                "ASSIGN",
                vec![
                    sig.apply(
                        "ASSIGN",
                        vec![
                            sig.apply(
                                "ASSIGN",
                                vec![sig.apply("EMPTY", vec![]).unwrap(), x.clone(), a1],
                            )
                            .unwrap(),
                            y.clone(),
                            a2.clone(),
                        ],
                    )
                    .unwrap(),
                    x.clone(),
                    a3.clone(),
                ],
            )
            .unwrap();
        let read_x = rw
            .normalize(&sig.apply("READ", vec![arr.clone(), x]).unwrap())
            .unwrap();
        assert_eq!(read_x, a3); // the later write shadows the earlier one
        let read_y = rw
            .normalize(&sig.apply("READ", vec![arr, y]).unwrap())
            .unwrap();
        assert_eq!(read_y, a2);
    }

    #[test]
    fn undefined_identifiers_read_as_error() {
        let spec = array_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let attrs = sig.find_sort("AttributeList").unwrap();
        let z = sig.apply("ID_Z", vec![]).unwrap();
        let empty = sig.apply("EMPTY", vec![]).unwrap();
        assert_eq!(
            rw.normalize(&sig.apply("READ", vec![empty.clone(), z.clone()]).unwrap())
                .unwrap(),
            Term::Error(attrs)
        );
        assert_eq!(
            rw.normalize(&sig.apply("IS_UNDEFINED?", vec![empty, z]).unwrap())
                .unwrap(),
            spec.sig().tt()
        );
    }

    #[test]
    fn is_undefined_tracks_assignment() {
        let spec = array_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let x = sig.apply("ID_X", vec![]).unwrap();
        let y = sig.apply("ID_Y", vec![]).unwrap();
        let a1 = sig.apply("ATTR_1", vec![]).unwrap();
        let arr = sig
            .apply(
                "ASSIGN",
                vec![sig.apply("EMPTY", vec![]).unwrap(), x.clone(), a1],
            )
            .unwrap();
        let undef_x = rw
            .normalize(&sig.apply("IS_UNDEFINED?", vec![arr.clone(), x]).unwrap())
            .unwrap();
        assert_eq!(undef_x, spec.sig().ff());
        let undef_y = rw
            .normalize(&sig.apply("IS_UNDEFINED?", vec![arr, y]).unwrap())
            .unwrap();
        assert_eq!(undef_y, spec.sig().tt());
    }
}
