//! Oracle test for critical-pair enumeration: the head-indexed
//! [`superpositions`] must return exactly the superpositions — same
//! pairs, same order, same terms — as the brute-force loop it replaced,
//! which tries every rule pair at every non-variable position, renaming
//! the inner rule inside the loop.
//!
//! Covered: every `specs/*.adt` (as shipped, and with a twin of every
//! axiom so the orthogonal corpus overlaps), the checker-scaling
//! synthetic family at 32, 128 and 512 axioms, and the overlap fixtures
//! of the rewrite crate's unit tests.

use adt_bench::workloads::{synthetic_spec, with_twin_axioms};
use adt_core::{unify, RuleSet, Spec, SpecBuilder, Subst, Term, VarId};
use adt_rewrite::{superpositions, Superposition};

/// The brute-force reference enumerator: every (outer, inner) rule pair
/// in axiom order, every non-variable position of the outer left-hand
/// side in `subterms()` order, one unification attempt each.
fn reference_superpositions(spec: &Spec) -> Vec<Superposition> {
    let mut sig = spec.sig().clone();
    let mut renaming = Subst::new();
    let var_ids: Vec<VarId> = sig.var_ids().collect();
    for v in var_ids {
        let name = format!("{}\u{2032}", sig.var(v).name());
        let sort = sig.var(v).sort();
        let fresh = sig.add_var(&name, sort).expect("fresh names are unique");
        renaming.bind(v, Term::Var(fresh));
    }
    let extended = Spec::from_parts(
        spec.name().to_owned(),
        sig,
        spec.axioms().to_vec(),
        spec.tois().to_vec(),
        spec.params().to_vec(),
    )
    .expect("renaming keeps the spec well-formed");

    let rules = RuleSet::from_spec(&extended);
    let all_rules: Vec<_> = rules.iter().collect();
    let mut found = Vec::new();
    for (oi, outer) in all_rules.iter().enumerate() {
        for (ii, inner) in all_rules.iter().enumerate() {
            let inner_lhs = renaming.apply(inner.lhs());
            let inner_rhs = renaming.apply(inner.rhs());
            for (pos, sub) in outer.lhs().subterms() {
                if matches!(sub, Term::Var(_)) || (oi == ii && pos.is_empty()) {
                    continue;
                }
                let Some(unifier) = unify(sub, &inner_lhs) else {
                    continue;
                };
                let subst = &unifier.subst;
                let replaced = outer
                    .lhs()
                    .replace_at(&pos, inner_rhs.clone())
                    .expect("position came from subterms()");
                found.push(Superposition {
                    outer_rule: outer.label().to_owned(),
                    inner_rule: inner.label().to_owned(),
                    position: pos,
                    peak: deep_apply(subst, outer.lhs()),
                    left: deep_apply(subst, outer.rhs()),
                    right: deep_apply(subst, &replaced),
                });
            }
        }
    }
    found
}

fn deep_apply(subst: &Subst, term: &Term) -> Term {
    let mut current = subst.apply(term);
    for _ in 0..64 {
        let next = subst.apply(&current);
        if next == current {
            return current;
        }
        current = next;
    }
    current
}

fn assert_matches_oracle(name: &str, spec: &Spec) -> usize {
    let fast = superpositions(spec)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .superpositions;
    let reference = reference_superpositions(spec);
    assert_eq!(
        fast.len(),
        reference.len(),
        "{name}: superposition count differs from the oracle"
    );
    for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
        assert_eq!(f, r, "{name}: superposition #{i} differs from the oracle");
    }
    fast.len()
}

#[test]
fn every_shipped_spec_matches_the_oracle() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("specs/ is readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "adt"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no specs found in {}", dir.display());
    for path in &paths {
        let name = path.display().to_string();
        let source = std::fs::read_to_string(path).expect("spec is readable");
        let spec =
            adt_dsl::parse(&source).unwrap_or_else(|e| panic!("{name}: {}", e.render(&source)));
        assert_matches_oracle(&name, &spec);
        // The shipped specs are orthogonal, so they have no overlaps of
        // their own. A twin of every axiom overlaps it at the root (and
        // wherever else its left-hand side reaches); twins of twins give
        // every outer rule several inner rules, so their order shows.
        let twins = with_twin_axioms(&spec);
        let overlaps = assert_matches_oracle(&format!("{name} with twins"), &twins);
        assert!(
            overlaps >= spec.axioms().len(),
            "{name}: twins must overlap"
        );
        assert_matches_oracle(
            &format!("{name} with twins of twins"),
            &with_twin_axioms(&twins),
        );
    }
}

#[test]
fn synthetic_family_matches_the_oracle() {
    for (ctors, obs) in [(4, 8), (8, 16), (8, 64)] {
        let spec = synthetic_spec(ctors, obs);
        assert_eq!(spec.axioms().len(), ctors * obs);
        assert_matches_oracle(&format!("synthetic {}", ctors * obs), &spec);
        if ctors * obs <= 128 {
            let twins = with_twin_axioms(&spec);
            let pairs =
                assert_matches_oracle(&format!("synthetic {} with twins", ctors * obs), &twins);
            assert_eq!(
                pairs,
                2 * ctors * obs,
                "each axiom overlaps its twin both ways"
            );
        }
    }
}

/// The overlap fixtures of `adt-rewrite`'s critical-pair unit tests —
/// orthogonal rules, a joinable root overlap, a contradictory root
/// overlap, and a nested overlap — plus one with several overlaps per
/// outer rule.
#[test]
fn overlap_fixtures_match_the_oracle() {
    let build = |name: &str, axioms: &dyn Fn(&mut SpecBuilder)| {
        let mut b = SpecBuilder::new(name);
        axioms(&mut b);
        b.build().expect("fixture is well-formed")
    };
    let orthogonal = build("Tiny", &|b| {
        let s = b.sort("S");
        let zero = b.ctor("ZERO", [], s);
        let succ = b.ctor("SUCC", [s], s);
        let is_zero = b.op("IS_ZERO?", [s], b.bool_sort());
        let x = b.var("x", s);
        let (tt, ff) = (b.tt(), b.ff());
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [Term::Var(x)])]), ff);
    });
    let root_overlap = |name: &str, specific_to_d: bool| {
        build(name, &|b| {
            let s = b.sort("S");
            let c = b.ctor("C", [], s);
            let d = b.ctor("D", [], s);
            let f = b.op("F", [s], s);
            let x = b.var("x", s);
            let rhs = if specific_to_d { d } else { c };
            b.axiom("general", b.app(f, [Term::Var(x)]), b.app(c, []));
            b.axiom("specific", b.app(f, [b.app(c, [])]), b.app(rhs, []));
        })
    };
    let nested = build("Nested", &|b| {
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let d = b.ctor("D", [], s);
        let f = b.op("F", [s], s);
        let g = b.op("G", [s], s);
        b.axiom("outer", b.app(g, [b.app(f, [b.app(c, [])])]), b.app(c, []));
        b.axiom("inner", b.app(f, [b.app(c, [])]), b.app(d, []));
    });
    // Two overlap positions in one outer rule, and two inner rules that
    // overlap at each: pins position order within an (outer, inner)
    // pair and inner-rule order within an outer rule.
    let nested_twice = build("NestedTwice", &|b| {
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let d = b.ctor("D", [], s);
        let f = b.op("F", [s], s);
        let h = b.op("H", [s, s], s);
        let x = b.var("x", s);
        let fc = b.app(f, [b.app(c, [])]);
        b.axiom(
            "outer",
            b.app(h, [b.app(f, [Term::Var(x)]), fc.clone()]),
            b.app(c, []),
        );
        b.axiom("specific", fc, b.app(d, []));
        b.axiom("general", b.app(f, [Term::Var(x)]), b.app(c, []));
    });
    assert_eq!(assert_matches_oracle("orthogonal", &orthogonal), 0);
    assert!(assert_matches_oracle("nested twice", &nested_twice) >= 4);
    assert!(assert_matches_oracle("joinable", &root_overlap("Olap", false)) > 0);
    assert!(assert_matches_oracle("contradiction", &root_overlap("Contradiction", true)) > 0);
    assert!(assert_matches_oracle("nested", &nested) > 0);
}
