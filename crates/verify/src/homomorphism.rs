//! Value-level abstraction-function checking.
//!
//! A representation of a type comes with "a function Φ that maps terms in
//! the model domain onto their representatives in the abstract domain"
//! (§4). For an implementation to be correct, evaluation and abstraction
//! must commute: for every generated term `t`,
//!
//! ```text
//! Φ(eval_impl(t))  =  normal-form(t)
//! ```
//!
//! where the right side is computed by the specification's rewrite system.
//! This module checks that equation over exhaustively generated ground
//! terms — the bounded, value-level counterpart of the term-level proofs
//! in [`crate::rep`]. Since Φ⁻¹ may be one-to-many (the paper's
//! ring-buffer example), the comparison is always made in the *abstract*
//! domain.

use adt_core::{display, Session, Spec, Term};
use adt_rewrite::Rewriter;

use crate::eval::eval_ground;
use crate::gen::enumerate_terms;
use crate::model::Model;
use crate::value::MValue;

/// Configuration for [`check_representation`].
pub struct RepCheckConfig<'f> {
    /// Depth bound for constructor arguments of generated terms.
    pub max_arg_depth: usize,
    /// Cap on generated terms per operation.
    pub cap_per_op: usize,
    /// Rewriting fuel.
    pub fuel: u64,
    /// Environment assumption: only terms satisfying the predicate are
    /// checked (conditional correctness, e.g. Assumption 1). `None`
    /// checks everything.
    pub assumption: Option<&'f dyn Fn(&Term) -> bool>,
}

impl Default for RepCheckConfig<'_> {
    fn default() -> Self {
        RepCheckConfig {
            max_arg_depth: 4,
            cap_per_op: 400,
            fuel: 1_000_000,
            assumption: None,
        }
    }
}

impl std::fmt::Debug for RepCheckConfig<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepCheckConfig")
            .field("max_arg_depth", &self.max_arg_depth)
            .field("cap_per_op", &self.cap_per_op)
            .field("fuel", &self.fuel)
            .field("assumption", &self.assumption.is_some())
            .finish()
    }
}

/// A term where evaluation and abstraction disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepMismatch {
    /// The offending term, rendered.
    pub term: String,
    /// The specification's normal form, rendered.
    pub spec_nf: String,
    /// What `Φ(eval_impl(term))` produced, rendered (or a description of
    /// the value for non-abstract sorts).
    pub via_impl: String,
}

/// The result of a representation check.
#[derive(Debug, Clone)]
pub struct RepCheckReport {
    /// Disagreements found (empty on success).
    pub mismatches: Vec<RepMismatch>,
    /// Terms checked.
    pub terms_checked: usize,
    /// Terms skipped: filtered out by the assumption, or whose
    /// specification normal form was not a canonical value (an incomplete
    /// spec leaves observers stuck).
    pub terms_skipped: usize,
}

impl RepCheckReport {
    /// Whether the implementation commutes with abstraction on every
    /// checked term.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "representation check: {} term(s) checked, {} skipped, {} mismatch(es)\n",
            self.terms_checked,
            self.terms_skipped,
            self.mismatches.len()
        );
        for m in self.mismatches.iter().take(10) {
            out.push_str(&format!(
                "  {}: spec says {}, implementation gives {}\n",
                m.term, m.spec_nf, m.via_impl
            ));
        }
        out
    }
}

/// Checks that `Φ ∘ eval_impl = normal-form` over generated ground terms.
///
/// For terms of a sort of interest, `phi` abstracts the implementation
/// value to a term, which is then normalized and compared with the
/// specification's normal form. For terms of other sorts (observers), the
/// specification's normal form is evaluated back in the model and compared
/// with [`Model::values_equal`].
pub fn check_representation(
    model: &dyn Model,
    phi: &dyn Fn(&MValue) -> Term,
    cfg: &RepCheckConfig<'_>,
) -> RepCheckReport {
    let rw = Rewriter::new(model.spec()).with_fuel(cfg.fuel);
    check_representation_with(&rw, model, phi, cfg)
}

/// [`check_representation`] with the rewriter borrowing a shared
/// [`Session`]'s compiled rules and memo, so normal forms computed here
/// stay warm for every later check against the same session (and vice
/// versa).
///
/// The session must have been built over the same specification the
/// model implements: the memo's ids stand for terms built from operation
/// indices, so mixing signatures would cross facts between unrelated
/// terms. The report is identical to a fresh
/// [`check_representation`] run — a warm memo changes how fast a normal
/// form is found, never which one.
pub fn check_representation_session(
    session: &Session,
    model: &dyn Model,
    phi: &dyn Fn(&MValue) -> Term,
    cfg: &RepCheckConfig<'_>,
) -> RepCheckReport {
    let rw = Rewriter::for_session(session).with_fuel(cfg.fuel);
    check_representation_with(&rw, model, phi, cfg)
}

fn check_representation_with(
    rw: &Rewriter<'_>,
    model: &dyn Model,
    phi: &dyn Fn(&MValue) -> Term,
    cfg: &RepCheckConfig<'_>,
) -> RepCheckReport {
    let spec: &Spec = model.spec();
    let sig = spec.sig();

    let mut mismatches = Vec::new();
    let mut checked = 0;
    let mut skipped = 0;

    for term in enumerate_terms(sig, cfg.max_arg_depth, cfg.cap_per_op) {
        if let Some(assume) = cfg.assumption {
            if !assume(&term) {
                skipped += 1;
                continue;
            }
        }
        let sort = term.sort(sig).expect("generated terms are well-sorted");
        let Ok(spec_nf) = rw.normalize(&term) else {
            skipped += 1;
            continue;
        };
        if !spec_nf.is_constructor_term(sig) {
            // The specification does not decide this term (insufficient
            // completeness); nothing to compare against.
            skipped += 1;
            continue;
        }
        let impl_value = eval_ground(model, &term);
        checked += 1;

        if spec.is_toi(sort) {
            let abstracted = if impl_value.is_error() {
                Term::Error(sort)
            } else {
                phi(&impl_value)
            };
            let Ok(abstracted_nf) = rw.normalize(&abstracted) else {
                skipped += 1;
                continue;
            };
            if abstracted_nf != spec_nf {
                mismatches.push(RepMismatch {
                    term: display::term(sig, &term).to_string(),
                    spec_nf: display::term(sig, &spec_nf).to_string(),
                    via_impl: display::term(sig, &abstracted_nf).to_string(),
                });
            }
        } else {
            // Observer result: evaluate the canonical normal form in the
            // model and compare values.
            let expected = eval_ground(model, &spec_nf);
            if !model.values_equal(sort, &impl_value, &expected) {
                mismatches.push(RepMismatch {
                    term: display::term(sig, &term).to_string(),
                    spec_nf: display::term(sig, &spec_nf).to_string(),
                    via_impl: format!("{impl_value:?}"),
                });
            }
        }
    }

    RepCheckReport {
        mismatches,
        terms_checked: checked,
        terms_skipped: skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use adt_core::SpecBuilder;

    /// Nat with DOUBLE, implemented over i64.
    fn nat_spec() -> Spec {
        let mut b = SpecBuilder::new("Nat");
        let nat = b.sort("Nat");
        let zero = b.ctor("ZERO", [], nat);
        let succ = b.ctor("SUCC", [nat], nat);
        let double = b.op("DOUBLE", [nat], nat);
        let is_zero = b.op("IS_ZERO?", [nat], b.bool_sort());
        let n = Term::Var(b.var("n", nat));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [n.clone()])]), ff);
        b.axiom("d1", b.app(double, [b.app(zero, [])]), b.app(zero, []));
        b.axiom(
            "d2",
            b.app(double, [b.app(succ, [n.clone()])]),
            b.app(succ, [b.app(succ, [b.app(double, [n])])]),
        );
        b.build().unwrap()
    }

    fn int_model(spec: &Spec, broken: bool) -> crate::TableModel<'_> {
        let mut mb = ModelBuilder::new(spec)
            .op("ZERO", |_| MValue::Int(0))
            .op("SUCC", |a| MValue::Int(a[0].as_int().unwrap() + 1))
            .op("IS_ZERO?", |a| MValue::Bool(a[0].as_int() == Some(0)));
        mb = if broken {
            mb.op("DOUBLE", |a| MValue::Int(a[0].as_int().unwrap() * 2 + 1))
        } else {
            mb.op("DOUBLE", |a| MValue::Int(a[0].as_int().unwrap() * 2))
        };
        mb.build().unwrap()
    }

    fn int_phi(spec: &Spec) -> impl Fn(&MValue) -> Term + '_ {
        move |v: &MValue| {
            let zero = spec.sig().find_op("ZERO").unwrap();
            let succ = spec.sig().find_op("SUCC").unwrap();
            let mut t = Term::constant(zero);
            for _ in 0..v.as_int().unwrap() {
                t = Term::App(succ, vec![t]);
            }
            t
        }
    }

    #[test]
    fn correct_implementation_commutes_with_phi() {
        let spec = nat_spec();
        let model = int_model(&spec, false);
        let phi = int_phi(&spec);
        let report = check_representation(&model, &phi, &RepCheckConfig::default());
        assert!(report.passed(), "{}", report.summary());
        assert!(report.terms_checked > 10);
    }

    #[test]
    fn broken_double_is_caught_with_the_term() {
        let spec = nat_spec();
        let model = int_model(&spec, true);
        let phi = int_phi(&spec);
        let report = check_representation(&model, &phi, &RepCheckConfig::default());
        assert!(!report.passed());
        // Every mismatch is a DOUBLE term; observers still agree.
        assert!(
            report
                .mismatches
                .iter()
                .all(|m| m.term.starts_with("DOUBLE")),
            "{}",
            report.summary()
        );
        let first = &report.mismatches[0];
        assert_ne!(first.spec_nf, first.via_impl);
    }

    #[test]
    fn assumption_filters_terms() {
        let spec = nat_spec();
        let model = int_model(&spec, true);
        let phi = int_phi(&spec);
        // Assume DOUBLE is never used: the broken op goes unnoticed —
        // conditional correctness.
        let double = spec.sig().find_op("DOUBLE").unwrap();
        let no_double = move |t: &Term| !matches!(t, Term::App(op, _) if *op == double);
        let cfg = RepCheckConfig {
            assumption: Some(&no_double),
            ..RepCheckConfig::default()
        };
        let report = check_representation(&model, &phi, &cfg);
        assert!(report.passed(), "{}", report.summary());
        assert!(report.terms_skipped > 0);
    }

    #[test]
    fn session_check_agrees_with_fresh_and_warms_the_memo() {
        let spec = nat_spec();
        let model = int_model(&spec, false);
        let phi = int_phi(&spec);
        let fresh = check_representation(&model, &phi, &RepCheckConfig::default());

        let session = Session::new(spec.clone());
        let shared = check_representation_session(&session, &model, &phi, &RepCheckConfig::default());
        assert_eq!(shared.mismatches, fresh.mismatches);
        assert_eq!(shared.terms_checked, fresh.terms_checked);
        assert_eq!(shared.terms_skipped, fresh.terms_skipped);
        // The ground facts derived here live in the session's memo now.
        let stats = session.stats();
        assert!(stats.memo_entries > 0, "{stats:?}");

        // A second run over the same session is answered from the memo.
        let rerun = check_representation_session(&session, &model, &phi, &RepCheckConfig::default());
        assert_eq!(rerun.mismatches, fresh.mismatches);
        assert!(session.stats().memo_hits > 0);
    }

    #[test]
    fn observer_disagreements_are_value_level() {
        let spec = nat_spec();
        // IS_ZERO? inverted.
        let model = ModelBuilder::new(&spec)
            .op("ZERO", |_| MValue::Int(0))
            .op("SUCC", |a| MValue::Int(a[0].as_int().unwrap() + 1))
            .op("DOUBLE", |a| MValue::Int(a[0].as_int().unwrap() * 2))
            .op("IS_ZERO?", |a| MValue::Bool(a[0].as_int() != Some(0)))
            .build()
            .unwrap();
        let phi = int_phi(&spec);
        let report = check_representation(&model, &phi, &RepCheckConfig::default());
        assert!(!report.passed());
        assert!(report
            .mismatches
            .iter()
            .any(|m| m.term.starts_with("IS_ZERO?")));
    }
}
