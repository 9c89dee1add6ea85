//! The §5 "multiple return values" workaround, exercised: DIVMOD returns
//! a Pair whose components observers project out. Also a stress test of
//! the rewrite engine on genuinely recursive arithmetic (repeated
//! subtraction, nested recursion in TIMES), and more induction fodder.

use adt_check::{check_completeness_session, check_consistency_session, CheckConfig, ProbeConfig};
use adt_core::{Session, Spec, Term};
use adt_rewrite::Rewriter;
use adt_structures::sources;
use adt_verify::{prove_by_induction, InductionOutcome};

fn spec() -> Spec {
    sources::load("arithmetic").unwrap()
}

fn nat(spec: &Spec, n: u64) -> Term {
    let zero = spec.sig().find_op("ZERO").unwrap();
    let succ = spec.sig().find_op("SUCC").unwrap();
    let mut t = Term::constant(zero);
    for _ in 0..n {
        t = Term::App(succ, vec![t]);
    }
    t
}

fn un_nat(spec: &Spec, t: &Term) -> Option<u64> {
    let zero = spec.sig().find_op("ZERO").unwrap();
    let succ = spec.sig().find_op("SUCC").unwrap();
    let mut n = 0;
    let mut cur = t;
    loop {
        match cur {
            Term::App(op, args) if *op == succ => {
                n += 1;
                cur = &args[0];
            }
            Term::App(op, _) if *op == zero => return Some(n),
            _ => return None,
        }
    }
}

#[test]
fn the_spec_checks_out() {
    let spec = spec();
    let session = Session::new(spec.clone());
    let config = CheckConfig::default();
    let report = check_completeness_session(&session, &config);
    assert!(report.is_sufficiently_complete(), "{}", report.prompts());
    assert!(check_consistency_session(&session, &ProbeConfig::default(), &config).is_consistent());
    assert!(adt_check::overlap_warnings(&spec).is_empty());
}

#[test]
fn division_with_remainder_computes() {
    let spec = spec();
    let rw = Rewriter::new(&spec).with_fuel(10_000_000);
    let sig = spec.sig();
    for (n, m) in [(17u64, 5u64), (12, 4), (3, 7), (0, 3), (25, 1)] {
        let dm = sig
            .apply("DIVMOD", vec![nat(&spec, n), nat(&spec, m)])
            .unwrap();
        let quot = rw
            .normalize(&sig.apply("QUOT", vec![dm.clone()]).unwrap())
            .unwrap();
        let rem = rw.normalize(&sig.apply("REM", vec![dm]).unwrap()).unwrap();
        assert_eq!(un_nat(&spec, &quot), Some(n / m), "quotient of {n}/{m}");
        assert_eq!(un_nat(&spec, &rem), Some(n % m), "remainder of {n}/{m}");
    }
}

#[test]
fn division_by_zero_is_error() {
    let spec = spec();
    let rw = Rewriter::new(&spec);
    let sig = spec.sig();
    let pair_sort = sig.find_sort("Pair").unwrap();
    let nat_sort = sig.find_sort("Nat").unwrap();
    let dm = sig
        .apply("DIVMOD", vec![nat(&spec, 9), nat(&spec, 0)])
        .unwrap();
    assert_eq!(rw.normalize(&dm).unwrap(), Term::Error(pair_sort));
    // Error propagates through the projections.
    let quot = sig.apply("QUOT", vec![dm]).unwrap();
    assert_eq!(rw.normalize(&quot).unwrap(), Term::Error(nat_sort));
}

#[test]
fn multiplication_and_subtraction_compute() {
    let spec = spec();
    let rw = Rewriter::new(&spec).with_fuel(10_000_000);
    let sig = spec.sig();
    for (a, b) in [(0u64, 5u64), (3, 4), (7, 7), (9, 2)] {
        let prod = rw
            .normalize(
                &sig.apply("TIMES", vec![nat(&spec, a), nat(&spec, b)])
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(un_nat(&spec, &prod), Some(a * b));
        let diff = rw
            .normalize(
                &sig.apply("SUB", vec![nat(&spec, a), nat(&spec, b)])
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(un_nat(&spec, &diff), Some(a.saturating_sub(b)));
    }
}

#[test]
fn division_identity_holds_on_ground_instances() {
    // n = q*m + r with r < m — the defining property of DIVMOD, checked
    // by computing both sides for a grid of inputs.
    let spec = spec();
    let rw = Rewriter::new(&spec).with_fuel(50_000_000);
    let sig = spec.sig();
    for n in 0..12u64 {
        for m in 1..5u64 {
            let dm = sig
                .apply("DIVMOD", vec![nat(&spec, n), nat(&spec, m)])
                .unwrap();
            let recomposed = sig
                .apply(
                    "PLUS",
                    vec![
                        sig.apply(
                            "TIMES",
                            vec![sig.apply("QUOT", vec![dm.clone()]).unwrap(), nat(&spec, m)],
                        )
                        .unwrap(),
                        sig.apply("REM", vec![dm.clone()]).unwrap(),
                    ],
                )
                .unwrap();
            let lhs = rw.normalize(&recomposed).unwrap();
            assert_eq!(un_nat(&spec, &lhs), Some(n), "{n} divmod {m}");
            // And the remainder is in range.
            let in_range = sig
                .apply(
                    "LT?",
                    vec![sig.apply("REM", vec![dm]).unwrap(), nat(&spec, m)],
                )
                .unwrap();
            assert_eq!(rw.normalize(&in_range).unwrap(), sig.tt());
        }
    }
}

#[test]
fn sub_n_n_is_zero_by_induction() {
    let spec = spec();
    let n = spec.sig().find_var("n").unwrap();
    let lhs = spec
        .sig()
        .apply("SUB", vec![Term::Var(n), Term::Var(n)])
        .unwrap();
    let zero = nat(&spec, 0);
    let outcome = prove_by_induction(&spec, &lhs, &zero, n, 4).unwrap();
    assert!(
        matches!(outcome, InductionOutcome::Proved { .. }),
        "{outcome:?}"
    );
}

#[test]
fn lt_is_irreflexive_by_induction() {
    let spec = spec();
    let n = spec.sig().find_var("n").unwrap();
    let lhs = spec
        .sig()
        .apply("LT?", vec![Term::Var(n), Term::Var(n)])
        .unwrap();
    let outcome = prove_by_induction(&spec, &lhs, &spec.sig().ff(), n, 4).unwrap();
    assert!(
        matches!(outcome, InductionOutcome::Proved { .. }),
        "{outcome:?}"
    );
}
