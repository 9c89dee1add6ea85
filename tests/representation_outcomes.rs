//! The §4 proof pinned outcome by outcome: every Symboltable obligation
//! against the Stack-of-Arrays representation, with and without
//! Assumption 1, down to the case counts of proved obligations and the
//! trail, assumptions and normal forms of failed ones. The proof search
//! shares one rule set across all its case splits; this table is what it
//! must keep producing.

use adt_core::Session;
use adt_structures::specs::{symboltable_spec, symtab_rep_op_map, symtab_rep_spec};
use adt_verify::{
    translate_obligations, verify_obligation, verify_obligation_session, Obligation,
    ObligationOutcome, ProofConfig,
};

fn obligations() -> (adt_core::Spec, Vec<Obligation>) {
    translate_obligations(
        &symboltable_spec(),
        &symtab_rep_spec(),
        &symtab_rep_op_map(),
        Some("PHI"),
    )
    .unwrap()
}

fn assumption_1() -> ProofConfig {
    ProofConfig::default().restrict("Stack", &["PUSH"])
}

/// The failure of axioms 6 and 9 without Assumption 1: the empty stack,
/// under `ISSAME?(id, id1) = true`, where the representation yields
/// `error` and the abstract side does not.
fn failed_on_the_empty_stack(rhs_nf: &str) -> ObligationOutcome {
    ObligationOutcome::Failed {
        trail: vec!["symtab := NEWSTACK".to_owned()],
        assumptions: vec!["ISSAME?(id, id1) = true".to_owned()],
        lhs_nf: "error".to_owned(),
        rhs_nf: rhs_nf.to_owned(),
    }
}

#[test]
fn every_obligation_is_proved_under_assumption_1_in_one_case() {
    let (ext, obs) = obligations();
    assert_eq!(obs.len(), 18);
    let cfg = assumption_1();
    for ob in &obs {
        assert_eq!(
            verify_obligation(&ext, ob, &cfg).unwrap(),
            ObligationOutcome::Proved { cases: 1 },
            "axiom {}",
            ob.label
        );
    }
}

#[test]
fn without_assumption_1_only_axioms_6_and_9_fail_and_exactly_so() {
    let (ext, obs) = obligations();
    let cfg = ProofConfig::default();
    for ob in &obs {
        let expected = match ob.label.as_str() {
            "2" | "3" => ObligationOutcome::Proved { cases: 2 },
            "6" => failed_on_the_empty_stack("true"),
            "9" => failed_on_the_empty_stack("attrs"),
            _ => ObligationOutcome::Proved { cases: 1 },
        };
        assert_eq!(
            verify_obligation(&ext, ob, &cfg).unwrap(),
            expected,
            "axiom {}",
            ob.label
        );
    }
}

#[test]
fn session_proofs_equal_fresh_proofs_for_every_obligation() {
    let (ext, obs) = obligations();
    // One session across both configurations and all obligations, so
    // later proofs run against a memo warmed by earlier ones.
    let session = Session::new(ext.clone());
    for cfg in [assumption_1(), ProofConfig::default()] {
        for ob in &obs {
            assert_eq!(
                verify_obligation_session(&session, ob, &cfg).unwrap(),
                verify_obligation(&ext, ob, &cfg).unwrap(),
                "axiom {} under {:?}",
                ob.label,
                cfg.restrictions
            );
        }
    }
    assert!(session.stats().memo_entries > 0);
}
