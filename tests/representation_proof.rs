//! EX-6: the mechanical proof that the Stack-of-Arrays representation
//! satisfies the Symboltable axioms (§4) — the proof the paper reports
//! was "done completely mechanically by David Musser", reproduced by
//! term rewriting with case analysis.
//!
//! See `conditional_correctness.rs` for the Assumption-1 half (axioms
//! that hold only in legal environments).

use adt_check::{check_completeness_session, CheckConfig};
use adt_core::Session;
use adt_structures::specs::{symboltable_spec, symtab_rep_op_map, symtab_rep_spec};
use adt_verify::{translate_obligations, verify_obligation, ObligationKind, ProofConfig};

/// Axioms whose proof needs Assumption 1 (see EX-7); everything else must
/// go through unconditionally.
const CONDITIONAL_AXIOMS: [&str; 2] = ["6", "9"];

#[test]
fn representation_level_spec_is_sufficiently_complete() {
    let rep = symtab_rep_spec();
    let report = check_completeness_session(&Session::new(rep), &CheckConfig::default());
    assert!(report.is_sufficiently_complete(), "{}", report.prompts());
}

#[test]
fn obligations_translate_with_the_right_kinds() {
    let abs = symboltable_spec();
    let rep = symtab_rep_spec();
    let (_ext, obligations) =
        translate_obligations(&abs, &rep, &symtab_rep_op_map(), Some("PHI")).unwrap();
    // 9 paper axioms + 9 ISSAME? ground axioms.
    assert_eq!(obligations.len(), 18);
    // Axioms 1–3 range over Symboltable: Φ-wrapped. 4–9 range over Bool /
    // AttributeList: direct.
    for ob in &obligations {
        let expected = match ob.label.as_str() {
            "1" | "2" | "3" => ObligationKind::Phi,
            _ => ObligationKind::Direct,
        };
        assert_eq!(ob.kind, expected, "axiom {}", ob.label);
    }
}

#[test]
fn axioms_1_through_8_except_6_verify_unconditionally() {
    let abs = symboltable_spec();
    let rep = symtab_rep_spec();
    let (ext, obligations) =
        translate_obligations(&abs, &rep, &symtab_rep_op_map(), Some("PHI")).unwrap();
    let cfg = ProofConfig::default();
    for ob in &obligations {
        if CONDITIONAL_AXIOMS.contains(&ob.label.as_str()) {
            continue;
        }
        let outcome = verify_obligation(&ext, ob, &cfg).unwrap();
        assert!(
            outcome.is_proved(),
            "axiom {} should verify unconditionally: {outcome:#?}",
            ob.label
        );
    }
}

#[test]
fn all_nine_axioms_verify_under_assumption_1() {
    // Assumption 1: "For any term ADD'(symtab, id, attr),
    // IS_NEWSTACK?(symtab) = false" — i.e. symbol-table stacks occurring
    // in legal programs are PUSH-built. As a case restriction: variables
    // of sort Stack range over PUSH terms only.
    let abs = symboltable_spec();
    let rep = symtab_rep_spec();
    let (ext, obligations) =
        translate_obligations(&abs, &rep, &symtab_rep_op_map(), Some("PHI")).unwrap();
    let cfg = ProofConfig::default().restrict("Stack", &["PUSH"]);
    let mut proved = 0;
    for ob in &obligations {
        let outcome = verify_obligation(&ext, ob, &cfg).unwrap();
        assert!(
            outcome.is_proved(),
            "axiom {} should verify under Assumption 1: {outcome:#?}",
            ob.label
        );
        proved += 1;
    }
    assert_eq!(proved, 18);
}

#[test]
fn the_proof_needs_the_constructor_instantiation() {
    // Axiom 9 does not follow by plain normalization of the open
    // obligation: the stack variable must be instantiated to its
    // (Assumption-1-legal) PUSH form before the sides join. Forbidding
    // constructor case analysis (case_depth = 0) must therefore fail,
    // and allowing one round must succeed.
    let abs = symboltable_spec();
    let rep = symtab_rep_spec();
    let (ext, obligations) =
        translate_obligations(&abs, &rep, &symtab_rep_op_map(), Some("PHI")).unwrap();
    let ob9 = obligations.iter().find(|o| o.label == "9").unwrap();

    let mut no_cases = ProofConfig::default().restrict("Stack", &["PUSH"]);
    no_cases.case_depth = 0;
    assert!(
        !verify_obligation(&ext, ob9, &no_cases).unwrap().is_proved(),
        "axiom 9 should not follow without instantiating the stack variable"
    );

    let mut one_round = no_cases.clone();
    one_round.case_depth = 1;
    assert!(
        verify_obligation(&ext, ob9, &one_round)
            .unwrap()
            .is_proved(),
        "one round of PUSH instantiation should close axiom 9"
    );
}
