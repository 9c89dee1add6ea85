//! Golden checker verdicts for every specification shipped in `specs/`:
//! completeness verdict, missing-case count, and consistency verdict are
//! pinned, so a regression in either checker (or an accidental edit to a
//! spec file) shows up as a one-line diff against this table.
//!
//! `queue_incomplete` is the paper's deliberate defect — Queue with
//! axiom 4 dropped — and must *stay* incomplete with exactly one missing
//! case (`FRONT(ADD(queue_1, item_1)) = ?`).

use adt_check::{check_completeness_session, check_consistency_session, CheckConfig, ProbeConfig};
use adt_core::Session;
use adt_structures::sources;

/// (name, sufficiently complete, missing cases, consistent)
const GOLDEN: &[(&str, bool, usize, bool)] = &[
    ("queue", true, 0, true),
    ("queue_incomplete", false, 1, true),
    ("stack", true, 0, true),
    ("array", true, 0, true),
    ("symboltable", true, 0, true),
    ("symboltable_rep", true, 0, true),
    ("knowlist", true, 0, true),
    ("symboltable_kl", true, 0, true),
    ("list", true, 0, true),
    ("set", true, 0, true),
    ("database", true, 0, true),
    ("arithmetic", true, 0, true),
];

#[test]
fn every_shipped_spec_matches_its_golden_verdicts() {
    let all = sources::all();
    assert_eq!(
        all.len(),
        GOLDEN.len(),
        "spec added or removed — update the golden table"
    );
    for (name, source) in all {
        let (_, complete, missing, consistent) = *GOLDEN
            .iter()
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("no golden row for `{name}` — update the table"));
        let spec =
            adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
        let session = Session::new(spec);
        let config = CheckConfig::default();
        let comp = check_completeness_session(&session, &config);
        assert_eq!(
            comp.is_sufficiently_complete(),
            complete,
            "{name}: completeness verdict drifted\n{}",
            comp.prompts()
        );
        assert_eq!(
            comp.missing_case_count(),
            missing,
            "{name}: missing-case count drifted\n{}",
            comp.prompts()
        );
        let cons = check_consistency_session(&session, &ProbeConfig::default(), &config);
        assert_eq!(
            cons.is_consistent(),
            consistent,
            "{name}: consistency verdict drifted\n{}",
            cons.summary()
        );
    }
}

#[test]
fn the_incomplete_queue_prompt_is_stable() {
    let spec = sources::load("queue_incomplete").unwrap();
    let report = check_completeness_session(&Session::new(spec), &CheckConfig::default());
    assert!(report
        .prompts()
        .contains("FRONT(ADD(queue_1, item_1)) = ?"));
}
