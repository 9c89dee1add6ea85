//! Session-reuse invariance: one [`Session`] shared across the
//! completeness, consistency, and differential checkers must produce
//! reports byte-identical to fresh-session runs of the same checks, at
//! every job count. The shared arena and the warm memo are performance
//! machinery only — if reuse changes a single report byte, cache reuse
//! has leaked into semantics.

use adt_check::{
    check_completeness_session, check_completeness_with_config, check_consistency_session,
    check_consistency_with_config, probe_terms, CheckConfig, CompletenessReport, ConsistencyReport,
    ProbeConfig,
};
use adt_core::Session;
use adt_rewrite::Rewriter;
use adt_structures::sources;
use adt_verify::{differential_spec_check, differential_spec_check_session, DifferentialConfig};

/// Every observable of a completeness report, folded into one string so
/// comparisons are byte-for-byte.
fn completeness_fingerprint(r: &CompletenessReport) -> String {
    let per_op: Vec<String> = r
        .coverage()
        .iter()
        .map(|c| {
            format!(
                "{}: complete={} axioms={} notes={}",
                c.op_name(),
                c.is_complete(),
                c.axiom_count(),
                c.notes().len()
            )
        })
        .collect();
    format!(
        "sufficient={} missing={} ops=[{}]\n{}",
        r.is_sufficiently_complete(),
        r.missing_case_count(),
        per_op.join("; "),
        r.prompts()
    )
}

/// Every observable of a consistency report, folded into one string.
fn consistency_fingerprint(r: &ConsistencyReport) -> String {
    format!(
        "consistent={} pairs={} unresolved={} probes={} exhausted={}\npairs:\n{}\nprobes:\n{}\n{}",
        r.is_consistent(),
        r.pairs_checked(),
        r.unresolved_pairs(),
        r.probes_run(),
        r.exhausted_probes().len(),
        r.pair_verdicts().join("\n"),
        r.probe_verdicts().join("\n"),
        r.summary()
    )
}

#[test]
fn shared_session_reports_match_fresh_runs_on_every_spec() {
    for jobs in [1, 4] {
        let config = CheckConfig::jobs(jobs);
        let probe = ProbeConfig::default();
        let dcfg = DifferentialConfig::default();
        for (name, source) in sources::all() {
            let spec =
                adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));

            // Fresh-session baseline: each check builds its own state.
            let comp_fresh = check_completeness_with_config(&spec, &config);
            let cons_fresh = check_consistency_with_config(&spec, &probe, &config);
            let diff_fresh = differential_spec_check(&spec, &dcfg);

            // One session carried across all three checks in sequence,
            // so the consistency phase runs against a memo warmed by
            // completeness, and the differential against both.
            let session = Session::new(spec.clone());
            let comp_shared = check_completeness_session(&session, &config);
            let cons_shared = check_consistency_session(&session, &probe, &config);
            let diff_shared = differential_spec_check_session(&session, &dcfg);

            assert_eq!(
                completeness_fingerprint(&comp_fresh),
                completeness_fingerprint(&comp_shared),
                "{name} at {jobs} jobs: completeness"
            );
            assert_eq!(
                consistency_fingerprint(&cons_fresh),
                consistency_fingerprint(&cons_shared),
                "{name} at {jobs} jobs: consistency"
            );
            assert_eq!(
                diff_fresh.render(),
                diff_shared.render(),
                "{name} at {jobs} jobs: differential"
            );
        }
    }
}

#[test]
fn a_reused_session_accumulates_monotone_telemetry() {
    // The point of carrying one session is that later checks see earlier
    // checks' work: counters must only grow, and the checks that
    // normalize must leave memo facts for the ones that follow.
    let spec = sources::load("symboltable").unwrap();
    let session = Session::new(spec.clone());
    let config = CheckConfig::jobs(1);

    // Completeness is a static pattern-coverage analysis: it interns
    // witness terms for missing cases but normalizes nothing, and this
    // spec is sufficiently complete — the session stays untouched.
    check_completeness_session(&session, &config);
    let after_comp = session.stats();
    assert_eq!(after_comp.normalizations, 0);

    check_consistency_session(&session, &ProbeConfig::default(), &config);
    let after_cons = session.stats();
    assert!(after_cons.memo_entries > 0, "consistency left no memo facts");
    assert!(after_cons.interned_terms > 0, "no probe terms were interned");

    differential_spec_check_session(&session, &DifferentialConfig::default());
    let after_diff = session.stats();
    assert!(after_diff.memo_entries >= after_cons.memo_entries);
    assert!(
        after_diff.memo_hits > after_cons.memo_hits,
        "the differential pass never hit the memo consistency warmed"
    );
    assert!(after_diff.interned_terms >= after_cons.interned_terms);
    assert!(after_diff.arena_bytes > 0);

    // An incomplete spec's completeness check does touch the arena: the
    // missing-case witnesses are interned for id-holding consumers.
    let gappy = sources::load("queue_incomplete").unwrap();
    let gappy_session = Session::new(gappy.clone());
    let report = check_completeness_session(&gappy_session, &config);
    assert!(!report.is_sufficiently_complete());
    assert!(
        gappy_session.stats().interned_terms > 0,
        "missing-case witnesses were not interned"
    );
}

#[test]
fn a_warm_session_table_agrees_with_the_reference_engine_on_every_probe() {
    // The consistency check fills the session's normal-form table from
    // its renamed pair spec (a vars-only extension) and from its probes.
    // Every probe term normalized afterwards through that warm table —
    // by id, reading stored normal forms in place — must equal the
    // tree-walking reference engine's answer.
    let probe = ProbeConfig::default();
    for (name, source) in sources::all() {
        let spec =
            adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
        let session = Session::new(spec.clone());
        check_consistency_session(&session, &probe, &CheckConfig::jobs(2));
        let warm = session.stats();
        let reference = Rewriter::new(&spec);
        let rw = Rewriter::for_session(&session);
        for term in probe_terms(&spec, &probe) {
            let want = reference.normalize_reference(&term).map(|n| n.term);
            let got = rw
                .normalize_id(&session, session.intern(&term))
                .map(|nf| session.term(nf));
            assert_eq!(got.is_ok(), want.is_ok(), "{name}: {term:?}");
            if let (Ok(got), Ok(want)) = (got, want) {
                assert_eq!(got, want, "{name}: {term:?}");
            }
        }
        if warm.memo_entries > 0 {
            assert!(
                session.stats().memo_hits > warm.memo_hits,
                "{name}: the probes never hit the warm table"
            );
        }
    }
}
