//! TB-4: the sufficient-completeness checker is mechanizable and cheap
//! (§3 promises a *system* that verifies completeness; this measures that
//! the check scales to specification sizes far beyond anything in the
//! paper).
//!
//! Synthetic family: one sort with `C` constructors (one recursive), `O`
//! observers, each fully case-covered — so the checker does its full
//! partition analysis on every operation. Expected shape: roughly linear
//! in `O × C`.
//!
//! The `phase_*` rows split a whole check of the 512-axiom synthetic spec
//! (8 constructors × 64 observers) into its layers: the sequential
//! critical-pair enumeration, pair joining, normalization of the
//! checker's seeded probe terms, and the completeness analysis. The
//! synthetic spec is orthogonal — it has no critical pairs — so the join
//! row runs on the 256-axiom member with a twin of every axiom (512
//! axioms, 512 pairs that all join). The `pipeline` rows time the whole
//! completeness + consistency check at 1 and 4 workers, each iteration in
//! a session built inside the timed closure, as `adt check` builds one
//! per run; they are end-to-end rows, not a scaling measurement. The
//! completeness rows share one session across iterations: the analysis
//! reads only the session's specification, so it stays cold anyway.

use adt_bench::harness::Group;
use adt_bench::workloads::{synthetic_spec as synthetic, with_twin_axioms};
use adt_check::{
    check_completeness_session, check_consistency_session, probe_terms, CheckConfig, ProbeConfig,
};
use adt_core::Session;
use adt_rewrite::{classify_superposition, superpositions, Rewriter};

fn main() {
    let group = Group::new("checker_scaling");

    for &(ctors, obs) in &[(2usize, 4usize), (4, 16), (8, 32), (16, 64)] {
        let session = Session::new(synthetic(ctors, obs));
        group.bench(&format!("complete/{ctors}ctors_{obs}obs"), || {
            let report =
                check_completeness_session(std::hint::black_box(&session), &CheckConfig::default());
            assert!(report.is_sufficiently_complete());
            report.coverage().len()
        });
    }

    // The incomplete case (witness synthesis) on the paper's own example.
    let incomplete = Session::new(adt_structures::specs::queue_spec_incomplete());
    group.bench("incomplete/queue_minus_axiom4", || {
        let report =
            check_completeness_session(std::hint::black_box(&incomplete), &CheckConfig::default());
        assert_eq!(report.missing_case_count(), 1);
        report.missing_case_count()
    });

    // One check of the 512-axiom spec, phase by phase.
    let spec = synthetic(8, 64);
    group.bench("phase_enumerate/512ax", || {
        superpositions(std::hint::black_box(&spec))
            .expect("enumerates")
            .superpositions
            .len()
    });
    let twins = superpositions(&with_twin_axioms(&synthetic(8, 32))).expect("enumerates");
    let twin_rw = Rewriter::new(&twins.spec);
    group.bench("phase_join/512ax_twins", || {
        let joined = twins
            .superpositions
            .iter()
            .filter(|sp| classify_superposition(&twin_rw, std::hint::black_box(sp)).is_joinable())
            .count();
        assert_eq!(joined, twins.superpositions.len());
        joined
    });
    // Probing is capped at 64 samples so the run stays within the bench
    // budget.
    let probe = ProbeConfig {
        samples: 64,
        ..ProbeConfig::default()
    };
    let probes = probe_terms(&spec, &probe);
    let rw = Rewriter::new(&spec);
    group.bench("phase_probes/512ax_64", || {
        probes
            .iter()
            .map(|t| {
                rw.normalize(std::hint::black_box(t))
                    .expect("normalizes")
                    .size()
            })
            .sum::<usize>()
    });
    let session = Session::new(spec.clone());
    group.bench("phase_completeness/512ax", || {
        let report =
            check_completeness_session(std::hint::black_box(&session), &CheckConfig::default());
        assert!(report.is_sufficiently_complete());
        report.coverage().len()
    });

    // The whole check end to end.
    for jobs in [1usize, 4] {
        let config = CheckConfig::jobs(jobs);
        group.bench(&format!("pipeline/512ax_jobs{jobs}"), || {
            let session = Session::new(std::hint::black_box(&spec).clone());
            let comp = check_completeness_session(&session, &config);
            assert!(comp.is_sufficiently_complete());
            let cons = check_consistency_session(&session, &probe, &config);
            (comp.coverage().len(), cons.pairs_checked())
        });
    }
}
