//! The "spec doctor": run Guttag's mechanical checks over every shipped
//! specification file — the system §3 describes, which "would begin to
//! prompt the user to supply the additional information necessary … to
//! derive a sufficiently complete axiom set".
//!
//! Run with `cargo run --example spec_doctor`.

use adt_check::{
    check_completeness_session, check_consistency_session, classification_warnings,
    overlap_warnings, CheckConfig, ProbeConfig,
};
use adt_core::Session;
use adt_structures::sources;

fn main() {
    let mut incomplete = 0;
    for (name, source) in sources::all() {
        println!("── specs/{name}.adt ──");
        let spec = match adt_dsl::parse(source) {
            Ok(spec) => spec,
            Err(diags) => {
                println!("{}", diags.render(source));
                continue;
            }
        };
        println!(
            "  {} sort(s) of interest, {} operation(s), {} axiom(s)",
            spec.tois().len(),
            spec.sig().op_count(),
            spec.axioms().len()
        );

        let session = Session::new(spec.clone());
        let config = CheckConfig::default();
        let completeness = check_completeness_session(&session, &config);
        if completeness.is_sufficiently_complete() {
            println!("  sufficiently complete ✓");
        } else {
            incomplete += 1;
            // The paper's interactive prompt, verbatim behaviour.
            for line in completeness.prompts().lines() {
                println!("  {line}");
            }
        }

        let consistency = check_consistency_session(&session, &ProbeConfig::default(), &config);
        for line in consistency.summary().lines() {
            println!("  {line}");
        }

        for w in classification_warnings(&spec)
            .into_iter()
            .chain(overlap_warnings(&spec))
        {
            println!("  warning: {w}");
        }
        println!();
    }

    // And show the diagnostics pipeline on a file with real mistakes.
    let broken = r#"
type Stack
ops
  NEWSTACK: -> Stack ctor
  PUSH: Stack, Elem -> Stack ctor
  TOP: Stack -> Elem
vars
  s: Stack
axioms
  [t1] TOP(NEWSTACK) = errr
end
"#;
    println!("── a broken file, for the diagnostics ──");
    match adt_dsl::parse(broken) {
        Ok(_) => unreachable!("the file is broken on purpose"),
        Err(diags) => println!("{}", diags.render(broken)),
    }

    assert_eq!(incomplete, 1, "only queue_incomplete.adt should be flagged");
}
