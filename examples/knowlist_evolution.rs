//! The Knowlist evolution (§4, end): what happens to the Symboltable
//! specification when the compiled language acquires "knows lists".
//!
//! "Because the relationships among the various operations appear
//! explicitly, the process of deciding which axioms must be altered to
//! effect a change is straightforward." This example computes that
//! change mechanically, checks the evolved specification, and runs both
//! the old and new visibility rules side by side.
//!
//! Run with `cargo run --example knowlist_evolution`.

use adt_check::{check_completeness_session, check_consistency_session, CheckConfig, ProbeConfig};
use adt_core::Session;
use adt_structures::specs::{axiom_diff, symboltable_kl_spec, symboltable_spec};
use adt_structures::{AttrList, Ident, KnowList, SymbolTable, SymbolTableKl};

fn main() {
    let before = symboltable_spec();
    let after = symboltable_kl_spec();

    // 1. The mechanical diff: which axioms did the language change touch?
    let diff = axiom_diff(&before, &after);
    println!("axioms changed by the knows-list extension:");
    for (label, old, new) in &diff.changed {
        println!("  [{label}]");
        println!("    before: {old}");
        println!("    after:  {new}");
    }
    println!("axioms added (the new Knowlist layer):");
    for (label, eq) in &diff.only_in_second {
        println!("  [{label}] {eq}");
    }
    println!(
        "axioms untouched: {} of {}\n",
        diff.unchanged.len(),
        before.axioms().len()
    );
    assert_eq!(diff.changed_labels(), vec!["2", "5", "8"]);

    // 2. The evolved specification still checks out.
    let session = Session::new(after.clone());
    let config = CheckConfig::default();
    assert!(check_completeness_session(&session, &config).is_sufficiently_complete());
    assert!(check_consistency_session(&session, &ProbeConfig::default(), &config).is_consistent());
    println!("evolved specification is sufficiently complete and consistent ✓\n");

    // 3. Behavioural comparison on the same program:
    //    outer block declares g; inner block uses g.
    let g = Ident::new("g");
    let attrs = AttrList::new().with("type", "integer");

    let mut classic: SymbolTable = SymbolTable::init();
    classic.add(g.clone(), attrs.clone());
    classic.enter_block();
    println!(
        "classic scope rules:    inner block sees g? {}",
        classic.retrieve(&g).is_ok()
    );

    let mut with_kl: SymbolTableKl = SymbolTableKl::init();
    with_kl.add(g.clone(), attrs.clone());
    with_kl.enter_block(KnowList::create()); // does NOT list g
    println!(
        "knows-list rules (g not listed): inner block sees g? {}",
        with_kl.retrieve(&g).is_ok()
    );
    with_kl.leave_block().unwrap();
    with_kl.enter_block(KnowList::create().append(g.clone()));
    println!(
        "knows-list rules (g listed):     inner block sees g? {}",
        with_kl.retrieve(&g).is_ok()
    );

    assert!(classic.retrieve(&g).is_ok());
    with_kl.leave_block().unwrap();
}
