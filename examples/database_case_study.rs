//! §5's closing claim, end to end: "A database management system …
//! might be completely characterized by an algebraic specification of
//! the various operations available to users."
//!
//! This example treats `specs/database.adt` as the *contract* of a tiny
//! keyed store, runs transactions against the bare axioms (symbolic
//! interpretation), then wires up a hand-written Rust engine and checks
//! it against the same axioms — the full development cycle the paper
//! advocates, on a type it never worked out itself.
//!
//! Run with `cargo run --example database_case_study`.

use adt_check::{check_completeness_session, check_consistency_session, CheckConfig, ProbeConfig};
use adt_core::Session;
use adt_rewrite::SymbolicSession;
use adt_verify::{check_axioms, AxiomCheckConfig, MValue, ModelBuilder};

/// The "production" engine: a last-write-wins keyed store. (Deliberately
/// simple — the point is the methodology, not the engine.)
#[derive(Debug, Clone, Default)]
struct Store {
    rows: Vec<(String, String)>, // newest first
}

impl Store {
    fn put(&mut self, k: &str, v: &str) {
        self.rows.insert(0, (k.to_owned(), v.to_owned()));
    }
    fn del(&mut self, k: &str) {
        self.rows.retain(|(key, _)| key != k);
    }
    fn get(&self, k: &str) -> Option<&str> {
        self.rows
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    }
    fn size(&self) -> i64 {
        let mut seen: Vec<&str> = Vec::new();
        for (k, _) in &self.rows {
            if !seen.contains(&k.as_str()) {
                seen.push(k);
            }
        }
        seen.len() as i64
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = adt_structures::sources::DATABASE;
    let spec = adt_dsl::parse(source).map_err(|e| e.render(source))?;

    // 1. The contract checks out mechanically.
    let session = Session::new(spec.clone());
    let config = CheckConfig::default();
    assert!(check_completeness_session(&session, &config).is_sufficiently_complete());
    assert!(check_consistency_session(&session, &ProbeConfig::default(), &config).is_consistent());
    println!("database contract: sufficiently complete and consistent ✓");

    // 2. Run a transaction against the axioms alone.
    let sig = spec.sig();
    let mut tx = SymbolicSession::new(&spec);
    tx.assign("db", "EMPTYDB", [])?;
    tx.assign(
        "db",
        "PUT",
        [
            "db".into(),
            sig.apply("K1", vec![])?.into(),
            sig.apply("V1", vec![])?.into(),
        ],
    )?;
    tx.assign(
        "db",
        "PUT",
        [
            "db".into(),
            sig.apply("K2", vec![])?.into(),
            sig.apply("V2", vec![])?.into(),
        ],
    )?;
    tx.assign(
        "db",
        "PUT",
        [
            "db".into(),
            sig.apply("K1", vec![])?.into(),
            sig.apply("V3", vec![])?.into(),
        ],
    )?;
    let got = tx.call("GET", ["db".into(), sig.apply("K1", vec![])?.into()])?;
    println!(
        "symbolic GET(db, K1) after overwrite = {}",
        adt_core::display::term(sig, &got)
    );
    assert_eq!(got, sig.apply("V3", vec![])?);
    let size = tx.call("SIZE", ["db".into()])?;
    println!(
        "symbolic SIZE(db) = {} (duplicate PUT did not inflate it)",
        adt_core::display::term(sig, &size)
    );

    // 3. Wire the Rust engine to the same contract and verify it.
    let store = |v: &MValue| -> Store { v.downcast::<Store>().unwrap().clone() };
    let mut b = ModelBuilder::new(&spec)
        .op("EMPTYDB", |_| MValue::data(Store::default()))
        .op("PUT", move |args| {
            let mut s = store(&args[0]);
            s.put(args[1].as_str().unwrap(), args[2].as_str().unwrap());
            MValue::data(s)
        })
        .op("DEL", move |args| {
            let mut s = store(&args[0]);
            s.del(args[1].as_str().unwrap());
            MValue::data(s)
        })
        .op("GET", move |args| {
            match store(&args[0]).get(args[1].as_str().unwrap()) {
                Some(v) => MValue::Str(v.to_owned()),
                None => MValue::Error,
            }
        })
        .op("HAS?", move |args| {
            MValue::Bool(store(&args[0]).get(args[1].as_str().unwrap()).is_some())
        })
        .op("SIZE", move |args| MValue::Int(store(&args[0]).size()))
        .op("SAMEKEY?", |args| {
            MValue::Bool(args[0].as_str() == args[1].as_str())
        })
        .op("ZERO", |_| MValue::Int(0))
        .op("SUCC", |args| MValue::Int(args[0].as_int().unwrap() + 1))
        .eq("Database", move |a, b| {
            let (x, y) = match (a.downcast::<Store>(), b.downcast::<Store>()) {
                (Some(x), Some(y)) => (x, y),
                _ => return false,
            };
            ["K1", "K2", "K3"].iter().all(|k| x.get(k) == y.get(k))
        });
    for name in ["K1", "K2", "K3", "V1", "V2", "V3"] {
        b = b.op(name, move |_| MValue::Str(name.to_owned()));
    }
    let model = b.build()?;

    let report = check_axioms(&model, &AxiomCheckConfig::default());
    println!(
        "engine vs contract: {} instances, {} counterexamples",
        report.instances_checked,
        report.counterexamples.len()
    );
    assert!(report.passed(), "{}", report.summary());
    println!("the Rust engine is a model of the database axioms ✓");
    Ok(())
}
