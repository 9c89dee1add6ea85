//! `adt-perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process and prints, last on stdout, one JSON
//! line with `correct`, `attempted`, `failed` and `metrics`. Exits 1 if an
//! operation gave a wrong answer, 2 if set-up failed (no result line).

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use adt_perfbench::{run, Args};

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "adt-perfbench: {msg}\nusage: adt-perfbench --workload W --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args, process_start, |_| {}) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("adt-perfbench: set-up failed: {msg}");
            return ExitCode::from(2);
        }
    };
    if let (Some(spans), Some(dir)) = (&outcome.spans, &args.out_dir) {
        let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("adt-perfbench: cannot write {}: {e}", path.display());
        }
    }
    for reason in &outcome.failures {
        eprintln!("adt-perfbench: FAILED: {reason}");
    }
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "env {}", outcome.env);
    for (name, value, unit) in &outcome.metrics {
        let _ = writeln!(out, "metric {name} {value} {unit}");
    }
    let _ = writeln!(out, "{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
