//! Golden engine counters for every specification shipped in `specs/`:
//! the rewrite steps and the session memo entries, hits and misses that
//! `adt check --jobs 1 --stats` reports are pinned, so a change to the
//! rewrite engine, the memo or the probe sampling that moves any of them
//! shows up as a one-row diff against this table.
//!
//! Only `--jobs 1` is pinned. With several workers the session memo is
//! filled concurrently, so which probe sees which fact first — and with
//! it the hit/miss split and the step count — races between workers
//! (knowlist has been seen at 114 and 115 steps at `--jobs 4`).

use std::path::Path;

/// (spec, rewrite steps, memo entries, memo hits, memo misses)
const GOLDEN: &[(&str, u64, u64, u64, u64)] = &[
    ("arithmetic", 91, 75, 249, 75),
    ("array", 155, 50, 295, 50),
    ("database", 303, 96, 443, 96),
    ("knowlist", 114, 23, 280, 23),
    ("list", 63, 115, 266, 115),
    ("queue", 170, 45, 214, 45),
    ("queue_incomplete", 48, 31, 104, 31),
    ("set", 145, 43, 332, 43),
    ("stack", 72, 44, 199, 44),
    ("symboltable", 147, 91, 316, 91),
    ("symboltable_kl", 150, 94, 317, 94),
    ("symboltable_rep", 243, 214, 377, 214),
];

/// The number just before `marker` on the first line that starts with
/// `prefix` and contains `marker` (e.g. `170` from
/// `…, 170 rewrite step(s)`).
fn counter(output: &str, prefix: &str, marker: &str) -> u64 {
    let line = output
        .lines()
        .find(|l| l.starts_with(prefix) && l.contains(marker))
        .unwrap_or_else(|| panic!("no `{prefix}…{marker}` line in:\n{output}"));
    let before = line.split(marker).next().unwrap_or_default().trim_end();
    before
        .rsplit(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("no count before `{marker}` in `{line}`"))
}

#[test]
fn jobs_1_stats_counters_match_the_golden_table() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut shipped: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_suffix(".adt").map(str::to_owned)
        })
        .collect();
    shipped.sort();
    let pinned: Vec<&str> = GOLDEN.iter().map(|row| row.0).collect();
    assert_eq!(shipped, pinned, "spec added or removed — update the table");

    for &(name, steps, entries, hits, misses) in GOLDEN {
        let path = dir.join(format!("{name}.adt"));
        let args: Vec<String> = ["check", "--jobs", "1", "--stats", path.to_str().unwrap()]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let out = adt_cli::run(&args).output;
        let got = (
            counter(&out, "stats: 1 job(s)", "rewrite step"),
            counter(&out, "stats: session memo", "entr"),
            counter(&out, "stats: session memo", "hit(s) /"),
            counter(&out, "stats: session memo", "miss(es)"),
        );
        assert_eq!(got, (steps, entries, hits, misses), "{name}:\n{out}");
        assert_eq!(
            counter(&out, "stats: session ", "rewrite step"),
            steps,
            "{name}: session steps differ from the checker's:\n{out}"
        );
    }
}
