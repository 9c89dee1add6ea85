//! Golden diagnostics for the term front end: the exact messages and byte
//! spans `parse_term` and `parse` report for ill-formed input, plus the
//! two recursion edge cases of lowering — a term nested exactly to the
//! parser's depth limit, and a chain of conditionals whose `error` leaves
//! only the else-branch can give a sort.

use adt_core::{Spec, Term};
use adt_dsl::{parse, parse_term, Diagnostics};
use adt_rewrite::Rewriter;

const QUEUE: &str = include_str!("../../../specs/queue.adt");

/// The parser's term-nesting limit (`MAX_TERM_DEPTH` in the parser).
const MAX_TERM_DEPTH: usize = 200;

type Golden = &'static [(&'static str, usize, usize)];

fn queue() -> Spec {
    parse(QUEUE).expect("queue.adt parses")
}

fn diags_of<T>(result: Result<T, Diagnostics>) -> Vec<(String, usize, usize)> {
    match result {
        Ok(_) => Vec::new(),
        Err(d) => d
            .items()
            .iter()
            .map(|d| (d.message.clone(), d.span.start, d.span.end))
            .collect(),
    }
}

fn assert_golden(source: &str, actual: Vec<(String, usize, usize)>, expected: Golden) {
    let expected: Vec<(String, usize, usize)> = expected
        .iter()
        .map(|&(m, s, e)| (m.to_owned(), s, e))
        .collect();
    assert_eq!(actual, expected, "source: {source}");
}

/// `REMOVE(…REMOVE(NEW)…)`: `levels` nested terms in all.
fn nested_removes(levels: usize) -> String {
    let n = levels - 1;
    format!("{}NEW{}", "REMOVE(".repeat(n), ")".repeat(n))
}

/// A failed term is reported once: the parser stops at the offending
/// token, and trailing input is only reported after a complete term.
#[test]
fn a_failed_term_reports_one_diagnostic() {
    let spec = queue();
    let too_deep = nested_removes(MAX_TERM_DEPTH + 1);
    let cases: [(&str, Golden); 3] = [
        (
            "FRONT(ADD(NEW, ))",
            &[("expected a term, found `)`", 15, 16)],
        ),
        (
            &too_deep,
            &[("term nesting exceeds 200 levels", 1400, 1403)],
        ),
        (
            "FRONT(ADD(NEW, A) B",
            &[("expected `)`, found `B`", 18, 19)],
        ),
    ];
    for (source, golden) in cases {
        assert_golden(source, diags_of(parse_term(&spec, source)), golden);
    }
    // Trailing input after a well-formed term is still an error.
    let source = "FRONT(ADD(NEW, A)) B";
    assert_golden(
        source,
        diags_of(parse_term(&spec, source)),
        &[("unexpected `B` after the term", 19, 20)],
    );
}

#[test]
fn term_diagnostics_are_pinned() {
    let spec = queue();
    let mut deep = String::from("NEW");
    for k in 0..60 {
        let item = if k == 30 { "NEW" } else { "A" };
        deep = format!("ADD({deep}, {item})");
    }
    let deep = format!("FRONT({deep})");
    let cases: [(&str, Golden); 15] = [
        (
            "FRONT(ADD(ADD(ADD(NEW, A), NEW), B))",
            &[("sort mismatch: expected `Item`, found `Queue`", 27, 30)],
        ),
        (
            &deep,
            &[("sort mismatch: expected `Item`, found `Queue`", 371, 374)],
        ),
        (
            "IS_EMPTY?(REMOVE(ADD(NEW, FRONT(ADD(NEW, IS_EMPTY?(NEW))))))",
            &[("sort mismatch: expected `Item`, found `Bool`", 41, 50)],
        ),
        (
            "ADD(NEW)",
            &[(
                "operation `ADD` expects 2 argument(s) but was given 1",
                0,
                3,
            )],
        ),
        (
            "FRONT",
            &[(
                "operation `FRONT` takes 1 argument(s); write `FRONT(…)`",
                0,
                5,
            )],
        ),
        (
            "FRONT(NEW, NEW)",
            &[(
                "operation `FRONT` expects 1 argument(s) but was given 2",
                0,
                5,
            )],
        ),
        ("FRONT(ADD(NEW, ZZZ))", &[("unknown name `ZZZ`", 15, 18)]),
        ("FOO(NEW)", &[("unknown operation `FOO`", 0, 3)]),
        (
            "error",
            &[(
                "cannot determine the sort of `error` here (left-hand sides may not be `error`)",
                0,
                5,
            )],
        ),
        (
            "if IS_EMPTY?(NEW) then error else error",
            &[(
                "cannot determine the sort of this conditional: neither branch has a \
                 context-free sort (e.g. both are `error`)",
                0,
                2,
            )],
        ),
        (
            "if IS_EMPTY?(NEW) then error else if true then A else NEW",
            &[(
                "cannot determine the sort of this conditional: neither branch has a \
                 context-free sort (e.g. both are `error`)",
                0,
                2,
            )],
        ),
        (
            "if IS_EMPTY?(NEW) then NEW else FRONT(NEW)",
            &[("sort mismatch: expected `Queue`, found `Item`", 32, 37)],
        ),
        (
            "if NEW then A else B",
            &[("sort mismatch: expected `Bool`, found `Queue`", 3, 6)],
        ),
        (
            "FRONT(if IS_EMPTY?(q) then ADD(q, i) else i)",
            &[("sort mismatch: expected `Queue`, found `Item`", 42, 43)],
        ),
        (
            "if IS_EMPTY?(NEW) then if true then error else error else A",
            &[],
        ),
    ];
    for (source, golden) in cases {
        assert_golden(source, diags_of(parse_term(&spec, source)), golden);
    }
}

/// Module lowering reports every axiom's first problem, in source order.
#[test]
fn axiom_diagnostics_are_pinned() {
    let cases: [(&str, Golden); 2] = [
        (
            "type T\nops\n  C: -> T ctor\naxioms\n  [a] error = C\nend",
            &[(
                "cannot determine the sort of `error` here (left-hand sides may not be `error`)",
                39,
                44,
            )],
        ),
        (
            "type T\nparam U\nops\n  C: -> T ctor\n  D: -> U ctor\n  F: T -> T\n  \
             P?: T -> Bool\naxioms\n  [a] F(D) = C\n  [b] F(C) = if P?(C) then C else D\n  \
             [c] F(F(C)) = if C then C else error\n  [d] P?(C) = F(C)\n  \
             [e] F(C, C) = G(C)\nend",
            &[
                ("sort mismatch: expected `T`, found `U`", 92, 93),
                ("sort mismatch: expected `T`, found `U`", 133, 134),
                ("sort mismatch: expected `Bool`, found `T`", 154, 155),
                ("sort mismatch: expected `Bool`, found `T`", 188, 189),
                (
                    "operation `F` expects 1 argument(s) but was given 2",
                    199,
                    200,
                ),
            ],
        ),
    ];
    for (source, golden) in cases {
        assert_golden(source, diags_of(parse(source)), golden);
    }
}

/// Runs `f` on a thread with the 2 MiB stack test threads get by
/// default, so the recursion depth is checked against a fixed budget
/// whatever `RUST_MIN_STACK` says.
fn on_test_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawns")
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}

/// `FRONT(ADD(…ADD(NEW, A)…, C))` nested exactly to the depth limit
/// parses, lowers and normalizes; one level more is refused.
#[test]
fn a_term_at_the_depth_limit_parses_lowers_and_normalizes() {
    on_test_stack(|| {
        let spec = queue();
        let items = ["A", "B", "C"];
        // FRONT, the ADDs, and NEW at the bottom.
        let adds = MAX_TERM_DEPTH - 2;
        let mut text = String::from("NEW");
        for k in 0..adds {
            text = format!("ADD({text}, {})", items[k % 3]);
        }
        let text = format!("FRONT({text})");
        let term = parse_term(&spec, &text).unwrap_or_else(|d| panic!("{}", d.render(&text)));
        assert_eq!(term.depth(), MAX_TERM_DEPTH);
        let nf = Rewriter::new(&spec).normalize(&term).expect("normalizes");
        assert_eq!(nf, spec.sig().apply("A", Vec::new()).expect("constant"));

        let too_deep = format!("IS_EMPTY?({text})");
        let diags = diags_of(parse_term(&spec, &too_deep));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].0, "term nesting exceeds 200 levels");
    });
}

/// A chain of conditionals down the then-branches, every leaf `error`,
/// under no expected sort: no branch of the chain has a context-free
/// sort, so the outermost else-branch types the whole chain.
#[test]
fn a_then_chain_of_errors_takes_the_else_branch_sort() {
    on_test_stack(|| {
        let spec = queue();
        let sig = spec.sig();
        let item = sig.find_sort("Item").expect("Item");
        let new = sig.apply("NEW", Vec::new()).expect("NEW");
        let cond = sig.apply("IS_EMPTY?", vec![new]).expect("well-sorted");
        let links = 60;
        let mut text = String::from("error");
        let mut chain = Term::Error(item);
        for _ in 0..links {
            text = format!("if IS_EMPTY?(NEW) then {text} else error");
            chain = Term::ite(cond.clone(), chain, Term::Error(item));
        }
        let text = format!("if IS_EMPTY?(NEW) then {text} else A");
        let a = sig.apply("A", Vec::new()).expect("A");
        let expected = Term::ite(cond.clone(), chain, a.clone());
        let term = parse_term(&spec, &text).unwrap_or_else(|d| panic!("{}", d.render(&text)));
        assert_eq!(term, expected);
        assert_eq!(term.sort(sig), Ok(item));

        // The same chain with an `A` at the bottom determines its own
        // sort, and the else-branch `error` takes it.
        let text = text.replacen("then error", "then A", 1);
        let term = parse_term(&spec, &text).unwrap_or_else(|d| panic!("{}", d.render(&text)));
        assert_eq!(term.sort(sig), Ok(item));
        assert_eq!(
            Rewriter::new(&spec).normalize(&term).expect("normalizes"),
            a
        );
    });
}
