//! Property-based tests for the specification language: arbitrary
//! well-sorted terms and arbitrary signatures survive the print → parse
//! round trip exactly, and lowering agrees with `Term::sort` on which
//! terms are well-sorted.
//!
//! Terms and signatures are drawn from a seeded [`DetRng`] (96 cases per
//! property), so every run exercises the same inputs.

use adt_core::{display, DetRng, Spec, SpecBuilder, Term};
use adt_dsl::{
    lower_term_in, parse, parse_term, parse_term_source, print_spec, semantically_equal, TermAst,
};

const CASES: usize = 96;

/// A rich fixed signature for term round-trips: queue ops, items, a
/// boolean observer, and declared variables.
fn term_playground() -> Spec {
    let mut b = SpecBuilder::new("Playground");
    let queue = b.sort("Queue");
    let item = b.param_sort("Item");
    b.ctor("NEW", [], queue);
    b.ctor("ADD", [queue, item], queue);
    b.ctor("A", [], item);
    b.ctor("B", [], item);
    b.op("FRONT", [queue], item);
    b.op("REMOVE", [queue], queue);
    b.op("IS_EMPTY?", [queue], b.bool_sort());
    b.var("q", queue);
    b.var("q1", queue);
    b.var("i", item);
    b.var("i1", item);
    b.var("flag", b.bool_sort());
    b.build().unwrap()
}

/// Draws a well-sorted Queue-sorted term of bounded depth.
fn rand_queue_term(spec: &Spec, depth: u32, rng: &mut DetRng) -> Term {
    let sig = spec.sig();
    let new = sig.find_op("NEW").unwrap();
    let add = sig.find_op("ADD").unwrap();
    let remove = sig.find_op("REMOVE").unwrap();
    let q = sig.find_var("q").unwrap();
    let q1 = sig.find_var("q1").unwrap();
    let queue = sig.find_sort("Queue").unwrap();

    let leaf = |rng: &mut DetRng| match rng.below(4) {
        0 => Term::constant(new),
        1 => Term::Var(q),
        2 => Term::Var(q1),
        _ => Term::Error(queue),
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.below(4) {
        0 => leaf(rng),
        1 => {
            let qt = rand_queue_term(spec, depth - 1, rng);
            let it = rand_item_term(spec, depth - 1, rng);
            Term::App(add, vec![qt, it])
        }
        2 => Term::App(remove, vec![rand_queue_term(spec, depth - 1, rng)]),
        _ => {
            let c = rand_bool_term(spec, depth - 1, rng);
            let t = rand_queue_term(spec, depth - 1, rng);
            let e = rand_queue_term(spec, depth - 1, rng);
            Term::ite(c, t, e)
        }
    }
}

/// Draws a well-sorted Item-sorted term.
fn rand_item_term(spec: &Spec, depth: u32, rng: &mut DetRng) -> Term {
    let sig = spec.sig();
    let a = sig.find_op("A").unwrap();
    let b_ = sig.find_op("B").unwrap();
    let front = sig.find_op("FRONT").unwrap();
    let i = sig.find_var("i").unwrap();
    let i1 = sig.find_var("i1").unwrap();
    let item = sig.find_sort("Item").unwrap();
    let leaf = |rng: &mut DetRng| match rng.below(5) {
        0 => Term::constant(a),
        1 => Term::constant(b_),
        2 => Term::Var(i),
        3 => Term::Var(i1),
        _ => Term::Error(item),
    };
    if depth == 0 {
        return leaf(rng);
    }
    if rng.flip() {
        leaf(rng)
    } else {
        Term::App(front, vec![rand_queue_term(spec, depth - 1, rng)])
    }
}

/// Draws a well-sorted Bool-sorted term.
fn rand_bool_term(spec: &Spec, depth: u32, rng: &mut DetRng) -> Term {
    let sig = spec.sig();
    let is_empty = sig.find_op("IS_EMPTY?").unwrap();
    let flag = sig.find_var("flag").unwrap();
    let leaf = |rng: &mut DetRng| match rng.below(3) {
        0 => sig.tt(),
        1 => sig.ff(),
        _ => Term::Var(flag),
    };
    if depth == 0 {
        return leaf(rng);
    }
    if rng.flip() {
        leaf(rng)
    } else {
        Term::App(is_empty, vec![rand_queue_term(spec, depth - 1, rng)])
    }
}

/// print(term) reparses to exactly the same term. The one genuinely
/// ambiguous shape — a conditional whose branches are *both* `error`
/// all the way down, which no context-free reading can sort — is
/// excluded by assumption.
#[test]
fn term_print_parse_round_trip() {
    let spec = term_playground();
    let mut rng = DetRng::new(0xD51_0001);
    for _ in 0..CASES {
        let t = rand_queue_term(&spec, 4, &mut rng);
        let rendered = display::term(spec.sig(), &t).to_string();
        match parse_term(&spec, &rendered) {
            Ok(reparsed) => assert_eq!(reparsed, t, "source: {rendered}"),
            Err(e) if e.to_string().contains("cannot determine the sort") => {
                // Both-branches-error conditionals are unparseable without
                // context by design; everything else must round-trip.
                continue;
            }
            Err(e) => panic!("{rendered}: {e}"),
        }
    }
}

/// Arbitrary signatures (sorts, constructors, operations of random
/// arities) survive print_spec → parse.
#[test]
fn signature_print_parse_round_trip() {
    let mut rng = DetRng::new(0xD51_0002);
    for _ in 0..CASES {
        let toi_count = 1 + rng.below(3);
        let param_count = rng.below(3);
        let op_seed = rng.next_u64();

        let mut b = SpecBuilder::new("Gen");
        let mut tois = Vec::new();
        for k in 0..toi_count {
            tois.push(b.sort(&format!("S{k}")));
        }
        let mut params = Vec::new();
        for k in 0..param_count {
            params.push(b.param_sort(&format!("P{k}")));
        }
        // Every sort of interest gets a nullary constructor; some get a
        // recursive one; derived ops get pseudo-random signatures.
        let mut state = op_seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for (k, &s) in tois.iter().enumerate() {
            b.ctor(&format!("BASE{k}"), [], s);
            if next() % 2 == 0 {
                b.ctor(&format!("STEP{k}"), [s], s);
            }
        }
        let all_sorts: Vec<_> = tois.iter().chain(params.iter()).copied().collect();
        for k in 0..(next() % 5) {
            let arity = (next() % 3) as usize;
            let args: Vec<_> = (0..arity)
                .map(|_| all_sorts[(next() as usize) % all_sorts.len()])
                .collect();
            let result = if next() % 4 == 0 {
                b.bool_sort()
            } else {
                all_sorts[(next() as usize) % all_sorts.len()]
            };
            b.op(&format!("OP{k}?"), args, result);
        }
        let spec = b.build().expect("generated signatures are valid");
        let printed = print_spec(&spec);
        let reparsed = match parse(&printed) {
            Ok(s) => s,
            Err(e) => panic!("{printed}\n{}", e.render(&printed)),
        };
        assert!(semantically_equal(&spec, &reparsed), "printed:\n{printed}");
    }
}

/// Every context-free leaf of the playground, across all three sorts.
fn leaf_pool(spec: &Spec) -> Vec<Term> {
    let sig = spec.sig();
    let mut pool: Vec<Term> = ["NEW", "A", "B"]
        .iter()
        .map(|n| Term::constant(sig.find_op(n).unwrap()))
        .collect();
    pool.extend(
        ["q", "q1", "i", "i1", "flag"]
            .iter()
            .map(|n| Term::Var(sig.find_var(n).unwrap())),
    );
    pool.push(sig.tt());
    pool.push(sig.ff());
    pool
}

/// Draws a well-sorted term of a random sort.
fn rand_term(spec: &Spec, rng: &mut DetRng) -> Term {
    match rng.below(3) {
        0 => rand_queue_term(spec, 5, rng),
        1 => rand_item_term(spec, 5, rng),
        _ => rand_bool_term(spec, 5, rng),
    }
}

/// Child-index paths of the nodes a single mutation can target: leaves
/// that are not `error`, and applications with at least one argument.
/// Conditionals count their condition, then- and else-branch as 0, 1, 2.
fn mutable_paths(t: &Term, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    match t {
        Term::Var(_) => out.push(path.clone()),
        Term::Error(_) => {}
        Term::App(_, args) => {
            out.push(path.clone());
            for (k, a) in args.iter().enumerate() {
                path.push(k);
                mutable_paths(a, path, out);
                path.pop();
            }
        }
        Term::Ite(ite) => {
            for (k, c) in [&ite.cond, &ite.then_branch, &ite.else_branch]
                .into_iter()
                .enumerate()
            {
                path.push(k);
                mutable_paths(c, path, out);
                path.pop();
            }
        }
    }
}

fn term_at_mut<'a>(t: &'a mut Term, path: &[usize]) -> &'a mut Term {
    let Some((&k, rest)) = path.split_first() else {
        return t;
    };
    let child = match t {
        Term::App(_, args) => &mut args[k],
        Term::Ite(ite) => [&mut ite.cond, &mut ite.then_branch, &mut ite.else_branch]
            .into_iter()
            .nth(k)
            .unwrap(),
        _ => unreachable!("paths only descend into compound terms"),
    };
    term_at_mut(child, rest)
}

fn ast_at<'a>(ast: &'a TermAst, path: &[usize]) -> &'a TermAst {
    let Some((&k, rest)) = path.split_first() else {
        return ast;
    };
    let child = match ast {
        TermAst::App { args, .. } => &args[k],
        TermAst::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => [cond, then_branch, else_branch][k].as_ref(),
        _ => unreachable!("paths only descend into compound terms"),
    };
    ast_at(child, rest)
}

/// `Term::sort` is the oracle for lowering. A printed well-sorted term
/// lowers back to itself at its own sort, and the sort lowering settles
/// on is the oracle's: the same source against any other sort fails, and
/// for a term headed by a name, with the mismatch reported at the root.
#[test]
fn lowering_agrees_with_the_sort_oracle_on_well_sorted_terms() {
    let spec = term_playground();
    let sig = spec.sig();
    let sorts = ["Queue", "Item"]
        .map(|n| sig.find_sort(n).unwrap())
        .into_iter()
        .chain([sig.bool_sort()])
        .collect::<Vec<_>>();
    let mut rng = DetRng::new(0xD51_0003);
    for _ in 0..CASES {
        let t = rand_term(&spec, &mut rng);
        let sort = t.sort(sig).unwrap();
        let rendered = display::term(sig, &t).to_string();
        let ast = parse_term_source(&rendered).unwrap();
        assert_eq!(
            lower_term_in(sig, &ast, Some(sort)),
            Ok(t.clone()),
            "source: {rendered}"
        );
        match lower_term_in(sig, &ast, None) {
            Ok(lowered) => assert_eq!(lowered, t, "source: {rendered}"),
            Err(e) => assert!(
                e.to_string().contains("cannot determine the sort"),
                "{rendered}: {e}"
            ),
        }
        if matches!(t, Term::Error(_)) {
            continue; // `error` takes whatever sort its context expects
        }
        for &other in sorts.iter().filter(|&&s| s != sort) {
            let diags = lower_term_in(sig, &ast, Some(other)).unwrap_err();
            if matches!(ast, TermAst::If { .. }) {
                continue; // the branches carry the expectation down
            }
            let first = &diags.items()[0];
            assert_eq!(first.span, ast.span(), "source: {rendered}");
            assert_eq!(
                first.message,
                format!(
                    "sort mismatch: expected `{}`, found `{}`",
                    sig.sort(other).name(),
                    sig.sort(sort).name()
                ),
                "source: {rendered}"
            );
        }
    }
}

/// A single seeded mutation at a random node — a leaf swapped for a leaf
/// of any sort, or an argument dropped — makes lowering fail exactly when
/// the oracle rejects the mutated term, and the first diagnostic points
/// at the mutated node.
#[test]
fn lowering_fails_exactly_where_the_sort_oracle_does() {
    let spec = term_playground();
    let sig = spec.sig();
    let pool = leaf_pool(&spec);
    let mut rng = DetRng::new(0xD51_0004);
    let (mut rejected, mut accepted) = (0usize, 0usize);
    for _ in 0..CASES * 4 {
        let original = rand_term(&spec, &mut rng);
        let sort = original.sort(sig).unwrap();
        let mut paths = Vec::new();
        mutable_paths(&original, &mut Vec::new(), &mut paths);
        if paths.is_empty() {
            continue;
        }
        let path = &paths[rng.below(paths.len())];
        let mut mutated = original.clone();
        match term_at_mut(&mut mutated, path) {
            Term::App(_, args) if !args.is_empty() => {
                args.remove(rng.below(args.len()));
            }
            node => *node = pool[rng.below(pool.len())].clone(),
        }
        let oracle_ok = mutated.sort(sig) == Ok(sort);
        let rendered = display::term(sig, &mutated).to_string();
        let ast = parse_term_source(&rendered).unwrap();
        match lower_term_in(sig, &ast, Some(sort)) {
            Ok(lowered) => {
                assert!(oracle_ok, "lowering accepted {rendered}");
                assert_eq!(lowered, mutated, "source: {rendered}");
                accepted += 1;
            }
            Err(diags) => {
                assert!(!oracle_ok, "lowering rejected {rendered}: {diags}");
                assert_eq!(
                    diags.items()[0].span,
                    ast_at(&ast, path).span(),
                    "source: {rendered}: {diags}"
                );
                rejected += 1;
            }
        }
    }
    assert!(
        rejected > CASES && accepted > CASES / 8,
        "{rejected} / {accepted}"
    );
}
