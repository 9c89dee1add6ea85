//! Thread-safety stress tests for the id-keyed rewrite memo: many threads
//! normalizing through one shared memoizing [`Rewriter`] must produce
//! exactly the normal forms the sequential engine produces, with no
//! deadlock — the property the parallel checking engine relies on when it
//! shares a rewriter across its worker pool. Also: the session table
//! under concurrent interning, isolation between memos, terms far deeper
//! than the native stack crossing the memo boundary, and the publication
//! rules — only a successful, context-free run with the memo's own rules
//! adds anything to it.

use adt_core::{CancelToken, DetRng, Fuel, Rule, Session, SessionStats, Supervisor, Term};
use adt_rewrite::{RewriteError, Rewriter};
use adt_structures::specs::{queue_spec, symboltable_spec};

/// Builds a ground Queue term of `adds` enqueues then `removes` dequeues,
/// with items drawn from a seeded stream.
fn queue_term(spec: &adt_core::Spec, adds: usize, removes: usize, rng: &mut DetRng) -> adt_core::Term {
    let sig = spec.sig();
    let items = ["A", "B", "C"];
    let mut t = sig.apply("NEW", vec![]).unwrap();
    for _ in 0..adds {
        let item = sig.apply(items[rng.below(3)], vec![]).unwrap();
        t = sig.apply("ADD", vec![t, item]).unwrap();
    }
    for _ in 0..removes {
        t = sig.apply("REMOVE", vec![t]).unwrap();
    }
    t
}

#[test]
fn concurrent_normalization_matches_sequential_normal_forms() {
    let spec = queue_spec();
    let sig = spec.sig();

    // A workload with heavy shared structure: observers over overlapping
    // queue states, so threads race on the same memo entries.
    let mut rng = DetRng::new(0xC0_FFEE);
    let mut terms = Vec::new();
    for _ in 0..48 {
        let adds = 1 + rng.below(24);
        let removes = rng.below(adds);
        let state = queue_term(&spec, adds, removes, &mut rng);
        let op = ["FRONT", "IS_EMPTY?", "REMOVE"][rng.below(3)];
        terms.push(sig.apply(op, vec![state]).unwrap());
    }

    // Sequential ground truth from a plain (unmemoized) rewriter.
    let plain = Rewriter::new(&spec).with_fuel(1_000_000_000);
    let expected: Vec<_> = terms.iter().map(|t| plain.normalize(t).unwrap()).collect();

    // One shared memoizing rewriter, hammered from 8 threads, each
    // walking the whole term list in a different order.
    let memo = Rewriter::new(&spec).with_fuel(1_000_000_000).memoizing();
    std::thread::scope(|scope| {
        for offset in 0..8 {
            let memo = &memo;
            let terms = &terms;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..3 {
                    for k in 0..terms.len() {
                        let idx = (k * (offset + 1) + round * 7) % terms.len();
                        let nf = memo.normalize(&terms[idx]).unwrap();
                        assert_eq!(nf, expected[idx], "term {idx} from thread {offset}");
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_symboltable_queries_share_one_memo() {
    let spec = symboltable_spec();
    let sig = spec.sig();

    // One deep state, many observers — the access pattern the memo is
    // for: every thread's RETRIEVE shares the state's subterms.
    let mut state = sig.apply("INIT", vec![]).unwrap();
    let attr = sig.apply("ATTR_1", vec![]).unwrap();
    let idents = ["ID_X", "ID_Y", "ID_Z"];
    for k in 0..12 {
        if k % 5 == 0 {
            state = sig.apply("ENTERBLOCK", vec![state]).unwrap();
        }
        let id = sig.apply(idents[k % 3], vec![]).unwrap();
        state = sig.apply("ADD", vec![state, id, attr.clone()]).unwrap();
    }
    let queries: Vec<_> = (0..idents.len())
        .map(|k| {
            let id = sig.apply(idents[k], vec![]).unwrap();
            sig.apply("RETRIEVE", vec![state.clone(), id]).unwrap()
        })
        .collect();

    let plain = Rewriter::new(&spec).with_fuel(1_000_000_000);
    let expected: Vec<_> = queries.iter().map(|t| plain.normalize(t).unwrap()).collect();

    let memo = Rewriter::new(&spec).with_fuel(1_000_000_000).memoizing();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let memo = &memo;
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..4 {
                    for (q, want) in queries.iter().zip(expected) {
                        assert_eq!(&memo.normalize(q).unwrap(), want);
                    }
                }
            });
        }
    });
}

#[test]
fn memoized_results_stay_correct_after_concurrent_warmup() {
    // After the concurrent phase has filled the cache, single-threaded
    // reads must still agree with the plain engine (no torn entries).
    let spec = queue_spec();
    let sig = spec.sig();
    let mut rng = DetRng::new(7);
    let deep = queue_term(&spec, 32, 16, &mut rng);
    let front = sig.apply("FRONT", vec![deep]).unwrap();

    let plain = Rewriter::new(&spec).with_fuel(1_000_000_000);
    let want = plain.normalize(&front).unwrap();

    let memo = Rewriter::new(&spec).with_fuel(1_000_000_000).memoizing();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let memo = &memo;
            let front = &front;
            scope.spawn(move || memo.normalize(front).unwrap());
        }
    });
    assert_eq!(memo.normalize(&front).unwrap(), want);
}

#[test]
fn session_table_exports_race_main_thread_interning() {
    // Pool workers normalize by id through the session table (publishing
    // facts into the session arena) while the main thread keeps interning
    // unrelated terms into the same arena. Every normal form must match
    // the sequential engine, and every id the main thread got must still
    // denote its term afterwards.
    let spec = queue_spec();
    let sig = spec.sig();
    let mut rng = DetRng::new(0x5E55);
    let mut terms = Vec::new();
    for _ in 0..32 {
        let adds = 1 + rng.below(20);
        let removes = rng.below(adds);
        let state = queue_term(&spec, adds, removes, &mut rng);
        let op = ["FRONT", "IS_EMPTY?", "REMOVE"][rng.below(3)];
        terms.push(sig.apply(op, vec![state]).unwrap());
    }
    let plain = Rewriter::new(&spec).with_fuel(1_000_000_000);
    let expected: Vec<_> = terms.iter().map(|t| plain.normalize(t).unwrap()).collect();

    let session = Session::new(spec.clone());
    let ids: Vec<_> = terms.iter().map(|t| session.intern(t)).collect();
    let mut noise = Vec::new();
    std::thread::scope(|scope| {
        for offset in 0..4 {
            let (session, ids) = (&session, &ids);
            scope.spawn(move || {
                let rw = Rewriter::for_session(session).with_fuel(1_000_000_000);
                (0..ids.len())
                    .map(|k| {
                        let idx = (k * (2 * offset + 1) + offset) % ids.len();
                        (idx, rw.normalize_id(session, ids[idx]).unwrap())
                    })
                    .collect::<Vec<_>>()
            });
        }
        let mut noise_rng = DetRng::new(99);
        for _ in 0..200 {
            let t = queue_term(&spec, 1 + noise_rng.below(40), 0, &mut noise_rng);
            noise.push((session.intern(&t), t));
        }
    });
    for (idx, want) in expected.iter().enumerate() {
        let nf = Rewriter::for_session(&session)
            .normalize_id(&session, ids[idx])
            .unwrap();
        assert_eq!(&session.term(nf), want, "term {idx}");
    }
    for (id, t) in &noise {
        assert!(session.term_eq(*id, t));
    }
    assert!(session.stats().memo_entries > 0);
}

#[test]
fn facts_never_cross_memos_or_sessions() {
    let spec = queue_spec();
    let sig = spec.sig();
    let mut rng = DetRng::new(11);
    let front = sig
        .apply("FRONT", vec![queue_term(&spec, 24, 3, &mut rng)])
        .unwrap();
    let cold = Rewriter::new(&spec).normalize_full(&front).unwrap();
    assert!(cold.steps > 0);

    // Two memoizing rewriters: the second is as cold as a plain one,
    // while a clone of the first shares its facts.
    let first = Rewriter::new(&spec).memoizing();
    assert_eq!(first.normalize_full(&front).unwrap(), cold);
    assert_eq!(first.clone().normalize_full(&front).unwrap().steps, 0);
    let second = Rewriter::new(&spec).memoizing();
    assert_eq!(second.normalize_full(&front).unwrap(), cold);

    // Two sessions: warming one leaves the other's table empty.
    let warm = Session::new(spec.clone());
    let id = warm.intern(&front);
    let nf = Rewriter::for_session(&warm)
        .normalize_id(&warm, id)
        .unwrap();
    assert_eq!(warm.term(nf), cold.term);
    assert!(warm.stats().memo_entries > 0);
    let other = Session::new(spec.clone());
    assert_eq!(other.stats().memo_entries, 0);
    let rw = Rewriter::for_session(&other);
    let norm = rw.normalize_full(&front).unwrap();
    assert_eq!(norm, cold, "a fresh session replays nothing");
    assert_eq!(other.stats().memo_hits, 0);
    // A memoizing rewriter normalizing by id into a session keeps its
    // private facts out of the session table, and vice versa.
    let private = Rewriter::new(&spec).memoizing();
    let third = Session::new(spec.clone());
    let id3 = third.intern(&front);
    let nf3 = private.normalize_id(&third, id3).unwrap();
    assert_eq!(third.term(nf3), cold.term);
    assert_eq!(third.stats().memo_entries, 0);
    assert_eq!(private.normalize_full(&front).unwrap().steps, 0);
}

#[test]
fn deep_ground_queues_cross_the_memo_boundary_without_native_recursion() {
    // A 50k-deep queue. The evaluator recurses once per level, so the
    // session table is warmed in 5000-level chunks, each bottoming out in
    // the previous chunk's memo hit under a depth cap raised just past
    // the chunk; that, and building and dropping the input `Term`s (whose
    // clone and drop recurse), runs on a thread with a large stack. The
    // final queries then move whole 50k-deep terms across the boundary —
    // copied out of one session, hit in the table, the normal form copied
    // into another — on a thread with a small stack, where any native
    // recursion over the term would overflow.
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            use adt_core::Term;
            let spec = queue_spec();
            let sig = spec.sig();
            let (n, chunk) = (50_000, 5_000);
            let add = sig.find_op("ADD").unwrap();
            let remove = sig.find_op("REMOVE").unwrap();
            let is_empty = sig.find_op("IS_EMPTY?").unwrap();
            let items = [
                Term::constant(sig.find_op("A").unwrap()),
                Term::constant(sig.find_op("B").unwrap()),
            ];
            let budget = Fuel::default().with_max_depth(chunk + 64);
            let session = Session::new(spec.clone());
            let rw = Rewriter::for_session(&session).with_budget(budget);
            // Raw construction: `Signature::apply` sort-checks recursively.
            let mut state = Term::constant(sig.find_op("NEW").unwrap());
            let mut rest = state.clone();
            for k in 0..n {
                state = Term::App(add, vec![state, items[k % 2].clone()]);
                if k > 0 {
                    rest = Term::App(add, vec![rest, items[k % 2].clone()]);
                }
                if (k + 1) % chunk == 0 {
                    rw.normalize(&Term::App(remove, vec![state.clone()]))
                        .unwrap();
                }
            }
            let query = Term::App(remove, vec![state]);
            let outer = Term::App(is_empty, vec![query.clone()]);
            let other = Session::new(spec.clone());

            std::thread::scope(|scope| {
                std::thread::Builder::new()
                    .stack_size(1 << 20)
                    .spawn_scoped(scope, || {
                        // Into another session through this table: the
                        // query is copied by id into the table's arena and
                        // hit there, and the 50k-deep normal form is
                        // copied into a session holding none of it.
                        let nf = rw.normalize_id(&other, other.intern(&query)).unwrap();
                        assert!(other.term_eq(nf, &rest));
                        assert_eq!(other.stats().rewrite_steps, 0);
                        assert_eq!(other.stats().memo_entries, 0);

                        // In the table's own session: a new root whose
                        // argument's normal form is read in place on a
                        // hit, so only IS_EMPTY? fires.
                        let answer = rw.normalize_id(&session, session.intern(&outer)).unwrap();
                        assert_eq!(session.term(answer), sig.ff());
                        assert_eq!(session.stats().rewrite_steps, 1);
                    })
                    .expect("spawns")
                    .join()
                    .expect("memo traffic must not recurse over the term");
            });
        })
        .expect("spawns")
        .join()
        .expect("deep memo traffic must not overflow the stack");
}

#[test]
fn an_extended_rewriter_does_not_write_into_the_session_memo() {
    // An extra rule turns ADD(NEW, A) into ADD(NEW, B). Whatever the
    // extended rewriter derives with it must stay out of the session:
    // the spec's own answer to FRONT(ADD(NEW, A)) is A.
    let spec = queue_spec();
    let sig = spec.sig();
    let new = sig.apply("NEW", vec![]).unwrap();
    let item = |name: &str| sig.apply(name, vec![]).unwrap();
    let with_a = sig.apply("ADD", vec![new.clone(), item("A")]).unwrap();
    let with_b = sig.apply("ADD", vec![new, item("B")]).unwrap();
    let query = sig.apply("FRONT", vec![with_a.clone()]).unwrap();

    let session = Session::new(spec.clone());
    let mut extended = Rewriter::for_session(&session);
    extended.add_rule(Rule::new("a_to_b", with_a, with_b));
    assert_eq!(extended.normalize(&query).unwrap(), item("B"));
    let id = session.intern(&query);
    let nf = extended.normalize_id(&session, id).unwrap();
    assert_eq!(session.term(nf), item("B"));

    let nf = Rewriter::for_session(&session)
        .normalize_id(&session, id)
        .unwrap();
    assert_eq!(session.term(nf), item("A"), "the session memo was poisoned");
    let tree = Rewriter::for_session(&session).normalize(&query).unwrap();
    assert_eq!(tree, item("A"));
}

/// The symbol-table state after `ops` random operations, drawn from `rng`.
fn symtab_state(spec: &adt_core::Spec, ops: usize, rng: &mut DetRng) -> Term {
    let sig = spec.sig();
    let ids = ["ID_X", "ID_Y", "ID_Z"];
    let attrs = ["ATTR_1", "ATTR_2", "ATTR_3"];
    let mut state = sig.apply("INIT", vec![]).unwrap();
    for _ in 0..ops {
        state = match rng.below(6) {
            0 => sig.apply("ENTERBLOCK", vec![state]).unwrap(),
            1 => sig.apply("LEAVEBLOCK", vec![state]).unwrap(),
            _ => {
                let id = sig.apply(ids[rng.below(3)], vec![]).unwrap();
                let attr = sig.apply(attrs[rng.below(3)], vec![]).unwrap();
                sig.apply("ADD", vec![state, id, attr]).unwrap()
            }
        };
    }
    state
}

/// The memo-visible part of a session's stats.
fn footprint(stats: &SessionStats) -> (usize, usize) {
    (stats.interned_terms, stats.memo_entries)
}

#[test]
fn failed_assumption_and_traced_runs_publish_nothing() {
    let spec = symboltable_spec();
    let sig = spec.sig();
    let mut rng = DetRng::new(21);
    let state = symtab_state(&spec, 12, &mut rng);
    let id_x = sig.apply("ID_X", vec![]).unwrap();
    let query = sig.apply("RETRIEVE", vec![state, id_x.clone()]).unwrap();
    let session = Session::new(spec.clone());
    let qid = session.intern(&query);
    let before = footprint(&session.stats());
    let unchanged = |what: &str| assert_eq!(footprint(&session.stats()), before, "{what}");

    // Out of fuel after one step, by id and as a tree.
    let starved = Rewriter::for_session(&session).with_budget(Fuel::steps(1));
    let exhausted =
        |r: Result<(), RewriteError>| matches!(r, Err(RewriteError::Exhausted { .. }));
    assert!(exhausted(starved.normalize_id(&session, qid).map(drop)));
    assert!(exhausted(starved.normalize(&query).map(drop)));
    unchanged("exhausted runs");

    // Cancelled before the first step.
    let token = CancelToken::new();
    token.cancel();
    let cancelled =
        Rewriter::for_session(&session).supervised(Supervisor::none().with_cancel(token));
    let interrupted =
        |r: Result<(), RewriteError>| matches!(r, Err(RewriteError::Interrupted { .. }));
    assert!(interrupted(cancelled.normalize_id(&session, qid).map(drop)));
    assert!(interrupted(cancelled.normalize(&query).map(drop)));
    unchanged("interrupted runs");

    // Under an assumption, and traced: both succeed, neither publishes.
    let rw = Rewriter::for_session(&session);
    let assumption = sig.apply("ISSAME?", vec![id_x.clone(), id_x]).unwrap();
    let want = Rewriter::new(&spec).normalize(&query).unwrap();
    assert_eq!(rw.normalize_under(&query, &[(assumption, true)]).unwrap(), want);
    unchanged("a run under assumptions");
    let (nf, trace) = rw.normalize_traced(&query).unwrap();
    assert_eq!(nf, want);
    assert!(!trace.axioms_used().is_empty());
    unchanged("a traced run");

    // The same query, run plainly, does publish.
    let nf = rw.normalize_id(&session, qid).unwrap();
    assert_eq!(session.term(nf), want);
    let after = footprint(&session.stats());
    assert!(after.1 > before.1, "a successful run records its facts");
}

#[test]
fn eight_threads_on_one_session_agree_with_the_reference_engine() {
    // Every thread interns its own queries into the shared session while
    // the others run and publish, and asks for them in its own order.
    let spec = symboltable_spec();
    let sig = spec.sig();
    let mut rng = DetRng::new(0x5EED);
    let mut queries = Vec::new();
    for _ in 0..40 {
        let state = symtab_state(&spec, 4 + rng.below(40), &mut rng);
        let id = sig.apply(["ID_X", "ID_Y", "ID_Z"][rng.below(3)], vec![]).unwrap();
        let op = ["RETRIEVE", "IS_INBLOCK?"][rng.below(2)];
        queries.push(sig.apply(op, vec![state, id]).unwrap());
    }
    let reference = Rewriter::new(&spec);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| reference.normalize_reference(q).map(|n| n.term))
        .collect();

    let session = Session::new(spec.clone());
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (session, queries, expected) = (&session, &queries, &expected);
            scope.spawn(move || {
                let rw = Rewriter::for_session(session);
                for round in 0..2 {
                    for k in 0..queries.len() {
                        let idx = (k * (2 * t + 1) + round * 5 + t) % queries.len();
                        let qid = session.intern(&queries[idx]);
                        let got = rw.normalize_id(session, qid).map(|nf| session.term(nf));
                        match (&got, &expected[idx]) {
                            (Ok(got), Ok(want)) => assert_eq!(got, want, "query {idx}, thread {t}"),
                            (got, want) => assert_eq!(got.is_ok(), want.is_ok(), "query {idx}"),
                        }
                    }
                }
            });
        }
    });
    assert!(session.stats().memo_entries > 0);
}
