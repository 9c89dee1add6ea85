//! One interned workspace from DSL to CLI: [`Session`], the normal-form
//! memo it owns, and the [`SessionStats`] observability choke point.
//!
//! The pipeline used to re-create its world on every call: each
//! completeness item, consistency probe, and verification pass built its
//! own rewriter, re-compiled the axioms into rules, and re-interned terms
//! into a throwaway arena. A [`Session`] owns all of that shared state
//! once — the [`Spec`] (and so the [`Signature`]), the compiled
//! [`RuleSet`], one long-lived hash-consing [`TermArena`] with the
//! cross-run normal-form table over its ids (together an [`NfMemo`]), and
//! a session-level root-query cache — and every layer borrows it instead
//! of rebuilding it.
//!
//! # Id-boundary rules
//!
//! [`TermId`]s handed out by [`Session::intern`] are *session-local*: they
//! index the session arena and are meaningless anywhere else. A
//! normalization run that carries the session's memo evaluates over the
//! session arena itself:
//!
//! * **One read guard per run.** The run takes the arena's read lock once
//!   ([`NfMemo::read`]) and holds it to the end, reading session ids and
//!   the normal-form table in place. Nodes the run creates go to a
//!   run-local overlay ([`TermArena::over`]) whose ids continue the
//!   session's, and which hash-conses against the arena without
//!   allocating, so equal terms keep equal ids for the whole run. No lock
//!   is taken while a rule fires.
//! * **One publication per run.** A run that succeeds publishes its
//!   context-free facts, and the overlay nodes they (or a normal form
//!   handed back as a session id) reach, under one write lock
//!   ([`NfMemo::publish`]). Facts derived under assumptions or while
//!   tracing are never recorded, and a run that fails publishes nothing.
//! * **No lock is awaited while another is held.** The read guard is
//!   dropped before the write lock is requested, and no thread holds two
//!   arena guards at once, so neither a writer queued behind readers nor
//!   two memos used in opposite orders can deadlock.
//!
//! Materializing a [`Term`] from an id is always allowed (it is how
//! anything escapes the session); storing a foreign arena's ids in the
//! session — or session ids in any artifact that outlives the session —
//! never is.
//!
//! # Memo-soundness rule
//!
//! The [`NfMemo`] maps an id of its arena to the id of its normal form.
//! Ids stand for terms built from [`crate::OpId`], [`crate::SortId`] and
//! [`crate::VarId`] *indices*, so sharing one memo between two rewriters
//! is sound only when their rule sets agree and their signatures assign
//! the same indices to the same operations and sorts: extending a
//! signature with **variables only** (case splits, superposition
//! renamings) preserves both — and memo facts are ground, so they never
//! mention a variable — while minting new operations (induction skolem
//! constants) or adding rules (induction hypotheses, or any
//! `add_rule`) does not. Passes that extend the signature with
//! operations or the rules must keep private, memo-less rewriters.
//!
//! # Why the root-query cache is separate
//!
//! The session's root-query cache ([`Session::cached_nf`]) answers a root
//! query only with the answer recorded for that root, non-ground roots
//! included (`adt eval 'FRONT(ADD(q, i))'`, a symbolic REPL line).
//! Folded into the memo table, a root query would be answered by any
//! fact about its term, also one learned while evaluating another query,
//! and would stop counting as a normalization — changing what
//! [`SessionStats::normalizations`] reports. The table would also hold
//! facts about terms with variables: evaluation never reads those (it
//! consults the table only at ground applications), but the rule that
//! makes sharing the table sound — every fact is ground — would no
//! longer hold as stated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::arena::{IdMap, TermArena, TermId};
use crate::rules::RuleSet;
use crate::signature::Signature;
use crate::spec::Spec;
use crate::term::Term;

/// A hash-consing arena and the normal-form facts recorded over its ids.
#[derive(Debug, Default)]
struct MemoStore {
    arena: TermArena<'static>,
    /// `nf[id.index()]` is the normal form of `id`, densely by id.
    nf: Vec<Option<TermId>>,
    /// Facts recorded (the `Some` entries of `nf`).
    entries: usize,
}

/// A normal-form memo: one append-only [`TermArena`] plus a table that
/// maps the id of a ground term to the id of its normal form, both behind
/// one `RwLock`.
///
/// A [`Session`] owns one, and its arena *is* the session arena, so the
/// ids [`Session::intern`] hands out are the memo's ids. A memoizing
/// rewriter that is not bound to a session owns a private one.
///
/// A run reads the memo through one [`MemoRead`] guard and records what
/// it learned with one [`NfMemo::publish`] (see the module docs). The
/// memo stores only context-free facts (ground term → normal form), so
/// any interleaving of publications from a worker pool yields the same
/// lookups — sharing one memo across threads cannot change results.
///
/// Hit/miss totals are counted with relaxed atomics; they are telemetry
/// (surfaced through [`SessionStats`]) and never affect results.
#[derive(Debug, Default)]
pub struct NfMemo {
    store: RwLock<MemoStore>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One run's read access to an [`NfMemo`]: its arena, to evaluate over in
/// an overlay, and its normal-form table. Holds the read lock until
/// dropped, so the arena cannot change under the run's ids.
#[derive(Debug)]
pub struct MemoRead<'m> {
    memo: &'m NfMemo,
    store: RwLockReadGuard<'m, MemoStore>,
}

impl MemoRead<'_> {
    /// The memo arena.
    pub fn arena(&self) -> &TermArena<'static> {
        &self.store.arena
    }

    /// The recorded normal form of `id`, counted as a hit or a miss. An
    /// id past the arena (an overlay's own node) has no fact.
    pub fn lookup(&self, id: TermId) -> Option<TermId> {
        let found = self.store.nf.get(id.index()).copied().flatten();
        let counter = if found.is_some() {
            &self.memo.hits
        } else {
            &self.memo.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }
}

impl NfMemo {
    /// An empty memo over an empty arena.
    pub fn new() -> Self {
        NfMemo::default()
    }

    /// Read access for one run. Drop it before calling anything that
    /// writes to this memo (or its session), [`NfMemo::publish`] first.
    pub fn read(&self) -> MemoRead<'_> {
        MemoRead {
            memo: self,
            store: self.store.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    fn write(&self) -> RwLockWriteGuard<'_, MemoStore> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes one successful run under one write lock: each fact
    /// `(term, normal form)` and each of `roots`, in the ids of a run over
    /// the memo arena whose overlay was detached as `top`
    /// ([`TermArena::detach`]), is adopted into the memo arena — the
    /// overlay nodes they reach that the arena lacks are interned — and
    /// the facts are recorded. Returns the memo ids of `roots`, in order.
    ///
    /// Another run may have recorded the same fact meanwhile; the first
    /// record stands (both are the same normal form). With no facts and
    /// only base roots, no lock is taken.
    pub fn publish(
        &self,
        top: &TermArena<'_>,
        facts: &[(TermId, TermId)],
        roots: &[TermId],
    ) -> Vec<TermId> {
        if facts.is_empty() && roots.iter().all(|&r| top.in_base(r)) {
            return roots.to_vec();
        }
        let mut store = self.write();
        let MemoStore { arena, nf, entries } = &mut *store;
        let mut map = IdMap::default();
        for &(key, value) in facts {
            let key = arena.adopt(top, key, &mut map);
            let value = arena.adopt(top, value, &mut map);
            if nf.len() <= key.index() {
                nf.resize(arena.len(), None);
            }
            if nf[key.index()].is_none() {
                nf[key.index()] = Some(value);
                *entries += 1;
            }
        }
        roots.iter().map(|&r| arena.adopt(top, r, &mut map)).collect()
    }
}

/// A snapshot of a session's observability counters.
///
/// Everything here is *telemetry*: two runs of the same checks produce
/// identical reports but different stats (memo hits depend on what ran
/// before). Report comparisons must never include these figures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Distinct term nodes in the session arena: interned queries and
    /// normal forms, and the terms of the memo's facts.
    pub interned_terms: usize,
    /// Approximate bytes held by the session arena.
    pub arena_bytes: usize,
    /// Cross-run memo lookup hits.
    pub memo_hits: u64,
    /// Cross-run memo lookup misses.
    pub memo_misses: u64,
    /// Facts currently in the cross-run memo.
    pub memo_entries: usize,
    /// Session-level normal-form cache hits (id-keyed; the cheapest path).
    pub nf_cache_hits: u64,
    /// Normalizations routed through the session.
    pub normalizations: u64,
    /// Rewrite steps performed by those normalizations.
    pub rewrite_steps: u64,
}

impl SessionStats {
    /// Renders the stats in the `adt check --stats` format.
    pub fn render(&self) -> String {
        let mut out = format!(
            "stats: session arena {} term(s), ~{} byte(s)\n",
            self.interned_terms, self.arena_bytes
        );
        out.push_str(&format!(
            "stats: session memo {} entr{}, {} hit(s) / {} miss(es), nf-cache {} hit(s)\n",
            self.memo_entries,
            if self.memo_entries == 1 { "y" } else { "ies" },
            self.memo_hits,
            self.memo_misses,
            self.nf_cache_hits
        ));
        out.push_str(&format!(
            "stats: session {} normalization(s), {} rewrite step(s)\n",
            self.normalizations, self.rewrite_steps
        ));
        out
    }
}

/// One long-lived engine workspace: the specification, its compiled
/// rules, a shared hash-consing term arena with the cross-run
/// normal-form table over its ids, and a session-level root-query cache,
/// plus the counters behind [`SessionStats`].
///
/// A session is `Sync`: the arena and its memo table sit behind one
/// `RwLock`, taken at API boundaries (interning in, materializing out),
/// for reading by each normalization run and for writing by each run's
/// publication, and the counters are atomics. Rules fire under the read
/// lock only, so any number of runs proceed together.
///
/// ```
/// use adt_core::{Session, SpecBuilder, Term};
///
/// let mut b = SpecBuilder::new("Tiny");
/// let s = b.sort("S");
/// let c = b.ctor("C", [], s);
/// b.op("F", [s], s);
/// let spec = b.build()?;
///
/// let session = Session::new(spec);
/// let t = session.sig().apply("F", vec![session.sig().apply("C", vec![])?])?;
/// let id = session.intern(&t);
/// assert_eq!(session.intern(&t), id, "equal terms intern to the same id");
/// assert_eq!(session.term(id), t);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Session {
    spec: Spec,
    rules: RuleSet,
    /// The session arena and the cross-run normal-form table over it.
    memo: Arc<NfMemo>,
    /// Session-id → session-id normal forms of the *root* queries routed
    /// through the session API, non-ground ones included, kept apart from
    /// the memo table (see the module docs for why). Sound because entries
    /// are only recorded by engines running the session's own rule set.
    nf_cache: Mutex<IdMap<TermId>>,
    nf_hits: AtomicU64,
    normalizations: AtomicU64,
    rewrite_steps: AtomicU64,
}

impl Session {
    /// Builds a session for `spec`, compiling its axioms once.
    pub fn new(spec: Spec) -> Self {
        let rules = RuleSet::from_spec(&spec);
        Session {
            spec,
            rules,
            memo: Arc::new(NfMemo::new()),
            nf_cache: Mutex::new(IdMap::default()),
            nf_hits: AtomicU64::new(0),
            normalizations: AtomicU64::new(0),
            rewrite_steps: AtomicU64::new(0),
        }
    }

    /// The specification this session serves.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The specification's signature.
    pub fn sig(&self) -> &Signature {
        self.spec.sig()
    }

    /// The compiled rule set (the specification's axioms).
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The session arena with its cross-run normal-form table. Clone the
    /// `Arc` to share it with a rewriter — see the module docs for when
    /// that is sound.
    pub fn memo(&self) -> &Arc<NfMemo> {
        &self.memo
    }

    /// Interns a term into the session arena (write lock; boundary only).
    pub fn intern(&self, term: &Term) -> TermId {
        self.memo.write().arena.intern(term)
    }

    /// Materializes the term a session id denotes (read lock).
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this session.
    pub fn term(&self, id: TermId) -> Term {
        self.memo.read().arena().to_term(id)
    }

    /// Whether the denoted term is structurally equal to `term`, without
    /// materializing (read lock).
    pub fn term_eq(&self, id: TermId, term: &Term) -> bool {
        self.memo.read().arena().term_eq(id, term)
    }

    /// The cached normal form of a session id, if one was recorded.
    pub fn cached_nf(&self, id: TermId) -> Option<TermId> {
        let found = self
            .nf_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .copied();
        if found.is_some() {
            self.nf_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records `id → nf` in the session normal-form cache. Only engines
    /// running the session's own rule set may call this (see the module
    /// docs); a normal form is its own normal form, so `nf → nf` is
    /// recorded too.
    pub fn record_nf(&self, id: TermId, nf: TermId) {
        let mut guard = self
            .nf_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        guard.insert(id, nf);
        guard.insert(nf, nf);
    }

    /// Folds one normalization's step count into the session counters.
    pub fn note_normalization(&self, steps: u64) {
        self.normalizations.fetch_add(1, Ordering::Relaxed);
        self.rewrite_steps.fetch_add(steps, Ordering::Relaxed);
    }

    /// A snapshot of the session's counters.
    pub fn stats(&self) -> SessionStats {
        let read = self.memo.read();
        let store = &read.store;
        SessionStats {
            interned_terms: store.arena.len(),
            arena_bytes: store.arena.approx_bytes(),
            memo_hits: self.memo.hits.load(Ordering::Relaxed),
            memo_misses: self.memo.misses.load(Ordering::Relaxed),
            memo_entries: store.entries,
            nf_cache_hits: self.nf_hits.load(Ordering::Relaxed),
            normalizations: self.normalizations.load(Ordering::Relaxed),
            rewrite_steps: self.rewrite_steps.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpecBuilder;

    fn tiny_spec() -> Spec {
        let mut b = SpecBuilder::new("Tiny");
        let s = b.sort("S");
        let zero = b.ctor("ZERO", [], s);
        let succ = b.ctor("SUCC", [s], s);
        let is_zero = b.op("IS_ZERO?", [s], b.bool_sort());
        let x = b.var("x", s);
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [Term::Var(x)])]), ff);
        b.build().unwrap()
    }

    #[test]
    fn session_owns_compiled_rules_and_an_arena() {
        let session = Session::new(tiny_spec());
        assert_eq!(session.rules().len(), 2);
        let zero = session.sig().apply("ZERO", vec![]).unwrap();
        let id = session.intern(&zero);
        assert!(session.term_eq(id, &zero));
        assert_eq!(session.term(id), zero);
        let stats = session.stats();
        assert_eq!(stats.interned_terms, 1);
        assert!(stats.arena_bytes > 0);
    }

    #[test]
    fn nf_cache_round_trips_and_counts_hits() {
        let session = Session::new(tiny_spec());
        let zero = session.sig().apply("ZERO", vec![]).unwrap();
        let t = session.sig().apply("IS_ZERO?", vec![zero.clone()]).unwrap();
        let id = session.intern(&t);
        let nf = session.intern(&session.sig().tt());
        assert_eq!(session.cached_nf(id), None);
        session.record_nf(id, nf);
        assert_eq!(session.cached_nf(id), Some(nf));
        // A normal form is its own normal form.
        assert_eq!(session.cached_nf(nf), Some(nf));
        assert_eq!(session.stats().nf_cache_hits, 2);
    }

    #[test]
    fn memo_runs_read_in_place_and_publish_once() {
        let memo = NfMemo::new();
        let spec = tiny_spec();
        let zero = spec.sig().apply("ZERO", vec![]).unwrap();
        let t = spec.sig().apply("IS_ZERO?", vec![zero]).unwrap();
        // A run over the empty memo: everything lives in its overlay.
        let (top, key, nf) = {
            let read = memo.read();
            let mut run = TermArena::over(read.arena());
            let key = run.intern(&t);
            assert_eq!(read.lookup(key), None);
            let nf = run.intern(&spec.sig().tt());
            (run.detach(), key, nf)
        };
        let published = memo.publish(&top, &[(key, nf)], &[key]);
        assert_eq!(memo.read().store.entries, 1);
        // A later run reads the fact by id, in place.
        let read = memo.read();
        let mut run = TermArena::over(read.arena());
        let again = run.intern(&t);
        assert_eq!(again, published[0]);
        let hit = read.lookup(again).unwrap();
        assert_eq!(read.arena().to_term(hit), spec.sig().tt());
        let counts = (memo.hits.load(Ordering::Relaxed), memo.misses.load(Ordering::Relaxed));
        assert_eq!(counts, (1, 1));
        // Publishing nothing new takes no lock and changes nothing.
        assert_eq!(memo.publish(&run.detach(), &[], &[again]), vec![again]);
        drop(read);
        assert_eq!(memo.read().store.entries, 1);
    }

    #[test]
    fn two_runs_publishing_one_fact_agree_on_its_ids() {
        // Both runs read the same snapshot and learn the same fact; the
        // second publication finds the first one's nodes and fact.
        let session = Session::new(tiny_spec());
        let sig = session.sig();
        let zero = sig.apply("ZERO", vec![]).unwrap();
        let one = sig.apply("SUCC", vec![zero]).unwrap();
        let t = sig.apply("IS_ZERO?", vec![one]).unwrap();
        let memo = session.memo();
        let learn = || {
            let read = memo.read();
            let mut run = TermArena::over(read.arena());
            let key = run.intern(&t);
            let nf = run.intern(&sig.ff());
            (run.detach(), key, nf)
        };
        let (first, second) = (learn(), learn());
        let published = memo.publish(&first.0, &[(first.1, first.2)], &[first.1, first.2]);
        let stats = session.stats();
        let again = memo.publish(&second.0, &[(second.1, second.2)], &[second.1, second.2]);
        assert_eq!(again, published);
        assert_eq!(session.stats(), stats, "nothing new the second time");
        assert_eq!(stats.memo_entries, 1);
        assert!(session.term_eq(published[0], &t));
        assert_eq!(memo.read().lookup(published[0]), Some(published[1]));
    }

    #[test]
    fn stats_render_mentions_arena_and_memo() {
        let session = Session::new(tiny_spec());
        let zero = session.sig().apply("ZERO", vec![]).unwrap();
        session.intern(&zero);
        session.note_normalization(7);
        let text = session.stats().render();
        assert!(text.contains("session arena 1 term(s)"), "{text}");
        assert!(text.contains("session memo"), "{text}");
        assert!(text.contains("7 rewrite step(s)"), "{text}");
    }
}
