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
//! index the session arena and are meaningless anywhere else. The
//! evaluation hot path still runs on its own run-local arena (keeping it
//! lock-free); terms cross between that arena and the session arena by id
//! translation through an [`ArenaLink`], under the session arena's read
//! lock for lookups and imports and its write lock for exports.
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
//! constants) or adding rules (induction hypotheses) does not. Passes
//! that extend the signature with operations must keep private,
//! memo-less rewriters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::arena::{ArenaLink, TermArena, TermId};
use crate::rules::RuleSet;
use crate::signature::Signature;
use crate::spec::Spec;
use crate::term::Term;

/// A hash-consing arena and the normal-form facts recorded over its ids.
#[derive(Debug, Default)]
struct MemoStore {
    arena: TermArena,
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
/// Engines keep their lock-free run-local arenas and reach the memo
/// through an [`ArenaLink`] per run: [`NfMemo::get`] translates the
/// subject into memo ids under the read lock and imports a stored normal
/// form by id; [`NfMemo::insert`] interns only the nodes the memo arena
/// lacks under the write lock. No fact is ever materialized as a
/// [`Term`]. The memo stores only context-free facts (ground term →
/// normal form), so any interleaving of insertions from a worker pool
/// yields the same lookups — sharing one memo across threads cannot
/// change results. See the module docs for when sharing one memo across
/// *rewriters* is sound.
///
/// Hit/miss totals are counted with relaxed atomics; they are telemetry
/// (surfaced through [`SessionStats`]) and never affect results.
#[derive(Debug, Default)]
pub struct NfMemo {
    store: RwLock<MemoStore>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl NfMemo {
    /// An empty memo over an empty arena.
    pub fn new() -> Self {
        NfMemo::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, MemoStore> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, MemoStore> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up the normal form of the term `id` denotes in the run-local
    /// arena `local`. On a hit the normal form is imported into `local`
    /// and its local id returned. Read lock only, and none at all when
    /// `link` already knows the memo arena lacks the term.
    pub fn get(&self, link: &mut ArenaLink, local: &mut TermArena, id: TermId) -> Option<TermId> {
        if !link.known_absent(id) {
            let store = self.read();
            let found = link
                .probe(local, &store.arena, id)
                .and_then(|key| store.nf.get(key.index()).copied().flatten());
            if let Some(nf) = found {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(link.import(local, &store.arena, nf));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records that `normal` is the normal form of `id` (both ids of the
    /// run-local arena `local`), interning whatever the memo arena lacks.
    /// Write lock. Another worker may have raced us to the same fact;
    /// the first record stands (both are the same normal form).
    pub fn insert(&self, link: &mut ArenaLink, local: &TermArena, id: TermId, normal: TermId) {
        let mut store = self.write();
        let key = link.export(local, &mut store.arena, id);
        let value = link.export(local, &mut store.arena, normal);
        let MemoStore { arena, nf, entries } = &mut *store;
        if nf.len() <= key.index() {
            nf.resize(arena.len(), None);
        }
        if nf[key.index()].is_none() {
            nf[key.index()] = Some(value);
            *entries += 1;
        }
    }

    /// Imports the memo-arena term `id` into `local` (read lock).
    pub fn import(&self, link: &mut ArenaLink, local: &mut TermArena, id: TermId) -> TermId {
        link.import(local, &self.read().arena, id)
    }

    /// Interns the `local` term `id` into the memo arena and returns its
    /// memo id (write lock).
    pub fn export(&self, link: &mut ArenaLink, local: &TermArena, id: TermId) -> TermId {
        link.export(local, &mut self.write().arena, id)
    }

    /// Facts currently recorded.
    pub fn len(&self) -> usize {
        self.read().entries
    }

    /// Whether the memo holds no facts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits so far (telemetry; relaxed ordering).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far (telemetry; relaxed ordering).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
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
/// `RwLock`, taken at API boundaries (interning in, materializing out)
/// and by memo lookups and inserts, and the counters are atomics.
/// Engines rewrite on their own run-local arenas, so no session lock is
/// held while a rule fires.
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
    /// through the session API, kept apart from the memo table (which
    /// also holds facts learned from subterms). Sound because entries are
    /// only recorded by engines running the session's own rule set.
    nf_cache: Mutex<HashMap<TermId, TermId>>,
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
            nf_cache: Mutex::new(HashMap::new()),
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
        self.memo.read().arena.to_term(id)
    }

    /// Whether the denoted term is structurally equal to `term`, without
    /// materializing (read lock).
    pub fn term_eq(&self, id: TermId, term: &Term) -> bool {
        self.memo.read().arena.term_eq(id, term)
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
        let store = self.memo.read();
        SessionStats {
            interned_terms: store.arena.len(),
            arena_bytes: store.arena.approx_bytes(),
            memo_hits: self.memo.hits(),
            memo_misses: self.memo.misses(),
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
    fn memo_counts_hits_and_misses() {
        let memo = NfMemo::new();
        let mut link = ArenaLink::new();
        let mut local = TermArena::new();
        let spec = tiny_spec();
        let zero = spec.sig().apply("ZERO", vec![]).unwrap();
        let t = spec.sig().apply("IS_ZERO?", vec![zero]).unwrap();
        let id = local.intern(&t);
        let nf = local.intern(&spec.sig().tt());
        assert_eq!(memo.get(&mut link, &mut local, id), None);
        memo.insert(&mut link, &local, id, nf);
        assert_eq!(memo.get(&mut link, &mut local, id), Some(nf));
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.len(), 1);
        assert!(!memo.is_empty());
        // A fresh run (new local arena and link) finds the fact by id and
        // imports the normal form into its own arena.
        let mut other = TermArena::new();
        let mut other_link = ArenaLink::new();
        let succ_free = other.intern(&spec.sig().ff());
        let id2 = other.intern(&t);
        let hit = memo.get(&mut other_link, &mut other, id2).unwrap();
        assert_ne!(hit, succ_free);
        assert_eq!(other.to_term(hit), spec.sig().tt());
        assert_eq!(memo.hits(), 2);
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
