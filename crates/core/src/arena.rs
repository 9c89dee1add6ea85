//! Hash-consed term storage: [`TermArena`] and [`TermId`].
//!
//! The rewrite engine manipulates many closely-related terms — every
//! normalization step rebuilds a term that shares almost all of its
//! structure with its predecessor, and observers like `FRONT` re-derive
//! the same subterms over and over. Representing terms as trees of owned
//! [`Term`] nodes makes each of those operations a deep clone; this module
//! instead *interns* every distinct node once and hands out copyable
//! [`TermId`]s, so
//!
//! * structurally equal terms always receive the same id — equality is a
//!   single integer compare;
//! * per-node facts the engine consults constantly (groundness, depth, a
//!   structural hash) are computed once at interning time and read back in
//!   O(1);
//! * building a term that shares subterms with existing ones allocates
//!   only the genuinely new nodes.
//!
//! # Invariants
//!
//! [`TermId`]s are **process-local handles**: they index the arena that
//! produced them and are meaningless anywhere else. They must never be
//! serialized, compared across arenas, or stored in any artifact that
//! outlives the arena. A term crosses an arena boundary either as a
//! reconstructed [`Term`] ([`TermArena::to_term`]) or by id translation
//! through an [`ArenaLink`], which copies only the nodes the other arena
//! lacks. The [`TermArena::structural_hash`], by contrast, is a pure
//! function of term *structure* (the same term hashes identically in
//! every arena and every process).
//!
//! The arena is append-only and unsynchronized by design: engines create
//! one arena per normalization run, keeping the hot path free of locks,
//! and drop it wholesale when the run completes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ids::{OpId, SortId, VarId};
use crate::term::{Ite, Term};

/// A [`Hasher`] that passes an already-mixed `u64` key through unchanged.
///
/// The dedup map is keyed by [`mix`]-scrambled structural hashes, which
/// already spread entropy across all 64 bits; running them through the
/// default SipHash would cost more than the table probe it protects.
/// Only usable for `u64` keys — anything else reaches the `unreachable!`.
#[derive(Default)]
struct PassthroughHasher(u64);

impl Hasher for PassthroughHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PassthroughHasher only hashes u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

type PrehashedMap<V> = HashMap<u64, V, BuildHasherDefault<PassthroughHasher>>;

/// A handle to an interned term node inside one [`TermArena`].
///
/// Copyable and order/hashable so it can key dense side tables. Two ids
/// from the *same* arena are equal exactly when the terms they denote are
/// structurally equal; ids from different arenas are unrelated (see the
/// module docs for the invariants).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The raw index of this id inside its arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One interned term node: the same shape as [`Term`], with child terms
/// replaced by ids into the owning arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// A typed free variable.
    Var(VarId),
    /// Application of an operation to interned arguments.
    App(OpId, Box<[TermId]>),
    /// The built-in conditional: condition, then-branch, else-branch.
    Ite(TermId, TermId, TermId),
    /// The distinguished `error` value of the given sort.
    Error(SortId),
}

/// Per-node facts cached at interning time.
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// Deterministic structural hash (stable across arenas and processes).
    hash: u64,
    /// Height of the term (a leaf has depth 1), saturating.
    depth: u32,
    /// Whether the term contains no variables.
    ground: bool,
}

/// Mixes one value into a running structural hash. The constants are the
/// usual Fibonacci/xorshift multipliers; what matters is that the function
/// is fixed (no per-process seed), so hashes agree across arenas.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let x = (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    x ^ (x >> 32)
}

const TAG_VAR: u64 = 0x9e37_79b9_7f4a_7c15;
const TAG_APP: u64 = 0xbf58_476d_1ce4_e5b9;
const TAG_ITE: u64 = 0x94d0_49bb_1331_11eb;
const TAG_ERROR: u64 = 0xd6e8_feb8_6659_fd93;

/// An append-only, hash-consing store of term nodes.
///
/// ```
/// use adt_core::{Signature, Term, TermArena};
///
/// let mut sig = Signature::new();
/// let s = sig.add_sort("S")?;
/// let c = sig.add_ctor("C", vec![], s)?;
/// let f = sig.add_op("F", vec![s], s)?;
///
/// let mut arena = TermArena::new();
/// let term = Term::App(f, vec![Term::constant(c)]);
/// let a = arena.intern(&term);
/// let b = arena.intern(&term);
/// assert_eq!(a, b, "equal terms intern to the same id");
/// assert!(arena.is_ground(a));
/// assert_eq!(arena.depth(a), 2);
/// assert_eq!(arena.to_term(a), term);
/// # Ok::<(), adt_core::CoreError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct TermArena {
    nodes: Vec<TermNode>,
    meta: Vec<Meta>,
    /// Structural hash → ids of nodes with that hash (almost always one).
    dedup: PrehashedMap<Vec<TermId>>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TermArena::default()
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Approximate heap footprint of the arena in bytes: node and meta
    /// storage, argument slices, and the dedup table. Telemetry only —
    /// counts capacities where cheap to read, so it tracks allocations,
    /// not live data.
    pub fn approx_bytes(&self) -> usize {
        let args: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                TermNode::App(_, args) => args.len() * std::mem::size_of::<TermId>(),
                _ => 0,
            })
            .sum();
        let dedup: usize = self
            .dedup
            .values()
            .map(|bucket| {
                std::mem::size_of::<u64>()
                    + std::mem::size_of::<Vec<TermId>>()
                    + bucket.capacity() * std::mem::size_of::<TermId>()
            })
            .sum();
        self.nodes.capacity() * std::mem::size_of::<TermNode>()
            + self.meta.capacity() * std::mem::size_of::<Meta>()
            + args
            + dedup
    }

    /// The node an id denotes.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different arena (and is out of
    /// range for this one).
    #[inline]
    pub fn node(&self, id: TermId) -> &TermNode {
        &self.nodes[id.index()]
    }

    /// Whether the denoted term contains no variables. O(1): cached at
    /// interning time.
    #[inline]
    pub fn is_ground(&self, id: TermId) -> bool {
        self.meta[id.index()].ground
    }

    /// Height of the denoted term (a leaf has depth 1), saturating at
    /// `u32::MAX`. O(1): cached at interning time.
    #[inline]
    pub fn depth(&self, id: TermId) -> u32 {
        self.meta[id.index()].depth
    }

    /// A deterministic hash of the denoted term's *structure*. Equal terms
    /// hash equally in every arena and every process, so the hash (unlike
    /// the id) may key caches that outlive this arena. O(1): cached at
    /// interning time.
    #[inline]
    pub fn structural_hash(&self, id: TermId) -> u64 {
        self.meta[id.index()].hash
    }

    fn meta_of(&self, node: &TermNode) -> Meta {
        match node {
            TermNode::Var(v) => Meta {
                hash: mix(TAG_VAR, v.index() as u64),
                depth: 1,
                ground: false,
            },
            TermNode::Error(s) => Meta {
                hash: mix(TAG_ERROR, s.index() as u64),
                depth: 1,
                ground: true,
            },
            TermNode::App(op, args) => {
                let mut hash = mix(TAG_APP, op.index() as u64);
                let mut depth = 0u32;
                let mut ground = true;
                for &a in args.iter() {
                    let m = self.meta[a.index()];
                    hash = mix(hash, m.hash);
                    depth = depth.max(m.depth);
                    ground &= m.ground;
                }
                Meta {
                    hash,
                    depth: depth.saturating_add(1),
                    ground,
                }
            }
            TermNode::Ite(c, t, e) => {
                let mut hash = TAG_ITE;
                let mut depth = 0u32;
                let mut ground = true;
                for id in [c, t, e] {
                    let m = self.meta[id.index()];
                    hash = mix(hash, m.hash);
                    depth = depth.max(m.depth);
                    ground &= m.ground;
                }
                Meta {
                    hash,
                    depth: depth.saturating_add(1),
                    ground,
                }
            }
        }
    }

    /// The id this arena gives a node of *another* arena, `node` with
    /// structural hash `hash`, once its children are mapped through
    /// `map`; `None` if this arena lacks it (or `map` lacks a child).
    /// Never interns and never allocates.
    fn find_image(
        &self,
        hash: u64,
        node: &TermNode,
        map: impl Fn(TermId) -> Option<TermId>,
    ) -> Option<TermId> {
        let same = |mine: TermId, theirs: TermId| map(theirs) == Some(mine);
        self.dedup
            .get(&hash)?
            .iter()
            .copied()
            .find(|&id| match (&self.nodes[id.index()], node) {
                (TermNode::App(f, xs), TermNode::App(g, ys)) => {
                    f == g
                        && xs.len() == ys.len()
                        && xs.iter().zip(ys.iter()).all(|(&x, &y)| same(x, y))
                }
                (TermNode::Ite(a, b, c), TermNode::Ite(x, y, z)) => {
                    same(*a, *x) && same(*b, *y) && same(*c, *z)
                }
                (mine, theirs) => mine == theirs,
            })
    }

    fn intern_node(&mut self, node: TermNode) -> TermId {
        let meta = self.meta_of(&node);
        if let Some(bucket) = self.dedup.get(&meta.hash) {
            for &id in bucket {
                if self.nodes[id.index()] == node {
                    return id;
                }
            }
        }
        // A 2^32-node arena is hundreds of gigabytes of terms; failing
        // loudly here is strictly better than aliasing two distinct terms.
        let id = TermId(
            u32::try_from(self.nodes.len()).expect("term arena exceeded the u32 id space"),
        );
        self.nodes.push(node);
        self.meta.push(meta);
        self.dedup.entry(meta.hash).or_default().push(id);
        id
    }

    /// Interns a variable.
    pub fn var(&mut self, v: VarId) -> TermId {
        self.intern_node(TermNode::Var(v))
    }

    /// Interns an `error` value of the given sort.
    pub fn error(&mut self, s: SortId) -> TermId {
        self.intern_node(TermNode::Error(s))
    }

    /// Interns an application of `op` to already-interned arguments.
    pub fn app(&mut self, op: OpId, args: Vec<TermId>) -> TermId {
        self.intern_node(TermNode::App(op, args.into_boxed_slice()))
    }

    /// Interns a conditional over already-interned parts.
    pub fn ite(&mut self, cond: TermId, then_branch: TermId, else_branch: TermId) -> TermId {
        self.intern_node(TermNode::Ite(cond, then_branch, else_branch))
    }

    /// Interns a [`Term`], sharing every subterm already present.
    ///
    /// Iterative (explicit stack), so terms nested far beyond the native
    /// call stack intern fine.
    pub fn intern(&mut self, term: &Term) -> TermId {
        enum Frame<'t> {
            Visit(&'t Term),
            Build(&'t Term),
        }
        let mut stack = vec![Frame::Visit(term)];
        let mut done: Vec<TermId> = Vec::new();
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Visit(t) => match t {
                    Term::Var(v) => done.push(self.var(*v)),
                    Term::Error(s) => done.push(self.error(*s)),
                    Term::App(_, args) => {
                        stack.push(Frame::Build(t));
                        for a in args.iter().rev() {
                            stack.push(Frame::Visit(a));
                        }
                    }
                    Term::Ite(ite) => {
                        stack.push(Frame::Build(t));
                        stack.push(Frame::Visit(&ite.else_branch));
                        stack.push(Frame::Visit(&ite.then_branch));
                        stack.push(Frame::Visit(&ite.cond));
                    }
                },
                Frame::Build(t) => match t {
                    Term::App(op, args) => {
                        let children = done.split_off(done.len() - args.len());
                        done.push(self.app(*op, children));
                    }
                    Term::Ite(_) => {
                        let [c, th, e]: [TermId; 3] = done
                            .split_off(done.len() - 3)
                            .try_into()
                            .expect("three children were interned");
                        done.push(self.ite(c, th, e));
                    }
                    Term::Var(_) | Term::Error(_) => unreachable!("leaves are never deferred"),
                },
            }
        }
        done.pop().expect("interning produces exactly one root")
    }

    /// Reconstructs the denoted [`Term`]. Iterative, like
    /// [`TermArena::intern`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different arena.
    pub fn to_term(&self, id: TermId) -> Term {
        enum Frame {
            Visit(TermId),
            Build(TermId),
        }
        let mut stack = vec![Frame::Visit(id)];
        let mut done: Vec<Term> = Vec::new();
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Visit(id) => match self.node(id) {
                    TermNode::Var(v) => done.push(Term::Var(*v)),
                    TermNode::Error(s) => done.push(Term::Error(*s)),
                    TermNode::App(_, args) => {
                        stack.push(Frame::Build(id));
                        for &a in args.iter().rev() {
                            stack.push(Frame::Visit(a));
                        }
                    }
                    TermNode::Ite(c, t, e) => {
                        stack.push(Frame::Build(id));
                        stack.push(Frame::Visit(*e));
                        stack.push(Frame::Visit(*t));
                        stack.push(Frame::Visit(*c));
                    }
                },
                Frame::Build(id) => match self.node(id) {
                    TermNode::App(op, args) => {
                        let children = done.split_off(done.len() - args.len());
                        done.push(Term::App(*op, children));
                    }
                    TermNode::Ite(..) => {
                        let e = done.pop().expect("else-branch was built");
                        let t = done.pop().expect("then-branch was built");
                        let c = done.pop().expect("condition was built");
                        done.push(Term::ite(c, t, e));
                    }
                    TermNode::Var(_) | TermNode::Error(_) => {
                        unreachable!("leaves are never deferred")
                    }
                },
            }
        }
        done.pop().expect("reconstruction produces exactly one root")
    }

    /// Whether the denoted term is structurally equal to `term`, without
    /// allocating. Iterative, so arbitrarily deep comparands are fine.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different arena.
    pub fn term_eq(&self, id: TermId, term: &Term) -> bool {
        let mut stack: Vec<(TermId, &Term)> = vec![(id, term)];
        while let Some((id, t)) = stack.pop() {
            match (self.node(id), t) {
                (TermNode::Var(a), Term::Var(b)) => {
                    if a != b {
                        return false;
                    }
                }
                (TermNode::Error(a), Term::Error(b)) => {
                    if a != b {
                        return false;
                    }
                }
                (TermNode::App(op1, args1), Term::App(op2, args2)) => {
                    if op1 != op2 || args1.len() != args2.len() {
                        return false;
                    }
                    stack.extend(args1.iter().copied().zip(args2.iter()));
                }
                (TermNode::Ite(c, th, e), Term::Ite(ite)) => {
                    stack.push((*e, &ite.else_branch));
                    stack.push((*th, &ite.then_branch));
                    stack.push((*c, &ite.cond));
                }
                _ => return false,
            }
        }
        true
    }

    /// Convenience: interns all parts of an [`Ite`].
    pub fn intern_ite(&mut self, ite: &Ite) -> TermId {
        let c = self.intern(&ite.cond);
        let t = self.intern(&ite.then_branch);
        let e = self.intern(&ite.else_branch);
        self.ite(c, t, e)
    }
}

/// Sentinel in [`ArenaLink`]'s forward table: not looked up yet.
const UNKNOWN: u32 = u32::MAX;
/// Sentinel in [`ArenaLink`]'s forward table: the shared arena did not
/// hold the term when it was looked up.
const ABSENT: u32 = u32::MAX - 1;

/// A stable key for a [`PrehashedMap`] over ids: multiplying by an odd
/// constant is a bijection, and it spreads consecutive ids across the
/// table's control bits.
#[inline]
fn spread(id: TermId) -> u64 {
    u64::from(id.0).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The node `node` with each child id replaced through `map`, or `None`
/// if some child has no image.
fn remap(node: &TermNode, mut map: impl FnMut(TermId) -> Option<TermId>) -> Option<TermNode> {
    Some(match node {
        TermNode::Var(v) => TermNode::Var(*v),
        TermNode::Error(s) => TermNode::Error(*s),
        TermNode::App(op, args) => {
            TermNode::App(*op, args.iter().map(|&a| map(a)).collect::<Option<_>>()?)
        }
        TermNode::Ite(c, t, e) => TermNode::Ite(map(*c)?, map(*t)?, map(*e)?),
    })
}

/// Visits the nodes under `root` children first, with an explicit stack.
/// `step(id, false)` asks whether `id` still needs visiting (children of
/// a node that does not are skipped); `step(id, true)` visits it, once
/// every child that needed visiting has been visited.
fn post_order(
    arena: &TermArena,
    root: TermId,
    stack: &mut Vec<(TermId, bool)>,
    mut step: impl FnMut(TermId, bool) -> bool,
) {
    stack.clear();
    stack.push((root, false));
    while let Some((id, expanded)) = stack.pop() {
        // A subterm shared within the walk may be pushed twice; whichever
        // copy pops second finds it done.
        if !step(id, false) {
            continue;
        }
        if expanded {
            step(id, true);
            continue;
        }
        stack.push((id, true));
        match arena.node(id) {
            TermNode::App(_, args) => stack.extend(args.iter().map(|&a| (a, false))),
            TermNode::Ite(c, t, e) => stack.extend([(*c, false), (*t, false), (*e, false)]),
            TermNode::Var(_) | TermNode::Error(_) => {}
        }
    }
}

/// Translates ids between a private *local* arena and one long-lived
/// *shared* arena, so terms cross by id instead of as [`Term`] trees.
///
/// A link belongs to one pair of arenas for the lifetime of the local
/// one (one normalization run). It remembers every translation it made:
/// a forward table maps local ids to shared ids — or records that the
/// shared arena did not hold the term — and a reverse map serves
/// imports. Each node is therefore translated at most once per link, and
/// a lookup that missed on a deep term is not repeated at every level.
///
/// The shared arena is append-only, so a recorded shared id stays valid
/// for ever. A recorded absence may go stale when another thread interns
/// the term meanwhile; that only costs a lookup that could have found
/// it, and [`ArenaLink::export`] (which interns) refreshes it. Every walk
/// uses an explicit stack, so terms of any depth translate.
#[derive(Debug, Default)]
pub struct ArenaLink {
    /// Local id → shared id, [`UNKNOWN`] or [`ABSENT`].
    fwd: Vec<u32>,
    /// Shared id (spread) → local id.
    rev: PrehashedMap<TermId>,
    stack: Vec<(TermId, bool)>,
}

impl ArenaLink {
    /// A link that has translated nothing yet.
    pub fn new() -> Self {
        ArenaLink::default()
    }

    fn fwd(&self, local: TermId) -> u32 {
        self.fwd.get(local.index()).copied().unwrap_or(UNKNOWN)
    }

    /// Whether a lookup of `local` already missed during this link's
    /// lifetime (and nothing exported it since).
    pub fn known_absent(&self, local: TermId) -> bool {
        self.fwd(local) == ABSENT
    }

    fn present(&self, local: TermId) -> Option<TermId> {
        match self.fwd(local) {
            UNKNOWN | ABSENT => None,
            shared => Some(TermId(shared)),
        }
    }

    fn set(&mut self, local: TermId, shared: Option<TermId>, local_len: usize) {
        if self.fwd.len() <= local.index() {
            self.fwd.resize(local_len.max(local.index() + 1), UNKNOWN);
        }
        self.fwd[local.index()] = match shared {
            Some(s) => {
                self.rev.insert(spread(s), local);
                s.0
            }
            None => ABSENT,
        };
    }

    /// The id in `shared` of the term `id` denotes in `local`, if `shared`
    /// holds it. Never writes `shared`, so a read lock suffices.
    pub fn probe(&mut self, local: &TermArena, shared: &TermArena, id: TermId) -> Option<TermId> {
        let mut stack = std::mem::take(&mut self.stack);
        post_order(local, id, &mut stack, |n, visit| {
            if !visit {
                return self.fwd(n) == UNKNOWN;
            }
            let found =
                shared.find_image(local.structural_hash(n), local.node(n), |c| self.present(c));
            self.set(n, found, local.len());
            true
        });
        self.stack = stack;
        self.present(id)
    }

    /// Interns the term `id` denotes in `local` into `shared`, adding only
    /// the nodes `shared` lacks, and returns its shared id.
    pub fn export(&mut self, local: &TermArena, shared: &mut TermArena, id: TermId) -> TermId {
        let mut stack = std::mem::take(&mut self.stack);
        post_order(local, id, &mut stack, |n, visit| {
            if !visit {
                return self.present(n).is_none();
            }
            let node = remap(local.node(n), |c| self.present(c))
                .expect("children are exported before their parent");
            let s = shared.intern_node(node);
            self.set(n, Some(s), local.len());
            true
        });
        self.stack = stack;
        self.present(id).expect("the root was exported")
    }

    /// Interns the term `id` denotes in `shared` into `local` and returns
    /// its local id.
    pub fn import(&mut self, local: &mut TermArena, shared: &TermArena, id: TermId) -> TermId {
        let mut stack = std::mem::take(&mut self.stack);
        post_order(shared, id, &mut stack, |s, visit| {
            if !visit {
                return !self.rev.contains_key(&spread(s));
            }
            let node = remap(shared.node(s), |c| self.rev.get(&spread(c)).copied())
                .expect("children are imported before their parent");
            let n = local.intern_node(node);
            self.set(n, Some(s), local.len());
            true
        });
        self.stack = stack;
        self.rev[&spread(id)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;

    fn sig() -> Signature {
        let mut sig = Signature::new();
        let queue = sig.add_sort("Queue").unwrap();
        let item = sig.add_sort("Item").unwrap();
        sig.add_ctor("NEW", vec![], queue).unwrap();
        sig.add_ctor("ADD", vec![queue, item], queue).unwrap();
        sig.add_ctor("A", vec![], item).unwrap();
        sig.add_op("FRONT", vec![queue], item).unwrap();
        sig.add_op("IS_EMPTY?", vec![queue], sig.bool_sort()).unwrap();
        sig.add_var("q", queue).unwrap();
        sig.add_var("i", item).unwrap();
        sig
    }

    fn chain(sig: &Signature, n: usize) -> Term {
        let mut t = sig.apply("NEW", vec![]).unwrap();
        for _ in 0..n {
            let a = sig.apply("A", vec![]).unwrap();
            t = sig.apply("ADD", vec![t, a]).unwrap();
        }
        t
    }

    #[test]
    fn equal_terms_share_one_id() {
        let sig = sig();
        let mut arena = TermArena::new();
        let t = chain(&sig, 3);
        let a = arena.intern(&t);
        let b = arena.intern(&t);
        assert_eq!(a, b);
        // Shared subterms don't re-allocate: interning a 4-chain after a
        // 3-chain adds exactly one node.
        let before = arena.len();
        arena.intern(&chain(&sig, 4));
        assert_eq!(arena.len(), before + 1);
    }

    #[test]
    fn roundtrip_reconstructs_the_term() {
        let sig = sig();
        let mut arena = TermArena::new();
        let qv = Term::Var(sig.find_var("q").unwrap());
        let iv = Term::Var(sig.find_var("i").unwrap());
        let cond = sig.apply("IS_EMPTY?", vec![qv.clone()]).unwrap();
        let t = Term::ite(
            cond,
            iv,
            sig.apply("FRONT", vec![qv]).unwrap(),
        );
        let id = arena.intern(&t);
        assert_eq!(arena.to_term(id), t);
        assert!(arena.term_eq(id, &t));
    }

    #[test]
    fn cached_bits_match_the_term_methods() {
        let sig = sig();
        let mut arena = TermArena::new();
        let qv = Term::Var(sig.find_var("q").unwrap());
        let ground = chain(&sig, 2);
        let open = sig.apply("FRONT", vec![qv]).unwrap();
        let item = sig.find_sort("Item").unwrap();
        for t in [&ground, &open, &Term::Error(item)] {
            let id = arena.intern(t);
            assert_eq!(arena.is_ground(id), t.is_ground(), "{t:?}");
            assert_eq!(arena.depth(id) as usize, t.depth(), "{t:?}");
        }
    }

    #[test]
    fn structural_hash_is_arena_independent() {
        let sig = sig();
        let t = chain(&sig, 5);
        let u = sig.apply("FRONT", vec![chain(&sig, 5)]).unwrap();
        let mut arena1 = TermArena::new();
        let mut arena2 = TermArena::new();
        // Intern in different orders so the raw ids differ.
        let id_t1 = arena1.intern(&t);
        let id_u1 = arena1.intern(&u);
        let id_u2 = arena2.intern(&u);
        let id_t2 = arena2.intern(&t);
        assert_eq!(arena1.structural_hash(id_t1), arena2.structural_hash(id_t2));
        assert_eq!(arena1.structural_hash(id_u1), arena2.structural_hash(id_u2));
        assert_ne!(
            arena1.structural_hash(id_t1),
            arena1.structural_hash(id_u1),
            "distinct terms should (in practice) hash differently"
        );
    }

    #[test]
    fn term_eq_rejects_structural_differences() {
        let sig = sig();
        let mut arena = TermArena::new();
        let three = chain(&sig, 3);
        let four = chain(&sig, 4);
        let id = arena.intern(&three);
        assert!(arena.term_eq(id, &three));
        assert!(!arena.term_eq(id, &four));
        let front = sig.apply("FRONT", vec![three.clone()]).unwrap();
        assert!(!arena.term_eq(id, &front));
        let item = sig.find_sort("Item").unwrap();
        let queue = sig.find_sort("Queue").unwrap();
        let e = arena.intern(&Term::Error(item));
        assert!(arena.term_eq(e, &Term::Error(item)));
        assert!(!arena.term_eq(e, &Term::Error(queue)));
    }

    #[test]
    fn links_translate_by_id_and_copy_only_missing_nodes() {
        let sig = sig();
        let mut shared = TermArena::new();
        let mut local = TermArena::new();
        let mut link = ArenaLink::new();
        let three = local.intern(&chain(&sig, 3));
        let front = local.intern(&sig.apply("FRONT", vec![chain(&sig, 3)]).unwrap());
        // Nothing is shared yet; the miss is remembered for the run.
        assert_eq!(link.probe(&local, &shared, front), None);
        let s_three = link.export(&local, &mut shared, three);
        assert_eq!(shared.to_term(s_three), chain(&sig, 3));
        let before = shared.len();
        let s_front = link.export(&local, &mut shared, front);
        assert_eq!(shared.len(), before + 1, "only the FRONT node was missing");
        assert_eq!(link.probe(&local, &shared, front), Some(s_front));

        // A second run finds the shared ids and imports by id.
        let mut other = TermArena::new();
        let mut other_link = ArenaLink::new();
        let o_front = other.intern(&sig.apply("FRONT", vec![chain(&sig, 3)]).unwrap());
        assert_eq!(other_link.probe(&other, &shared, o_front), Some(s_front));
        let four = shared.intern(&chain(&sig, 4));
        let o_four = other_link.import(&mut other, &shared, four);
        assert_eq!(other.to_term(o_four), chain(&sig, 4));
        assert_eq!(other_link.probe(&other, &shared, o_four), Some(four));
    }

    #[test]
    fn deep_terms_cross_links_without_native_recursion() {
        // Same shape as the interning test below, through export, probe
        // and import.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                let sig = sig();
                let depth = 100_000;
                let add = sig.find_op("ADD").unwrap();
                let a = Term::constant(sig.find_op("A").unwrap());
                let mut t = Term::constant(sig.find_op("NEW").unwrap());
                for _ in 0..depth {
                    t = Term::App(add, vec![t, a.clone()]);
                }
                let mut local = TermArena::new();
                let id = local.intern(&t);
                let mut shared = TermArena::new();
                let mut link = ArenaLink::new();
                assert_eq!(link.probe(&local, &shared, id), None);
                let s = link.export(&local, &mut shared, id);
                assert_eq!(shared.depth(s) as usize, depth + 1);
                let mut fresh = TermArena::new();
                let mut fresh_link = ArenaLink::new();
                let back = fresh_link.import(&mut fresh, &shared, s);
                assert!(fresh.term_eq(back, &t));
                let mut again = ArenaLink::new();
                assert_eq!(again.probe(&fresh, &shared, back), Some(s));
            })
            .expect("spawns")
            .join()
            .expect("deep translation must not overflow the stack");
    }

    #[test]
    fn deep_terms_intern_without_native_recursion() {
        // ~100k-deep chain: recursion anywhere in intern/to_term/term_eq
        // would blow the native stack. The Term itself has a recursive
        // Drop, so the whole test runs on a thread with a large stack.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                let sig = sig();
                let depth = 100_000;
                // Built from raw nodes: `Signature::apply` would sort-check
                // each prefix recursively (quadratic, and itself deeper
                // than any stack).
                let add = sig.find_op("ADD").unwrap();
                let a = Term::constant(sig.find_op("A").unwrap());
                let mut t = Term::constant(sig.find_op("NEW").unwrap());
                for _ in 0..depth {
                    t = Term::App(add, vec![t, a.clone()]);
                }
                let mut arena = TermArena::new();
                let id = arena.intern(&t);
                assert_eq!(arena.depth(id) as usize, depth + 1);
                assert!(arena.is_ground(id));
                assert!(arena.term_eq(id, &t));
                let back = arena.to_term(id);
                assert_eq!(back.depth(), depth + 1);
            })
            .expect("spawns")
            .join()
            .expect("deep interning must not overflow the stack");
    }
}
