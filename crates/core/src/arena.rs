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
//!   only the genuinely new nodes, and finding a node the arena already
//!   holds allocates nothing.
//!
//! # Invariants
//!
//! [`TermId`]s are **process-local handles**: they index the arena that
//! produced them and are meaningless anywhere else. They must never be
//! serialized, compared across arenas, or stored in any artifact that
//! outlives the arena. A term crosses an arena boundary either as a
//! reconstructed [`Term`] ([`TermArena::to_term`]) or by id through
//! [`TermArena::adopt`], which copies only the nodes the other arena
//! lacks. The [`TermArena::structural_hash`], by contrast, is a pure
//! function of term *structure* (the same term hashes identically in
//! every arena and every process).
//!
//! The one sanctioned sharing of ids is an *overlay*
//! ([`TermArena::over`]): an arena that extends a borrowed base, so the
//! base's ids are its ids and its own continue after them. It looks a
//! node up in the base before adding it, so a term has one id across both
//! layers. Its own nodes go back into the base by id, through
//! [`TermArena::adopt`] once [`TermArena::detach`] has ended the borrow.
//!
//! Arenas are append-only and unsynchronized by design: an id, once
//! handed out, denotes the same term for the arena's whole life.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ids::{OpId, SortId, VarId};
use crate::term::Term;

/// A [`Hasher`] for keys that need no further mixing: `u64` keys (the
/// dedup map's already-scrambled structural hashes) pass through
/// unchanged, and `u32` keys ([`TermId`]s) are spread by one multiply.
/// SipHash would cost more than the table probe it protects. Only usable
/// for those two key types — anything else reaches the `unreachable!`.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdHasher only hashes u32 and u64 keys");
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        // Multiplying by an odd constant is a bijection that spreads
        // consecutive ids across the table's control bits.
        self.0 = u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

type PrehashedMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// A hash map keyed by [`TermId`], hashed by one multiply.
pub type IdMap<V> = HashMap<TermId, V, BuildHasherDefault<IdHasher>>;

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

/// One interned term node, as its arena hands it out: the same shape as
/// [`Term`], with child terms replaced by ids of the arena. An
/// application's arguments are borrowed from the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermNode<'a> {
    /// A typed free variable.
    Var(VarId),
    /// Application of an operation to interned arguments.
    App(OpId, &'a [TermId]),
    /// The built-in conditional: condition, then-branch, else-branch.
    Ite(TermId, TermId, TermId),
    /// The distinguished `error` value of the given sort.
    Error(SortId),
}

/// How an arena stores a node: an application's arguments are the range
/// `start..end` of the arena's argument pool.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Var(VarId),
    App(OpId, u32, u32),
    Ite(TermId, TermId, TermId),
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

/// The facts of `node`, given its children's.
fn meta_of(node: TermNode<'_>, meta: impl Fn(TermId) -> Meta) -> Meta {
    let inner = |seed: u64, children: &[TermId]| {
        let mut m = Meta {
            hash: seed,
            depth: 0,
            ground: true,
        };
        for &c in children {
            let cm = meta(c);
            m.hash = mix(m.hash, cm.hash);
            m.depth = m.depth.max(cm.depth);
            m.ground &= cm.ground;
        }
        m.depth = m.depth.saturating_add(1);
        m
    };
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
        TermNode::App(op, args) => inner(mix(TAG_APP, op.index() as u64), args),
        TermNode::Ite(c, t, e) => inner(TAG_ITE, &[c, t, e]),
    }
}

/// An append-only, hash-consing store of term nodes, possibly an overlay
/// over a borrowed base arena (see the module docs). A standalone arena
/// is a `TermArena<'static>`.
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
pub struct TermArena<'b> {
    /// The arena this one extends: its ids are this arena's below `first`.
    base: Option<&'b TermArena<'static>>,
    /// The first id this arena owns.
    first: u32,
    slots: Vec<Slot>,
    /// The arguments of every application, end to end.
    args: Vec<TermId>,
    meta: Vec<Meta>,
    /// Structural hash → the first own node with that hash; later ones
    /// (a 64-bit collision) go to `collided`.
    dedup: PrehashedMap<TermId>,
    collided: Vec<TermId>,
}

impl TermArena<'static> {
    /// Creates an empty standalone arena.
    pub fn new() -> Self {
        TermArena::default()
    }
}

impl<'b> TermArena<'b> {
    /// An empty overlay over the standalone arena `base`: `base`'s ids
    /// are read in place, and only nodes `base` lacks are stored here,
    /// under ids that continue `base`'s. While the borrow lasts `base`
    /// cannot change, so id equality stays structural equality.
    ///
    /// ```
    /// use adt_core::{Signature, Term, TermArena};
    ///
    /// let mut sig = Signature::new();
    /// let s = sig.add_sort("S")?;
    /// let c = sig.add_ctor("C", vec![], s)?;
    /// let f = sig.add_op("F", vec![s], s)?;
    /// let fc = Term::App(f, vec![Term::constant(c)]);
    ///
    /// let mut base = TermArena::new();
    /// let c_id = base.intern(&Term::constant(c));
    /// let mut run = TermArena::over(&base);
    /// assert_eq!(run.intern(&Term::constant(c)), c_id, "base ids are read in place");
    /// let fc_id = run.app(f, &[c_id]);
    /// assert!(!run.in_base(fc_id));
    /// assert_eq!(run.to_term(fc_id), fc);
    ///
    /// // The overlay's own nodes cross back into the base by id.
    /// let top = run.detach();
    /// let published = base.adopt(&top, fc_id, &mut Default::default());
    /// assert_eq!(base.to_term(published), fc);
    /// # Ok::<(), adt_core::CoreError>(())
    /// ```
    pub fn over(base: &'b TermArena<'static>) -> Self {
        debug_assert!(base.base.is_none(), "an overlay's base is a standalone arena");
        TermArena {
            base: Some(base),
            first: u32::try_from(base.len()).expect("term arena exceeded the u32 id space"),
            ..TermArena::default()
        }
    }

    /// Ends an overlay's borrow of its base, keeping its own nodes under
    /// their ids, for [`TermArena::adopt`] into the base. Ids below the
    /// arena's own no longer resolve.
    pub fn detach(self) -> TermArena<'static> {
        TermArena {
            base: None,
            first: self.first,
            slots: self.slots,
            args: self.args,
            meta: self.meta,
            dedup: self.dedup,
            collided: self.collided,
        }
    }

    /// Number of distinct nodes this arena stores (an overlay's own).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena stores no nodes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Approximate heap footprint of the arena in bytes: node, argument
    /// and meta storage, and the dedup table. Telemetry only — counts
    /// capacities, so it tracks allocations, not live data.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<Slot>()
            + (self.args.capacity() + self.collided.capacity()) * size_of::<TermId>()
            + self.meta.capacity() * size_of::<Meta>()
            + self.dedup.capacity() * size_of::<(u64, TermId)>()
    }

    /// Whether `id` belongs to the base this arena overlays.
    #[inline]
    pub fn in_base(&self, id: TermId) -> bool {
        id.0 < self.first
    }

    #[inline]
    fn slot(&self, id: TermId) -> usize {
        (id.0 - self.first) as usize
    }

    /// The node an id denotes.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different arena (and is out of
    /// range for this one), or precedes a detached overlay's own ids.
    #[inline]
    pub fn node(&self, id: TermId) -> TermNode<'_> {
        match self.base {
            Some(base) if self.in_base(id) => base.node(id),
            _ => match self.slots[self.slot(id)] {
                Slot::Var(v) => TermNode::Var(v),
                Slot::App(op, start, end) => {
                    TermNode::App(op, &self.args[start as usize..end as usize])
                }
                Slot::Ite(c, t, e) => TermNode::Ite(c, t, e),
                Slot::Error(s) => TermNode::Error(s),
            },
        }
    }

    #[inline]
    fn meta(&self, id: TermId) -> Meta {
        match self.base {
            Some(base) if self.in_base(id) => base.meta(id),
            _ => self.meta[self.slot(id)],
        }
    }

    /// Whether the denoted term contains no variables. O(1): cached at
    /// interning time.
    #[inline]
    pub fn is_ground(&self, id: TermId) -> bool {
        self.meta(id).ground
    }

    /// Height of the denoted term (a leaf has depth 1), saturating at
    /// `u32::MAX`. O(1): cached at interning time.
    #[inline]
    pub fn depth(&self, id: TermId) -> u32 {
        self.meta(id).depth
    }

    /// A deterministic hash of the denoted term's *structure*. Equal terms
    /// hash equally in every arena and every process, so the hash (unlike
    /// the id) may key caches that outlive this arena. O(1): cached at
    /// interning time.
    #[inline]
    pub fn structural_hash(&self, id: TermId) -> u64 {
        self.meta(id).hash
    }

    /// The id of `node` (whose structural hash is `hash`) among this
    /// arena's own nodes. Never allocates.
    fn lookup(&self, hash: u64, node: TermNode<'_>) -> Option<TermId> {
        let first = *self.dedup.get(&hash)?;
        std::iter::once(first)
            .chain(self.collided.iter().copied())
            .find(|&id| self.meta(id).hash == hash && self.node(id) == node)
    }

    fn intern_node(&mut self, node: TermNode<'_>) -> TermId {
        let meta = meta_of(node, |c| self.meta(c));
        // The base can hold the node only if it holds all its children.
        let in_base = |c: TermId| self.in_base(c);
        let found = match (self.base, node) {
            (None, _) => None,
            (_, TermNode::App(_, args)) if !args.iter().all(|&a| in_base(a)) => None,
            (_, TermNode::Ite(c, t, e)) if !(in_base(c) && in_base(t) && in_base(e)) => None,
            (Some(base), _) => base.lookup(meta.hash, node),
        };
        if let Some(id) = found.or_else(|| self.lookup(meta.hash, node)) {
            return id;
        }
        // A 2^32-node arena is hundreds of gigabytes of terms; failing
        // loudly here is strictly better than aliasing two distinct terms.
        let id = TermId(
            u32::try_from(self.first as usize + self.slots.len())
                .expect("term arena exceeded the u32 id space"),
        );
        self.slots.push(match node {
            TermNode::Var(v) => Slot::Var(v),
            TermNode::App(op, args) => {
                let start = self.args.len();
                self.args.extend_from_slice(args);
                let offset = |i| u32::try_from(i).expect("argument pool exceeded the u32 space");
                Slot::App(op, offset(start), offset(self.args.len()))
            }
            TermNode::Ite(c, t, e) => Slot::Ite(c, t, e),
            TermNode::Error(s) => Slot::Error(s),
        });
        self.meta.push(meta);
        if let Some(first) = self.dedup.insert(meta.hash, id) {
            self.dedup.insert(meta.hash, first);
            self.collided.push(id);
        }
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

    /// Interns an application of `op` to already-interned arguments. The
    /// arguments are copied only if the node is new.
    pub fn app(&mut self, op: OpId, args: &[TermId]) -> TermId {
        self.intern_node(TermNode::App(op, args))
    }

    /// Interns a conditional over already-interned parts.
    pub fn ite(&mut self, cond: TermId, then_branch: TermId, else_branch: TermId) -> TermId {
        self.intern_node(TermNode::Ite(cond, then_branch, else_branch))
    }

    /// Interns a [`Term`], sharing every subterm already present. A term
    /// the arena already holds allocates nothing but the walk's stacks.
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
                    Term::App(op, args) if args.is_empty() => done.push(self.app(*op, &[])),
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
                Frame::Build(t) => {
                    // The children are the top of `done`: interned from a
                    // slice of it, so a hit allocates nothing.
                    let arity = match t {
                        Term::App(_, args) => args.len(),
                        _ => 3,
                    };
                    let children = &done[done.len() - arity..];
                    let node = match (t, children) {
                        (Term::App(op, _), _) => TermNode::App(*op, children),
                        (_, &[c, th, e]) => TermNode::Ite(c, th, e),
                        _ => unreachable!("leaves are never deferred"),
                    };
                    let id = self.intern_node(node);
                    done.truncate(done.len() - arity);
                    done.push(id);
                }
            }
        }
        done.pop().expect("interning produces exactly one root")
    }

    /// Reconstructs the denoted [`Term`]. Iterative, like
    /// [`TermArena::intern`].
    ///
    /// # Panics
    ///
    /// As for [`TermArena::node`].
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
                    TermNode::Var(v) => done.push(Term::Var(v)),
                    TermNode::Error(s) => done.push(Term::Error(s)),
                    TermNode::App(_, args) => {
                        stack.push(Frame::Build(id));
                        stack.extend(args.iter().rev().map(|&a| Frame::Visit(a)));
                    }
                    TermNode::Ite(c, t, e) => {
                        stack.push(Frame::Build(id));
                        stack.extend([Frame::Visit(e), Frame::Visit(t), Frame::Visit(c)]);
                    }
                },
                Frame::Build(id) => match self.node(id) {
                    TermNode::App(op, args) => {
                        let children = done.split_off(done.len() - args.len());
                        done.push(Term::App(op, children));
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
    /// As for [`TermArena::node`].
    pub fn term_eq(&self, id: TermId, term: &Term) -> bool {
        let mut stack: Vec<(TermId, &Term)> = vec![(id, term)];
        while let Some((id, t)) = stack.pop() {
            match (self.node(id), t) {
                (TermNode::Var(a), Term::Var(b)) => {
                    if a != *b {
                        return false;
                    }
                }
                (TermNode::Error(a), Term::Error(b)) => {
                    if a != *b {
                        return false;
                    }
                }
                (TermNode::App(op1, args1), Term::App(op2, args2)) => {
                    if op1 != *op2 || args1.len() != args2.len() {
                        return false;
                    }
                    stack.extend(args1.iter().copied().zip(args2.iter()));
                }
                (TermNode::Ite(c, th, e), Term::Ite(ite)) => {
                    stack.push((e, &ite.else_branch));
                    stack.push((th, &ite.then_branch));
                    stack.push((c, &ite.cond));
                }
                _ => return false,
            }
        }
        true
    }

    /// The id here of the term `id` denotes in `src`, interning only the
    /// nodes this arena lacks. `src`'s ids below its own are taken to be
    /// this arena's: `src` was detached from an overlay over this arena
    /// (or is standalone, with no such ids). `map` carries translations
    /// from one call to the next (pass an empty map for a one-off).
    /// Iterative, so terms of any depth cross.
    pub fn adopt(&mut self, src: &TermArena<'_>, id: TermId, map: &mut IdMap<TermId>) -> TermId {
        let image = |map: &IdMap<TermId>, id: TermId| {
            if src.in_base(id) {
                Some(id)
            } else {
                map.get(&id).copied()
            }
        };
        if let Some(known) = image(map, id) {
            return known;
        }
        let mut stack = vec![(id, false)];
        let mut args = Vec::new();
        while let Some((next, expanded)) = stack.pop() {
            // A subterm shared within the walk may be pushed twice; whichever
            // copy pops second finds it translated.
            if image(map, next).is_some() {
                continue;
            }
            let node = src.node(next);
            if !expanded {
                stack.push((next, true));
                match node {
                    TermNode::App(_, xs) => stack.extend(xs.iter().map(|&a| (a, false))),
                    TermNode::Ite(c, t, e) => stack.extend([(c, false), (t, false), (e, false)]),
                    TermNode::Var(_) | TermNode::Error(_) => {}
                }
                continue;
            }
            let child = |c: TermId| image(map, c).expect("children are adopted first");
            let new = match node {
                TermNode::App(op, xs) => {
                    args.clear();
                    args.extend(xs.iter().map(|&a| child(a)));
                    self.app(op, &args)
                }
                TermNode::Ite(c, t, e) => self.ite(child(c), child(t), child(e)),
                leaf => self.intern_node(leaf),
            };
            map.insert(next, new);
        }
        image(map, id).expect("the root was adopted")
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

    fn front(sig: &Signature, n: usize) -> Term {
        sig.apply("FRONT", vec![chain(sig, n)]).unwrap()
    }

    #[test]
    fn overlays_read_the_base_in_place_and_add_only_new_nodes() {
        let sig = sig();
        let mut base = TermArena::new();
        let three = base.intern(&chain(&sig, 3));
        let before = base.len();
        let mut run = TermArena::over(&base);
        assert_eq!(run.intern(&chain(&sig, 3)), three, "base ids are read in place");
        let f = run.intern(&front(&sig, 3));
        assert!(!run.in_base(f));
        assert_eq!(run.intern(&front(&sig, 3)), f, "the top hash-conses too");
        let a = run.intern(&sig.apply("A", vec![]).unwrap());
        let four = run.app(sig.find_op("ADD").unwrap(), &[three, a]);
        assert_eq!(run.to_term(four), chain(&sig, 4));
        assert!(run.is_ground(four));

        // Only what is adopted crosses back, and only the missing nodes.
        let top = run.detach();
        let published = base.adopt(&top, f, &mut IdMap::default());
        assert_eq!(base.len(), before + 1, "only the FRONT node was missing");
        assert_eq!(base.to_term(published), front(&sig, 3));
        assert_eq!(TermArena::over(&base).intern(&front(&sig, 3)), published);
    }

    #[test]
    fn adoption_dedups_against_nodes_the_base_gained_meanwhile() {
        // The run reads a snapshot; another run publishes the same term
        // into the base before this one's nodes are adopted.
        let sig = sig();
        let mut base = TermArena::new();
        base.intern(&chain(&sig, 2));
        let snapshot = base.clone();
        let mut run = TermArena::over(&snapshot);
        let f = run.intern(&front(&sig, 3));
        let top = run.detach();
        let theirs = base.intern(&front(&sig, 3));
        let before = base.len();
        assert_eq!(base.adopt(&top, f, &mut IdMap::default()), theirs);
        assert_eq!(base.len(), before);
    }

    #[test]
    fn deep_terms_adopt_without_native_recursion() {
        // Same shape as the interning test below, across arenas, into an
        // overlay, and back out of its top.
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
                let mut src = TermArena::new();
                let id = src.intern(&t);
                let mut dst = TermArena::new();
                let d = dst.adopt(&src, id, &mut IdMap::default());
                assert_eq!(dst.depth(d) as usize, depth + 1);
                let mut fresh = TermArena::new();
                let mut run = TermArena::over(&fresh);
                let o = run.adopt(&dst, d, &mut IdMap::default());
                let top = run.detach();
                let back = fresh.adopt(&top, o, &mut IdMap::default());
                assert!(fresh.term_eq(back, &t));
            })
            .expect("spawns")
            .join()
            .expect("deep adoption must not overflow the stack");
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
