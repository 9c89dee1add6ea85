//! The `check_corpus` inputs: the shipped specifications plus three
//! seeded generated families, each entry labelled with the verdict it
//! must get.
//!
//! Generated specifications are built programmatically and rendered to
//! DSL text with [`adt_dsl::print_spec`], so every operation parses real
//! source. Labels come from how a specification was built — never from
//! running a checker: a generated spec is complete and consistent by
//! construction, a dropped axiom leaves its case uncovered, and a flipped
//! right-hand side makes two rules disagree on a ground term.
//!
//! The seed changes content (truth values, ground terms, axiom order,
//! which axiom a mutant loses) but not shape, so the cost of a pass stays
//! the same from seed to seed.

use std::path::Path;

use adt_core::{Axiom, Spec, SpecBuilder, Term};

use crate::rng::Rng;

/// The expected verdict of one corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Whether `check_completeness_session` must find no missing case.
    pub complete: bool,
    /// `true`: the consistency verdict must be `Consistent`; `false`: it
    /// must be `Inconsistent`.
    pub consistent: bool,
    /// The number of `overlap_warnings`, where the construction fixes it.
    pub overlaps: Option<usize>,
}

/// Which family an entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A file of the repository's `specs/` directory.
    Shipped,
    /// Flat observers over many constructors (see [`synthetic`]).
    Synthetic,
    /// Recursive observers plus specialised ground axioms (see [`overlap`]).
    Overlap,
    /// A generated or shipped spec with one targeted change.
    Mutant,
}

/// One specification source with its known answer.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Display name, unique within the corpus.
    pub name: String,
    /// Family the entry was drawn from.
    pub family: Family,
    /// DSL source text.
    pub source: String,
    /// The verdict the checkers must reach.
    pub expect: Expect,
}

/// The shipped specifications and their verdicts. Only `queue_incomplete`
/// (the Queue with axiom 4 left out, §3) is incomplete; every shipped
/// spec is consistent. The overlap counts are the lint findings of each
/// file as shipped.
pub const SHIPPED: [(&str, bool, usize); 12] = [
    ("arithmetic", true, 0),
    ("array", true, 0),
    ("database", true, 0),
    ("knowlist", true, 0),
    ("list", true, 0),
    ("queue", true, 0),
    ("queue_incomplete", false, 0),
    ("set", true, 0),
    ("stack", true, 0),
    ("symboltable", true, 0),
    ("symboltable_kl", true, 0),
    ("symboltable_rep", true, 0),
];

/// Shipped specs in which every axiom is the only one covering its case,
/// so dropping any axiom must make the spec incomplete.
const DROPPABLE: [&str; 3] = ["queue", "stack", "symboltable"];

/// Synthetic sizes as (constructors, observers); axioms = product,
/// 32 to 512. The largest ones make up the latency tail: critical-pair
/// enumeration is quadratic in the number of rules. Sizes are spread
/// evenly enough that the latency percentiles fall inside a run of
/// similar operations rather than on a jump between two.
pub const SYNTHETIC_SIZES: [(usize, usize); 16] = [
    (4, 8),
    (4, 10),
    (4, 12),
    (8, 7),
    (8, 8),
    (8, 10),
    (8, 12),
    (8, 14),
    (8, 16),
    (16, 10),
    (16, 12),
    (16, 16),
    (16, 20),
    (16, 24),
    (16, 28),
    (16, 32),
];

/// Synthetic sizes (indices into [`SYNTHETIC_SIZES`]) that also get a
/// dropped-axiom mutant.
const SYNTHETIC_DROPS: [usize; 2] = [4, 8];

/// Overlap family shapes, smallest first.
pub const OVERLAP_SHAPES: [OverlapShape; 6] = [
    OverlapShape::new(2, 3, 4, 6),
    OverlapShape::new(2, 3, 8, 8),
    OverlapShape::new(3, 4, 12, 12),
    OverlapShape::new(3, 4, 16, 16),
    OverlapShape::new(4, 4, 24, 20),
    OverlapShape::new(4, 4, 32, 24),
];

/// Reads the shipped specifications from `specs_dir`.
///
/// # Errors
///
/// Returns a message naming the file that could not be read.
pub fn shipped(specs_dir: &Path) -> Result<Vec<(String, String)>, String> {
    SHIPPED
        .iter()
        .map(|(name, _, _)| {
            let path = specs_dir.join(format!("{name}.adt"));
            std::fs::read_to_string(&path)
                .map(|text| ((*name).to_owned(), text))
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .collect()
}

/// Builds the whole corpus for `seed` from the shipped sources (as read
/// by [`shipped`]).
///
/// # Errors
///
/// Returns a message if a shipped source does not parse (a mutant is cut
/// from it) or if a generated spec cannot be built.
pub fn generate(seed: u64, shipped_sources: &[(String, String)]) -> Result<Vec<Entry>, String> {
    let mut rng = Rng::new(seed ^ 0xC0A5_u64);
    let mut out = Vec::new();

    // Why: the `adt batch specs/` user's own inputs, small and
    // hand-written; normalization stays shallow.
    for ((name, source), (_, complete, overlaps)) in shipped_sources.iter().zip(SHIPPED) {
        out.push(Entry {
            name: name.clone(),
            family: Family::Shipped,
            source: source.clone(),
            expect: Expect {
                complete,
                consistent: true,
                overlaps: Some(overlaps),
            },
        });
    }

    // Why: many rules and no overlaps, so critical-pair enumeration
    // (quadratic in the rule count) and the completeness case analysis do
    // nearly all the work while every pair search comes up empty.
    for &(ctors, obs) in &SYNTHETIC_SIZES {
        let spec = synthetic(rng.next_u64(), ctors, obs)?;
        out.push(entry(
            format!("synthetic_{}", ctors * obs),
            Family::Synthetic,
            &spec,
            Expect {
                complete: true,
                consistent: true,
                overlaps: Some(0),
            },
        ));
    }

    // Why: specialised ground axioms overlap the general recursive ones,
    // so there are critical pairs that really join, and each join
    // normalizes a deep constructor chain on the worker pool.
    let mut overlap_seeds = Vec::new();
    for (k, shape) in OVERLAP_SHAPES.iter().enumerate() {
        let s = rng.next_u64();
        overlap_seeds.push(s);
        let spec = overlap(s, shape, None)?;
        out.push(entry(
            format!("overlap_{k}"),
            Family::Overlap,
            &spec,
            Expect {
                complete: true,
                consistent: true,
                overlaps: Some(shape.special),
            },
        ));
    }

    // Why: the checkers must detect what they claim to detect. Each
    // mutant's verdict follows from the one change made to it.
    for (name, source) in shipped_sources
        .iter()
        .filter(|(n, _)| DROPPABLE.contains(&n.as_str()))
    {
        let spec = adt_dsl::parse(source).map_err(|d| d.render(source))?;
        let victim = rng.below(spec.axioms().len());
        out.push(entry(
            format!("{name}_drop{victim}"),
            Family::Mutant,
            &drop_axiom(&spec, victim)?,
            Expect {
                complete: false,
                consistent: true,
                overlaps: None,
            },
        ));
    }
    for &k in &SYNTHETIC_DROPS {
        let (ctors, obs) = SYNTHETIC_SIZES[k];
        let spec = synthetic(rng.next_u64(), ctors, obs)?;
        let victim = rng.below(spec.axioms().len());
        out.push(entry(
            format!("synthetic_{}_drop{victim}", ctors * obs),
            Family::Mutant,
            &drop_axiom(&spec, victim)?,
            Expect {
                complete: false,
                consistent: true,
                overlaps: Some(0),
            },
        ));
    }
    for (k, (shape, &s)) in OVERLAP_SHAPES.iter().zip(&overlap_seeds).enumerate() {
        let flipped = rng.below(shape.special);
        let spec = overlap(s, shape, Some(flipped))?;
        out.push(entry(
            format!("overlap_{k}_flip{flipped}"),
            Family::Mutant,
            &spec,
            Expect {
                complete: true,
                consistent: false,
                overlaps: Some(shape.special),
            },
        ));
    }
    Ok(out)
}

fn entry(name: String, family: Family, spec: &Spec, expect: Expect) -> Entry {
    Entry {
        name,
        family,
        source: adt_dsl::print_spec(spec),
        expect,
    }
}

/// A complete, overlap-free spec: one sort with a nullary constructor
/// `C0` and `ctors - 1` unary ones, and `obs` boolean observers defined by
/// one axiom per constructor (`ctors * obs` axioms). The seed picks each
/// axiom's truth value and the axiom order.
///
/// # Errors
///
/// Returns the builder's message if the spec is ill-formed (a bug here).
pub fn synthetic(seed: u64, ctors: usize, obs: usize) -> Result<Spec, String> {
    let mut rng = Rng::new(seed);
    let mut b = SpecBuilder::new("Synthetic");
    let s = b.sort("S");
    let mut ctor_ids = vec![(b.ctor("C0", [], s), 0usize)];
    for k in 1..ctors {
        ctor_ids.push((b.ctor(&format!("C{k}"), [s], s), 1));
    }
    let x = Term::Var(b.var("x", s));
    let mut axioms = Vec::new();
    for o in 0..obs {
        let op = b.op(&format!("OBS{o}?"), [s], b.bool_sort());
        for (k, &(ctor, arity)) in ctor_ids.iter().enumerate() {
            let arg = if arity == 0 {
                b.app(ctor, [])
            } else {
                b.app(ctor, [x.clone()])
            };
            let rhs = if rng.below(2) == 0 { b.tt() } else { b.ff() };
            axioms.push((format!("a{o}_{k}"), b.app(op, [arg]), rhs));
        }
    }
    rng.shuffle(&mut axioms);
    for (label, lhs, rhs) in axioms {
        b.axiom(label, lhs, rhs);
    }
    b.build().map_err(|e| e.to_string())
}

/// Shape of an [`overlap`] spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapShape {
    /// Recursive boolean observers `P0?`, `P1?`, ….
    pub observers: usize,
    /// Unary constructors `C1`…`Cn` (besides the nullary `C0`).
    pub ctors: usize,
    /// Specialised ground axioms.
    pub special: usize,
    /// Constructor depth of each specialised axiom's argument.
    pub depth: usize,
}

impl OverlapShape {
    /// A shape with `observers`, `ctors`, `special` axioms of `depth`.
    pub const fn new(observers: usize, ctors: usize, special: usize, depth: usize) -> Self {
        OverlapShape {
            observers,
            ctors,
            special,
            depth,
        }
    }
}

/// A complete spec of parity-like observers with specialised ground
/// axioms. `Po?(C0)` is a seeded constant and `Po?(Cj(x))` is either
/// `Po?(x)` or its negation (seeded per observer and constructor). Each
/// specialised axiom `Po?(t)`, for a seeded ground chain `t` of `depth`
/// constructors, states the value the general axioms compute for it, and
/// comes before them in rule order. Every specialised axiom overlaps its
/// general axiom at the root, so each gives two critical pairs whose
/// join normalizes a `depth`-deep chain. `flip = Some(k)` negates the
/// `k`-th specialised right-hand side, which makes the spec inconsistent.
///
/// # Errors
///
/// Returns the builder's message if the spec is ill-formed (a bug here).
pub fn overlap(seed: u64, shape: &OverlapShape, flip: Option<usize>) -> Result<Spec, String> {
    let mut rng = Rng::new(seed);
    let mut b = SpecBuilder::new("Overlap");
    let s = b.sort("S");
    let c0 = b.ctor("C0", [], s);
    let ctors: Vec<_> = (1..=shape.ctors)
        .map(|j| b.ctor(&format!("C{j}"), [s], s))
        .collect();
    let x = Term::Var(b.var("x", s));
    let base: Vec<bool> = (0..shape.observers).map(|_| rng.below(2) == 0).collect();
    let negates: Vec<Vec<bool>> = (0..shape.observers)
        .map(|_| ctors.iter().map(|_| rng.below(2) == 0).collect())
        .collect();
    let ops: Vec<_> = (0..shape.observers)
        .map(|o| b.op(&format!("P{o}?"), [s], b.bool_sort()))
        .collect();
    let truth = |v: bool| if v { b.tt() } else { b.ff() };

    let mut seen = std::collections::HashSet::new();
    let mut special = Vec::new();
    while special.len() < shape.special {
        let o = rng.below(shape.observers);
        let chain: Vec<usize> = (0..shape.depth).map(|_| rng.below(ctors.len())).collect();
        if !seen.insert((o, chain.clone())) {
            continue;
        }
        // The value the general axioms give: fold from the innermost C0.
        let value = chain.iter().rev().fold(base[o], |v, &j| v ^ negates[o][j]);
        let term = chain
            .iter()
            .rev()
            .fold(b.app(c0, []), |t, &j| b.app(ctors[j], [t]));
        let k = special.len();
        let value = if flip == Some(k) { !value } else { value };
        special.push((format!("s{k}"), b.app(ops[o], [term]), truth(value)));
    }

    let mut general = Vec::new();
    for (o, &op) in ops.iter().enumerate() {
        general.push((
            format!("p{o}_0"),
            b.app(op, [b.app(c0, [])]),
            truth(base[o]),
        ));
        for (j, &ctor) in ctors.iter().enumerate() {
            let rec = b.app(op, [x.clone()]);
            let rhs = if negates[o][j] {
                Term::ite(rec, b.ff(), b.tt())
            } else {
                rec
            };
            general.push((
                format!("p{o}_{}", j + 1),
                b.app(op, [b.app(ctor, [x.clone()])]),
                rhs,
            ));
        }
    }
    for (label, lhs, rhs) in special.into_iter().chain(general) {
        b.axiom(label, lhs, rhs);
    }
    b.build().map_err(|e| e.to_string())
}

/// `spec` without its `index`-th axiom.
///
/// # Errors
///
/// Returns the core's message if the remaining axioms do not form a
/// valid spec.
pub fn drop_axiom(spec: &Spec, index: usize) -> Result<Spec, String> {
    let axioms: Vec<Axiom> = spec
        .axioms()
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != index)
        .map(|(_, a)| a.clone())
        .collect();
    Spec::from_parts(
        spec.name().to_owned(),
        spec.sig().clone(),
        axioms,
        spec.tois().to_vec(),
        spec.params().to_vec(),
    )
    .map_err(|e| e.to_string())
}
