//! The four workloads. Each is a closed loop over a fixed, seeded pass of
//! operations; every operation calls the layers' public functions the way
//! the CLI and REPL do and checks its output against a known answer.

use std::path::Path;
use std::time::{Duration, Instant};

use adt_check::{
    check_completeness_session, check_consistency_session, classification_warnings,
    overlap_warnings, recursion_warnings, CheckConfig, CheckStats, ConsistencyVerdict, ProbeConfig,
};
use adt_core::{Deadline, Session, SessionStats, Spec, Supervisor, Term};
use adt_dsl::{parse_session, parse_term_id};
use adt_rewrite::{classify_superposition, superpositions, Rewriter};
use adt_structures::models::fifo_model;
use adt_structures::specs::symtab_rep_op_map;
use adt_structures::{AttrList, Fifo, Ident, SymbolTable};
use adt_verify::{
    check_axioms, differential_check, translate_obligations, verify_obligation, AxiomCheckConfig,
    DifferentialConfig, OpMap, ProofConfig,
};

use crate::corpus::{self, Entry};
use crate::rng::Rng;
use crate::trace::Tracer;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["check_corpus", "interp_trace", "eval_cold", "verify_symtab"];

/// Per-op wall-clock budget of checker and differential runs; a run that
/// hits it ends UNDETERMINED, which counts as a failed operation.
pub const OP_DEADLINE: Duration = Duration::from_secs(20);

/// Work counts gathered from the layers' own reports and session stats.
/// Counts are kept apart from timings; the harness turns both into
/// per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Rewrite steps (session or checker telemetry).
    pub steps: u64,
    /// Normalizations routed through a session.
    pub normalize_calls: u64,
    /// Critical pairs classified.
    pub pairs: u64,
    /// Checker work items (ops, pairs, probes).
    pub items: u64,
    /// Ground probes normalized.
    pub probes: u64,
    /// Checker phases or operations that ended without a verdict.
    pub undetermined: u64,
    /// Summed worker busy time of the checkers' pools.
    pub pool_busy: Duration,
    /// Summed wall time of the checkers' pool phases.
    pub pool_wall: Duration,
    /// Summed `wall × workers` of the pool phases.
    pub pool_capacity: Duration,
    /// Memo lookups that hit / missed.
    pub memo_hits: u64,
    /// Memo lookups that missed.
    pub memo_misses: u64,
    /// Session normal-form cache hits.
    pub nf_cache_hits: u64,
    /// Sessions whose end-state was folded in below.
    pub sessions: u64,
    /// Memo entries summed over sessions at their end.
    pub memo_entries: u64,
    /// Arena terms summed over sessions at their end.
    pub arena_terms: u64,
    /// Arena bytes summed over sessions at their end.
    pub arena_bytes: u64,
    /// Source bytes handed to the DSL layer.
    pub parse_bytes: u64,
    /// Representation obligations proved.
    pub obligations_proved: u64,
    /// Axiom instances checked against a model.
    pub instances: u64,
    /// Ground terms the differential oracle compared.
    pub differential_terms: u64,
    /// Time spent by the direct (non-symbolic) reference implementation.
    pub direct: Duration,
    /// Symbolic time spent on the operations the direct runs mirror.
    pub symbolic: Duration,
}

impl Counters {
    /// Folds a finished session's telemetry in.
    pub fn session(&mut self, stats: &SessionStats) {
        self.sessions += 1;
        self.steps += stats.rewrite_steps;
        self.normalize_calls += stats.normalizations;
        self.memo_hits += stats.memo_hits;
        self.memo_misses += stats.memo_misses;
        self.nf_cache_hits += stats.nf_cache_hits;
        self.memo_entries += stats.memo_entries as u64;
        self.arena_terms += stats.interned_terms as u64;
        self.arena_bytes += stats.arena_bytes as u64;
    }

    fn pool(&mut self, stats: &CheckStats) {
        self.items += stats.items as u64;
        self.pool_busy += stats.busy.iter().sum::<Duration>();
        self.pool_wall += stats.elapsed;
        self.pool_capacity += stats.elapsed * u32::try_from(stats.jobs).unwrap_or(u32::MAX);
    }
}

/// One workload: a fixed pass of operations, replayed until the run's
/// time is up.
pub trait Workload {
    /// Operations in one pass.
    fn ops_per_pass(&self) -> usize;

    /// Reference work done once per pass, outside every operation (the
    /// direct runs the symbolic answers are compared with).
    ///
    /// # Errors
    ///
    /// Returns a message if the reference run itself misbehaves.
    fn before_pass(&mut self, _tracer: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Runs operation `i` of the pass and checks its answer.
    ///
    /// # Errors
    ///
    /// Returns why the operation failed: a wrong answer, an error from
    /// the layer, or no verdict within the deadline.
    fn op(&mut self, i: usize, tracer: &mut Tracer) -> Result<(), String>;

    /// Extra traced-only measurements tied to operation `i`, run after
    /// its span closes (enumeration and joining on `check_corpus`).
    fn after_op(&mut self, _i: usize, _tracer: &mut Tracer) {}

    /// Counts gathered so far.
    fn counters(&mut self) -> &mut Counters;

    /// Overwrites one known answer with a wrong one, so a test can show
    /// that the oracle catches it.
    fn mislabel(&mut self);
}

/// Builds workload `name` for `seed`, reading specifications from
/// `specs_dir`.
///
/// # Errors
///
/// Returns a message for an unknown workload or unreadable inputs.
pub fn build(
    name: &str,
    seed: u64,
    specs_dir: &Path,
    jobs: usize,
) -> Result<Box<dyn Workload>, String> {
    match name {
        "check_corpus" => Ok(Box::new(CheckCorpus::new(seed, specs_dir, jobs)?)),
        "interp_trace" => Ok(Box::new(InterpTrace::new(seed, specs_dir)?)),
        "eval_cold" => Ok(Box::new(EvalCold::new(seed, specs_dir)?)),
        "verify_symtab" => Ok(Box::new(VerifySymtab::new(seed, specs_dir, jobs)?)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

fn read(specs_dir: &Path, name: &str) -> Result<String, String> {
    let path = specs_dir.join(format!("{name}.adt"));
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn parse_spec(source: &str) -> Result<Spec, String> {
    adt_dsl::parse(source).map_err(|d| d.render(source))
}

// ---------------------------------------------------------------------
// check_corpus

/// `adt check` / `adt batch` over the labelled corpus.
pub struct CheckCorpus {
    entries: Vec<Entry>,
    config: CheckConfig,
    counters: Counters,
}

impl CheckCorpus {
    /// Generates the corpus for `seed`; checks run on `jobs` workers.
    ///
    /// # Errors
    ///
    /// Returns a message if `specs/` cannot be read or generation fails.
    pub fn new(seed: u64, specs_dir: &Path, jobs: usize) -> Result<Self, String> {
        let shipped = corpus::shipped(specs_dir)?;
        Ok(CheckCorpus {
            entries: corpus::generate(seed, &shipped)?,
            config: CheckConfig::jobs(jobs),
            counters: Counters::default(),
        })
    }

    /// The corpus being checked.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }
}

impl Workload for CheckCorpus {
    fn ops_per_pass(&self) -> usize {
        self.entries.len()
    }

    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<(), String> {
        let entry = &self.entries[i];
        self.counters.parse_bytes += entry.source.len() as u64;
        let session = t
            .span("dsl.parse", || parse_session(&entry.source))
            .map_err(|d| format!("{}: does not parse: {d}", entry.name))?;
        // The deadline starts at op entry, as `adt check --deadline` does.
        let config = self
            .config
            .clone()
            .with_supervisor(Supervisor::none().with_deadline(Deadline::after(OP_DEADLINE)));
        let completeness = t.span("check.completeness", || {
            check_completeness_session(&session, &config)
        });
        let consistency = t.span("check.consistency", || {
            check_consistency_session(&session, &ProbeConfig::default(), &config)
        });
        let spec = session.spec();
        let warnings = t.span("check.lint", || {
            (
                classification_warnings(spec).len(),
                overlap_warnings(spec).len(),
                recursion_warnings(spec).len(),
            )
        });

        let c = &mut self.counters;
        c.pool(completeness.stats());
        c.pool(consistency.stats());
        c.pairs += consistency.pairs_checked() as u64;
        c.probes += consistency.probes_run() as u64;
        c.session(&session.stats());
        t.span("core.teardown", || drop(session));
        let undetermined_ops = completeness.undetermined_ops().len();
        let verdict = consistency.verdict().clone();
        let cons_undetermined = matches!(
            verdict,
            ConsistencyVerdict::Exhausted | ConsistencyVerdict::Interrupted
        );
        c.undetermined += undetermined_ops as u64 + u64::from(cons_undetermined);

        let name = &entry.name;
        let expect = entry.expect;
        if undetermined_ops > 0 || cons_undetermined || !consistency.failures().is_empty() {
            return Err(format!("{name}: UNDETERMINED ({verdict:?})"));
        }
        if completeness.is_sufficiently_complete() != expect.complete {
            return Err(format!(
                "{name}: complete = {}, expected {}",
                completeness.is_sufficiently_complete(),
                expect.complete
            ));
        }
        let want = if expect.consistent {
            ConsistencyVerdict::Consistent
        } else {
            ConsistencyVerdict::Inconsistent
        };
        if verdict != want {
            return Err(format!(
                "{name}: consistency {verdict:?}, expected {want:?}"
            ));
        }
        if let Some(n) = expect.overlaps {
            if warnings.1 != n {
                return Err(format!(
                    "{name}: {} overlap warning(s), expected {n}",
                    warnings.1
                ));
            }
        }
        Ok(())
    }

    fn after_op(&mut self, i: usize, t: &mut Tracer) {
        // Time enumeration and joining on their own, on the same spec:
        // `check.consistency_s` minus these two is the consistency self
        // time.
        let Ok(spec) = adt_dsl::parse(&self.entries[i].source) else {
            return;
        };
        let Ok(set) = t.span("rewrite.enumerate", || superpositions(&spec)) else {
            return;
        };
        let rw = Rewriter::new(&set.spec);
        t.span("rewrite.join", || {
            for sp in &set.superpositions {
                std::hint::black_box(classify_superposition(&rw, sp));
            }
        });
    }

    fn counters(&mut self) -> &mut Counters {
        &mut self.counters
    }

    fn mislabel(&mut self) {
        if let Some(e) = self.entries.first_mut() {
            e.expect.complete = !e.expect.complete;
        }
    }
}

// ---------------------------------------------------------------------
// Symbol-table traces, shared by interp_trace and eval_cold.

/// One operation of a compiler-like symbol-table trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymOp {
    /// ENTERBLOCK.
    Enter,
    /// LEAVEBLOCK (only generated inside an inner block).
    Leave,
    /// ADD of identifier `.0` with attribute list `.1`.
    Add(usize, usize),
    /// RETRIEVE of identifier `.0`.
    Retrieve(usize),
}

const IDENTS: [&str; 3] = ["ID_X", "ID_Y", "ID_Z"];
/// Seed of the trace shapes, the same for every run.
const SHAPE_SEED: u64 = 0x5_4A9E;
const ATTRS: [&str; 3] = ["ATTR_1", "ATTR_2", "ATTR_3"];

/// A trace of `len` operations: about 50% ADD, 30% RETRIEVE, 10% ENTER
/// and 10% LEAVE, never leaving the outermost block. `shape` decides which
/// kind of operation comes where and `content` which identifier and
/// attribute list each one names, so traces of one shape cost about the
/// same whatever the content seed. With `reads = false` RETRIEVEs are left
/// out (state-building only).
pub fn symtab_trace(len: usize, shape: &mut Rng, content: &mut Rng, reads: bool) -> Vec<SymOp> {
    let mut depth = 1usize;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let op = match shape.below(10) {
            0 => {
                depth += 1;
                SymOp::Enter
            }
            1 if depth > 1 => {
                depth -= 1;
                SymOp::Leave
            }
            2..=6 => SymOp::Add(content.below(IDENTS.len()), content.below(ATTRS.len())),
            _ => SymOp::Retrieve(content.below(IDENTS.len())),
        };
        if reads || !matches!(op, SymOp::Retrieve(_)) {
            out.push(op);
        }
    }
    out
}

/// Runs a trace on the direct [`SymbolTable`]; returns, per RETRIEVE, the
/// attribute-list index found (`None` for the spec's `error`).
pub fn direct_symtab(trace: &[SymOp]) -> Vec<Option<usize>> {
    let mut st: SymbolTable = SymbolTable::init();
    let mut answers = Vec::new();
    for op in trace {
        match *op {
            SymOp::Enter => st.enter_block(),
            SymOp::Leave => {
                let _ = st.leave_block();
            }
            SymOp::Add(id, attr) => st.add(
                Ident::new(IDENTS[id]),
                AttrList::new().with("attr", ATTRS[attr]),
            ),
            SymOp::Retrieve(id) => answers.push(
                st.retrieve(&Ident::new(IDENTS[id]))
                    .ok()
                    .and_then(|a| a.get("attr"))
                    .and_then(|name| ATTRS.iter().position(|&n| n == name)),
            ),
        }
    }
    answers
}

/// The term a symbol-table answer must normalize to.
fn symtab_answer(spec: &Spec, answer: Option<usize>) -> Result<Term, String> {
    let sig = spec.sig();
    match answer {
        Some(attr) => sig.apply(ATTRS[attr], vec![]).map_err(|e| e.to_string()),
        None => Ok(Term::Error(
            sig.sort_named("AttributeList").map_err(|e| e.to_string())?,
        )),
    }
}

// ---------------------------------------------------------------------
// interp_trace

/// Traces per pass.
pub const TRACES: usize = 4;
/// Operations per trace (plus one INIT that loads the spec).
pub const TRACE_LEN: usize = 300;

struct Live {
    session: Session,
    state: Term,
    reads: usize,
}

/// The REPL user: one long-lived session per trace, writes intern the
/// extended state, reads normalize RETRIEVE on it.
pub struct InterpTrace {
    source: String,
    traces: Vec<Vec<SymOp>>,
    answers: Vec<Vec<Option<usize>>>,
    live: Option<Live>,
    counters: Counters,
}

impl InterpTrace {
    /// Generates `TRACES` traces of `TRACE_LEN` operations for `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message if `specs/symboltable.adt` cannot be read.
    pub fn new(seed: u64, specs_dir: &Path) -> Result<Self, String> {
        let mut shape = Rng::new(SHAPE_SEED);
        let mut content = Rng::new(seed ^ 0x0517_AB1E);
        let traces: Vec<_> = (0..TRACES)
            .map(|_| symtab_trace(TRACE_LEN, &mut shape, &mut content, true))
            .collect();
        Ok(InterpTrace {
            source: read(specs_dir, "symboltable")?,
            answers: traces.iter().map(|t| direct_symtab(t)).collect(),
            traces,
            live: None,
            counters: Counters::default(),
        })
    }
}

impl Workload for InterpTrace {
    fn ops_per_pass(&self) -> usize {
        self.traces.len() * (TRACE_LEN + 1)
    }

    fn before_pass(&mut self, t: &mut Tracer) -> Result<(), String> {
        // The reference side of `slowdown_vs_direct`: the same traces on
        // the real symbol table.
        for (trace, want) in self.traces.iter().zip(&self.answers) {
            let start = Instant::now();
            let got = t.span("structures.direct", || {
                direct_symtab(std::hint::black_box(trace))
            });
            self.counters.direct += start.elapsed();
            if &got != want {
                return Err("direct SymbolTable answers changed between passes".to_owned());
            }
        }
        Ok(())
    }

    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<(), String> {
        let start = Instant::now();
        let (k, step) = (i / (TRACE_LEN + 1), i % (TRACE_LEN + 1));
        let out = if step == 0 {
            self.init(t)
        } else {
            self.step(k, step - 1, t)
        };
        self.counters.symbolic += start.elapsed();
        out
    }

    fn counters(&mut self) -> &mut Counters {
        &mut self.counters
    }

    fn mislabel(&mut self) {
        if let Some(a) = self.answers.first_mut().and_then(|v| v.first_mut()) {
            *a = match *a {
                Some(x) => Some((x + 1) % ATTRS.len()),
                None => Some(0),
            };
        }
    }
}

impl InterpTrace {
    /// Loads the spec into a fresh session and interns `INIT`, as a REPL
    /// start does.
    fn init(&mut self, t: &mut Tracer) -> Result<(), String> {
        if let Some(done) = self.live.take() {
            self.counters.session(&done.session.stats());
            t.span("core.teardown", || drop(done));
        }
        self.counters.parse_bytes += self.source.len() as u64;
        let session = t
            .span("dsl.parse", || parse_session(&self.source))
            .map_err(|d| d.to_string())?;
        let state = session
            .sig()
            .apply("INIT", vec![])
            .map_err(|e| e.to_string())?;
        t.span("core.intern", || session.intern(&state));
        self.live = Some(Live {
            session,
            state,
            reads: 0,
        });
        Ok(())
    }

    fn step(&mut self, k: usize, step: usize, t: &mut Tracer) -> Result<(), String> {
        let live = self.live.as_mut().ok_or("trace step without a session")?;
        let sig = live.session.sig();
        let app = |name: &str, args: Vec<Term>| sig.apply(name, args).map_err(|e| e.to_string());
        let state = std::mem::replace(&mut live.state, Term::Error(sig.bool_sort()));
        match self.traces[k][step] {
            SymOp::Enter => live.state = app("ENTERBLOCK", vec![state])?,
            SymOp::Leave => live.state = app("LEAVEBLOCK", vec![state])?,
            SymOp::Add(id, attr) => {
                live.state = app(
                    "ADD",
                    vec![state, app(IDENTS[id], vec![])?, app(ATTRS[attr], vec![])?],
                )?;
            }
            SymOp::Retrieve(id) => {
                let query = app("RETRIEVE", vec![state.clone(), app(IDENTS[id], vec![])?])?;
                live.state = state;
                let session = &live.session;
                let qid = t.span("core.intern", || session.intern(&query));
                let nf = t
                    .span("rewrite.normalize", || {
                        Rewriter::for_session(session).normalize_id(session, qid)
                    })
                    .map_err(|e| format!("trace {k} op {step}: {e}"))?;
                let want = self.answers[k][live.reads];
                live.reads += 1;
                let expected = symtab_answer(session.spec(), want)?;
                if !session.term_eq(nf, &expected) {
                    return Err(format!(
                        "trace {k} op {step}: RETRIEVE gave {}, direct SymbolTable gave {}",
                        adt_core::display::term(sig, &session.term(nf)),
                        adt_core::display::term(sig, &expected)
                    ));
                }
                return Ok(());
            }
        }
        let session = &live.session;
        let state = &live.state;
        t.span("core.intern", || session.intern(state));
        Ok(())
    }
}

// ---------------------------------------------------------------------
// eval_cold

/// Smallest term size (ADDs, or trace length) of the eval_cold queries.
pub const EVAL_MIN: usize = 32;
/// Size step between consecutive queries of one spec.
pub const EVAL_STEP: usize = 3;
/// Queue queries per pass (sizes 32 to 128); one fewer symbol-table
/// query, so a pass holds an odd 65 operations.
pub const EVAL_QUEUE_QUERIES: usize = 33;

struct Query {
    queue: bool,
    text: String,
    /// Item name (queue) or attribute index (symbol table; `None` =
    /// `error`).
    answer: Result<&'static str, Option<usize>>,
}

/// One-shot `adt eval`: parse the spec and one deep term, normalize once,
/// keep nothing.
pub struct EvalCold {
    queue_src: String,
    symtab_src: String,
    queries: Vec<Query>,
    counters: Counters,
}

impl EvalCold {
    /// Generates one pass of distinct queries for `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message if a spec source cannot be read.
    pub fn new(seed: u64, specs_dir: &Path) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0xE7A1);
        let mut shape = Rng::new(SHAPE_SEED);
        let mut queries = Vec::new();
        for k in 0..EVAL_QUEUE_QUERIES {
            let n = EVAL_MIN + EVAL_STEP * k;
            queries.push(queue_query(n, &mut rng));
            if k + 1 < EVAL_QUEUE_QUERIES {
                queries.push(symtab_query(n, &mut shape, &mut rng));
            }
        }
        Ok(EvalCold {
            queue_src: read(specs_dir, "queue")?,
            symtab_src: read(specs_dir, "symboltable")?,
            queries,
            counters: Counters::default(),
        })
    }
}

/// `FRONT(ADD(…ADD(NEW, i1)…, in))`; the answer is the item `Fifo` has
/// in front after the same adds.
fn queue_query(n: usize, rng: &mut Rng) -> Query {
    const ITEMS: [&str; 3] = ["A", "B", "C"];
    let mut fifo = Fifo::new();
    let mut text = String::from("NEW");
    for _ in 0..n {
        let item = ITEMS[rng.below(ITEMS.len())];
        fifo.add(item);
        text = format!("ADD({text}, {item})");
    }
    Query {
        queue: true,
        text: format!("FRONT({text})"),
        answer: Ok(fifo.front().copied().unwrap_or("error")),
    }
}

/// `RETRIEVE(<state after a fresh n-op trace>, id)`; the answer comes from
/// `SymbolTable` on the same trace.
fn symtab_query(n: usize, shape: &mut Rng, rng: &mut Rng) -> Query {
    let mut trace = symtab_trace(n, shape, rng, false);
    let id = rng.below(IDENTS.len());
    let mut text = String::from("INIT");
    for op in &trace {
        text = match *op {
            SymOp::Enter => format!("ENTERBLOCK({text})"),
            SymOp::Leave => format!("LEAVEBLOCK({text})"),
            SymOp::Add(i, a) => format!("ADD({text}, {}, {})", IDENTS[i], ATTRS[a]),
            SymOp::Retrieve(_) => text,
        };
    }
    trace.push(SymOp::Retrieve(id));
    Query {
        queue: false,
        text: format!("RETRIEVE({text}, {})", IDENTS[id]),
        answer: Err(direct_symtab(&trace)[0]),
    }
}

impl Workload for EvalCold {
    fn ops_per_pass(&self) -> usize {
        self.queries.len()
    }

    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<(), String> {
        let q = &self.queries[i];
        let source = if q.queue {
            &self.queue_src
        } else {
            &self.symtab_src
        };
        self.counters.parse_bytes += (source.len() + q.text.len()) as u64;
        let (session, id) = t.span("dsl.parse", || {
            let session = parse_session(source).map_err(|d| d.to_string())?;
            let id = parse_term_id(&session, &q.text).map_err(|d| d.to_string())?;
            Ok::<_, String>((session, id))
        })?;
        let nf = t
            .span("rewrite.normalize", || {
                Rewriter::for_session(&session).normalize_id(&session, id)
            })
            .map_err(|e| format!("query {i}: {e}"))?;
        let sig = session.sig();
        let expected = match q.answer {
            Ok("error") => Term::Error(sig.sort_named("Item").map_err(|e| e.to_string())?),
            Ok(item) => sig.apply(item, vec![]).map_err(|e| e.to_string())?,
            Err(attr) => symtab_answer(session.spec(), attr)?,
        };
        let verdict = if session.term_eq(nf, &expected) {
            Ok(())
        } else {
            Err(format!(
                "query {i}: normal form {}, direct structure gave {}",
                adt_core::display::term(sig, &session.term(nf)),
                adt_core::display::term(sig, &expected)
            ))
        };
        self.counters.session(&session.stats());
        t.span("core.teardown", || drop(session));
        verdict
    }

    fn counters(&mut self) -> &mut Counters {
        &mut self.counters
    }

    fn mislabel(&mut self) {
        if let Some(q) = self.queries.first_mut() {
            q.answer = match q.answer {
                Ok("A") => Ok("B"),
                Ok(_) => Ok("A"),
                Err(Some(a)) => Err(Some((a + 1) % ATTRS.len())),
                Err(None) => Err(Some(0)),
            };
        }
    }
}

// ---------------------------------------------------------------------
// verify_symtab

/// Depth of the bounded Queue-vs-FIFO axiom check.
pub const AXIOM_DEPTH: usize = 4;
/// Obligations of the §4 representation proof.
pub const OBLIGATIONS: usize = 18;
/// Axioms that need Assumption 1 (legal stacks are PUSH-built).
pub const CONDITIONAL: [&str; 2] = ["6", "9"];

/// The §4 development: the Symboltable representation proof plus the
/// Queue implementation checks.
pub struct VerifySymtab {
    abs: Spec,
    rep: Spec,
    queue: Spec,
    op_map: OpMap,
    axiom_cfg: AxiomCheckConfig,
    diff_cfg: DifferentialConfig,
    expected_proved: usize,
    counters: Counters,
}

impl VerifySymtab {
    /// Reads the three specs; the seed varies the random axiom instances
    /// and the probe sample.
    ///
    /// # Errors
    ///
    /// Returns a message if a spec cannot be read or parsed.
    pub fn new(seed: u64, specs_dir: &Path, jobs: usize) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0x5EC4);
        let axiom_cfg = AxiomCheckConfig {
            max_depth: AXIOM_DEPTH,
            seed: rng.next_u64(),
            ..AxiomCheckConfig::default()
        };
        let mut diff_cfg = DifferentialConfig {
            jobs,
            ..DifferentialConfig::default()
        };
        diff_cfg.probe.seed = rng.next_u64();
        Ok(VerifySymtab {
            abs: parse_spec(&read(specs_dir, "symboltable")?)?,
            rep: parse_spec(&read(specs_dir, "symboltable_rep")?)?,
            queue: parse_spec(&read(specs_dir, "queue")?)?,
            op_map: symtab_rep_op_map(),
            axiom_cfg,
            diff_cfg,
            expected_proved: OBLIGATIONS,
            counters: Counters::default(),
        })
    }
}

/// Operations per verify_symtab pass; every operation repeats the whole
/// development, so this only sets how often the loop checks the clock.
pub const VERIFY_OPS: usize = 25;

impl Workload for VerifySymtab {
    fn ops_per_pass(&self) -> usize {
        VERIFY_OPS
    }

    fn op(&mut self, _i: usize, t: &mut Tracer) -> Result<(), String> {
        let (ext, obligations) = t
            .span("verify.translate", || {
                translate_obligations(&self.abs, &self.rep, &self.op_map, Some("PHI"))
            })
            .map_err(|e| format!("translate_obligations: {e}"))?;
        let assumption_1 = ProofConfig::default().restrict("Stack", &["PUSH"]);
        let plain = ProofConfig::default();
        let (proved, wrongly_proved) = t.span("verify.prove", || {
            let mut proved = 0usize;
            let mut wrongly_proved = Vec::new();
            for ob in &obligations {
                if verify_obligation(&ext, ob, &assumption_1).is_ok_and(|o| o.is_proved()) {
                    proved += 1;
                }
                // Without the assumption the conditional axioms must fail.
                if CONDITIONAL.contains(&ob.label.as_str())
                    && verify_obligation(&ext, ob, &plain).is_ok_and(|o| o.is_proved())
                {
                    wrongly_proved.push(ob.label.clone());
                }
            }
            (proved, wrongly_proved)
        });
        let model = fifo_model(&self.queue);
        let axioms = t.span("verify.axiom_check", || {
            check_axioms(&model, &self.axiom_cfg)
        });
        let diff_cfg = DifferentialConfig {
            supervisor: Supervisor::none().with_deadline(Deadline::after(OP_DEADLINE)),
            ..self.diff_cfg.clone()
        };
        let diff = t.span("verify.differential", || {
            differential_check(&model, &diff_cfg)
        });

        let c = &mut self.counters;
        c.obligations_proved += proved as u64;
        c.instances += axioms.instances_checked as u64;
        c.differential_terms += diff.terms_tested as u64;
        c.undetermined += diff.interrupted as u64;
        if obligations.len() != OBLIGATIONS || proved != self.expected_proved {
            return Err(format!(
                "{proved}/{} obligations proved under Assumption 1, expected {}/{OBLIGATIONS}",
                obligations.len(),
                self.expected_proved
            ));
        }
        if !wrongly_proved.is_empty() {
            return Err(format!(
                "axiom(s) {} proved without Assumption 1",
                wrongly_proved.join(", ")
            ));
        }
        if !axioms.passed() || axioms.instances_checked == 0 {
            return Err(format!("Queue vs FIFO axiom check: {}", axioms.summary()));
        }
        if !diff.passed() || diff.interrupted > 0 {
            return Err(format!(
                "Queue vs FIFO differential check: {}",
                diff.render()
            ));
        }
        Ok(())
    }

    fn counters(&mut self) -> &mut Counters {
        &mut self.counters
    }

    fn mislabel(&mut self) {
        self.expected_proved = OBLIGATIONS - 1;
    }
}
