//! Lowering: AST to a validated [`adt_core::Spec`].
//!
//! Lowering is name resolution plus bidirectional sort checking. The only
//! genuinely bidirectional part is `error`: its sort comes from context
//! (`FRONT(NEW) = error` gives it sort Item because the left-hand side has
//! sort Item), exactly as in the paper's usage.
//!
//! Terms are lowered in a single bottom-up pass that returns each
//! subterm's sort with it. Every node is sort-checked once, against what
//! its context expects: a child has already been checked against the sort
//! its position in the parent demands, so a node's own sort is read off
//! its head (a variable's sort, an operation's result sort, a
//! conditional's branch sort, the context's sort for `error`) and
//! compared at the root. Lowering a term is therefore O(nodes), however
//! deep it is; the validating [`Term::sort`] walk, which re-checks a whole
//! subtree, is left to callers that receive hand-built terms.

use adt_core::{Axiom, Signature, SortId, Spec, Term};

use crate::ast::{Item, Module, TermAst, TypeBlock};
use crate::diag::{Diagnostics, Span};

/// Lowers a parsed module to a specification.
///
/// # Errors
///
/// Returns every name-resolution and sort error found (the pass does not
/// stop at the first problem).
pub fn lower(module: &Module) -> Result<Spec, Diagnostics> {
    let mut diags = Diagnostics::new();
    let mut sig = Signature::new();
    let mut tois: Vec<SortId> = Vec::new();
    let mut params: Vec<SortId> = Vec::new();

    // Pass 1: sorts.
    for item in &module.items {
        match item {
            Item::Param { names } => {
                for (name, span) in names {
                    declare_param(&mut sig, &mut params, &tois, name, *span, &mut diags);
                }
            }
            Item::Type(block) => {
                match sig.add_sort(&block.name) {
                    Ok(id) => tois.push(id),
                    Err(e) => diags.error(block.name_span, e.to_string()),
                }
                for (name, span) in &block.params {
                    declare_param(&mut sig, &mut params, &tois, name, *span, &mut diags);
                }
            }
        }
    }

    // Pass 2: operations.
    for block in type_blocks(module) {
        for op in &block.ops {
            let mut arg_ids = Vec::with_capacity(op.args.len());
            let mut ok = true;
            for (arg, span) in &op.args {
                match sig.find_sort(arg) {
                    Some(id) => arg_ids.push(id),
                    None => {
                        diags.error(*span, format!("unknown sort `{arg}`"));
                        ok = false;
                    }
                }
            }
            let result = match sig.find_sort(&op.result.0) {
                Some(id) => id,
                None => {
                    diags.error(op.result.1, format!("unknown sort `{}`", op.result.0));
                    ok = false;
                    sig.bool_sort() // placeholder; errors already recorded
                }
            };
            if !ok {
                continue;
            }
            let added = if op.ctor {
                sig.add_ctor(&op.name, arg_ids, result)
            } else {
                sig.add_op(&op.name, arg_ids, result)
            };
            if let Err(e) = added {
                diags.error(op.span, e.to_string());
            }
        }
    }

    // Pass 3: variables.
    for block in type_blocks(module) {
        for var in &block.vars {
            let sort = match sig.find_sort(&var.sort.0) {
                Some(id) => id,
                None => {
                    diags.error(var.sort.1, format!("unknown sort `{}`", var.sort.0));
                    continue;
                }
            };
            for (name, span) in &var.names {
                if sig.find_op(name).is_some() {
                    diags.error(
                        *span,
                        format!("variable `{name}` would shadow the operation of the same name"),
                    );
                    continue;
                }
                if let Err(e) = sig.add_var(name, sort) {
                    diags.error(*span, e.to_string());
                }
            }
        }
    }

    // Pass 4: axioms.
    let mut axioms = Vec::new();
    for block in type_blocks(module) {
        for ax in &block.axioms {
            let Some((lhs, lhs_sort)) = lower_term(&sig, &ax.lhs, None, &mut diags) else {
                continue;
            };
            let Some((rhs, _)) = lower_term(&sig, &ax.rhs, Some(lhs_sort), &mut diags) else {
                continue;
            };
            let axiom = Axiom::new(ax.label.clone(), lhs, rhs);
            if let Err(e) = axiom.validate(&sig) {
                diags.error(ax.label_span, e.to_string());
                continue;
            }
            axioms.push(axiom);
        }
    }

    if !diags.is_empty() {
        return Err(diags);
    }

    let name = type_blocks(module)
        .next()
        .map(|b| b.name.clone())
        .unwrap_or_else(|| "Module".to_owned());
    Spec::from_parts(name, sig, axioms, tois, params).map_err(|e| {
        let mut ds = Diagnostics::new();
        ds.error(Span::default(), e.to_string());
        ds
    })
}

/// Lowers a single surface term against an existing signature, with an
/// optional expected sort (needed to give `error` a sort).
///
/// This is the entry point used by tools that accept terms on the command
/// line or in a REPL, against a specification that already exists.
///
/// # Errors
///
/// Returns name-resolution and sort errors, with spans into `ast`'s
/// original source.
pub fn lower_term_in(
    sig: &Signature,
    ast: &TermAst,
    expected: Option<SortId>,
) -> Result<Term, Diagnostics> {
    let mut diags = Diagnostics::new();
    match lower_term(sig, ast, expected, &mut diags) {
        Some((term, _)) if diags.is_empty() => Ok(term),
        _ => Err(diags),
    }
}

fn type_blocks(module: &Module) -> impl Iterator<Item = &TypeBlock> {
    module.items.iter().filter_map(|i| match i {
        Item::Type(b) => Some(b),
        Item::Param { .. } => None,
    })
}

fn declare_param(
    sig: &mut Signature,
    params: &mut Vec<SortId>,
    tois: &[SortId],
    name: &str,
    span: Span,
    diags: &mut Diagnostics,
) {
    if let Some(existing) = sig.find_sort(name) {
        // Re-declaring an existing *parameter* is idempotent (several type
        // blocks may share Item); clashing with a defined type is an error.
        if params.contains(&existing) {
            return;
        }
        let role = if tois.contains(&existing) {
            "a defined type"
        } else {
            "a built-in sort"
        };
        diags.error(
            span,
            format!("parameter sort `{name}` is already declared as {role}"),
        );
        return;
    }
    match sig.add_sort(name) {
        Ok(id) => params.push(id),
        Err(e) => diags.error(span, e.to_string()),
    }
}

/// Lowers `ast` in a context that expects `expected` (if any), returning
/// the term with its sort. Only the root is compared with `expected`;
/// the children were checked on the way down (see the module docs).
fn lower_term(
    sig: &Signature,
    ast: &TermAst,
    expected: Option<SortId>,
    diags: &mut Diagnostics,
) -> Option<(Term, SortId)> {
    let (term, sort) = match ast {
        TermAst::Error(span) => match expected {
            Some(sort) => (Term::Error(sort), sort),
            None => {
                diags.error(
                    *span,
                    "cannot determine the sort of `error` here (left-hand sides may not be `error`)",
                );
                return None;
            }
        },
        TermAst::Name(name, span) => {
            if let Some(v) = sig.find_var(name) {
                (Term::Var(v), sig.var(v).sort())
            } else if let Some(op) = sig.find_op(name) {
                let info = sig.op(op);
                if info.arity() != 0 {
                    diags.error(
                        *span,
                        format!(
                            "operation `{name}` takes {} argument(s); write `{name}(…)`",
                            info.arity()
                        ),
                    );
                    return None;
                }
                (Term::App(op, Vec::new()), info.result())
            } else {
                diags.error(*span, format!("unknown name `{name}`"));
                return None;
            }
        }
        TermAst::App {
            name,
            name_span,
            args,
        } => {
            let Some(op) = sig.find_op(name) else {
                diags.error(*name_span, format!("unknown operation `{name}`"));
                return None;
            };
            let info = sig.op(op);
            if info.arity() != args.len() {
                diags.error(
                    *name_span,
                    format!(
                        "operation `{name}` expects {} argument(s) but was given {}",
                        info.arity(),
                        args.len()
                    ),
                );
                return None;
            }
            let mut lowered = Vec::with_capacity(args.len());
            for (arg, &sort) in args.iter().zip(info.args()) {
                lowered.push(lower_term(sig, arg, Some(sort), diags)?.0);
            }
            (Term::App(op, lowered), info.result())
        }
        TermAst::If {
            cond,
            then_branch,
            else_branch,
            span,
        } => {
            let (cond_t, _) = lower_term(sig, cond, Some(sig.bool_sort()), diags)?;
            // If the context gives no expected sort, infer it from
            // whichever branch determines one (so `error` may appear in
            // either branch, as it does in the paper's axioms). A branch
            // that lowers without context is already its final term:
            // lowering it again against its own sort would change nothing.
            let (then_t, else_t, branch_sort) = match expected {
                Some(s) => {
                    let (then_t, _) = lower_term(sig, then_branch, Some(s), diags)?;
                    let (else_t, _) = lower_term(sig, else_branch, Some(s), diags)?;
                    (then_t, else_t, s)
                }
                None => {
                    if let Some((then_t, s)) =
                        lower_term(sig, then_branch, None, &mut Diagnostics::new())
                    {
                        let (else_t, _) = lower_term(sig, else_branch, Some(s), diags)?;
                        (then_t, else_t, s)
                    } else if let Some((else_t, s)) =
                        lower_term(sig, else_branch, None, &mut Diagnostics::new())
                    {
                        let (then_t, _) = lower_term(sig, then_branch, Some(s), diags)?;
                        (then_t, else_t, s)
                    } else {
                        diags.error(
                            *span,
                            "cannot determine the sort of this conditional: neither \
                             branch has a context-free sort (e.g. both are `error`)",
                        );
                        return None;
                    }
                }
            };
            (Term::ite(cond_t, then_t, else_t), branch_sort)
        }
    };
    // Check the node against the context's expectation.
    if let Some(expected_sort) = expected {
        if sort != expected_sort {
            diags.error(
                ast.span(),
                format!(
                    "sort mismatch: expected `{}`, found `{}`",
                    sig.sort(expected_sort).name(),
                    sig.sort(sort).name()
                ),
            );
            return None;
        }
    }
    Some((term, sort))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn lower_src(src: &str) -> Result<Spec, Diagnostics> {
        lower(&parse_module(src).expect("parse"))
    }

    const QUEUE_SRC: &str = r#"
type Queue
param Item
ops
  NEW: -> Queue ctor
  ADD: Queue, Item -> Queue ctor
  FRONT: Queue -> Item
  REMOVE: Queue -> Queue
  IS_EMPTY?: Queue -> Bool
vars
  q: Queue
  i: Item
axioms
  [1] IS_EMPTY?(NEW) = true
  [2] IS_EMPTY?(ADD(q, i)) = false
  [3] FRONT(NEW) = error
  [4] FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
  [5] REMOVE(NEW) = error
  [6] REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
end
"#;

    #[test]
    fn lowers_the_queue_spec() {
        let spec = lower_src(QUEUE_SRC).unwrap();
        assert_eq!(spec.name(), "Queue");
        assert_eq!(spec.axioms().len(), 6);
        assert_eq!(spec.tois().len(), 1);
        assert_eq!(spec.params().len(), 1);
        let add = spec.sig().find_op("ADD").unwrap();
        assert!(spec.sig().op(add).is_constructor());
        let front = spec.sig().find_op("FRONT").unwrap();
        assert!(!spec.sig().op(front).is_constructor());
        // The `error` on axiom 3's right got the sort of FRONT's range.
        let ax3 = spec.axiom_labelled("3").unwrap();
        let item = spec.sig().find_sort("Item").unwrap();
        assert_eq!(ax3.rhs(), &Term::Error(item));
    }

    #[test]
    fn unknown_sort_in_op_is_reported_with_span() {
        let src = "type T\nops\n  F: Qeue -> T\n  C: -> T ctor\nend";
        let err = lower_src(src).unwrap_err();
        assert!(err.to_string().contains("unknown sort `Qeue`"));
        let rendered = err.render(src);
        assert!(rendered.contains("^^^^"), "{rendered}");
    }

    #[test]
    fn unknown_operation_in_axiom_is_reported() {
        let src = "type T\nops\n  C: -> T ctor\n  F: T -> T\naxioms\n  [a] F(C) = G(C)\nend";
        let err = lower_src(src).unwrap_err();
        assert!(err.to_string().contains("unknown operation `G`"));
    }

    #[test]
    fn sort_mismatch_in_axiom_is_reported() {
        let src = "type T\nparam U\nops\n  C: -> T ctor\n  D: -> U ctor\n  F: T -> T\naxioms\n  [a] F(D) = C\nend";
        let err = lower_src(src).unwrap_err();
        assert!(err.to_string().contains("expected `T`, found `U`"), "{err}");
    }

    #[test]
    fn arity_errors_are_reported() {
        let src = "type T\nops\n  C: -> T ctor\n  F: T, T -> T\naxioms\n  [a] F(C) = C\nend";
        let err = lower_src(src).unwrap_err();
        assert!(err.to_string().contains("expects 2 argument(s)"));
    }

    #[test]
    fn nullary_op_used_with_explicit_parens_is_fine() {
        let src = "type T\nops\n  C: -> T ctor\n  F: T -> T\naxioms\n  [a] F(C()) = C\nend";
        let spec = lower_src(src).unwrap();
        assert_eq!(spec.axioms().len(), 1);
    }

    #[test]
    fn non_nullary_op_as_bare_name_is_reported() {
        let src = "type T\nops\n  C: -> T ctor\n  F: T -> T\naxioms\n  [a] F(F) = C\nend";
        let err = lower_src(src).unwrap_err();
        assert!(err.to_string().contains("write `F(…)`"), "{err}");
    }

    #[test]
    fn variable_shadowing_operation_is_rejected() {
        let src = "type T\nops\n  C: -> T ctor\nvars\n  C: T\nend";
        let err = lower_src(src).unwrap_err();
        assert!(err.to_string().contains("shadow"));
    }

    #[test]
    fn multiple_blocks_share_the_name_space() {
        let src = r#"
type Stack
param Elem
ops
  NEWSTACK: -> Stack ctor
  PUSH: Stack, Elem -> Stack ctor
  TOP: Stack -> Elem
vars
  s: Stack
  e: Elem
axioms
  [t1] TOP(NEWSTACK) = error
  [t2] TOP(PUSH(s, e)) = e
end

type Pair
ops
  MKPAIR: Stack, Stack -> Pair ctor
  FIRST: Pair -> Stack
vars
  s1, s2: Stack
axioms
  [p1] FIRST(MKPAIR(s1, s2)) = s1
end
"#;
        let spec = lower_src(src).unwrap();
        assert_eq!(spec.name(), "Stack");
        assert_eq!(spec.tois().len(), 2);
        assert_eq!(spec.axioms().len(), 3);
        // The shared param was declared once.
        assert_eq!(spec.params().len(), 1);
    }

    #[test]
    fn shared_param_across_blocks_is_idempotent() {
        let src = r#"
type A
param Item
ops
  MKA: Item -> A ctor
end
type B
param Item
ops
  MKB: Item -> B ctor
end
"#;
        let spec = lower_src(src).unwrap();
        assert_eq!(spec.params().len(), 1);
    }

    #[test]
    fn param_clashing_with_type_is_reported() {
        let src = "type T\nops\n C: -> T ctor\nend\nparam T";
        let err = lower_src(src).unwrap_err();
        assert!(err
            .to_string()
            .contains("already declared as a defined type"));
    }

    #[test]
    fn toi_without_constructors_is_a_module_error() {
        let src = "type T\nops\n  F: T -> T\nend";
        let err = lower_src(src).unwrap_err();
        assert!(err.to_string().contains("no constructors"));
    }

    #[test]
    fn error_on_lhs_is_rejected() {
        let src = "type T\nops\n  C: -> T ctor\naxioms\n  [a] error = C\nend";
        let err = lower_src(src).unwrap_err();
        assert!(err.to_string().contains("left-hand sides"), "{err}");
    }

    #[test]
    fn if_with_error_branch_infers_from_then() {
        let src = r#"
type T
ops
  C: -> T ctor
  P?: T -> Bool
  F: T -> T
vars
  x: T
axioms
  [a] F(C) = if P?(C) then C else error
end
"#;
        let spec = lower_src(src).unwrap();
        let ax = spec.axiom_labelled("a").unwrap();
        let t = spec.sig().find_sort("T").unwrap();
        let Term::Ite(ite) = ax.rhs() else { panic!() };
        assert_eq!(ite.else_branch, Term::Error(t));
    }
}
