//! The parser: tokens to AST, with error recovery.
//!
//! Recovery is at item granularity: a malformed operation declaration or
//! axiom is reported and skipped, and parsing resumes at the next
//! declaration, axiom, or section keyword — so one typo does not hide the
//! rest of the file's problems.

use std::mem;

use crate::ast::{AxiomDecl, Item, Module, OpDecl, TermAst, TypeBlock, VarDecl};
use crate::diag::{Diagnostics, Span};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parses a module from source text.
///
/// # Errors
///
/// Returns all lexical and syntactic problems found.
pub fn parse_module(source: &str) -> Result<Module, Diagnostics> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        diags: Diagnostics::new(),
        term_depth: 0,
    };
    let module = p.module();
    if p.diags.is_empty() {
        Ok(module)
    } else {
        Err(p.diags)
    }
}

/// Parses a standalone term (as typed on a command line or in a REPL).
///
/// # Errors
///
/// Returns all lexical and syntactic problems found, including trailing
/// input after a well-formed term.
pub fn parse_term_source(source: &str) -> Result<TermAst, Diagnostics> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        diags: Diagnostics::new(),
        term_depth: 0,
    };
    let term = p.term();
    // Trailing input is only worth reporting after a complete term: when
    // the term itself failed, the parser stopped at the offending token
    // and "unexpected … after the term" would repeat the same error.
    if term.is_some() && !p.at_eof() {
        let t = p.peek().clone();
        p.diags
            .error(t.span, format!("unexpected {} after the term", t.kind));
    }
    match term {
        Some(t) if p.diags.is_empty() => Ok(t),
        _ => Err(p.diags),
    }
}

/// Maximum term-nesting depth the recursive-descent parser accepts;
/// beyond this it reports an error instead of risking the thread stack.
/// (Debug-build parser frames are on the order of a kilobyte, and test
/// threads get 2 MiB stacks, so the limit is deliberately conservative —
/// three orders of magnitude above any human-written axiom.)
const MAX_TERM_DEPTH: usize = 200;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Diagnostics,
    term_depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    /// Consumes the current token and returns it. A consumed token is
    /// never looked at again, so it is moved out rather than cloned; only
    /// the final `Eof`, which stays current forever, is copied.
    fn advance(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos < last {
            let span = self.tokens[self.pos].span;
            let t = mem::replace(&mut self.tokens[self.pos], Token::new(TokenKind::Eof, span));
            self.pos += 1;
            t
        } else {
            self.tokens[last].clone()
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Eof)
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Option<Token> {
        if self.peek_kind() == kind {
            Some(self.advance())
        } else {
            let t = self.peek().clone();
            self.diags
                .error(t.span, format!("expected {what}, found {}", t.kind));
            None
        }
    }

    fn ident(&mut self, what: &str) -> Option<(String, Span)> {
        match self.peek_kind() {
            TokenKind::Ident(_) => {
                let t = self.advance();
                let TokenKind::Ident(name) = t.kind else {
                    unreachable!();
                };
                Some((name, t.span))
            }
            _ => {
                let t = self.peek().clone();
                self.diags
                    .error(t.span, format!("expected {what}, found {}", t.kind));
                None
            }
        }
    }

    /// Skips tokens until a section keyword, a `[` (next axiom), or EOF.
    /// Always consumes at least one token so recovery makes progress.
    fn recover(&mut self) {
        if self.at_eof() {
            return;
        }
        self.advance();
        while !self.at_eof()
            && !self.peek_kind().is_section_start()
            && !matches!(self.peek_kind(), TokenKind::LBracket)
        {
            self.advance();
        }
    }

    fn module(&mut self) -> Module {
        let mut items = Vec::new();
        while !self.at_eof() {
            match self.peek_kind() {
                TokenKind::KwParam => {
                    self.advance();
                    let mut names = Vec::new();
                    loop {
                        match self.ident("a parameter sort name") {
                            Some(n) => names.push(n),
                            None => {
                                self.recover();
                                break;
                            }
                        }
                        if matches!(self.peek_kind(), TokenKind::Comma) {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                    items.push(Item::Param { names });
                }
                TokenKind::KwType => {
                    if let Some(block) = self.type_block() {
                        items.push(Item::Type(block));
                    }
                }
                _ => {
                    let t = self.peek().clone();
                    self.diags.error(
                        t.span,
                        format!("expected `type` or `param`, found {}", t.kind),
                    );
                    self.recover();
                }
            }
        }
        Module { items }
    }

    fn type_block(&mut self) -> Option<TypeBlock> {
        self.expect(&TokenKind::KwType, "`type`")?;
        let (name, name_span) = self.ident("a type name")?;
        let mut block = TypeBlock {
            name,
            name_span,
            params: Vec::new(),
            ops: Vec::new(),
            vars: Vec::new(),
            axioms: Vec::new(),
        };
        loop {
            match self.peek_kind() {
                TokenKind::KwParam => {
                    self.advance();
                    loop {
                        match self.ident("a parameter sort name") {
                            Some(n) => block.params.push(n),
                            None => {
                                self.recover();
                                break;
                            }
                        }
                        if matches!(self.peek_kind(), TokenKind::Comma) {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                TokenKind::KwOps => {
                    self.advance();
                    self.ops_section(&mut block);
                }
                TokenKind::KwVars => {
                    self.advance();
                    self.vars_section(&mut block);
                }
                TokenKind::KwAxioms => {
                    self.advance();
                    self.axioms_section(&mut block);
                }
                TokenKind::KwEnd => {
                    self.advance();
                    return Some(block);
                }
                TokenKind::Eof | TokenKind::KwType => {
                    let t = self.peek().clone();
                    self.diags.error(
                        t.span,
                        format!(
                            "type block `{}` is not closed: expected `end`, found {}",
                            block.name, t.kind
                        ),
                    );
                    return Some(block);
                }
                _ => {
                    let t = self.peek().clone();
                    self.diags.error(
                        t.span,
                        format!(
                            "expected a section (`ops`, `vars`, `axioms`) or `end`, found {}",
                            t.kind
                        ),
                    );
                    self.recover();
                }
            }
        }
    }

    fn ops_section(&mut self, block: &mut TypeBlock) {
        while let TokenKind::Ident(_) = self.peek_kind() {
            match self.op_decl() {
                Some(decl) => block.ops.push(decl),
                None => self.recover(),
            }
        }
    }

    fn op_decl(&mut self) -> Option<OpDecl> {
        let (name, span) = self.ident("an operation name")?;
        self.expect(&TokenKind::Colon, "`:` after the operation name")?;
        let mut args = Vec::new();
        if !matches!(self.peek_kind(), TokenKind::Arrow) {
            loop {
                args.push(self.ident("an argument sort")?);
                if matches!(self.peek_kind(), TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::Arrow, "`->`")?;
        let result = self.ident("a result sort")?;
        let ctor = if matches!(self.peek_kind(), TokenKind::KwCtor) {
            self.advance();
            true
        } else {
            false
        };
        Some(OpDecl {
            name,
            args,
            result,
            ctor,
            span,
        })
    }

    fn vars_section(&mut self, block: &mut TypeBlock) {
        while let TokenKind::Ident(_) = self.peek_kind() {
            match self.var_decl() {
                Some(decl) => block.vars.push(decl),
                None => self.recover(),
            }
        }
    }

    fn var_decl(&mut self) -> Option<VarDecl> {
        let mut names = vec![self.ident("a variable name")?];
        while matches!(self.peek_kind(), TokenKind::Comma) {
            self.advance();
            names.push(self.ident("a variable name")?);
        }
        self.expect(&TokenKind::Colon, "`:` after variable name(s)")?;
        let sort = self.ident("a sort name")?;
        Some(VarDecl { names, sort })
    }

    fn axioms_section(&mut self, block: &mut TypeBlock) {
        while matches!(self.peek_kind(), TokenKind::LBracket) {
            match self.axiom() {
                Some(ax) => block.axioms.push(ax),
                None => self.recover(),
            }
        }
    }

    fn axiom(&mut self) -> Option<AxiomDecl> {
        self.expect(&TokenKind::LBracket, "`[`")?;
        let (label, label_span) = self.ident("an axiom label")?;
        self.expect(&TokenKind::RBracket, "`]`")?;
        let lhs = self.term()?;
        self.expect(&TokenKind::Equals, "`=` between the axiom's sides")?;
        let rhs = self.term()?;
        Some(AxiomDecl {
            label,
            label_span,
            lhs,
            rhs,
        })
    }

    fn term(&mut self) -> Option<TermAst> {
        self.term_depth += 1;
        if self.term_depth > MAX_TERM_DEPTH {
            let span = self.peek().span;
            self.diags.error(
                span,
                format!("term nesting exceeds {MAX_TERM_DEPTH} levels"),
            );
            self.term_depth -= 1;
            return None;
        }
        let result = self.term_inner();
        self.term_depth -= 1;
        result
    }

    fn term_inner(&mut self) -> Option<TermAst> {
        match self.peek_kind() {
            TokenKind::KwIf => {
                let span = self.advance().span;
                let cond = Box::new(self.term()?);
                self.expect(&TokenKind::KwThen, "`then`")?;
                let then_branch = Box::new(self.term()?);
                self.expect(&TokenKind::KwElse, "`else`")?;
                let else_branch = Box::new(self.term()?);
                Some(TermAst::If {
                    cond,
                    then_branch,
                    else_branch,
                    span,
                })
            }
            TokenKind::KwError => {
                let span = self.advance().span;
                Some(TermAst::Error(span))
            }
            TokenKind::Ident(_) => {
                let (name, name_span) = self.ident("a term")?;
                if matches!(self.peek_kind(), TokenKind::LParen) {
                    self.advance();
                    let mut args = Vec::new();
                    if !matches!(self.peek_kind(), TokenKind::RParen) {
                        loop {
                            args.push(self.term()?);
                            if matches!(self.peek_kind(), TokenKind::Comma) {
                                self.advance();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen, "`)`")?;
                    Some(TermAst::App {
                        name,
                        name_span,
                        args,
                    })
                } else {
                    Some(TermAst::Name(name, name_span))
                }
            }
            other => {
                let msg = format!("expected a term, found {other}");
                let span = self.peek().span;
                self.diags.error(span, msg);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUEUE_SRC: &str = r#"
-- The Queue of section 3.
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
  i, i1: Item

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
    fn parses_the_full_queue_module() {
        let module = parse_module(QUEUE_SRC).unwrap();
        assert_eq!(module.items.len(), 1);
        let Item::Type(block) = &module.items[0] else {
            panic!("first item should be the type block");
        };
        assert_eq!(block.name, "Queue");
        assert_eq!(block.params.len(), 1);
        assert_eq!(block.params[0].0, "Item");
        assert_eq!(block.ops.len(), 5);
        assert_eq!(block.vars.len(), 2);
        assert_eq!(block.axioms.len(), 6);
        assert!(block.ops[0].ctor);
        assert!(!block.ops[2].ctor);
        assert_eq!(block.ops[1].args.len(), 2);
        assert_eq!(block.vars[1].names.len(), 2);
        assert_eq!(block.axioms[3].label, "4");
        assert!(matches!(block.axioms[3].rhs, TermAst::If { .. }));
        assert!(matches!(block.axioms[2].rhs, TermAst::Error(_)));
    }

    #[test]
    fn param_inside_module_is_an_item() {
        let module = parse_module("param Item, Identifier").unwrap();
        let Item::Param { names } = &module.items[0] else {
            panic!();
        };
        assert_eq!(names.len(), 2);
        assert_eq!(names[1].0, "Identifier");
    }

    #[test]
    fn several_type_blocks_parse() {
        let src = r#"
type Stack
ops
  NEWSTACK: -> Stack ctor
end
type Array
ops
  EMPTY: -> Array ctor
end
"#;
        let module = parse_module(src).unwrap();
        assert_eq!(module.items.len(), 2);
    }

    #[test]
    fn missing_end_is_reported_but_block_is_kept() {
        let src = "type Stack\nops\n  NEWSTACK: -> Stack ctor\ntype Array\nops\n EMPTY: -> Array ctor\nend";
        let err = parse_module(src).unwrap_err();
        assert!(err.to_string().contains("not closed"), "{err}");
    }

    #[test]
    fn malformed_op_recovers_and_reports_later_errors_too() {
        let src = r#"
type T
ops
  GOOD: -> T ctor
  BAD T -> T
  ALSO_GOOD: T -> T
axioms
  [a] ALSO_GOOD(oops = T
end
"#;
        let err = parse_module(src).unwrap_err();
        // Both the op error and the axiom error are present.
        assert!(err.len() >= 2, "{err}");
        assert!(err.to_string().contains("expected `:`"), "{err}");
    }

    #[test]
    fn nested_terms_parse() {
        let src = r#"
type T
ops
  F: T -> T
  C: -> T ctor
vars
  x: T
axioms
  [a] F(F(F(C))) = if F(x) then C else F(C)
end
"#;
        // Note: this is ill-sorted (F(x) is not Bool) but the *parser*
        // accepts it; sorts are the lowering pass's business.
        let module = parse_module(src).unwrap();
        let Item::Type(block) = &module.items[0] else {
            panic!();
        };
        let TermAst::App { name, args, .. } = &block.axioms[0].lhs else {
            panic!();
        };
        assert_eq!(name, "F");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn empty_argument_list_parses_as_constant_application() {
        let src =
            "type T\nops\n C: -> T ctor\n F: T -> T\nvars\n x: T\naxioms\n [a] F(C()) = C\nend";
        let module = parse_module(src).unwrap();
        let Item::Type(block) = &module.items[0] else {
            panic!();
        };
        let TermAst::App { args, .. } = &block.axioms[0].lhs else {
            panic!();
        };
        assert!(matches!(&args[0], TermAst::App { args, .. } if args.is_empty()));
    }

    #[test]
    fn stray_top_level_token_is_reported() {
        let err = parse_module("banana type T end").unwrap_err();
        assert!(err.to_string().contains("expected `type` or `param`"));
    }
}
