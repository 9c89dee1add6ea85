//! Compiled rewrite rules, indexed by head operation.
//!
//! Rules live in `adt-core` (rather than the rewrite crate that executes
//! them) so a [`crate::Session`] can own the compiled rule set alongside
//! the signature and the term arena: every engine borrowing the session
//! then shares one compilation instead of re-deriving it per check.

use std::collections::HashMap;

use crate::{Axiom, OpId, Signature, Spec, Term};

/// One left-to-right rewrite rule derived from an axiom (or added
/// manually, e.g. an induction hypothesis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    label: String,
    lhs: Term,
    rhs: Term,
}

impl Rule {
    /// Creates a rule. The left-hand side must be an application (this is
    /// guaranteed for rules compiled from validated axioms).
    ///
    /// # Panics
    ///
    /// Panics if `lhs` is not an application.
    pub fn new(label: impl Into<String>, lhs: Term, rhs: Term) -> Self {
        assert!(
            matches!(lhs, Term::App(_, _)),
            "rule left-hand side must be an application"
        );
        Rule {
            label: label.into(),
            lhs,
            rhs,
        }
    }

    /// The rule's label, used in traces and diagnostics.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The pattern the rule matches.
    pub fn lhs(&self) -> &Term {
        &self.lhs
    }

    /// The template the rule produces.
    pub fn rhs(&self) -> &Term {
        &self.rhs
    }

    /// The operation at the head of the left-hand side.
    pub fn head(&self) -> OpId {
        match &self.lhs {
            Term::App(op, _) => *op,
            _ => unreachable!("checked in constructor"),
        }
    }
}

impl From<&Axiom> for Rule {
    fn from(ax: &Axiom) -> Self {
        Rule::new(ax.label(), ax.lhs().clone(), ax.rhs().clone())
    }
}

/// A set of rules in insertion (axiom) order, indexed by the head
/// operation of their left-hand sides so the engine only tries rules that
/// can possibly match.
///
/// Iteration order never depends on hashing: [`RuleSet::iter`] yields
/// rules in insertion order, and [`RuleSet::for_head`] yields one head's
/// rules in insertion order, so everything enumerated from a rule set
/// (critical pairs, and with them contradiction reports) is identical
/// across processes.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
    by_head: HashMap<OpId, Vec<usize>>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// Compiles every axiom of a specification into a rule.
    pub fn from_spec(spec: &Spec) -> Self {
        let mut rs = RuleSet::new();
        for ax in spec.axioms() {
            rs.add(Rule::from(ax));
        }
        rs
    }

    /// Adds a rule. Rules for the same head are tried in insertion order.
    pub fn add(&mut self, rule: Rule) {
        self.by_head
            .entry(rule.head())
            .or_default()
            .push(self.rules.len());
        self.rules.push(rule);
    }

    /// The rules whose left-hand side is headed by `op`, in insertion
    /// order.
    pub fn for_head(&self, op: OpId) -> impl ExactSizeIterator<Item = &Rule> {
        self.head_indices(op).iter().map(|&i| &self.rules[i])
    }

    /// The insertion indices (positions in [`RuleSet::as_slice`]) of the
    /// rules headed by `op`, ascending.
    pub fn head_indices(&self, op: OpId) -> &[usize] {
        self.by_head.get(&op).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every rule, in insertion order.
    pub fn as_slice(&self) -> &[Rule] {
        &self.rules
    }

    /// Iterates over every rule in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Rule> {
        self.rules.iter()
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set contains no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Whether any rule is headed by `op` — i.e. whether `op` is *defined*
    /// by the rule set rather than free (a constructor or an unspecified
    /// operation).
    pub fn defines(&self, op: OpId) -> bool {
        !self.head_indices(op).is_empty()
    }

    /// A short human-readable summary, e.g. for logging: names of defined
    /// operations with their rule counts.
    pub fn summary(&self, sig: &Signature) -> String {
        let mut entries: Vec<_> = self
            .by_head
            .iter()
            .map(|(op, indices)| format!("{}:{}", sig.op(*op).name(), indices.len()))
            .collect();
        entries.sort();
        entries.join(", ")
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
    fn compiles_axioms_indexed_by_head() {
        let spec = tiny_spec();
        let rs = RuleSet::from_spec(&spec);
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_empty());
        let is_zero = spec.sig().find_op("IS_ZERO?").unwrap();
        assert_eq!(rs.for_head(is_zero).len(), 2);
        assert!(rs.defines(is_zero));
        let zero = spec.sig().find_op("ZERO").unwrap();
        assert!(!rs.defines(zero));
        assert_eq!(rs.for_head(zero).len(), 0);
    }

    #[test]
    fn rules_keep_insertion_order_per_head() {
        let spec = tiny_spec();
        let rs = RuleSet::from_spec(&spec);
        let is_zero = spec.sig().find_op("IS_ZERO?").unwrap();
        let labels: Vec<_> = rs.for_head(is_zero).map(Rule::label).collect();
        assert_eq!(labels, vec!["z1", "z2"]);
    }

    #[test]
    fn iteration_and_head_indices_follow_insertion_order_across_heads() {
        let spec = tiny_spec();
        let mut rs = RuleSet::from_spec(&spec);
        let x = spec.sig().find_var("x").unwrap();
        let succ = spec.sig().find_op("SUCC").unwrap();
        let is_zero = spec.sig().find_op("IS_ZERO?").unwrap();
        let tt = spec.axioms()[0].rhs().clone();
        rs.add(Rule::new(
            "s1",
            Term::App(succ, vec![Term::Var(x)]),
            Term::Var(x),
        ));
        rs.add(Rule::new("z3", Term::App(is_zero, vec![Term::Var(x)]), tt));
        let labels: Vec<_> = rs.iter().map(Rule::label).collect();
        assert_eq!(labels, vec!["z1", "z2", "s1", "z3"]);
        assert_eq!(rs.head_indices(is_zero), &[0, 1, 3]);
        assert_eq!(rs.head_indices(succ), &[2]);
        assert_eq!(rs.as_slice()[2].label(), "s1");
    }

    #[test]
    fn summary_lists_defined_ops() {
        let spec = tiny_spec();
        let rs = RuleSet::from_spec(&spec);
        assert_eq!(rs.summary(spec.sig()), "IS_ZERO?:2");
    }

    #[test]
    #[should_panic(expected = "left-hand side must be an application")]
    fn variable_lhs_panics() {
        let spec = tiny_spec();
        let x = spec.sig().find_var("x").unwrap();
        let _ = Rule::new("bad", Term::Var(x), Term::Var(x));
    }

    #[test]
    fn manual_rule_addition() {
        let spec = tiny_spec();
        let mut rs = RuleSet::from_spec(&spec);
        let x = spec.sig().find_var("x").unwrap();
        let succ = spec.sig().find_op("SUCC").unwrap();
        // A (nonsensical but well-formed) extra rule: SUCC(x) -> x.
        rs.add(Rule::new(
            "extra",
            Term::App(succ, vec![Term::Var(x)]),
            Term::Var(x),
        ));
        assert_eq!(rs.len(), 3);
        assert!(rs.defines(succ));
    }
}
