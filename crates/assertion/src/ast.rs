//! Abstract syntax of assertions.
//!
//! §2: "An assertion is a predicate with free channel names, each of which
//! stands for the sequence of values which have been communicated along
//! that channel up to some moment in time." The paper's assertion
//! vocabulary is:
//!
//! * channel histories (`wire`, `input`, `col[0]`),
//! * the sequence operators `x^s` (cons), `#s` (length), `s_i` (1-based
//!   indexing), prefix `s ≤ t`, and user functions like the protocol's
//!   cancellation function `f`,
//! * arithmetic and comparisons on message values,
//! * the connectives and bounded quantifiers `∀x:M. R`.

use std::fmt;

use csp_lang::{BinOp, ChanRef, Expr, SetExpr, UnOp};

/// A sequence-valued term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum STerm {
    /// The history of a channel — a free channel name of the assertion.
    Hist(ChanRef),
    /// The empty sequence `<>`.
    Empty,
    /// A literal sequence `<e₁, …, eₙ>`.
    Lit(Vec<Term>),
    /// `x^s` — cons.
    Cons(Box<Term>, Box<STerm>),
    /// Concatenation `s ++ t` (written `st` in the paper).
    Concat(Box<STerm>, Box<STerm>),
    /// Application of a named sequence function, e.g. `f(wire)` in §2.2.
    /// Functions are supplied by a [`FuncTable`](crate::FuncTable).
    App(String, Box<STerm>),
}

impl STerm {
    /// The history of an unsubscripted channel.
    pub fn chan(name: &str) -> STerm {
        STerm::Hist(ChanRef::simple(name))
    }

    /// The history of a singly-subscripted channel, e.g. `col[0]`.
    pub fn chan_at(name: &str, index: Expr) -> STerm {
        STerm::Hist(ChanRef::indexed(name, index))
    }

    /// `x^self`.
    pub fn cons(self, x: Term) -> STerm {
        STerm::Cons(Box::new(x), Box::new(self))
    }

    /// `name(self)`.
    pub fn app(self, name: &str) -> STerm {
        STerm::App(name.to_string(), Box::new(self))
    }

    /// All channel references appearing in the term.
    pub fn channels(&self) -> Vec<&ChanRef> {
        let mut out = Vec::new();
        self.collect_channels(&mut out);
        out
    }

    fn collect_channels<'a>(&'a self, out: &mut Vec<&'a ChanRef>) {
        match self {
            STerm::Hist(c) => out.push(c),
            STerm::Empty => {}
            STerm::Lit(ts) => {
                for t in ts {
                    t.collect_channels(out);
                }
            }
            STerm::Cons(t, s) => {
                t.collect_channels(out);
                s.collect_channels(out);
            }
            STerm::Concat(a, b) => {
                a.collect_channels(out);
                b.collect_channels(out);
            }
            STerm::App(_, s) => s.collect_channels(out),
        }
    }
}

/// A value-valued term: ordinary expressions extended with the
/// sequence-dependent operators `#s` and `s_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// An embedded value expression (constants, variables, arithmetic on
    /// them).
    Expr(Expr),
    /// `#s` — the length of a sequence.
    Length(Box<STerm>),
    /// `s_i` — the `i`th message (1-based). Indexing out of range makes
    /// the enclosing atomic formula false rather than erroring, matching
    /// the paper's guarded usage `1 ≤ i ≤ #s ⇒ …`.
    Index(Box<STerm>, Box<Term>),
    /// Arithmetic/comparison on terms (needed because `#s` may appear as
    /// an operand, e.g. `#input ≤ #wire + 1`).
    Bin(BinOp, Box<Term>, Box<Term>),
    /// Unary operator.
    Un(UnOp, Box<Term>),
}

impl Term {
    /// An integer literal.
    pub fn int(n: i64) -> Term {
        Term::Expr(Expr::int(n))
    }

    /// A variable.
    pub fn var(name: &str) -> Term {
        Term::Expr(Expr::var(name))
    }

    /// A symbolic atom such as `ACK`.
    pub fn sym(name: &str) -> Term {
        Term::Expr(Expr::sym(name))
    }

    /// `#s`.
    pub fn length(s: STerm) -> Term {
        Term::Length(Box::new(s))
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // builder, not arithmetic on Term values
    pub fn add(self, rhs: Term) -> Term {
        Term::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)] // associated fn, deliberate (C-OVERLOAD)
    /// `lhs * rhs`.
    pub fn mul(lhs: Term, rhs: Term) -> Term {
        Term::Bin(BinOp::Mul, Box::new(lhs), Box::new(rhs))
    }

    fn collect_channels<'a>(&'a self, out: &mut Vec<&'a ChanRef>) {
        match self {
            Term::Expr(_) => {}
            Term::Length(s) => s.collect_channels(out),
            Term::Index(s, i) => {
                s.collect_channels(out);
                i.collect_channels(out);
            }
            Term::Bin(_, a, b) => {
                a.collect_channels(out);
                b.collect_channels(out);
            }
            Term::Un(_, a) => a.collect_channels(out),
        }
    }
}

/// Comparison operators between value terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Concrete-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// An assertion — the `R` of `P sat R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Assertion {
    /// The always-true assertion.
    True,
    /// The always-false assertion.
    False,
    /// Prefix order on sequences: `s ≤ t ⇔ ∃u. s⌢u = t` (§2).
    Prefix(STerm, STerm),
    /// Sequence equality.
    SeqEq(STerm, STerm),
    /// Comparison of value terms.
    Cmp(CmpOp, Term, Term),
    /// Negation.
    Not(Box<Assertion>),
    /// Conjunction `R & S`.
    And(Box<Assertion>, Box<Assertion>),
    /// Disjunction.
    Or(Box<Assertion>, Box<Assertion>),
    /// Implication `R ⇒ S`.
    Implies(Box<Assertion>, Box<Assertion>),
    /// Bounded universal quantification `∀x:M. R` (§3.3 gives its
    /// semantics).
    ForallIn(String, SetExpr, Box<Assertion>),
    /// Bounded existential quantification.
    ExistsIn(String, SetExpr, Box<Assertion>),
}

impl Assertion {
    /// `s ≤ t` on two sequence terms.
    pub fn prefix(s: STerm, t: STerm) -> Assertion {
        Assertion::Prefix(s, t)
    }

    /// `self & other`.
    pub fn and(self, other: Assertion) -> Assertion {
        Assertion::And(Box::new(self), Box::new(other))
    }

    /// `self or other`.
    pub fn or(self, other: Assertion) -> Assertion {
        Assertion::Or(Box::new(self), Box::new(other))
    }

    /// `self ⇒ other`.
    pub fn implies(self, other: Assertion) -> Assertion {
        Assertion::Implies(Box::new(self), Box::new(other))
    }

    /// `not self`.
    pub fn negate(self) -> Assertion {
        Assertion::Not(Box::new(self))
    }

    /// All channel references mentioned anywhere in the assertion — the
    /// "free channel names" whose occurrence conditions the parallelism
    /// and hiding rules check.
    pub fn channels(&self) -> Vec<&ChanRef> {
        let mut out = Vec::new();
        self.collect_channels(&mut out);
        out
    }

    /// The base names of all mentioned channels, deduplicated.
    pub fn channel_bases(&self) -> std::collections::BTreeSet<String> {
        self.channels()
            .into_iter()
            .map(|c| c.base().to_string())
            .collect()
    }

    fn collect_channels<'a>(&'a self, out: &mut Vec<&'a ChanRef>) {
        match self {
            Assertion::True | Assertion::False => {}
            Assertion::Prefix(a, b) | Assertion::SeqEq(a, b) => {
                a.collect_channels(out);
                b.collect_channels(out);
            }
            Assertion::Cmp(_, a, b) => {
                a.collect_channels(out);
                b.collect_channels(out);
            }
            Assertion::Not(a) => a.collect_channels(out),
            Assertion::And(a, b) | Assertion::Or(a, b) | Assertion::Implies(a, b) => {
                a.collect_channels(out);
                b.collect_channels(out);
            }
            Assertion::ForallIn(_, _, a) | Assertion::ExistsIn(_, _, a) => a.collect_channels(out),
        }
    }
}

// ------------------------------------------------------------- display --

impl fmt::Display for STerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            STerm::Hist(c) => write!(f, "{c}"),
            STerm::Empty => write!(f, "<>"),
            STerm::Lit(ts) => {
                write!(f, "<")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ">")
            }
            STerm::Cons(x, s) => write!(f, "{x}^{s}"),
            // `^` parses tighter on its left than `++`, so a cons operand
            // of a concatenation needs its own brackets to round-trip.
            STerm::Concat(a, b) => {
                write!(f, "(")?;
                match a.as_ref() {
                    STerm::Cons(_, _) => write!(f, "({a})")?,
                    _ => write!(f, "{a}")?,
                }
                write!(f, " ++ ")?;
                match b.as_ref() {
                    STerm::Cons(_, _) => write!(f, "({b})")?,
                    _ => write!(f, "{b}")?,
                }
                write!(f, ")")
            }
            STerm::App(name, s) => write!(f, "{name}({s})"),
        }
    }
}

/// Cons renders without brackets (`x^s`), so it must be wrapped when it
/// appears under an operator that binds tighter (`#`, indexing); the
/// other sequence forms carry their own delimiters.
fn needs_parens(s: &STerm) -> bool {
    matches!(s, STerm::Cons(_, _))
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Expr(e) => write!(f, "{e}"),
            Term::Length(s) if needs_parens(s) => write!(f, "#({s})"),
            Term::Length(s) => write!(f, "#{s}"),
            Term::Index(s, i) if needs_parens(s) => write!(f, "({s})[{i}]"),
            Term::Index(s, i) => write!(f, "{s}[{i}]"),
            Term::Bin(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Term::Un(UnOp::Neg, a) => write!(f, "(-{a})"),
            Term::Un(UnOp::Not, a) => write!(f, "(not {a})"),
        }
    }
}

/// An operand of `and` or `or`, or the left operand of `=>`. A
/// quantifier there is wrapped: its body would otherwise extend over the
/// rest of the connective, and `and`/`or` take no bare quantifier.
struct Operand<'a>(&'a Assertion);

impl fmt::Display for Operand<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            q @ (Assertion::ForallIn(..) | Assertion::ExistsIn(..)) => write!(f, "({q})"),
            a => a.fmt(f),
        }
    }
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Assertion::True => write!(f, "true"),
            Assertion::False => write!(f, "false"),
            Assertion::Prefix(a, b) => write!(f, "{a} <= {b}"),
            Assertion::SeqEq(a, b) => write!(f, "{a} == {b}"),
            Assertion::Cmp(op, a, b) => write!(f, "{a} {} {b}", op.symbol()),
            Assertion::Not(a) => write!(f, "not ({a})"),
            Assertion::And(a, b) => write!(f, "({} and {})", Operand(a), Operand(b)),
            Assertion::Or(a, b) => write!(f, "({} or {})", Operand(a), Operand(b)),
            Assertion::Implies(a, b) => write!(f, "({} => {b})", Operand(a)),
            Assertion::ForallIn(x, m, a) => write!(f, "forall {x}:{m}. ({a})"),
            Assertion::ExistsIn(x, m, a) => write!(f, "exists {x}:{m}. ({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_assertion_wire_le_input() {
        let r = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
        assert_eq!(r.to_string(), "wire <= input");
        let bases = r.channel_bases();
        assert!(bases.contains("wire") && bases.contains("input"));
    }

    #[test]
    fn paper_assertion_length_bound() {
        // copier sat (#input ≤ #wire + 1)
        let r = Assertion::Cmp(
            CmpOp::Le,
            Term::length(STerm::chan("input")),
            Term::length(STerm::chan("wire")).add(Term::int(1)),
        );
        assert_eq!(r.to_string(), "#input <= (#wire + 1)");
    }

    #[test]
    fn protocol_assertion_displays() {
        // f(wire) ≤ input
        let r = Assertion::prefix(STerm::chan("wire").app("f"), STerm::chan("input"));
        assert_eq!(r.to_string(), "f(wire) <= input");
        // f(wire) ≤ x^input
        let r2 = Assertion::prefix(
            STerm::chan("wire").app("f"),
            STerm::chan("input").cons(Term::var("x")),
        );
        assert_eq!(r2.to_string(), "f(wire) <= x^input");
    }

    #[test]
    fn channels_collects_through_all_layers() {
        let r = Assertion::ForallIn(
            "i".into(),
            SetExpr::Nat,
            Box::new(Assertion::Cmp(
                CmpOp::Eq,
                Term::Index(Box::new(STerm::chan("output")), Box::new(Term::var("i"))),
                Term::Index(
                    Box::new(STerm::chan_at("row", Expr::int(1))),
                    Box::new(Term::var("i")),
                ),
            )),
        );
        let bases = r.channel_bases();
        assert_eq!(bases.len(), 2);
        assert!(bases.contains("output") && bases.contains("row"));
    }

    #[test]
    fn builders_nest() {
        let r = Assertion::True
            .and(Assertion::False.or(Assertion::True))
            .implies(Assertion::True);
        assert_eq!(r.to_string(), "((true and (false or true)) => true)");
    }
}
