//! Set expressions — the message sets `M` of input commands and array
//! bounds.
//!
//! §1.1(4): "Names and expressions denoting sets of values or types, e.g.
//! `NAT`, `{0..3}`, `{ACK, NACK}`." A [`SetExpr`] is the syntax; a
//! [`MsgSet`] is its value: either a finite set or the unbounded `NAT`.
//! Enumeration-based tools restrict `NAT` to a finite carrier supplied by
//! the caller (the *universe*, see `csp-semantics`); symbolic tools
//! (`csp-proof`) treat it as-is.

use std::collections::BTreeSet;
use std::fmt;

use csp_trace::Value;

use crate::{Env, EvalError, Expr};

/// The syntax of a set of message values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SetExpr {
    /// `NAT` — the natural numbers `{0, 1, 2, …}`.
    Nat,
    /// `e₁..e₂` — the inclusive integer range.
    Range(Box<Expr>, Box<Expr>),
    /// `{e₁, …, eₙ}` — a finite enumeration.
    Enum(Vec<Expr>),
    /// A named set bound in the host environment is not supported directly;
    /// the parser resolves names like `M` to this variant so definitions can
    /// be parameterised over an abstract message set. Symbolic tools treat
    /// distinct names as distinct opaque sets; enumeration resolves them via
    /// the universe's named-set table.
    Named(String),
}

impl SetExpr {
    /// A convenience constructor for `lo..hi` with constant bounds.
    pub fn range(lo: i64, hi: i64) -> SetExpr {
        SetExpr::Range(Box::new(Expr::int(lo)), Box::new(Expr::int(hi)))
    }

    /// A finite enumeration of constant values.
    pub fn enumeration<I: IntoIterator<Item = Value>>(vals: I) -> SetExpr {
        SetExpr::Enum(vals.into_iter().map(Expr::Const).collect())
    }

    /// Evaluates the set expression to a [`MsgSet`].
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation failures from range bounds and
    /// enumeration elements, and rejects non-integer range bounds.
    pub fn eval(&self, env: &Env) -> Result<MsgSet, EvalError> {
        self.eval_with(&|x| env.lookup(x).cloned())
    }

    /// [`eval`](Self::eval) with names read through `lookup`, as
    /// [`Expr::eval_with`] reads them.
    ///
    /// # Errors
    ///
    /// As for [`eval`](Self::eval).
    pub fn eval_with<F: Fn(&str) -> Option<Value>>(&self, lookup: &F) -> Result<MsgSet, EvalError> {
        match self {
            SetExpr::Nat => Ok(MsgSet::Nat),
            SetExpr::Range(lo, hi) => {
                let l = lo
                    .eval_with(lookup)?
                    .as_int()
                    .ok_or(EvalError::TypeMismatch {
                        context: "range lower bound".to_string(),
                    })?;
                let h = hi
                    .eval_with(lookup)?
                    .as_int()
                    .ok_or(EvalError::TypeMismatch {
                        context: "range upper bound".to_string(),
                    })?;
                Ok(MsgSet::Finite((l..=h).map(Value::Int).collect()))
            }
            SetExpr::Enum(es) => {
                let vs = es
                    .iter()
                    .map(|e| e.eval_with(lookup))
                    .collect::<Result<BTreeSet<_>, _>>()?;
                Ok(MsgSet::Finite(vs))
            }
            SetExpr::Named(n) => Ok(MsgSet::Named(n.clone())),
        }
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Nat => write!(f, "NAT"),
            SetExpr::Range(lo, hi) => write!(f, "{lo}..{hi}"),
            SetExpr::Enum(es) => {
                write!(f, "{{")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "}}")
            }
            SetExpr::Named(n) => write!(f, "{n}"),
        }
    }
}

/// The value of a set expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgSet {
    /// The unbounded naturals.
    Nat,
    /// An explicit finite set.
    Finite(BTreeSet<Value>),
    /// A named abstract set, resolved by the enumeration universe.
    Named(String),
}

impl MsgSet {
    /// Membership, where decidable without a universe.
    ///
    /// `Named` sets return `None` (unknown without a universe); `Nat`
    /// and `Finite` return `Some`.
    pub fn contains(&self, v: &Value) -> Option<bool> {
        match self {
            MsgSet::Nat => Some(v.is_nat()),
            MsgSet::Finite(s) => Some(s.contains(v)),
            MsgSet::Named(_) => None,
        }
    }

    /// Enumerates the members, bounding `Nat` by `nat_bound` (inclusive
    /// upper limit) and resolving `Named` sets through `resolve`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnboundedSet`] if a named set cannot be
    /// resolved.
    pub fn enumerate(
        &self,
        nat_bound: u32,
        resolve: &dyn Fn(&str) -> Option<BTreeSet<Value>>,
    ) -> Result<Vec<Value>, EvalError> {
        match self {
            MsgSet::Nat => Ok((0..=nat_bound).map(Value::nat).collect()),
            MsgSet::Finite(s) => Ok(s.iter().cloned().collect()),
            MsgSet::Named(n) => resolve(n)
                .map(|s| s.into_iter().collect())
                .ok_or_else(|| EvalError::UnboundedSet(n.clone())),
        }
    }

    /// The size of the set if finite.
    pub fn finite_len(&self) -> Option<usize> {
        match self {
            MsgSet::Finite(s) => Some(s.len()),
            _ => None,
        }
    }
}

impl fmt::Display for MsgSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgSet::Nat => write!(f, "NAT"),
            MsgSet::Finite(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            MsgSet::Named(n) => write!(f, "{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_evaluates_inclusively() {
        // {0..3} denotes the finite range {0, 1, 2, 3} (§1.1(4)).
        let s = SetExpr::range(0, 3).eval(&Env::new()).unwrap();
        assert_eq!(s.finite_len(), Some(4));
        assert_eq!(s.contains(&Value::Int(0)), Some(true));
        assert_eq!(s.contains(&Value::Int(3)), Some(true));
        assert_eq!(s.contains(&Value::Int(4)), Some(false));
    }

    #[test]
    fn empty_range_is_empty_set() {
        let s = SetExpr::range(3, 0).eval(&Env::new()).unwrap();
        assert_eq!(s.finite_len(), Some(0));
    }

    #[test]
    fn enum_of_signals() {
        // {ACK, NACK} — the acknowledgement pair of §1.1(4).
        let s = SetExpr::enumeration([Value::sym("ACK"), Value::sym("NACK")])
            .eval(&Env::new())
            .unwrap();
        assert_eq!(s.contains(&Value::sym("ACK")), Some(true));
        assert_eq!(s.contains(&Value::sym("FIN")), Some(false));
        assert_eq!(s.finite_len(), Some(2));
    }

    #[test]
    fn nat_contains_naturals_only() {
        let s = SetExpr::Nat.eval(&Env::new()).unwrap();
        assert_eq!(s.contains(&Value::Int(0)), Some(true));
        assert_eq!(s.contains(&Value::Int(-1)), Some(false));
        assert_eq!(s.contains(&Value::sym("ACK")), Some(false));
    }

    #[test]
    fn nat_enumeration_uses_bound() {
        let s = MsgSet::Nat;
        let vs = s.enumerate(2, &|_| None).unwrap();
        assert_eq!(vs, vec![Value::nat(0), Value::nat(1), Value::nat(2)]);
    }

    #[test]
    fn named_set_resolution() {
        let s = MsgSet::Named("M".to_string());
        assert_eq!(s.contains(&Value::nat(1)), None);
        let table =
            |n: &str| (n == "M").then(|| [Value::nat(7)].into_iter().collect::<BTreeSet<_>>());
        assert_eq!(s.enumerate(0, &table).unwrap(), vec![Value::nat(7)]);
        assert!(matches!(
            s.enumerate(0, &|_| None),
            Err(EvalError::UnboundedSet(_))
        ));
    }

    #[test]
    fn range_bounds_use_environment() {
        let se = SetExpr::Range(
            Box::new(Expr::var("n")),
            Box::new(Expr::var("n").add(Expr::int(1))),
        );
        let env = Env::new().bind("n", Value::Int(5));
        let s = se.eval(&env).unwrap();
        assert_eq!(s.finite_len(), Some(2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SetExpr::Nat.to_string(), "NAT");
        assert_eq!(SetExpr::range(0, 3).to_string(), "0..3");
        assert_eq!(
            SetExpr::enumeration([Value::sym("ACK")]).to_string(),
            "{ACK}"
        );
        assert_eq!(SetExpr::Named("M".into()).to_string(), "M");
    }
}
