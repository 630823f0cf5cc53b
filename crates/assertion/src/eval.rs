//! Evaluation of assertions in an environment extended by a channel
//! history — the `(ρ + ch(s))⟦R⟧` of §3.3.
//!
//! "`(ρ + ch(s))` is an environment in which channel names have the
//! values ascribed to them by `ch(s)`", and assertions are then evaluated
//! "according to the normal semantics of the predicate calculus".

use std::borrow::Cow;
use std::fmt;

use csp_lang::{eval_bin, eval_un, ChanRef, Env, EvalError, Expr, SetExpr};
use csp_semantics::Universe;
use csp_trace::{History, Seq, Value};

use crate::{Assertion, CmpOp, FuncTable, STerm, Term};

/// Errors raised while evaluating an assertion.
#[derive(Debug, Clone)]
pub enum AssertError {
    /// An embedded expression failed to evaluate.
    Eval(EvalError),
    /// An assertion applied a sequence function that is not registered in
    /// the [`FuncTable`].
    UnknownFunction(String),
}

impl fmt::Display for AssertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssertError::Eval(e) => e.fmt(f),
            AssertError::UnknownFunction(n) => write!(f, "unknown sequence function `{n}`"),
        }
    }
}

impl std::error::Error for AssertError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AssertError::Eval(e) => Some(e),
            AssertError::UnknownFunction(_) => None,
        }
    }
}

impl From<EvalError> for AssertError {
    fn from(e: EvalError) -> Self {
        AssertError::Eval(e)
    }
}

/// Everything needed to evaluate an assertion at one moment in time:
/// the value environment ρ, the channel history `ch(s)`, the registered
/// sequence functions, and the universe bounding quantifiers.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// The value environment ρ (free value variables).
    pub env: &'a Env,
    /// The channel history `ch(s)` of the trace observed so far.
    pub history: &'a History,
    /// Named sequence functions such as the protocol's `f`.
    pub funcs: &'a FuncTable,
    /// Finite universe for bounded quantifiers and named sets.
    pub universe: &'a Universe,
}

impl<'a> EvalCtx<'a> {
    /// Creates an evaluation context.
    pub fn new(
        env: &'a Env,
        history: &'a History,
        funcs: &'a FuncTable,
        universe: &'a Universe,
    ) -> Self {
        EvalCtx {
            env,
            history,
            funcs,
            universe,
        }
    }

    /// Evaluates a sequence term to a concrete message sequence. A
    /// channel's history is borrowed from `ch(s)`; only sequences the
    /// term builds (literals, `^`, `++`, function results) are owned.
    ///
    /// # Errors
    ///
    /// Fails on unbound variables in channel subscripts or element
    /// expressions, or unknown sequence functions.
    pub fn sterm(&self, s: &STerm) -> Result<Cow<'a, Seq<Value>>, AssertError> {
        match s {
            STerm::Hist(c) => self.hist(c),
            STerm::Empty => Ok(Cow::Owned(Seq::empty())),
            STerm::Lit(ts) => {
                let mut out = Vec::with_capacity(ts.len());
                for t in ts {
                    match self.term(t)? {
                        Some(v) => out.push(v),
                        None => {
                            return Err(AssertError::Eval(EvalError::TypeMismatch {
                                context: "sequence literal element".to_string(),
                            }))
                        }
                    }
                }
                Ok(Cow::Owned(Seq::from_vec(out)))
            }
            STerm::Cons(x, rest) => {
                let v = self
                    .term(x)?
                    .ok_or(AssertError::Eval(EvalError::TypeMismatch {
                        context: "cons head".to_string(),
                    }))?;
                Ok(Cow::Owned(self.sterm(rest)?.cons(v)))
            }
            STerm::Concat(a, b) => Ok(Cow::Owned(self.sterm(a)?.concat(&*self.sterm(b)?))),
            STerm::App(name, arg) => {
                let f = self
                    .funcs
                    .get(name)
                    .ok_or_else(|| AssertError::UnknownFunction(name.clone()))?;
                Ok(Cow::Owned(f(&*self.sterm(arg)?)))
            }
        }
    }

    /// `ch(s)(c)`, borrowed from the history. The subscripts are
    /// evaluated and looked up in place, with the errors of
    /// [`ChanRef::resolve`], so no [`Channel`](csp_trace::Channel) is
    /// built.
    fn hist(&self, c: &ChanRef) -> Result<Cow<'a, Seq<Value>>, AssertError> {
        let subscript = |e: &Expr| -> Result<i64, AssertError> {
            e.eval(self.env)?.as_int().ok_or_else(|| {
                AssertError::Eval(EvalError::BadSubscript {
                    name: c.base().to_string(),
                })
            })
        };
        let seq = match c.indices() {
            [] => self.history.lookup(c.base(), &[]),
            [i] => self.history.lookup(c.base(), &[subscript(i)?]),
            many => {
                let indices = many.iter().map(subscript).collect::<Result<Vec<_>, _>>()?;
                self.history.lookup(c.base(), &indices)
            }
        };
        Ok(seq.map_or(Cow::Owned(Seq::empty()), Cow::Borrowed))
    }

    /// Evaluates a value term. `Ok(None)` means *undefined* — currently
    /// only out-of-range sequence indexing — which makes the enclosing
    /// comparison false (the paper always guards indexing with
    /// `1 ≤ i ≤ #s`).
    ///
    /// # Errors
    ///
    /// Fails on unbound variables, ill-typed operators, and unknown
    /// functions.
    pub fn term(&self, t: &Term) -> Result<Option<Value>, AssertError> {
        match t {
            Term::Expr(e) => Ok(Some(e.eval(self.env)?)),
            Term::Length(s) => Ok(Some(Value::Int(self.sterm(s)?.len() as i64))),
            Term::Index(s, i) => {
                let seq = self.sterm(s)?;
                let idx = match self.term(i)? {
                    Some(Value::Int(n)) if n >= 1 => n as usize,
                    Some(_) | None => return Ok(None),
                };
                Ok(seq.at(idx).cloned())
            }
            Term::Bin(op, a, b) => match (self.term(a)?, self.term(b)?) {
                (Some(va), Some(vb)) => Ok(Some(eval_bin(*op, va, vb)?)),
                _ => Ok(None),
            },
            Term::Un(op, a) => match self.term(a)? {
                Some(v) => Ok(Some(eval_un(*op, v)?)),
                None => Ok(None),
            },
        }
    }

    /// Evaluates an assertion to a truth value.
    ///
    /// Quantifiers over `NAT` are enumerated up to
    /// `max(universe bound, total messages in the history)`, which covers
    /// both value quantification and the paper's index quantification
    /// (`∀i:NAT. 1 ≤ i ≤ #output ⇒ …`), since no index can exceed the
    /// total message count.
    ///
    /// # Errors
    ///
    /// As for [`term`](Self::term) and [`sterm`](Self::sterm).
    pub fn assertion(&self, a: &Assertion) -> Result<bool, AssertError> {
        match a {
            Assertion::True => Ok(true),
            Assertion::False => Ok(false),
            Assertion::Prefix(s, t) => Ok(self.sterm(s)?.is_prefix_of(&*self.sterm(t)?)),
            Assertion::SeqEq(s, t) => Ok(self.sterm(s)? == self.sterm(t)?),
            Assertion::Cmp(op, x, y) => {
                let (vx, vy) = match (self.term(x)?, self.term(y)?) {
                    (Some(vx), Some(vy)) => (vx, vy),
                    _ => return Ok(false), // undefined operand ⇒ atom false
                };
                Ok(match op {
                    CmpOp::Eq => vx == vy,
                    CmpOp::Ne => vx != vy,
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                        let (a, b) = match (vx.as_int(), vy.as_int()) {
                            (Some(a), Some(b)) => (a, b),
                            _ => {
                                return Err(AssertError::Eval(EvalError::TypeMismatch {
                                    context: format!("comparison {}", op.symbol()),
                                }))
                            }
                        };
                        match op {
                            CmpOp::Lt => a < b,
                            CmpOp::Le => a <= b,
                            CmpOp::Gt => a > b,
                            CmpOp::Ge => a >= b,
                            _ => unreachable!(),
                        }
                    }
                })
            }
            Assertion::Not(inner) => Ok(!self.assertion(inner)?),
            Assertion::And(x, y) => Ok(self.assertion(x)? && self.assertion(y)?),
            Assertion::Or(x, y) => Ok(self.assertion(x)? || self.assertion(y)?),
            Assertion::Implies(x, y) => Ok(!self.assertion(x)? || self.assertion(y)?),
            Assertion::ForallIn(x, m, body) => Ok(!self.some_value_gives(x, m, body, false)?),
            Assertion::ExistsIn(x, m, body) => self.some_value_gives(x, m, body, true),
        }
    }

    /// True if `body` evaluates to `want` with `x` bound to some value of
    /// `m`, tried in order; stops at the first such value. The
    /// environment is cloned once and `x` rebound in place per value.
    fn some_value_gives(
        &self,
        x: &str,
        m: &SetExpr,
        body: &Assertion,
        want: bool,
    ) -> Result<bool, AssertError> {
        let mut env = self.env.clone();
        for v in self.quantifier_range(m)? {
            env.bind_mut(x, v);
            if (EvalCtx { env: &env, ..*self }).assertion(body)? == want {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn quantifier_range(&self, m: &SetExpr) -> Result<Vec<Value>, AssertError> {
        let set = m.eval(self.env)?;
        match &set {
            csp_lang::MsgSet::Nat => {
                let bound = (self.universe.nat_bound() as usize).max(self.history.total_messages());
                Ok((0..=bound as u32).map(Value::nat).collect())
            }
            _ => Ok(self.universe.enumerate(&set)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::Trace;

    fn ctx_fixture(trace: &[(&'static str, u32)]) -> (Env, History, FuncTable, Universe) {
        let t = Trace::parse_like(trace.iter().map(|&(c, n)| (c, Value::nat(n))));
        (
            Env::new(),
            t.history(),
            FuncTable::with_builtins(),
            Universe::new(3),
        )
    }

    #[test]
    fn wire_le_input_on_copier_trace() {
        let (env, h, f, u) = ctx_fixture(&[("input", 3), ("wire", 3), ("input", 5)]);
        let ctx = EvalCtx::new(&env, &h, &f, &u);
        let r = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
        assert!(ctx.assertion(&r).unwrap());
        // The converse fails:
        let r2 = Assertion::prefix(STerm::chan("input"), STerm::chan("wire"));
        assert!(!ctx.assertion(&r2).unwrap());
    }

    #[test]
    fn length_bound_assertion() {
        // copier sat #input ≤ #wire + 1
        let (env, h, f, u) = ctx_fixture(&[("input", 3), ("wire", 3), ("input", 5)]);
        let ctx = EvalCtx::new(&env, &h, &f, &u);
        let r = Assertion::Cmp(
            CmpOp::Le,
            Term::length(STerm::chan("input")),
            Term::length(STerm::chan("wire")).add(Term::int(1)),
        );
        assert!(ctx.assertion(&r).unwrap());
    }

    #[test]
    fn empty_history_satisfies_prefix_assertions() {
        let (env, h, f, u) = ctx_fixture(&[]);
        let ctx = EvalCtx::new(&env, &h, &f, &u);
        let r = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
        assert!(ctx.assertion(&r).unwrap());
    }

    #[test]
    fn indexing_is_one_based_and_guarded() {
        let (env, h, f, u) = ctx_fixture(&[("out", 7)]);
        let ctx = EvalCtx::new(&env, &h, &f, &u);
        let idx1 = Assertion::Cmp(
            CmpOp::Eq,
            Term::Index(Box::new(STerm::chan("out")), Box::new(Term::int(1))),
            Term::int(7),
        );
        assert!(ctx.assertion(&idx1).unwrap());
        // Out of range ⇒ atom false, even negated-equality shape:
        let idx9 = Assertion::Cmp(
            CmpOp::Eq,
            Term::Index(Box::new(STerm::chan("out")), Box::new(Term::int(9))),
            Term::int(7),
        );
        assert!(!ctx.assertion(&idx9).unwrap());
        let idx0 = Assertion::Cmp(
            CmpOp::Ne,
            Term::Index(Box::new(STerm::chan("out")), Box::new(Term::int(0))),
            Term::int(7),
        );
        assert!(!ctx.assertion(&idx0).unwrap());
    }

    #[test]
    fn cons_and_literal_sequences() {
        let (env, h, f, u) = ctx_fixture(&[("c", 2), ("c", 3)]);
        let ctx = EvalCtx::new(&env, &h, &f, &u);
        // 2^<3> == c
        let r = Assertion::SeqEq(
            STerm::Lit(vec![Term::int(3)]).cons(Term::int(2)),
            STerm::chan("c"),
        );
        assert!(ctx.assertion(&r).unwrap());
        // Concat form: <2> ++ <3> == c
        let r2 = Assertion::SeqEq(
            STerm::Concat(
                Box::new(STerm::Lit(vec![Term::int(2)])),
                Box::new(STerm::Lit(vec![Term::int(3)])),
            ),
            STerm::chan("c"),
        );
        assert!(ctx.assertion(&r2).unwrap());
    }

    #[test]
    fn protocol_f_assertion() {
        // Trace: wire carries 1, NACK, 1, ACK; input carried 1.
        let env = Env::new();
        let t = Trace::from_events([
            ("input", Value::nat(1)).into(),
            ("wire", Value::nat(1)).into(),
            ("wire", Value::sym("NACK")).into(),
            ("wire", Value::nat(1)).into(),
            ("wire", Value::sym("ACK")).into(),
        ]);
        let h = t.history();
        let f = FuncTable::with_builtins();
        let u = Universe::new(3);
        let ctx = EvalCtx::new(&env, &h, &f, &u);
        let r = Assertion::prefix(STerm::chan("wire").app("f"), STerm::chan("input"));
        assert!(ctx.assertion(&r).unwrap());
    }

    #[test]
    fn unknown_function_errors() {
        let (env, h, f, u) = ctx_fixture(&[]);
        let ctx = EvalCtx::new(&env, &h, &f, &u);
        let r = Assertion::SeqEq(STerm::chan("c").app("ghost"), STerm::Empty);
        assert!(matches!(
            ctx.assertion(&r),
            Err(AssertError::UnknownFunction(_))
        ));
    }

    #[test]
    fn forall_over_finite_set() {
        let (env, h, f, u) = ctx_fixture(&[]);
        let ctx = EvalCtx::new(&env, &h, &f, &u);
        // ∀x:{0..3}. x ≤ 3
        let r = Assertion::ForallIn(
            "x".into(),
            SetExpr::range(0, 3),
            Box::new(Assertion::Cmp(CmpOp::Le, Term::var("x"), Term::int(3))),
        );
        assert!(ctx.assertion(&r).unwrap());
        // ∃x:{0..3}. x == 2
        let e = Assertion::ExistsIn(
            "x".into(),
            SetExpr::range(0, 3),
            Box::new(Assertion::Cmp(CmpOp::Eq, Term::var("x"), Term::int(2))),
        );
        assert!(ctx.assertion(&e).unwrap());
    }

    #[test]
    fn nat_quantifier_covers_history_indices() {
        // History longer than the universe's nat bound: the quantifier
        // range must still reach every index.
        let (env, h, f, u) =
            ctx_fixture(&[("c", 1), ("c", 1), ("c", 1), ("c", 1), ("c", 1), ("c", 1)]);
        assert!(h.total_messages() > u.nat_bound() as usize);
        let ctx = EvalCtx::new(&env, &h, &f, &u);
        // ∀i:NAT. 1 ≤ i and i ≤ #c ⇒ c[i] == 1
        let guard = Assertion::Cmp(CmpOp::Le, Term::int(1), Term::var("i")).and(Assertion::Cmp(
            CmpOp::Le,
            Term::var("i"),
            Term::length(STerm::chan("c")),
        ));
        let body = Assertion::Cmp(
            CmpOp::Eq,
            Term::Index(Box::new(STerm::chan("c")), Box::new(Term::var("i"))),
            Term::int(1),
        );
        let r = Assertion::ForallIn("i".into(), SetExpr::Nat, Box::new(guard.implies(body)));
        assert!(ctx.assertion(&r).unwrap());
    }

    #[test]
    fn multiplier_invariant_shape() {
        // §2's multiplier claim on a hand-built history:
        // output_i = Σ_j v[j] × row[j]_i  with v = (2,3), one output.
        let env = Env::new()
            .bind("v[1]", Value::Int(2))
            .bind("v[2]", Value::Int(3));
        let t = Trace::from_events([
            csp_trace::Event::new(csp_trace::Channel::indexed("row", 1), Value::nat(1)),
            csp_trace::Event::new(csp_trace::Channel::indexed("row", 2), Value::nat(2)),
            csp_trace::Event::new(csp_trace::Channel::simple("output"), Value::nat(8)),
        ]);
        let h = t.history();
        let f = FuncTable::with_builtins();
        let u = Universe::new(3);
        let ctx = EvalCtx::new(&env, &h, &f, &u);
        // ∀i:NAT. 1 ≤ i ≤ #output ⇒
        //   output[i] == v[1]*row[1][i] + v[2]*row[2][i]
        let guard = Assertion::Cmp(CmpOp::Le, Term::int(1), Term::var("i")).and(Assertion::Cmp(
            CmpOp::Le,
            Term::var("i"),
            Term::length(STerm::chan("output")),
        ));
        let lhs = Term::Index(Box::new(STerm::chan("output")), Box::new(Term::var("i")));
        let prod = |j: i64| {
            Term::mul(
                Term::Expr(Expr::ArrayRef("v".into(), Box::new(Expr::int(j)))),
                Term::Index(
                    Box::new(STerm::chan_at("row", Expr::int(j))),
                    Box::new(Term::var("i")),
                ),
            )
        };
        let rhs = prod(1).add(prod(2));
        let body = Assertion::Cmp(CmpOp::Eq, lhs, rhs);
        let r = Assertion::ForallIn("i".into(), SetExpr::Nat, Box::new(guard.implies(body)));
        assert!(ctx.assertion(&r).unwrap());
    }
}
