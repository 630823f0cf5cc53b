//! Assertions compiled once per check.
//!
//! §3.3 reads `P sat R` as `∀s ∈ ⟦P⟧. (ρ + ch(s))⟦R⟧`: across a check
//! only `ch(s)` changes. [`EvalCtx`](crate::EvalCtx) interprets the
//! whole formula at every moment; a [`CompiledAssertion`] resolves the
//! leaves that read ρ once, against ρ and the [`FuncTable`]:
//!
//! * every embedded expression and channel subscript that mentions no
//!   quantifier variable is evaluated once; a failure is kept and raised
//!   only where the interpreter reaches it;
//! * function names are resolved to their [`SeqFn`]
//!   (an unknown name fails where the interpreter looks it up);
//! * quantifier variables are rebound in one scratch environment, ρ plus
//!   the variables in scope, and each outer binding is restored when its
//!   quantifier exits;
//! * `∀i:NAT. (lo ≤ i ∧ i ≤ #c + k) ⇒ B`, with `lo` and `k` embedded
//!   expressions that evaluated to integers, `c` a resolved channel,
//!   either conjunct order and `<` for either `≤`, walks only
//!   `max(lo, 0)..=min(#c + k, max(bound, #s))`.
//!   Neither conjunct can fail, and outside that range the guard is false,
//!   so the walk skips exactly the values on which the body is true
//!   without being read.
//!
//! Everything else, arithmetic, sequences, atoms and finite sets, is
//! evaluated at each moment as the interpreter evaluates it. The answers,
//! errors included, are those of `EvalCtx::assertion`, which stays the
//! independent reference this module is tested against.

use std::borrow::Cow;

use csp_lang::{eval_bin, eval_un, BinOp, ChanRef, Env, EvalError, Expr, SetExpr, UnOp};
use csp_semantics::Universe;
use csp_trace::{History, Seq, Value};

use crate::{AssertError, Assertion, CmpOp, FuncTable, STerm, SeqFn, Term};

/// An assertion resolved against ρ, the function table and the universe,
/// ready to be judged at many moments `ch(s)`.
///
/// # Examples
///
/// ```
/// use csp_assert::{parse_assertion, ChannelInfo, CompiledAssertion, FuncTable};
/// use csp_lang::Env;
/// use csp_semantics::Universe;
/// use csp_trace::{Trace, Value};
///
/// let info = ChannelInfo::new().with_channels(["c"]);
/// let r = parse_assertion("forall i:NAT. 1 <= i and i <= #c => c[i] == 1", &info).unwrap();
/// let uni = Universe::new(2);
/// let mut compiled = CompiledAssertion::new(&r, &Env::new(), &FuncTable::with_builtins(), &uni);
/// let ones = Trace::parse_like([("c", Value::nat(1)), ("c", Value::nat(1))]);
/// assert!(compiled.holds(&ones.history()).unwrap());
/// // The guard limits the walk to the two indices of `c`.
/// assert_eq!(compiled.bindings(), 2);
/// ```
pub struct CompiledAssertion<'a> {
    root: Formula,
    /// ρ with the quantifier variables in scope bound.
    env: Env,
    universe: &'a Universe,
    bindings: u64,
}

impl<'a> CompiledAssertion<'a> {
    /// Compiles `assertion` for evaluation in `(env + ch(s))`.
    pub fn new(
        assertion: &Assertion,
        env: &Env,
        funcs: &FuncTable,
        universe: &'a Universe,
    ) -> Self {
        let mut compiler = Compiler {
            env,
            funcs,
            scope: Vec::new(),
        };
        CompiledAssertion {
            root: compiler.formula(assertion),
            env: env.clone(),
            universe,
            bindings: 0,
        }
    }

    /// `(ρ + ch(s))⟦R⟧` for the history `ch(s)`: the answer of
    /// [`EvalCtx::assertion`](crate::EvalCtx::assertion) in the same
    /// environment.
    ///
    /// # Errors
    ///
    /// As for [`EvalCtx::assertion`](crate::EvalCtx::assertion).
    pub fn holds(&mut self, history: &History) -> Result<bool, AssertError> {
        Run {
            env: &mut self.env,
            history,
            universe: self.universe,
            top: None,
            bindings: &mut self.bindings,
        }
        .formula(&self.root)
    }

    /// How many quantifier values all calls of [`holds`](Self::holds) so
    /// far have bound.
    pub fn bindings(&self) -> u64 {
        self.bindings
    }
}

// ------------------------------------------------------------ the form --

enum Formula {
    Const(bool),
    Atom(Atom),
    Not(Box<Formula>),
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
    Implies(Box<Formula>, Box<Formula>),
    Forall(Box<Quantifier>),
    Exists(Box<Quantifier>),
}

enum Atom {
    Prefix(SeqTerm, SeqTerm),
    SeqEq(SeqTerm, SeqTerm),
    Cmp(CmpOp, ValTerm, ValTerm),
}

struct Quantifier {
    var: String,
    range: Range,
    body: Formula,
}

/// Where a quantifier's values come from.
enum Range {
    /// `NAT`: `0..=max(nat_bound, #s)`.
    Nat,
    /// `NAT` under the body's guard: only the values where it holds.
    Guarded(Guard),
    /// A finite set, enumerated each time the quantifier is reached, in
    /// the scope outside it.
    Set(SetExpr),
}

/// `lo ≤ i ∧ i ≤ #c + k`, `- k` read as `+ (−k)`. A strict lower bound
/// is folded into `lo`; a strict upper bound is applied after `+ k`, which
/// overflows exactly where the interpreter's does.
struct Guard {
    lo: i64,
    base: String,
    indices: Vec<i64>,
    k: i64,
    strict: bool,
}

enum SeqTerm {
    Empty,
    /// An unknown function or a failing subscript, raised where reached.
    Failed(AssertError),
    /// A channel whose subscripts were evaluated once.
    Hist(String, Vec<i64>),
    /// A channel with a subscript that reads a quantifier variable.
    Read(String, Vec<Expr>),
    Lit(Vec<ValTerm>),
    Cons(Box<ValTerm>, Box<SeqTerm>),
    Concat(Box<SeqTerm>, Box<SeqTerm>),
    App(SeqFn, Box<SeqTerm>),
}

enum ValTerm {
    /// An expression evaluated once: it reads no quantifier variable.
    Known(Result<Value, AssertError>),
    /// An expression that reads a quantifier variable.
    Expr(Expr),
    Length(Box<SeqTerm>),
    Index(Box<SeqTerm>, Box<ValTerm>),
    Bin(BinOp, Box<ValTerm>, Box<ValTerm>),
    Un(UnOp, Box<ValTerm>),
}

// -------------------------------------------------------- compilation --

struct Compiler<'c> {
    env: &'c Env,
    funcs: &'c FuncTable,
    /// The quantifier variables in scope, innermost last.
    scope: Vec<String>,
}

impl Compiler<'_> {
    fn formula(&mut self, a: &Assertion) -> Formula {
        match a {
            Assertion::True => Formula::Const(true),
            Assertion::False => Formula::Const(false),
            Assertion::Prefix(s, t) => Formula::Atom(Atom::Prefix(self.seq(s), self.seq(t))),
            Assertion::SeqEq(s, t) => Formula::Atom(Atom::SeqEq(self.seq(s), self.seq(t))),
            Assertion::Cmp(op, x, y) => Formula::Atom(Atom::Cmp(*op, self.val(x), self.val(y))),
            Assertion::Not(x) => Formula::Not(self.sub(x)),
            Assertion::And(x, y) => Formula::And(self.sub(x), self.sub(y)),
            Assertion::Or(x, y) => Formula::Or(self.sub(x), self.sub(y)),
            Assertion::Implies(x, y) => Formula::Implies(self.sub(x), self.sub(y)),
            Assertion::ForallIn(x, m, body) => {
                Formula::Forall(Box::new(self.quantifier(x, m, body, true)))
            }
            Assertion::ExistsIn(x, m, body) => {
                Formula::Exists(Box::new(self.quantifier(x, m, body, false)))
            }
        }
    }

    fn sub(&mut self, a: &Assertion) -> Box<Formula> {
        Box::new(self.formula(a))
    }

    fn quantifier(&mut self, x: &str, m: &SetExpr, body: &Assertion, forall: bool) -> Quantifier {
        self.scope.push(x.to_string());
        let body = self.formula(body);
        self.scope.pop();
        let range = match (m, &body) {
            (SetExpr::Nat, Formula::Implies(guard, _)) if forall => {
                Guard::of(guard, x).map_or(Range::Nat, Range::Guarded)
            }
            (SetExpr::Nat, _) => Range::Nat,
            _ => Range::Set(m.clone()),
        };
        Quantifier {
            var: x.to_string(),
            range,
            body,
        }
    }

    fn seq(&self, s: &STerm) -> SeqTerm {
        match s {
            STerm::Hist(c) => self.channel(c),
            STerm::Empty => SeqTerm::Empty,
            STerm::Lit(ts) => SeqTerm::Lit(ts.iter().map(|t| self.val(t)).collect()),
            STerm::Cons(x, rest) => SeqTerm::Cons(Box::new(self.val(x)), Box::new(self.seq(rest))),
            STerm::Concat(a, b) => SeqTerm::Concat(Box::new(self.seq(a)), Box::new(self.seq(b))),
            // The function is looked up before its argument is read.
            STerm::App(name, arg) => match self.funcs.get(name) {
                Some(f) => SeqTerm::App(f.clone(), Box::new(self.seq(arg))),
                None => SeqTerm::Failed(AssertError::UnknownFunction(name.clone())),
            },
        }
    }

    fn channel(&self, c: &ChanRef) -> SeqTerm {
        let base = c.base().to_string();
        if c.indices().iter().any(|e| self.reads_scope(e)) {
            return SeqTerm::Read(base, c.indices().to_vec());
        }
        let indices = c.indices().iter().map(|e| subscript(&base, e, self.env));
        match indices.collect() {
            Ok(indices) => SeqTerm::Hist(base, indices),
            Err(e) => SeqTerm::Failed(e),
        }
    }

    fn val(&self, t: &Term) -> ValTerm {
        match t {
            Term::Expr(e) if self.reads_scope(e) => ValTerm::Expr(e.clone()),
            Term::Expr(e) => ValTerm::Known(e.eval(self.env).map_err(Into::into)),
            Term::Length(s) => ValTerm::Length(Box::new(self.seq(s))),
            Term::Index(s, i) => ValTerm::Index(Box::new(self.seq(s)), Box::new(self.val(i))),
            Term::Bin(op, a, b) => ValTerm::Bin(*op, Box::new(self.val(a)), Box::new(self.val(b))),
            Term::Un(op, a) => ValTerm::Un(*op, Box::new(self.val(a))),
        }
    }

    /// True if evaluating `e` can read a quantifier variable in scope:
    /// by name, or as the cell `name[…]` an array reference looks up.
    fn reads_scope(&self, e: &Expr) -> bool {
        match e {
            Expr::Const(_) => false,
            Expr::Var(x) => self.scope.contains(x),
            Expr::Bin(_, a, b) => self.reads_scope(a) || self.reads_scope(b),
            Expr::Un(_, a) => self.reads_scope(a),
            Expr::Tuple(es) => es.iter().any(|e| self.reads_scope(e)),
            Expr::ArrayRef(name, idx) => {
                self.reads_scope(idx)
                    || self.scope.iter().any(|x| {
                        x.strip_prefix(name.as_str())
                            .is_some_and(|rest| rest.starts_with('['))
                    })
            }
        }
    }
}

impl Guard {
    /// The guard of `∀var:NAT. guard ⇒ …`, if it has the narrowable shape.
    fn of(guard: &Formula, var: &str) -> Option<Guard> {
        let Formula::And(a, b) = guard else {
            return None;
        };
        let (lo, upper) = match (Guard::lower(a, var), Guard::lower(b, var)) {
            (Some(lo), None) => (lo, b),
            (None, Some(lo)) => (lo, a),
            _ => return None,
        };
        let Formula::Atom(Atom::Cmp(op, ValTerm::Expr(Expr::Var(i)), hi)) = &**upper else {
            return None;
        };
        let strict = match op {
            CmpOp::Le if i == var => false,
            CmpOp::Lt if i == var => true,
            _ => return None,
        };
        let (len, k) = match hi {
            ValTerm::Bin(op, len, k) => match (op, &**k) {
                (BinOp::Add, ValTerm::Known(Ok(Value::Int(k)))) => (&**len, *k),
                (BinOp::Sub, ValTerm::Known(Ok(Value::Int(k)))) => (&**len, k.checked_neg()?),
                _ => return None,
            },
            len => (len, 0),
        };
        let ValTerm::Length(c) = len else {
            return None;
        };
        let SeqTerm::Hist(base, indices) = &**c else {
            return None;
        };
        Some(Guard {
            lo,
            base: base.clone(),
            indices: indices.clone(),
            k,
            strict,
        })
    }

    /// `lo ≤ var` or `lo < var` with `lo` a known integer: the least value
    /// it admits.
    fn lower(f: &Formula, var: &str) -> Option<i64> {
        match f {
            Formula::Atom(Atom::Cmp(op, ValTerm::Known(Ok(Value::Int(lo))), i)) => match (op, i) {
                (CmpOp::Le, ValTerm::Expr(Expr::Var(i))) if i == var => Some(*lo),
                (CmpOp::Lt, ValTerm::Expr(Expr::Var(i))) if i == var => lo.checked_add(1),
                _ => None,
            },
            _ => None,
        }
    }

    /// The values of `0..=top` where the guard holds, or `None` when
    /// `#c + k` overflows and only the full walk does what the
    /// interpreter does.
    fn range(&self, history: &History, top: u32) -> Option<(i64, i64)> {
        let len = history
            .lookup(&self.base, &self.indices)
            .map_or(0, Seq::len) as i64;
        let hi = len
            .checked_add(self.k)?
            .checked_sub(i64::from(self.strict))?;
        Some((self.lo.max(0), hi.min(i64::from(top))))
    }
}

fn subscript(base: &str, e: &Expr, env: &Env) -> Result<i64, AssertError> {
    e.eval(env)?.as_int().ok_or_else(|| {
        AssertError::Eval(EvalError::BadSubscript {
            name: base.to_string(),
        })
    })
}

// --------------------------------------------------------- evaluation --

/// Reads terms and atoms at one moment; quantifiers need a [`Run`].
#[derive(Clone, Copy)]
struct Reader<'r> {
    env: &'r Env,
    history: &'r History,
}

impl<'r> Reader<'r> {
    fn atom(self, a: &Atom) -> Result<bool, AssertError> {
        match a {
            Atom::Prefix(s, t) => Ok(self.seq(s)?.is_prefix_of(&*self.seq(t)?)),
            Atom::SeqEq(s, t) => Ok(self.seq(s)? == self.seq(t)?),
            Atom::Cmp(op, x, y) => {
                let (x, y) = match (self.val(x)?, self.val(y)?) {
                    (Some(x), Some(y)) => (x, y),
                    _ => return Ok(false), // undefined operand ⇒ atom false
                };
                let ints = || match (x.as_int(), y.as_int()) {
                    (Some(a), Some(b)) => Ok(a.cmp(&b)),
                    _ => Err(AssertError::Eval(EvalError::TypeMismatch {
                        context: format!("comparison {}", op.symbol()),
                    })),
                };
                Ok(match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => ints()?.is_lt(),
                    CmpOp::Le => ints()?.is_le(),
                    CmpOp::Gt => ints()?.is_gt(),
                    CmpOp::Ge => ints()?.is_ge(),
                })
            }
        }
    }

    fn seq<'n>(self, s: &'n SeqTerm) -> Result<Cow<'n, Seq<Value>>, AssertError>
    where
        'r: 'n,
    {
        Ok(match s {
            SeqTerm::Empty => Cow::Owned(Seq::empty()),
            SeqTerm::Failed(e) => return Err(e.clone()),
            SeqTerm::Hist(base, indices) => self.channel(base, indices),
            SeqTerm::Read(base, subscripts) => {
                let indices = subscripts.iter().map(|e| subscript(base, e, self.env));
                self.channel(base, &indices.collect::<Result<Vec<_>, _>>()?)
            }
            SeqTerm::Lit(ts) => {
                let mut out = Vec::with_capacity(ts.len());
                for t in ts {
                    out.push(
                        self.val(t)?
                            .ok_or_else(|| mismatch("sequence literal element"))?,
                    );
                }
                Cow::Owned(Seq::from_vec(out))
            }
            SeqTerm::Cons(x, rest) => {
                let v = self.val(x)?.ok_or_else(|| mismatch("cons head"))?;
                Cow::Owned(self.seq(rest)?.cons(v))
            }
            SeqTerm::Concat(a, b) => Cow::Owned(self.seq(a)?.concat(&*self.seq(b)?)),
            SeqTerm::App(f, arg) => Cow::Owned(f(&*self.seq(arg)?)),
        })
    }

    fn channel(self, base: &str, indices: &[i64]) -> Cow<'r, Seq<Value>> {
        self.history
            .lookup(base, indices)
            .map_or(Cow::Owned(Seq::empty()), Cow::Borrowed)
    }

    fn val(self, t: &ValTerm) -> Result<Option<Value>, AssertError> {
        match t {
            ValTerm::Known(v) => v.clone().map(Some),
            ValTerm::Expr(e) => Ok(Some(e.eval(self.env)?)),
            ValTerm::Length(s) => Ok(Some(Value::Int(self.seq(s)?.len() as i64))),
            ValTerm::Index(s, i) => {
                let seq = self.seq(s)?;
                let idx = match self.val(i)? {
                    Some(Value::Int(n)) if n >= 1 => n as usize,
                    Some(_) | None => return Ok(None),
                };
                Ok(seq.at(idx).cloned())
            }
            ValTerm::Bin(op, a, b) => match (self.val(a)?, self.val(b)?) {
                (Some(a), Some(b)) => Ok(Some(eval_bin(*op, a, b)?)),
                _ => Ok(None),
            },
            ValTerm::Un(op, a) => match self.val(a)? {
                Some(v) => Ok(Some(eval_un(*op, v)?)),
                None => Ok(None),
            },
        }
    }
}

fn mismatch(context: &str) -> AssertError {
    AssertError::Eval(EvalError::TypeMismatch {
        context: context.to_string(),
    })
}

/// One call of [`CompiledAssertion::holds`].
struct Run<'r> {
    env: &'r mut Env,
    history: &'r History,
    universe: &'r Universe,
    /// `max(nat_bound, #s)`, the last value `NAT` is walked to.
    top: Option<u32>,
    bindings: &'r mut u64,
}

impl Run<'_> {
    fn formula(&mut self, f: &Formula) -> Result<bool, AssertError> {
        match f {
            Formula::Const(b) => Ok(*b),
            Formula::Atom(a) => Reader {
                env: self.env,
                history: self.history,
            }
            .atom(a),
            Formula::Not(x) => Ok(!self.formula(x)?),
            Formula::And(x, y) => Ok(self.formula(x)? && self.formula(y)?),
            Formula::Or(x, y) => Ok(self.formula(x)? || self.formula(y)?),
            Formula::Implies(x, y) => Ok(!self.formula(x)? || self.formula(y)?),
            Formula::Forall(q) => Ok(!self.some_value_gives(q, false)?),
            Formula::Exists(q) => self.some_value_gives(q, true),
        }
    }

    fn top(&mut self) -> u32 {
        let (universe, history) = (self.universe, self.history);
        *self.top.get_or_insert_with(|| {
            (universe.nat_bound() as usize).max(history.total_messages()) as u32
        })
    }

    /// True if the body evaluates to `want` with the variable bound to
    /// some value of the range, tried in order; stops at the first.
    fn some_value_gives(&mut self, q: &Quantifier, want: bool) -> Result<bool, AssertError> {
        let ints = |lo: i64, hi: i64| (lo..=hi).map(Value::Int);
        match &q.range {
            Range::Nat => {
                let top = self.top();
                self.walk(&q.var, ints(0, top.into()), &q.body, want)
            }
            Range::Guarded(guard) => {
                let top = self.top();
                match (guard.range(self.history, top), &q.body) {
                    (Some((lo, hi)), Formula::Implies(_, then)) => {
                        self.walk(&q.var, ints(lo, hi), then, want)
                    }
                    _ => self.walk(&q.var, ints(0, top.into()), &q.body, want),
                }
            }
            Range::Set(set) => {
                // Read before `walk` binds the variable: the outer scope.
                let members = enumerate(self.universe, set, self.env)?;
                self.walk(&q.var, members.into_iter(), &q.body, want)
            }
        }
    }

    /// Binds `var` to each value in turn until the body gives `want`,
    /// then restores the binding `var` had outside.
    fn walk(
        &mut self,
        var: &str,
        values: impl Iterator<Item = Value>,
        body: &Formula,
        want: bool,
    ) -> Result<bool, AssertError> {
        let outer = self.env.unbind(var);
        let mut found = Ok(false);
        for v in values {
            self.env.bind_mut(var, v);
            *self.bindings += 1;
            match self.formula(body) {
                Ok(b) if b != want => {}
                other => {
                    found = other.map(|_| true);
                    break;
                }
            }
        }
        match outer {
            Some(v) => self.env.bind_mut(var, v),
            None => {
                self.env.unbind(var);
            }
        }
        found
    }
}

/// A finite set's members in order, as the interpreter enumerates them,
/// read in the scope outside its quantifier. Only `SetExpr::Nat`
/// evaluates to `NAT`, and it never comes here.
fn enumerate(universe: &Universe, set: &SetExpr, env: &Env) -> Result<Vec<Value>, AssertError> {
    Ok(universe.enumerate(&set.eval(env)?)?)
}
