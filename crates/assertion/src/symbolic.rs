//! The symbolic stage of [`decide_valid`](crate::decide_valid): decides
//! the fragment of pure premises the paper's proofs use for **every**
//! channel history and every value, with no enumeration.
//!
//! A formula is read as binders around `H₁ ∧ … ∧ Hₙ ⇒ G₁ ∧ … ∧ Gₘ`:
//!
//! * **Binders.** An outer `∀x:M` is stripped and `x` read as an
//!   arbitrary member of `M`; a singleton `∀w:{v}` is replaced by `v`.
//!   Each binder records whether its set can hold `ACK`/`NACK` (never for
//!   `NAT` and ranges; a named set through [`Universe::resolve_named`]; an
//!   enumeration through its constants). A free variable stays an
//!   arbitrary value, as the bounded checker reads it.
//! * **Normalisation**, in one bottom-up pass: `#<>` → 0,
//!   `#(x^s)` → `1 + #s`, `#<e₁…eₙ>` → n, closed arithmetic folded, and a
//!   sequence function rewritten only by the [`Equation`]s declared with
//!   it in the [`FuncTable`].
//! * **Decision**, per goal atom: prefix atoms by reflexivity, `<>`
//!   least, cons-cancellation and transitivity over the hypotheses'
//!   prefix atoms; length and integer atoms as difference constraints
//!   `u − v ≤ k` over lengths and integer variables (a goal holds when
//!   the hypotheses plus its negation have a negative cycle); an index
//!   into known heads by a case split on its value, with a `∀i:NAT`
//!   hypothesis instantiated at the index that remains.
//!
//! Whatever falls outside the fragment — or could fail to evaluate, so
//! that the bounded reading has no answer either — gives `None`, and
//! the bounded checker takes over.
//!
//! [`Equation`]: crate::Equation

use csp_lang::{BinOp, Env, Expr, SetExpr, UnOp};
use csp_semantics::Universe;
use csp_trace::{Channel, Value};

use crate::{free_vars, is_signal, subst_var, Assertion, CmpOp, FuncTable, Pattern, STerm, Term};

/// Decides `a` for every history and every value of its variables.
/// Returns the rule that carried the proof, or `None` when `a` is
/// outside the fragment or not valid.
///
/// # Examples
///
/// ```
/// use csp_assert::{parse_assertion, symbolic_valid, ChannelInfo, FuncTable};
/// use csp_semantics::Universe;
///
/// let info = ChannelInfo::new().with_channels(["a", "b", "c"]);
/// let trans = parse_assertion("(a <= b and b <= c) => a <= c", &info).unwrap();
/// let (uni, funcs) = (Universe::new(1), FuncTable::with_builtins());
/// assert_eq!(symbolic_valid(&trans, &uni, &funcs), Some("prefix-transitivity"));
/// let wrong = parse_assertion("(a <= b and c <= b) => a <= c", &info).unwrap();
/// assert_eq!(symbolic_valid(&wrong, &uni, &funcs), None);
/// ```
pub fn symbolic_valid(
    a: &Assertion,
    universe: &Universe,
    funcs: &FuncTable,
) -> Option<&'static str> {
    let mut cx = Cx {
        universe,
        funcs,
        scope: Vec::new(),
        taken: free_vars(a),
        used: 0,
    };
    cx.prove(a, &Facts::default())?;
    Some(rule_name(cx.used))
}

// The rules a proof used; the reported name is the first in
// `rule_name`'s order.
const CANCEL: u8 = 1;
const TRANS: u8 = 2;
const DIFF: u8 = 4;
const EQUATIONS: u8 = 8;
const CONTRA: u8 = 16;
const SPLIT: u8 = 32;

fn rule_name(used: u8) -> &'static str {
    [
        (SPLIT, "index-split"),
        (EQUATIONS, "declared-equations"),
        (TRANS, "prefix-transitivity"),
        (DIFF, "difference-bounds"),
        (CONTRA, "contradictory-hypotheses"),
        (CANCEL, "cons-cancellation"),
    ]
    .iter()
    .find(|(bit, _)| used & bit != 0)
    .map_or("normalisation", |(_, name)| name)
}

/// A sequence term in normal form: known heads consed onto a tail.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct NSeq {
    heads: Vec<Val>,
    tail: Tail,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Tail {
    Empty,
    Hist(Channel),
    /// An application no declared equation rewrites.
    App(String, Box<NSeq>),
}

/// A value term in normal form.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Val {
    /// An integer: lengths, integer constants and variables bound to
    /// integer sets, under `+`, `-` and scaling.
    Int(Lin),
    /// A constant that is not an integer (a signal, a boolean, a tuple).
    Const(Value),
    /// A variable that may hold any value.
    Var(String),
    /// `s[i]`, defined only when `1 ≤ i ≤ #s`.
    At(Box<NSeq>, Lin),
    /// An out-of-range index: the atom it is an operand of is false.
    Undef,
}

/// `k + Σ cᵢ·keyᵢ`, keys sorted, coefficients non-zero.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Lin {
    k: i64,
    terms: Vec<(Key, i64)>,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    /// A variable bound to a set of integers; `nat` when they are ≥ 0.
    Var { name: String, nat: bool },
    /// The length of an opaque tail.
    Len(Tail),
}

impl NSeq {
    fn of(tail: Tail) -> NSeq {
        NSeq {
            heads: Vec::new(),
            tail,
        }
    }

    fn is_empty(&self) -> bool {
        self.heads.is_empty() && self.tail == Tail::Empty
    }

    fn len(&self) -> Lin {
        let mut len = match &self.tail {
            Tail::Empty => Lin::constant(0),
            t => Lin::key(Key::Len(t.clone())),
        };
        len.k = self.heads.len() as i64;
        len
    }
}

impl Lin {
    fn constant(k: i64) -> Lin {
        Lin {
            k,
            terms: Vec::new(),
        }
    }

    fn key(key: Key) -> Lin {
        Lin {
            k: 0,
            terms: vec![(key, 1)],
        }
    }

    fn as_constant(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.k)
    }

    fn plus(&self, k: i64) -> Option<Lin> {
        Some(Lin {
            k: self.k.checked_add(k)?,
            terms: self.terms.clone(),
        })
    }

    fn add(&self, other: &Lin) -> Option<Lin> {
        let mut terms = self.terms.clone();
        for (key, c) in &other.terms {
            match terms.iter_mut().find(|(k, _)| k == key) {
                Some((_, d)) => *d = d.checked_add(*c)?,
                None => terms.push((key.clone(), *c)),
            }
        }
        terms.retain(|(_, c)| *c != 0);
        terms.sort();
        Some(Lin {
            k: self.k.checked_add(other.k)?,
            terms,
        })
    }

    fn scale(&self, c: i64) -> Option<Lin> {
        if c == 0 {
            return Some(Lin::constant(0));
        }
        let terms = self
            .terms
            .iter()
            .map(|(key, d)| Some((key.clone(), d.checked_mul(c)?)))
            .collect::<Option<Vec<_>>>()?;
        Some(Lin {
            k: self.k.checked_mul(c)?,
            terms,
        })
    }

    fn sub(&self, other: &Lin) -> Option<Lin> {
        self.add(&other.scale(-1)?)
    }

    /// The expression this stands for, when every key is a variable.
    fn expr(&self) -> Option<Expr> {
        let mut out = Expr::int(self.k);
        for (key, c) in &self.terms {
            let Key::Var { name, .. } = key else {
                return None;
            };
            let term = Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::int(*c)),
                Box::new(Expr::var(name)),
            );
            out = Expr::Bin(BinOp::Add, Box::new(out), Box::new(term));
        }
        Some(out)
    }
}

/// A normalised atomic formula.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Atom {
    Bool(bool),
    Prefix(NSeq, NSeq),
    SeqEq(NSeq, NSeq),
    /// `l ≤ 0`.
    Le(Lin),
    /// `l = 0`.
    EqInt(Lin),
    /// `l ≠ 0`.
    NeInt(Lin),
    /// `a == b` (true) or `a != b` (false) on values that need not be
    /// integers.
    Val(bool, Val, Val),
}

/// What the hypotheses in force say.
#[derive(Debug, Clone, Default)]
struct Facts {
    /// Some hypothesis is false.
    absurd: bool,
    prefix: Vec<(NSeq, NSeq)>,
    /// Each `l ≤ 0`.
    diffs: Vec<Lin>,
    values: Vec<(Val, Val)>,
    /// `∀x:NAT. body` hypotheses, instantiated on demand.
    schemes: Vec<(String, Assertion)>,
}

impl Facts {
    fn add(&mut self, atom: Atom) {
        match atom {
            Atom::Bool(b) => self.absurd |= !b,
            Atom::Prefix(a, b) => {
                // s ≤ t gives #s ≤ #t.
                self.diffs.extend(a.len().sub(&b.len()));
                self.prefix.push((a, b));
            }
            Atom::SeqEq(a, b) => {
                if let Some(d) = a.len().sub(&b.len()) {
                    self.diffs.extend(d.scale(-1));
                    self.diffs.push(d);
                }
                self.prefix.push((a.clone(), b.clone()));
                self.prefix.push((b, a));
            }
            Atom::Le(l) => self.diffs.push(l),
            Atom::EqInt(l) => {
                self.diffs.extend(l.scale(-1));
                self.diffs.push(l);
            }
            Atom::Val(true, a, b) => self.values.push((a, b)),
            Atom::NeInt(_) | Atom::Val(false, ..) => {}
        }
    }

    fn knows(&self, a: &Val, b: &Val) -> bool {
        self.values
            .iter()
            .any(|(x, y)| (x == a && y == b) || (x == b && y == a))
    }
}

/// What a bound variable's set can hold.
#[derive(Debug, Clone, Copy)]
struct Kind {
    /// No member is `ACK` or `NACK`.
    message: bool,
    /// Every member is an integer.
    int: bool,
    /// Every member is an integer ≥ 0.
    nat: bool,
}

const ANY: Kind = Kind {
    message: false,
    int: false,
    nat: false,
};

const NAT: Kind = Kind {
    message: true,
    int: true,
    nat: true,
};

impl Kind {
    fn of_values<'v>(vals: impl IntoIterator<Item = &'v Value>) -> Kind {
        let mut kind = NAT;
        for v in vals {
            kind.message &= !is_signal(v);
            kind.int &= v.as_int().is_some();
            kind.nat &= v.as_int().is_some_and(|n| n >= 0);
        }
        kind
    }
}

struct Cx<'a> {
    universe: &'a Universe,
    funcs: &'a FuncTable,
    /// Stripped binders, innermost last.
    scope: Vec<(String, Kind)>,
    /// Free variables and stripped binders: a binder reusing one of
    /// these names gives no answer rather than capture.
    taken: Vec<String>,
    used: u8,
}

/// The one value of a singleton enumeration.
fn singleton(m: &SetExpr) -> Option<Value> {
    match m {
        SetExpr::Enum(es) if es.len() == 1 => es[0].eval(&Env::new()).ok(),
        _ => None,
    }
}

impl Cx<'_> {
    fn lookup(&self, x: &str) -> Kind {
        self.scope
            .iter()
            .rev()
            .find(|(name, _)| name == x)
            .map_or(ANY, |(_, kind)| *kind)
    }

    /// What a quantifier's set can hold; `None` when the bounded reading
    /// could not evaluate it either.
    fn kind(&self, m: &SetExpr) -> Option<Kind> {
        let closed = |e: &Expr| e.eval(&Env::new()).ok();
        match m {
            SetExpr::Nat => Some(NAT),
            SetExpr::Range(lo, hi) => {
                let lo = closed(lo)?.as_int()?;
                closed(hi)?.as_int()?;
                Some(Kind {
                    nat: lo >= 0,
                    ..NAT
                })
            }
            SetExpr::Enum(es) => {
                let vals = es.iter().map(closed).collect::<Option<Vec<_>>>()?;
                Some(Kind::of_values(&vals))
            }
            SetExpr::Named(n) => Some(self.universe.resolve_named(n).map_or(ANY, Kind::of_values)),
        }
    }

    // ------------------------------------------------------ proving --

    fn prove(&mut self, a: &Assertion, facts: &Facts) -> Option<()> {
        match a {
            Assertion::ForallIn(x, m, body) => {
                if self.taken.contains(x) {
                    return None;
                }
                if let Some(v) = singleton(m) {
                    return self.prove(&subst_var(body, x, &Expr::Const(v)), facts);
                }
                let kind = self.kind(m)?;
                self.taken.push(x.clone());
                self.scope.push((x.clone(), kind));
                let proved = self.prove(body, facts);
                self.scope.pop();
                self.taken.pop();
                proved
            }
            Assertion::Implies(p, q) => {
                let mut facts = facts.clone();
                self.assume(p, &mut facts)?;
                self.prove(q, &facts)
            }
            Assertion::And(p, q) => {
                self.prove(p, facts)?;
                self.prove(q, facts)
            }
            Assertion::Or(..) | Assertion::Not(_) | Assertion::ExistsIn(..) => {
                self.check(a)?;
                self.contradicts(facts).then_some(())
            }
            _ => {
                let atom = self.atom(a)?;
                self.holds(&atom, facts).then_some(())
            }
        }
    }

    /// Adds hypothesis `h` to `facts`. A hypothesis the decision cannot
    /// use is left out, which only weakens what is known; it must still
    /// evaluate.
    fn assume(&mut self, h: &Assertion, facts: &mut Facts) -> Option<()> {
        match h {
            Assertion::And(p, q) => {
                self.assume(p, facts)?;
                self.assume(q, facts)
            }
            Assertion::ForallIn(x, m, body) => {
                if let Some(v) = singleton(m) {
                    return self.assume(&subst_var(body, x, &Expr::Const(v)), facts);
                }
                self.check(h)?;
                if *m == SetExpr::Nat && quantifier_free(body) {
                    facts.schemes.push((x.clone(), (**body).clone()));
                }
                Some(())
            }
            Assertion::Implies(..)
            | Assertion::Or(..)
            | Assertion::Not(_)
            | Assertion::ExistsIn(..) => self.check(h),
            _ => {
                let atom = self.atom(h)?;
                facts.add(atom);
                Some(())
            }
        }
    }

    /// Some when every atom of `a` normalises, so that `a` evaluates in
    /// every case the bounded reading tries.
    fn check(&mut self, a: &Assertion) -> Option<()> {
        let used = self.used;
        let ok = self.check_inner(a);
        self.used = used;
        ok
    }

    fn check_inner(&mut self, a: &Assertion) -> Option<()> {
        match a {
            Assertion::Not(p) => self.check_inner(p),
            Assertion::And(p, q) | Assertion::Or(p, q) | Assertion::Implies(p, q) => {
                self.check_inner(p)?;
                self.check_inner(q)
            }
            Assertion::ForallIn(x, m, body) | Assertion::ExistsIn(x, m, body) => {
                let kind = self.kind(m)?;
                self.scope.push((x.clone(), kind));
                let ok = self.check_inner(body);
                self.scope.pop();
                ok
            }
            _ => self.atom(a).map(|_| ()),
        }
    }

    fn contradicts(&mut self, facts: &Facts) -> bool {
        let absurd = facts.absurd || infeasible(facts.diffs.iter());
        if absurd {
            self.used |= CONTRA;
        }
        absurd
    }

    /// `facts ⊨ l ≤ 0`: the facts and `l ≥ 1` have no solution.
    fn entails(&mut self, facts: &Facts, l: &Lin) -> bool {
        let Some(negated) = l.scale(-1).and_then(|m| m.plus(1)) else {
            return false;
        };
        let holds = infeasible(facts.diffs.iter().chain([&negated]));
        if holds {
            self.used |= DIFF;
        }
        holds
    }

    fn holds(&mut self, atom: &Atom, facts: &Facts) -> bool {
        let proved = match atom {
            Atom::Bool(b) => *b,
            Atom::Prefix(s, t) => self.prefix(s, t, facts),
            Atom::SeqEq(s, t) => self.prefix(s, t, facts) && self.prefix(t, s, facts),
            Atom::Le(l) => self.entails(facts, l),
            Atom::EqInt(l) => {
                self.entails(facts, l) && l.scale(-1).is_some_and(|m| self.entails(facts, &m))
            }
            Atom::NeInt(l) => {
                let equal = l
                    .scale(-1)
                    .is_some_and(|m| infeasible(facts.diffs.iter().chain([l, &m])));
                if equal {
                    self.used |= DIFF;
                }
                equal
            }
            Atom::Val(eq, a, b) => *eq && self.equal(a, b, facts),
        };
        proved || self.contradicts(facts)
    }

    /// `s ≤ t` by reflexivity, `<>` least, cons-cancellation, and
    /// transitivity through the hypotheses' prefix atoms.
    fn prefix(&mut self, s: &NSeq, t: &NSeq, facts: &Facts) -> bool {
        let (s, t) = self.cancel(s, t);
        if s.is_empty() || s == t {
            return true;
        }
        let mut reached = vec![s];
        let mut i = 0;
        while i < reached.len() {
            for (a, b) in &facts.prefix {
                if *a == reached[i] && !reached.contains(b) {
                    reached.push(b.clone());
                }
            }
            i += 1;
        }
        for m in &reached[1..] {
            let (m2, t2) = (m.heads.first(), t.heads.first());
            let next = *m == t || (m2.is_some() && m2 == t2 && self.prefix(m, &t, facts));
            if next {
                self.used |= TRANS;
                return true;
            }
        }
        false
    }

    /// Strips the heads `s` and `t` share: `x^s ≤ x^t` iff `s ≤ t`, and
    /// likewise for `==`.
    fn cancel(&mut self, s: &NSeq, t: &NSeq) -> (NSeq, NSeq) {
        let common = s
            .heads
            .iter()
            .zip(&t.heads)
            .take_while(|(x, y)| x == y)
            .count();
        if common > 0 {
            self.used |= CANCEL;
        }
        let strip = |q: &NSeq| NSeq {
            heads: q.heads[common..].to_vec(),
            tail: q.tail.clone(),
        };
        (strip(s), strip(t))
    }

    /// `a == b` on values, through an index case split, the hypotheses'
    /// equalities, or a `∀i:NAT` hypothesis instantiated at an index.
    fn equal(&mut self, a: &Val, b: &Val, facts: &Facts) -> bool {
        for v in [a, b] {
            if let Val::At(s, _) = v {
                if !s.heads.is_empty() {
                    return self.split(a, b, v, facts);
                }
            }
        }
        if facts.knows(a, b) || (a == b && self.defined(a, facts)) {
            return true;
        }
        self.instantiate(a, b, facts)
    }

    fn defined(&mut self, v: &Val, facts: &Facts) -> bool {
        match v {
            Val::At(s, i) => {
                let (Some(low), Some(high)) = (Lin::constant(1).sub(i), i.sub(&s.len())) else {
                    return false;
                };
                self.entails(facts, &low) && self.entails(facts, &high)
            }
            Val::Undef => false,
            _ => true,
        }
    }

    /// Decides `a == b` where `target` (one of them) indexes into known
    /// heads `x₁…xₙ` at a symbolic `i`: once for `i ≤ 0`, once for each
    /// `i = m ≤ n` (the index is `xₘ`), once for `i > n` (the index moves
    /// into the tail).
    fn split(&mut self, a: &Val, b: &Val, target: &Val, facts: &Facts) -> bool {
        let Some(cases) = index_cases(target) else {
            return false;
        };
        self.used |= SPLIT;
        for (bounds, value) in cases {
            let mut case = facts.clone();
            case.diffs.extend(bounds);
            let pick = |v: &Val| {
                if v == target {
                    value.clone()
                } else {
                    v.clone()
                }
            };
            let Some(atom) = cmp_atom(CmpOp::Eq, pick(a), pick(b)) else {
                return false;
            };
            if !self.holds(&atom, &case) {
                return false;
            }
        }
        true
    }

    /// Instantiates each `∀x:NAT. G ⇒ C` hypothesis at an index `i` of
    /// `a` or `b` into a channel's history, when `0 ≤ i ≤ #c`: so `i` is
    /// also among the values the bounded reading's quantifier takes.
    /// True if `G` holds there and `C` gives `a == b`.
    fn instantiate(&mut self, a: &Val, b: &Val, facts: &Facts) -> bool {
        if facts.schemes.is_empty() {
            return false;
        }
        let mut plain = facts.clone();
        plain.schemes.clear();
        for v in [a, b] {
            let Val::At(s, i) = v else { continue };
            if !matches!(s.tail, Tail::Hist(_)) {
                continue;
            }
            let (Some(low), Some(high), Some(e)) = (i.scale(-1), i.sub(&s.len()), i.expr()) else {
                continue;
            };
            if !(self.entails(facts, &low) && self.entails(facts, &high)) {
                continue;
            }
            for (x, body) in &facts.schemes {
                let inst = subst_var(body, x, &e);
                let (guard, conclusion) = match &inst {
                    Assertion::Implies(g, c) => (Some(g.as_ref()), c.as_ref()),
                    c => (None, c),
                };
                if guard.is_some_and(|g| self.prove(g, &plain).is_none()) {
                    continue;
                }
                let mut known = plain.clone();
                if self.assume(conclusion, &mut known).is_some() && known.knows(a, b) {
                    return true;
                }
            }
        }
        false
    }

    // ------------------------------------------------ normalisation --

    fn atom(&mut self, a: &Assertion) -> Option<Atom> {
        match a {
            Assertion::True => Some(Atom::Bool(true)),
            Assertion::False => Some(Atom::Bool(false)),
            Assertion::Prefix(s, t) => {
                let (s, t) = (self.seq(s)?, self.seq(t)?);
                let (s, t) = self.cancel(&s, &t);
                Some(if s.is_empty() || s == t {
                    Atom::Bool(true)
                } else if (t.is_empty() && !s.heads.is_empty()) || distinct_heads(&s, &t) {
                    Atom::Bool(false)
                } else {
                    Atom::Prefix(s, t)
                })
            }
            Assertion::SeqEq(s, t) => {
                let (s, t) = (self.seq(s)?, self.seq(t)?);
                let (s, t) = self.cancel(&s, &t);
                let closed = s.tail == Tail::Empty && t.tail == Tail::Empty;
                Some(if s == t {
                    Atom::Bool(true)
                } else if (closed && s.heads.len() != t.heads.len()) || distinct_heads(&s, &t) {
                    Atom::Bool(false)
                } else {
                    Atom::SeqEq(s, t)
                })
            }
            Assertion::Cmp(op, x, y) => {
                let (x, y) = (self.val(x)?, self.val(y)?);
                cmp_atom(*op, x, y)
            }
            _ => None,
        }
    }

    fn seq(&mut self, s: &STerm) -> Option<NSeq> {
        Some(match s {
            STerm::Hist(c) => NSeq::of(Tail::Hist(c.resolve(&Env::new()).ok()?)),
            STerm::Empty => NSeq::of(Tail::Empty),
            STerm::Lit(ts) => NSeq {
                heads: ts.iter().map(|t| self.head(t)).collect::<Option<_>>()?,
                tail: Tail::Empty,
            },
            STerm::Cons(x, rest) => {
                let x = self.head(x)?;
                let mut s = self.seq(rest)?;
                s.heads.insert(0, x);
                s
            }
            // Only a literal left operand splices: `<x…> ++ t` is `x^…^t`.
            STerm::Concat(a, b) => {
                let (mut a, b) = (self.seq(a)?, self.seq(b)?);
                if a.tail != Tail::Empty {
                    return None;
                }
                a.heads.extend(b.heads);
                NSeq {
                    heads: a.heads,
                    tail: b.tail,
                }
            }
            STerm::App(name, arg) => {
                if !self.funcs.contains(name) {
                    return None;
                }
                let arg = self.seq(arg)?;
                self.apply(name, arg)
            }
        })
    }

    /// A cons head or literal element: it must be defined, or the
    /// evaluation fails.
    fn head(&mut self, t: &Term) -> Option<Val> {
        match self.val(t)? {
            Val::At(..) | Val::Undef => None,
            v => Some(v),
        }
    }

    /// `name(arg)` rewritten by the equations declared with `name`, left
    /// to right, until none applies.
    fn apply(&mut self, name: &str, arg: NSeq) -> NSeq {
        let mut out = Vec::new();
        let mut rest = &arg.heads[..];
        'rewrite: loop {
            for eq in self.funcs.equations(name) {
                let fits = if eq.open {
                    !eq.heads.is_empty() && rest.len() >= eq.heads.len()
                } else {
                    rest.len() == eq.heads.len() && arg.tail == Tail::Empty
                };
                if !fits || !eq.heads.iter().zip(rest).all(|(p, x)| self.admits(*p, x)) {
                    continue;
                }
                self.used |= EQUATIONS;
                out.extend(eq.keep.iter().map(|&i| rest[i].clone()));
                if !eq.open {
                    return NSeq {
                        heads: out,
                        tail: Tail::Empty,
                    };
                }
                rest = &rest[eq.heads.len()..];
                continue 'rewrite;
            }
            let stuck = NSeq {
                heads: rest.to_vec(),
                tail: arg.tail.clone(),
            };
            return NSeq {
                heads: out,
                tail: Tail::App(name.to_string(), Box::new(stuck)),
            };
        }
    }

    fn admits(&self, p: Pattern, v: &Val) -> bool {
        match p {
            Pattern::Any => true,
            Pattern::Message => match v {
                Val::Int(_) => true,
                Val::Const(c) => !is_signal(c),
                Val::Var(x) => self.lookup(x).message,
                Val::At(..) | Val::Undef => false,
            },
            Pattern::Signal(sig) => matches!(v, Val::Const(c) if c.as_sym() == Some(sig)),
        }
    }

    fn val(&mut self, t: &Term) -> Option<Val> {
        match t {
            Term::Expr(e) => self.expr(e),
            Term::Length(s) => Some(Val::Int(self.seq(s)?.len())),
            Term::Index(s, i) => {
                let s = self.seq(s)?;
                match self.val(i)? {
                    Val::Int(i) => index(s, i),
                    Val::Undef => Some(Val::Undef),
                    _ => None,
                }
            }
            Term::Bin(op, a, b) => {
                let (a, b) = (self.val(a)?, self.val(b)?);
                arith(*op, a, b)
            }
            Term::Un(UnOp::Neg, a) => arith(BinOp::Sub, Val::Int(Lin::constant(0)), self.val(a)?),
            Term::Un(..) => None,
        }
    }

    fn expr(&mut self, e: &Expr) -> Option<Val> {
        match e {
            Expr::Const(Value::Int(n)) => Some(Val::Int(Lin::constant(*n))),
            Expr::Const(v) => Some(Val::Const(v.clone())),
            Expr::Var(x) => Some(match self.lookup(x) {
                Kind { int: true, nat, .. } => Val::Int(Lin::key(Key::Var {
                    name: x.clone(),
                    nat,
                })),
                _ => Val::Var(x.clone()),
            }),
            Expr::Bin(op, a, b) => {
                let (a, b) = (self.expr(a)?, self.expr(b)?);
                arith(*op, a, b)
            }
            Expr::Un(UnOp::Neg, a) => arith(BinOp::Sub, Val::Int(Lin::constant(0)), self.expr(a)?),
            _ => None,
        }
    }
}

fn quantifier_free(a: &Assertion) -> bool {
    match a {
        Assertion::ForallIn(..) | Assertion::ExistsIn(..) => false,
        Assertion::Not(p) => quantifier_free(p),
        Assertion::And(p, q) | Assertion::Or(p, q) | Assertion::Implies(p, q) => {
            quantifier_free(p) && quantifier_free(q)
        }
        _ => true,
    }
}

/// `+`, `-` and `*` by a constant on integers; an undefined operand
/// makes the result undefined, as in evaluation.
fn arith(op: BinOp, a: Val, b: Val) -> Option<Val> {
    if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
        return None;
    }
    let (a, b) = match (a, b) {
        (Val::Undef, _) | (_, Val::Undef) => return Some(Val::Undef),
        (Val::Int(a), Val::Int(b)) => (a, b),
        _ => return None,
    };
    Some(Val::Int(match op {
        BinOp::Add => a.add(&b)?,
        BinOp::Sub => a.sub(&b)?,
        _ => match (a.as_constant(), b.as_constant()) {
            (Some(k), _) => b.scale(k)?,
            (_, Some(k)) => a.scale(k)?,
            _ => return None,
        },
    }))
}

/// `s[i]`, resolved where the index is a constant.
fn index(s: NSeq, i: Lin) -> Option<Val> {
    let n = s.heads.len() as i64;
    Some(match i.as_constant() {
        Some(m) if m < 1 => Val::Undef,
        Some(m) if m <= n => s.heads[(m - 1) as usize].clone(),
        Some(m) => match s.tail {
            Tail::Empty => Val::Undef,
            tail => Val::At(Box::new(NSeq::of(tail)), Lin::constant(m - n)),
        },
        None if s.is_empty() => Val::Undef,
        None => Val::At(Box::new(s), i),
    })
}

/// The cases of `s[i]` for `s = x₁^…^xₙ^t`: each the bounds on `i` (each
/// `l ≤ 0`) and the value there.
fn index_cases(target: &Val) -> Option<Vec<(Vec<Lin>, Val)>> {
    let Val::At(s, i) = target else {
        return None;
    };
    let n = s.heads.len() as i64;
    let at_least = |m: i64| i.scale(-1)?.plus(m);
    let mut cases = vec![(vec![i.clone()], Val::Undef)];
    for (m, x) in (1..=n).zip(&s.heads) {
        cases.push((vec![i.plus(-m)?, at_least(m)?], x.clone()));
    }
    let rest = match &s.tail {
        Tail::Empty => Val::Undef,
        tail => Val::At(Box::new(NSeq::of(tail.clone())), i.plus(-n)?),
    };
    cases.push((vec![at_least(n + 1)?], rest));
    Some(cases)
}

/// Two values that are different whatever the variables hold.
fn distinct(a: &Val, b: &Val) -> bool {
    match (a, b) {
        (Val::Const(x), Val::Const(y)) => x != y,
        (Val::Int(x), Val::Int(y)) => x
            .sub(y)
            .and_then(|d| d.as_constant())
            .is_some_and(|d| d != 0),
        (Val::Int(_), Val::Const(_)) | (Val::Const(_), Val::Int(_)) => true,
        _ => false,
    }
}

fn distinct_heads(s: &NSeq, t: &NSeq) -> bool {
    matches!((s.heads.first(), t.heads.first()), (Some(x), Some(y)) if distinct(x, y))
}

/// The atom `x op y`. An undefined operand makes it false; an ordering
/// needs integers on both sides, or the evaluation fails.
fn cmp_atom(op: CmpOp, x: Val, y: Val) -> Option<Atom> {
    if x == Val::Undef || y == Val::Undef {
        return Some(Atom::Bool(false));
    }
    if let (Val::Int(a), Val::Int(b)) = (&x, &y) {
        let d = a.sub(b)?;
        let le = |l: Lin| match l.as_constant() {
            Some(k) => Atom::Bool(k <= 0),
            None => Atom::Le(l),
        };
        return Some(match (op, d.as_constant()) {
            (CmpOp::Eq, Some(k)) => Atom::Bool(k == 0),
            (CmpOp::Ne, Some(k)) => Atom::Bool(k != 0),
            (CmpOp::Eq, None) => Atom::EqInt(d),
            (CmpOp::Ne, None) => Atom::NeInt(d),
            (CmpOp::Le, _) => le(d),
            (CmpOp::Lt, _) => le(d.plus(1)?),
            (CmpOp::Ge, _) => le(d.scale(-1)?),
            (CmpOp::Gt, _) => le(d.scale(-1)?.plus(1)?),
        });
    }
    let eq = match op {
        CmpOp::Eq => true,
        CmpOp::Ne => false,
        _ => return None,
    };
    let always_defined = |v: &Val| !matches!(v, Val::At(..));
    Some(if distinct(&x, &y) {
        Atom::Bool(!eq)
    } else if x == y && always_defined(&x) {
        Atom::Bool(eq)
    } else {
        Atom::Val(eq, x, y)
    })
}

/// True if `l ≤ 0` for every `l` has no integer solution in which every
/// length and natural-number variable is ≥ 0. A constraint that is not
/// a difference bound `u − v ≤ k` is left out, which only makes the
/// system easier to satisfy. Bellman–Ford from a virtual source: a
/// negative cycle means no solution.
fn infeasible<'l>(constraints: impl Iterator<Item = &'l Lin>) -> bool {
    // Node 0 is the constant 0; edge (u, v, w) says xᵥ − xᵤ ≤ w.
    let mut keys: Vec<&Key> = Vec::new();
    let mut edges: Vec<(usize, usize, i128)> = Vec::new();
    fn node<'k>(keys: &mut Vec<&'k Key>, key: &'k Key) -> usize {
        match keys.iter().position(|k| *k == key) {
            Some(i) => i + 1,
            None => {
                keys.push(key);
                keys.len()
            }
        }
    }
    for l in constraints {
        let k = i128::from(l.k);
        match l.terms.as_slice() {
            [] if k > 0 => return true,
            [(a, 1)] => {
                let a = node(&mut keys, a);
                edges.push((0, a, -k));
            }
            [(a, -1)] => {
                let a = node(&mut keys, a);
                edges.push((a, 0, -k));
            }
            [(a, 1), (b, -1)] | [(b, -1), (a, 1)] => {
                let (a, b) = (node(&mut keys, a), node(&mut keys, b));
                edges.push((b, a, -k));
            }
            _ => {}
        }
    }
    for (i, key) in keys.iter().enumerate() {
        if matches!(key, Key::Len(_) | Key::Var { nat: true, .. }) {
            edges.push((i + 1, 0, 0));
        }
    }
    let mut dist = vec![0i128; keys.len() + 1];
    for _ in 0..=keys.len() {
        let mut changed = false;
        for &(u, v, w) in &edges {
            if dist[u] + w < dist[v] {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    true
}
