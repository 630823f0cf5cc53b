//! The substitutions used by the inference rules of §2.1.
//!
//! * `R_<>` (rule 4, emptiness): every channel name replaced by `<>`;
//! * `R^c_{e^c}` (rules 5/6, output/input): every occurrence of channel
//!   `c` replaced by `e^c` — semantically, lemma (c) of §3.4:
//!   `(ρ + ch(s))⟦R^c_{e^c}⟧ = (ρ + ch((c.e)^s))⟦R⟧`;
//! * `R^x_e` (rule 6 and ∀-elimination): every free occurrence of
//!   variable `x` replaced by expression `e` — lemma (a).

use csp_lang::{subst_expr_with, subst_setexpr_with, ChanRef, Expr};

use crate::{Assertion, STerm, Term};

/// `R_<>` — replaces every channel history by the empty sequence.
///
/// # Examples
///
/// ```
/// use csp_assert::{subst_empty, Assertion, STerm};
///
/// let r = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
/// assert_eq!(subst_empty(&r).to_string(), "<> <= <>");
/// ```
pub fn subst_empty(a: &Assertion) -> Assertion {
    map_sterms(a, &|s| match s {
        STerm::Hist(_) => Some(STerm::Empty),
        _ => None,
    })
}

/// `R^c_{e^c}` — replaces every occurrence of channel `c`'s history by
/// `e^c` (the history with `e` consed on front).
///
/// # Examples
///
/// ```
/// use csp_assert::{subst_chan_cons, Assertion, STerm, Term};
/// use csp_lang::ChanRef;
///
/// let r = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
/// let r2 = subst_chan_cons(&r, &ChanRef::simple("wire"), &Term::var("x"));
/// assert_eq!(r2.to_string(), "x^wire <= input");
/// ```
pub fn subst_chan_cons(a: &Assertion, c: &ChanRef, e: &Term) -> Assertion {
    map_sterms(a, &|s| match s {
        STerm::Hist(cr) if cr == c => Some(STerm::Cons(
            Box::new(e.clone()),
            Box::new(STerm::Hist(cr.clone())),
        )),
        _ => None,
    })
}

/// `R^x_e` — replaces every free occurrence of variable `x` by
/// expression `e`, respecting quantifier binders.
///
/// # Examples
///
/// ```
/// use csp_assert::{subst_var, Assertion, CmpOp, STerm, Term};
/// use csp_lang::Expr;
///
/// let r = Assertion::prefix(
///     STerm::chan("wire").app("f"),
///     STerm::chan("input").cons(Term::var("x")),
/// );
/// let r2 = subst_var(&r, "x", &Expr::int(3));
/// assert_eq!(r2.to_string(), "f(wire) <= 3^input");
/// ```
pub fn subst_var(a: &Assertion, x: &str, e: &Expr) -> Assertion {
    match a {
        Assertion::True | Assertion::False => a.clone(),
        Assertion::Prefix(s, t) => {
            Assertion::Prefix(subst_var_sterm(s, x, e), subst_var_sterm(t, x, e))
        }
        Assertion::SeqEq(s, t) => {
            Assertion::SeqEq(subst_var_sterm(s, x, e), subst_var_sterm(t, x, e))
        }
        Assertion::Cmp(op, s, t) => {
            Assertion::Cmp(*op, subst_var_term(s, x, e), subst_var_term(t, x, e))
        }
        Assertion::Not(inner) => Assertion::Not(Box::new(subst_var(inner, x, e))),
        Assertion::And(p, q) => {
            Assertion::And(Box::new(subst_var(p, x, e)), Box::new(subst_var(q, x, e)))
        }
        Assertion::Or(p, q) => {
            Assertion::Or(Box::new(subst_var(p, x, e)), Box::new(subst_var(q, x, e)))
        }
        Assertion::Implies(p, q) => {
            Assertion::Implies(Box::new(subst_var(p, x, e)), Box::new(subst_var(q, x, e)))
        }
        Assertion::ForallIn(y, m, body) => {
            let m2 = subst_setexpr_with(m, x, e);
            if y == x {
                Assertion::ForallIn(y.clone(), m2, body.clone())
            } else {
                Assertion::ForallIn(y.clone(), m2, Box::new(subst_var(body, x, e)))
            }
        }
        Assertion::ExistsIn(y, m, body) => {
            let m2 = subst_setexpr_with(m, x, e);
            if y == x {
                Assertion::ExistsIn(y.clone(), m2, body.clone())
            } else {
                Assertion::ExistsIn(y.clone(), m2, Box::new(subst_var(body, x, e)))
            }
        }
    }
}

fn subst_var_sterm(s: &STerm, x: &str, e: &Expr) -> STerm {
    match s {
        STerm::Hist(c) => STerm::Hist(ChanRef::with_indices(
            c.base(),
            c.indices()
                .iter()
                .map(|i| subst_expr_with(i, x, e))
                .collect(),
        )),
        STerm::Empty => STerm::Empty,
        STerm::Lit(ts) => STerm::Lit(ts.iter().map(|t| subst_var_term(t, x, e)).collect()),
        STerm::Cons(h, t) => STerm::Cons(
            Box::new(subst_var_term(h, x, e)),
            Box::new(subst_var_sterm(t, x, e)),
        ),
        STerm::Concat(a, b) => STerm::Concat(
            Box::new(subst_var_sterm(a, x, e)),
            Box::new(subst_var_sterm(b, x, e)),
        ),
        STerm::App(name, arg) => STerm::App(name.clone(), Box::new(subst_var_sterm(arg, x, e))),
    }
}

fn subst_var_term(t: &Term, x: &str, e: &Expr) -> Term {
    match t {
        Term::Expr(inner) => Term::Expr(subst_expr_with(inner, x, e)),
        Term::Length(s) => Term::Length(Box::new(subst_var_sterm(s, x, e))),
        Term::Index(s, i) => Term::Index(
            Box::new(subst_var_sterm(s, x, e)),
            Box::new(subst_var_term(i, x, e)),
        ),
        Term::Bin(op, a, b) => Term::Bin(
            *op,
            Box::new(subst_var_term(a, x, e)),
            Box::new(subst_var_term(b, x, e)),
        ),
        Term::Un(op, a) => Term::Un(*op, Box::new(subst_var_term(a, x, e))),
    }
}

/// Applies a rewrite to every sequence sub-term (bottom-up on formula
/// structure, top-down on sequence terms: if the rewrite matches, its
/// result is taken as-is and not descended into).
fn map_sterms(a: &Assertion, rw: &dyn Fn(&STerm) -> Option<STerm>) -> Assertion {
    match a {
        Assertion::True | Assertion::False => a.clone(),
        Assertion::Prefix(s, t) => Assertion::Prefix(rewrite_sterm(s, rw), rewrite_sterm(t, rw)),
        Assertion::SeqEq(s, t) => Assertion::SeqEq(rewrite_sterm(s, rw), rewrite_sterm(t, rw)),
        Assertion::Cmp(op, x, y) => Assertion::Cmp(*op, rewrite_term(x, rw), rewrite_term(y, rw)),
        Assertion::Not(inner) => Assertion::Not(Box::new(map_sterms(inner, rw))),
        Assertion::And(p, q) => {
            Assertion::And(Box::new(map_sterms(p, rw)), Box::new(map_sterms(q, rw)))
        }
        Assertion::Or(p, q) => {
            Assertion::Or(Box::new(map_sterms(p, rw)), Box::new(map_sterms(q, rw)))
        }
        Assertion::Implies(p, q) => {
            Assertion::Implies(Box::new(map_sterms(p, rw)), Box::new(map_sterms(q, rw)))
        }
        Assertion::ForallIn(x, m, body) => {
            Assertion::ForallIn(x.clone(), m.clone(), Box::new(map_sterms(body, rw)))
        }
        Assertion::ExistsIn(x, m, body) => {
            Assertion::ExistsIn(x.clone(), m.clone(), Box::new(map_sterms(body, rw)))
        }
    }
}

fn rewrite_sterm(s: &STerm, rw: &dyn Fn(&STerm) -> Option<STerm>) -> STerm {
    if let Some(replaced) = rw(s) {
        return replaced;
    }
    match s {
        STerm::Hist(_) | STerm::Empty => s.clone(),
        STerm::Lit(ts) => STerm::Lit(ts.iter().map(|t| rewrite_term(t, rw)).collect()),
        STerm::Cons(h, t) => STerm::Cons(
            Box::new(rewrite_term(h, rw)),
            Box::new(rewrite_sterm(t, rw)),
        ),
        STerm::Concat(a, b) => STerm::Concat(
            Box::new(rewrite_sterm(a, rw)),
            Box::new(rewrite_sterm(b, rw)),
        ),
        STerm::App(name, arg) => STerm::App(name.clone(), Box::new(rewrite_sterm(arg, rw))),
    }
}

fn rewrite_term(t: &Term, rw: &dyn Fn(&STerm) -> Option<STerm>) -> Term {
    match t {
        Term::Expr(_) => t.clone(),
        Term::Length(s) => Term::Length(Box::new(rewrite_sterm(s, rw))),
        Term::Index(s, i) => Term::Index(
            Box::new(rewrite_sterm(s, rw)),
            Box::new(rewrite_term(i, rw)),
        ),
        Term::Bin(op, a, b) => Term::Bin(
            *op,
            Box::new(rewrite_term(a, rw)),
            Box::new(rewrite_term(b, rw)),
        ),
        Term::Un(op, a) => Term::Un(*op, Box::new(rewrite_term(a, rw))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmpOp;
    use csp_lang::SetExpr;

    #[test]
    fn empty_substitution_hits_every_channel() {
        // #input ≤ #wire + 1 becomes #<> ≤ #<> + 1.
        let r = Assertion::Cmp(
            CmpOp::Le,
            Term::length(STerm::chan("input")),
            Term::length(STerm::chan("wire")).add(Term::int(1)),
        );
        let r2 = subst_empty(&r);
        assert_eq!(r2.to_string(), "#<> <= (#<> + 1)");
    }

    #[test]
    fn chan_cons_only_hits_named_channel() {
        let r = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
        let r2 = subst_chan_cons(&r, &ChanRef::simple("input"), &Term::var("v"));
        assert_eq!(r2.to_string(), "wire <= v^input");
    }

    #[test]
    fn chan_cons_under_function_application() {
        // f(wire) ≤ input with wire ↦ v^wire gives f(v^wire) ≤ input —
        // exactly the shape used in steps (8)–(9) of Table 1.
        let r = Assertion::prefix(STerm::chan("wire").app("f"), STerm::chan("input"));
        let r2 = subst_chan_cons(&r, &ChanRef::simple("wire"), &Term::var("v"));
        assert_eq!(r2.to_string(), "f(v^wire) <= input");
    }

    #[test]
    fn var_substitution_respects_binders() {
        // ∀x:{0..x}. x ≤ y with x ↦ 3: the bound x stays, the range and y
        // occurrences change per scoping (range is outside the binder).
        let r = Assertion::ForallIn(
            "x".into(),
            SetExpr::Range(Box::new(Expr::int(0)), Box::new(Expr::var("x"))),
            Box::new(Assertion::Cmp(CmpOp::Le, Term::var("x"), Term::var("y"))),
        );
        let r2 = subst_var(&r, "x", &Expr::int(3));
        assert_eq!(r2.to_string(), "forall x:0..3. (x <= y)");
        let r3 = subst_var(&r, "y", &Expr::int(9));
        assert_eq!(r3.to_string(), "forall x:0..x. (x <= 9)");
    }

    #[test]
    fn var_substitution_reaches_channel_subscripts() {
        let r = Assertion::prefix(
            STerm::chan_at("col", Expr::var("i")),
            STerm::chan_at("col", Expr::var("i").sub(Expr::int(1))),
        );
        let r2 = subst_var(&r, "i", &Expr::int(2));
        assert_eq!(r2.to_string(), "col[2] <= col[(2 - 1)]");
    }

    #[test]
    fn double_substitution_composes() {
        // (R^c_{v^c})^x_3 used when the input rule instantiates its fresh
        // variable.
        let r = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
        let r2 = subst_chan_cons(&r, &ChanRef::simple("wire"), &Term::var("v"));
        let r3 = subst_var(&r2, "v", &Expr::int(3));
        assert_eq!(r3.to_string(), "3^wire <= input");
    }
}
