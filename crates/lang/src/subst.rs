//! Substitution of an expression for a variable in expressions and
//! processes.
//!
//! The paper's rules use substitutions like `P^x_v` (replace free `x` by
//! `v`, rule 6), `R^x_e` (∀-elimination), and the instantiation `Q'`
//! formed from an array body `Q` by replacing the parameter `i` by the
//! value of the subscript (§1.2(3)). A value is substituted as the
//! constant expression [`Expr::Const`]. Binders (`c?x:M -> P`) stop the
//! substitution of their own variable; no capture can occur while the
//! replacement's variables are not bound inside the term (a constant has
//! none, and the proof checker substitutes fresh variables).

use std::sync::Arc;

use csp_trace::Value;

use crate::{ChanRef, Env, EvalError, Expr, Process, SetExpr};

/// Substitutes *every* binding of `env` into `p`, producing the closed
/// instantiation of an array body (or the identity for an empty
/// environment): [`close_process_with`] reading `env`.
///
/// # Errors
///
/// Currently infallible in practice (substituting constants cannot fail),
/// but returns `Result` so the definition-resolution pipeline composes
/// with genuine evaluation errors.
pub fn close_process(p: &Process, env: &Env) -> Result<Process, EvalError> {
    let value = |x: &str| env.lookup(x).cloned();
    let closed = Closer {
        value: &value,
        bound: Vec::new(),
    }
    .process(p);
    Ok(closed.unwrap_or_else(|| p.clone()))
}

/// Closes `p` in one walk: every free variable `x` of `p` for which
/// `value(x)` is `Some(v)` is replaced by the constant `v` (an input
/// binds its own variable in what follows it), the rest stay. Subterms
/// in which nothing is replaced are shared, so closing a closed term
/// returns it.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// use csp_lang::{close_process_with, parse_process};
/// use csp_trace::Value;
///
/// let p = Arc::new(parse_process("c!(x + y) -> d?x:NAT -> e!x -> q[y]").unwrap());
/// let value = |x: &str| (x != "z").then_some(Value::Int(if x == "x" { 1 } else { 2 }));
/// let closed = close_process_with(&p, &value);
/// assert_eq!(closed.to_string(), "c!(1 + 2) -> d?x:NAT -> e!x -> q[2]");
/// assert!(Arc::ptr_eq(&close_process_with(&closed, &value), &closed));
/// ```
pub fn close_process_with<F: Fn(&str) -> Option<Value>>(
    p: &Arc<Process>,
    value: &F,
) -> Arc<Process> {
    let closed = Closer {
        value,
        bound: Vec::new(),
    }
    .process(p);
    shared(closed, p)
}

/// One closing walk: the values, and the input variables bound around
/// the subterm being closed. Each method returns `None` when nothing in
/// its subterm is replaced.
struct Closer<'a, F> {
    value: &'a F,
    bound: Vec<&'a str>,
}

/// `new`, or a copy of `old` when nothing in it was replaced.
fn kept<T: Clone>(new: Option<T>, old: &T) -> T {
    new.unwrap_or_else(|| old.clone())
}

/// `new`, or `old` shared when nothing in it was replaced.
fn shared(new: Option<Process>, old: &Arc<Process>) -> Arc<Process> {
    new.map_or_else(|| Arc::clone(old), Arc::new)
}

/// `items` with `f` applied, or `None` when `f` replaces nothing.
fn each<T: Clone>(items: &[T], f: impl Fn(&T) -> Option<T>) -> Option<Vec<T>> {
    let (i, first) = items
        .iter()
        .enumerate()
        .find_map(|(i, x)| Some((i, f(x)?)))?;
    let mut out = Vec::with_capacity(items.len());
    out.extend_from_slice(&items[..i]);
    out.push(first);
    out.extend(items[i + 1..].iter().map(|x| kept(f(x), x)));
    Some(out)
}

impl<'a, F: Fn(&str) -> Option<Value>> Closer<'a, F> {
    fn expr(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::Const(_) => None,
            Expr::Var(x) if self.bound.contains(&x.as_str()) => None,
            Expr::Var(x) => (self.value)(x).map(Expr::Const),
            Expr::Bin(op, a, b) => {
                let (a2, b2) = (self.expr(a), self.expr(b));
                (a2.is_some() || b2.is_some())
                    .then(|| Expr::Bin(*op, Box::new(kept(a2, a)), Box::new(kept(b2, b))))
            }
            Expr::Un(op, a) => self.expr(a).map(|a| Expr::Un(*op, Box::new(a))),
            Expr::Tuple(es) => each(es, |e| self.expr(e)).map(Expr::Tuple),
            Expr::ArrayRef(name, idx) => self
                .expr(idx)
                .map(|idx| Expr::ArrayRef(name.clone(), Box::new(idx))),
        }
    }

    fn chan(&self, c: &ChanRef) -> Option<ChanRef> {
        each(c.indices(), |e| self.expr(e)).map(|idx| ChanRef::with_indices(c.base(), idx))
    }

    fn chans(&self, cs: Option<&[ChanRef]>) -> Option<Vec<ChanRef>> {
        each(cs?, |c| self.chan(c))
    }

    fn set(&self, s: &SetExpr) -> Option<SetExpr> {
        match s {
            SetExpr::Nat | SetExpr::Named(_) => None,
            SetExpr::Range(lo, hi) => {
                let (lo2, hi2) = (self.expr(lo), self.expr(hi));
                (lo2.is_some() || hi2.is_some())
                    .then(|| SetExpr::Range(Box::new(kept(lo2, lo)), Box::new(kept(hi2, hi))))
            }
            SetExpr::Enum(es) => each(es, |e| self.expr(e)).map(SetExpr::Enum),
        }
    }

    fn process(&mut self, p: &'a Process) -> Option<Process> {
        match p {
            Process::Stop | Process::Error(_) => None,
            Process::Call { name, args } => {
                each(args, |e| self.expr(e)).map(|args| Process::Call {
                    name: name.clone(),
                    args,
                })
            }
            Process::Output { chan, msg, then } => {
                let (c, m, t) = (self.chan(chan), self.expr(msg), self.process(then));
                (c.is_some() || m.is_some() || t.is_some()).then(|| Process::Output {
                    chan: kept(c, chan),
                    msg: kept(m, msg),
                    then: shared(t, then),
                })
            }
            Process::Input {
                chan,
                var,
                set,
                then,
            } => {
                let (c, s) = (self.chan(chan), self.set(set));
                self.bound.push(var);
                let t = self.process(then);
                self.bound.pop();
                (c.is_some() || s.is_some() || t.is_some()).then(|| Process::Input {
                    chan: kept(c, chan),
                    var: var.clone(),
                    set: kept(s, set),
                    then: shared(t, then),
                })
            }
            Process::Choice(a, b) => {
                let (a2, b2) = (self.process(a), self.process(b));
                (a2.is_some() || b2.is_some())
                    .then(|| Process::Choice(shared(a2, a), shared(b2, b)))
            }
            Process::Parallel {
                left,
                right,
                left_alpha,
                right_alpha,
            } => {
                let (l, r) = (self.process(left), self.process(right));
                let (la, ra) = (
                    self.chans(left_alpha.as_deref()),
                    self.chans(right_alpha.as_deref()),
                );
                (l.is_some() || r.is_some() || la.is_some() || ra.is_some()).then(|| {
                    Process::Parallel {
                        left: shared(l, left),
                        right: shared(r, right),
                        left_alpha: la.or_else(|| left_alpha.clone()),
                        right_alpha: ra.or_else(|| right_alpha.clone()),
                    }
                })
            }
            Process::Hide { channels, body } => {
                let (cs, b) = (self.chans(Some(channels)), self.process(body));
                (cs.is_some() || b.is_some()).then(|| Process::Hide {
                    channels: kept(cs, channels),
                    body: shared(b, body),
                })
            }
        }
    }
}

/// `e^x_r` — replaces every free occurrence of variable `x` in `e` by the
/// expression `r`; a value `v` is substituted as `Expr::Const(v)`.
///
/// # Examples
///
/// ```
/// use csp_lang::{subst_expr_with, Expr};
/// use csp_trace::Value;
///
/// let e = Expr::var("x").add(Expr::var("y"));
/// assert_eq!(subst_expr_with(&e, "x", &Expr::Const(Value::Int(3))).to_string(), "(3 + y)");
/// assert_eq!(subst_expr_with(&e, "x", &Expr::var("v")).to_string(), "(v + y)");
/// ```
pub fn subst_expr_with(e: &Expr, x: &str, r: &Expr) -> Expr {
    match e {
        Expr::Const(_) => e.clone(),
        Expr::Var(y) => {
            if y == x {
                r.clone()
            } else {
                e.clone()
            }
        }
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(subst_expr_with(a, x, r)),
            Box::new(subst_expr_with(b, x, r)),
        ),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(subst_expr_with(a, x, r))),
        Expr::Tuple(es) => Expr::Tuple(es.iter().map(|t| subst_expr_with(t, x, r)).collect()),
        Expr::ArrayRef(name, idx) => {
            Expr::ArrayRef(name.clone(), Box::new(subst_expr_with(idx, x, r)))
        }
    }
}

/// `M^x_r` — [`subst_expr_with`] in the bounds or members of a message
/// set.
pub fn subst_setexpr_with(s: &SetExpr, x: &str, r: &Expr) -> SetExpr {
    match s {
        SetExpr::Nat | SetExpr::Named(_) => s.clone(),
        SetExpr::Range(lo, hi) => SetExpr::Range(
            Box::new(subst_expr_with(lo, x, r)),
            Box::new(subst_expr_with(hi, x, r)),
        ),
        SetExpr::Enum(es) => SetExpr::Enum(es.iter().map(|e| subst_expr_with(e, x, r)).collect()),
    }
}

fn subst_chanref_with(c: &ChanRef, x: &str, r: &Expr) -> ChanRef {
    ChanRef::with_indices(
        c.base(),
        c.indices()
            .iter()
            .map(|e| subst_expr_with(e, x, r))
            .collect(),
    )
}

/// `P^x_r` — replaces every free occurrence of variable `x` in process
/// `P` by the expression `r` (rule 6 of §2.1, ∀-elimination, and, with
/// `r = Expr::Const(v)`, the array instantiation of §1.2(3)). No capture
/// is possible only when `r`'s variables are not bound inside `P`.
///
/// # Examples
///
/// ```
/// use csp_lang::{parse_process, subst_process_with, Expr};
/// use csp_trace::Value;
///
/// let three = Expr::Const(Value::nat(3));
/// let p = parse_process("wire!x -> q[x]").unwrap();
/// assert_eq!(subst_process_with(&p, "x", &three).to_string(), "wire!3 -> q[3]");
///
/// // Binders shadow: the inner x is untouched.
/// let p = parse_process("wire!x -> input?x:NAT -> out!x -> STOP").unwrap();
/// let p3 = subst_process_with(&p, "x", &three);
/// assert_eq!(p3.to_string(), "wire!3 -> input?x:NAT -> out!x -> STOP");
/// ```
pub fn subst_process_with(p: &Process, x: &str, r: &Expr) -> Process {
    let sub_chans = |cs: &[ChanRef]| -> Vec<ChanRef> {
        cs.iter().map(|c| subst_chanref_with(c, x, r)).collect()
    };
    match p {
        Process::Stop => Process::Stop,
        Process::Error(_) => p.clone(),
        Process::Call { name, args } => Process::Call {
            name: name.clone(),
            args: args.iter().map(|e| subst_expr_with(e, x, r)).collect(),
        },
        Process::Output { chan, msg, then } => Process::Output {
            chan: subst_chanref_with(chan, x, r),
            msg: subst_expr_with(msg, x, r),
            then: Arc::new(subst_process_with(then, x, r)),
        },
        Process::Input {
            chan,
            var,
            set,
            then,
        } => Process::Input {
            chan: subst_chanref_with(chan, x, r),
            var: var.clone(),
            set: subst_setexpr_with(set, x, r),
            // x is rebound below; substitution stops here.
            then: if var == x {
                then.clone()
            } else {
                Arc::new(subst_process_with(then, x, r))
            },
        },
        Process::Choice(a, b) => Process::Choice(
            Arc::new(subst_process_with(a, x, r)),
            Arc::new(subst_process_with(b, x, r)),
        ),
        Process::Parallel {
            left,
            right,
            left_alpha,
            right_alpha,
        } => Process::Parallel {
            left: Arc::new(subst_process_with(left, x, r)),
            right: Arc::new(subst_process_with(right, x, r)),
            left_alpha: left_alpha.as_deref().map(sub_chans),
            right_alpha: right_alpha.as_deref().map(sub_chans),
        },
        Process::Hide { channels, body } => Process::Hide {
            channels: sub_chans(channels),
            body: Arc::new(subst_process_with(body, x, r)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(n: i64) -> Expr {
        Expr::Const(Value::Int(n))
    }

    #[test]
    fn a_value_replaces_every_free_occurrence() {
        let e = Expr::var("x").add(Expr::var("x"));
        let e2 = subst_expr_with(&e, "x", &int(2));
        assert!(e2.is_closed());
        assert_eq!(e2.eval(&Env::new()).unwrap(), Value::Int(4));
        let y = Expr::var("y");
        assert_eq!(subst_expr_with(&y, "x", &int(1)), y);
    }

    #[test]
    fn an_expression_replaces_a_variable() {
        let e = Expr::var("x").add(Expr::int(1));
        let r = subst_expr_with(&e, "x", &Expr::var("v"));
        assert_eq!(r.to_string(), "(v + 1)");
        let p = crate::parse_process("c!x -> c?x:NAT -> d!x -> STOP").unwrap();
        let q = subst_process_with(&p, "x", &Expr::var("v"));
        assert_eq!(q.to_string(), "c!v -> c?x:NAT -> d!x -> STOP");
    }

    #[test]
    fn output_and_call_are_substituted() {
        let p = Process::output("wire", Expr::var("x"), Process::call1("q", Expr::var("x")));
        match subst_process_with(&p, "x", &int(5)) {
            Process::Output { msg, then, .. } => {
                assert_eq!(msg, Expr::int(5));
                assert_eq!(*then, Process::call1("q", Expr::int(5)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn input_binder_shadows() {
        // (input?x:M -> wire!x -> STOP)^x_v leaves the bound x alone.
        let p = Process::input(
            "input",
            "x",
            SetExpr::Nat,
            Process::output("wire", Expr::var("x"), Process::Stop),
        );
        assert_eq!(subst_process_with(&p, "x", &int(9)), p);
    }

    #[test]
    fn input_set_and_channel_are_substituted_even_when_var_shadows() {
        // The set M and channel subscripts are outside the binder's scope.
        let p = Process::Input {
            chan: ChanRef::indexed("row", Expr::var("x")),
            var: "x".to_string(),
            set: SetExpr::Range(Box::new(Expr::int(0)), Box::new(Expr::var("x"))),
            then: std::sync::Arc::new(Process::Stop),
        };
        match subst_process_with(&p, "x", &int(3)) {
            Process::Input { chan, set, .. } => {
                assert_eq!(chan.indices()[0], Expr::int(3));
                assert_eq!(
                    set,
                    SetExpr::Range(Box::new(Expr::int(0)), Box::new(Expr::int(3)))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let m = SetExpr::Enum(vec![Expr::var("x"), Expr::var("y")]);
        assert_eq!(
            subst_setexpr_with(&m, "x", &Expr::var("v")),
            SetExpr::Enum(vec![Expr::var("v"), Expr::var("y")])
        );
    }

    #[test]
    fn close_process_applies_all_bindings() {
        let p = Process::output("c", Expr::var("a").add(Expr::var("b")), Process::Stop);
        let env = Env::new().bind("a", Value::Int(1)).bind("b", Value::Int(2));
        match close_process(&p, &env).unwrap() {
            Process::Output { msg, .. } => {
                assert_eq!(msg.eval(&Env::new()).unwrap(), Value::Int(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Closing replaces what each binding reaches, respecting binders, and
    /// shares every subterm in which nothing is replaced.
    #[test]
    fn closing_replaces_free_variables_and_shares_the_rest() {
        let env = Env::new()
            .bind("x", Value::Int(1))
            .bind("y", Value::Int(2))
            .bind("v[1]", Value::Int(9));
        let value = |x: &str| env.lookup(x).cloned();
        for (src, closed) in [
            (
                "c[x]?x:{0..x} -> d!(x + y) -> q[y]",
                "c[1]?x:0..1 -> d!(x + 2) -> q[2]",
            ),
            (
                "c!v[x] -> (a?y:NAT -> b!y -> STOP | b!y -> STOP)",
                "c!v[1] -> (a?y:NAT -> b!y -> STOP | b!2 -> STOP)",
            ),
            (
                "chan h[y]; (h[y]!x -> STOP ||{h[y] | h[x]} h[x]?z:{y} -> e!z -> STOP)",
                "chan h[2]; h[2]!1 -> STOP ||{h[2] | h[1]} h[1]?z:{2} -> e!z -> STOP",
            ),
            (
                "c?z:NAT -> (d!z -> STOP || e!w -> q[x])",
                "c?z:NAT -> (d!z -> STOP || e!w -> q[1])",
            ),
        ] {
            let p = Arc::new(crate::parse_process(src).unwrap());
            let once = close_process_with(&p, &value);
            assert_eq!(once.to_string(), closed, "{src}");
            assert_eq!(close_process(&p, &env).unwrap(), *once, "{src}");
        }
        let p = Arc::new(crate::parse_process("c!1 -> (d?x:NAT -> e!x -> STOP | q[w])").unwrap());
        assert!(Arc::ptr_eq(&close_process_with(&p, &value), &p));
        // Only the branch that reads `y` is rebuilt.
        let p = crate::parse_process("a!0 -> STOP | b!y -> STOP").unwrap();
        let (Process::Choice(a, _), Process::Choice(a2, b2)) =
            (&p, &*close_process_with(&Arc::new(p.clone()), &value))
        else {
            panic!("a choice closes to a choice");
        };
        assert!(Arc::ptr_eq(a, a2));
        assert_eq!(b2.to_string(), "b!2 -> STOP");
    }

    #[test]
    fn subst_under_choice_and_parallel_and_hide() {
        let p = Process::output("a", Expr::var("x"), Process::Stop)
            .or(Process::output("b", Expr::var("x"), Process::Stop))
            .par(Process::call1("r", Expr::var("x")))
            .hide(vec![ChanRef::indexed("h", Expr::var("x"))]);
        let p2 = subst_process_with(&p, "x", &int(1));
        let shown = format!("{p2:?}");
        assert!(!shown.contains("Var(\"x\")"), "left a free x: {shown}");
        assert!(!crate::free_vars_process(&p2).contains("x"));
    }
}
