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

use crate::{ChanRef, Env, EvalError, Expr, Process, SetExpr};

fn expr_has_free(e: &Expr, x: &str) -> bool {
    match e {
        Expr::Const(_) => false,
        Expr::Var(y) => y == x,
        Expr::Bin(_, a, b) => expr_has_free(a, x) || expr_has_free(b, x),
        Expr::Un(_, a) => expr_has_free(a, x),
        Expr::Tuple(es) => es.iter().any(|e| expr_has_free(e, x)),
        Expr::ArrayRef(_, idx) => expr_has_free(idx, x),
    }
}

fn setexpr_has_free(s: &SetExpr, x: &str) -> bool {
    match s {
        SetExpr::Nat | SetExpr::Named(_) => false,
        SetExpr::Range(lo, hi) => expr_has_free(lo, x) || expr_has_free(hi, x),
        SetExpr::Enum(es) => es.iter().any(|e| expr_has_free(e, x)),
    }
}

fn chanref_has_free(c: &ChanRef, x: &str) -> bool {
    c.indices().iter().any(|e| expr_has_free(e, x))
}

/// True when variable `x` occurs free in `p` — exactly when
/// [`subst_process_with`] for `x` could change the term. A read-only
/// traversal, so callers can use it to skip no-op substitutions (the
/// common case when re-closing an already-closed network state).
pub fn process_has_free(p: &Process, x: &str) -> bool {
    match p {
        Process::Stop | Process::Error(_) => false,
        Process::Call { args, .. } => args.iter().any(|e| expr_has_free(e, x)),
        Process::Output { chan, msg, then } => {
            chanref_has_free(chan, x) || expr_has_free(msg, x) || process_has_free(then, x)
        }
        Process::Input {
            chan,
            var,
            set,
            then,
        } => {
            chanref_has_free(chan, x)
                || setexpr_has_free(set, x)
                || (var != x && process_has_free(then, x))
        }
        Process::Choice(a, b) => process_has_free(a, x) || process_has_free(b, x),
        Process::Parallel {
            left,
            right,
            left_alpha,
            right_alpha,
        } => {
            process_has_free(left, x)
                || process_has_free(right, x)
                || left_alpha
                    .as_ref()
                    .is_some_and(|cs| cs.iter().any(|c| chanref_has_free(c, x)))
                || right_alpha
                    .as_ref()
                    .is_some_and(|cs| cs.iter().any(|c| chanref_has_free(c, x)))
        }
        Process::Hide { channels, body } => {
            channels.iter().any(|c| chanref_has_free(c, x)) || process_has_free(body, x)
        }
    }
}

/// Substitutes *every* binding of `env` into `p`, producing the closed
/// instantiation of an array body (or the identity for an empty
/// environment).
///
/// # Errors
///
/// Currently infallible in practice (substituting constants cannot fail),
/// but returns `Result` so the definition-resolution pipeline composes
/// with genuine evaluation errors.
pub fn close_process(p: &Process, env: &Env) -> Result<Process, EvalError> {
    // Substitute only the bindings that actually occur free: re-closing an
    // already-closed state (every rebuild step of the operational
    // semantics) then costs one read-only scan per binding and a single
    // shallow clone, instead of a full rebuild per binding.
    let mut out: Option<Process> = None;
    for (x, v) in env.iter() {
        let cur = out.as_ref().unwrap_or(p);
        if process_has_free(cur, x) {
            out = Some(subst_process_with(cur, x, &Expr::Const(v.clone())));
        }
    }
    Ok(out.unwrap_or_else(|| p.clone()))
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
    use csp_trace::Value;

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

    #[test]
    fn subst_under_choice_and_parallel_and_hide() {
        let p = Process::output("a", Expr::var("x"), Process::Stop)
            .or(Process::output("b", Expr::var("x"), Process::Stop))
            .par(Process::call1("r", Expr::var("x")))
            .hide(vec![ChanRef::indexed("h", Expr::var("x"))]);
        let p2 = subst_process_with(&p, "x", &int(1));
        let shown = format!("{p2:?}");
        assert!(!shown.contains("Var(\"x\")"), "left a free x: {shown}");
        assert!(!process_has_free(&p2, "x"));
    }
}
