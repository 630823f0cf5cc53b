//! Free-variable analysis and the names a body calls.
//!
//! Free value-variables are needed by the validity checker and by the
//! proof rules' side conditions ("let `v` be a fresh variable which is
//! not free in `P`, `R` or `c`", rule 6).

use std::collections::BTreeSet;

use crate::{ChanRef, Expr, Process, SetExpr};

/// The free variables of an expression, in sorted order.
///
/// Array references `v[e]` contribute the free variables of `e` and the
/// array name itself (its cells are environment bindings).
///
/// # Examples
///
/// ```
/// use csp_lang::{free_vars_expr, parse_expr};
///
/// let e = parse_expr("3 * i + j").unwrap();
/// let fv = free_vars_expr(&e);
/// assert!(fv.contains("i") && fv.contains("j"));
/// ```
pub fn free_vars_expr(e: &Expr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_expr(e, &mut out);
    out
}

fn collect_expr(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(x) => {
            out.insert(x.clone());
        }
        Expr::Bin(_, a, b) => {
            collect_expr(a, out);
            collect_expr(b, out);
        }
        Expr::Un(_, a) => collect_expr(a, out),
        Expr::Tuple(es) => {
            for e in es {
                collect_expr(e, out);
            }
        }
        Expr::ArrayRef(name, idx) => {
            out.insert(name.clone());
            collect_expr(idx, out);
        }
    }
}

fn collect_setexpr(s: &SetExpr, out: &mut BTreeSet<String>) {
    match s {
        SetExpr::Nat | SetExpr::Named(_) => {}
        SetExpr::Range(lo, hi) => {
            collect_expr(lo, out);
            collect_expr(hi, out);
        }
        SetExpr::Enum(es) => {
            for e in es {
                collect_expr(e, out);
            }
        }
    }
}

fn collect_chanref(c: &ChanRef, out: &mut BTreeSet<String>) {
    for e in c.indices() {
        collect_expr(e, out);
    }
}

/// The free value-variables of a process expression, in sorted order.
/// Input prefixes `c?x:M -> P` bind `x` in `P` (but not in `M` or the
/// channel subscripts).
///
/// # Examples
///
/// ```
/// use csp_lang::{free_vars_process, parse_process};
///
/// // The body of q[x:M]: x is free here, y is bound by the inputs.
/// let p = parse_process(
///     "wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x])",
/// ).unwrap();
/// let fv = free_vars_process(&p);
/// assert!(fv.contains("x"));
/// assert!(!fv.contains("y"));
/// ```
pub fn free_vars_process(p: &Process) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_process(p, &mut out);
    out
}

fn collect_process(p: &Process, out: &mut BTreeSet<String>) {
    match p {
        Process::Stop | Process::Error(_) => {}
        Process::Call { args, .. } => {
            for e in args {
                collect_expr(e, out);
            }
        }
        Process::Output { chan, msg, then } => {
            collect_chanref(chan, out);
            collect_expr(msg, out);
            collect_process(then, out);
        }
        Process::Input {
            chan,
            var,
            set,
            then,
        } => {
            collect_chanref(chan, out);
            collect_setexpr(set, out);
            let mut inner = BTreeSet::new();
            collect_process(then, &mut inner);
            inner.remove(var);
            out.extend(inner);
        }
        Process::Choice(a, b) => {
            collect_process(a, out);
            collect_process(b, out);
        }
        Process::Parallel {
            left,
            right,
            left_alpha,
            right_alpha,
        } => {
            collect_process(left, out);
            collect_process(right, out);
            for alpha in [left_alpha, right_alpha].into_iter().flatten() {
                for c in alpha {
                    collect_chanref(c, out);
                }
            }
        }
        Process::Hide { channels, body } => {
            for c in channels {
                collect_chanref(c, out);
            }
            collect_process(body, out);
        }
    }
}

/// The process names a body calls directly — its `Call` nodes, without
/// unfolding them — in sorted order.
///
/// # Examples
///
/// ```
/// use csp_lang::{called_names, parse_process};
///
/// let p = parse_process("wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x]").unwrap();
/// let called: Vec<String> = called_names(&p).into_iter().collect();
/// assert_eq!(called, ["q", "sender"]);
/// ```
pub fn called_names(p: &Process) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_calls(p, &mut out);
    out
}

fn collect_calls(p: &Process, out: &mut BTreeSet<String>) {
    match p {
        Process::Stop | Process::Error(_) => {}
        Process::Call { name, .. } => {
            out.insert(name.clone());
        }
        Process::Output { then, .. } | Process::Input { then, .. } => collect_calls(then, out),
        Process::Choice(a, b) => {
            collect_calls(a, out);
            collect_calls(b, out);
        }
        Process::Parallel { left, right, .. } => {
            collect_calls(left, out);
            collect_calls(right, out);
        }
        Process::Hide { body, .. } => collect_calls(body, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_of_expr() {
        let e = Expr::mul(Expr::int(3), Expr::var("i")).add(Expr::var("j"));
        let fv = free_vars_expr(&e);
        assert_eq!(fv.len(), 2);
        assert!(fv.contains("i"));
    }

    #[test]
    fn array_ref_contributes_array_name() {
        let e = Expr::ArrayRef("v".into(), Box::new(Expr::var("i")));
        let fv = free_vars_expr(&e);
        assert!(fv.contains("v"));
        assert!(fv.contains("i"));
    }

    #[test]
    fn input_binds_its_variable() {
        let p = Process::input(
            "c",
            "x",
            SetExpr::Nat,
            Process::output("d", Expr::var("x").add(Expr::var("y")), Process::Stop),
        );
        let fv = free_vars_process(&p);
        assert!(!fv.contains("x"));
        assert!(fv.contains("y"));
    }

    #[test]
    fn binder_does_not_capture_set_or_subscript() {
        // c[x]?x:{0..x} — the outer x's in the subscript and the set are
        // free even though the payload variable is also called x.
        let p = Process::Input {
            chan: ChanRef::indexed("c", Expr::var("x")),
            var: "x".into(),
            set: SetExpr::Range(Box::new(Expr::int(0)), Box::new(Expr::var("x"))),
            then: std::sync::Arc::new(Process::Stop),
        };
        assert!(free_vars_process(&p).contains("x"));
    }
}
