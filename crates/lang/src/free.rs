//! Free-variable and channel-alphabet analysis.
//!
//! The parallel rule (§1.2(7)) needs "the set of channel names occurring
//! in `P`" — including those occurring via process-name references, so
//! [`channel_alphabet`] unfolds definitions (with a visited-set to
//! terminate on recursion). Free value-variables are needed by the
//! validity checker and by the proof rules' side conditions ("let `v` be
//! a fresh variable which is not free in `P`, `R` or `c`", rule 6).

use std::collections::BTreeSet;

use csp_trace::{ChannelSet, Value};

use crate::{ChanRef, Definitions, Env, EvalError, Expr, Process, SetExpr};

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

/// The set of concrete channels a (closed) process expression can ever
/// communicate on — the alphabet `X` of §1.2(7) — obtained by walking the
/// text, resolving channel subscripts in `env`, and unfolding
/// process-name references through `defs` (each `(name, args)` pair is
/// visited once, so recursion terminates).
///
/// # Errors
///
/// Fails if a channel subscript or call argument contains a variable not
/// bound in `env`, or a referenced process is undefined.
///
/// # Examples
///
/// ```
/// use csp_lang::{channel_alphabet, parse_definitions, Env};
/// use csp_trace::Channel;
///
/// let defs = parse_definitions(
///     "copier = input?x:NAT -> wire!x -> copier",
/// ).unwrap();
/// let alpha = channel_alphabet(defs.get("copier").unwrap().body(), &defs, &Env::new()).unwrap();
/// assert!(alpha.contains(&Channel::simple("input")));
/// assert!(alpha.contains(&Channel::simple("wire")));
/// assert_eq!(alpha.len(), 2);
/// ```
pub fn channel_alphabet(
    p: &Process,
    defs: &Definitions,
    env: &Env,
) -> Result<ChannelSet, EvalError> {
    let mut out = ChannelSet::new();
    let mut visited = BTreeSet::new();
    walk_alphabet(p, defs, env, &mut out, &mut visited)?;
    Ok(out)
}

/// The subset of a process's alphabet it can ever *write* on — the
/// channels appearing in output position (`c!e`). Together with
/// [`channel_alphabet`] this recovers the direction of a committed
/// communication: among the components synchronizing on a channel, the
/// one with the channel in its output set is the sender, the others are
/// readers. Same traversal rules (and error cases) as
/// [`channel_alphabet`].
///
/// # Errors
///
/// Fails if a channel subscript or call argument contains a variable not
/// bound in `env`, or a referenced process is undefined.
///
/// # Examples
///
/// ```
/// use csp_lang::{output_channels, parse_definitions, Env};
/// use csp_trace::Channel;
///
/// let defs = parse_definitions(
///     "copier = input?x:NAT -> wire!x -> copier",
/// ).unwrap();
/// let w = output_channels(defs.get("copier").unwrap().body(), &defs, &Env::new()).unwrap();
/// assert!(w.contains(&Channel::simple("wire")));
/// assert!(!w.contains(&Channel::simple("input")));
/// ```
pub fn output_channels(
    p: &Process,
    defs: &Definitions,
    env: &Env,
) -> Result<ChannelSet, EvalError> {
    let mut out = ChannelSet::new();
    let mut visited = BTreeSet::new();
    walk_outputs(p, defs, env, &mut out, &mut visited)?;
    Ok(out)
}

fn walk_outputs(
    p: &Process,
    defs: &Definitions,
    env: &Env,
    out: &mut ChannelSet,
    visited: &mut BTreeSet<(String, Vec<Value>)>,
) -> Result<(), EvalError> {
    match p {
        Process::Stop | Process::Error(_) => Ok(()),
        Process::Call { name, args } => {
            let vals = args
                .iter()
                .map(|e| e.eval(env))
                .collect::<Result<Vec<_>, _>>()?;
            let key = (name.clone(), vals.clone());
            if visited.insert(key) {
                let (body, scope) = defs.resolve_call(name, &vals, env)?;
                walk_outputs(body, defs, &scope, out, visited)?;
            }
            Ok(())
        }
        Process::Output { chan, then, .. } => {
            out.insert(chan.resolve(env)?);
            walk_outputs(then, defs, env, out, visited)
        }
        Process::Input {
            chan: _,
            var,
            set,
            then,
        } => {
            let m = set.eval(env)?;
            match m.enumerate(0, &|_| None) {
                Ok(vals) if !vals.is_empty() => {
                    for v in vals {
                        let scope = env.bind(var, v);
                        walk_outputs(then, defs, &scope, out, visited)?;
                    }
                    Ok(())
                }
                _ => {
                    let scope = env.bind(var, Value::nat(0));
                    walk_outputs(then, defs, &scope, out, visited)
                }
            }
        }
        Process::Choice(a, b) => {
            walk_outputs(a, defs, env, out, visited)?;
            walk_outputs(b, defs, env, out, visited)
        }
        Process::Parallel { left, right, .. } => {
            walk_outputs(left, defs, env, out, visited)?;
            walk_outputs(right, defs, env, out, visited)
        }
        Process::Hide { channels: _, body } => walk_outputs(body, defs, env, out, visited),
    }
}

fn walk_alphabet(
    p: &Process,
    defs: &Definitions,
    env: &Env,
    out: &mut ChannelSet,
    visited: &mut BTreeSet<(String, Vec<Value>)>,
) -> Result<(), EvalError> {
    match p {
        Process::Stop | Process::Error(_) => Ok(()),
        Process::Call { name, args } => {
            let vals = args
                .iter()
                .map(|e| e.eval(env))
                .collect::<Result<Vec<_>, _>>()?;
            let key = (name.clone(), vals.clone());
            if visited.insert(key) {
                let (body, scope) = defs.resolve_call(name, &vals, env)?;
                walk_alphabet(body, defs, &scope, out, visited)?;
            }
            Ok(())
        }
        Process::Output { chan, then, .. } => {
            out.insert(chan.resolve(env)?);
            walk_alphabet(then, defs, env, out, visited)
        }
        Process::Input {
            chan,
            var,
            set,
            then,
        } => {
            out.insert(chan.resolve(env)?);
            // The bound variable may appear in later channel subscripts
            // (e.g. route[x]); sample the set's members when finite so the
            // alphabet covers every instantiation.
            let m = set.eval(env)?;
            match m.enumerate(0, &|_| None) {
                Ok(vals) if !vals.is_empty() => {
                    for v in vals {
                        let scope = env.bind(var, v);
                        walk_alphabet(then, defs, &scope, out, visited)?;
                    }
                    Ok(())
                }
                _ => {
                    // NAT / abstract set: bind a representative 0 so that
                    // subscripts like col[x] resolve; processes whose channel
                    // *identity* depends on an unbounded input are outside
                    // the paper's examples.
                    let scope = env.bind(var, Value::nat(0));
                    walk_alphabet(then, defs, &scope, out, visited)
                }
            }
        }
        Process::Choice(a, b) => {
            walk_alphabet(a, defs, env, out, visited)?;
            walk_alphabet(b, defs, env, out, visited)
        }
        Process::Parallel { left, right, .. } => {
            walk_alphabet(left, defs, env, out, visited)?;
            walk_alphabet(right, defs, env, out, visited)
        }
        Process::Hide { channels, body } => {
            for c in channels {
                out.insert(c.resolve(env)?);
            }
            walk_alphabet(body, defs, env, out, visited)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Definition, Expr};

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

    #[test]
    fn alphabet_of_recursive_copier_terminates() {
        let mut defs = Definitions::new();
        defs.define(Definition::plain(
            "copier",
            Process::input(
                "input",
                "x",
                SetExpr::Nat,
                Process::output("wire", Expr::var("x"), Process::call("copier")),
            ),
        ));
        let alpha = channel_alphabet(&Process::call("copier"), &defs, &Env::new()).unwrap();
        assert_eq!(alpha.len(), 2);
    }

    #[test]
    fn alphabet_resolves_subscripts_per_instance() {
        // mult[i] = row[i]?x -> col[i-1]?y -> col[i]!(x+y) -> mult[i]
        let body = Process::Input {
            chan: ChanRef::indexed("row", Expr::var("i")),
            var: "x".into(),
            set: SetExpr::Nat,
            then: std::sync::Arc::new(Process::Input {
                chan: ChanRef::indexed("col", Expr::var("i").sub(Expr::int(1))),
                var: "y".into(),
                set: SetExpr::Nat,
                then: std::sync::Arc::new(Process::Output {
                    chan: ChanRef::indexed("col", Expr::var("i")),
                    msg: Expr::var("x").add(Expr::var("y")),
                    then: std::sync::Arc::new(Process::call1("mult", Expr::var("i"))),
                }),
            }),
        };
        let mut defs = Definitions::new();
        defs.define(Definition::array("mult", "i", SetExpr::range(1, 3), body));
        let alpha =
            channel_alphabet(&Process::call1("mult", Expr::int(2)), &defs, &Env::new()).unwrap();
        use csp_trace::Channel;
        assert!(alpha.contains(&Channel::indexed("row", 2)));
        assert!(alpha.contains(&Channel::indexed("col", 1)));
        assert!(alpha.contains(&Channel::indexed("col", 2)));
        assert_eq!(alpha.len(), 3);
    }

    #[test]
    fn alphabet_includes_hidden_channels() {
        let p = Process::output("a", Expr::int(1), Process::Stop).hide(vec![ChanRef::simple("a")]);
        let alpha = channel_alphabet(&p, &Definitions::new(), &Env::new()).unwrap();
        assert_eq!(alpha.len(), 1);
    }

    #[test]
    fn alphabet_error_on_undefined_call() {
        let p = Process::call("ghost");
        assert!(channel_alphabet(&p, &Definitions::new(), &Env::new()).is_err());
    }
}
