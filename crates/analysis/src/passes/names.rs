//! CSP001–CSP003: name resolution — undefined processes, call arity,
//! unbound variables — with spans at the offending syntax node.
//!
//! The checks run on the spanned walk, so each finding points at the
//! call or the first use of the variable rather than at the whole
//! definition.

use std::collections::BTreeSet;

use csp_lang::{
    free_vars_expr, ChanRef, DefSpans, Definition, Definitions, Process, SetExpr, SpanTree,
};

use crate::diagnostic::{Diagnostic, LintCode};

pub(crate) fn check(
    def: &Definition,
    defs: &Definitions,
    host: &BTreeSet<String>,
    spans: Option<&DefSpans>,
    out: &mut Vec<Diagnostic>,
) {
    let mut bound = BTreeSet::new();
    if let Some((param, _)) = def.param() {
        bound.insert(param.to_string());
    }
    let mut reported = BTreeSet::new();
    walk(
        def.name(),
        def.body(),
        spans.map(|s| &s.body),
        defs,
        host,
        &bound,
        &mut reported,
        out,
    );
}

#[allow(clippy::too_many_arguments)]
fn walk(
    in_def: &str,
    p: &Process,
    t: Option<&SpanTree>,
    defs: &Definitions,
    host: &BTreeSet<String>,
    bound: &BTreeSet<String>,
    reported: &mut BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let span = t.map(|t| t.span);

    // Variables mentioned at this node (not in sub-processes).
    let mut local = BTreeSet::new();
    let chan_vars = |c: &ChanRef, acc: &mut BTreeSet<String>| {
        for e in c.indices() {
            acc.extend(free_vars_expr(e));
        }
    };
    let set_vars = |s: &SetExpr, acc: &mut BTreeSet<String>| match s {
        SetExpr::Nat | SetExpr::Named(_) => {}
        SetExpr::Range(lo, hi) => {
            acc.extend(free_vars_expr(lo));
            acc.extend(free_vars_expr(hi));
        }
        SetExpr::Enum(es) => {
            for e in es {
                acc.extend(free_vars_expr(e));
            }
        }
    };

    match p {
        Process::Stop | Process::Error(_) => {}
        Process::Call { name, args } => {
            for e in args {
                local.extend(free_vars_expr(e));
            }
            match defs.get(name) {
                None => out.push(
                    Diagnostic::new(
                        LintCode::UndefinedProcess,
                        format!("call to undefined process `{name}`"),
                    )
                    .in_def(in_def)
                    .at(span),
                ),
                Some(d) if d.arity() != args.len() => out.push(
                    Diagnostic::new(
                        LintCode::ArityMismatch,
                        format!(
                            "`{name}` called with {} subscript(s), defined with {}",
                            args.len(),
                            d.arity()
                        ),
                    )
                    .in_def(in_def)
                    .at(span),
                ),
                Some(_) => {}
            }
        }
        Process::Output { chan, msg, .. } => {
            chan_vars(chan, &mut local);
            local.extend(free_vars_expr(msg));
        }
        Process::Input { chan, set, .. } => {
            chan_vars(chan, &mut local);
            set_vars(set, &mut local);
        }
        Process::Choice(_, _) => {}
        Process::Parallel {
            left_alpha,
            right_alpha,
            ..
        } => {
            for alpha in [left_alpha, right_alpha].into_iter().flatten() {
                for c in alpha {
                    chan_vars(c, &mut local);
                }
            }
        }
        Process::Hide { channels, .. } => {
            for c in channels {
                chan_vars(c, &mut local);
            }
        }
    }

    for v in local {
        if !bound.contains(&v) && !host.contains(&v) && reported.insert(v.clone()) {
            out.push(
                Diagnostic::new(LintCode::UnboundVariable, format!("unbound variable `{v}`"))
                    .in_def(in_def)
                    .at(span),
            );
        }
    }

    // Recurse, extending the bound set through input binders.
    let child = |i: usize| t.and_then(|t| t.child(i));
    match p {
        Process::Stop | Process::Call { .. } | Process::Error(_) => {}
        Process::Output { then, .. } => {
            walk(in_def, then, child(0), defs, host, bound, reported, out);
        }
        Process::Input { var, then, .. } => {
            let mut inner = bound.clone();
            inner.insert(var.clone());
            walk(in_def, then, child(0), defs, host, &inner, reported, out);
        }
        Process::Choice(a, b) => {
            walk(in_def, a, child(0), defs, host, bound, reported, out);
            walk(in_def, b, child(1), defs, host, bound, reported, out);
        }
        Process::Parallel { left, right, .. } => {
            walk(in_def, left, child(0), defs, host, bound, reported, out);
            walk(in_def, right, child(1), defs, host, bound, reported, out);
        }
        Process::Hide { body, .. } => {
            walk(in_def, body, child(0), defs, host, bound, reported, out);
        }
    }
}
