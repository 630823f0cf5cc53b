//! What process text says about the channels it communicates on.
//!
//! The parallel rule (§1.2(7)) needs "the set of channel names occurring
//! in `P`" — including those occurring via process-name references — and
//! §1.2(8) makes every process whose alphabet holds a channel take part
//! in that channel's events. One unfolding walk answers every question
//! about the channels a term uses: [`channel_alphabet`] collects them,
//! [`channel_uses`] adds the directions, and [`operand_alphabet`] is the
//! one rule for a `||` operand's alphabet. [`reaches_network`] says
//! whether a term composes or conceals at all.

use std::collections::{BTreeMap, BTreeSet};

use csp_trace::{Channel, ChannelSet, Value};

use crate::{ChanRef, Definitions, Env, EvalError, Process};

/// How one process text uses a channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelUse {
    /// The text contains an output `c!e`.
    pub written: bool,
    /// The text contains an input `c?x:M`.
    pub read: bool,
}

/// The set of concrete channels a (closed) process expression can ever
/// communicate on — the alphabet `X` of §1.2(7) — obtained by walking the
/// text, resolving channel subscripts in `env`, and unfolding
/// process-name references through `defs` (each `(name, args)` pair is
/// visited once, so recursion terminates). Channels a `chan L; …` inside
/// the text conceals belong to it too.
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
    walk(p, defs, env, &mut BTreeSet::new(), &mut |c, _| {
        out.insert(c);
    })?;
    Ok(out)
}

/// The channels a (closed) process text can communicate on, each with the
/// directions it is used in, unfolding definitions as
/// [`channel_alphabet`] does. A channel the text only conceals is not
/// listed: the declaration alone adds no endpoint.
///
/// # Errors
///
/// Fails like [`channel_alphabet`]: on unresolvable subscripts or
/// undefined process references.
///
/// # Examples
///
/// ```
/// use csp_lang::{channel_uses, parse_definitions, Env};
/// use csp_trace::Channel;
///
/// let defs = parse_definitions("copier = input?x:NAT -> wire!x -> copier").unwrap();
/// let uses = channel_uses(defs.get("copier").unwrap().body(), &defs, &Env::new()).unwrap();
/// assert!(uses[&Channel::simple("wire")].written);
/// assert!(uses[&Channel::simple("input")].read);
/// ```
pub fn channel_uses(
    p: &Process,
    defs: &Definitions,
    env: &Env,
) -> Result<BTreeMap<Channel, ChannelUse>, EvalError> {
    let mut out: BTreeMap<Channel, ChannelUse> = BTreeMap::new();
    walk(
        p,
        defs,
        env,
        &mut BTreeSet::new(),
        &mut |c, how| match how {
            Use::Write => out.entry(c).or_default().written = true,
            Use::Read => out.entry(c).or_default().read = true,
            Use::Hide => {}
        },
    )?;
    Ok(out)
}

/// The alphabet of one `||` operand (§1.2(7)): its declared channel list
/// (`P ||{X | Y} Q`) resolved in `env`, or, when it declares none, the
/// operand's [`channel_alphabet`].
///
/// # Errors
///
/// Fails like [`channel_alphabet`], and on an unresolvable subscript in
/// the declared list.
///
/// # Examples
///
/// ```
/// use csp_lang::{operand_alphabet, parse_process, Definitions, Env, Process};
///
/// let Process::Parallel { left, left_alpha, right, right_alpha } =
///     parse_process("a!1 -> STOP ||{a, b | b} b!2 -> STOP").unwrap()
/// else {
///     unreachable!()
/// };
/// let (defs, env) = (Definitions::new(), Env::new());
/// let x = operand_alphabet(left_alpha.as_deref(), &left, &defs, &env).unwrap();
/// let y = operand_alphabet(right_alpha.as_deref(), &right, &defs, &env).unwrap();
/// assert_eq!((x.len(), y.len()), (2, 1));
/// assert_eq!(operand_alphabet(None, &left, &defs, &env).unwrap().len(), 1);
/// ```
pub fn operand_alphabet(
    declared: Option<&[ChanRef]>,
    operand: &Process,
    defs: &Definitions,
    env: &Env,
) -> Result<ChannelSet, EvalError> {
    match declared {
        Some(refs) => resolve_chanrefs(refs, env),
        None => channel_alphabet(operand, defs, env),
    }
}

/// The concrete channels a list of channel references names in `env`.
///
/// # Errors
///
/// Fails on an unresolvable subscript.
pub fn resolve_chanrefs(refs: &[ChanRef], env: &Env) -> Result<ChannelSet, EvalError> {
    refs.iter().map(|c| c.resolve(env)).collect()
}

/// True when `p` composes processes in parallel or conceals channels,
/// directly or in a definition it calls (followed by name, each once).
///
/// # Examples
///
/// ```
/// use csp_lang::{parse_definitions, reaches_network, Process};
///
/// let defs = parse_definitions(
///     "p = a!1 -> q
///      q = chan b; (b!1 -> STOP || b?x:{1} -> STOP)
///      r = a!1 -> r",
/// ).unwrap();
/// assert!(reaches_network(&defs, &Process::call("p")));
/// assert!(!reaches_network(&defs, &Process::call("r")));
/// ```
pub fn reaches_network(defs: &Definitions, p: &Process) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack: Vec<&Process> = vec![p];
    while let Some(p) = stack.pop() {
        match p {
            Process::Parallel { .. } | Process::Hide { .. } => return true,
            Process::Stop | Process::Error(_) => {}
            Process::Call { name, .. } => {
                if seen.insert(name.as_str()) {
                    if let Some(def) = defs.get(name) {
                        stack.push(def.body());
                    }
                }
            }
            Process::Output { then, .. } | Process::Input { then, .. } => stack.push(then),
            Process::Choice(a, b) => {
                stack.push(a);
                stack.push(b);
            }
        }
    }
    false
}

/// How the walk met a channel.
#[derive(Debug, Clone, Copy)]
enum Use {
    Write,
    Read,
    Hide,
}

/// Reports every channel `p` uses, unfolding each `(name, argument
/// values)` call once. Finite input sets are sampled value by value, so
/// subscripts that depend on the input (`route[x]`) are covered; an
/// unbounded input binds a representative `0` — processes whose channel
/// identity depends on an unbounded input are outside the paper.
fn walk(
    p: &Process,
    defs: &Definitions,
    env: &Env,
    visited: &mut BTreeSet<(String, Vec<Value>)>,
    report: &mut dyn FnMut(Channel, Use),
) -> Result<(), EvalError> {
    match p {
        Process::Stop | Process::Error(_) => Ok(()),
        Process::Call { name, args } => {
            let vals = args
                .iter()
                .map(|e| e.eval(env))
                .collect::<Result<Vec<_>, _>>()?;
            if visited.insert((name.clone(), vals.clone())) {
                let (body, scope) = defs.resolve_call(name, &vals, env)?;
                walk(body, defs, &scope, visited, report)?;
            }
            Ok(())
        }
        Process::Output { chan, then, .. } => {
            report(chan.resolve(env)?, Use::Write);
            walk(then, defs, env, visited, report)
        }
        Process::Input {
            chan,
            var,
            set,
            then,
        } => {
            report(chan.resolve(env)?, Use::Read);
            match set.eval(env)?.enumerate(0, &|_| None) {
                Ok(vals) if !vals.is_empty() => {
                    for v in vals {
                        walk(then, defs, &env.bind(var, v), visited, report)?;
                    }
                    Ok(())
                }
                _ => walk(then, defs, &env.bind(var, Value::nat(0)), visited, report),
            }
        }
        Process::Choice(a, b)
        | Process::Parallel {
            left: a, right: b, ..
        } => {
            walk(a, defs, env, visited, report)?;
            walk(b, defs, env, visited, report)
        }
        Process::Hide { channels, body } => {
            for c in channels {
                report(c.resolve(env)?, Use::Hide);
            }
            walk(body, defs, env, visited, report)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_definitions, parse_process, Definition, Expr, SetExpr};

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

    fn uses(src: &str, defs: &str) -> BTreeMap<Channel, ChannelUse> {
        let p = parse_process(src).unwrap();
        let d = parse_definitions(defs).unwrap();
        channel_uses(&p, &d, &Env::new()).unwrap()
    }

    #[test]
    fn uses_track_directions_through_definitions() {
        let m = uses("copier", "copier = input?x:NAT -> wire!x -> copier");
        assert_eq!(
            m[&Channel::simple("input")],
            ChannelUse {
                written: false,
                read: true
            }
        );
        assert_eq!(
            m[&Channel::simple("wire")],
            ChannelUse {
                written: true,
                read: false
            }
        );
    }

    #[test]
    fn uses_merge_both_directions() {
        // The protocol's sender both writes and reads wire.
        let m = uses(
            "sender",
            "sender = input?y:M -> q[y]
             q[x:M] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x])",
        );
        let w = m[&Channel::simple("wire")];
        assert!(w.written && w.read);
    }

    #[test]
    fn a_concealed_channel_is_in_the_alphabet_but_has_no_use() {
        let p = parse_process("chan a, b; a!1 -> STOP").unwrap();
        let (defs, env) = (Definitions::new(), Env::new());
        assert_eq!(channel_alphabet(&p, &defs, &env).unwrap().len(), 2);
        let m = channel_uses(&p, &defs, &env).unwrap();
        assert_eq!(m.keys().collect::<Vec<_>>(), [&Channel::simple("a")]);
    }

    #[test]
    fn a_declared_alphabet_wins_over_the_inferred_one() {
        let p = parse_process("a!1 -> STOP").unwrap();
        let (defs, env) = (Definitions::new(), Env::new());
        let declared = [ChanRef::simple("b"), ChanRef::indexed("c", Expr::var("i"))];
        let env_i = env.bind("i", Value::nat(2));
        let x = operand_alphabet(Some(&declared), &p, &defs, &env_i).unwrap();
        assert!(x.contains(&Channel::simple("b")) && x.contains(&Channel::indexed("c", 2)));
        assert!(!x.contains(&Channel::simple("a")));
        assert!(operand_alphabet(Some(&declared), &p, &defs, &env).is_err());
        let inferred = operand_alphabet(None, &p, &defs, &env).unwrap();
        assert_eq!(inferred, channel_alphabet(&p, &defs, &env).unwrap());
    }

    #[test]
    fn networks_are_reached_through_calls() {
        let defs = parse_definitions(
            "p = a!1 -> q
             q = chan b; r
             r = b!1 -> r
             s = a?x:{1} -> (s | t)
             t = s",
        )
        .unwrap();
        assert!(reaches_network(&defs, &Process::call("p")));
        assert!(reaches_network(&defs, &Process::call("q")));
        assert!(!reaches_network(&defs, &Process::call("r")));
        // Mutual recursion terminates.
        assert!(!reaches_network(&defs, &Process::call("s")));
        let par = parse_process("a!1 -> STOP || STOP").unwrap();
        assert!(reaches_network(&Definitions::new(), &par));
    }
}
