//! CSP005, CSP006, CSP010: checks at parallel compositions.
//!
//! * **CSP005** — when `P ||{X | Y} Q` declares operand alphabets, each
//!   operand must communicate only within its declared set: the premise
//!   of the parallelism rule (§2.1 rule 7).
//! * **CSP006** — §1.2(7) insists each channel connects at most two
//!   processes, with a well-defined direction at each end. Flagged: a
//!   channel shared by more than two components of a composition, and a
//!   channel whose two endpoints are both writers or both readers.
//! * **CSP010** — §4's caveat (`STOP | P = P`): the trace model cannot
//!   observe deadlock, so a composition whose initial offers can never
//!   intersect still satisfies every `sat` while doing nothing. Purely
//!   syntactic and deliberately conservative: it only fires when both
//!   operands' first offers are statically known and provably unable to
//!   meet.

use std::collections::BTreeMap;

use csp_lang::{
    channel_alphabet, channel_uses, operand_alphabet, ChanRef, ChannelUse, DefSpans, Definition,
    Definitions, Env, Process, Span, SpanTree,
};
use csp_trace::{Channel, ChannelSet};

use crate::diagnostic::{Diagnostic, LintCode};
use crate::walk::initial_offers;

pub(crate) fn check(
    def: &Definition,
    defs: &Definitions,
    env: &Env,
    spans: Option<&DefSpans>,
    out: &mut Vec<Diagnostic>,
) {
    walk(
        def.name(),
        def.body(),
        spans.map(|s| &s.body),
        defs,
        env,
        false,
        out,
    );
}

fn walk(
    in_def: &str,
    p: &Process,
    t: Option<&SpanTree>,
    defs: &Definitions,
    env: &Env,
    parent_is_parallel: bool,
    out: &mut Vec<Diagnostic>,
) {
    if let Process::Parallel {
        left,
        right,
        left_alpha,
        right_alpha,
    } = p
    {
        let span = t.map(|t| t.span);
        check_alphabet_coverage(in_def, left, left_alpha, "left", defs, env, span, out);
        check_alphabet_coverage(in_def, right, right_alpha, "right", defs, env, span, out);
        if !parent_is_parallel {
            check_direction_races(in_def, p, defs, env, span, out);
        }
        check_offer_mismatch(in_def, p, defs, env, span, out);
    }

    let child = |i: usize| t.and_then(|t| t.child(i));
    match p {
        Process::Stop | Process::Call { .. } | Process::Error(_) => {}
        Process::Output { then, .. } | Process::Input { then, .. } => {
            walk(in_def, then, child(0), defs, env, false, out);
        }
        Process::Choice(a, b) => {
            walk(in_def, a, child(0), defs, env, false, out);
            walk(in_def, b, child(1), defs, env, false, out);
        }
        Process::Parallel { left, right, .. } => {
            walk(in_def, left, child(0), defs, env, true, out);
            walk(in_def, right, child(1), defs, env, true, out);
        }
        Process::Hide { body, .. } => {
            walk(in_def, body, child(0), defs, env, false, out);
        }
    }
}

/// CSP005: inferred alphabet of an operand ⊆ its declared alphabet.
#[allow(clippy::too_many_arguments)]
fn check_alphabet_coverage(
    in_def: &str,
    operand: &Process,
    declared: &Option<Vec<ChanRef>>,
    side: &str,
    defs: &Definitions,
    env: &Env,
    span: Option<Span>,
    out: &mut Vec<Diagnostic>,
) {
    let Some(declared) = declared else { return };
    // An unresolvable subscript or undefined call is reported by
    // CSP001/CSP003; don't pile a second finding on top.
    let Ok(inferred) = channel_alphabet(operand, defs, env) else {
        return;
    };
    let mut declared_set = ChannelSet::new();
    for c in declared {
        if let Ok(ch) = c.resolve(env) {
            declared_set.insert(ch);
        }
    }
    for c in inferred.iter() {
        if !declared_set.contains(c) {
            out.push(
                Diagnostic::new(
                    LintCode::AlphabetCoverage,
                    format!("{side} operand communicates on `{c}` outside its declared alphabet"),
                )
                .in_def(in_def)
                .at(span),
            );
        }
    }
}

/// CSP006 at a maximal parallel node: flatten the composition into its
/// components and inspect how each shared channel is used.
fn check_direction_races(
    in_def: &str,
    p: &Process,
    defs: &Definitions,
    env: &Env,
    span: Option<Span>,
    out: &mut Vec<Diagnostic>,
) {
    let mut components = Vec::new();
    flatten(p, &mut components);
    let mut uses: Vec<BTreeMap<Channel, ChannelUse>> = Vec::with_capacity(components.len());
    for c in &components {
        match channel_uses(c, defs, env) {
            Ok(u) => uses.push(u),
            // Unresolvable component: name-resolution passes own it.
            Err(_) => return,
        }
    }
    let mut by_chan: BTreeMap<&Channel, Vec<ChannelUse>> = BTreeMap::new();
    for u in &uses {
        for (chan, us) in u {
            by_chan.entry(chan).or_default().push(*us);
        }
    }
    for (chan, endpoints) in by_chan {
        match endpoints.as_slice() {
            [a, b] => {
                let race = if a.written && b.written && !a.read && !b.read {
                    Some("two writers")
                } else if a.read && b.read && !a.written && !b.written {
                    Some("two readers")
                } else {
                    None
                };
                if let Some(kind) = race {
                    out.push(
                        Diagnostic::new(
                            LintCode::DirectionRace,
                            format!(
                                "channel `{chan}` has {kind} and no opposite endpoint; \
                                 its history is ill-defined"
                            ),
                        )
                        .in_def(in_def)
                        .at(span),
                    );
                }
            }
            many if many.len() > 2 => {
                out.push(
                    Diagnostic::new(
                        LintCode::DirectionRace,
                        format!(
                            "channel `{chan}` is shared by {} components; \
                             §1.2(7) allows a channel to connect at most two",
                            many.len()
                        ),
                    )
                    .in_def(in_def)
                    .at(span),
                );
            }
            _ => {}
        }
    }
}

/// The components of a nested parallel composition, left to right.
fn flatten<'a>(p: &'a Process, out: &mut Vec<&'a Process>) {
    match p {
        Process::Parallel { left, right, .. } => {
            flatten(left, out);
            flatten(right, out);
        }
        other => out.push(other),
    }
}

/// CSP010 at the composition `p`: both operands' first offers are known
/// and no initial event is possible — no offer outside the shared
/// alphabet `X ∩ Y`, no compatible pair inside it. `X` and `Y` are the
/// operands' alphabets as §1.2(7) reads them: declared when listed,
/// otherwise inferred.
fn check_offer_mismatch(
    in_def: &str,
    p: &Process,
    defs: &Definitions,
    env: &Env,
    span: Option<Span>,
    out: &mut Vec<Diagnostic>,
) {
    let Process::Parallel {
        left,
        right,
        left_alpha,
        right_alpha,
    } = p
    else {
        return;
    };
    let (Some(lo), Some(ro)) = (
        initial_offers(left, defs, env),
        initial_offers(right, defs, env),
    ) else {
        return;
    };
    if lo.is_empty() && ro.is_empty() {
        // `STOP || STOP` is visibly STOP; nothing subtle to warn about.
        return;
    }
    let (Ok(la), Ok(ra)) = (
        operand_alphabet(left_alpha.as_deref(), left, defs, env),
        operand_alphabet(right_alpha.as_deref(), right, defs, env),
    ) else {
        return;
    };
    let shared = la.intersection(&ra);
    let moves_alone = lo.iter().chain(&ro).any(|o| !shared.contains(&o.chan));
    let can_sync = lo.iter().any(|l| ro.iter().any(|r| l.compatible(r)));
    if !(moves_alone || can_sync) {
        out.push(
            Diagnostic::new(
                LintCode::OfferMismatch,
                "the composition's initial offers cannot intersect: it deadlocks \
                 immediately, yet its (empty-trace) model satisfies every `sat`"
                    .to_string(),
            )
            .in_def(in_def)
            .at(span),
        );
    }
}
