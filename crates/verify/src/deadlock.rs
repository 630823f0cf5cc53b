//! Deadlock reachability analysis — going where the paper's theory
//! cannot.
//!
//! §4: the proof method "cannot prove (or even express) the absence of
//! deadlock", because the prefix-closure model identifies `STOP | P`
//! with `P`. The *operational* semantics, however, distinguishes
//! configurations: a state with no enabled transition is a deadlock, and
//! bounded search finds the traces that reach one. This module provides
//! that search — the analysis the paper names as future work
//! ("It is hoped that the adoption of a more realistic model of
//! non-determinism will permit … total correctness").
//!
//! Two kinds of dead states are distinguished: *termination-like* (every
//! component is `STOP` syntactically — the network ran out of program)
//! and *genuine deadlock* (some component still has program text but no
//! event can be agreed).

use std::collections::{BTreeSet, VecDeque};

use csp_lang::{Definitions, Env, EvalError, Process};
use csp_semantics::{CompiledLts, CompiledStep, Config, StateSet, Universe};
use csp_trace::Trace;

/// A reachable dead configuration.
#[derive(Debug, Clone)]
pub struct Deadlock {
    /// A visible trace reaching the dead configuration.
    pub trace: Trace,
    /// Rendering of the stuck process term.
    pub state: String,
    /// True when the stuck term is syntactically all-`STOP` — i.e. the
    /// network genuinely finished rather than jammed.
    pub terminated: bool,
}

/// Result of a bounded deadlock search.
#[derive(Debug, Clone, Default)]
pub struct DeadlockReport {
    /// Dead configurations found, shortest witness first (at most one
    /// per distinct configuration).
    pub deadlocks: Vec<Deadlock>,
    /// Number of distinct configurations explored. The search expands
    /// every configuration reachable within the depth bound, so an empty
    /// `deadlocks` is a bounded guarantee.
    pub states_explored: usize,
}

impl DeadlockReport {
    /// True when no *genuine* deadlock (non-terminated dead state) was
    /// found.
    pub fn deadlock_free(&self) -> bool {
        self.deadlocks.iter().all(|d| d.terminated)
    }
}

/// Searches for reachable dead configurations of `process` up to `depth`
/// visible events (with an internal-step budget of `3 × depth` along any
/// path, matching the semantics' hide handling).
///
/// The search is breadth-first over a [`CompiledLts`] arena, so
/// witnesses come shortest first; the seen set is a [`StateSet`] bitset
/// and every re-visit is a row lookup instead of a re-step.
///
/// # Errors
///
/// Propagates evaluation failures from the transition relation.
pub fn find_deadlocks(
    defs: &Definitions,
    universe: &Universe,
    process: &Process,
    env: &Env,
    depth: usize,
) -> Result<DeadlockReport, EvalError> {
    let mut lts = CompiledLts::new(defs, universe);
    let mut report = DeadlockReport::default();
    let mut seen = StateSet::new();
    let mut dead_seen: BTreeSet<String> = BTreeSet::new();
    let start = lts.intern(Config::new(process.clone(), env.clone()));
    let mut frontier = VecDeque::from([(start, Trace::empty(), 0usize)]);
    seen.insert(start);

    while let Some((id, trace, internal_used)) = frontier.pop_front() {
        report.states_explored += 1;
        let n = lts.steps_of(id)?.len();
        if n == 0 {
            let state = lts.state(id).process().to_string();
            if dead_seen.insert(state.clone()) {
                report.deadlocks.push(Deadlock {
                    trace: trace.clone(),
                    terminated: all_stop(lts.state(id).process()),
                    state,
                });
            }
            continue;
        }
        for k in 0..n {
            match lts.steps_of(id)?[k].clone() {
                CompiledStep::Visible(e, next) => {
                    if trace.len() < depth && seen.insert(next) {
                        frontier.push_back((next, trace.snoc(e), internal_used));
                    }
                }
                CompiledStep::Internal(next) => {
                    if internal_used < depth * 3 && seen.insert(next) {
                        frontier.push_back((next, trace.clone(), internal_used + 1));
                    }
                }
            }
        }
    }
    Ok(report)
}

/// True when the term is `STOP` up to network structure.
fn all_stop(p: &Process) -> bool {
    match p {
        Process::Stop => true,
        Process::Parallel { left, right, .. } => all_stop(left) && all_stop(right),
        Process::Hide { body, .. } => all_stop(body),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_lang::{examples, parse_definitions, parse_process};

    #[test]
    fn pipeline_is_deadlock_free() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let report =
            find_deadlocks(&defs, &uni, &Process::call("pipeline"), &Env::new(), 4).unwrap();
        assert!(report.deadlocks.is_empty());
        assert!(report.deadlock_free());
        assert!(report.states_explored > 1);
    }

    #[test]
    fn mismatched_sync_values_deadlock_immediately() {
        let defs = parse_definitions(
            "left = w!1 -> STOP
             right = w?x:{2} -> STOP
             net = left || right",
        )
        .unwrap();
        let uni = Universe::new(3);
        let report = find_deadlocks(&defs, &uni, &Process::call("net"), &Env::new(), 3).unwrap();
        assert_eq!(report.deadlocks.len(), 1);
        let d = &report.deadlocks[0];
        assert!(d.trace.is_empty(), "witness should be <>: {}", d.trace);
        assert!(!d.terminated, "a jam, not termination");
        assert!(!report.deadlock_free());
    }

    #[test]
    fn termination_is_distinguished_from_deadlock() {
        let defs = parse_definitions("once = a!1 -> b!2 -> STOP").unwrap();
        let uni = Universe::new(2);
        let report = find_deadlocks(&defs, &uni, &Process::call("once"), &Env::new(), 4).unwrap();
        assert_eq!(report.deadlocks.len(), 1);
        assert!(report.deadlocks[0].terminated);
        assert!(report.deadlock_free());
        assert_eq!(report.deadlocks[0].trace.len(), 2);
    }

    #[test]
    fn section4_blind_spot_demonstrated() {
        // STOP | P and P denote the SAME trace set (§4) — but an
        // implementation that commits to the STOP branch deadlocks. Our
        // LTS gives `|` the union (initial-choice) semantics, matching
        // the model: the choice term itself therefore shows no deadlock…
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let choice = parse_process("STOP | copier").unwrap();
        let report = find_deadlocks(&defs, &uni, &choice, &Env::new(), 3).unwrap();
        assert!(report.deadlocks.is_empty());
        // …which is precisely the §4 complaint: neither the model nor
        // any tool built on it can see the STOP branch. The defect is a
        // property of the semantics, faithfully reproduced.
    }

    #[test]
    fn hidden_loop_networks_explore_within_budget() {
        // chan a; loop — only internal behaviour; search terminates and
        // finds no dead state (the loop always has its internal step).
        let defs = parse_definitions("lp = a!0 -> lp").unwrap();
        let uni = Universe::new(1);
        let hidden = parse_process("chan a; lp").unwrap();
        let report = find_deadlocks(&defs, &uni, &hidden, &Env::new(), 2).unwrap();
        assert!(report.deadlocks.is_empty());
    }

    #[test]
    fn partial_deadlock_after_progress() {
        // A network that works once and then jams: the second w value
        // mismatches.
        let defs = parse_definitions(
            "left = w!1 -> w!2 -> STOP
             right = w?x:{1} -> w?y:{9} -> STOP
             net = left || right",
        )
        .unwrap();
        let uni = Universe::new(9);
        let report = find_deadlocks(&defs, &uni, &Process::call("net"), &Env::new(), 4).unwrap();
        assert_eq!(report.deadlocks.len(), 1);
        let d = &report.deadlocks[0];
        assert_eq!(d.trace.len(), 1, "jams after the first exchange");
        assert!(!d.terminated);
    }
}
