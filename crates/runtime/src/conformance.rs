//! Conformance checking: a recorded run must be a behaviour the
//! semantics admits, and must maintain every proven invariant at every
//! moment.
//!
//! This closes the loop of the reproduction: the *proof system* certifies
//! `P sat R`; the *model* defines `⟦P⟧`; the *runtime* produces actual
//! traces; conformance shows the three agree on real executions.

use csp_assert::{Assertion, CompiledAssertion, FuncTable};
use csp_lang::{Definitions, Env, EvalError, Process};
use csp_semantics::Universe;
use csp_trace::{History, Trace};

use crate::monitor::{replay_budget, Monitor, MonitorSpec};

/// The verdict of a conformance check.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The recorded trace is a member of the semantic trace set.
    pub trace_admitted: bool,
    /// Index of the first event the semantics could not match, if any.
    pub diverged_at: Option<usize>,
    /// For each checked invariant: its text and the index of the first
    /// prefix violating it (`None` = held throughout).
    pub invariants: Vec<(String, Option<usize>)>,
}

impl ConformanceReport {
    /// True when the trace is admitted and every invariant held.
    pub fn conforms(&self) -> bool {
        self.trace_admitted && self.invariants.iter().all(|(_, v)| v.is_none())
    }
}

/// Replays a recorded *visible* trace against the operational semantics
/// of `process` and checks the given invariants at every prefix.
/// `committed` is the number of events the run committed, concealed
/// ones included (`RunResult::full`'s length).
///
/// The replay is a membership-only [`Monitor`] fed the finished trace,
/// so a finished run and a live run are judged by the same frontier
/// step. Hidden communications may interleave anywhere, and the trace
/// does not say where: each visible event is matched after up to
/// [`replay_budget`]`(committed)` concealed steps, since no gap of the
/// run held more concealed events than the run committed.
///
/// # Errors
///
/// Propagates evaluation failures from the semantics or the assertions.
pub fn check_conformance(
    process: &Process,
    env: &Env,
    defs: &Definitions,
    universe: &Universe,
    visible: &Trace,
    committed: usize,
    invariants: &[Assertion],
) -> Result<ConformanceReport, EvalError> {
    let mut monitor = Monitor::new(process, env, defs, universe, MonitorSpec::new());
    let budget = replay_budget(committed);
    let mut diverged_at = None;
    for (i, event) in visible.iter().enumerate() {
        if !monitor.advance(event, budget)? {
            diverged_at = Some(i);
            break;
        }
    }

    // Invariants at every prefix (including the complete trace and <>),
    // on one `ch(s)` that grows by the next event per prefix, each
    // compiled once. Each invariant reports its first violation whether
    // or not the trace was admitted, which a latching monitor cannot.
    let funcs = FuncTable::with_builtins();
    let mut inv_results = Vec::with_capacity(invariants.len());
    for inv in invariants {
        let mut compiled = CompiledAssertion::new(inv, env, &funcs, universe);
        let mut first_violation = None;
        let mut history = History::empty();
        for i in 0..=visible.len() {
            if i > 0 {
                let e = visible.events()[i - 1];
                history.push(e.channel(), e.value().clone());
            }
            let ok = compiled.holds(&history).map_err(|e| match e {
                csp_assert::AssertError::Eval(e) => e,
                csp_assert::AssertError::UnknownFunction(n) => {
                    EvalError::UnboundVariable(format!("function {n}"))
                }
            })?;
            if !ok {
                first_violation = Some(i);
                break;
            }
        }
        inv_results.push((inv.to_string(), first_violation));
    }

    Ok(ConformanceReport {
        trace_admitted: diverged_at.is_none(),
        diverged_at,
        invariants: inv_results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, RunOptions, Scheduler};
    use csp_assert::{parse_assertion, ChannelInfo};
    use csp_lang::examples;
    use csp_trace::Value;

    fn info() -> ChannelInfo {
        ChannelInfo::new()
            .with_channels(["input", "wire", "output", "in", "out"])
            .with_arrays(["row", "col"])
            .with_funcs(["f"])
    }

    #[test]
    fn recorded_pipeline_run_conforms() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 24,
                    scheduler: Scheduler::seeded(5),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let inv = parse_assertion("output <= input", &info()).unwrap();
        let report = check_conformance(
            &Process::call("pipeline"),
            &Env::new(),
            &defs,
            &uni,
            &res.visible,
            res.full.len(),
            &[inv],
        )
        .unwrap();
        assert!(report.conforms(), "{report:?}");
    }

    #[test]
    fn protocol_run_conforms_with_proven_invariant() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "protocol",
                &Env::new(),
                RunOptions {
                    max_steps: 30,
                    scheduler: Scheduler::seeded(8),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let inv = parse_assertion("output <= input", &info()).unwrap();
        let report = check_conformance(
            &Process::call("protocol"),
            &Env::new(),
            &defs,
            &uni,
            &res.visible,
            res.full.len(),
            &[inv],
        )
        .unwrap();
        assert!(report.conforms(), "{report:?}");
    }

    #[test]
    fn corrupted_trace_is_rejected() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        // A trace the pipeline cannot produce: output before any input.
        let bogus = Trace::parse_like([("output", Value::nat(1))]);
        let report = check_conformance(
            &Process::call("pipeline"),
            &Env::new(),
            &defs,
            &uni,
            &bogus,
            bogus.len(),
            &[],
        )
        .unwrap();
        assert!(!report.trace_admitted);
        assert_eq!(report.diverged_at, Some(0));
    }

    #[test]
    fn invariant_violation_is_located() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        // Check a false invariant against a legitimate trace.
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 16,
                    scheduler: Scheduler::seeded(1),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let false_inv = parse_assertion("#input <= 0", &info()).unwrap();
        let report = check_conformance(
            &Process::call("pipeline"),
            &Env::new(),
            &defs,
            &uni,
            &res.visible,
            res.full.len(),
            &[false_inv],
        )
        .unwrap();
        assert!(report.trace_admitted);
        let (_, violation) = &report.invariants[0];
        assert!(violation.is_some());
        assert!(!report.conforms());
    }
}
