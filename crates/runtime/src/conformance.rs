//! Conformance checking: a recorded run must be a behaviour the
//! semantics admits, and must maintain every proven invariant at every
//! moment.
//!
//! This closes the loop of the reproduction: the *proof system* certifies
//! `P sat R`; the *model* defines `⟦P⟧`; the *runtime* produces actual
//! traces; conformance shows the three agree on real executions.

use csp_assert::{Assertion, EvalCtx, FuncTable};
use csp_lang::{Definitions, Env, EvalError, Process};
use csp_semantics::{CompiledLts, CompiledStep, Config, Engine, Lts, StateId, Step, Universe};
use csp_trace::{History, Trace};

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
///
/// The replay tracks the set of configurations the network could be in
/// (hidden communications may interleave anywhere, so each visible event
/// is matched after up to `internal_budget` concealed steps).
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
    invariants: &[Assertion],
    internal_budget: usize,
) -> Result<ConformanceReport, EvalError> {
    check_conformance_with_engine(
        process,
        env,
        defs,
        universe,
        visible,
        invariants,
        internal_budget,
        Engine::Auto,
    )
}

/// [`check_conformance`] with an explicit backend choice. The engines
/// track identical frontiers (the compiled one holds interned state ids
/// instead of configurations), so the reports are the same; the compiled
/// replay pays the stepping cost once per distinct network state rather
/// than once per frontier occurrence.
///
/// # Errors
///
/// Propagates evaluation failures from the semantics or the assertions.
#[allow(clippy::too_many_arguments)]
pub fn check_conformance_with_engine(
    process: &Process,
    env: &Env,
    defs: &Definitions,
    universe: &Universe,
    visible: &Trace,
    invariants: &[Assertion],
    internal_budget: usize,
    engine: Engine,
) -> Result<ConformanceReport, EvalError> {
    let diverged_at = match engine.resolve(defs, process) {
        Engine::Compiled => {
            replay_compiled(process, env, defs, universe, visible, internal_budget)?
        }
        _ => replay_enumerative(process, env, defs, universe, visible, internal_budget)?,
    };

    // Invariants at every prefix (including the complete trace and <>),
    // on one `ch(s)` that grows by the next event per prefix.
    let funcs = FuncTable::with_builtins();
    let mut inv_results = Vec::with_capacity(invariants.len());
    for inv in invariants {
        let mut first_violation = None;
        let mut history = History::empty();
        for i in 0..=visible.len() {
            if i > 0 {
                let e = visible.events()[i - 1];
                history.push(e.channel().clone(), e.value().clone());
            }
            let ctx = EvalCtx::new(env, &history, &funcs, universe);
            let ok = ctx.assertion(inv).map_err(|e| match e {
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

/// The enumerative replay: tracks a frontier of configurations.
fn replay_enumerative(
    process: &Process,
    env: &Env,
    defs: &Definitions,
    universe: &Universe,
    visible: &Trace,
    internal_budget: usize,
) -> Result<Option<usize>, EvalError> {
    let lts = Lts::new(defs, universe);
    let mut frontier = vec![Config::new(process.clone(), env.clone())];
    for (i, event) in visible.iter().enumerate() {
        let mut next = Vec::new();
        for cfg in &frontier {
            collect_after(&lts, cfg, event, internal_budget, &mut next)?;
        }
        next.sort();
        next.dedup();
        if next.is_empty() {
            return Ok(Some(i));
        }
        frontier = next;
    }
    Ok(None)
}

/// The compiled replay: the same frontier tracking over interned state
/// ids, with successor rows memoised across the whole replay.
fn replay_compiled(
    process: &Process,
    env: &Env,
    defs: &Definitions,
    universe: &Universe,
    visible: &Trace,
    internal_budget: usize,
) -> Result<Option<usize>, EvalError> {
    let mut lts = CompiledLts::new(defs, universe);
    let start = lts.intern(Config::new(process.clone(), env.clone()));
    let mut frontier = vec![start];
    for (i, event) in visible.iter().enumerate() {
        let mut next = Vec::new();
        for &id in &frontier {
            collect_after_compiled(&mut lts, id, event, internal_budget, &mut next)?;
        }
        next.sort();
        next.dedup();
        if next.is_empty() {
            return Ok(Some(i));
        }
        frontier = next;
    }
    Ok(None)
}

/// Collects every configuration reachable from `cfg` by at most `budget`
/// internal steps followed by the visible `event`.
fn collect_after(
    lts: &Lts<'_>,
    cfg: &Config,
    event: &csp_trace::Event,
    budget: usize,
    out: &mut Vec<Config>,
) -> Result<(), EvalError> {
    for step in lts.steps(cfg)? {
        match step {
            Step::Visible(e, next) => {
                if &e == event {
                    out.push(next);
                }
            }
            Step::Internal(next) => {
                if budget > 0 {
                    collect_after(lts, &next, event, budget - 1, out)?;
                }
            }
        }
    }
    Ok(())
}

/// [`collect_after`] over compiled rows. Also the stepping primitive of
/// the online [`crate::Monitor`], which tracks the same frontier one
/// event at a time while the run executes.
pub(crate) fn collect_after_compiled(
    lts: &mut CompiledLts<'_>,
    id: StateId,
    event: &csp_trace::Event,
    budget: usize,
    out: &mut Vec<StateId>,
) -> Result<(), EvalError> {
    let n = lts.steps_of(id)?.len();
    for k in 0..n {
        match lts.steps_of(id)?[k].clone() {
            CompiledStep::Visible(e, next) => {
                if &e == event {
                    out.push(next);
                }
            }
            CompiledStep::Internal(next) => {
                if budget > 0 {
                    collect_after_compiled(lts, next, event, budget - 1, out)?;
                }
            }
        }
    }
    Ok(())
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
            &[inv],
            8,
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
            &[inv],
            12,
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
            &[],
            8,
        )
        .unwrap();
        assert!(!report.trace_admitted);
        assert_eq!(report.diverged_at, Some(0));
    }

    #[test]
    fn engines_agree_on_replay() {
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
        let bogus = Trace::parse_like([("output", Value::nat(1))]);
        for trace in [&res.visible, &bogus] {
            let mut reports = Vec::new();
            for engine in [Engine::Enumerative, Engine::Compiled, Engine::Auto] {
                reports.push(
                    check_conformance_with_engine(
                        &Process::call("pipeline"),
                        &Env::new(),
                        &defs,
                        &uni,
                        trace,
                        &[],
                        8,
                        engine,
                    )
                    .unwrap(),
                );
            }
            for r in &reports[1..] {
                assert_eq!(r.trace_admitted, reports[0].trace_admitted);
                assert_eq!(r.diverged_at, reports[0].diverged_at);
            }
        }
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
            &[false_inv],
            8,
        )
        .unwrap();
        assert!(report.trace_admitted);
        let (_, violation) = &report.invariants[0];
        assert!(violation.is_some());
        assert!(!report.conforms());
    }
}
