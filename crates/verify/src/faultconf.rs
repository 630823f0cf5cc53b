//! Fault conformance: partial correctness survives fail-stop faults.
//!
//! The paper's §4 self-critique — `STOP | P = P`, so a dying component
//! is invisible to the proof system — has a constructive reading:
//! because failures only *remove* behaviour, every trace of a degraded
//! run is still a trace of the healthy network, and every proven `sat`
//! assertion still holds at every moment of it. [`fault_conformance`]
//! tests exactly that claim empirically: it sweeps a network over
//! seeds × fault plans, replays each degraded run's visible trace
//! against the semantics, and checks the invariants on every prefix.
//!
//! Plans using [`csp_runtime::RestartPolicy::Reset`] are the deliberate
//! counterpoint: a reset component forgets its history, so the sweep is
//! *expected* to find non-conformant runs — which is how the soundness
//! of replay (and the unsoundness of naive restart) is demonstrated.

use csp_assert::Assertion;
use csp_lang::{Definitions, Env, EvalError, Process};
use csp_runtime::{
    check_conformance, ConformanceReport, Executor, FaultPlan, RunError, RunOptions, RunOutcome,
    Scheduler, Supervision,
};
use csp_semantics::Universe;
use rayon::prelude::*;

/// What to sweep: the cartesian product of `seeds` and `plans`.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// Scheduler seeds; one run per (seed, plan) pair.
    pub seeds: Vec<u64>,
    /// Fault plans. Include [`FaultPlan::none`] to keep a healthy
    /// baseline in the same report.
    pub plans: Vec<FaultPlan>,
    /// Step budget per run.
    pub max_steps: usize,
    /// Watchdog limits applied to every run.
    pub supervision: Supervision,
}

impl FaultSweep {
    /// A sweep over the given seeds and plans, 48 steps per run.
    pub fn new(
        seeds: impl IntoIterator<Item = u64>,
        plans: impl IntoIterator<Item = FaultPlan>,
    ) -> Self {
        FaultSweep {
            seeds: seeds.into_iter().collect(),
            plans: plans.into_iter().collect(),
            max_steps: 48,
            supervision: Supervision::default(),
        }
    }

    /// Sets the per-run step budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the watchdog limits for every run.
    #[must_use]
    pub fn with_supervision(mut self, supervision: Supervision) -> Self {
        self.supervision = supervision;
        self
    }
}

/// One degraded run and its conformance verdict.
#[derive(Debug, Clone)]
pub struct DegradedRun {
    /// Scheduler seed of this run.
    pub seed: u64,
    /// Index into [`FaultSweep::plans`] of the plan applied.
    pub plan: usize,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Events recorded (hidden included).
    pub steps: usize,
    /// Component deaths observed, recovered or not.
    pub failures: usize,
    /// Of those, how many a restart policy recovered.
    pub recoveries: usize,
    /// The semantic replay + every-prefix invariant check of the run's
    /// visible trace.
    pub report: ConformanceReport,
}

impl DegradedRun {
    /// True when the visible trace is admitted by the semantics and all
    /// invariants held on every prefix.
    pub fn conformant(&self) -> bool {
        self.report.conforms()
    }
}

/// The result of a full sweep.
#[derive(Debug, Clone)]
pub struct FaultConformance {
    /// One entry per (seed, plan) pair, seeds varying fastest.
    pub runs: Vec<DegradedRun>,
}

impl FaultConformance {
    /// True when every degraded run conformed.
    pub fn all_conformant(&self) -> bool {
        self.runs.iter().all(DegradedRun::conformant)
    }

    /// The runs that did *not* conform (expected to be non-empty only
    /// for unsound plans, e.g. reset-restart).
    pub fn violations(&self) -> Vec<&DegradedRun> {
        self.runs.iter().filter(|r| !r.conformant()).collect()
    }

    /// Counts of (conformant, total) runs.
    pub fn tally(&self) -> (usize, usize) {
        (
            self.runs.iter().filter(|r| r.conformant()).count(),
            self.runs.len(),
        )
    }
}

/// Errors from a fault-conformance sweep.
#[derive(Debug)]
pub enum FaultConfError {
    /// A run failed to start (bad network or fault plan).
    Run(RunError),
    /// The semantic replay of a recorded trace failed to evaluate.
    Eval(EvalError),
}

impl std::fmt::Display for FaultConfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultConfError::Run(e) => write!(f, "run failed: {e}"),
            FaultConfError::Eval(e) => write!(f, "conformance replay failed: {e}"),
        }
    }
}

impl std::error::Error for FaultConfError {}

/// Runs `process` under every (seed, plan) pair of the sweep and checks
/// each degraded run's visible trace against the semantics and the
/// given invariants at every prefix, as [`check_conformance`] replays a
/// recorded run.
///
/// # Errors
///
/// Fails only on *setup* problems (non-static network, unknown fault
/// target) or evaluation errors during semantic replay. Mid-run
/// degradation is the point of the exercise and lands in the per-run
/// [`RunOutcome`], never here.
pub fn fault_conformance(
    process: &Process,
    env: &Env,
    defs: &Definitions,
    universe: &Universe,
    invariants: &[Assertion],
    sweep: &FaultSweep,
) -> Result<FaultConformance, FaultConfError> {
    let exec = Executor::new(defs, universe);
    // The (plan, seed) pairs are independent runs: fan them out, seeds
    // varying fastest so `runs` keeps its documented order.
    let pairs: Vec<(usize, &FaultPlan, u64)> = sweep
        .plans
        .iter()
        .enumerate()
        .flat_map(|(plan_idx, plan)| sweep.seeds.iter().map(move |&s| (plan_idx, plan, s)))
        .collect();
    let runs: Vec<Result<DegradedRun, FaultConfError>> = pairs
        .into_par_iter()
        .map(|(plan_idx, plan, seed)| {
            let res = exec
                .run(
                    process,
                    env,
                    RunOptions {
                        max_steps: sweep.max_steps,
                        scheduler: Scheduler::seeded(seed),
                        faults: plan.clone(),
                        supervision: sweep.supervision.clone(),
                        ..RunOptions::default()
                    },
                )
                .map_err(FaultConfError::Run)?;
            let report = check_conformance(
                process,
                env,
                defs,
                universe,
                &res.visible,
                res.full.len(),
                invariants,
            )
            .map_err(FaultConfError::Eval)?;
            Ok(DegradedRun {
                seed,
                plan: plan_idx,
                steps: res.steps,
                failures: res.failures.len(),
                recoveries: res.recoveries(),
                outcome: res.outcome,
                report,
            })
        })
        .collect();
    Ok(FaultConformance {
        runs: runs.into_iter().collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_assert::{parse_assertion, ChannelInfo};
    use csp_lang::examples;

    fn pipeline_invariant() -> Assertion {
        let info = ChannelInfo::new().with_channels(["input", "wire", "output"]);
        parse_assertion("output <= input", &info).unwrap()
    }

    #[test]
    fn degraded_pipeline_runs_conform() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let sweep = FaultSweep::new(
            [1, 2, 3],
            [
                FaultPlan::none(),
                FaultPlan::none().crash("copier", 5),
                FaultPlan::none().stall("recopier", 3, 4),
            ],
        )
        .with_max_steps(24);
        let result = fault_conformance(
            &Process::call("pipeline"),
            &Env::new(),
            &defs,
            &uni,
            &[pipeline_invariant()],
            &sweep,
        )
        .unwrap();
        assert_eq!(result.runs.len(), 9);
        assert!(result.all_conformant(), "{:?}", result.violations());
        // The crash plan actually crashed something.
        assert!(result.runs.iter().any(|r| r.plan == 1 && r.failures == 1));
    }

    #[test]
    fn healthy_and_replay_runs_agree() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let sweep = FaultSweep::new(
            [7],
            [FaultPlan::none()
                .crash("copier", 4)
                .with_restart(csp_runtime::RestartPolicy::Replay)],
        )
        .with_max_steps(20);
        let result = fault_conformance(
            &Process::call("pipeline"),
            &Env::new(),
            &defs,
            &uni,
            &[pipeline_invariant()],
            &sweep,
        )
        .unwrap();
        assert!(result.all_conformant());
        assert_eq!(result.runs[0].recoveries, 1);
        assert!(result.runs[0].outcome.is_clean());
    }
}
