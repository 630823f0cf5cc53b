//! The online run monitor: runtime verification of an executing network
//! against its own semantics and `sat`-style assertions.
//!
//! The monitor is fed each visible event as the coordinator commits it.
//! It tracks a frontier — a [`StateSet`] of the states in a
//! [`CompiledLts`] the run can be in — advanced per observation by the
//! arena's one frontier step: the states up to [`replay_budget`]
//! concealed steps away ([`CompiledLts::tau_closure`]), then their
//! successors on the event ([`CompiledLts::after`]). The closure steps
//! each state once however many τ-paths reach it, so hidden loops cost
//! no more than the states they pass. Trace-membership is decided incrementally;
//! [`crate::check_conformance`] replays a *finished* trace through the
//! same frontier step. Every observed prefix is checked against the
//! monitored assertions the way `P sat R` quantifies over prefixes
//! (§2.2). The first event the semantics cannot match, or the first
//! prefix falsifying an assertion, latches a [`MonitorViolation`]; the
//! run continues (observation must not change the observed system) but
//! the verdict is final.

use csp_assert::{Assertion, CompiledAssertion, FuncTable};
use csp_lang::{Definitions, Env, EvalError, Process};
use csp_semantics::{CompiledLts, Config, StateSet, Universe};
use csp_trace::{Event, History};

/// The fewest concealed steps a replay admits between two visible
/// events.
const MIN_REPLAY_BUDGET: usize = 32;

/// The concealed steps a replay of a run admits between two visible
/// events: `concealed`, the concealed events the run can have committed
/// in that gap, but at least 32. `chan L; P` conceals `L` without
/// lengthening the trace (§1.2(8), §3.2), so the gap is the run's to
/// tell: the live [`Monitor`] passes the run's current streak of
/// concealed events, and a replay of a recorded run
/// ([`crate::check_conformance`]) the events the run committed in all,
/// which bound every gap. A run of the semantics matches its own path
/// within the gap; the floor keeps admitting a run whose recovery left
/// the semantics (a `restart:reset` component forgets its history) and
/// that the spec matches only along a longer concealed path.
pub fn replay_budget(concealed: usize) -> usize {
    concealed.max(MIN_REPLAY_BUDGET)
}

/// What an online monitor should check, carried in
/// [`crate::RunOptions::monitor`].
#[derive(Debug, Clone, Default)]
pub struct MonitorSpec {
    /// Assertions checked on every visible prefix (empty = membership
    /// checking only).
    pub assertions: Vec<Assertion>,
}

impl MonitorSpec {
    /// Membership-only monitoring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an assertion to check at every visible prefix.
    #[must_use]
    pub fn with_assertion(mut self, a: Assertion) -> Self {
        self.assertions.push(a);
        self
    }
}

/// The monitor's verdict over the events it has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// Every observed prefix is a trace of the spec and satisfies every
    /// monitored assertion.
    Conforming,
    /// A violation was observed (see the attached
    /// [`MonitorViolation`]).
    Violated,
    /// The monitor hit an evaluation error and stopped judging.
    Aborted,
}

impl MonitorVerdict {
    /// True iff no violation (and no abort) was observed.
    pub fn is_conforming(&self) -> bool {
        matches!(self, MonitorVerdict::Conforming)
    }
}

impl std::fmt::Display for MonitorVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorVerdict::Conforming => write!(f, "conforming"),
            MonitorVerdict::Violated => write!(f, "violated"),
            MonitorVerdict::Aborted => write!(f, "aborted"),
        }
    }
}

/// Why an observed event was flagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// No spec behaviour matches the observed prefix: the event is not
    /// in `traces(P)` after the previously observed prefix.
    NotInTraces,
    /// The observed prefix falsifies a monitored assertion (its text).
    AssertionFailed(String),
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::NotInTraces => write!(f, "event not admitted by the spec"),
            ViolationKind::AssertionFailed(a) => write!(f, "assertion `{a}` falsified"),
        }
    }
}

/// The first divergent event of a monitored run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorViolation {
    /// Index of the offending event in the *full* committed trace.
    pub step: usize,
    /// Index of the offending event in the visible trace.
    pub visible_index: usize,
    /// The offending event itself.
    pub event: Event,
    /// What went wrong.
    pub kind: ViolationKind,
    /// Causal-log seqs of the events strictly happens-before the
    /// offending one (its past cone), filled in by the executor from the
    /// run's [`csp_causal::CausalLog`].
    pub causal_history: Vec<usize>,
}

impl std::fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {} (visible #{}) `{}`: {}",
            self.step, self.visible_index, self.event, self.kind
        )
    }
}

/// What a monitored run reports, in [`crate::RunResult::monitor`].
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// The verdict over the whole observed run.
    pub verdict: MonitorVerdict,
    /// The first divergent event, when `verdict` is `Violated`.
    pub violation: Option<MonitorViolation>,
    /// Visible events the monitor stepped through.
    pub events_checked: usize,
    /// The evaluation error that aborted monitoring, if any.
    pub error: Option<String>,
}

impl MonitorReport {
    /// True iff the observed run conformed.
    pub fn is_conforming(&self) -> bool {
        self.verdict.is_conforming()
    }
}

/// The online monitor itself. Owns a [`CompiledLts`] over the *spec*
/// process (the same term the executor runs) and advances a frontier of
/// states by one visible event per [`Monitor::observe`] call.
///
/// Reusing `CompiledLts` rather than a purpose-built automaton means the
/// monitor judges with exactly the semantics the verifier proves against
/// — successor rows are interned and memoised, so a long run pays the
/// stepping cost once per distinct network state.
pub struct Monitor<'a> {
    lts: CompiledLts<'a>,
    frontier: StateSet,
    /// Each monitored assertion, compiled once for the run.
    assertions: Vec<(Assertion, CompiledAssertion<'a>)>,
    /// How many visible events have been accepted, and their `ch(s)`.
    visible: usize,
    history: History,
    violation: Option<MonitorViolation>,
    error: Option<String>,
    events_checked: usize,
}

impl<'a> Monitor<'a> {
    /// A monitor for `process` (the executed network's own term) under
    /// `spec`.
    pub fn new(
        process: &Process,
        env: &Env,
        defs: &'a Definitions,
        universe: &'a Universe,
        spec: MonitorSpec,
    ) -> Self {
        let mut lts = CompiledLts::new(defs, universe);
        let start = lts.intern(Config::new(process.clone(), env.clone()));
        let funcs = FuncTable::with_builtins();
        let assertions = spec
            .assertions
            .into_iter()
            .map(|a| {
                let compiled = CompiledAssertion::new(&a, env, &funcs, universe);
                (a, compiled)
            })
            .collect();
        Monitor {
            lts,
            frontier: StateSet::from_iter([start]),
            assertions,
            visible: 0,
            history: History::empty(),
            violation: None,
            error: None,
            events_checked: 0,
        }
    }

    /// True once a violation or abort has latched; later observations
    /// are ignored (the verdict names the *first* divergent event).
    pub fn is_latched(&self) -> bool {
        self.violation.is_some() || self.error.is_some()
    }

    /// Feeds one committed visible event (`step` = its index in the full
    /// trace), which the run committed after `concealed` concealed events
    /// since the previous visible one. Returns `true` while the run still
    /// conforms. Never panics and never propagates errors into the run:
    /// an evaluation error latches an aborted verdict instead.
    pub fn observe(&mut self, event: Event, step: usize, concealed: usize) -> bool {
        if self.is_latched() {
            return false;
        }
        let visible_index = self.visible;
        self.events_checked += 1;
        match self.advance(&event, replay_budget(concealed)) {
            Ok(true) => {}
            Ok(false) => {
                self.violation = Some(MonitorViolation {
                    step,
                    visible_index,
                    event,
                    kind: ViolationKind::NotInTraces,
                    causal_history: Vec::new(),
                });
                return false;
            }
            Err(e) => {
                self.error = Some(e.to_string());
                return false;
            }
        }
        self.visible += 1;
        self.history.push(event.channel(), event.value().clone());

        // `P sat R` quantifies over every trace prefix: check the newly
        // extended prefix against each monitored assertion.
        for (a, compiled) in &mut self.assertions {
            match compiled.holds(&self.history) {
                Ok(true) => {}
                Ok(false) => {
                    self.violation = Some(MonitorViolation {
                        step,
                        visible_index,
                        event,
                        kind: ViolationKind::AssertionFailed(a.to_string()),
                        causal_history: Vec::new(),
                    });
                    return false;
                }
                Err(e) => {
                    self.error = Some(match e {
                        csp_assert::AssertError::Eval(e) => e.to_string(),
                        csp_assert::AssertError::UnknownFunction(n) => {
                            format!("unknown function {n}")
                        }
                    });
                    return false;
                }
            }
        }
        true
    }

    /// One frontier step: up to `budget` concealed moves, then `event`.
    /// Returns `false`, leaving the frontier as it was, when the spec
    /// admits no such continuation.
    pub(crate) fn advance(&mut self, event: &Event, budget: usize) -> Result<bool, EvalError> {
        let reach = self.lts.tau_closure(self.frontier.clone(), budget)?;
        let next = self.lts.after(&reach, *event)?;
        if next.is_empty() {
            return Ok(false);
        }
        self.frontier = next;
        Ok(true)
    }

    /// The verdict over everything observed so far.
    pub fn report(&self) -> MonitorReport {
        let verdict = if self.error.is_some() {
            MonitorVerdict::Aborted
        } else if self.violation.is_some() {
            MonitorVerdict::Violated
        } else {
            MonitorVerdict::Conforming
        };
        MonitorReport {
            verdict,
            violation: self.violation.clone(),
            events_checked: self.events_checked,
            error: self.error.clone(),
        }
    }

    /// Attaches a causal history (log seqs happens-before the violating
    /// event) to the latched violation, if any.
    pub fn attach_causal_history(&mut self, history: Vec<usize>) {
        if let Some(v) = &mut self.violation {
            v.causal_history = history;
        }
    }

    /// Step index (in the full trace) of the latched violation, if any.
    pub fn violation_step(&self) -> Option<usize> {
        self.violation.as_ref().map(|v| v.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_assert::{parse_assertion, ChannelInfo};
    use csp_lang::examples;
    use csp_trace::{Channel, Value};

    fn info() -> ChannelInfo {
        ChannelInfo::new()
            .with_channels(["input", "wire", "output"])
            .with_arrays(["col"])
            .with_funcs(["f"])
    }

    #[test]
    fn conforming_prefix_keeps_the_monitor_green() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let spec =
            MonitorSpec::new().with_assertion(parse_assertion("output <= input", &info()).unwrap());
        let mut m = Monitor::new(&Process::call("pipeline"), &Env::new(), &defs, &uni, spec);
        // input.0 then (hidden wire.0 happens internally) output.0.
        assert!(m.observe(Event::new(Channel::simple("input"), Value::nat(0)), 0, 0));
        assert!(m.observe(Event::new(Channel::simple("output"), Value::nat(0)), 2, 1));
        let r = m.report();
        assert!(r.is_conforming(), "{r:?}");
        assert_eq!(r.events_checked, 2);
    }

    #[test]
    fn out_of_spec_event_names_the_first_bad_step() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let mut m = Monitor::new(
            &Process::call("pipeline"),
            &Env::new(),
            &defs,
            &uni,
            MonitorSpec::new(),
        );
        // The pipeline cannot emit output before any input.
        let bad = Event::new(Channel::simple("output"), Value::nat(1));
        assert!(!m.observe(bad, 0, 0));
        let r = m.report();
        assert_eq!(r.verdict, MonitorVerdict::Violated);
        let v = r.violation.unwrap();
        assert_eq!(v.step, 0);
        assert_eq!(v.visible_index, 0);
        assert_eq!(v.event, bad);
        assert_eq!(v.kind, ViolationKind::NotInTraces);
        // Latches: later (even legal) events do not move the verdict.
        assert!(!m.observe(Event::new(Channel::simple("input"), Value::nat(0)), 1, 0));
        assert_eq!(m.report().events_checked, 1);
    }

    #[test]
    fn falsified_assertion_is_flagged_with_its_text() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let spec =
            MonitorSpec::new().with_assertion(parse_assertion("#input <= 0", &info()).unwrap());
        let mut m = Monitor::new(&Process::call("pipeline"), &Env::new(), &defs, &uni, spec);
        assert!(!m.observe(Event::new(Channel::simple("input"), Value::nat(0)), 0, 0));
        let r = m.report();
        assert_eq!(r.verdict, MonitorVerdict::Violated);
        match r.violation.unwrap().kind {
            ViolationKind::AssertionFailed(text) => assert!(text.contains("#input")),
            other => panic!("expected AssertionFailed, got {other:?}"),
        }
    }

    #[test]
    fn hidden_loops_cost_a_step_per_state_not_per_path() {
        // Two independent hidden loops: within the floor of 32 concealed
        // steps, 2^32 τ-paths reach the one state the network has. A
        // 64-step monitored run and the replay of its trace must
        // conform, and finish.
        let defs = csp_lang::parse_definitions(
            "spin1 = h1!0 -> spin1
             sink1 = h1?x:{0} -> sink1
             spin2 = h2!0 -> spin2
             sink2 = h2?x:{0} -> sink2
             out = o!0 -> out
             net = chan h1, h2; (spin1 || sink1 || spin2 || sink2 || out)",
        )
        .unwrap();
        let uni = Universe::new(1);
        let opts = crate::RunOptions {
            max_steps: 64,
            monitor: Some(MonitorSpec::new()),
            ..crate::RunOptions::default()
        };
        let res = crate::Executor::new(&defs, &uni)
            .run_name("net", &Env::new(), opts)
            .unwrap();
        let report = res.monitor.expect("a monitored run reports");
        assert!(report.is_conforming(), "{report:?}");
        assert!(report.events_checked > 0, "{report:?}");
        let replay = crate::check_conformance(
            &Process::call("net"),
            &Env::new(),
            &defs,
            &uni,
            &res.visible,
            res.full.len(),
            &[],
        )
        .unwrap();
        assert!(replay.conforms(), "{replay:?}");
    }

    #[test]
    fn the_frontier_keeps_every_state_an_event_can_reach() {
        // After `a.0` the spec is in one of two states, and only the
        // next event tells them apart.
        let defs =
            csp_lang::parse_definitions("p = a!0 -> b!0 -> STOP | a!0 -> c!0 -> STOP").unwrap();
        let uni = Universe::new(1);
        let event = |c: &str| Event::new(Channel::simple(c), Value::nat(0));
        for last in ["b", "c"] {
            let trace = csp_trace::Trace::from_events(vec![event("a"), event(last)]);
            let report = crate::check_conformance(
                &Process::call("p"),
                &Env::new(),
                &defs,
                &uni,
                &trace,
                trace.len(),
                &[],
            )
            .unwrap();
            assert!(report.trace_admitted, "<a.0, {last}.0>: {report:?}");

            let mut m = Monitor::new(
                &Process::call("p"),
                &Env::new(),
                &defs,
                &uni,
                MonitorSpec::new(),
            );
            assert!(m.observe(event("a"), 0, 0));
            assert!(
                m.observe(event(last), 1, 0),
                "<a.0, {last}.0>: {:?}",
                m.report()
            );
        }
    }
}
