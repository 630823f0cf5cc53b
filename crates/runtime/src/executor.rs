//! The concurrent executor: one OS thread per network component, joined
//! by a supervising coordinator that moves the network by the binary
//! `||` and `chan` rules.
//!
//! §1.0: a communication "occurs only when both processes are ready for
//! it". Each step, every component reports the events it is ready for
//! (its *offers*); the network's `||`/`chan` tree turns them into moves
//! as §1.2(7)–(8) do — a `||` joins its operands on the channels they
//! share, `X ∩ Y`, and lets every other move through alone, and a `chan`
//! conceals its channels' events from everything outside it. The
//! scheduler picks one move; exactly its participants advance.
//!
//! The coordinator doubles as a supervisor. Component threads can die
//! (panics, evaluation errors, injected [`crate::Fault::Crash`]es) or
//! stop responding (hangs, injected stalls); the coordinator never
//! trusts them further than a bounded `recv_timeout`, converts every
//! failure into a [`RunOutcome`], and lets the surviving components
//! degrade gracefully around a dead one — which then behaves exactly
//! like `STOP`, the degradation §4's `STOP | P = P` identity makes
//! invisible to the proof system. Under [`crate::RestartPolicy::Replay`]
//! a dead component is respawned and fast-forwarded by replaying the
//! events it took part in so far; sound because a process's state is a
//! function of its communication history (§3).

use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::thread;
use std::time::Instant;

use std::collections::BTreeMap;

use csp_causal::{CausalEventKind, CausalLog, VectorClock};
use csp_lang::{Definitions, Env, EvalError, Process};
use csp_obs::{Collector, Metered, MetricsSnapshot};
use csp_semantics::{Config, Lts, Step, Universe};
use csp_trace::{Channel, Event, Trace};

use crate::fault::{Fault, FaultError, FaultPlan, RestartPolicy};
use crate::monitor::{Monitor, MonitorReport, MonitorSpec};
use crate::net::{flatten, Component, Move, NetError, Network};
use crate::supervisor::{ComponentFailure, FailureReason, RunOutcome, Supervision, MAX_RESTARTS};
use crate::Scheduler;

/// Capacity of a run's causal event log; beyond it new events are
/// counted as dropped, keeping the retained prefix self-consistent.
const CAUSAL_CAP: usize = 4096;

/// Options controlling a run.
#[derive(Debug)]
pub struct RunOptions {
    /// Stop after this many events (hidden ones included).
    pub max_steps: usize,
    /// How non-determinism is resolved.
    pub scheduler: Scheduler,
    /// Faults injected into the run (default: none).
    pub faults: FaultPlan,
    /// Watchdog limits (default: generous round timeout, no deadline,
    /// livelock detection off).
    pub supervision: Supervision,
    /// Observation stream for per-round spans and counters (default:
    /// [`Collector::disabled`], costing one branch per round).
    pub collector: Collector,
    /// Online monitor checking trace-membership and assertions while the
    /// run executes (default: off).
    pub monitor: Option<MonitorSpec>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_steps: 64,
            scheduler: Scheduler::seeded(0),
            faults: FaultPlan::none(),
            supervision: Supervision::default(),
            collector: Collector::disabled(),
            monitor: None,
        }
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The externally visible trace (concealed events removed), as the
    /// paper's observer would record it.
    pub visible: Trace,
    /// The full trace including concealed communications.
    pub full: Trace,
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Convenience mirror of `outcome == RunOutcome::Deadlocked`.
    pub deadlocked: bool,
    /// Number of events that occurred.
    pub steps: usize,
    /// Every component death the supervisor observed, recovered or not.
    pub failures: Vec<ComponentFailure>,
    /// What the run cost: round, pick, fault, and recovery counts
    /// (always populated from cheap local tallies).
    pub metrics: MetricsSnapshot,
    /// The causal event log: every communication and supervision event,
    /// vector-clock stamped (its first 4096 events).
    pub causal: CausalLog,
    /// Final per-component vector clocks at the end of the run.
    pub clocks: Vec<VectorClock>,
    /// The online monitor's report, when one was requested.
    pub monitor: Option<MonitorReport>,
}

impl Metered for RunResult {
    fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }
}

impl RunResult {
    /// Number of component deaths a restart policy recovered from.
    pub fn recoveries(&self) -> usize {
        self.failures.iter().filter(|f| f.recovered).count()
    }
}

/// Errors from the executor — problems *setting up* a run. Failures
/// during a run are reported in [`RunResult::outcome`], not here.
#[derive(Debug)]
pub enum RunError {
    /// The process is not a static network, or a component failed to
    /// evaluate while flattening.
    Net(NetError),
    /// The fault plan does not fit the network.
    Fault(FaultError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Net(e) => e.fmt(f),
            RunError::Fault(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<NetError> for RunError {
    fn from(e: NetError) -> Self {
        RunError::Net(e)
    }
}

impl From<FaultError> for RunError {
    fn from(e: FaultError) -> Self {
        RunError::Fault(e)
    }
}

/// Message from coordinator to a component.
enum Decision {
    /// The given event occurred and involves you: advance past it.
    Advance(Event),
    /// The run is over.
    Halt,
    /// Injected crash: die by unwinding, as a buggy component would.
    Poison,
}

/// What the coordinator believes about one component.
enum SlotState {
    /// We owe it a `recv`: its next offer has not been collected.
    AwaitingOffer,
    /// Its current offer is in hand (and stays buffered while the
    /// component is stalled or its offer message is delayed in transit).
    Offered(Vec<Event>),
    /// The component is dead and behaves as `STOP`.
    Dead,
}

/// Coordinator-side bookkeeping for one component thread.
struct Slot<'scope> {
    state: SlotState,
    /// Rounds left during which the offer is withheld (stall/delay).
    stall_rounds: usize,
    /// Restarts consumed, towards [`MAX_RESTARTS`].
    restarts_used: usize,
    /// The events it advanced past, which a replay feeds its successor.
    advanced: Vec<Event>,
    offer_rx: Receiver<Result<Vec<Event>, EvalError>>,
    decision_tx: SyncSender<Decision>,
    handle: Option<thread::ScopedJoinHandle<'scope, ()>>,
}

/// Executes networks built from a definition list.
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    defs: &'a Definitions,
    universe: &'a Universe,
}

impl<'a> Executor<'a> {
    /// Creates an executor.
    pub fn new(defs: &'a Definitions, universe: &'a Universe) -> Self {
        Executor { defs, universe }
    }

    /// Runs the named process.
    ///
    /// # Errors
    ///
    /// Fails on non-static networks, on evaluation errors while
    /// flattening, and on fault plans naming unknown components.
    pub fn run_name(&self, name: &str, env: &Env, opts: RunOptions) -> Result<RunResult, RunError> {
        self.run(&Process::call(name), env, opts)
    }

    /// Runs a process expression as a concurrent network.
    ///
    /// # Errors
    ///
    /// Fails on non-static networks, on evaluation errors while
    /// flattening, and on fault plans naming unknown components.
    /// Mid-run failures (component deaths, timeouts, livelock) are
    /// reported in [`RunResult::outcome`], never as `Err` — and never as
    /// a panic or an unbounded hang.
    pub fn run(
        &self,
        process: &Process,
        env: &Env,
        mut opts: RunOptions,
    ) -> Result<RunResult, RunError> {
        let net = flatten(process, self.defs, env)?;
        opts.faults.resolve_all(&net.components)?;
        let collector = opts.collector.clone();
        let mut root = collector.span("run");
        root.record("components", net.components.len());
        root.record("max_steps", opts.max_steps);
        // Counters below are incremented *live* (not tallied at the
        // end) so a concurrent sampler — `csp run --watch` — sees the
        // run progress round by round.
        collector.add("run.components", net.components.len() as u64);
        let mut rounds = 0u64;
        let mut picks = 0u64;
        let mut faults_fired = 0u64;
        // Rounds in which each channel had an enabled event, tallied
        // only under observation and handed to the collector at the end.
        let mut chan_ready: BTreeMap<Channel, u64> = BTreeMap::new();
        // The committed events no `chan` concealed.
        let mut visible: Vec<Event> = Vec::new();

        // Resolve fault targets to indices once, up front.
        let mut crashes: Vec<(usize, usize, bool)> = Vec::new(); // (index, at_step, fired)
        let mut stalls: Vec<(usize, usize, usize, bool)> = Vec::new(); // (index, at_step, rounds, fired)
        for fault in &opts.faults.faults {
            let index = fault
                .component()
                .resolve(&net.components)
                .expect("resolve_all checked");
            match fault {
                Fault::Crash { at_step, .. } => crashes.push((index, *at_step, false)),
                Fault::Stall {
                    at_step, rounds, ..
                }
                | Fault::DelayOffer {
                    at_step, rounds, ..
                } => {
                    stalls.push((index, *at_step, *rounds, false));
                }
            }
        }
        let starved: Vec<usize> = opts
            .faults
            .starve
            .iter()
            .map(|s| s.resolve(&net.components).expect("resolve_all checked"))
            .collect();

        // The monitor borrows the definitions for the lifetime of the
        // run, so it lives outside the thread scope; only the (single
        // threaded) coordinator loop feeds it.
        let mut monitor: Option<Monitor<'a>> = opts
            .monitor
            .take()
            .map(|spec| Monitor::new(process, env, self.defs, self.universe, spec));
        let labels: Vec<String> = net.components.iter().map(|c| c.label.clone()).collect();

        let (full, failures, log, clocks, terminal, saw_deadlock) = thread::scope(|scope| {
            let mut co = Coordinator {
                scope,
                defs: self.defs,
                universe: self.universe,
                net: &net,
                supervision: &opts.supervision,
                restart: opts.faults.restart,
                collector: collector.clone(),
                start: Instant::now(),
                slots: net
                    .components
                    .iter()
                    .map(|c| spawn_component(scope, c, self.defs, self.universe))
                    .collect(),
                full: Vec::new(),
                failures: Vec::new(),
                clocks: vec![VectorClock::new(net.components.len()); net.components.len()],
                log: CausalLog::new(labels, CAUSAL_CAP),
            };

            let mut terminal: Option<RunOutcome> = None;
            let mut saw_deadlock = false;
            let mut hidden_streak = 0usize;

            'run: while co.full.len() < opts.max_steps {
                rounds = rounds.saturating_add(1);
                co.collector.add("run.rounds", 1);
                let mut round_span = root.child("run.round");
                round_span.record("round", rounds - 1);
                if co.past_deadline() {
                    terminal = Some(RunOutcome::TimedOut {
                        at_step: co.full.len(),
                    });
                    break 'run;
                }

                // Collect one offer from every live, unstalled component.
                if let Some(t) = co.gather() {
                    terminal = Some(t);
                    break 'run;
                }

                // Fire faults scheduled for the current step.
                let step = co.full.len();
                for (index, at_step, fired) in &mut crashes {
                    if !*fired && *at_step <= step {
                        *fired = true;
                        faults_fired += 1;
                        co.collector.add("run.faults_injected", 1);
                        co.kill(*index, FailureReason::InjectedCrash);
                    }
                }
                for (index, at_step, rounds, fired) in &mut stalls {
                    if !*fired && *at_step <= step {
                        *fired = true;
                        faults_fired += 1;
                        co.collector.add("run.faults_injected", 1);
                        if !matches!(co.slots[*index].state, SlotState::Dead) {
                            let slot = &mut co.slots[*index];
                            slot.stall_rounds = slot.stall_rounds.max(*rounds);
                            co.record_control(
                                *index,
                                CausalEventKind::Fault {
                                    detail: format!("stalled for {rounds} rounds"),
                                },
                            );
                        }
                    }
                }
                // Recoveries may have left fresh threads awaiting collection.
                if let Some(t) = co.gather() {
                    terminal = Some(t);
                    break 'run;
                }

                // The moves the network's `||`/`chan` tree allows over
                // the live offers. Dead and stalled components offer
                // nothing, so moves needing them are disabled — `STOP |
                // P = P` in action.
                let mut moves = net.shape.moves(&|i| co.effective_offer(i));
                moves.sort();

                // Channel occupancy: the sorted moves hold each channel's
                // events together, so a channel counts once a round.
                if co.collector.is_enabled() {
                    let mut last: Option<&Channel> = None;
                    for m in &moves {
                        let c = m.event.channel();
                        if last != Some(c) {
                            last = Some(c);
                            match chan_ready.get_mut(c) {
                                Some(n) => *n += 1,
                                None => {
                                    chan_ready.insert(c.clone(), 1);
                                }
                            }
                        }
                    }
                }

                // Adversarial starvation: if any move leaves every
                // starved component out, only such moves are eligible.
                let starves = |m: &Move| m.participants.iter().any(|p| starved.contains(p));
                if moves.iter().any(|m| !starves(m)) {
                    moves.retain(|m| !starves(m));
                }
                let Some(k) = opts.scheduler.pick(moves.len()) else {
                    // Not a deadlock while a stalled offer is in flight;
                    // nothing changes until the shortest stall ends, so
                    // its rounds pass at once.
                    let shortest = co
                        .slots
                        .iter()
                        .filter(|s| s.stall_rounds > 0 && !matches!(s.state, SlotState::Dead))
                        .map(|s| s.stall_rounds)
                        .min();
                    if let Some(wait) = shortest {
                        co.tick_stalls(wait);
                        let skipped = u64::try_from(wait - 1).unwrap_or(u64::MAX);
                        rounds = rounds.saturating_add(skipped);
                        co.collector.add("run.rounds", skipped);
                        continue 'run;
                    }
                    saw_deadlock = true;
                    break 'run;
                };
                round_span.record("enabled", moves.len());
                let chosen = moves.swap_remove(k);
                picks += 1;
                co.collector.add("run.scheduler_picks", 1);

                let event = chosen.event;
                if round_span.is_enabled() {
                    round_span.record("event", event.to_string());
                }
                co.full.push(event);
                co.collector.add("run.steps", 1);
                if co.collector.is_enabled() {
                    co.collector
                        .add(format!("run.chan.{}.events", event.channel()), 1);
                }
                co.record_comm(&chosen);
                if chosen.hidden {
                    hidden_streak += 1;
                    let window = opts.supervision.livelock_window;
                    if window > 0 && hidden_streak >= window {
                        terminal = Some(RunOutcome::Livelock {
                            at_step: co.full.len(),
                            hidden_streak,
                        });
                        break 'run;
                    }
                } else {
                    visible.push(event);
                    if let Some(m) = monitor.as_mut() {
                        co.collector.add("run.monitor.events", 1);
                        m.observe(event, co.full.len() - 1, hidden_streak);
                    }
                    hidden_streak = 0;
                }

                // Advance the move's participants. A component it does
                // not involve has not moved, so its offer stays in hand,
                // as a stalled component's does.
                for j in chosen.participants {
                    co.slots[j].advanced.push(event);
                    if co.slots[j]
                        .decision_tx
                        .try_send(Decision::Advance(event))
                        .is_err()
                    {
                        co.kill(j, FailureReason::ChannelClosed);
                    } else {
                        co.slots[j].state = SlotState::AwaitingOffer;
                    }
                }
                co.tick_stalls(1);
            }

            // Single teardown point for every exit path: no component
            // thread outlives the run.
            co.halt_and_join();
            (
                co.full,
                co.failures,
                co.log,
                co.clocks,
                terminal,
                saw_deadlock,
            )
        });

        // Late-bind the violation's causal history: it needs the
        // complete log, which only exists once the run is over.
        if let Some(m) = monitor.as_mut() {
            if let Some(vstep) = m.violation_step() {
                if let Some(e) = log.events().iter().find(|e| e.step == vstep && e.is_comm()) {
                    m.attach_causal_history(log.causal_history(e.seq));
                }
            }
        }
        let monitor_report = monitor.map(|m| m.report());

        let outcome = terminal.unwrap_or_else(|| {
            if let Some(f) = failures
                .iter()
                .find(|f| !f.recovered && f.reason == FailureReason::Panicked)
            {
                RunOutcome::Crashed {
                    label: f.label.clone(),
                    at_step: f.at_step,
                }
            } else if let Some(f) = failures.iter().find(|f| !f.recovered) {
                RunOutcome::ComponentFailed {
                    label: f.label.clone(),
                    at_step: f.at_step,
                }
            } else if saw_deadlock {
                RunOutcome::Deadlocked
            } else {
                RunOutcome::Completed
            }
        });

        let full = Trace::from_events(full);
        let visible = Trace::from_events(visible);
        root.record("steps", full.len());
        root.record("rounds", rounds);
        root.end();
        let mut metrics = MetricsSnapshot::new();
        metrics
            .set_counter("run.rounds", rounds)
            .set_counter("run.scheduler_picks", picks)
            .set_counter("run.faults_injected", faults_fired)
            .set_counter("run.deaths", failures.len() as u64)
            .set_counter(
                "run.restarts",
                failures.iter().filter(|f| f.recovered).count() as u64,
            )
            .set_counter("run.steps", full.len() as u64)
            .set_counter("run.hidden_events", (full.len() - visible.len()) as u64)
            .set_counter("run.causal.events", log.len() as u64)
            .set_counter("run.causal.dropped", log.dropped() as u64);
        // Per-channel throughput: one counter per distinct channel of
        // the committed trace (mirrors the live `run.chan.*` adds).
        let mut per_chan: BTreeMap<String, u64> = BTreeMap::new();
        for e in full.iter() {
            *per_chan.entry(e.channel().to_string()).or_insert(0) += 1;
        }
        for (chan, count) in per_chan {
            metrics.set_counter(format!("run.chan.{chan}.events"), count);
        }
        for (chan, count) in chan_ready {
            let name = format!("run.chan.{chan}.ready_rounds");
            collector.add(name.clone(), count);
            metrics.set_counter(name, count);
        }
        if let Some(m) = &monitor_report {
            metrics.set_counter("run.monitor.events", m.events_checked as u64);
            metrics.set_counter(
                "run.monitor.conforming",
                u64::from(m.verdict.is_conforming()),
            );
        }
        // Everything else was incremented live; hidden-event accounting
        // needs the finished trace, so it lands here.
        collector.add("run.hidden_events", (full.len() - visible.len()) as u64);
        Ok(RunResult {
            steps: full.len(),
            visible,
            full,
            deadlocked: outcome.is_deadlock(),
            outcome,
            failures,
            metrics,
            causal: log,
            clocks,
            monitor: monitor_report,
        })
    }
}

/// The coordinator's mutable state, threaded through the helpers.
struct Coordinator<'run, 'scope, 'env> {
    scope: &'scope thread::Scope<'scope, 'env>,
    defs: &'env Definitions,
    universe: &'env Universe,
    net: &'run Network,
    supervision: &'run Supervision,
    restart: RestartPolicy,
    collector: Collector,
    start: Instant,
    slots: Vec<Slot<'scope>>,
    full: Vec<Event>,
    failures: Vec<ComponentFailure>,
    /// Per-component vector clocks; entry `i` is component `i`'s view.
    clocks: Vec<VectorClock>,
    /// The bounded causal event log (the coordinator is the only
    /// writer, so no locking is involved).
    log: CausalLog,
}

impl<'run, 'scope, 'env> Coordinator<'run, 'scope, 'env> {
    fn past_deadline(&self) -> bool {
        self.supervision
            .deadline
            .is_some_and(|d| self.start.elapsed() >= d)
    }

    /// Stamps a just-committed move (the last event of `full`): every
    /// participant ticks its own clock entry, the event carries the
    /// pointwise max, and every participant adopts it — Lamport's rule
    /// specialised to the synchronous multi-party rendezvous of §1.2(8).
    /// The sender is the one participant that writes the channel.
    fn record_comm(&mut self, m: &Move) {
        let step = self.full.len() - 1;
        let mut writers = m
            .participants
            .iter()
            .copied()
            .filter(|&j| self.net.components[j].writes.contains(m.event.channel()));
        let sender = match (writers.next(), writers.next()) {
            (Some(s), None) => Some(s),
            _ => None,
        };
        let receiver = sender.and_then(|s| m.participants.iter().copied().find(|&p| p != s));
        let mut pre_clocks = Vec::with_capacity(m.participants.len());
        let mut merged = VectorClock::new(self.clocks.len());
        for &p in &m.participants {
            let mut c = self.clocks[p].clone();
            c.tick(p);
            merged.merge(&c);
            pre_clocks.push(c);
        }
        for &p in &m.participants {
            self.clocks[p] = merged.clone();
        }
        self.log.push(
            step,
            CausalEventKind::Comm {
                event: m.event,
                sender,
                receiver,
                hidden: m.hidden,
            },
            m.participants.clone(),
            pre_clocks,
            merged,
        );
    }

    /// Stamps a supervision event (fault, death, restart) as a local
    /// step of component `i`.
    fn record_control(&mut self, i: usize, kind: CausalEventKind) {
        let step = self.full.len();
        let mut c = self.clocks[i].clone();
        c.tick(i);
        self.clocks[i] = c.clone();
        self.log.push(step, kind, vec![i], vec![c.clone()], c);
    }

    /// The offer the enabled-set computation may use for component `i`.
    fn effective_offer(&self, i: usize) -> &[Event] {
        let slot = &self.slots[i];
        if slot.stall_rounds > 0 {
            return &[];
        }
        match &slot.state {
            SlotState::Offered(events) => events,
            _ => &[],
        }
    }

    fn tick_stalls(&mut self, rounds: usize) {
        for slot in &mut self.slots {
            slot.stall_rounds = slot.stall_rounds.saturating_sub(rounds);
        }
    }

    /// Collects offers until every live component is `Offered` (or dead).
    /// Returns a terminal outcome only for wall-clock expiry.
    fn gather(&mut self) -> Option<RunOutcome> {
        loop {
            let pending: Vec<usize> = (0..self.slots.len())
                .filter(|&i| matches!(self.slots[i].state, SlotState::AwaitingOffer))
                .collect();
            if pending.is_empty() {
                return None;
            }
            for i in pending {
                let wait = match self.supervision.deadline {
                    None => self.supervision.round_timeout,
                    Some(d) => {
                        let left = d.saturating_sub(self.start.elapsed());
                        if left.is_zero() {
                            return Some(RunOutcome::TimedOut {
                                at_step: self.full.len(),
                            });
                        }
                        self.supervision.round_timeout.min(left)
                    }
                };
                match self.slots[i].offer_rx.recv_timeout(wait) {
                    Ok(Ok(events)) => self.slots[i].state = SlotState::Offered(events),
                    Ok(Err(e)) => self.kill(i, FailureReason::EvalFailed(e.to_string())),
                    Err(RecvTimeoutError::Timeout) => {
                        if self.past_deadline() {
                            return Some(RunOutcome::TimedOut {
                                at_step: self.full.len(),
                            });
                        }
                        self.kill(i, FailureReason::Hung);
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        self.kill(i, FailureReason::Panicked);
                    }
                }
            }
            // Restart policies may have respawned threads that now owe us
            // their first (or post-replay) offer — loop until stable.
        }
    }

    /// Declares component `i` dead for `reason`, reaps its thread, and
    /// applies the restart policy.
    fn kill(&mut self, i: usize, reason: FailureReason) {
        if matches!(self.slots[i].state, SlotState::Dead) {
            return;
        }
        // If the thread is still running, poison it so it unwinds. A
        // blocking send: the capacity-1 buffer may still hold the
        // previous round's decision, which the component is about to
        // consume; `try_send` would drop the poison on the floor and the
        // join below would hang. Returns an error immediately if the
        // thread is already gone.
        let _ = self.slots[i].decision_tx.send(Decision::Poison);
        let panicked = match self.slots[i].handle.take() {
            Some(h) => h.join().is_err(),
            None => false,
        };
        // An injected crash unwinds too — keep the injected reason. A
        // reason of `Panicked` is only confirmed by the join result.
        let reason = match reason {
            FailureReason::Panicked if !panicked => FailureReason::ChannelClosed,
            r => r,
        };
        self.slots[i].state = SlotState::Dead;
        self.slots[i].stall_rounds = 0;
        let at_step = self.full.len();
        let label = self.net.components[i].label.clone();
        self.record_control(
            i,
            CausalEventKind::Death {
                detail: reason.to_string(),
            },
        );
        self.failures.push(ComponentFailure {
            index: i,
            label,
            at_step,
            reason,
            recovered: false,
        });
        self.collector.add("run.deaths", 1);

        match self.restart {
            RestartPolicy::FailStop => {}
            RestartPolicy::Replay | RestartPolicy::Reset => self.respawn(i),
        }
    }

    /// Respawns component `i` under the current restart policy and, for
    /// [`RestartPolicy::Replay`], fast-forwards it through its recorded
    /// history. On success the slot owes us a fresh offer; on failure it
    /// stays dead and the failure stays unrecovered.
    fn respawn(&mut self, i: usize) {
        if self.slots[i].restarts_used >= MAX_RESTARTS {
            return;
        }
        self.slots[i].restarts_used += 1;
        let restarts_used = self.slots[i].restarts_used;
        let mut fresh = spawn_component(
            self.scope,
            &self.net.components[i],
            self.defs,
            self.universe,
        );
        fresh.restarts_used = restarts_used;

        if self.restart == RestartPolicy::Replay {
            // State = function of channel history (§3): feed the new
            // thread the events the dead one took part in.
            fresh.advanced = std::mem::take(&mut self.slots[i].advanced);
            for &event in &fresh.advanced {
                let offered = match fresh.offer_rx.recv_timeout(self.supervision.round_timeout) {
                    Ok(Ok(events)) => events.contains(&event),
                    _ => false,
                };
                if !offered || fresh.decision_tx.send(Decision::Advance(event)).is_err() {
                    // Replay diverged (or the fresh thread died): give up
                    // on this component for good.
                    let _ = fresh.decision_tx.send(Decision::Poison);
                    if let Some(h) = fresh.handle.take() {
                        let _ = h.join();
                    }
                    self.record_control(
                        i,
                        CausalEventKind::Death {
                            detail: FailureReason::ReplayDiverged.to_string(),
                        },
                    );
                    self.failures.push(ComponentFailure {
                        index: i,
                        label: self.net.components[i].label.clone(),
                        at_step: self.full.len(),
                        reason: FailureReason::ReplayDiverged,
                        recovered: false,
                    });
                    self.collector.add("run.deaths", 1);
                    return;
                }
            }
        }

        fresh.state = SlotState::AwaitingOffer;
        self.slots[i] = fresh;
        if let Some(f) = self.failures.iter_mut().rev().find(|f| f.index == i) {
            f.recovered = true;
            self.collector.add("run.restarts", 1);
        }
        self.record_control(i, CausalEventKind::Restart);
    }

    /// Tears the network down: every live thread gets `Halt`, every
    /// thread gets joined. Runs on every exit path, so no component
    /// thread leaks past the end of a run.
    fn halt_and_join(&mut self) {
        for slot in &mut self.slots {
            if !matches!(slot.state, SlotState::Dead) {
                // Blocking send, not `try_send`: right after a decision
                // round the capacity-1 buffer may still hold an
                // unconsumed `Advance`, and a dropped `Halt`
                // would leave the component blocked on `recv` forever.
                let _ = slot.decision_tx.send(Decision::Halt);
            }
        }
        for slot in &mut self.slots {
            if let Some(h) = slot.handle.take() {
                // A panicked thread was either poisoned deliberately or
                // already recorded as a failure; swallow the payload so
                // the scope does not re-raise it.
                let _ = h.join();
            }
        }
    }
}

/// Spawns one component thread with bounded (capacity-1) channels in
/// both directions — the protocol is lock-step, so a runaway component
/// blocks on `send` instead of growing an unbounded queue.
fn spawn_component<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    comp: &Component,
    defs: &'env Definitions,
    universe: &'env Universe,
) -> Slot<'scope> {
    let (offer_tx, offer_rx) = std::sync::mpsc::sync_channel(1);
    let (decision_tx, decision_rx) = std::sync::mpsc::sync_channel::<Decision>(1);
    let comp = comp.clone();
    let handle = scope.spawn(move || {
        component_thread(comp, defs, universe, &offer_tx, &decision_rx);
    });
    Slot {
        state: SlotState::AwaitingOffer,
        stall_rounds: 0,
        restarts_used: 0,
        advanced: Vec::new(),
        offer_rx,
        decision_tx,
        handle: Some(handle),
    }
}

/// The per-component loop: offer, await decision, advance.
fn component_thread(
    comp: Component,
    defs: &Definitions,
    universe: &Universe,
    offer_tx: &SyncSender<Result<Vec<Event>, EvalError>>,
    decision_rx: &Receiver<Decision>,
) {
    let lts = Lts::new(defs, universe);
    let mut config = Config::new(comp.process, comp.env);
    loop {
        let steps = match lts.steps(&config) {
            Ok(s) => s,
            Err(e) => {
                let _ = offer_tx.send(Err(e));
                return;
            }
        };
        // Components are sequential: every step is visible.
        let mut events: Vec<Event> = steps
            .iter()
            .map(|s| match s {
                Step::Visible(e, _) => *e,
                Step::Internal(_) => unreachable!("sequential components have no hiding"),
            })
            .collect();
        events.sort();
        events.dedup();
        if offer_tx.send(Ok(events)).is_err() {
            return;
        }
        match decision_rx.recv() {
            Ok(Decision::Advance(e)) => {
                let next = steps.into_iter().find_map(|s| match s {
                    Step::Visible(ev, c) if ev == e => Some(c),
                    _ => None,
                });
                match next {
                    Some(c) => config = c,
                    None => {
                        // Coordinator advanced us past an event we did not
                        // offer — a coordinator bug; fail loudly via the
                        // offer channel on the next loop.
                        let _ = offer_tx.send(Err(EvalError::UndefinedProcess(format!(
                            "component advanced past unoffered event {e}"
                        ))));
                        return;
                    }
                }
            }
            Ok(Decision::Poison) => {
                // Die exactly as a buggy component would — by unwinding —
                // but without tripping the global panic hook's stderr
                // noise: the coordinator is about to reap us anyway.
                std::panic::resume_unwind(Box::new("injected component crash"));
            }
            Ok(Decision::Halt) | Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::RunOutcome;
    use csp_lang::examples;
    use std::time::Duration;

    #[test]
    fn pipeline_runs_and_copies() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 30,
                    scheduler: Scheduler::seeded(42),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert!(!res.deadlocked);
        assert_eq!(res.outcome, RunOutcome::Completed);
        assert_eq!(res.steps, 30);
        // The invariant output ≤ input holds on the visible trace.
        let h = res.visible.history();
        let output = h.on(&Channel::simple("output"));
        let input = h.on(&Channel::simple("input"));
        assert!(output.is_prefix_of(&input), "visible: {}", res.visible);
        // Hidden wire events were recorded in the full trace only.
        assert!(res.full.len() > res.visible.len());
        assert!(!res
            .visible
            .iter()
            .any(|e| e.channel() == &Channel::simple("wire")));
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let run = |seed| {
            exec.run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 20,
                    scheduler: Scheduler::seeded(seed),
                    ..RunOptions::default()
                },
            )
            .unwrap()
            .full
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn protocol_delivers_messages_in_order() {
        let defs = examples::protocol();
        let uni =
            Universe::new(0).with_named("M", [csp_trace::Value::nat(0), csp_trace::Value::nat(1)]);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "protocol",
                &Env::new(),
                RunOptions {
                    max_steps: 40,
                    scheduler: Scheduler::seeded(3),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let h = res.visible.history();
        let output = h.on(&Channel::simple("output"));
        let input = h.on(&Channel::simple("input"));
        assert!(output.is_prefix_of(&input), "visible: {}", res.visible);
    }

    #[test]
    fn multiplier_computes_scalar_products_live() {
        // Rows restricted to {0..2} so that the column partial sums stay
        // within the NAT bound used for the col-channel input sets
        // (max 2*2 + 3*2 + 5*2 = 20).
        let defs = csp_lang::parse_definitions(
            "mult[i:1..3] = row[i]?x:{0..2} -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]
             zeroes = col[0]!0 -> zeroes
             last = col[3]?y:NAT -> output!y -> last
             network = zeroes || mult[1] || mult[2] || mult[3] || last
             multiplier = chan col[0..3]; network",
        )
        .unwrap();
        let env = examples::multiplier_env(&[2, 3, 5]);
        let uni = Universe::new(20);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "multiplier",
                &env,
                RunOptions {
                    max_steps: 64,
                    scheduler: Scheduler::seeded(11),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let h = res.visible.history();
        let out = h.on(&Channel::simple("output"));
        assert!(!out.is_empty(), "no outputs in {}", res.visible);
        for i in 1..=out.len() {
            let expected: i64 = (1..=3)
                .map(|j| {
                    let vj = [2, 3, 5][j - 1];
                    let row = h.on(&Channel::indexed("row", j as i64));
                    vj * row.at(i).expect("row consumed").as_int().unwrap()
                })
                .sum();
            assert_eq!(out.at(i).unwrap().as_int().unwrap(), expected);
        }
    }

    #[test]
    fn mismatched_network_deadlocks() {
        let defs = csp_lang::parse_definitions(
            "left = w!1 -> STOP
             right = w?x:{2} -> STOP
             net = left || right",
        )
        .unwrap();
        let uni = Universe::new(3);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name("net", &Env::new(), RunOptions::default())
            .unwrap();
        assert!(res.deadlocked);
        assert_eq!(res.outcome, RunOutcome::Deadlocked);
        assert_eq!(res.steps, 0);
    }

    // ------------------------------------------------------ faults --

    #[test]
    fn injected_crash_fails_the_component_not_the_run() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 20,
                    scheduler: Scheduler::seeded(4),
                    faults: FaultPlan::none().crash("copier", 4),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        match &res.outcome {
            RunOutcome::ComponentFailed { label, at_step } => {
                assert_eq!(label, "copier");
                assert_eq!(*at_step, 4);
            }
            other => panic!("expected ComponentFailed, got {other:?}"),
        }
        assert_eq!(res.failures.len(), 1);
        assert_eq!(res.failures[0].reason, FailureReason::InjectedCrash);
        assert!(!res.failures[0].recovered);
        // The run degraded instead of erroring: the trace up to (and
        // possibly past) the crash is preserved.
        assert!(res.steps >= 4);
    }

    #[test]
    fn a_crash_and_replay_run_commits_its_pinned_trace() {
        // Seed 7, `copier` crashes at step 4 and is replayed. The trace
        // the run commits, concealed events included, is pinned event by
        // event: collecting offers differently must not change it.
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let res = Executor::new(&defs, &uni)
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 24,
                    scheduler: Scheduler::seeded(7),
                    faults: FaultPlan::none()
                        .crash("copier", 4)
                        .with_restart(RestartPolicy::Replay),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(res.outcome, RunOutcome::Completed);
        assert_eq!(res.recoveries(), 1);
        assert_eq!(
            res.full.to_string(),
            "<input.0, wire.0, input.0, output.0, wire.0, output.0, input.0, wire.0, \
             output.0, input.0, wire.0, output.0, input.0, wire.0, input.0, output.0, \
             wire.0, output.0, input.0, wire.0, input.1, output.0, wire.1, input.0>"
        );
    }

    #[test]
    fn crash_with_replay_is_transparent() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let healthy = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 24,
                    scheduler: Scheduler::seeded(9),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let faulty = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 24,
                    scheduler: Scheduler::seeded(9),
                    faults: FaultPlan::none()
                        .crash("copier", 6)
                        .with_restart(RestartPolicy::Replay),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        // Restart-by-replay reconstructs the component's state exactly
        // (state = function of history), so the faulty run is
        // indistinguishable from the healthy one.
        assert_eq!(faulty.outcome, RunOutcome::Completed);
        assert_eq!(faulty.full, healthy.full);
        assert_eq!(faulty.recoveries(), 1);
        assert_eq!(faulty.failures.len(), 1);
        assert!(faulty.failures[0].recovered);
    }

    #[test]
    fn stall_delays_but_preserves_behaviour() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 16,
                    scheduler: Scheduler::seeded(2),
                    faults: FaultPlan::none().stall("recopier", 2, 5),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(res.outcome, RunOutcome::Completed);
        assert!(res.failures.is_empty());
        let h = res.visible.history();
        assert!(h
            .on(&Channel::simple("output"))
            .is_prefix_of(&h.on(&Channel::simple("input"))));
    }

    #[test]
    fn an_idle_stall_passes_at_once_and_counts_its_rounds() {
        // The copier stalls before its first offer, and the recopier
        // waits on it: nothing can move until the stall ends.
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let run = |faults, collector| {
            exec.run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 6,
                    faults,
                    collector,
                    ..RunOptions::default()
                },
            )
            .unwrap()
        };
        let healthy = run(FaultPlan::none(), Collector::disabled());
        let rounds = |res: &RunResult| res.metrics.counter("run.rounds");
        let stalled = run(
            FaultPlan::none().stall("copier", 0, 1000),
            Collector::disabled(),
        );
        assert_eq!(stalled.full, healthy.full);
        assert_eq!(rounds(&stalled), rounds(&healthy) + 1000);
        // The live counter saturates with the run's own.
        let live = Collector::new();
        let forever = run(
            FaultPlan::none().stall("copier", 0, usize::MAX),
            live.clone(),
        );
        assert_eq!(forever.full, healthy.full);
        assert_eq!(rounds(&forever), u64::MAX);
        assert_eq!(live.snapshot().counter("run.rounds"), u64::MAX);
    }

    #[test]
    fn starvation_biases_the_schedule() {
        // Two independent producers; starving one means the other gets
        // every pick.
        let defs = csp_lang::parse_definitions(
            "a = left!0 -> a
             b = right!0 -> b
             net = a || b",
        )
        .unwrap();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "net",
                &Env::new(),
                RunOptions {
                    max_steps: 10,
                    scheduler: Scheduler::seeded(1),
                    faults: FaultPlan::none().starving(0usize),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(res.outcome, RunOutcome::Completed);
        assert!(
            res.full
                .iter()
                .all(|e| e.channel() == &Channel::simple("right")),
            "starved component still fired: {}",
            res.full
        );
    }

    #[test]
    fn livelock_detector_fires_on_concealed_spin() {
        // All communication is concealed: an observer sees nothing,
        // forever. The trace model calls this indistinguishable from
        // STOP (§4); the watchdog reports it.
        let defs = csp_lang::parse_definitions(
            "ping = w!0 -> ping
             pong = w?x:NAT -> pong
             spinner = chan w; (ping || pong)",
        )
        .unwrap();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "spinner",
                &Env::new(),
                RunOptions {
                    max_steps: 1000,
                    scheduler: Scheduler::seeded(0),
                    supervision: Supervision::default().with_livelock_window(32),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        match res.outcome {
            RunOutcome::Livelock { hidden_streak, .. } => assert_eq!(hidden_streak, 32),
            other => panic!("expected Livelock, got {other:?}"),
        }
        assert!(res.visible.is_empty());
    }

    #[test]
    fn deadline_bounds_the_run() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let started = Instant::now();
        let res = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: usize::MAX,
                    scheduler: Scheduler::seeded(0),
                    supervision: Supervision::default().with_deadline(Duration::from_millis(100)),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert!(matches!(res.outcome, RunOutcome::TimedOut { .. }));
        // Teardown is prompt: well under the 30s harness budget.
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn unknown_fault_target_is_a_setup_error() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let err = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    faults: FaultPlan::none().crash("ghost", 1),
                    ..RunOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::Fault(FaultError::UnknownComponent(_))
        ));
    }

    #[test]
    fn crash_then_reset_restart_can_change_visible_behaviour() {
        // The protocol sender alternates data and acknowledgement; a
        // reset forgets where in the cycle it was. The run keeps going —
        // but (unlike replay) it is no longer guaranteed to match the
        // healthy run.
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let exec = Executor::new(&defs, &uni);
        let res = exec
            .run_name(
                "pipeline",
                &Env::new(),
                RunOptions {
                    max_steps: 24,
                    scheduler: Scheduler::seeded(9),
                    faults: FaultPlan::none()
                        .crash("copier", 6)
                        .with_restart(RestartPolicy::Reset),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(res.outcome, RunOutcome::Completed);
        assert_eq!(res.recoveries(), 1);
    }
}
