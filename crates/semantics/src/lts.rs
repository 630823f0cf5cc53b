//! Operational semantics: a labelled transition system over process
//! configurations.
//!
//! The paper defines processes denotationally; an implementation executes
//! them step by step. This module derives the transition relation from
//! the syntax and proves (in tests, and as property tests at the crate
//! root) that the traces it generates agree with the denotational model —
//! the standard "operational/denotational consistency" result the paper
//! leaves implicit.
//!
//! Compared with [`Semantics`](crate::Semantics) (which evaluates parallel
//! operands independently and merges whole trace sets), the LTS composes
//! *on the fly*: only reachable synchronisations are explored, which is
//! exponentially cheaper for networks like the multiplier array and is
//! what the benchmark harness uses for the larger experiments.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use csp_lang::{operand_alphabet, ChanRef, Definitions, Env, EvalError, Expr, Process};
use csp_trace::{ChannelSet, Event, Trace, TraceSet};

use crate::Universe;

/// A configuration: a process term plus the environment binding its free
/// variables (input payloads, array parameters, host constants).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Config {
    process: Arc<Process>,
    env: Env,
}

impl Config {
    /// Creates a configuration.
    pub fn new(process: Process, env: Env) -> Self {
        Config {
            process: Arc::new(process),
            env,
        }
    }

    /// A configuration sharing an existing term — successor construction
    /// in the transition relation reuses unchanged subterms this way.
    pub(crate) fn from_arc(process: Arc<Process>, env: Env) -> Self {
        Config { process, env }
    }

    /// The shared process term.
    pub(crate) fn process_arc(&self) -> &Arc<Process> {
        &self.process
    }

    /// The term closed with this configuration's own environment: what a
    /// `||` operand becomes after it moves. Operand environments can
    /// diverge (each side binds its own input variables), so a moved
    /// operand is closed before the network is rebuilt around it. Host
    /// constants (array cells like `v[1]`) are not variables and survive
    /// in the shared outer environment.
    pub(crate) fn closed(&self) -> Arc<Process> {
        close_arc(&self.process, &self.env)
    }

    /// The process term.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// The environment.
    pub fn env(&self) -> &Env {
        &self.env
    }
}

/// One transition out of a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// An externally visible communication.
    Visible(Event, Config),
    /// A communication concealed by `chan L; …`; it advances the network
    /// without extending the visible trace.
    Internal(Config),
}

/// The transition-system view of a definition list.
#[derive(Debug, Clone)]
pub struct Lts<'a> {
    defs: &'a Definitions,
    universe: &'a Universe,
    fuel0: usize,
}

impl<'a> Lts<'a> {
    /// Creates the LTS over the given definitions and universe.
    pub fn new(defs: &'a Definitions, universe: &'a Universe) -> Self {
        Lts {
            defs,
            universe,
            fuel0: (defs.len() + 2).max(8),
        }
    }

    /// The universe inputs and `NAT` range over.
    pub(crate) fn universe(&self) -> &'a Universe {
        self.universe
    }

    /// The calls [`steps`](Self::steps) unfolds before it gives up on an
    /// unguarded cycle.
    pub(crate) fn fuel(&self) -> usize {
        self.fuel0
    }

    /// The initial configuration for a named process.
    pub fn initial(&self, name: &str, env: &Env) -> Config {
        Config::new(Process::call(name), env.clone())
    }

    /// True when [`steps`](Self::steps) on `p` never reaches a call with
    /// its fuel spent: every chain of calls `p` unfolds before a prefix,
    /// read by definition name, is at most the fuel long. Then stepping
    /// any operand below the calls `p` unfolds gives the steps it gives
    /// with the full fuel. A chain through one name twice is unbounded.
    pub(crate) fn within_fuel(&self, p: &Process) -> bool {
        /// The longest such chain from `p`; `None` when unbounded. A name
        /// maps to `None` while its body is being read.
        fn depth<'d>(
            p: &'d Process,
            defs: &'d Definitions,
            memo: &mut BTreeMap<&'d str, Option<usize>>,
        ) -> Option<usize> {
            match p {
                Process::Stop
                | Process::Error(_)
                | Process::Output { .. }
                | Process::Input { .. } => Some(0),
                Process::Call { name, .. } => {
                    if let Some(&known) = memo.get(name.as_str()) {
                        return known.map(|d| d + 1);
                    }
                    memo.insert(name, None);
                    // An undefined name fails when it is unfolded.
                    let d = defs
                        .get(name)
                        .map_or(Some(0), |def| depth(def.body(), defs, memo));
                    memo.insert(name, d);
                    d.map(|d| d + 1)
                }
                Process::Choice(a, b)
                | Process::Parallel {
                    left: a, right: b, ..
                } => Some(depth(a, defs, memo)?.max(depth(b, defs, memo)?)),
                Process::Hide { body, .. } => depth(body, defs, memo),
            }
        }
        depth(p, self.defs, &mut BTreeMap::new()).is_some_and(|d| d <= self.fuel0)
    }

    /// All transitions enabled in `config`.
    ///
    /// # Errors
    ///
    /// Fails on undefined names, unbound variables, or unresolvable sets.
    pub fn steps(&self, config: &Config) -> Result<Vec<Step>, EvalError> {
        self.steps_at(&config.process, &config.env)
    }

    /// [`steps`](Self::steps) of a term in an environment, without
    /// packing them into a configuration first.
    pub(crate) fn steps_at(&self, p: &Process, env: &Env) -> Result<Vec<Step>, EvalError> {
        self.steps_inner(p, env, self.fuel0)
    }

    fn steps_inner(&self, p: &Process, env: &Env, fuel: usize) -> Result<Vec<Step>, EvalError> {
        match p {
            // Error holes behave like STOP: no transitions.
            Process::Stop | Process::Error(_) => Ok(Vec::new()),
            Process::Call { name, args } => {
                if fuel == 0 {
                    // Unguarded cycle: no transitions, like STOP — the
                    // least-fixed-point reading.
                    return Ok(Vec::new());
                }
                let vals = args
                    .iter()
                    .map(|e| e.eval(env))
                    .collect::<Result<Vec<_>, _>>()?;
                let (body, scope) = self.defs.resolve_call(name, &vals, env)?;
                self.steps_inner(body, &scope, fuel - 1)
            }
            Process::Output { chan, msg, then } => {
                let c = chan.resolve(env)?;
                let v = msg.eval(env)?;
                Ok(vec![Step::Visible(
                    Event::new(c, v),
                    Config::from_arc(Arc::clone(then), env.clone()),
                )])
            }
            Process::Input {
                chan,
                var,
                set,
                then,
            } => {
                let c = chan.resolve(env)?;
                let m = set.eval(env)?;
                let mut out = Vec::new();
                for v in self.universe.enumerate(&m)? {
                    out.push(Step::Visible(
                        Event::new(c.clone(), v.clone()),
                        Config::from_arc(Arc::clone(then), env.bind(var, v)),
                    ));
                }
                Ok(out)
            }
            Process::Choice(a, b) => {
                // Initial-choice semantics: the union of both arms'
                // transitions, matching ⟦P|Q⟧ = ⟦P⟧ ∪ ⟦Q⟧.
                let mut out = self.steps_inner(a, env, fuel)?;
                out.extend(self.steps_inner(b, env, fuel)?);
                Ok(out)
            }
            Process::Parallel {
                left,
                right,
                left_alpha,
                right_alpha,
            } => {
                // Alphabets are fixed at composition time (§1.2(7)); once
                // computed they are materialised into successor terms so
                // they do not drift as the operands evolve.
                let x = operand_alphabet(left_alpha.as_deref(), left, self.defs, env)?;
                let y = operand_alphabet(right_alpha.as_deref(), right, self.defs, env)?;
                let sync = x.intersection(&y);
                let ls = self.steps_inner(left, env, fuel)?;
                let rs = self.steps_inner(right, env, fuel)?;
                let mut out = Vec::new();
                let x_refs = channelset_to_refs(&x);
                let y_refs = channelset_to_refs(&y);
                // The side that did not move is the same for every
                // interleaved step: close it once and share it. Closing
                // is the identity on the (typical) already-closed operand,
                // in which case the term is shared rather than copied.
                let left_stat = close_arc(left, env);
                let right_stat = close_arc(right, env);
                let next = |l: Arc<Process>, r: Arc<Process>| {
                    Config::new(
                        Process::Parallel {
                            left: l,
                            right: r,
                            left_alpha: Some(x_refs.clone()),
                            right_alpha: Some(y_refs.clone()),
                        },
                        env.clone(),
                    )
                };
                // An operand's concealed step is a concealed step of the
                // network, at its place in the operand's row.
                for step in &ls {
                    match step {
                        Step::Internal(lc) => {
                            out.push(Step::Internal(next(lc.closed(), Arc::clone(&right_stat))));
                        }
                        Step::Visible(e, lc) if !sync.contains(e.channel()) => {
                            out.push(Step::Visible(
                                *e,
                                next(lc.closed(), Arc::clone(&right_stat)),
                            ));
                        }
                        Step::Visible(e, lc) => {
                            // Joint step: the right must offer the same event.
                            for rstep in &rs {
                                if let Step::Visible(e2, rc) = rstep {
                                    if e2 == e {
                                        out.push(Step::Visible(*e, next(lc.closed(), rc.closed())));
                                    }
                                }
                            }
                        }
                    }
                }
                for rstep in &rs {
                    match rstep {
                        Step::Internal(rc) => {
                            out.push(Step::Internal(next(Arc::clone(&left_stat), rc.closed())));
                        }
                        Step::Visible(e, rc) if !sync.contains(e.channel()) => {
                            out.push(Step::Visible(*e, next(Arc::clone(&left_stat), rc.closed())));
                        }
                        Step::Visible(..) => {}
                    }
                }
                Ok(out)
            }
            Process::Hide { channels, body } => {
                let hidden = csp_lang::resolve_chanrefs(channels, env)?;
                let mut out = Vec::new();
                // Successor configs are owned here, so the hiding wrapper is
                // rebuilt around the *moved* body term — no deep copy.
                let rewrap = |c: Config| {
                    Config::new(
                        Process::Hide {
                            channels: channels.clone(),
                            body: c.process,
                        },
                        c.env,
                    )
                };
                for step in self.steps_inner(body, env, fuel)? {
                    match step {
                        Step::Visible(e, c) if hidden.contains(e.channel()) => {
                            out.push(Step::Internal(rewrap(c)));
                        }
                        Step::Visible(e, c) => {
                            out.push(Step::Visible(e, rewrap(c)));
                        }
                        Step::Internal(c) => {
                            out.push(Step::Internal(rewrap(c)));
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// The set of visible traces of length at most `depth`, exploring at
    /// most `internal_budget` concealed communications along any path.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from [`steps`](Self::steps).
    pub fn traces_budgeted(
        &self,
        start: &Config,
        depth: usize,
        internal_budget: usize,
    ) -> Result<TraceSet, EvalError> {
        let mut out = TraceSet::stop();
        let mut seen: BTreeSet<(Trace, Config)> = BTreeSet::new();
        self.explore(
            start,
            depth,
            internal_budget,
            &Trace::empty(),
            &mut out,
            &mut seen,
        )?;
        Ok(out)
    }

    /// The set of visible traces of length at most `depth`, with
    /// `depth × 3` concealed communications along any path: the model's
    /// own measure, the events [`Semantics`](crate::Semantics) reads a
    /// `chan` body to (visible and concealed), so the two are compared
    /// as an oracle pair. A bounded search budgets by
    /// [`CONCEALED_PER_DEPTH`](crate::CONCEALED_PER_DEPTH) instead.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from [`steps`](Self::steps).
    pub fn traces(&self, start: &Config, depth: usize) -> Result<TraceSet, EvalError> {
        self.traces_budgeted(start, depth, depth * 3)
    }

    fn explore(
        &self,
        config: &Config,
        depth: usize,
        internal_budget: usize,
        prefix: &Trace,
        out: &mut TraceSet,
        seen: &mut BTreeSet<(Trace, Config)>,
    ) -> Result<(), EvalError> {
        // Dedup (trace, configuration) pairs to cut re-exploration of
        // confluent interleavings.
        if !seen.insert((prefix.clone(), config.clone())) {
            return Ok(());
        }
        out.insert_closed(prefix.clone());
        for step in self.steps(config)? {
            match step {
                Step::Visible(e, next) => {
                    if depth > 0 {
                        self.explore(
                            &next,
                            depth - 1,
                            internal_budget,
                            &prefix.snoc(e),
                            out,
                            seen,
                        )?;
                    }
                }
                Step::Internal(next) => {
                    if internal_budget > 0 {
                        self.explore(&next, depth, internal_budget - 1, prefix, out, seen)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Closes a term with the bindings of `env` that occur free in it; the
/// identity (sharing the term) when none does.
fn close_arc(p: &Arc<Process>, env: &Env) -> Arc<Process> {
    csp_lang::close_process_with(p, &|x| env.lookup(x).cloned())
}

/// Renders a concrete channel set back into constant channel references —
/// used to pin a parallel node's alphabets after first resolution.
pub(crate) fn channelset_to_refs(cs: &ChannelSet) -> Vec<ChanRef> {
    cs.iter()
        .map(|c| {
            ChanRef::with_indices(
                c.base(),
                c.indices().iter().map(|&i| Expr::int(i)).collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Semantics;
    use csp_lang::{examples, parse_definitions};
    use csp_trace::Value;

    fn tr(pairs: &[(&'static str, u32)]) -> Trace {
        Trace::parse_like(pairs.iter().map(|&(c, n)| (c, Value::nat(n))))
    }

    #[test]
    fn stop_has_no_steps() {
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let c = Config::new(Process::Stop, Env::new());
        assert!(lts.steps(&c).unwrap().is_empty());
    }

    #[test]
    fn output_offers_one_step_input_offers_universe() {
        let defs = Definitions::new();
        let uni = Universe::new(2);
        let lts = Lts::new(&defs, &uni);
        let c = Config::new(csp_lang::parse_process("a!7 -> STOP").unwrap(), Env::new());
        // a!7 with NAT bound 2 still fires: outputs are computed, not
        // enumerated.
        let uni_big = Universe::new(7);
        let _ = uni_big;
        let steps = lts.steps(&c).unwrap();
        assert_eq!(steps.len(), 1);
        let c2 = Config::new(
            csp_lang::parse_process("a?x:NAT -> STOP").unwrap(),
            Env::new(),
        );
        assert_eq!(lts.steps(&c2).unwrap().len(), 3);
    }

    #[test]
    fn lts_traces_agree_with_denotation_on_pipeline() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let lts = Lts::new(&defs, &uni);
        let sem = Semantics::new(&defs, &uni);
        let env = Env::new();
        for name in ["copier", "recopier", "pipeline"] {
            for depth in 0..=4 {
                let op = lts.traces(&lts.initial(name, &env), depth).unwrap();
                let den = sem.denote_name(name, &env, depth).unwrap();
                assert_eq!(op, den, "{name} at depth {depth}");
            }
        }
    }

    #[test]
    fn lts_traces_agree_with_denotation_on_protocol() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let lts = Lts::new(&defs, &uni);
        let sem = Semantics::new(&defs, &uni);
        let env = Env::new();
        for depth in 0..=3 {
            let op = lts.traces(&lts.initial("protocol", &env), depth).unwrap();
            let den = sem.denote_name("protocol", &env, depth).unwrap();
            assert_eq!(op, den, "protocol at depth {depth}");
        }
    }

    #[test]
    fn multiplier_outputs_scalar_products() {
        // The full §1.3(5) network, width 3, via on-the-fly composition.
        // Row inputs are restricted to {0,1} so the state space stays
        // small while column sums (up to 2+3+5 = 10) remain representable
        // under the NAT bound.
        let defs = parse_definitions(
            "mult[i:1..3] = row[i]?x:{0..1} -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]
             zeroes = col[0]!0 -> zeroes
             last = col[3]?y:NAT -> output!y -> last
             network = zeroes || mult[1] || mult[2] || mult[3] || last
             multiplier = chan col[0..3]; network",
        )
        .unwrap();
        let env = examples::multiplier_env(&[2, 3, 5]);
        let uni = Universe::new(10);
        let lts = Lts::new(&defs, &uni);
        let t = lts
            .traces_budgeted(&lts.initial("multiplier", &env), 4, 16)
            .unwrap();
        use csp_trace::Channel;
        let mut outputs = 0;
        for s in t.iter() {
            let h = s.history();
            let out = h.on(&Channel::simple("output"));
            if out.len() == 1 {
                outputs += 1;
                let r = |i: i64| {
                    h.on(&Channel::indexed("row", i))
                        .at(1)
                        .unwrap()
                        .as_int()
                        .unwrap()
                };
                assert_eq!(
                    out.at(1).unwrap().as_int().unwrap(),
                    2 * r(1) + 3 * r(2) + 5 * r(3),
                    "wrong scalar product in {s}"
                );
            }
        }
        assert!(outputs > 0, "no complete round explored");
    }

    #[test]
    fn hidden_events_do_not_appear_in_traces() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let lts = Lts::new(&defs, &uni);
        let t = lts
            .traces(&lts.initial("pipeline", &Env::new()), 3)
            .unwrap();
        use csp_trace::Channel;
        assert!(!t.channels().contains(&Channel::simple("wire")));
        assert!(t.contains(&tr(&[("input", 1), ("output", 1)])));
    }

    #[test]
    fn internal_budget_bounds_hidden_chatter() {
        // A process whose only behaviour is hidden: chan a; loop.
        let defs = parse_definitions("loop = a!0 -> loop").unwrap();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let hidden = csp_lang::parse_process("chan a; loop").unwrap();
        let c = Config::new(hidden, Env::new());
        // Must terminate despite the unbounded internal loop.
        let t = lts.traces_budgeted(&c, 3, 5).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn choice_steps_union_both_arms() {
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let c = Config::new(
            csp_lang::parse_process("a!1 -> STOP | b!2 -> STOP").unwrap(),
            Env::new(),
        );
        assert_eq!(lts.steps(&c).unwrap().len(), 2);
    }

    #[test]
    fn mismatched_sync_deadlocks() {
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let c = Config::new(
            csp_lang::parse_process("(w!1 -> STOP) || (w!2 -> STOP)").unwrap(),
            Env::new(),
        );
        assert!(lts.steps(&c).unwrap().is_empty());
    }

    #[test]
    fn operand_hidden_steps_are_network_hidden_steps() {
        // The left operand conceals a.1, which it must take before it can
        // offer b.2: the network takes it as a hidden step of its own.
        // The mirror image must agree, and so must the denotation (§3).
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let sem = Semantics::new(&defs, &uni);
        let want = TraceSet::closure_of([tr(&[("b", 2), ("c", 3)]), tr(&[("c", 3), ("b", 2)])]);
        for src in [
            "(chan a; a!1 -> b!2 -> STOP) || (c!3 -> STOP)",
            "(c!3 -> STOP) || (chan a; a!1 -> b!2 -> STOP)",
        ] {
            let p = csp_lang::parse_process(src).unwrap();
            let op = lts.traces(&Config::new(p.clone(), Env::new()), 3).unwrap();
            assert_eq!(op, want, "operational traces of {src}");
            let den = sem.denote(&p, &Env::new(), 3).unwrap();
            assert_eq!(den, want, "denotation of {src}");
        }
    }

    #[test]
    fn alphabets_are_pinned_at_composition() {
        // P = a!1 -> STOP, Q = a?x -> a?x -> STOP. After the joint a.1,
        // P is STOP — but a stays in P's alphabet, so Q cannot continue
        // alone.
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let lts = Lts::new(&defs, &uni);
        let c = Config::new(
            csp_lang::parse_process("(a!1 -> STOP) || (a?x:NAT -> a?y:NAT -> STOP)").unwrap(),
            Env::new(),
        );
        let t = lts.traces(&c, 3).unwrap();
        assert!(t.contains(&tr(&[("a", 1)])));
        assert_eq!(t.depth(), 1, "Q escaped the pinned alphabet: {t}");
    }
}
