//! Bounded model checking of `P sat R`.
//!
//! §2 defines `P sat R` as "`R` is true before and after every
//! communication by `P`" — semantically (§3.3),
//! `∀s ∈ ⟦P⟧. (ρ + ch(s))⟦R⟧`. Because `⟦P⟧` is prefix-closed, checking
//! every member trace up to a depth checks every intermediate moment up
//! to that depth. The checker explores traces through the operational
//! semantics (which composes networks on the fly), lists them as a
//! [`TraceTree`] (each trace its parent plus one communication), judges
//! each on a channel history that moves through the tree from trace to
//! trace, and reports the least counterexample trace, making it the
//! refutation-complete companion to the symbolic proof system: everything
//! `csp-proof` proves is also model-checked in this crate's tests. The
//! process decides which walk lists its traces ([`Engine::for_process`]):
//! the compiled arena for a network, the enumerative walk for a
//! sequential term, whose set is read as a tree.

use csp_assert::{AssertError, Assertion, CompiledAssertion, FuncTable};
use csp_lang::{Definitions, Env, Process};
use csp_obs::{Collector, Span};
use csp_semantics::{CompiledLts, Config, Engine, Lts, Universe, CONCEALED_PER_DEPTH};
use csp_trace::{History, Trace, TraceTree};

/// The verdict of a bounded satisfaction check.
#[derive(Debug, Clone)]
pub enum SatResult {
    /// Every explored trace satisfied the assertion.
    Holds {
        /// Number of traces (moments) checked.
        traces_checked: usize,
        /// The exploration depth.
        depth: usize,
        /// The backend that produced the verdict.
        engine: Engine,
    },
    /// A reachable trace falsifies the assertion.
    Counterexample {
        /// The falsifying trace.
        trace: Trace,
        /// The backend that produced the verdict.
        engine: Engine,
    },
}

impl SatResult {
    /// True if no counterexample was found.
    pub fn holds(&self) -> bool {
        matches!(self, SatResult::Holds { .. })
    }

    /// The backend that answered.
    pub fn engine(&self) -> Engine {
        match self {
            SatResult::Holds { engine, .. } | SatResult::Counterexample { engine, .. } => *engine,
        }
    }
}

/// A bounded `sat` checker over a definition list.
#[derive(Debug, Clone)]
pub struct SatChecker<'a> {
    defs: &'a Definitions,
    universe: &'a Universe,
    funcs: FuncTable,
    env: Env,
    collector: Collector,
}

impl<'a> SatChecker<'a> {
    /// Creates a checker with the built-in sequence functions and an
    /// empty host environment.
    pub fn new(defs: &'a Definitions, universe: &'a Universe) -> Self {
        SatChecker {
            defs,
            universe,
            funcs: FuncTable::with_builtins(),
            env: Env::new(),
            collector: Collector::disabled(),
        }
    }

    /// Replaces the host environment (e.g. the multiplier's vector).
    #[must_use]
    pub fn with_env(mut self, env: Env) -> Self {
        self.env = env;
        self
    }

    /// Replaces the sequence-function table.
    #[must_use]
    pub fn with_funcs(mut self, funcs: FuncTable) -> Self {
        self.funcs = funcs;
        self
    }

    /// Attaches an observation stream: each check records a `satcheck`
    /// span (with exploration and moment counts; for the compiled engine
    /// also the arena's states, transitions, component rows, whole-term
    /// fallback rows, decompositions and the walk's `(trace, state)`
    /// visits) and per-phase child spans. Disabled by default.
    #[must_use]
    pub fn with_collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Checks `process sat assertion` over all traces up to `depth`,
    /// reached with at most `depth ×`
    /// [`CONCEALED_PER_DEPTH`] concealed steps along any path.
    ///
    /// Every distinct trace is judged once, on the calling thread, and the
    /// answer is the one a scan of the traces in sorted order would give:
    /// the counterexample is the least refuting trace, and an evaluation
    /// error is returned only when its trace comes before every refuting
    /// one.
    ///
    /// # Errors
    ///
    /// Returns an [`AssertError`] if the assertion itself cannot be
    /// evaluated (unknown function, unbound variable), and wraps
    /// evaluation errors from trace exploration the same way.
    pub fn check(
        &self,
        process: &Process,
        assertion: &Assertion,
        depth: usize,
    ) -> Result<SatResult, AssertError> {
        let mut root = self.collector.span("satcheck");
        root.record("depth", depth);
        let engine = Engine::for_process(self.defs, process);
        root.record("engine", engine.as_str());
        let start = Config::new(process.clone(), self.env.clone());
        let explore_span = root.child("satcheck.explore");
        let budget = depth * CONCEALED_PER_DEPTH;
        // The compiled walk numbers each trace after its parent, so the
        // history mostly moves by one event; the enumerative set is read
        // in hash order, and the verdict does not depend on the order.
        let tree = match engine {
            Engine::Compiled => {
                let mut compiled = CompiledLts::new(self.defs, self.universe);
                let s = compiled.intern(start);
                let tree = compiled
                    .trace_tree(s, depth, budget)
                    .map_err(AssertError::Eval)?;
                for (field, counter, n) in [
                    ("states", "satcheck.states", compiled.num_states()),
                    (
                        "transitions",
                        "satcheck.transitions",
                        compiled.num_transitions(),
                    ),
                    (
                        "component_rows",
                        "satcheck.component_rows",
                        compiled.num_component_rows(),
                    ),
                    (
                        "fallback_rows",
                        "satcheck.fallback_rows",
                        compiled.num_fallback_rows(),
                    ),
                    (
                        "decompositions",
                        "satcheck.decompositions",
                        compiled.num_decompositions(),
                    ),
                    ("visits", "satcheck.visits", compiled.num_visits()),
                ] {
                    root.record(field, n);
                    self.collector.add(counter, n as u64);
                }
                tree
            }
            Engine::Enumerative => {
                let traces = Lts::new(self.defs, self.universe)
                    .traces_budgeted(&start, depth, budget)
                    .map_err(AssertError::Eval)?;
                TraceTree::of_set(&traces)
            }
        };
        // Freeing the arena or the set is exploration's cost, not
        // judging's.
        explore_span.end();
        let result = self.judge(&mut root, &tree, assertion, depth, engine)?;
        root.record("counterexample", !result.holds());
        Ok(result)
    }

    /// Evaluates the assertion at every trace of `tree`, in number order,
    /// on one `ch(s)` that moves from trace to trace: up to their deepest
    /// common ancestor, then down to the next trace; no trace is built to
    /// be judged. The assertion is compiled once against ρ and the
    /// function table, and the quantifier values it binds are counted.
    /// The answer is decided by the least trace, in [`Trace`] order, on
    /// which the assertion is false (a counterexample) or fails to
    /// evaluate (the error); traces above the least such trace found so
    /// far cannot change it and are skipped. Only that trace is built.
    fn judge(
        &self,
        root: &mut Span,
        tree: &TraceTree,
        assertion: &Assertion,
        depth: usize,
        engine: Engine,
    ) -> Result<SatResult, AssertError> {
        let moments = tree.len();
        root.record("moments", moments);
        self.collector.add("satcheck.moments", moments as u64);
        let verdicts = root.child("satcheck.verdicts");
        let mut compiled = CompiledAssertion::new(assertion, &self.env, &self.funcs, self.universe);
        let mut history = History::empty();
        let mut at = tree.root();
        // The events from the common ancestor down to the next trace,
        // last first.
        let mut down = Vec::new();
        let mut least: Option<(u32, Result<(), AssertError>)> = None;
        for n in (0..moments).map(|n| n as u32) {
            if least
                .as_ref()
                .is_some_and(|(failing, _)| tree.cmp(n, *failing).is_gt())
            {
                continue;
            }
            let common = tree.common_ancestor(at, n);
            for e in tree.ascend(at, common) {
                history.pop(e.channel());
            }
            down.extend(tree.ascend(n, common));
            for e in down.drain(..).rev() {
                history.push(e.channel(), e.value().clone());
            }
            at = n;
            match compiled.holds(&history) {
                Ok(true) => {}
                Ok(false) => least = Some((n, Ok(()))),
                Err(e) => least = Some((n, Err(e))),
            }
        }
        verdicts.end();
        root.record("bindings", compiled.bindings());
        self.collector.add("satcheck.bindings", compiled.bindings());
        match least {
            None => Ok(SatResult::Holds {
                traces_checked: moments,
                depth,
                engine,
            }),
            Some((n, Ok(()))) => Ok(SatResult::Counterexample {
                trace: tree.trace(n),
                engine,
            }),
            Some((_, Err(e))) => Err(e),
        }
    }

    /// Convenience: checks a named process.
    ///
    /// # Errors
    ///
    /// As for [`check`](Self::check).
    pub fn check_name(
        &self,
        name: &str,
        assertion: &Assertion,
        depth: usize,
    ) -> Result<SatResult, AssertError> {
        self.check(&Process::call(name), assertion, depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_assert::{parse_assertion, ChannelInfo};
    use csp_lang::examples;
    use csp_trace::Value;

    fn info() -> ChannelInfo {
        ChannelInfo::new()
            .with_channels(["input", "wire", "output"])
            .with_arrays(["row", "col"])
            .with_funcs(["f"])
    }

    #[test]
    fn copier_satisfies_wire_le_input() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("wire <= input", &info()).unwrap();
        let res = checker.check_name("copier", &r, 5).unwrap();
        match res {
            SatResult::Holds { traces_checked, .. } => assert!(traces_checked > 10),
            SatResult::Counterexample { trace, .. } => panic!("spurious cex: {trace}"),
        }
    }

    #[test]
    fn copier_refutes_wrong_direction() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("input <= wire", &info()).unwrap();
        let res = checker.check_name("copier", &r, 4).unwrap();
        match res {
            SatResult::Counterexample { trace, .. } => {
                // Minimal counterexample: one input, no wire yet.
                assert_eq!(trace.len(), 1);
            }
            SatResult::Holds { .. } => panic!("should be refuted"),
        }
    }

    #[test]
    fn copier_length_bound_holds() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("#input <= #wire + 1", &info()).unwrap();
        assert!(checker.check_name("copier", &r, 6).unwrap().holds());
        // The tight version without the +1 slack fails:
        let tight = parse_assertion("#input <= #wire", &info()).unwrap();
        assert!(!checker.check_name("copier", &tight, 6).unwrap().holds());
    }

    #[test]
    fn protocol_satisfies_output_le_input() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("output <= input", &info()).unwrap();
        assert!(checker.check_name("protocol", &r, 3).unwrap().holds());
    }

    #[test]
    fn sender_satisfies_table1_invariant() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("f(wire) <= input", &info()).unwrap();
        assert!(checker.check_name("sender", &r, 5).unwrap().holds());
    }

    #[test]
    fn receiver_satisfies_exercise_invariant() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("output <= f(wire)", &info()).unwrap();
        assert!(checker.check_name("receiver", &r, 5).unwrap().holds());
    }

    #[test]
    fn multiplier_scalar_product_invariant() {
        // Experiment E4: the §2 claim
        //   output_i = Σ_j v[j] × row[j]_i
        // verified by bounded model checking on the width-3 network.
        let defs = csp_lang::parse_definitions(
            "mult[i:1..3] = row[i]?x:{0..1} -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]
             zeroes = col[0]!0 -> zeroes
             last = col[3]?y:NAT -> output!y -> last
             network = zeroes || mult[1] || mult[2] || mult[3] || last
             multiplier = chan col[0..3]; network",
        )
        .unwrap();
        let env = examples::multiplier_env(&[2, 3, 5]);
        let uni = Universe::new(10);
        let checker = SatChecker::new(&defs, &uni).with_env(env);
        let r = parse_assertion(
            "forall i:NAT. 1 <= i and i <= #output => \
             output[i] == v[1]*row[1][i] + v[2]*row[2][i] + v[3]*row[3][i]",
            &info(),
        )
        .unwrap();
        let res = checker.check_name("multiplier", &r, 4).unwrap();
        assert!(res.holds(), "{res:?}");
        // And a deliberately wrong vector index refutes:
        let wrong = parse_assertion(
            "forall i:NAT. 1 <= i and i <= #output => output[i] == v[1]*row[1][i]",
            &info(),
        )
        .unwrap();
        assert!(!checker.check_name("multiplier", &wrong, 4).unwrap().holds());
    }

    #[test]
    fn the_process_picks_the_backend() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("output <= input", &info()).unwrap();
        let wrong = parse_assertion("input <= output", &info()).unwrap();
        // A lone sequential component runs on the trace walk, the
        // hidden-wire network on the arena; each reports itself.
        for (name, engine) in [
            ("copier", Engine::Enumerative),
            ("pipeline", Engine::Compiled),
        ] {
            let holds = checker.check_name(name, &r, 4).unwrap();
            assert!(holds.holds(), "{name}");
            assert_eq!(holds.engine(), engine, "{name}");
            let refuted = checker.check_name(name, &wrong, 4).unwrap();
            assert!(!refuted.holds(), "{name}");
            assert_eq!(refuted.engine(), engine, "{name}");
        }
    }

    #[test]
    fn least_failing_trace_decides_between_refutation_and_error() {
        // The compiled walk reaches `<c.0>` before `<a.0>`, but `<a.0>`
        // comes first in trace order, so it decides the answer either way.
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let seq = csp_lang::parse_process("c!0 -> STOP | a!0 -> STOP").unwrap();
        // Hiding an unused channel gives the same traces a network form,
        // so the compiled judge answers.
        let net = csp_lang::parse_process("chan b; (c!0 -> STOP | a!0 -> STOP)").unwrap();
        let info = ChannelInfo::new().with_channels(["a", "b", "c"]);
        // `<a.0>` refutes; `<c.0>` compares the symbol `ACK` with `<=`.
        let refutes_at_a =
            parse_assertion("#a == 0 and (#c == 0 or (ACK ^ b)[#c] <= 1)", &info).unwrap();
        // The roles swapped: `<a.0>` fails to evaluate, `<c.0>` refutes.
        let fails_at_a =
            parse_assertion("#c == 0 and (#a == 0 or (ACK ^ b)[#a] <= 1)", &info).unwrap();
        let a0 = Trace::parse_like([("a", Value::nat(0))]);
        let c0 = Trace::parse_like([("c", Value::nat(0))]);
        let mut compiled = CompiledLts::new(&defs, &uni);
        let start = compiled.intern(Config::new(net.clone(), Env::new()));
        let listed = compiled.trace_list(start, 1, 3).unwrap();
        let at = |t: &Trace| listed.iter().position(|l| l == t).unwrap();
        assert!(at(&c0) < at(&a0), "{listed:?}");
        let checker = SatChecker::new(&defs, &uni);
        for (p, engine) in [(&seq, Engine::Enumerative), (&net, Engine::Compiled)] {
            match checker.check(p, &refutes_at_a, 1) {
                Ok(SatResult::Counterexample { trace, engine: e }) => {
                    assert_eq!((trace, e), (a0.clone(), engine));
                }
                other => panic!("{engine:?}: {other:?}"),
            }
            assert!(
                matches!(
                    checker.check(p, &fails_at_a, 1),
                    Err(AssertError::Eval(csp_lang::EvalError::TypeMismatch { .. }))
                ),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn stop_satisfies_everything_satisfiable_at_empty() {
        // §4: "the process STOP satisfies any satisfiable invariant
        // whatsoever" — the partial-correctness defect.
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let checker = SatChecker::new(&defs, &uni);
        let r = parse_assertion("output <= input", &info()).unwrap();
        let res = checker.check(&Process::Stop, &r, 5).unwrap();
        match res {
            SatResult::Holds { traces_checked, .. } => assert_eq!(traces_checked, 1),
            other => panic!("{other:?}"),
        }
    }
}
