//! Denotational semantics — §3.2 of the paper.
//!
//! Each process expression denotes a prefix-closed set of traces, built
//! with the operators of §3.1:
//!
//! * `⟦STOP⟧ = {<>}`,
//! * `⟦c!e → P⟧ = (c.⟦e⟧ → ⟦P⟧)`,
//! * `⟦c?x:M → P⟧ = ⋃_{v∈M} (c.v → ⟦P⟧ρ[v/x])`,
//! * `⟦P|Q⟧ = ⟦P⟧ ∪ ⟦Q⟧`,
//! * `⟦P‖Q⟧ = ⟦P⟧ ‖_{X,Y} ⟦Q⟧`,
//! * `⟦chan L; P⟧ = ⟦P⟧ \ L`,
//! * a process name denotes what the environment ρ ascribes to it.
//!
//! The equations are written out once. What varies is ρ, the one thing
//! the walk is parameterised by: [`Semantics::denote`] unfolds each name
//! into its definition (depth-bounded unfolding), and [`crate::fixpoint`]
//! reads it from the iterate `aᵢ` of §3.3's sequence `a₀ ⊆ a₁ ⊆ …`. The
//! two readings of recursion agree — see the crate tests.
//!
//! [`Semantics::denote`] returns **exactly** the traces of length ≤
//! `depth` of the full denotation, under two finiteness provisos
//! documented in `DESIGN.md`: unbounded message sets are restricted by
//! the [`Universe`], and each `chan L; …` body is explored to
//! `depth × hide_multiplier` events (hidden communications do not count
//! toward trace length, so a concealed body must be unfolded further than
//! the requested depth; raise the multiplier for networks with long
//! internal chatter per visible event).

use csp_lang::{operand_alphabet, resolve_chanrefs, Definitions, Env, EvalError, Expr, Process};
use csp_trace::{Event, TraceSet, Value};

use crate::{ProcKey, Universe};

/// Evaluator mapping process expressions to bounded trace sets.
///
/// # Examples
///
/// ```
/// use csp_lang::{examples, Env};
/// use csp_semantics::{Semantics, Universe};
///
/// let defs = examples::pipeline();
/// let uni = Universe::new(1); // NAT ↾ {0,1}
/// let sem = Semantics::new(&defs, &uni);
/// let traces = sem.denote_name("copier", &Env::new(), 4).unwrap();
/// // After <input.m, wire.m, input.m'> … every trace alternates copy steps.
/// assert!(traces.len() > 1);
/// assert!(traces.is_prefix_closed());
/// ```
#[derive(Debug, Clone)]
pub struct Semantics<'a> {
    defs: &'a Definitions,
    universe: &'a Universe,
    hide_multiplier: usize,
    fuel0: usize,
}

impl<'a> Semantics<'a> {
    /// Creates an evaluator over the given definitions and universe.
    pub fn new(defs: &'a Definitions, universe: &'a Universe) -> Self {
        Semantics {
            defs,
            universe,
            hide_multiplier: 3,
            fuel0: (defs.len() + 2).max(8),
        }
    }

    /// Sets how much deeper than the requested depth the bodies of
    /// `chan L; P` are explored (default 3×). See the module docs.
    #[must_use]
    pub fn with_hide_multiplier(mut self, m: usize) -> Self {
        self.hide_multiplier = m.max(1);
        self
    }

    /// The definitions this evaluator resolves names through.
    pub fn definitions(&self) -> &Definitions {
        self.defs
    }

    /// The finite universe used for `NAT` and named sets.
    pub fn universe(&self) -> &Universe {
        self.universe
    }

    /// The traces of `p` (interpreted in `env`) of length at most `depth`.
    ///
    /// # Errors
    ///
    /// Fails on undefined process names, unbound variables, unresolvable
    /// named sets, or ill-typed expressions.
    pub fn denote(&self, p: &Process, env: &Env, depth: usize) -> Result<TraceSet, EvalError> {
        self.eval(p, env, depth, &mut Rho::Unfold { fuel: self.fuel0 })
    }

    /// The traces of the named process, `⟦name⟧`, to the given depth.
    ///
    /// # Errors
    ///
    /// As for [`denote`](Self::denote); also fails if `name` is an array
    /// name (instantiate an element with
    /// [`Definitions::instantiate`](csp_lang::Definitions::instantiate)
    /// and use [`denote`](Self::denote) instead).
    pub fn denote_name(&self, name: &str, env: &Env, depth: usize) -> Result<TraceSet, EvalError> {
        self.denote(&Process::call(name), env, depth)
    }

    /// The traces of `p` to `depth` under §3.3's `ρ[aᵢ/p]`: each process
    /// instance a `Call` names at a remaining depth `d` is read as
    /// `read(instance, d)`, which returns `aᵢ[instance] ↾ d`.
    pub(crate) fn approximate(
        &self,
        p: &Process,
        env: &Env,
        depth: usize,
        read: &mut dyn FnMut(ProcKey, usize) -> TraceSet,
    ) -> Result<TraceSet, EvalError> {
        self.eval(p, env, depth, &mut Rho::Approx(read))
    }

    /// The depth the body of a `chan L; …` is read to when the hiding
    /// is wanted to `depth`: `depth × hide_multiplier`, saturating.
    pub(crate) fn hide_depth(&self, depth: usize) -> usize {
        depth.saturating_mul(self.hide_multiplier)
    }

    /// The §3.2 equations, one arm per construct, with process names read
    /// through `rho`. Left operands are evaluated before right ones.
    fn eval(
        &self,
        p: &Process,
        env: &Env,
        depth: usize,
        rho: &mut Rho<'_>,
    ) -> Result<TraceSet, EvalError> {
        match p {
            // Error holes denote STOP: the empty trace only (§2.2's
            // weakest process), so partial modules still have semantics.
            Process::Stop | Process::Error(_) => Ok(TraceSet::stop()),
            Process::Call { name, args } => match rho {
                // a₀-style truncation: deeper unfolding cannot
                // contribute traces within the remaining depth.
                Rho::Unfold { fuel } if *fuel == 0 || depth == 0 => Ok(TraceSet::stop()),
                Rho::Unfold { fuel } => {
                    let (body, scope) =
                        self.defs.resolve_call(name, &eval_args(args, env)?, env)?;
                    self.eval(body, &scope, depth, &mut Rho::Unfold { fuel: *fuel - 1 })
                }
                Rho::Approx(read) => Ok(read((name.clone(), eval_args(args, env)?), depth)),
            },
            Process::Output { chan, msg, then } => {
                if depth == 0 {
                    return Ok(TraceSet::stop());
                }
                let c = chan.resolve(env)?;
                let v = msg.eval(env)?;
                let inner = self.eval(then, env, depth - 1, &mut rho.past_event(self.fuel0))?;
                Ok(inner.prefixed(Event::new(c, v)))
            }
            Process::Input {
                chan,
                var,
                set,
                then,
            } => {
                if depth == 0 {
                    return Ok(TraceSet::stop());
                }
                let c = chan.resolve(env)?;
                let m = set.eval(env)?;
                let mut out = TraceSet::stop();
                for v in self.universe.enumerate(&m)? {
                    let scope = env.bind(var, v.clone());
                    let inner =
                        self.eval(then, &scope, depth - 1, &mut rho.past_event(self.fuel0))?;
                    out = out.union(&inner.prefixed(Event::new(c.clone(), v)));
                }
                Ok(out)
            }
            Process::Choice(a, b) => {
                let ta = self.eval(a, env, depth, rho)?;
                let tb = self.eval(b, env, depth, rho)?;
                Ok(ta.union(&tb))
            }
            Process::Parallel {
                left,
                right,
                left_alpha,
                right_alpha,
            } => {
                let x = operand_alphabet(left_alpha.as_deref(), left, self.defs, env)?;
                let y = operand_alphabet(right_alpha.as_deref(), right, self.defs, env)?;
                let tl = self.eval(left, env, depth, rho)?;
                let tr = self.eval(right, env, depth, rho)?;
                Ok(tl.parallel(&x, &tr, &y, depth))
            }
            Process::Hide { channels, body } => {
                let hidden = resolve_chanrefs(channels, env)?;
                let tb = self.eval(body, env, self.hide_depth(depth), rho)?;
                Ok(tb.hide(&hidden).up_to_depth(depth))
            }
        }
    }
}

/// ρ of §3.2: what a process name denotes while the equations are read.
enum Rho<'r> {
    /// Unfold the name's definition. `fuel` counts the unfoldings left
    /// before a chain of names with no communication between them is cut
    /// to `STOP`; every communication restores it.
    Unfold { fuel: usize },
    /// §3.3's `ρ[aᵢ/p]`: read the instance from the iterate `aᵢ`.
    Approx(&'r mut dyn FnMut(ProcKey, usize) -> TraceSet),
}

impl Rho<'_> {
    /// ρ below a communication: unfolding gets `fuel0` back.
    fn past_event(&mut self, fuel0: usize) -> Rho<'_> {
        match self {
            Rho::Unfold { .. } => Rho::Unfold { fuel: fuel0 },
            Rho::Approx(read) => Rho::Approx(&mut **read),
        }
    }
}

fn eval_args(args: &[Expr], env: &Env) -> Result<Vec<Value>, EvalError> {
    args.iter().map(|e| e.eval(env)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_lang::{examples, parse_definitions, parse_process, ChanRef};
    use csp_trace::{Trace, Value};

    fn tr(pairs: &[(&'static str, u32)]) -> Trace {
        Trace::parse_like(pairs.iter().map(|&(c, n)| (c, Value::nat(n))))
    }

    #[test]
    fn stop_denotes_singleton_empty() {
        let defs = Definitions::new();
        let uni = Universe::small();
        let sem = Semantics::new(&defs, &uni);
        let t = sem.denote(&Process::Stop, &Env::new(), 5).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn output_prefix_matches_paper_operator() {
        let defs = Definitions::new();
        let uni = Universe::small();
        let sem = Semantics::new(&defs, &uni);
        let p = parse_process("a!1 -> b!2 -> STOP").unwrap();
        let t = sem.denote(&p, &Env::new(), 5).unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.contains(&tr(&[("a", 1), ("b", 2)])));
        // Depth truncation:
        let t1 = sem.denote(&p, &Env::new(), 1).unwrap();
        assert_eq!(t1.len(), 2);
    }

    #[test]
    fn input_unions_over_the_message_set() {
        let defs = Definitions::new();
        let uni = Universe::new(2); // {0,1,2}
        let sem = Semantics::new(&defs, &uni);
        let p = parse_process("c?x:NAT -> d!x -> STOP").unwrap();
        let t = sem.denote(&p, &Env::new(), 2).unwrap();
        // <>, and for each m in {0,1,2}: <c.m> and <c.m, d.m>.
        assert_eq!(t.len(), 7);
        assert!(t.contains(&tr(&[("c", 1), ("d", 1)])));
        assert!(!t.contains(&tr(&[("c", 1), ("d", 2)])));
    }

    #[test]
    fn choice_is_union() {
        let defs = Definitions::new();
        let uni = Universe::small();
        let sem = Semantics::new(&defs, &uni);
        let p = parse_process("a!1 -> STOP | b!2 -> STOP").unwrap();
        let t = sem.denote(&p, &Env::new(), 3).unwrap();
        assert_eq!(t.len(), 3); // <>, <a.1>, <b.2>
    }

    #[test]
    fn copier_traces_match_paper_description() {
        // §1.0: all traces of the form <input.m, wire.m, …>.
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni);
        let t = sem.denote_name("copier", &Env::new(), 4).unwrap();
        assert!(t.contains(&tr(&[("input", 0), ("wire", 0), ("input", 1), ("wire", 1)])));
        // wire before input is impossible:
        assert!(!t.contains(&tr(&[("wire", 0)])));
        // wire must repeat the input value:
        assert!(!t.contains(&tr(&[("input", 0), ("wire", 1)])));
        // Depth 4, universe {0,1}: 1 + 2 + 2 + 4 + 4 traces.
        assert_eq!(t.len(), 13);
    }

    #[test]
    fn pipeline_synchronises_on_wire() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni);
        let p = parse_process("copier || recopier").unwrap();
        let t = sem.denote(&p, &Env::new(), 4).unwrap();
        assert!(t.contains(&tr(&[
            ("input", 1),
            ("wire", 1),
            ("output", 1),
            ("input", 0)
        ])));
        // recopier cannot output before the wire fires:
        assert!(!t.contains(&tr(&[("input", 1), ("output", 1)])));
    }

    #[test]
    fn hiding_the_wire_gives_output_le_input() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni);
        let t = sem.denote_name("pipeline", &Env::new(), 4).unwrap();
        // Visible alphabet only input/output:
        assert!(t.contains(&tr(&[
            ("input", 1),
            ("output", 1),
            ("input", 0),
            ("output", 0)
        ])));
        // And output ≤ input on every trace (§2's invariant):
        use csp_trace::Channel;
        for s in t.iter() {
            let h = s.history();
            assert!(
                h.on(&Channel::simple("output"))
                    .is_prefix_of(&h.on(&Channel::simple("input"))),
                "violates output ≤ input: {s}"
            );
        }
    }

    #[test]
    fn unguarded_recursion_denotes_stop() {
        // p = p has least fixed point {<>} (§3.3's a_i are all STOP).
        let defs = parse_definitions("p = p").unwrap();
        let uni = Universe::small();
        let sem = Semantics::new(&defs, &uni);
        let t = sem.denote_name("p", &Env::new(), 5).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn abbreviation_chains_resolve_within_fuel() {
        let defs = parse_definitions(
            "p = q
             q = r
             r = c!0 -> p",
        )
        .unwrap();
        let uni = Universe::small();
        let sem = Semantics::new(&defs, &uni);
        let t = sem.denote_name("p", &Env::new(), 2).unwrap();
        assert!(t.contains(&tr(&[("c", 0), ("c", 0)])));
    }

    #[test]
    fn array_calls_instantiate_parameters() {
        let defs = parse_definitions("q[x:0..3] = wire!x -> q[x+1 % 4]").unwrap();
        let uni = Universe::small();
        let sem = Semantics::new(&defs, &uni);
        let p = parse_process("q[2]").unwrap();
        let t = sem.denote(&p, &Env::new(), 2).unwrap();
        assert!(t.contains(&tr(&[("wire", 2), ("wire", 3)])));
    }

    #[test]
    fn protocol_example_has_only_input_output_visible() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let sem = Semantics::new(&defs, &uni);
        let t = sem.denote_name("protocol", &Env::new(), 2).unwrap();
        assert!(t.contains(&tr(&[("input", 1), ("output", 1)])));
        use csp_trace::Channel;
        let alpha = t.channels();
        assert!(!alpha.contains(&Channel::simple("wire")));
    }

    #[test]
    fn stop_choice_p_equals_p_in_model() {
        // §4's defect at the semantic level.
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni);
        let p = parse_process("STOP | copier").unwrap();
        let just_copier = sem.denote_name("copier", &Env::new(), 3).unwrap();
        let with_stop = sem.denote(&p, &Env::new(), 3).unwrap();
        assert_eq!(with_stop, just_copier);
    }

    #[test]
    fn explicit_alphabets_override_inference() {
        // Give the left process an alphabet that includes `b` so the
        // composition must synchronise on it; the left cannot do b, so b
        // never fires.
        let p = parse_process("(a!1 -> STOP) || (b!2 -> STOP)").unwrap();
        let (left, right) = match p {
            Process::Parallel { left, right, .. } => (left, right),
            other => panic!("unexpected {other:?}"),
        };
        let composed = Process::Parallel {
            left,
            right,
            left_alpha: Some(vec![ChanRef::simple("a"), ChanRef::simple("b")]),
            right_alpha: Some(vec![ChanRef::simple("b")]),
        };
        let defs = Definitions::new();
        let uni = Universe::small();
        let sem = Semantics::new(&defs, &uni);
        let t = sem.denote(&composed, &Env::new(), 3).unwrap();
        assert_eq!(t.len(), 2); // <> and <a.1> only
    }

    #[test]
    fn width_1_multiplier_outputs_scaled_rows() {
        // A width-1 instance of §1.3(5): output must be v[1] × row[1].
        // (The full width-3 network is exercised through the operational
        // semantics, which composes on the fly — see `lts.rs` and the
        // integration tests; the denotational evaluator is the exponential
        // reference implementation.)
        let defs = parse_definitions(&examples::multiplier_src(1)).unwrap();
        let env = examples::multiplier_env(&[3]);
        let uni = Universe::new(6); // rows 0..2 scaled by 3 stay in range
        let sem = Semantics::new(&defs, &uni).with_hide_multiplier(3);
        let t = sem.denote_name("multiplier", &env, 2).unwrap();
        use csp_trace::Channel;
        let mut outputs_seen = 0;
        for s in t.iter() {
            let h = s.history();
            let out = h.on(&Channel::simple("output"));
            if out.len() == 1 {
                outputs_seen += 1;
                let r1 = h
                    .on(&Channel::indexed("row", 1))
                    .at(1)
                    .unwrap()
                    .as_int()
                    .unwrap();
                assert_eq!(out.at(1).unwrap().as_int().unwrap(), 3 * r1);
            }
        }
        assert!(outputs_seen > 0, "no output event reached at this depth");
    }
}
