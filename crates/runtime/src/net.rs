//! Network extraction: a process expression as its sequential
//! components and the `||`/`chan` tree that joins them.
//!
//! The paper's networks are *static*: `‖` and `chan` appear outside all
//! communication prefixes (e.g. `multiplier = chan col[0..3]; (zeroes ||
//! mult[1] || … || last)`). [`flatten`] unfolds such a network into its
//! components — each becomes a thread — and records the tree above them
//! as a [`Shape`]: a `||` node holds the channels its operands share,
//! `X ∩ Y` (§1.2(7)), and a `chan` node the channels it conceals
//! (§1.2(8)). [`Shape::moves`] is the binary rule the executor moves the
//! network by. A component that reaches `||` or `chan` through its calls
//! would need dynamic process creation, which the paper's language
//! cannot express anyway (recursion is the only control structure); it
//! is refused.

use csp_lang::{
    channel_uses, operand_alphabet, reaches_network, resolve_chanrefs, Definitions, Env, EvalError,
    Process,
};
use csp_trace::{ChannelSet, Event};

/// One sequential component of a network.
#[derive(Debug, Clone)]
pub struct Component {
    /// Display name (the call text or a positional label).
    pub label: String,
    /// The component's process term (reaches no `‖` or `chan`).
    pub process: Process,
    /// The environment it runs in.
    pub env: Env,
    /// Its channel alphabet — the alphabet of the `||` operand it fills,
    /// or its own channels outside any `||`. Description only: which
    /// components an event needs is the network's `||`/`chan` tree's to
    /// say.
    pub alphabet: ChannelSet,
    /// The channels it can *write* on (output position `c!e`) — used to
    /// orient committed communications (sender vs. readers) in the
    /// causal log.
    pub writes: ChannelSet,
}

/// How a network's components compose: the `||` and `chan` tree above
/// them, with every alphabet resolved.
#[derive(Debug, Clone)]
pub(crate) enum Shape {
    /// The component at this index of [`Network::components`].
    Leaf(usize),
    /// `left ||_{X,Y} right`: an event on a channel in `sync`, `X ∩ Y`,
    /// needs both sides.
    Parallel {
        left: Box<Shape>,
        right: Box<Shape>,
        sync: ChannelSet,
    },
    /// `chan hidden; body`.
    Hide {
        hidden: ChannelSet,
        body: Box<Shape>,
    },
}

/// One way a network can move: an event, the components that take part
/// in it (in index order), and whether a `chan` conceals it. Moves order
/// by event, then participants.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Move {
    pub(crate) event: Event,
    pub(crate) participants: Vec<usize>,
    pub(crate) hidden: bool,
}

impl Shape {
    /// The moves the tree allows when component `i` offers `offers(i)`:
    /// a leaf moves alone on its offers; a `chan` node conceals its
    /// channels' events; a `||` node lets an operand's move through alone
    /// when it is concealed or outside `X ∩ Y`, and joins a left and a
    /// right move on the same shared event (§1.2(7)–(8)).
    pub(crate) fn moves<'o>(&self, offers: &impl Fn(usize) -> &'o [Event]) -> Vec<Move> {
        match self {
            Shape::Leaf(i) => offers(*i)
                .iter()
                .map(|&event| Move {
                    event,
                    participants: vec![*i],
                    hidden: false,
                })
                .collect(),
            Shape::Hide { hidden, body } => {
                let mut moves = body.moves(offers);
                for m in &mut moves {
                    m.hidden |= hidden.contains(m.event.channel());
                }
                moves
            }
            Shape::Parallel { left, right, sync } => {
                let alone = |m: &Move| m.hidden || !sync.contains(m.event.channel());
                let rights = right.moves(offers);
                let mut out = Vec::new();
                for l in left.moves(offers) {
                    if alone(&l) {
                        out.push(l);
                        continue;
                    }
                    for r in rights.iter().filter(|r| !r.hidden && r.event == l.event) {
                        out.push(Move {
                            event: l.event,
                            participants: [&l.participants[..], &r.participants].concat(),
                            hidden: false,
                        });
                    }
                }
                out.extend(rights.into_iter().filter(alone));
                out
            }
        }
    }
}

/// A flattened network ready for execution.
#[derive(Debug, Clone)]
pub struct Network {
    /// The sequential components, left to right.
    pub components: Vec<Component>,
    /// How they compose.
    pub(crate) shape: Shape,
    /// Every channel some `chan` conceals. Description only: whether an
    /// event is concealed depends on where in the tree it happens.
    pub hidden: ChannelSet,
}

/// Errors raised while flattening.
#[derive(Debug)]
pub enum NetError {
    /// A component — a term below every `‖` and `chan` the network
    /// unfolds to — reaches `‖` or `chan`, directly or through its calls,
    /// which the thread-per-component runtime cannot execute.
    NotStatic {
        /// The offending sub-term.
        offending: String,
    },
    /// Evaluation failed (undefined name, unbound subscript, …).
    Eval(EvalError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NotStatic { offending } => write!(
                f,
                "network is not static: component `{offending}` reaches || or chan"
            ),
            NetError::Eval(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for NetError {}

impl From<EvalError> for NetError {
    fn from(e: EvalError) -> Self {
        NetError::Eval(e)
    }
}

/// Flattens `p` into a [`Network`]. A name is unfolded when it reaches
/// network structure; other names stay folded and unfold lazily during
/// execution.
///
/// # Errors
///
/// Returns [`NetError::NotStatic`] when a component reaches `||` or
/// `chan`, and [`NetError::Eval`] for resolution failures.
pub fn flatten(p: &Process, defs: &Definitions, env: &Env) -> Result<Network, NetError> {
    let mut flat = Flattener {
        defs,
        components: Vec::new(),
        hidden: ChannelSet::new(),
        unfolding: Vec::new(),
    };
    let shape = flat.walk(p, env, None)?;
    Ok(Network {
        components: flat.components,
        shape,
        hidden: flat.hidden,
    })
}

struct Flattener<'d> {
    defs: &'d Definitions,
    components: Vec<Component>,
    hidden: ChannelSet,
    /// The names being unfolded, to refuse a network that calls itself
    /// before it communicates.
    unfolding: Vec<String>,
}

impl Flattener<'_> {
    /// Flattens `p`, which fills a `||` operand of alphabet `operand`
    /// (`None` above every `||`), and returns its shape.
    fn walk(
        &mut self,
        p: &Process,
        env: &Env,
        operand: Option<&ChannelSet>,
    ) -> Result<Shape, NetError> {
        match p {
            Process::Parallel {
                left,
                right,
                left_alpha,
                right_alpha,
            } => {
                let x = operand_alphabet(left_alpha.as_deref(), left, self.defs, env)?;
                let y = operand_alphabet(right_alpha.as_deref(), right, self.defs, env)?;
                Ok(Shape::Parallel {
                    left: Box::new(self.walk(left, env, Some(&x))?),
                    right: Box::new(self.walk(right, env, Some(&y))?),
                    sync: x.intersection(&y),
                })
            }
            Process::Hide { channels, body } => {
                let hidden = resolve_chanrefs(channels, env)?;
                let body = Box::new(self.walk(body, env, operand)?);
                self.hidden.extend(hidden.iter().cloned());
                Ok(Shape::Hide { hidden, body })
            }
            _ if !reaches_network(self.defs, p) => self.push_component(p, env, operand),
            Process::Call { name, args } if !self.unfolding.contains(name) => {
                let vals = args
                    .iter()
                    .map(|e| e.eval(env))
                    .collect::<Result<Vec<_>, _>>()?;
                let (body, scope) = self.defs.resolve_call(name, &vals, env)?;
                self.unfolding.push(name.clone());
                let shape = self.walk(body, &scope, operand);
                self.unfolding.pop();
                shape
            }
            _ => Err(NetError::NotStatic {
                offending: p.to_string(),
            }),
        }
    }

    fn push_component(
        &mut self,
        p: &Process,
        env: &Env,
        operand: Option<&ChannelSet>,
    ) -> Result<Shape, NetError> {
        let uses = channel_uses(p, self.defs, env)?;
        let alphabet = match operand {
            Some(x) => x.clone(),
            None => uses.keys().cloned().collect(),
        };
        let writes = uses
            .into_iter()
            .filter(|(_, u)| u.written)
            .map(|(c, _)| c)
            .collect::<ChannelSet>();
        self.components.push(Component {
            label: p.to_string(),
            process: p.clone(),
            env: env.clone(),
            alphabet,
            writes,
        });
        Ok(Shape::Leaf(self.components.len() - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, MonitorSpec, RunError, RunOptions, Scheduler};
    use csp_lang::{examples, parse_definitions};
    use csp_semantics::Universe;
    use csp_trace::Channel;

    /// `net` of `src`, run to 8 steps at `seed` under the membership
    /// monitor.
    fn run(src: &str, seed: u64) -> Result<crate::RunResult, RunError> {
        let defs = parse_definitions(src).unwrap();
        let uni = Universe::small();
        Executor::new(&defs, &uni).run_name(
            "net",
            &Env::new(),
            RunOptions {
                max_steps: 8,
                scheduler: Scheduler::seeded(seed),
                monitor: Some(MonitorSpec::new()),
                ..RunOptions::default()
            },
        )
    }

    #[test]
    fn a_declared_alphabet_is_the_components_alphabet() {
        // ⟦net⟧ = {<>, <a.1>}: b is in p's declared alphabet, so b.2
        // waits for p, which never offers it.
        let src = "p = a!1 -> STOP
                   q = b!2 -> STOP
                   net = p ||{a, b | b} q";
        for seed in 0..4 {
            let res = run(src, seed).expect("accepted");
            assert_eq!(res.visible.to_string(), "<a.1>");
            assert!(res.monitor.expect("monitored").is_conforming());
        }
        let defs = parse_definitions(src).unwrap();
        let net = flatten(&Process::call("net"), &defs, &Env::new()).unwrap();
        assert_eq!(net.components[0].alphabet.len(), 2);
        assert_eq!(net.components[1].alphabet.len(), 1);
    }

    #[test]
    fn an_inner_chan_conceals_its_channel_from_the_outside() {
        // p's a is concealed from q, so ⟦net⟧ = {<>, <b.1>}: p moves on
        // a.1 alone, and q's a?x waits for a visible a.1 that never comes.
        let src = "p = a!1 -> b!1 -> STOP
                   q = a?x:{1} -> c!x -> STOP
                   net = (chan a; p) || q";
        for seed in 0..4 {
            let res = run(src, seed).expect("accepted");
            assert_eq!(res.full.to_string(), "<a.1, b.1>");
            assert_eq!(res.visible.to_string(), "<b.1>");
            assert!(res.deadlocked);
            assert!(res.monitor.expect("monitored").is_conforming());
            assert!(res.clocks.iter().all(|c| c.get(1) == 0), "q moved");
        }
    }

    #[test]
    fn a_component_reaching_a_network_through_a_call_is_refused() {
        let src = "p = a!1 -> q
                   q = chan b; (b!1 -> STOP || b?x:{1} -> c!x -> STOP)
                   net = p";
        let err = run(src, 0).expect_err("refused");
        assert!(
            matches!(err, RunError::Net(NetError::NotStatic { .. })),
            "{err}"
        );
        // A network that calls itself before communicating is refused too.
        let err = run("net = chan a; net", 0).expect_err("refused");
        assert!(
            matches!(err, RunError::Net(NetError::NotStatic { .. })),
            "{err}"
        );
    }

    #[test]
    fn channels_outside_the_shared_alphabet_move_alone() {
        for src in [
            // CSP005: q uses c outside its declared alphabet.
            "net = a!1 -> STOP ||{a | b} c!1 -> STOP",
            // The outer || shares nothing, though the inner one declares
            // b for its left side: b.2 needs only the right operand.
            "net = (a!1 -> STOP ||{a, b | a} a!1 -> STOP) || b!2 -> STOP",
        ] {
            for seed in 0..8 {
                let res = run(src, seed).expect("accepted");
                assert_eq!(res.full.len(), 2, "{src}: {}", res.full);
                assert!(res.monitor.expect("monitored").is_conforming(), "{src}");
            }
        }
    }

    #[test]
    fn pipeline_flattens_to_two_components() {
        let defs = examples::pipeline();
        let net = flatten(&Process::call("pipeline"), &defs, &Env::new()).unwrap();
        assert_eq!(net.components.len(), 2);
        assert!(net.hidden.contains(&Channel::simple("wire")));
        let copier = &net.components[0];
        assert!(copier.alphabet.contains(&Channel::simple("input")));
        assert!(copier.alphabet.contains(&Channel::simple("wire")));
    }

    #[test]
    fn multiplier_flattens_to_five_components() {
        let defs = examples::multiplier();
        let env = examples::multiplier_env(&[1, 1, 1]);
        let net = flatten(&Process::call("multiplier"), &defs, &env).unwrap();
        assert_eq!(net.components.len(), 5);
        assert_eq!(net.hidden.len(), 4); // col[0..3]
                                         // mult[2]'s alphabet: row[2], col[1], col[2].
        let m2 = net
            .components
            .iter()
            .find(|c| c.label.contains("mult[2]"))
            .expect("mult[2] present");
        assert!(m2.alphabet.contains(&Channel::indexed("row", 2)));
        assert!(m2.alphabet.contains(&Channel::indexed("col", 1)));
        assert!(m2.alphabet.contains(&Channel::indexed("col", 2)));
        assert_eq!(m2.alphabet.len(), 3);
    }

    #[test]
    fn sequential_process_is_single_component() {
        let defs = examples::pipeline();
        let net = flatten(&Process::call("copier"), &defs, &Env::new()).unwrap();
        assert_eq!(net.components.len(), 1);
        assert!(net.hidden.is_empty());
    }

    #[test]
    fn protocol_flattens_with_hidden_wire() {
        let defs = examples::protocol();
        let net = flatten(&Process::call("protocol"), &defs, &Env::new()).unwrap();
        assert_eq!(net.components.len(), 2);
        assert!(net.hidden.contains(&Channel::simple("wire")));
    }
}
