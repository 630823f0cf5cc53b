//! Network extraction: flattening a process expression into sequential
//! components, their alphabets, and the concealed channels.
//!
//! The paper's networks are *static*: `‖` and `chan` appear outside all
//! communication prefixes (e.g. `multiplier = chan col[0..3]; (zeroes ||
//! mult[1] || … || last)`). The runtime executes this class on one flat
//! rendezvous — each component becomes a thread, an event needs every
//! component whose alphabet holds its channel, and every concealed
//! channel is hidden from the whole run. Parallel composition inside a
//! prefix would require dynamic process creation the paper's language
//! cannot express anyway (recursion is the only control structure).
//!
//! [`flatten`] accepts a network only where that flat rule is the binary
//! rule of §1.2(7)–(8) — each component's alphabet is the alphabet of the
//! `||` operand it fills, every `||` shares exactly `X ∩ Y` between its
//! sides, and a `chan` below a `||` conceals no channel a component
//! outside it holds — and refuses the rest at set-up.

use std::ops::Range;

use csp_lang::{
    channel_alphabet, channel_uses, operand_alphabet, reaches_network, resolve_chanrefs, ChanRef,
    Definitions, Env, EvalError, Process,
};
use csp_trace::ChannelSet;

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
    /// or its own channels outside any `||`. Every event on these
    /// channels requires its participation.
    pub alphabet: ChannelSet,
    /// The channels it can *write* on (output position `c!e`) — used to
    /// orient committed communications (sender vs. readers) in the
    /// causal log.
    pub writes: ChannelSet,
}

/// A flattened network ready for execution.
#[derive(Debug, Clone)]
pub struct Network {
    /// The sequential components.
    pub components: Vec<Component>,
    /// Channels concealed by enclosing `chan L; …` layers.
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
    /// The network is static, but one flat rendezvous would not run it
    /// as the binary `||` and `chan` rules do.
    NotFlat {
        /// Which alphabet or concealment is out of reach.
        reason: String,
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
            NetError::NotFlat { reason } => {
                write!(f, "network cannot run on one rendezvous: {reason}")
            }
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
/// `chan`, [`NetError::NotFlat`] when a declared alphabet misses a
/// channel its operand uses, when the channels the components on both
/// sides of a `||` hold differ from `X ∩ Y`, or when a `chan` below a
/// `||` conceals a channel a component outside it holds, and
/// [`NetError::Eval`] for resolution failures.
pub fn flatten(p: &Process, defs: &Definitions, env: &Env) -> Result<Network, NetError> {
    let mut flat = Flattener {
        defs,
        components: Vec::new(),
        hidden: ChannelSet::new(),
        inner_hiding: Vec::new(),
        unfolding: Vec::new(),
    };
    flat.walk(p, env, None)?;
    for (concealed, inside) in &flat.inner_hiding {
        for (j, c) in flat.components.iter().enumerate() {
            if inside.contains(&j) {
                continue;
            }
            if let Some(ch) = concealed.iter().find(|ch| c.alphabet.contains(ch)) {
                return Err(NetError::NotFlat {
                    reason: format!(
                        "a `chan` below a || conceals `{ch}`, which `{}` outside it holds",
                        c.label
                    ),
                });
            }
        }
    }
    Ok(Network {
        components: flat.components,
        hidden: flat.hidden,
    })
}

struct Flattener<'d> {
    defs: &'d Definitions,
    components: Vec<Component>,
    hidden: ChannelSet,
    /// Each `chan` below a `||`: what it conceals, and the components
    /// inside it.
    inner_hiding: Vec<(ChannelSet, Range<usize>)>,
    /// The names being unfolded, to refuse a network that calls itself
    /// before it communicates.
    unfolding: Vec<String>,
}

impl Flattener<'_> {
    /// Flattens `p`, which fills a `||` operand of alphabet `operand`
    /// (`None` above every `||`), and returns the channels its
    /// components hold.
    fn walk(
        &mut self,
        p: &Process,
        env: &Env,
        operand: Option<&ChannelSet>,
    ) -> Result<ChannelSet, NetError> {
        match p {
            Process::Parallel {
                left,
                right,
                left_alpha,
                right_alpha,
            } => {
                let x = self.operand_alphabet(left_alpha.as_deref(), left, env)?;
                let y = self.operand_alphabet(right_alpha.as_deref(), right, env)?;
                let held_left = self.walk(left, env, Some(&x))?;
                let held_right = self.walk(right, env, Some(&y))?;
                if held_left.intersection(&held_right) != x.intersection(&y) {
                    return Err(NetError::NotFlat {
                        reason: format!(
                            "the components on both sides of `{p}` hold other channels \
                             than the operands' shared alphabet"
                        ),
                    });
                }
                Ok(held_left.union(&held_right))
            }
            Process::Hide { channels, body } => {
                let concealed = resolve_chanrefs(channels, env)?;
                let first = self.components.len();
                let held = self.walk(body, env, operand)?;
                self.hidden.extend(concealed.iter().cloned());
                if operand.is_some() {
                    self.inner_hiding
                        .push((concealed, first..self.components.len()));
                }
                Ok(held)
            }
            _ if !reaches_network(self.defs, p) => self.push_component(p, env, operand),
            Process::Call { name, args } if !self.unfolding.contains(name) => {
                let vals = args
                    .iter()
                    .map(|e| e.eval(env))
                    .collect::<Result<Vec<_>, _>>()?;
                let (body, scope) = self.defs.resolve_call(name, &vals, env)?;
                self.unfolding.push(name.clone());
                let held = self.walk(body, &scope, operand);
                self.unfolding.pop();
                held
            }
            _ => Err(NetError::NotStatic {
                offending: p.to_string(),
            }),
        }
    }

    /// [`operand_alphabet`], refusing a declared list that misses a
    /// channel the operand uses (CSP005): the flat rule would make that
    /// channel's events wait for the operand.
    fn operand_alphabet(
        &self,
        declared: Option<&[ChanRef]>,
        operand: &Process,
        env: &Env,
    ) -> Result<ChannelSet, NetError> {
        let alphabet = operand_alphabet(declared, operand, self.defs, env)?;
        if declared.is_some() {
            let used = channel_alphabet(operand, self.defs, env)?;
            if let Some(c) = used.iter().find(|c| !alphabet.contains(c)) {
                return Err(NetError::NotFlat {
                    reason: format!("`{operand}` uses `{c}` outside its declared alphabet"),
                });
            };
        }
        Ok(alphabet)
    }

    fn push_component(
        &mut self,
        p: &Process,
        env: &Env,
        operand: Option<&ChannelSet>,
    ) -> Result<ChannelSet, NetError> {
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
            alphabet: alphabet.clone(),
            writes,
        });
        Ok(alphabet)
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
    fn an_inner_chan_concealing_a_channel_outside_it_is_refused() {
        // p's a is concealed from q, so ⟦net⟧ = {<>, <b.1>}; one flat
        // rendezvous would join p's hidden a with q's visible one.
        let src = "p = a!1 -> b!1 -> STOP
                   q = a?x:{1} -> c!x -> STOP
                   net = (chan a; p) || q";
        let err = run(src, 0).expect_err("refused");
        assert!(
            matches!(err, RunError::Net(NetError::NotFlat { .. })),
            "{err}"
        );
        assert!(err.to_string().contains("conceals `a`"), "{err}");
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
    fn declared_alphabets_the_flat_rule_cannot_run_are_refused() {
        // CSP005: q uses c outside its declared alphabet.
        let err = run("net = a!1 -> STOP ||{a | b} c!1 -> STOP", 0).expect_err("refused");
        assert!(
            err.to_string().contains("outside its declared alphabet"),
            "{err}"
        );
        // The outer || shares nothing, but p holds b, which r uses:
        // the flat rule would make r wait for p.
        let err = run(
            "net = (a!1 -> STOP ||{a, b | a} a!1 -> STOP) || b!2 -> STOP",
            0,
        )
        .expect_err("refused");
        assert!(err.to_string().contains("shared alphabet"), "{err}");
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
