//! Seeded, reproducible fault injection for network runs.
//!
//! The paper's §4 self-critique is that trace semantics proves only
//! *partial* correctness: `STOP | P = P`, so a component that silently
//! dies is invisible to the proof system. This module makes that
//! observation operational — a [`FaultPlan`] injects component crashes,
//! stalls, and offer delays into a run at chosen points, and an
//! adversarial starvation mode biases the scheduler against chosen
//! components. Because every fault is keyed to the deterministic global
//! step counter (not wall time), a faulty run is exactly as reproducible
//! as a healthy one.
//!
//! What recovery is possible is dictated by the same semantics: a
//! process's state is a function of its communication history (§3), so a
//! crashed component can be rebuilt *exactly* by replaying the events it
//! took part in so far ([`RestartPolicy::Replay`]).
//! Restarting from scratch without replay ([`RestartPolicy::Reset`])
//! forgets history and can emit traces the network's semantics — and
//! hence its proven `sat` assertions — never admitted.

use crate::net::Component;

/// Selects a network component, either positionally or by label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentSel {
    /// The i-th component of the flattened network (0-based).
    Index(usize),
    /// The component whose label matches exactly, or failing that the
    /// unique component whose label contains the string.
    Label(String),
}

impl ComponentSel {
    /// Resolves the selector against a flattened component list.
    pub fn resolve(&self, components: &[Component]) -> Option<usize> {
        match self {
            ComponentSel::Index(i) => (*i < components.len()).then_some(*i),
            ComponentSel::Label(want) => {
                if let Some(i) = components.iter().position(|c| &c.label == want) {
                    return Some(i);
                }
                let mut matches = components
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.label.contains(want.as_str()));
                match (matches.next(), matches.next()) {
                    (Some((i, _)), None) => Some(i),
                    _ => None,
                }
            }
        }
    }
}

impl std::fmt::Display for ComponentSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComponentSel::Index(i) => write!(f, "{i}"),
            ComponentSel::Label(l) => write!(f, "{l}"),
        }
    }
}

impl From<&str> for ComponentSel {
    fn from(s: &str) -> Self {
        match s.parse::<usize>() {
            Ok(i) => ComponentSel::Index(i),
            Err(_) => ComponentSel::Label(s.to_string()),
        }
    }
}

impl From<usize> for ComponentSel {
    fn from(i: usize) -> Self {
        ComponentSel::Index(i)
    }
}

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The component's thread is killed once the global trace reaches
    /// `at_step` events. What happens next is governed by the plan's
    /// [`RestartPolicy`].
    Crash {
        /// Which component dies.
        component: ComponentSel,
        /// Global event count at which it dies.
        at_step: usize,
    },
    /// The component freezes for `rounds` coordination rounds starting
    /// when the trace reaches `at_step` events: it offers nothing, so
    /// events needing its participation are disabled until it thaws.
    Stall {
        /// Which component freezes.
        component: ComponentSel,
        /// Global event count at which it freezes.
        at_step: usize,
        /// How many coordination rounds the freeze lasts.
        rounds: usize,
    },
    /// The component's *offer message* is held in transit for `rounds`
    /// coordination rounds. Mechanically identical to [`Fault::Stall`]
    /// (in trace semantics a frozen process and a delayed message are
    /// indistinguishable — only liveness, which §4 puts out of scope,
    /// could tell them apart), but kept distinct so plans document
    /// intent. While one offer is delayed, later-arriving offers from
    /// other components can overtake it: message reorder falls out.
    DelayOffer {
        /// Whose offer is delayed.
        component: ComponentSel,
        /// Global event count at which the delay starts.
        at_step: usize,
        /// How many coordination rounds the offer stays in flight.
        rounds: usize,
    },
}

impl Fault {
    /// The component the fault targets.
    pub fn component(&self) -> &ComponentSel {
        match self {
            Fault::Crash { component, .. }
            | Fault::Stall { component, .. }
            | Fault::DelayOffer { component, .. } => component,
        }
    }

    /// The global step at which the fault fires.
    pub fn at_step(&self) -> usize {
        match self {
            Fault::Crash { at_step, .. }
            | Fault::Stall { at_step, .. }
            | Fault::DelayOffer { at_step, .. } => *at_step,
        }
    }
}

/// What the supervisor does with a dead component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// Leave it dead. The component behaves as `STOP` from then on —
    /// the degradation the paper's `STOP | P = P` identity makes
    /// invisible to the proof system (failures only *remove* behaviour,
    /// so `sat` assertions keep holding on every surviving prefix).
    #[default]
    FailStop,
    /// Respawn the component and fast-forward it by replaying the events
    /// it took part in so far. Sound because a process's state is a
    /// function of its channel history (§3): after replay the component
    /// is in exactly the state it died in.
    Replay,
    /// Respawn the component in its initial state with no replay.
    /// Unsound: the reset component has forgotten its history, and the
    /// network can go on to emit traces outside its semantics.
    Reset,
}

/// Errors from building or resolving a fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A selector matched no (or no unique) component.
    UnknownComponent(String),
    /// A textual plan did not parse.
    Parse(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownComponent(s) => {
                write!(f, "fault plan names unknown component `{s}`")
            }
            FaultError::Parse(s) => write!(f, "bad fault plan: {s}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// A reproducible schedule of faults for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected faults, in no particular order.
    pub faults: Vec<Fault>,
    /// What to do with dead components.
    pub restart: RestartPolicy,
    /// Components the adversarial scheduler starves: whenever an event
    /// not involving any of them is enabled, only such events are
    /// eligible. (Total starvation is impossible without deadlocking the
    /// rest — the scheduler yields when starving would stop the run.)
    pub starve: Vec<ComponentSel>,
}

impl FaultPlan {
    /// The empty plan: no faults, fail-stop, no starvation.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing and starves nobody.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.starve.is_empty()
    }

    /// Adds a crash of `component` at global step `at_step`.
    #[must_use]
    pub fn crash(mut self, component: impl Into<ComponentSel>, at_step: usize) -> Self {
        self.faults.push(Fault::Crash {
            component: component.into(),
            at_step,
        });
        self
    }

    /// Adds a stall of `component` for `rounds` rounds at step `at_step`.
    #[must_use]
    pub fn stall(
        mut self,
        component: impl Into<ComponentSel>,
        at_step: usize,
        rounds: usize,
    ) -> Self {
        self.faults.push(Fault::Stall {
            component: component.into(),
            at_step,
            rounds,
        });
        self
    }

    /// Adds an offer delay of `rounds` rounds at step `at_step`.
    #[must_use]
    pub fn delay(
        mut self,
        component: impl Into<ComponentSel>,
        at_step: usize,
        rounds: usize,
    ) -> Self {
        self.faults.push(Fault::DelayOffer {
            component: component.into(),
            at_step,
            rounds,
        });
        self
    }

    /// Sets the restart policy.
    #[must_use]
    pub fn with_restart(mut self, restart: RestartPolicy) -> Self {
        self.restart = restart;
        self
    }

    /// Adds a component to the starvation set.
    #[must_use]
    pub fn starving(mut self, component: impl Into<ComponentSel>) -> Self {
        self.starve.push(component.into());
        self
    }

    /// Parses the CLI plan syntax: `;`-separated clauses
    ///
    /// ```text
    /// crash:COMP@STEP
    /// stall:COMP@STEP xROUNDS    (written stall:COMP@STEPxROUNDS)
    /// delay:COMP@STEPxROUNDS
    /// starve:COMP
    /// restart:failstop|replay|reset
    /// ```
    ///
    /// where `COMP` is a 0-based component index or a label fragment,
    /// e.g. `crash:copier@4;restart:replay` or `stall:2@3x5;starve:0`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Parse`] on malformed clauses.
    pub fn parse(spec: &str) -> Result<Self, FaultError> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, rest) = clause
                .split_once(':')
                .ok_or_else(|| FaultError::Parse(format!("`{clause}` has no `:`")))?;
            match kind.trim() {
                "crash" => {
                    let (comp, step) = split_at_sign(rest, clause)?;
                    plan.faults.push(Fault::Crash {
                        component: comp.into(),
                        at_step: parse_num(step, clause)?,
                    });
                }
                "stall" | "delay" => {
                    let (comp, when) = split_at_sign(rest, clause)?;
                    let (step, rounds) = when.split_once('x').ok_or_else(|| {
                        FaultError::Parse(format!("`{clause}` needs STEPxROUNDS after `@`"))
                    })?;
                    let (at_step, rounds) = (parse_num(step, clause)?, parse_num(rounds, clause)?);
                    plan.faults.push(if kind.trim() == "stall" {
                        Fault::Stall {
                            component: comp.into(),
                            at_step,
                            rounds,
                        }
                    } else {
                        Fault::DelayOffer {
                            component: comp.into(),
                            at_step,
                            rounds,
                        }
                    });
                }
                "starve" => plan.starve.push(rest.trim().into()),
                "restart" => {
                    plan.restart = match rest.trim() {
                        "failstop" | "none" => RestartPolicy::FailStop,
                        "replay" => RestartPolicy::Replay,
                        "reset" => RestartPolicy::Reset,
                        other => {
                            return Err(FaultError::Parse(format!(
                                "unknown restart policy `{other}` (failstop|replay|reset)"
                            )))
                        }
                    };
                }
                other => {
                    return Err(FaultError::Parse(format!(
                        "unknown clause kind `{other}` (crash|stall|delay|starve|restart)"
                    )))
                }
            }
        }
        Ok(plan)
    }

    /// Checks every selector against the component list.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::UnknownComponent`] naming the first selector
    /// that resolves to no (or no unique) component.
    pub fn resolve_all(&self, components: &[Component]) -> Result<(), FaultError> {
        for sel in self
            .faults
            .iter()
            .map(Fault::component)
            .chain(self.starve.iter())
        {
            if sel.resolve(components).is_none() {
                return Err(FaultError::UnknownComponent(sel.to_string()));
            }
        }
        Ok(())
    }
}

fn split_at_sign<'s>(rest: &'s str, clause: &str) -> Result<(&'s str, &'s str), FaultError> {
    rest.split_once('@')
        .map(|(a, b)| (a.trim(), b.trim()))
        .ok_or_else(|| FaultError::Parse(format!("`{clause}` needs COMP@STEP")))
}

fn parse_num(s: &str, clause: &str) -> Result<usize, FaultError> {
    s.trim()
        .parse()
        .map_err(|_| FaultError::Parse(format!("bad number `{s}` in `{clause}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_parser_agree() {
        let built = FaultPlan::none()
            .crash("copier", 4)
            .stall(2usize, 3, 5)
            .delay("recopier", 2, 3)
            .starving(0usize)
            .with_restart(RestartPolicy::Replay);
        let parsed = FaultPlan::parse(
            "crash:copier@4; stall:2@3x5; delay:recopier@2x3; starve:0; restart:replay",
        )
        .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "crash copier",
            "crash:copier",
            "stall:1@4",
            "restart:sometimes",
            "explode:0@1",
            "stall:1@x4",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.restart, RestartPolicy::FailStop);
    }

    #[test]
    fn selector_resolution_prefers_exact_labels() {
        use csp_lang::Env;
        let comps = |labels: &[&str]| -> Vec<Component> {
            labels
                .iter()
                .map(|l| Component {
                    label: l.to_string(),
                    process: csp_lang::Process::Stop,
                    env: Env::new(),
                    alphabet: csp_trace::ChannelSet::new(),
                    writes: csp_trace::ChannelSet::new(),
                })
                .collect()
        };
        let cs = comps(&["copier", "recopier"]);
        assert_eq!(ComponentSel::from("copier").resolve(&cs), Some(0));
        assert_eq!(ComponentSel::from("recopier").resolve(&cs), Some(1));
        assert_eq!(ComponentSel::from("1").resolve(&cs), Some(1));
        assert_eq!(ComponentSel::from("9").resolve(&cs), None);
        // `copi` is a substring of both labels — ambiguous.
        assert_eq!(ComponentSel::from("copi").resolve(&cs), None);
        // Unique substring works.
        assert_eq!(ComponentSel::from("reco").resolve(&cs), Some(1));
    }
}
