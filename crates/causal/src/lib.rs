//! Causal observability for concurrent CSP runs.
//!
//! The paper's semantic object is the *trace* — `P sat R` holds iff every
//! trace of `P` satisfies `R` (§2.2) — but an executing network produces
//! more structure than the flat trace the coordinator commits: every
//! synchronous communication is a joint action of the components whose
//! alphabets contain its channel, and actions of disjoint component sets
//! are causally unordered. This crate materializes that structure:
//!
//! * [`VectorClock`] — per-component Lamport vector clocks; the pointwise
//!   partial order *is* Lamport's happens-before relation.
//! * [`CausalEvent`] / [`CausalLog`] — a bounded log of communications and
//!   supervision events (faults, deaths, restarts), each stamped with the
//!   participants' pre-merge clocks and the merged clock.
//! * [`CausalLog::validate`] — re-simulates the clock protocol and rejects
//!   logs whose stamps are inconsistent (doctored or corrupted logs).
//! * [`CausalLog::linearizations`] — enumerates total orders consistent
//!   with the recorded partial order, i.e. the set of flat traces the same
//!   run could have produced under other schedulers.
//! * [`msc`] — message-sequence-chart exporters (Mermaid `sequenceDiagram`
//!   and a compact text MSC) plus a Mermaid parser for round-tripping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::fmt;

use csp_trace::Event;

pub mod msc;

// ------------------------------------------------------------ clocks --

/// A per-component vector clock. Component `i` of a network of `n`
/// processes owns entry `i`; the pointwise partial order on clocks is the
/// happens-before relation of the run.
///
/// ```
/// use csp_causal::VectorClock;
/// let mut a = VectorClock::new(2);
/// a.tick(0);
/// let mut b = VectorClock::new(2);
/// b.tick(1);
/// assert!(a.partial_cmp(&b).is_none()); // concurrent
/// b.merge(&a);
/// assert!(a < b);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock for a network of `n` components.
    pub fn new(n: usize) -> Self {
        VectorClock(vec![0; n])
    }

    /// Builds a clock from explicit entries.
    pub fn from_entries(entries: Vec<u64>) -> Self {
        VectorClock(entries)
    }

    /// Number of components this clock covers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the clock covers zero components.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Entry `i` (ticks of component `i` observed so far).
    pub fn get(&self, i: usize) -> u64 {
        self.0.get(i).copied().unwrap_or(0)
    }

    /// The raw entries.
    pub fn entries(&self) -> &[u64] {
        &self.0
    }

    /// Increments component `i`'s own entry (a local step of `i`).
    pub fn tick(&mut self, i: usize) {
        if let Some(slot) = self.0.get_mut(i) {
            *slot += 1;
        }
    }

    /// Pointwise maximum with `other` (receipt of `other`'s knowledge).
    pub fn merge(&mut self, other: &VectorClock) {
        for (slot, v) in self.0.iter_mut().zip(other.0.iter()) {
            *slot = (*slot).max(*v);
        }
    }

    /// True iff `self <= other` pointwise.
    pub fn le(&self, other: &VectorClock) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// True iff the clocks are incomparable — the stamped events are
    /// causally concurrent.
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        self.partial_cmp(other).is_none()
    }
}

impl PartialOrd for VectorClock {
    /// The *pointwise* partial order (not lexicographic): `a < b` iff
    /// `a <= b` in every entry and `a != b`. Returns `None` for
    /// concurrent (incomparable) clocks.
    fn partial_cmp(&self, other: &VectorClock) -> Option<Ordering> {
        if self.0.len() != other.0.len() {
            return None;
        }
        if self == other {
            return Some(Ordering::Equal);
        }
        if self.le(other) {
            return Some(Ordering::Less);
        }
        if other.le(self) {
            return Some(Ordering::Greater);
        }
        None
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl VectorClock {
    /// Parses the [`Display`](fmt::Display) form `"[1,0,2]"`.
    pub fn parse(s: &str) -> Option<VectorClock> {
        let inner = s.trim().strip_prefix('[')?.strip_suffix(']')?;
        if inner.trim().is_empty() {
            return Some(VectorClock(Vec::new()));
        }
        inner
            .split(',')
            .map(|p| p.trim().parse::<u64>().ok())
            .collect::<Option<Vec<_>>>()
            .map(VectorClock)
    }
}

// ------------------------------------------------------------ events --

/// What a [`CausalEvent`] records: a communication or a supervision
/// action (fault injection, component death, supervised restart).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CausalEventKind {
    /// A committed communication `channel.value`. `sender`/`receiver`
    /// are component indices when the direction could be inferred from
    /// the components' output alphabets (a channel with exactly one
    /// writer among the participants); multi-party or direction-less
    /// events keep the full participant list only.
    Comm {
        /// The communicated event.
        event: Event,
        /// Component that wrote the value, when unambiguous.
        sender: Option<usize>,
        /// First reading participant, when a sender is known.
        receiver: Option<usize>,
        /// True iff the channel is hidden at the network boundary.
        hidden: bool,
    },
    /// An injected fault (e.g. a stall window opening) on one component.
    Fault {
        /// Human-readable description of the fault.
        detail: String,
    },
    /// A component death (crash fault or poison).
    Death {
        /// Failure reason as reported by the supervisor.
        detail: String,
    },
    /// A supervised restart of a previously dead component.
    Restart,
}

impl CausalEventKind {
    /// Short label for MSC notes and Chrome instant events.
    pub fn label(&self) -> String {
        match self {
            CausalEventKind::Comm { event, .. } => event.to_string(),
            CausalEventKind::Fault { detail } => format!("fault: {detail}"),
            CausalEventKind::Death { detail } => format!("death: {detail}"),
            CausalEventKind::Restart => "restart".to_string(),
        }
    }
}

/// One entry of a [`CausalLog`]: an action, its participants, the
/// participants' clocks *after* ticking their own entry but *before* the
/// merge (`pre_clocks`, parallel to `participants`), and the merged
/// clock every participant adopts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalEvent {
    /// Position of this entry in the log (stable identity).
    pub seq: usize,
    /// Index in the run's committed full trace at which this happened
    /// (supervision events take the index of the next communication).
    pub step: usize,
    /// The recorded action.
    pub kind: CausalEventKind,
    /// Component indices that synchronized on this action.
    pub participants: Vec<usize>,
    /// Post-tick, pre-merge clock of each participant (the "VC pair"
    /// with [`CausalEvent::clock`]).
    pub pre_clocks: Vec<VectorClock>,
    /// The merged clock (pointwise max of `pre_clocks`) stamped on the
    /// event and adopted by every participant.
    pub clock: VectorClock,
}

impl CausalEvent {
    /// True iff this entry records a communication (not supervision).
    pub fn is_comm(&self) -> bool {
        matches!(self.kind, CausalEventKind::Comm { .. })
    }
}

/// Why [`CausalLog::validate`] rejected a log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CausalError {
    /// An event names a participant outside `0..labels.len()`, or none.
    BadParticipants {
        /// Log position of the offending event.
        seq: usize,
    },
    /// A clock has the wrong number of entries.
    BadClockWidth {
        /// Log position of the offending event.
        seq: usize,
    },
    /// A participant's pre-merge clock is not its previous clock ticked
    /// once — the per-component order was tampered with.
    BadTick {
        /// Log position of the offending event.
        seq: usize,
        /// The participant whose tick is inconsistent.
        component: usize,
    },
    /// The merged clock is not the pointwise max of the pre-clocks.
    BadMerge {
        /// Log position of the offending event.
        seq: usize,
    },
}

impl fmt::Display for CausalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalError::BadParticipants { seq } => {
                write!(f, "event #{seq}: participant set invalid")
            }
            CausalError::BadClockWidth { seq } => {
                write!(f, "event #{seq}: clock width does not match network size")
            }
            CausalError::BadTick { seq, component } => {
                write!(f, "event #{seq}: component {component} pre-clock is not its previous clock ticked once")
            }
            CausalError::BadMerge { seq } => {
                write!(
                    f,
                    "event #{seq}: merged clock is not the pointwise max of the pre-clocks"
                )
            }
        }
    }
}

impl std::error::Error for CausalError {}

// --------------------------------------------------------------- log --

/// A bounded causal event log for one run.
///
/// The coordinator that records it is single-threaded, so the log needs
/// no locking; boundedness comes from a capacity after which *new*
/// events are counted in [`CausalLog::dropped`] and discarded. Keeping
/// the prefix (rather than a ring of the suffix) means the retained log
/// is always a causally self-consistent observation — traces are
/// prefix-closed, a truncated suffix would dangle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalLog {
    labels: Vec<String>,
    events: Vec<CausalEvent>,
    cap: usize,
    dropped: usize,
}

impl CausalLog {
    /// An empty log for a network whose components carry `labels`,
    /// keeping at most `cap` events.
    pub fn new(labels: Vec<String>, cap: usize) -> Self {
        CausalLog {
            labels,
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Component labels, indexed by component id.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The retained events, in commit order.
    pub fn events(&self) -> &[CausalEvent] {
        &self.events
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Capacity after which events are dropped.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Events discarded because the log was full.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Appends an event, assigning its `seq`. Returns `false` (and
    /// counts a drop) when the log is at capacity.
    pub fn push(
        &mut self,
        step: usize,
        kind: CausalEventKind,
        participants: Vec<usize>,
        pre_clocks: Vec<VectorClock>,
        clock: VectorClock,
    ) -> bool {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return false;
        }
        let seq = self.events.len();
        self.events.push(CausalEvent {
            seq,
            step,
            kind,
            participants,
            pre_clocks,
            clock,
        });
        true
    }

    /// Re-simulates the vector-clock protocol over the log and checks
    /// every stamp: each participant's pre-clock must be its previous
    /// clock ticked once, and the merged clock must be the pointwise max
    /// of the pre-clocks. A doctored log fails here with the first
    /// inconsistent event.
    pub fn validate(&self) -> Result<(), CausalError> {
        let n = self.labels.len();
        let mut running = vec![VectorClock::new(n); n];
        for e in &self.events {
            if e.participants.is_empty()
                || e.participants.iter().any(|&p| p >= n)
                || e.participants.len() != e.pre_clocks.len()
            {
                return Err(CausalError::BadParticipants { seq: e.seq });
            }
            if e.clock.len() != n || e.pre_clocks.iter().any(|c| c.len() != n) {
                return Err(CausalError::BadClockWidth { seq: e.seq });
            }
            let mut merged = VectorClock::new(n);
            for (&p, pre) in e.participants.iter().zip(&e.pre_clocks) {
                let mut expect = running[p].clone();
                expect.tick(p);
                if *pre != expect {
                    return Err(CausalError::BadTick {
                        seq: e.seq,
                        component: p,
                    });
                }
                merged.merge(pre);
            }
            if e.clock != merged {
                return Err(CausalError::BadMerge { seq: e.seq });
            }
            for &p in &e.participants {
                running[p] = merged.clone();
            }
        }
        Ok(())
    }

    /// True iff log entry `a` happens-before entry `b` (strict pointwise
    /// clock order). Indices are `seq` values.
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        match (self.events.get(a), self.events.get(b)) {
            (Some(ea), Some(eb)) => {
                matches!(ea.clock.partial_cmp(&eb.clock), Some(Ordering::Less))
            }
            _ => false,
        }
    }

    /// All happens-before edges `(a, b)` over the retained events
    /// (the full relation, not its transitive reduction).
    pub fn hb_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for a in 0..self.events.len() {
            for b in 0..self.events.len() {
                if a != b && self.happens_before(a, b) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// [`CausalLog::hb_edges`] restricted to communication events,
    /// reindexed by *comm position* (the i-th communication in the log
    /// gets index `i`) — the relation an MSC depicts, directly
    /// comparable with [`msc::ParsedMsc::hb_edges`].
    pub fn comm_hb_edges(&self) -> Vec<(usize, usize)> {
        let mut pos = vec![usize::MAX; self.events.len()];
        let mut next = 0usize;
        for e in &self.events {
            if e.is_comm() {
                pos[e.seq] = next;
                next += 1;
            }
        }
        self.hb_edges()
            .into_iter()
            .filter(|&(a, b)| self.events[a].is_comm() && self.events[b].is_comm())
            .map(|(a, b)| (pos[a], pos[b]))
            .collect()
    }

    /// Seqs of events strictly happens-before event `seq`, in log order:
    /// the causal history (past cone) of that event.
    pub fn causal_history(&self, seq: usize) -> Vec<usize> {
        (0..self.events.len())
            .filter(|&a| a != seq && self.happens_before(a, seq))
            .collect()
    }

    /// Enumerates linearizations of the recorded partial order — total
    /// orders (as `seq` sequences) in which every happens-before edge
    /// goes forward — up to `limit` of them, in lexicographic order.
    /// The committed log order is always one of them (the first).
    pub fn linearizations(&self, limit: usize) -> Vec<Vec<usize>> {
        let n = self.events.len();
        // Predecessor bitmask per event over the full hb relation.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in self.hb_edges() {
            preds[b].push(a);
        }
        let mut out = Vec::new();
        let mut placed = vec![false; n];
        let mut prefix = Vec::with_capacity(n);
        fn go(
            n: usize,
            preds: &[Vec<usize>],
            placed: &mut Vec<bool>,
            prefix: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
            limit: usize,
        ) {
            if out.len() >= limit {
                return;
            }
            if prefix.len() == n {
                out.push(prefix.clone());
                return;
            }
            for c in 0..n {
                if placed[c] || !preds[c].iter().all(|&p| placed[p]) {
                    continue;
                }
                placed[c] = true;
                prefix.push(c);
                go(n, preds, placed, prefix, out, limit);
                prefix.pop();
                placed[c] = false;
                if out.len() >= limit {
                    return;
                }
            }
        }
        go(n, &preds, &mut placed, &mut prefix, &mut out, limit);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::{Channel, Value};

    fn ev(chan: &str, v: u32) -> Event {
        Event::new(Channel::simple(chan), Value::nat(v))
    }

    /// A tiny two-component log: `a` local to 0, `w` joint, `b` local to 1.
    fn sample() -> CausalLog {
        let mut log = CausalLog::new(vec!["left".into(), "right".into()], 16);
        let mut c0 = VectorClock::new(2);
        let mut c1 = VectorClock::new(2);
        c0.tick(0);
        log.push(
            0,
            CausalEventKind::Comm {
                event: ev("a", 0),
                sender: Some(0),
                receiver: None,
                hidden: false,
            },
            vec![0],
            vec![c0.clone()],
            c0.clone(),
        );
        let mut p0 = c0.clone();
        p0.tick(0);
        let mut p1 = c1.clone();
        p1.tick(1);
        let mut merged = p0.clone();
        merged.merge(&p1);
        log.push(
            1,
            CausalEventKind::Comm {
                event: ev("w", 1),
                sender: Some(0),
                receiver: Some(1),
                hidden: false,
            },
            vec![0, 1],
            vec![p0, p1],
            merged.clone(),
        );
        c0 = merged.clone();
        c1 = merged;
        let mut q1 = c1.clone();
        q1.tick(1);
        log.push(
            2,
            CausalEventKind::Comm {
                event: ev("b", 2),
                sender: Some(1),
                receiver: None,
                hidden: false,
            },
            vec![1],
            vec![q1.clone()],
            q1,
        );
        let _ = c0;
        log
    }

    #[test]
    fn clocks_order_pointwise_not_lexicographically() {
        let a = VectorClock::from_entries(vec![1, 0]);
        let b = VectorClock::from_entries(vec![0, 2]);
        assert!(a.partial_cmp(&b).is_none());
        assert!(a.concurrent(&b));
        let c = VectorClock::from_entries(vec![1, 2]);
        assert!(a < c && b < c);
    }

    #[test]
    fn display_round_trips() {
        let c = VectorClock::from_entries(vec![3, 0, 7]);
        assert_eq!(VectorClock::parse(&c.to_string()), Some(c));
        assert_eq!(VectorClock::parse("nope"), None);
    }

    #[test]
    fn sample_log_validates_and_orders() {
        let log = sample();
        log.validate().unwrap();
        assert!(log.happens_before(0, 1));
        assert!(log.happens_before(1, 2));
        assert!(log.happens_before(0, 2)); // transitive via clocks
        assert!(!log.happens_before(2, 0));
        assert_eq!(log.causal_history(2), vec![0, 1]);
    }

    #[test]
    fn doctored_log_fails_validation_at_first_bad_event() {
        let mut log = sample();
        log.events[1].clock = VectorClock::from_entries(vec![9, 9]);
        match log.validate() {
            Err(CausalError::BadMerge { seq }) => assert_eq!(seq, 1),
            other => panic!("expected BadMerge at #1, got {other:?}"),
        }
    }

    #[test]
    fn linearizations_respect_the_partial_order() {
        let log = sample();
        // The sample is a chain, so exactly one linearization exists.
        assert_eq!(log.linearizations(10), vec![vec![0, 1, 2]]);
        // Two concurrent singleton events admit both orders.
        let mut log2 = CausalLog::new(vec!["l".into(), "r".into()], 8);
        let mut c0 = VectorClock::new(2);
        c0.tick(0);
        let mut c1 = VectorClock::new(2);
        c1.tick(1);
        log2.push(
            0,
            CausalEventKind::Comm {
                event: ev("a", 0),
                sender: None,
                receiver: None,
                hidden: false,
            },
            vec![0],
            vec![c0.clone()],
            c0,
        );
        log2.push(
            1,
            CausalEventKind::Comm {
                event: ev("b", 0),
                sender: None,
                receiver: None,
                hidden: false,
            },
            vec![1],
            vec![c1.clone()],
            c1,
        );
        let lins = log2.linearizations(10);
        assert_eq!(lins.len(), 2);
        assert!(lins.contains(&vec![0, 1]) && lins.contains(&vec![1, 0]));
    }

    #[test]
    fn capacity_drops_new_events_and_counts_them() {
        let mut log = CausalLog::new(vec!["p".into()], 1);
        let mut c = VectorClock::new(1);
        c.tick(0);
        assert!(log.push(
            0,
            CausalEventKind::Restart,
            vec![0],
            vec![c.clone()],
            c.clone()
        ));
        assert!(!log.push(1, CausalEventKind::Restart, vec![0], vec![c.clone()], c));
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped(), 1);
        log.validate().unwrap();
    }
}
