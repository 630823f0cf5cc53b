//! The retained `BTreeSet` reference implementation of trace sets.
//!
//! [`NaiveTraceSet`] is the crate's previous [`TraceSet`] implementation,
//! kept verbatim as an executable specification: every operator is the
//! direct transcription of its §3.1 definition over an ordered set, with
//! none of the hashed-set representation tricks of the production type
//! (shared buffers, chain hashes, parent-index maximality). The
//! equivalence harness in `tests/equiv_naive.rs` checks, operator by
//! operator and on randomly generated inputs, that [`TraceSet`] and
//! `NaiveTraceSet` denote the same sets.
//!
//! Keep this module boring. Any optimisation applied here would defeat
//! its purpose as an oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::{ChannelSet, Event, Trace, TraceSet};

/// A finite, prefix-closed set of traces over an ordered set — the
/// reference oracle for [`TraceSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveTraceSet {
    traces: BTreeSet<Trace>,
}

impl NaiveTraceSet {
    /// `{<>}` — the denotation of `STOP`.
    pub fn stop() -> Self {
        let mut traces = BTreeSet::new();
        traces.insert(Trace::empty());
        NaiveTraceSet { traces }
    }

    /// Builds a prefix-closed set by closing the input under prefixes.
    pub fn closure_of<I: IntoIterator<Item = Trace>>(traces: I) -> Self {
        let mut set = NaiveTraceSet::stop();
        for t in traces {
            for p in t.prefixes() {
                set.traces.insert(p);
            }
        }
        set
    }

    /// Number of traces in the set.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Mirrors the collection convention; never true for a closure.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Trace) -> bool {
        self.traces.contains(t)
    }

    /// Iterates in sorted order (the `BTreeSet` order).
    pub fn iter(&self) -> impl Iterator<Item = &Trace> {
        self.traces.iter()
    }

    /// The two §3.1 closure conditions, checked by definition.
    pub fn is_prefix_closed(&self) -> bool {
        self.traces.contains(&Trace::empty())
            && self
                .traces
                .iter()
                .all(|t| t.is_empty() || self.traces.contains(&t.take(t.len() - 1)))
    }

    /// `(a → P) = {<>} ∪ {a^s | s ∈ P}` — §3.1, transcribed.
    pub fn prefixed(&self, a: Event) -> NaiveTraceSet {
        let mut traces = BTreeSet::new();
        traces.insert(Trace::empty());
        for s in &self.traces {
            traces.insert(s.cons(a));
        }
        NaiveTraceSet { traces }
    }

    /// Binary union.
    pub fn union(&self, other: &NaiveTraceSet) -> NaiveTraceSet {
        NaiveTraceSet {
            traces: self.traces.union(&other.traces).cloned().collect(),
        }
    }

    /// Binary intersection.
    pub fn intersection(&self, other: &NaiveTraceSet) -> NaiveTraceSet {
        NaiveTraceSet {
            traces: self.traces.intersection(&other.traces).cloned().collect(),
        }
    }

    /// Subset test.
    pub fn is_subset(&self, other: &NaiveTraceSet) -> bool {
        self.traces.is_subset(&other.traces)
    }

    /// `P\C = {s\C | s ∈ P}` — the image under restriction.
    pub fn hide(&self, hidden: &ChannelSet) -> NaiveTraceSet {
        NaiveTraceSet {
            traces: self.traces.iter().map(|t| t.restrict(hidden)).collect(),
        }
    }

    /// Alphabetised parallel composition by synchronised merge over the
    /// ordered child index — algorithmically the same exploration as
    /// [`TraceSet::parallel`], on the ordered-set substrate, without its
    /// length bound.
    pub fn parallel(&self, x: &ChannelSet, other: &NaiveTraceSet, y: &ChannelSet) -> NaiveTraceSet {
        let sync = x.intersection(y);
        let kids_p = self.children_index();
        let kids_q = other.children_index();
        let mut out = BTreeSet::new();
        let mut queue = vec![(Trace::empty(), Trace::empty(), Trace::empty())];
        out.insert(Trace::empty());
        while let Some((s, pp, qq)) = queue.pop() {
            let empty = Vec::new();
            let p_next = kids_p.get(&pp).unwrap_or(&empty);
            let q_next = kids_q.get(&qq).unwrap_or(&empty);
            for &e in p_next {
                let joint = sync.contains(e.channel());
                if joint && !q_next.contains(&e) {
                    continue;
                }
                let s2 = s.snoc(e);
                if out.insert(s2.clone()) {
                    let qq2 = if joint { qq.snoc(e) } else { qq.clone() };
                    queue.push((s2, pp.snoc(e), qq2));
                }
            }
            for &e in q_next {
                if sync.contains(e.channel()) {
                    continue;
                }
                let s2 = s.snoc(e);
                if out.insert(s2.clone()) {
                    queue.push((s2, pp.clone(), qq.snoc(e)));
                }
            }
        }
        NaiveTraceSet { traces: out }
    }

    fn children_index(&self) -> BTreeMap<Trace, Vec<Event>> {
        let mut index: BTreeMap<Trace, Vec<Event>> = BTreeMap::new();
        for t in &self.traces {
            if let Some(&last) = t.last() {
                index.entry(t.take(t.len() - 1)).or_default().push(last);
            }
        }
        index
    }

    /// The maximal traces, by the quantified definition: members that are
    /// not a strict prefix of any other member. Quadratic on purpose.
    pub fn maximal_traces(&self) -> Vec<&Trace> {
        self.traces
            .iter()
            .filter(|t| {
                !self
                    .traces
                    .iter()
                    .any(|u| t.is_prefix_of(u) && u.len() > t.len())
            })
            .collect()
    }

    /// The length of the longest member trace.
    pub fn depth(&self) -> usize {
        self.traces.iter().map(Trace::len).max().unwrap_or(0)
    }

    /// Converts to the production representation.
    pub fn to_trace_set(&self) -> TraceSet {
        TraceSet::closure_of(self.traces.iter().cloned())
    }

    /// Builds the oracle from a production set.
    pub fn of_trace_set(ts: &TraceSet) -> NaiveTraceSet {
        NaiveTraceSet {
            traces: ts.iter_unordered().cloned().collect(),
        }
    }

    /// True when this oracle and the production set denote the same set
    /// of traces (checked extensionally, both directions).
    pub fn agrees_with(&self, ts: &TraceSet) -> bool {
        self.len() == ts.len()
            && self.traces.iter().all(|t| ts.contains(t))
            && ts.iter_unordered().all(|t| self.traces.contains(t))
    }
}

impl Default for NaiveTraceSet {
    fn default() -> Self {
        NaiveTraceSet::stop()
    }
}

impl FromIterator<Trace> for NaiveTraceSet {
    fn from_iter<I: IntoIterator<Item = Trace>>(iter: I) -> Self {
        NaiveTraceSet::closure_of(iter)
    }
}

impl fmt::Display for NaiveTraceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for t in &self.traces {
            writeln!(f, "  {t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, Value};

    fn tr(pairs: &[(&'static str, u32)]) -> Trace {
        Trace::parse_like(pairs.iter().map(|&(c, n)| (c, Value::nat(n))))
    }

    #[test]
    fn oracle_round_trips_through_production_set() {
        let naive = NaiveTraceSet::closure_of([tr(&[("a", 1), ("b", 2)]), tr(&[("c", 3)])]);
        let prod = naive.to_trace_set();
        assert!(naive.agrees_with(&prod));
        assert_eq!(NaiveTraceSet::of_trace_set(&prod), naive);
    }

    #[test]
    fn oracle_parallel_agrees_on_the_copier() {
        let p = tr(&[("in", 1), ("w", 1)]);
        let q = tr(&[("w", 1), ("out", 1)]);
        let x: ChannelSet = ["in", "w"].into_iter().collect();
        let y: ChannelSet = ["w", "out"].into_iter().collect();
        let naive = NaiveTraceSet::closure_of([p.clone()]).parallel(
            &x,
            &NaiveTraceSet::closure_of([q.clone()]),
            &y,
        );
        let prod =
            TraceSet::closure_of([p]).parallel(&x, &TraceSet::closure_of([q]), &y, usize::MAX);
        assert!(naive.agrees_with(&prod));
        assert!(naive.contains(&tr(&[("in", 1), ("w", 1), ("out", 1)])));
    }

    #[test]
    fn oracle_is_boring_and_closed() {
        let s = NaiveTraceSet::closure_of([Trace::from_events([Event::new(
            Channel::simple("a"),
            Value::nat(1),
        )])]);
        assert!(s.is_prefix_closed());
        assert_eq!(s.maximal_traces().len(), 1);
        assert_eq!(s.depth(), 1);
    }
}
