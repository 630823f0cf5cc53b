//! Finite prefix-closed trace sets — the denotations of §3.1.
//!
//! "A prefix closure is any subset `P` of `A*` which satisfies the two
//! conditions: `<> ∈ P` and `st ∈ P ⇒ s ∈ P`."
//!
//! [`TraceSet`] maintains prefix-closure as an invariant: every constructor
//! and operator closes its result. The operators provided are exactly the
//! ones the paper's semantics needs: the prefix operator `(a → P)`, finite
//! unions and intersections, the hiding image `P\C`, and alphabetised
//! parallel composition `P ‖_{X,Y} Q` (computed generatively by
//! synchronised merge rather than via the unbounded padding operator `P↑C`;
//! the two agree on traces over `X ∪ Y` — see the crate tests).
//!
//! Representation: an [`FxHashSet`] keyed by the traces' precomputed
//! chain hashes, so membership tests, closure maintenance, and the child
//! index behind `parallel` are O(1) expected per trace instead of a
//! lexicographic comparison per tree level. Public iteration
//! ([`iter`](TraceSet::iter), [`Display`]) is in sorted trace order, so
//! everything user-visible stays deterministic; internal hot loops use
//! the unordered set directly. The previous `BTreeSet`-backed
//! implementation is retained verbatim as
//! [`NaiveTraceSet`](crate::NaiveTraceSet) and serves as the reference
//! oracle for the equivalence harness in `tests/equiv_naive.rs`.

use std::fmt;

use crate::fx::{FxHashMap, FxHashSet};
use crate::{ChannelSet, Event, Trace};

/// A finite, prefix-closed set of traces.
///
/// # Examples
///
/// ```
/// use csp_trace::{Channel, Event, TraceSet, Value};
///
/// // (a → STOP): traces <> and <a.1>.
/// let a = Event::new(Channel::simple("a"), Value::nat(1));
/// let p = TraceSet::stop().prefixed(a);
/// assert_eq!(p.len(), 2);
/// assert!(p.is_prefix_closed());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSet {
    traces: FxHashSet<Trace>,
}

impl TraceSet {
    /// `{<>}` — the denotation of `STOP`, the least prefix closure.
    pub fn stop() -> Self {
        let mut traces = FxHashSet::default();
        traces.insert(Trace::empty());
        TraceSet { traces }
    }

    /// Builds a prefix-closed set from arbitrary traces by closing under
    /// prefixes.
    ///
    /// # Examples
    ///
    /// ```
    /// use csp_trace::{Trace, TraceSet, Value};
    ///
    /// let t = Trace::parse_like([("a", Value::nat(1)), ("b", Value::nat(2))]);
    /// let p = TraceSet::closure_of([t]);
    /// assert_eq!(p.len(), 3); // <>, <a.1>, <a.1, b.2>
    /// ```
    pub fn closure_of<I: IntoIterator<Item = Trace>>(traces: I) -> Self {
        let mut set = TraceSet::stop();
        for t in traces {
            set.insert_closed(t);
        }
        set
    }

    /// Inserts `t` together with all its prefixes, maintaining closure.
    /// O(#t) expected: prefixes share `t`'s buffer and each membership
    /// probe is a hash lookup.
    pub fn insert_closed(&mut self, t: Trace) {
        // Walk prefixes longest-first; stop as soon as one is present,
        // since the set is already closed below it.
        for n in (0..=t.len()).rev() {
            if !self.traces.insert(t.take(n)) {
                break;
            }
        }
    }

    /// Number of traces in the set (always ≥ 1: `<>` is a member).
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// A prefix closure is never empty, but this mirrors the collection
    /// convention; it returns `true` only for a (never constructible)
    /// empty set.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Membership test. O(1) expected.
    pub fn contains(&self, t: &Trace) -> bool {
        self.traces.contains(t)
    }

    /// Iterates over the traces in sorted order.
    ///
    /// Sorting makes every user-visible enumeration deterministic; code
    /// that only needs *some* order should prefer
    /// [`iter_unordered`](Self::iter_unordered).
    pub fn iter(&self) -> impl Iterator<Item = &Trace> {
        let mut out: Vec<&Trace> = self.traces.iter().collect();
        out.sort();
        out.into_iter()
    }

    /// Iterates over the traces in unspecified (hash) order, without the
    /// O(n log n) sort of [`iter`](Self::iter).
    pub fn iter_unordered(&self) -> impl ExactSizeIterator<Item = &Trace> {
        self.traces.iter()
    }

    /// Verifies the two §3.1 closure conditions. The invariant is
    /// maintained by construction; this is used by tests and debug
    /// assertions. O(n) expected: each member's immediate parent is an
    /// O(1) shared-buffer view probed with one hash lookup.
    pub fn is_prefix_closed(&self) -> bool {
        self.traces.contains(&Trace::empty())
            && self
                .traces
                .iter()
                .all(|t| t.is_empty() || self.traces.contains(&t.take(t.len() - 1)))
    }

    /// `(a → P) = {<>} ∪ {a^s | s ∈ P}` — §3.1.
    pub fn prefixed(&self, a: Event) -> TraceSet {
        let mut traces = FxHashSet::with_capacity_and_hasher(self.len() + 1, Default::default());
        traces.insert(Trace::empty());
        for s in &self.traces {
            traces.insert(s.cons(a));
        }
        TraceSet { traces }
    }

    /// Binary union — the denotation of `P | Q` (§3.2). Unions of prefix
    /// closures are prefix closures. Clones trace *handles* (an `Arc`
    /// bump each), never event storage.
    pub fn union(&self, other: &TraceSet) -> TraceSet {
        // Start from the larger operand so the per-insert work covers
        // only the smaller one.
        let (big, small) = if self.len() >= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut traces = big.traces.clone();
        for t in &small.traces {
            if !traces.contains(t) {
                traces.insert(t.clone());
            }
        }
        crate::stats::record_union(traces.len());
        TraceSet { traces }
    }

    /// Binary intersection. Intersections of prefix closures are prefix
    /// closures (both contain `<>`).
    pub fn intersection(&self, other: &TraceSet) -> TraceSet {
        let (big, small) = if self.len() >= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        TraceSet {
            traces: small
                .traces
                .iter()
                .filter(|t| big.traces.contains(*t))
                .cloned()
                .collect(),
        }
    }

    /// Subset test — trace refinement. `P ⊆ Q` means every behaviour of
    /// `P` is a behaviour of `Q`. O(|P|) expected.
    pub fn is_subset(&self, other: &TraceSet) -> bool {
        self.traces.is_subset(&other.traces)
    }

    /// `P\C = {s\C | s ∈ P}` — the image under restriction, used for
    /// `chan L; P` (§3.1). The image of a prefix closure under `\C` is
    /// prefix-closed.
    pub fn hide(&self, hidden: &ChannelSet) -> TraceSet {
        let set = TraceSet {
            traces: self.traces.iter().map(|t| t.restrict(hidden)).collect(),
        };
        crate::stats::record_hide(set.len());
        set
    }

    /// Alphabetised parallel composition `P ‖_{X,Y} Q` (§3.1), computed by
    /// synchronised merge: the result contains every trace `s` over `X ∪ Y`
    /// of length at most `depth` such that `s` projected on `X` is in `P`
    /// and `s` projected on `Y` is in `Q`. Events on channels of `X ∩ Y`
    /// require simultaneous participation of both operands; all other
    /// events interleave. Pass `usize::MAX` for the whole product.
    ///
    /// Cutting at `depth` gives exactly the whole product's traces up to
    /// `depth`: the product of prefix closures is prefix-closed, and the
    /// merge reaches every trace through its prefixes, which are no
    /// longer than it.
    ///
    /// # Examples
    ///
    /// Two independent processes interleave freely:
    ///
    /// ```
    /// use csp_trace::{Channel, ChannelSet, Event, TraceSet, Value};
    ///
    /// let a = Event::new(Channel::simple("a"), Value::nat(1));
    /// let b = Event::new(Channel::simple("b"), Value::nat(2));
    /// let p = TraceSet::stop().prefixed(a);
    /// let q = TraceSet::stop().prefixed(b);
    /// let x: ChannelSet = ["a"].into_iter().collect();
    /// let y: ChannelSet = ["b"].into_iter().collect();
    /// let par = p.parallel(&x, &q, &y, usize::MAX);
    /// assert_eq!(par.len(), 5); // <>, <a.1>, <b.2>, and both 2-event orders
    /// assert_eq!(p.parallel(&x, &q, &y, 1).len(), 3);
    /// ```
    pub fn parallel(
        &self,
        x: &ChannelSet,
        other: &TraceSet,
        y: &ChannelSet,
        depth: usize,
    ) -> TraceSet {
        let sync = x.intersection(y);
        // Explore the synchronised product of the two prefix trees on the
        // fly: a state is a composite trace s, whose component positions are
        // its projections s↾X and s↾Y. Only reachable states are visited,
        // so mismatched synchronisations are pruned immediately instead of
        // being enumerated and discarded.
        let kids_p = self.children_index();
        let kids_q = other.children_index();
        let mut out = FxHashSet::default();
        let mut queue = vec![(Trace::empty(), Trace::empty(), Trace::empty())];
        out.insert(Trace::empty());
        while let Some((s, pp, qq)) = queue.pop() {
            if s.len() >= depth {
                continue;
            }
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
                    continue; // joint steps were taken from the p side
                }
                let s2 = s.snoc(e);
                if out.insert(s2.clone()) {
                    queue.push((s2, pp.clone(), qq.snoc(e)));
                }
            }
        }
        let set = TraceSet { traces: out };
        crate::stats::record_parallel(set.len());
        debug_assert!(set.is_prefix_closed());
        set
    }

    /// Index mapping each member trace to its one-step extensions' final
    /// events — the prefix-tree child relation. Built once per parallel
    /// composition; O(n) expected, since each parent is an O(1) view of
    /// the child's buffer.
    fn children_index(&self) -> FxHashMap<Trace, Vec<Event>> {
        let mut index: FxHashMap<Trace, Vec<Event>> = FxHashMap::default();
        for t in &self.traces {
            if let Some(&last) = t.last() {
                index.entry(t.take(t.len() - 1)).or_default().push(last);
            }
        }
        index
    }

    /// `P↑C` — the §3.1 *padding* operator: "the set of traces formed by
    /// interleaving a trace of `P` with an arbitrary sequence of
    /// communications on the channels of `C`". Infinite in general, so
    /// this enumeration is bounded: pad events are drawn from the finite
    /// `pad_events` list and results are truncated at `depth`.
    ///
    /// Used by tests to validate the paper's *definition* of parallel
    /// composition, `P ‖_{X,Y} Q = (P↑(Y−X)) ∩ (Q↑(X−Y))`, against the
    /// on-the-fly implementation of [`parallel`](Self::parallel).
    pub fn pad(&self, pad_events: &[Event], depth: usize) -> TraceSet {
        let mut out = FxHashSet::default();
        // All pad sequences up to the remaining length, interleaved with
        // each member trace.
        for t in &self.traces {
            if t.len() > depth {
                continue;
            }
            let budget = depth - t.len();
            for pad_seq in sequences_over(pad_events, budget) {
                for merged in crate::interleave_pair(t, &pad_seq) {
                    out.insert(merged);
                }
            }
        }
        let set = TraceSet { traces: out };
        debug_assert!(set.is_prefix_closed());
        set
    }

    /// The traces of length at most `depth` — used to compare sets that
    /// were enumerated to different depths.
    pub fn up_to_depth(&self, depth: usize) -> TraceSet {
        TraceSet {
            traces: self
                .traces
                .iter()
                .filter(|t| t.len() <= depth)
                .cloned()
                .collect(),
        }
    }

    /// The maximal traces: members that are not a strict prefix of another
    /// member. These summarise the set compactly. Returned in sorted
    /// order. O(n log m) expected (m maximal members): since the set is
    /// prefix-closed, a member is a strict prefix of another iff it is
    /// some member's immediate parent.
    pub fn maximal_traces(&self) -> Vec<&Trace> {
        let parents: FxHashSet<Trace> = self
            .traces
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| t.take(t.len() - 1))
            .collect();
        let mut out: Vec<&Trace> = self
            .traces
            .iter()
            .filter(|t| !parents.contains(*t))
            .collect();
        out.sort();
        out
    }

    /// The length of the longest member trace.
    pub fn depth(&self) -> usize {
        self.traces.iter().map(Trace::len).max().unwrap_or(0)
    }

    /// The set of channels mentioned by any member trace.
    pub fn channels(&self) -> ChannelSet {
        let mut cs = ChannelSet::new();
        // Maximal traces cover every channel in a prefix-closed set.
        for t in &self.traces {
            cs.extend(t.iter().map(|e| e.channel().clone()));
        }
        cs
    }
}

/// All traces over the given events with length ≤ `max_len`.
fn sequences_over(events: &[Event], max_len: usize) -> Vec<Trace> {
    let mut out = vec![Trace::empty()];
    let mut frontier = vec![Trace::empty()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for t in &frontier {
            for &e in events {
                let ext = t.snoc(e);
                out.push(ext.clone());
                next.push(ext);
            }
        }
        frontier = next;
    }
    out
}

impl Default for TraceSet {
    fn default() -> Self {
        TraceSet::stop()
    }
}

impl FromIterator<Trace> for TraceSet {
    fn from_iter<I: IntoIterator<Item = Trace>>(iter: I) -> Self {
        TraceSet::closure_of(iter)
    }
}

impl fmt::Display for TraceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for t in self.iter() {
            writeln!(f, "  {t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, Value};

    fn ev(c: &str, n: u32) -> Event {
        Event::new(Channel::simple(c), Value::nat(n))
    }

    fn tr(pairs: &[(&'static str, u32)]) -> Trace {
        Trace::parse_like(pairs.iter().map(|&(c, n)| (c, Value::nat(n))))
    }

    #[test]
    fn stop_is_least_prefix_closure() {
        let s = TraceSet::stop();
        assert_eq!(s.len(), 1);
        assert!(s.contains(&Trace::empty()));
        assert!(s.is_prefix_closed());
        // {<>} ⊆ P for every prefix closure P (§3.1).
        let p = TraceSet::closure_of([tr(&[("a", 1)])]);
        assert!(s.is_subset(&p));
    }

    #[test]
    fn closure_of_closes_under_prefixes() {
        let p = TraceSet::closure_of([tr(&[("a", 1), ("b", 2), ("c", 3)])]);
        assert_eq!(p.len(), 4);
        assert!(p.is_prefix_closed());
        assert!(p.contains(&tr(&[("a", 1)])));
        assert!(p.contains(&tr(&[("a", 1), ("b", 2)])));
    }

    #[test]
    fn prefix_operator_matches_definition() {
        // (a → P) = {<>} ∪ {a^s | s ∈ P}
        let p = TraceSet::closure_of([tr(&[("b", 2)])]);
        let ap = p.prefixed(ev("a", 1));
        assert_eq!(ap.len(), 3); // <>, <a.1>, <a.1, b.2>
        assert!(ap.contains(&Trace::empty()));
        assert!(ap.contains(&tr(&[("a", 1)])));
        assert!(ap.contains(&tr(&[("a", 1), ("b", 2)])));
        assert!(ap.is_prefix_closed());
    }

    #[test]
    fn prefix_distributes_over_union() {
        // (a → ∪ Px) = ∪ (a → Px) — the distributivity theorem of §3.1.
        let p1 = TraceSet::closure_of([tr(&[("b", 1)])]);
        let p2 = TraceSet::closure_of([tr(&[("c", 2)])]);
        let a = ev("a", 0);
        let lhs = p1.union(&p2).prefixed(a);
        let rhs = p1.prefixed(a).union(&p2.prefixed(a));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn union_and_intersection_preserve_closure() {
        let p = TraceSet::closure_of([tr(&[("a", 1), ("b", 2)])]);
        let q = TraceSet::closure_of([tr(&[("a", 1), ("c", 3)])]);
        let u = p.union(&q);
        let i = p.intersection(&q);
        assert!(u.is_prefix_closed());
        assert!(i.is_prefix_closed());
        assert_eq!(i.len(), 2); // <> and <a.1>
        assert_eq!(u.len(), 4); // <>, <a.1>, <a.1 b.2>, <a.1 c.3>
    }

    #[test]
    fn hide_removes_channel_events() {
        let p = TraceSet::closure_of([tr(&[("in", 1), ("w", 1), ("out", 1)])]);
        let c: ChannelSet = ["w"].into_iter().collect();
        let h = p.hide(&c);
        assert!(h.is_prefix_closed());
        assert!(h.contains(&tr(&[("in", 1), ("out", 1)])));
        assert_eq!(h.depth(), 2);
    }

    #[test]
    fn parallel_synchronises_on_common_channels() {
        // copier-like: P = <in.1, w.1>, Q = <w.1, out.1>, sync on w.
        let p = TraceSet::closure_of([tr(&[("in", 1), ("w", 1)])]);
        let q = TraceSet::closure_of([tr(&[("w", 1), ("out", 1)])]);
        let x: ChannelSet = ["in", "w"].into_iter().collect();
        let y: ChannelSet = ["w", "out"].into_iter().collect();
        let par = p.parallel(&x, &q, &y, usize::MAX);
        // Maximal behaviour: in.1 then joint w.1 then out.1.
        assert!(par.contains(&tr(&[("in", 1), ("w", 1), ("out", 1)])));
        // w cannot happen before in (P must participate and P does in first).
        assert!(!par.contains(&tr(&[("w", 1)])));
        // out cannot precede w.
        assert!(!par.contains(&tr(&[("in", 1), ("out", 1)])));
        assert!(par.is_prefix_closed());
    }

    #[test]
    fn parallel_mismatched_sync_value_deadlocks() {
        let p = TraceSet::closure_of([tr(&[("w", 1)])]);
        let q = TraceSet::closure_of([tr(&[("w", 2)])]);
        let x: ChannelSet = ["w"].into_iter().collect();
        let par = p.parallel(&x, &q, &x, usize::MAX);
        // Only the empty trace: the two ends disagree on the message.
        assert_eq!(par.len(), 1);
    }

    #[test]
    fn parallel_disjoint_alphabets_interleaves() {
        let p = TraceSet::closure_of([tr(&[("a", 1)])]);
        let q = TraceSet::closure_of([tr(&[("b", 2)])]);
        let x: ChannelSet = ["a"].into_iter().collect();
        let y: ChannelSet = ["b"].into_iter().collect();
        let par = p.parallel(&x, &q, &y, usize::MAX);
        // <>, <a.1>, <b.2>, <a.1 b.2>, <b.2 a.1>
        assert_eq!(par.len(), 5);
    }

    #[test]
    fn parallel_projections_agree_with_membership() {
        // Characterisation: s ∈ P ‖ Q  ⇒  s↾X ∈ P ∧ s↾Y ∈ Q.
        let p = TraceSet::closure_of([tr(&[("in", 1), ("w", 1), ("in", 2)])]);
        let q = TraceSet::closure_of([tr(&[("w", 1), ("out", 1)])]);
        let x: ChannelSet = ["in", "w"].into_iter().collect();
        let y: ChannelSet = ["w", "out"].into_iter().collect();
        let par = p.parallel(&x, &q, &y, usize::MAX);
        for s in par.iter() {
            assert!(p.contains(&s.project(&x)), "s↾X ∉ P for {s}");
            assert!(q.contains(&s.project(&y)), "s↾Y ∉ Q for {s}");
        }
    }

    #[test]
    fn maximal_traces_summary() {
        let p = TraceSet::closure_of([tr(&[("a", 1), ("b", 2)]), tr(&[("c", 3)])]);
        let max = p.maximal_traces();
        assert_eq!(max.len(), 2);
    }

    #[test]
    fn up_to_depth_truncates() {
        let p = TraceSet::closure_of([tr(&[("a", 1), ("b", 2), ("c", 3)])]);
        let d = p.up_to_depth(1);
        assert_eq!(d.len(), 2);
        assert!(d.is_prefix_closed());
    }

    #[test]
    fn stop_choice_identity_of_section_4() {
        // §4: STOP | P = P in this model — the model's admitted defect.
        let p = TraceSet::closure_of([tr(&[("a", 1), ("b", 2)])]);
        assert_eq!(TraceSet::stop().union(&p), p);
    }

    #[test]
    fn padding_interleaves_foreign_events() {
        // P = {<>, <a.1>} padded with b-events.
        let p = TraceSet::closure_of([tr(&[("a", 1)])]);
        let b = ev("b", 9);
        let padded = p.pad(std::slice::from_ref(&b), 2);
        assert!(padded.contains(&tr(&[("b", 9), ("a", 1)])));
        assert!(padded.contains(&tr(&[("a", 1), ("b", 9)])));
        assert!(padded.contains(&tr(&[("b", 9), ("b", 9)])));
        assert!(padded.is_prefix_closed());
    }

    #[test]
    fn parallel_matches_paper_padding_definition() {
        // §3.1: P ‖_{X,Y} Q = (P ↑ (Y−X)) ∩ (Q ↑ (X−Y)), on traces over
        // X ∪ Y — validated exhaustively on a small instance against the
        // on-the-fly implementation.
        let p = TraceSet::closure_of([tr(&[("a", 1), ("w", 1)])]);
        let q = TraceSet::closure_of([tr(&[("w", 1), ("b", 2)])]);
        let x: ChannelSet = ["a", "w"].into_iter().collect();
        let y: ChannelSet = ["w", "b"].into_iter().collect();
        let depth = 3;

        // Pad events: every event either set can perform on the other's
        // private channels (finite because the operand sets are finite).
        let events_on = |ts: &TraceSet, cs: &ChannelSet| -> Vec<Event> {
            let mut out: Vec<Event> = ts
                .iter()
                .flat_map(|t| t.iter().copied())
                .filter(|e| cs.contains(e.channel()))
                .collect();
            out.sort();
            out.dedup();
            out
        };
        let y_minus_x = y.difference(&x);
        let x_minus_y = x.difference(&y);
        let p_pad = p.pad(&events_on(&q, &y_minus_x), depth);
        let q_pad = q.pad(&events_on(&p, &x_minus_y), depth);
        let by_definition = p_pad.intersection(&q_pad);

        let by_implementation = p.parallel(&x, &q, &y, depth);
        assert_eq!(by_definition, by_implementation);
        let truncated = p.parallel(&x, &q, &y, usize::MAX).up_to_depth(depth);
        assert_eq!(truncated, by_implementation);
    }

    #[test]
    fn iteration_is_sorted_and_deterministic() {
        let p = TraceSet::closure_of([
            tr(&[("c", 3), ("a", 1)]),
            tr(&[("a", 1), ("b", 2)]),
            tr(&[("b", 2)]),
        ]);
        let listed: Vec<String> = p.iter().map(|t| t.to_string()).collect();
        // Lexicographic trace order: prefixes first, then by event order.
        assert_eq!(
            listed,
            ["<>", "<a.1>", "<a.1, b.2>", "<b.2>", "<c.3>", "<c.3, a.1>",]
        );
    }

    #[test]
    fn large_closure_is_near_linear() {
        // Satellite regression test: closing over one 10_000-event trace
        // plus its siblings used to be quadratic (every prefix copied in
        // full). With shared buffers this builds 10_001 views of one
        // buffer and must finish essentially instantly.
        let long: Trace = (0..10_000)
            .map(|i| ev("deep", i % 7))
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        let set = TraceSet::closure_of([long.clone()]);
        assert_eq!(set.len(), 10_001);
        assert!(set.is_prefix_closed());
        assert_eq!(set.depth(), 10_000);
        let max = set.maximal_traces();
        assert_eq!(max.len(), 1);
        assert_eq!(*max[0], long);
    }
}
