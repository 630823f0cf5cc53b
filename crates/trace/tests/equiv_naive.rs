//! Property-based equivalence of the interned [`TraceSet`] against the
//! retained naive reference implementation ([`NaiveTraceSet`]).
//!
//! The interned engine replaced the original `BTreeSet<Vec<Event>>`
//! representation with hash-consed, structurally shared traces. These
//! properties pin the refactor to the original observable behaviour:
//! every operator, applied to the same randomly generated prefix-closed
//! sets, must produce extensionally equal results — and the sorted
//! iteration order must match the reference's `BTreeSet` order exactly.

use csp_trace::{Channel, ChannelSet, Event, NaiveTraceSet, Trace, TraceSet, Value};
use proptest::prelude::*;

/// The closed alphabet the generators draw from. Three channels and
/// three values keep the event space small enough that random sets
/// collide, sync, and hide against each other often.
const CHANNELS: [&str; 3] = ["a", "b", "c"];

fn event(channel_idx: usize, value: u32) -> Event {
    Event::new(
        Channel::simple(CHANNELS[channel_idx % CHANNELS.len()]),
        Value::nat(value),
    )
}

fn channel_set(names: &[&str]) -> ChannelSet {
    names.iter().map(|n| Channel::simple(n)).collect()
}

/// A strategy for one trace: a short word over the alphabet.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0usize..3, 0u32..3), 0..6)
        .prop_map(|word| Trace::from_events(word.into_iter().map(|(c, v)| event(c, v))))
}

/// The reference set's traces of length at most `depth`.
fn up_to(naive: &NaiveTraceSet, depth: usize) -> NaiveTraceSet {
    NaiveTraceSet::closure_of(naive.iter().filter(|t| t.len() <= depth).cloned())
}

/// A strategy for a *pair* of equal sets in both representations,
/// built by prefix-closing the same random generator traces.
fn set_pair_strategy() -> impl Strategy<Value = (TraceSet, NaiveTraceSet)> {
    prop::collection::vec(trace_strategy(), 0..8).prop_map(|traces| {
        let fast = TraceSet::closure_of(traces.iter().cloned());
        let naive = NaiveTraceSet::closure_of(traces);
        (fast, naive)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn construction_agrees(pair in set_pair_strategy()) {
        let (fast, naive) = pair;
        prop_assert!(naive.agrees_with(&fast));
        prop_assert_eq!(fast.len(), naive.len());
        prop_assert!(fast.is_prefix_closed());
        prop_assert!(naive.is_prefix_closed());
    }

    #[test]
    fn sorted_iteration_matches_btreeset_order(pair in set_pair_strategy()) {
        let (fast, naive) = pair;
        let fast_order: Vec<&Trace> = fast.iter().collect();
        let naive_order: Vec<&Trace> = naive.iter().collect();
        prop_assert_eq!(fast_order, naive_order);
    }

    #[test]
    fn union_agrees(p in set_pair_strategy(), q in set_pair_strategy()) {
        let ((fa, na), (fb, nb)) = (p, q);
        prop_assert!(na.union(&nb).agrees_with(&fa.union(&fb)));
    }

    #[test]
    fn intersection_agrees(p in set_pair_strategy(), q in set_pair_strategy()) {
        let ((fa, na), (fb, nb)) = (p, q);
        prop_assert!(na.intersection(&nb).agrees_with(&fa.intersection(&fb)));
    }

    #[test]
    fn is_subset_agrees(p in set_pair_strategy(), q in set_pair_strategy()) {
        let ((fa, na), (fb, nb)) = (p, q);
        prop_assert_eq!(fa.is_subset(&fb), na.is_subset(&nb));
        // A set and its own union are always in the subset relation, in
        // both representations (sanity against vacuous agreement).
        prop_assert!(fa.is_subset(&fa.union(&fb)));
        prop_assert!(na.is_subset(&na.union(&nb)));
    }

    #[test]
    fn prefixed_agrees(pair in set_pair_strategy(), c in 0usize..3, v in 0u32..3) {
        let (fast, naive) = pair;
        let e = event(c, v);
        prop_assert!(naive.prefixed(e).agrees_with(&fast.prefixed(e)));
    }

    #[test]
    fn hide_agrees(pair in set_pair_strategy(), which in 0usize..3) {
        let (fast, naive) = pair;
        let hidden = channel_set(&[CHANNELS[which]]);
        prop_assert!(naive.hide(&hidden).agrees_with(&fast.hide(&hidden)));
    }

    #[test]
    fn parallel_agrees(
        p in set_pair_strategy(),
        q in set_pair_strategy(),
        bound in 0usize..8,
    ) {
        let ((fa, na), (fb, nb)) = (p, q);
        // Overlapping alphabets: the processes synchronise on `b`.
        let x = channel_set(&["a", "b"]);
        let y = channel_set(&["b", "c"]);
        let fast = fa.parallel(&x, &fb, &y, usize::MAX);
        let naive = na.parallel(&x, &nb, &y);
        prop_assert!(naive.agrees_with(&fast));
        let cut = fa.parallel(&x, &fb, &y, bound);
        prop_assert!(up_to(&naive, bound).agrees_with(&cut));
    }

    #[test]
    fn parallel_disjoint_alphabets_agree(
        p in set_pair_strategy(),
        q in set_pair_strategy(),
        bound in 0usize..8,
    ) {
        let ((fa, na), (fb, nb)) = (p, q);
        // Disjoint alphabets: free interleaving, the combinatorial
        // worst case for the merge.
        let x = channel_set(&["a"]);
        let y = channel_set(&["c"]);
        let naive = na.parallel(&x, &nb, &y);
        prop_assert!(naive.agrees_with(&fa.parallel(&x, &fb, &y, usize::MAX)));
        prop_assert!(up_to(&naive, bound).agrees_with(&fa.parallel(&x, &fb, &y, bound)));
    }

    #[test]
    fn maximal_traces_and_depth_agree(pair in set_pair_strategy()) {
        let (fast, naive) = pair;
        prop_assert_eq!(fast.depth(), naive.depth());
        let fast_max: Vec<&Trace> = fast.maximal_traces();
        let naive_max: Vec<&Trace> = naive.maximal_traces();
        prop_assert_eq!(fast_max, naive_max);
    }

    #[test]
    fn contains_agrees_on_arbitrary_traces(pair in set_pair_strategy(), probe in trace_strategy()) {
        let (fast, naive) = pair;
        prop_assert_eq!(fast.contains(&probe), naive.contains(&probe));
        for prefix in probe.prefixes() {
            prop_assert_eq!(fast.contains(&prefix), naive.contains(&prefix));
        }
    }
}

/// Operators compose: a pipeline of union → parallel → hide stays in
/// agreement, so errors cannot hide in representation round-trips.
#[test]
fn composed_pipeline_agrees() {
    let words: Vec<Vec<(usize, u32)>> = vec![
        vec![(0, 1), (1, 2)],
        vec![(1, 2), (2, 0)],
        vec![(0, 0), (0, 1), (1, 1)],
        vec![(2, 2)],
    ];
    let traces: Vec<Trace> = words
        .iter()
        .map(|w| Trace::from_events(w.iter().map(|&(c, v)| event(c, v))))
        .collect();
    let fast_a = TraceSet::closure_of(traces[..2].iter().cloned());
    let fast_b = TraceSet::closure_of(traces[2..].iter().cloned());
    let naive_a = NaiveTraceSet::closure_of(traces[..2].iter().cloned());
    let naive_b = NaiveTraceSet::closure_of(traces[2..].iter().cloned());
    let x = channel_set(&["a", "b"]);
    let y = channel_set(&["b", "c"]);
    let hidden = channel_set(&["b"]);
    let fast = fast_a
        .union(&fast_b)
        .parallel(&x, &fast_b, &y, usize::MAX)
        .hide(&hidden);
    let naive = naive_a
        .union(&naive_b)
        .parallel(&x, &naive_b, &y)
        .hide(&hidden);
    assert!(naive.agrees_with(&fast));
    assert_eq!(
        fast.iter().collect::<Vec<_>>(),
        naive.iter().collect::<Vec<_>>()
    );
}
