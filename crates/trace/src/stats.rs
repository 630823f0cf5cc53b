//! Global operation counters for the trace substrate.
//!
//! The trace-set operators (`union`, `parallel`, `hide`) and the event
//! interner are pure data-structure code called from deep inside the
//! denotational model, on whichever thread builds the sets (`csp serve`
//! workers, the soundness validators' fan-out). Threading a collector
//! handle through every call would put an observability parameter on
//! arithmetic; instead this module keeps process-global
//! relaxed atomics that the operators bump unconditionally (one relaxed
//! `fetch_add` per operation — cheaper than the branch a collector check
//! would cost) and that sessions snapshot before and after a run to
//! obtain a delta.
//!
//! Relaxed ordering is sufficient: the counters are monotone tallies
//! with no cross-counter invariants, and snapshots are only taken from
//! quiescent points (before/after a run on the coordinating thread).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            #[allow(non_upper_case_globals)]
            static $name: AtomicU64 = AtomicU64::new(0);
        )*

        /// A point-in-time snapshot of the global trace-operation
        /// counters. Obtain one with [`OpStats::snapshot`], subtract two
        /// with [`OpStats::delta`] to isolate one run's work.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(non_snake_case)]
        pub struct OpStats {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl OpStats {
            /// Reads all counters (relaxed; call from a quiescent point).
            pub fn snapshot() -> OpStats {
                OpStats { $( $name: $name.load(Relaxed), )* }
            }

            /// The counter increments between `earlier` and `self`
            /// (saturating, so a stale baseline never underflows).
            pub fn delta(&self, earlier: &OpStats) -> OpStats {
                OpStats { $( $name: self.$name.saturating_sub(earlier.$name), )* }
            }
        }
    };
}

counters! {
    /// `TraceSet::union` calls.
    unions,
    /// Total traces in union results.
    union_out_traces,
    /// `TraceSet::parallel` calls.
    parallels,
    /// Total traces in parallel-composition results.
    parallel_out_traces,
    /// `TraceSet::hide` calls.
    hides,
    /// Total traces in hiding results.
    hide_out_traces,
    /// Interner lookups satisfied by the read path.
    intern_hits,
    /// Interner lookups that allocated a fresh record.
    intern_misses,
}

impl OpStats {
    /// Interner hit rate in percent (100 when no lookups happened —
    /// an idle interner has nothing to miss).
    pub fn intern_hit_rate_pct(&self) -> u64 {
        let total = self.intern_hits + self.intern_misses;
        (self.intern_hits * 100).checked_div(total).unwrap_or(100)
    }
}

pub(crate) fn record_union(out_len: usize) {
    unions.fetch_add(1, Relaxed);
    union_out_traces.fetch_add(out_len as u64, Relaxed);
}

pub(crate) fn record_parallel(out_len: usize) {
    parallels.fetch_add(1, Relaxed);
    parallel_out_traces.fetch_add(out_len as u64, Relaxed);
}

pub(crate) fn record_hide(out_len: usize) {
    hides.fetch_add(1, Relaxed);
    hide_out_traces.fetch_add(out_len as u64, Relaxed);
}

pub(crate) fn record_intern_hit() {
    intern_hits.fetch_add(1, Relaxed);
}

pub(crate) fn record_intern_miss() {
    intern_misses.fetch_add(1, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, ChannelSet, Event, TraceSet, Value};

    #[test]
    fn deltas_capture_operation_counts() {
        let before = OpStats::snapshot();
        let a = Event::new(Channel::simple("stats_a"), Value::nat(1));
        let b = Event::new(Channel::simple("stats_b"), Value::nat(2));
        let p = TraceSet::stop().prefixed(a);
        let q = TraceSet::stop().prefixed(b);
        let u = p.union(&q);
        let x: ChannelSet = ["stats_a"].into_iter().collect();
        let y: ChannelSet = ["stats_b"].into_iter().collect();
        let par = p.parallel(&x, &q, &y, usize::MAX);
        let h = par.hide(&x);
        let d = OpStats::snapshot().delta(&before);
        // Other tests may run concurrently, so the deltas are lower
        // bounds rather than exact counts.
        assert!(d.unions >= 1);
        assert!(d.union_out_traces >= u.len() as u64);
        assert!(d.parallels >= 1);
        assert!(d.parallel_out_traces >= par.len() as u64);
        assert!(d.hides >= 1);
        assert!(d.hide_out_traces >= h.len() as u64);
    }

    #[test]
    fn intern_counters_distinguish_hits_from_misses() {
        let before = OpStats::snapshot();
        let _fresh = Event::new(Channel::simple("stats_fresh_evt"), Value::nat(77));
        let _again = Event::new(Channel::simple("stats_fresh_evt"), Value::nat(77));
        let d = OpStats::snapshot().delta(&before);
        assert!(d.intern_misses >= 1);
        assert!(d.intern_hits >= 1);
        assert!(d.intern_hit_rate_pct() <= 100);
    }

    #[test]
    fn hit_rate_of_empty_delta_is_full() {
        assert_eq!(OpStats::default().intern_hit_rate_pct(), 100);
    }
}
