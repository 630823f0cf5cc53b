//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! vendors the slice of rayon it uses: [`join`], `.into_par_iter()` on
//! vectors and ranges, `.par_iter()` on slices, and the
//! [`ParIter::map`]/[`ParIter::for_each`]/[`ParIter::collect`] pipeline.
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **no global thread pool** — each parallel operation runs on fresh
//!   scoped threads (`std::thread::scope`); for the coarse, millisecond-
//!   scale tasks this workspace fans out (cross-validated proof scripts,
//!   rule validation, fault sweeps), spawn cost is noise. Per-request
//!   paths do not fan out: a `sat` check judges its traces and the §3.3
//!   fixpoint iterates its instances on the calling thread, because
//!   spawning on every `csp serve` request made concurrent requests pay
//!   for each other's thread start-up;
//! * **eager adaptors** — `map` runs its closure in parallel immediately
//!   and materialises the results (order-preserving), rather than
//!   building a lazy pipeline. Composed `map`s therefore each pay one
//!   fan-out; call sites here use a single `map` per pipeline;
//! * work is distributed dynamically (an atomic index over item slots),
//!   so unevenly sized tasks — proof scripts, rule validators — balance
//!   across workers;
//! * `RAYON_NUM_THREADS` is honoured (`1` disables threading entirely,
//!   useful when bisecting nondeterminism).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads a parallel operation may use — upstream
/// rayon's `current_num_threads()`. Long-lived consumers (the `csp
/// serve` worker pool) use this as their default width so one knob,
/// `RAYON_NUM_THREADS`, sizes every thread pool in the workspace.
pub fn current_num_threads() -> usize {
    max_threads()
}

/// Number of worker threads a parallel operation may use.
fn max_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs the two closures, potentially in parallel, returning both
/// results. The first runs on the calling thread.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if max_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("rayon::join worker panicked");
        (ra, rb)
    })
}

/// Applies `f` to every item on a dynamically balanced pool of scoped
/// threads, preserving input order in the output.
fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = max_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Item and result slots the workers claim via an atomic cursor. The
    // per-slot mutexes are uncontended (each slot is touched by exactly
    // one worker) and keep the implementation free of `unsafe`.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("slot lock")
                    .take()
                    .expect("slot claimed once");
                let result = f(item);
                *out[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("worker filled slot")
        })
        .collect()
}

/// A materialised parallel iterator over owned items.
#[derive(Debug)]
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps every item through `f` in parallel, preserving order.
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParIter {
            items: parallel_map(self.items, f),
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        let _ = parallel_map(self.items, f);
    }

    /// Keeps the items satisfying `keep` (applied in parallel).
    pub fn filter<F>(self, keep: F) -> ParIter<T>
    where
        F: Fn(&T) -> bool + Sync,
    {
        let kept = parallel_map(self.items, |t| if keep(&t) { Some(t) } else { None });
        ParIter {
            items: kept.into_iter().flatten().collect(),
        }
    }

    /// Collects the (already materialised) items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion into a parallel iterator over owned items —
/// `vec.into_par_iter()`.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;

    /// Converts `self`.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Conversion into a parallel iterator over borrowed items —
/// `slice.par_iter()`.
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed element type.
    type Item: Send + 'a;

    /// Borrows `self`.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Everything a call site needs: `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order() {
        let squares: Vec<u64> = (0u64..1000).into_par_iter().map(|n| n * n).collect();
        assert_eq!(squares.len(), 1000);
        assert!(squares
            .iter()
            .enumerate()
            .all(|(i, &s)| s == (i as u64).pow(2)));
    }

    #[test]
    fn par_iter_borrows() {
        let words = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let lens: Vec<usize> = words.par_iter().map(|w| w.len()).collect();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 6 * 7, || "ok");
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn filter_runs_in_parallel_but_keeps_order() {
        let evens: Vec<usize> = (0usize..100)
            .into_par_iter()
            .filter(|n| n % 2 == 0)
            .collect();
        assert_eq!(evens.len(), 50);
        assert!(evens.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn for_each_observes_every_item() {
        let seen = std::sync::atomic::AtomicUsize::new(0);
        (0usize..64).into_par_iter().for_each(|_| {
            seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(seen.into_inner(), 64);
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn uneven_tasks_balance() {
        // Tasks of wildly different cost still all complete and keep order.
        let out: Vec<u64> = (0u64..32)
            .into_par_iter()
            .map(|n| if n % 7 == 0 { (0..n * 1000).sum() } else { n })
            .collect();
        assert_eq!(out[1], 1);
        assert_eq!(out.len(), 32);
    }
}
