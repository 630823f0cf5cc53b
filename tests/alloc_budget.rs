//! The allocation budget of one compiled `sat` check.
//!
//! A bounded check of the width-4 multiplier at depth 4 computes every
//! row from its network's skeleton: the start state's row from its
//! unfolded trunk, an inner `||` as a spine node before its first move.
//! Keys and rows sit in flat buffers, a component steps at its control
//! point without building its successors' terms, the walk's visited
//! pairs sit in per-trace blocks, and the judge moves one history over
//! the trace tree without copying a channel it already holds: about
//! 3,100 allocations. Closing and interning each component successor as
//! a term took one such check to about 5,800, and stepping the start
//! state and the unmoved inner `||`s as whole terms, with a key and a
//! row allocated per state, to about 12,300: both past the bound. This
//! binary counts allocations with its own global allocator, on the
//! test's thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use csp::SatResult;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; counting has
// no effect on allocation behaviour, and the counter itself never
// allocates (a `const` thread-local without a destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `realloc`'s contract for `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn one_multiplier_check_stays_within_its_allocation_budget() {
    let wb = csp_bench::multiplier_workbench(4);
    let invariant = csp_bench::multiplier_invariant(4);
    let check = || wb.check_sat("multiplier", &invariant, 4).expect("checks");
    // The first check also interns the network's events for the process.
    let warm = check();
    let (verdict, n) = allocations(check);
    let SatResult::Holds { traces_checked, .. } = verdict else {
        panic!("the multiplier invariant is refuted: {verdict:?}");
    };
    assert_eq!(traces_checked, 1001);
    assert!(warm.holds());
    assert!(n < 3_400, "{n} allocations for one check");
}
