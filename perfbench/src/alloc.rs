//! A counting wrapper around the system allocator, modelled on the one
//! `csp profile` installs in the `csp` binary. It counts only while
//! [`enable`]d, which the benchmark does during traced passes alone, so
//! untraced runs pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// updates have no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            COUNT.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            COUNT.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        }
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `realloc`'s contract for `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Starts or stops counting.
pub fn enable(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Allocations and bytes counted so far (process-wide, every thread).
pub fn totals() -> (u64, u64) {
    (COUNT.load(Relaxed), BYTES.load(Relaxed))
}
