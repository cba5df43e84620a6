//! A counting global allocator with per-thread attribution.
//!
//! `allocs_per_op` has to separate what the *system* allocates from what
//! the load generator and the answer oracle allocate on their own thread,
//! so every allocation is counted twice: into a process-wide striped
//! total and into a plain thread-local cell. The binary (and each test
//! binary that wants counts) installs it with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator, counting calls to `alloc`/`alloc_zeroed`/`realloc`.
pub struct CountingAlloc;

const STRIPES: usize = 16;

/// One cache line per stripe so two busy threads never share a counter.
#[repr(align(64))]
struct Stripe(AtomicU64);

static TOTALS: [Stripe; STRIPES] = [const { Stripe(AtomicU64::new(0)) }; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without destructors: touching them inside the
    // allocator can neither allocate nor register a TLS destructor.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn count() {
    // `try_with` fails only during thread teardown; those few frees and
    // allocations still reach the striped total through stripe 0.
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
    let stripe = STRIPE
        .try_with(|s| {
            if s.get() == usize::MAX {
                // relaxed-ok: a round-robin ticket; only distinctness matters
                s.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES);
            }
            s.get()
        })
        .unwrap_or(0);
    // relaxed-ok: a statistic; readers sum it after joining the writers
    TOTALS[stripe].0.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics and const-initialised
// thread-locals, so it cannot re-enter the allocator or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by every thread so far (0 when the counting
/// allocator is not installed).
pub fn total_allocs() -> u64 {
    // relaxed-ok: a statistic read after the measured threads were joined
    // or between phases on the thread that drives them
    TOTALS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    LOCAL.with(|c| c.get())
}
