//! A content cache costs memory for the objects it holds, not for its
//! bound: deploying a platform whose servers may each cache 64 objects
//! takes exactly the heap of one whose servers may cache 65 536, because
//! nothing has been cached yet. Proven with the counting
//! `#[global_allocator]` idiom of `crates/ldns/tests/zero_alloc.rs`, here
//! counting live bytes instead of allocations.
//!
//! This file holds exactly one `#[test]` on purpose, and the counter only
//! counts the test thread's own heap traffic: libtest harness threads
//! allocate at unpredictable times.

use eum_cdn::{deployment_universe, CdnPlatform, DeployConfig};
use eum_netmodel::{Internet, InternetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

struct CountingAlloc;

/// Bytes the test thread has allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

std::thread_local! {
    static IS_TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count(delta: i64) {
    // try_with: allocator calls can outlive a thread's TLS (during
    // teardown); treat those as not-the-test-thread.
    if IS_TEST_THREAD.try_with(|f| f.get()).unwrap_or(false) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards verbatim to the System allocator, so
// the GlobalAlloc contract is exactly System's; the counter update
// touches only an atomic and a const-initialized thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as System::alloc; forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: caller upholds GlobalAlloc's contract; layout passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as System::dealloc; forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: ptr was produced by the System forwards above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as System::realloc; forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: ptr/layout originate from this allocator's System forwards.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as System::alloc_zeroed; forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: caller upholds GlobalAlloc's contract; layout passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SEED: u64 = 7;

/// Live heap bytes a tiny-world deployment holds once `deploy` returns
/// (the platform itself plus what it registered in the Internet).
fn deploy_bytes(cache_objects_per_server: usize) -> i64 {
    let mut net = Internet::generate(InternetConfig::tiny(SEED));
    let sites = deployment_universe(SEED, 16);
    let cfg = DeployConfig {
        servers_per_cluster: 4,
        cache_objects_per_server,
        cluster_capacity: 0.0,
    };
    IS_TEST_THREAD.with(|f| f.set(true));
    let before = LIVE.load(Ordering::Relaxed);
    let cdn = CdnPlatform::deploy(&mut net, &sites, &cfg);
    let bytes = LIVE.load(Ordering::Relaxed) - before;
    IS_TEST_THREAD.with(|f| f.set(false));
    assert_eq!(cdn.servers.len(), 64);
    assert!(cdn
        .servers
        .iter()
        .all(|s| s.cache.capacity() == cache_objects_per_server && s.cache.is_empty()));
    bytes
}

#[test]
fn content_cache_bound_costs_no_memory_until_used() {
    let small = deploy_bytes(64);
    let large = deploy_bytes(65_536);
    assert!(small > 0);
    assert_eq!(
        small, large,
        "a deployment's heap must not grow with the content caches' bound"
    );
}
