//! A full rebuild scores into the ranking tables the previous generation
//! already owns: while it runs, the heap grows by less than those tables
//! take, because no second set is allocated beside them. Proven with the
//! counting `#[global_allocator]` idiom of
//! `crates/cdn/tests/deploy_footprint.rs`, here tracking the peak of the
//! live bytes.
//!
//! This file holds exactly one `#[test]` on purpose, and the counter only
//! counts the test thread's own heap traffic: libtest harness threads
//! allocate at unpredictable times. `rebuild_workers: 1` keeps the
//! rebuild's scoring on the test thread too.

use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_mapping::{MappingConfig, MappingSystem, RescoreHints};
use eum_netmodel::{Internet, InternetConfig};
use eum_telemetry::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

/// Bytes the test thread has allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The largest value `LIVE` has taken.
static PEAK: AtomicI64 = AtomicI64::new(0);

std::thread_local! {
    static IS_TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count(delta: i64) {
    // try_with: allocator calls can outlive a thread's TLS (during
    // teardown); treat those as not-the-test-thread.
    if IS_TEST_THREAD.try_with(|f| f.get()).unwrap_or(false) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards verbatim to the System allocator, so
// the GlobalAlloc contract is exactly System's; the counter update
// touches only atomics and a const-initialized thread-local.
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

const SEED: u64 = 0xF007;

#[test]
fn full_rebuild_grows_the_heap_by_less_than_the_ranking_tables() {
    let mut net = Internet::generate(InternetConfig::tiny(SEED));
    let sites = deployment_universe(SEED, 16);
    let mut cdn = CdnPlatform::deploy(&mut net, &sites, &DeployConfig::default());
    let catalog = ContentCatalog::generate(&CatalogConfig::tiny(SEED));
    let mut map = MappingSystem::build(
        &mut net,
        &cdn,
        &catalog,
        "cdn.example".parse().unwrap(),
        MappingConfig {
            max_ping_targets: 40,
            rebuild_workers: 1,
            ..MappingConfig::default()
        },
    );
    let registry = Arc::new(Registry::new());
    map.attach_telemetry(registry.clone());

    // A few control-plane cycles before the periodic full rebuild: flip
    // a non-escape cluster's liveness, rebuild incrementally, publish.
    let mut snapshot = map.clone_for_publish();
    for i in 1..5 {
        let alive = cdn.clusters[i].alive;
        cdn.set_cluster_alive(cdn.clusters[i].id, !alive);
        let delta = map.rebuild_incremental(&net, &cdn, &RescoreHints::default());
        assert!(!delta.is_full(), "cycle {i} stayed incremental");
        snapshot = map.clone_for_publish();
    }
    let tables = registry.gauge("eum_mapping_solver_bytes", "", &[]).get() as i64;
    assert!(tables > 0);

    // A shard still serves `snapshot` while the full rebuild runs.
    IS_TEST_THREAD.with(|f| f.set(true));
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    map.rebuild(&net, &cdn);
    let growth = PEAK.load(Ordering::Relaxed) - before;
    IS_TEST_THREAD.with(|f| f.set(false));

    assert_eq!(
        registry.gauge("eum_mapping_solver_bytes", "", &[]).get() as i64,
        tables,
        "same world, same table shapes"
    );
    assert!(
        growth < tables,
        "a full rebuild grew the heap by {growth} B at its peak, not below the \
         {tables} B of ranking tables it should rescore in place"
    );
    drop(snapshot);
}
