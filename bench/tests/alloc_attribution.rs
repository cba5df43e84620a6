//! The counting allocator attributes allocations to the thread that made
//! them — what lets `allocs_per_op` leave the generator's own (oracle,
//! bookkeeping) allocations out.

use eum_e2e_bench::alloc::{thread_allocs, total_allocs, CountingAlloc};
use std::hint::black_box;
use std::sync::mpsc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn allocations_are_counted_once_globally_and_once_on_their_thread() {
    let total0 = total_allocs();
    let mine0 = thread_allocs();

    // A worker allocates exactly N boxes between two rendezvous points,
    // so its count is read while it is parked, not racing.
    const N: u64 = 1_000;
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<(u64, u64)>();
    let worker = std::thread::spawn(move || {
        go_rx.recv().unwrap();
        let before = thread_allocs();
        let boxes: Vec<Box<u64>> = {
            let mut v = Vec::with_capacity(N as usize); // one allocation
            for i in 0..N {
                v.push(black_box(Box::new(i))); // N allocations
            }
            v
        };
        let after = thread_allocs();
        drop(boxes); // frees are not allocations
        done_tx.send((before, thread_allocs())).unwrap();
        assert_eq!(after - before, N + 1);
    });
    let mine_before_go = thread_allocs();
    go_tx.send(()).unwrap();
    let (before, after) = done_rx.recv().unwrap();
    worker.join().unwrap();

    assert_eq!(after - before, N + 1, "worker's own count");
    // This thread made a few allocations (channels, the spawn), but none
    // of the worker's thousand landed on it.
    let mine = thread_allocs() - mine0;
    assert!(mine < 100, "main thread was charged {mine}");
    assert!(thread_allocs() - mine_before_go < 50);
    // The process-wide total saw both threads.
    assert!(total_allocs() - total0 >= N + 1 + mine);
}

#[test]
fn realloc_counts_as_an_allocation() {
    let before = thread_allocs();
    let mut v: Vec<u8> = Vec::with_capacity(8);
    v.extend_from_slice(&[0; 8]);
    let mid = thread_allocs();
    v.extend_from_slice(&[0; 4096]); // must grow
    black_box(&v);
    assert_eq!(mid - before, 1);
    assert!(thread_allocs() - mid >= 1);
}
