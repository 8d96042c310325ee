//! E3 — Slice-granularity locking vs. whole-queue locks (Sec. 4.3).
//!
//! Claim: "slices … form a natural new granularity … By locking just the
//! affected slices, full serializability of the individual
//! message-processing transactions can be guaranteed without locking whole
//! queues."
//!
//! **Measurement note.** This harness runs on whatever CPU budget the host
//! grants; on a single-core container (this reproduction's CI environment
//! reports `available_parallelism = 1`) wall-clock *scaling* with worker
//! threads is physically impossible for either configuration. The
//! granularity claim is therefore measured by its direct observable —
//! **lock contention**: the number of acquisitions that had to block
//! (`demaq_store_lock_conflicts_total`, one per acquisition however often
//! its wait is woken).
//! Queue-exclusive locking makes almost every concurrent transaction block
//! on the single work queue; slice locking blocks only when two workers
//! hit the *same* slice. On a multi-core host the blocked-acquisition gap
//! is exactly what turns into the throughput gap. A Criterion timing group
//! is included for completeness.
//!
//! Workload: 384 messages over 32 slices; the slicing rule aggregates its
//! slice's content (real per-transaction work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use demaq::Server;
use demaq_store::store::SyncPolicy;
use demaq_store::LockGranularity;
use std::time::{Duration, Instant};

const MESSAGES: usize = 384;
const SLICES: usize = 32;

fn build_with(granularity: LockGranularity, sync: SyncPolicy) -> Server {
    let server = Server::builder()
        .program(
            r#"
            create queue work kind basic mode persistent
            create queue alerts kind basic mode persistent
            create property instance as xs:string fixed queue work value //@instance
            create slicing byInstance on instance
            create rule watch for byInstance
              if (sum(for $e in qs:slice()//n return number($e)) >= 100000000) then
                do enqueue <overflow>{qs:slicekey()}</overflow> into alerts
            "#,
        )
        .in_memory()
        .sync_policy(sync)
        .lock_granularity(granularity)
        .build()
        .expect("valid program");
    for i in 0..MESSAGES {
        let inst = i % SLICES;
        server
            .enqueue_external(
                "work",
                &format!("<event instance='i{inst}'><n>{i}</n></event>"),
            )
            .expect("enqueue");
    }
    server
}

/// The primary E3 table: blocked lock acquisitions per configuration.
fn contention_report() {
    // Durable commits model the paper's transactional message store. A
    // transaction releases its locks before any durability wait (the
    // engine leaves the fsync to a later barrier), so a blocked
    // acquisition below waits for the holder's evaluation and WAL append,
    // not for a sync.
    println!("\n--- E3 lock contention (blocked acquisitions, {MESSAGES} msgs / {SLICES} slices, fsync commits) ---");
    println!(
        "{:>8} {:>14} {:>14}",
        "workers", "queue locks", "slice locks"
    );
    for &threads in &[1usize, 2, 4, 8] {
        let mut cells = Vec::new();
        for granularity in [LockGranularity::Queue, LockGranularity::Slice] {
            let server = build_with(granularity, SyncPolicy::Always);
            let done = server.process_all_parallel(threads).expect("run");
            assert_eq!(done, MESSAGES as u64);
            cells.push(
                server
                    .metrics()
                    .registry
                    .counter_total("demaq_store_lock_conflicts_total"),
            );
        }
        println!("{:>8} {:>14} {:>14}", threads, cells[0], cells[1]);
    }
    println!(
        "(host parallelism: {:?}; on a single core the wall-clock columns below \
         cannot separate — the blocked counts are the claim's observable)\n",
        std::thread::available_parallelism()
    );
}

fn bench_e3(c: &mut Criterion) {
    contention_report();
    let mut group = c.benchmark_group("e3_locking");
    group.sample_size(10);
    group.throughput(Throughput::Elements(MESSAGES as u64));

    for &threads in &[1usize, 4] {
        for (label, granularity) in [
            ("queue_locks", LockGranularity::Queue),
            ("slice_locks", LockGranularity::Slice),
        ] {
            group.bench_with_input(BenchmarkId::new(label, threads), &threads, |b, &threads| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        let server = build_with(granularity, SyncPolicy::Batch);
                        let t = Instant::now();
                        let done = server.process_all_parallel(threads).expect("parallel run");
                        total += t.elapsed();
                        assert_eq!(done, MESSAGES as u64);
                    }
                    total
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_e3);
criterion_main!(benches);
