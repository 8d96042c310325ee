//! E4 — Append-only logging & recovery (Sec. 4.1).
//!
//! Claims: (a) "our append-only approach for message queues simplifies
//! logging and recovery because there are fewer in-place updates";
//! (b) "our declarative mechanism for specifying message retention frees
//! the system from the need to fully log message deletions — after a
//! crash, the decision to delete certain messages can be reached without
//! analyzing the log."
//!
//! Measured: (1) recovery (reopen) time after M persistent messages, with
//! and without a checkpoint — recovery replays the logical redo log;
//! (2) the *log volume* of the append-only design vs. an update-in-place
//! baseline that must write before/after images of a state record per
//! operation (modelled by the BPEL context engine's serialization bytes);
//! (3) GC after crash needs no log analysis (asserted, timed).
//!
//! Demaq logs each committed transaction as one CRC frame of compact ops:
//! no begin/commit records, no transaction id, varint ids and lengths,
//! binary property values, and each queue or slicing name written once per
//! segment and referenced by a small id after that. Here a transaction is
//! one enqueue (a ~45-byte payload) and one slice add, so the log is the
//! payload plus a few dozen bytes per message.
//!
//! Expected shape: log bytes per message are ~constant for Demaq (about 70
//! bytes here) and grow with context size for the baseline; checkpointed
//! recovery is near-flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use demaq_baselines::ContextEngine;
use demaq_store::{MessageStore, PropValue, QueueMode, StoreOptions};
use tempfile::TempDir;

fn populate(dir: &TempDir, messages: usize, checkpoint: bool) -> u64 {
    let store = MessageStore::open(StoreOptions::new(dir.path())).expect("open");
    store
        .create_queue("q", QueueMode::Persistent, 0)
        .expect("queue");
    for i in 0..messages {
        let txn = store.begin();
        let id = store
            .enqueue(
                txn,
                "q",
                format!("<order><n>{i}</n><body>payload {i}</body></order>").into(),
                vec![],
                0,
            )
            .expect("enqueue");
        store
            .slice_add(txn, "s", PropValue::Int((i % 10) as i64), id)
            .expect("slice");
        store.commit(txn).expect("commit");
    }
    if checkpoint {
        store.checkpoint().expect("checkpoint");
    }
    store.wal_bytes_logged()
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_recovery");
    group.sample_size(10);
    for &m in &[200usize, 1000, 4000] {
        for (label, ckpt) in [("replay_log", false), ("from_checkpoint", true)] {
            let dir = TempDir::new().expect("tempdir");
            populate(&dir, m, ckpt);
            group.bench_with_input(BenchmarkId::new(label, m), &m, |b, &m| {
                b.iter(|| {
                    let store = MessageStore::open(StoreOptions::new(dir.path())).expect("recover");
                    assert_eq!(store.message_count(), m);
                    store.message_count()
                });
            });
        }
    }
    group.finish();
}

/// Not a timing benchmark: print the log-volume comparison table that
/// EXPERIMENTS.md records (append-only logical log vs. state-image churn).
fn log_volume_report() {
    println!("\n--- E4 log volume (bytes written per message) ---");
    println!(
        "{:>10} {:>18} {:>24}",
        "messages", "demaq WAL B/msg", "context-image B/msg"
    );
    for &m in &[200usize, 1000, 4000] {
        let dir = TempDir::new().expect("tempdir");
        let wal_bytes = populate(&dir, m, false);

        // Update-in-place baseline: a BPEL-ish engine that persists the
        // accumulated instance state on every eviction; with a small cap
        // it effectively rewrites state images continually.
        let cdir = TempDir::new().expect("tempdir");
        let mut eng = ContextEngine::new(cdir.path(), 8).expect("engine");
        for i in 0..m {
            eng.deliver(
                &format!("i{}", i % 64),
                &format!("<order><n>{i}</n><body>payload {i}</body></order>"),
            )
            .expect("deliver");
        }
        println!(
            "{:>10} {:>18.1} {:>24.1}",
            m,
            wal_bytes as f64 / m as f64,
            eng.stats.bytes_serialized as f64 / m as f64
        );
    }

    // Deletion without log analysis: purge, crash, recover, re-purge.
    let dir = TempDir::new().expect("tempdir");
    {
        let store = MessageStore::open(StoreOptions::new(dir.path())).expect("open");
        store
            .create_queue("q", QueueMode::Persistent, 0)
            .expect("queue");
        for i in 0..500 {
            let txn = store.begin();
            let id = store
                .enqueue(txn, "q", format!("<m>{i}</m>").into(), vec![], 0)
                .expect("enq");
            store.mark_processed(txn, id).expect("mark");
            store.commit(txn).expect("commit");
        }
        let wal_before = store.wal_bytes_logged();
        let purged = store.gc().expect("gc");
        let wal_after = store.wal_bytes_logged();
        println!(
            "\nGC purged {purged} messages writing {} log bytes (deletions are never logged)",
            wal_after - wal_before
        );
        assert_eq!(wal_after, wal_before);
    }
    let t = std::time::Instant::now();
    let store = MessageStore::open(StoreOptions::new(dir.path())).expect("recover");
    let re_purged = store.gc().expect("gc");
    println!(
        "post-crash GC re-derived {re_purged} deletions in {:?} without reading the log\n",
        t.elapsed()
    );
}

fn bench_e4(c: &mut Criterion) {
    log_volume_report();
    bench_recovery(c);
}

criterion_group!(benches, bench_e4);
criterion_main!(benches);
