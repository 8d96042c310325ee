//! E9 — Group commit vs. fsync-per-commit (Sec. 2.3 execution model).
//!
//! The paper runs many message transactions concurrently against
//! persistent queues; each needs its commit record durable before the
//! transaction is acknowledged. With one fsync per commit under the WAL
//! append mutex, N workers serialize on N device syncs. The group-commit
//! coordinator lets concurrent committers share a single `sync_data`
//! (leader/follower, fsync outside the append mutex), so the fsync-bound
//! path scales with the batch size instead of the commit count.
//!
//! Measured: multi-threaded commit throughput on a shared store under
//! `SyncPolicy::Always` for
//! * `fsync_each` — the pre-group-commit baseline: the workers take
//!   turns to commit behind one mutex, so each commit leads its own
//!   fsync, and
//! * `group_commit` — the store's batching (max_batch 64, an adaptive
//!   window: commits arriving during an in-flight fsync share the next).
//!
//! Expected shape: near parity at 1 thread; ≥ 2x for group commit at
//! 4 threads (fsync-bound), with `demaq_store_group_commit_batch_size`
//! visible in the metrics dump.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use demaq_obs::Obs;
use demaq_store::{MessageStore, PropValue, QueueMode, StoreOptions, SyncPolicy};
use std::sync::{Arc, Mutex};
use tempfile::TempDir;

/// Commits per thread per iteration (small payload, fsync-dominated).
fn commits_per_thread() -> usize {
    if std::env::var("DEMAQ_E9_SMOKE").is_ok() {
        8
    } else {
        32
    }
}

fn open_store(dir: &TempDir, obs: Option<Arc<Obs>>) -> Arc<MessageStore> {
    let mut opts = StoreOptions::new(dir.path());
    opts.sync = SyncPolicy::Always;
    opts.obs = obs;
    let store = Arc::new(MessageStore::open(opts).expect("open"));
    store
        .create_queue("q", QueueMode::Persistent, 0)
        .expect("queue");
    store
}

/// `threads` workers each run `per_thread` enqueue+slice+commit
/// transactions against one shared store; with `serial`, one commit at a
/// time.
fn run_workload(
    store: &Arc<MessageStore>,
    threads: usize,
    per_thread: usize,
    serial: Option<&Mutex<()>>,
) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = Arc::clone(store);
            s.spawn(move || {
                for i in 0..per_thread {
                    let txn = store.begin();
                    let id = store
                        .enqueue(txn, "q", format!("<m t='{t}' n='{i}'/>").into(), vec![], 0)
                        .expect("enqueue");
                    store
                        .slice_add(txn, "s", PropValue::Int((i % 8) as i64), id)
                        .expect("slice");
                    let _turn = serial.map(|m| m.lock().expect("commit turn"));
                    store.commit(txn).expect("commit");
                }
            });
        }
    });
}

fn bench_e9(c: &mut Criterion) {
    let per_thread = commits_per_thread();
    let mut group = c.benchmark_group("e9_group_commit");
    group.sample_size(10);

    let configs: &[(&str, bool)] = &[("fsync_each", true), ("group_commit", false)];
    for &threads in &[1usize, 4] {
        group.throughput(Throughput::Elements((threads * per_thread) as u64));
        for &(label, serial) in configs {
            group.bench_with_input(BenchmarkId::new(label, threads), &threads, |b, &threads| {
                b.iter(|| {
                    let dir = TempDir::new().expect("tempdir");
                    let store = open_store(&dir, None);
                    let turns = Mutex::new(());
                    run_workload(&store, threads, per_thread, serial.then_some(&turns));
                    store.message_count()
                });
            });
        }
    }
    group.finish();

    // One representative group-commit run with an attached registry, so
    // the batch-size histogram and sync counters land in the dump — and
    // its headline numbers in BENCH_E9.json (schema demaq-bench/v1).
    let obs = Obs::new();
    let dir = TempDir::new().expect("tempdir");
    let store = open_store(&dir, Some(Arc::clone(&obs)));
    let commits = 4 * per_thread.max(32);
    let started = std::time::Instant::now();
    run_workload(&store, 4, per_thread.max(32), None);
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    demaq_bench::dump_registry(&obs.registry, "e9_group_commit");

    let text = obs.registry.render_text();
    let mut report = demaq_bench::report::BenchReport::new(
        "e9_group_commit",
        std::env::var("DEMAQ_E9_SMOKE").is_ok(),
    );
    report
        .result("commit_throughput", commits as f64 / secs, "commits/s")
        .result("commits", commits as f64, "count")
        .result("workers", 4.0, "threads")
        .metric_from(&text, "demaq_store_commits_total")
        .metric_from(&text, "demaq_store_group_commit_waits_total");
    report.write();
}

criterion_group!(benches, bench_e9);
criterion_main!(benches);
