//! E7 — Transactional pipeline throughput (Sec. 2.1.1 / 3.1).
//!
//! The paper's queues come in persistent and transient modes: "the
//! persistent queue mode guarantees that in case of a system crash,
//! messages are not lost … transient queues may be used in those parts of
//! an application that tolerate data loss." Persistence costs WAL writes
//! and (optionally) an fsync per commit; group commit amortizes the sync.
//!
//! Workload: the E6 pipeline with 4 rules. Configurations:
//! * `transient` — no logging at all,
//! * `persistent_group_commit` — logical logging, fsync at sync points,
//! * `persistent_fsync_each` — durability on every commit.
//!
//! Expected shape: transient > group-commit >> fsync-per-commit, with the
//! fsync gap dominated by device sync latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use demaq_bench::{feed_pipeline, pipeline_server};
use demaq_store::store::SyncPolicy;

const RULES: usize = 4;

fn bench_e7(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_throughput");
    group.sample_size(10);

    let configs: &[(&str, SyncPolicy, bool)] = &[
        ("transient", SyncPolicy::Batch, false),
        ("persistent_group_commit", SyncPolicy::Batch, true),
        ("persistent_fsync_each", SyncPolicy::Always, true),
    ];
    for &messages in &[64usize, 256] {
        group.throughput(Throughput::Elements(messages as u64));
        for &(label, sync, persistent) in configs {
            group.bench_with_input(
                BenchmarkId::new(label, messages),
                &messages,
                |b, &messages| {
                    b.iter(|| {
                        let server = pipeline_server(RULES, sync, persistent);
                        feed_pipeline(&server, messages, RULES);
                        server.run_until_idle().expect("run");
                        if persistent {
                            server.store().sync().expect("group-commit boundary");
                        }
                        server.stats().processed
                    });
                },
            );
        }
    }
    group.finish();

    // One representative run's internal counters/latencies, dumped next
    // to the criterion timings.
    let server = pipeline_server(RULES, SyncPolicy::Batch, true);
    feed_pipeline(&server, 256, RULES);
    server.run_until_idle().expect("run");
    server.store().sync().expect("group-commit boundary");
    demaq_bench::dump_metrics(&server, "e7_throughput");
}

criterion_group!(benches, bench_e7);
criterion_main!(benches);
