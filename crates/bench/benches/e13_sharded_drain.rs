//! E13 — Sharded multi-worker drain scaling (ISSUE 7 tentpole gate).
//!
//! E12 established the composed single-store hot path: 4 workers over one
//! WAL with fsync-always durability. Its ceiling is structural — every
//! commit serializes through one WAL pipeline. E13 measures the sharded
//! runtime that removes it: the same keyed two-stage pipeline partitioned
//! by slicing key across 1 / 2 / 4 shards, each shard a full store
//! (private WAL, slice index, doc cache) drained by its own pinned
//! workers. The placement analysis co-locates the whole
//! intake → enriched → done chain per key, so steady-state processing is
//! shard-local and the shards' group-commit pipelines overlap instead of
//! queueing behind a single fsync stream.
//!
//! Measured:
//! * `drain` — wall-clock drain throughput of a pre-filled intake queue
//!   at 1, 2, and 4 shards (4 workers per shard; the 1-shard point is
//!   E12's configuration running under the sharded runtime).
//! * Representative runs distill per-shard-count throughput and the
//!   scaling ratios into `BENCH_E13.json` (schema `demaq-bench/v1`).
//!   Target: `scaling_4v1 ≥ 2.5` on a host with 16 cores or more.
//!
//! The scaling gate is host-adaptive. A worker does not wait for its own
//! fsync (a drain syncs once 32 forwards or sends wait for the disk —
//! none here — and once when it goes idle), so a drain is compute-bound,
//! and what sharding can buy it is cores: the 1-shard deployment already
//! keeps `min(cores, workers)` of them busy, so the
//! ceiling is `cores / min(cores, workers)` — 1× on a host with no more
//! cores than one shard has workers, where the gate only demands "not
//! materially slower". The gate and the core count land in
//! `BENCH_E13.json`.
//!
//! Expected shape: scaling tracking the core ceiling, far fewer WAL syncs
//! than commits, zero cross-shard forwards (placement keeps the hot chain
//! local), zero payload copies (copies count only payloads written into
//! or read out of a checkpoint snapshot, and the drain takes none), and
//! zero trace-ring overwrites (capacity sized to the workload).
//!
//! Knobs: `DEMAQ_E13_SMOKE` (256 msgs instead of 2048),
//! `DEMAQ_E13_WORKERS` (workers per shard, default 4),
//! `DEMAQ_E13_NOSYNC` (SyncPolicy::Batch — isolates the CPU ceiling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use demaq::{Server, ShardedServer};
use demaq_bench::report::BenchReport;
use demaq_obs::Obs;
use demaq_store::store::SyncPolicy;
use demaq_xquery::Atomic;
use std::time::Instant;
use tempfile::TempDir;

/// The E12 pipeline plus a slicing key, so the placement analysis
/// partitions the whole chain by `lane`.
const PIPELINE: &str = r#"
    create queue intake kind basic mode persistent
    create queue enriched kind basic mode persistent
    create queue done kind basic mode persistent
    create property lane as xs:integer inherited
    create slicing lanes on lane
    create rule enrich for intake
      if (//job) then do enqueue <enriched>{string(//job/@n)}</enriched> into enriched
    create rule finish for enriched
      if (//enriched) then do enqueue <done>{//enriched/text()}</done> into done
"#;

const LANES: i64 = 64;

fn workers_per_shard() -> usize {
    std::env::var("DEMAQ_E13_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn smoke() -> bool {
    std::env::var("DEMAQ_E13_SMOKE").is_ok()
}

fn messages() -> usize {
    if smoke() {
        256
    } else {
        2048
    }
}

/// A durable sharded deployment: per-shard on-disk WAL, fsync on every
/// commit, trace ring sized so the full run keeps its tail.
fn build_server(dir: &TempDir, shards: usize) -> ShardedServer {
    let sync = if std::env::var("DEMAQ_E13_NOSYNC").is_ok() {
        SyncPolicy::Batch
    } else {
        SyncPolicy::Always
    };
    Server::builder()
        .program(PIPELINE)
        .dir(dir.path())
        .sync_policy(sync)
        .obs(Obs::with_trace_capacity(32768))
        .shards(shards)
        .build()
        .expect("valid program")
}

fn feed(server: &ShardedServer, n: usize) {
    for i in 0..n {
        server
            .enqueue_external_with_props(
                "intake",
                &format!("<job n='{i}'/>"),
                &[("lane".to_string(), Atomic::Int(i as i64 % LANES))],
            )
            .expect("enqueue");
    }
}

/// One timed representative drain; returns msgs/s.
fn representative(dir: &TempDir, shards: usize, n: usize) -> (ShardedServer, f64) {
    let server = build_server(dir, shards);
    feed(&server, n);
    let started = Instant::now();
    let drained = server
        .process_all_parallel(workers_per_shard())
        .expect("drain");
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(drained, (3 * n) as u64, "the whole cascade drained");
    assert_eq!(server.queue_messages("done").expect("done").len(), n);
    if std::env::var("DEMAQ_E13_DEBUG").is_ok() {
        let text = server.metrics_text();
        eprintln!("--- {shards} shard(s): {:.0} msgs/s", drained as f64 / secs);
        for m in [
            "demaq_store_commits_total",
            "demaq_store_wal_syncs_total",
            "demaq_store_group_commit_waits_total",
            "demaq_store_apply_batches_total",
            "demaq_store_apply_waits_total",
        ] {
            eprintln!("    {m} = {}", metric_value(&text, m));
        }
        let loads: Vec<usize> = (0..server.num_shards())
            .map(|s| server.shard(s).queue_messages("done").unwrap().len())
            .collect();
        eprintln!("    per-shard done: {loads:?}");
    }
    (server, drained as f64 / secs)
}

/// First sample of `name` in Prometheus-style metrics text (0 if absent —
/// counters register lazily on first increment).
fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(name))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .next()
        .unwrap_or(0.0)
}

fn bench_e13(c: &mut Criterion) {
    let n = messages();
    let mut group = c.benchmark_group("e13_sharded_drain");
    group.sample_size(10);
    group.throughput(Throughput::Elements((3 * n) as u64));
    for &shards in &[1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("drain", shards), &shards, |b, &shards| {
            b.iter(|| {
                let dir = TempDir::new().expect("tempdir");
                let server = build_server(&dir, shards);
                feed(&server, n);
                server
                    .process_all_parallel(workers_per_shard())
                    .expect("drain")
            });
        });
    }
    group.finish();

    // ---- representative runs → BENCH_E13.json ----------------------------
    let mut throughput = std::collections::BTreeMap::new();
    let mut four_shard: Option<(TempDir, ShardedServer)> = None;
    for &shards in &[1usize, 2, 4] {
        // Median of three: a compute-bound drain is over in ~100 ms, and
        // one such interval on a shared host is not a measurement.
        let mut runs = Vec::new();
        for _ in 0..3 {
            // Fresh directory per run: shard WALs must not recover a
            // previous shard count's messages.
            let dir = TempDir::new().expect("tempdir");
            let (server, msgs_per_sec) = representative(&dir, shards, n);
            runs.push(msgs_per_sec);
            if shards == 4 {
                four_shard = Some((dir, server));
            }
        }
        runs.sort_by(f64::total_cmp);
        throughput.insert(shards, runs[1]);
    }
    let (_dir, server) = four_shard.expect("4-shard run");

    // Behavior gates on the 4-shard deployment: the placement analysis
    // must keep the keyed chain shard-local (no forwards), every lane's
    // slice coherent on one shard, and lineage complete across the fleet.
    let text = server.metrics_text();
    let forwards = metric_value(&text, "demaq_engine_shard_forwards_total");
    assert_eq!(forwards, 0.0, "keyed chain must stay shard-local");
    let copies = metric_value(&text, "demaq_store_payload_copies_total");
    assert_eq!(copies, 0.0, "drain path must not copy payload bytes");
    let overwrites = metric_value(&text, "demaq_obs_trace_overwrites_total");
    assert_eq!(overwrites, 0.0, "trace ring must be sized for the run");
    for m in server.queue_messages("done").expect("done") {
        let lineage = server.lineage(m.id);
        assert_eq!(lineage.ancestors.len(), 2, "done → enriched → intake");
    }
    let busy_shards = (0..server.num_shards())
        .filter(|&s| !server.shard(s).queue_messages("done").unwrap().is_empty())
        .count();
    assert_eq!(busy_shards, 4, "all shards took part of the key space");

    let t1 = throughput[&1];
    let t2 = throughput[&2];
    let t4 = throughput[&4];

    // The fsync-always drain must not wait for the disk per commit: the
    // acknowledged feed syncs once per message, the drain once per 32
    // effects held in an outbox (one more per worker for a barrier that
    // raced another's) and once when it goes idle. Every enqueue here is
    // acknowledged, so no commit ingests from memory, the other thing a
    // backlog barrier waits for. A commit path that silently
    // re-serialized, or a backlog barrier paced by commits, fails here.
    let commits = metric_value(&text, "demaq_store_commits_total");
    let syncs = metric_value(&text, "demaq_store_wal_syncs_total");
    if std::env::var("DEMAQ_E13_NOSYNC").is_err() {
        assert!(
            syncs < commits / 2.0,
            "{syncs} WAL syncs for {commits} commits: the commit path re-serialized"
        );
    }
    let backlog = metric_value(
        &text,
        "demaq_engine_durability_barriers_total{reason=\"backlog\"}",
    );
    let held = metric_value(&text, "demaq_engine_outbox_hold_ns_count");
    let workers = (server.num_shards() * workers_per_shard()) as f64;
    assert!(
        backlog <= (held / 32.0).ceil() + workers,
        "{backlog} backlog barriers for {held} held effects"
    );

    // ---- host-adaptive scaling gate ---------------------------------------
    // The drain is compute-bound (see the module docs): require 70% of
    // the cores sharding can add over the 1-shard deployment, and never
    // less than "not materially slower".
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as f64;
    let ceiling = (cores / cores.min(workers_per_shard() as f64)).min(3.6);
    let gate = (0.7 * ceiling).max(0.8);
    let scaling_4v1 = t4 / t1;
    assert!(
        scaling_4v1 >= gate,
        "4-shard scaling {scaling_4v1:.2}x under host gate {gate:.2}x \
         ({cores} cores, {} workers per shard)",
        workers_per_shard()
    );

    let mut report = BenchReport::new("e13_sharded_drain", smoke());
    report
        .result("drain_throughput_1shard", t1, "msgs/s")
        .result("drain_throughput_2shard", t2, "msgs/s")
        .result("drain_throughput_4shard", t4, "msgs/s")
        .result("scaling_2v1", t2 / t1, "ratio")
        .result("scaling_4v1", scaling_4v1, "ratio")
        .result("scaling_gate", gate, "ratio")
        .result("host_cores", cores, "count")
        .result("drained_messages", (3 * n) as f64, "count")
        .result("workers_per_shard", workers_per_shard() as f64, "threads")
        .result("lanes", LANES as f64, "count")
        .metric_from(&text, "demaq_store_commits_total")
        .metric_from(&text, "demaq_store_wal_syncs_total")
        .metric_from(&text, "demaq_store_group_commit_waits_total")
        .metric_from(&text, "demaq_store_payload_shared_reads_total")
        .metric_from(&text, "demaq_store_payload_copies_total")
        .metric_from(&text, "demaq_engine_shard_forwards_total")
        .metric_from(&text, "demaq_engine_shard_ingest_errors_total")
        .metric_from(&text, "demaq_obs_trace_overwrites_total");
    report.write();
    demaq_bench::dump_registry(&server.metrics().registry, "e13_sharded_drain");

    println!(
        "e13: {n} msgs × 3 stages, fsync-always — 1 shard {t1:.0} msgs/s, \
         2 shards {t2:.0} ({:.2}×), 4 shards {t4:.0} ({:.2}×); \
         {syncs} syncs for {commits} commits, gate {gate:.2}×",
        t2 / t1,
        t4 / t1
    );
}

criterion_group!(benches, bench_e13);
criterion_main!(benches);
