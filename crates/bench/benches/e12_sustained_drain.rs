//! E12 — Sustained multi-threaded drain under full durability (ISSUE 6).
//!
//! The earlier experiments isolate one mechanism each (group commit,
//! caches, lowered plans); E12 measures the composed hot path the way a
//! deployment runs it: a two-stage rule pipeline on persistent queues
//! with `SyncPolicy::Always` (every commit fsynced, group commit
//! batching them), drained by 4 workers racing the scheduler — now with
//! causal provenance recorded for every rule enqueue and per-rule
//! wall-time attribution on.
//!
//! Measured:
//! * `drain` — wall-clock drain throughput of a pre-filled intake queue,
//!   1 vs 4 workers (elements = messages *processed*, 3 per fed message:
//!   the intake message, the enriched one, and the rule-less done one).
//! * The representative 4-worker run distills throughput, per-rule p99
//!   evaluation time, and provenance coverage into `BENCH_E12.json` at
//!   the repo root (schema `demaq-bench/v1`) — the machine-readable
//!   bench-trajectory entry the CI gate validates.
//!
//! Expected shape: the drain issues far fewer WAL syncs than commits (a
//! worker does not wait for its own fsync; nothing leaves the process and
//! nothing is ingested from memory, so no backlog barrier runs and one
//! idle barrier covers the drain), every
//! drained message carries lineage, and the per-rule histograms are
//! populated for both pipeline stages.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use demaq::Server;
use demaq_bench::report::BenchReport;
use demaq_obs::Obs;
use demaq_store::store::SyncPolicy;
use std::time::Instant;
use tempfile::TempDir;

/// Two rule stages so every fed message produces a two-edge causal chain
/// (intake → enriched → done) under per-rule attribution.
const PIPELINE: &str = r#"
    create queue intake kind basic mode persistent
    create queue enriched kind basic mode persistent
    create queue done kind basic mode persistent
    create rule enrich for intake
      if (//job) then do enqueue <enriched>{string(//job/@n)}</enriched> into enriched
    create rule finish for enriched
      if (//enriched) then do enqueue <done>{//enriched/text()}</done> into done
"#;

fn smoke() -> bool {
    std::env::var("DEMAQ_E12_SMOKE").is_ok()
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

fn messages() -> usize {
    if smoke() {
        256
    } else {
        2048
    }
}

/// A durable server: on-disk WAL, fsync on every commit.
fn build_server(dir: &TempDir) -> Server {
    Server::builder()
        .program(PIPELINE)
        .dir(dir.path())
        .sync_policy(SyncPolicy::Always)
        // The full run emits ~12k trace events (3 stages × 2048 messages,
        // enqueue + process each); the 4096 default ring dropped 8192 of
        // them, leaving no usable tail.
        .obs(Obs::with_trace_capacity(32768))
        .build()
        .expect("valid program")
}

fn feed(server: &Server, n: usize) {
    for i in 0..n {
        server
            .enqueue_external("intake", &format!("<job n='{i}'/>"))
            .expect("enqueue");
    }
}

fn bench_e12(c: &mut Criterion) {
    let n = messages();
    let mut group = c.benchmark_group("e12_sustained_drain");
    group.sample_size(10);
    // Each fed message is processed three times: on intake, as the
    // enriched message, and as the (rule-less) done message.
    group.throughput(Throughput::Elements((3 * n) as u64));
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("drain", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let dir = TempDir::new().expect("tempdir");
                    let server = build_server(&dir);
                    feed(&server, n);
                    server.process_all_parallel(threads).expect("drain")
                });
            },
        );
    }
    group.finish();

    // ---- representative 4-worker run → BENCH_E12.json --------------------
    let dir = TempDir::new().expect("tempdir");
    let server = build_server(&dir);
    feed(&server, n);
    let started = Instant::now();
    let drained = server.process_all_parallel(4).expect("drain");
    let elapsed = started.elapsed();

    assert_eq!(drained, (3 * n) as u64, "the whole cascade drained");
    assert_eq!(server.queue_messages("done").expect("done").len(), n);

    // Provenance covers the whole cascade: every `done` message walks
    // back to its intake root, and every rule edge is WAL-durable.
    for m in server.queue_messages("done").expect("done") {
        let lineage = server.lineage(m.id);
        assert_eq!(lineage.ancestors.len(), 2, "done → enriched → intake");
        let edge = lineage.target.expect("indexed");
        assert_eq!(edge.rule.as_deref(), Some("finish"));
        assert!(edge.lsn.is_some(), "rule edge must be WAL-durable");
    }

    // Per-rule attribution is on for both stages.
    let profiles = server.rule_profiles();
    assert_eq!(profiles.len(), 2, "one profile per rule: {profiles:?}");
    for p in &profiles {
        assert_eq!(p.fires, n as u64, "`{}` fired per message", p.rule);
        assert_eq!(p.messages_produced, n as u64, "`{}` produced", p.rule);
        assert!(p.eval_ns_p50 <= p.eval_ns_p99);
    }

    let secs = elapsed.as_secs_f64().max(1e-9);
    let text = server.metrics_text();

    // The drain path shares payload bytes zero-copy end to end: enqueue,
    // WAL append, recovery-free reads, and rule evaluation all borrow the
    // same `Arc<str>`. Copies only happen when a checkpoint writes
    // payloads into its snapshot and when recovery reads them back out,
    // neither of which this workload performs.
    let copies = metric_value(&text, "demaq_store_payload_copies_total");
    assert_eq!(copies, 0.0, "drain path must not copy payload bytes");
    let overwrites = metric_value(&text, "demaq_obs_trace_overwrites_total");
    assert_eq!(overwrites, 0.0, "trace ring must be sized for the run");
    // The fsync-always drain must not wait for the disk per commit: the
    // acknowledged feed syncs once per message, the drain once per 32
    // effects held in an outbox (one more per worker for a barrier that
    // raced another's) and once when it goes idle. Every enqueue here is
    // acknowledged, so no commit ingests from memory, the other thing a
    // backlog barrier waits for. A commit path that silently
    // re-serialized, or a backlog barrier paced by commits, fails here.
    let commits = metric_value(&text, "demaq_store_commits_total");
    let syncs = metric_value(&text, "demaq_store_wal_syncs_total");
    assert!(
        syncs < commits / 2.0,
        "{syncs} WAL syncs for {commits} commits: the commit path re-serialized"
    );
    let backlog = metric_value(
        &text,
        "demaq_engine_durability_barriers_total{reason=\"backlog\"}",
    );
    let held = metric_value(&text, "demaq_engine_outbox_hold_ns_count");
    assert!(
        backlog <= (held / 32.0).ceil() + 4.0,
        "{backlog} backlog barriers for {held} held effects"
    );
    // Lineage coverage: retained messages whose lineage query answers.
    let mut lineage_indexed = 0usize;
    for q in ["intake", "enriched", "done"] {
        for m in server.queue_messages(q).expect("queue") {
            lineage_indexed += usize::from(server.lineage(m.id).target.is_some());
        }
    }
    let mut report = BenchReport::new("e12_sustained_drain", smoke());
    report
        .result("drain_throughput", drained as f64 / secs, "msgs/s")
        .result("drained_messages", drained as f64, "count")
        .result("workers", 4.0, "threads")
        .result("lineage_indexed", lineage_indexed as f64, "records");
    for p in &profiles {
        report.result(
            &format!("rule_{}_eval_p99", p.rule),
            p.eval_ns_p99 as f64,
            "ns",
        );
    }
    let stats = server.stats();
    report
        .result("processed", stats.processed as f64, "count")
        .result("enqueued", stats.enqueued as f64, "count")
        .metric_from(&text, "demaq_store_commits_total")
        .metric_from(&text, "demaq_store_wal_syncs_total")
        .metric_from(&text, "demaq_store_group_commit_waits_total")
        .metric_from(&text, "demaq_store_apply_batches_total")
        .metric_from(&text, "demaq_store_apply_waits_total")
        .metric_from(&text, "demaq_store_payload_shared_reads_total")
        .metric_from(&text, "demaq_store_payload_copies_total")
        .metric_from(&text, "demaq_obs_trace_overwrites_total");
    report.write();
    demaq_bench::dump_metrics(&server, "e12_sustained_drain");

    println!(
        "e12: drained {drained} msgs in {elapsed:?} ({:.0} msgs/s, 4 workers, fsync-always)",
        drained as f64 / secs
    );
}

criterion_group!(benches, bench_e12);
criterion_main!(benches);
