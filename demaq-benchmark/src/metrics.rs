//! The benchmark's metric names, units, directions and bounds — the same
//! lists `BENCHMARK.json` declares — and how each value is derived from a
//! run. A layer is named after its module.

use crate::closed::ClosedRun;
use crate::openloop::OpenRun;
use crate::registry::{ratio, Snapshot};
use crate::stats::{median, percentile};
use crate::trace::{durations_of, Span};
use crate::traced::TracedRun;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What an operator of the system pays per message and per start. None is
/// a wall-clock figure of message processing: on this host those follow
/// the shared disk (see README, "What is gated and why").
pub const END_TO_END: &[Spec] = &[
    gated("setup_s", "s", 0.25),
    gated("cpu_us_per_msg", "us", 0.25),
    gated("wal_bytes_per_msg", "bytes", 0.03),
    gated("fsyncs_per_kmsg", "count", 0.02),
    gated("peak_rss_kb", "KB", 0.15),
];

use Better::{Higher, Lower};

pub const PER_LAYER: &[Spec] = &[
    // The wall-clock view of the whole run: reported, never gated.
    layer("wall.throughput_msgs_per_s", "1/s", Higher),
    layer("wall.latency_p50_ms", "ms", Lower),
    layer("wall.latency_p99_ms", "ms", Lower),
    layer("wall.latency_samples", "count", Higher),
    layer("wall.maintenance_us_per_msg", "us", Lower),
    layer("wall.recovery_s", "s", Lower),
    layer("xml.parse_ns_per_kb", "ns", Lower),
    layer("xml.serialize_ns_per_kb", "ns", Lower),
    layer("xml.parses_per_msg", "count", Lower),
    layer("xquery.compile_us", "us", Lower),
    layer("xquery.eval_ns_per_rule", "ns", Lower),
    layer("xquery.eval_share", "ratio", Lower),
    layer("xquery.probe_eval_ns", "ns", Lower),
    layer("xquery.rules_skipped_ratio", "ratio", Higher),
    layer("xquery.ebv_short_circuits_per_msg", "count", Higher),
    layer("qdl.parse_us", "us", Lower),
    layer("analysis.analyze_us", "us", Lower),
    layer("store.wal.bytes_per_commit", "bytes", Lower),
    layer("store.wal.syncs_per_commit", "count", Lower),
    layer("store.wal.group_batch_mean", "count", Higher),
    layer("store.wal.flush_ns_p50", "ns", Lower),
    layer("store.txn.commit_ns_p50", "ns", Lower),
    layer("store.txn.commit_ns_p99", "ns", Lower),
    layer("store.txn.commit_share", "ratio", Lower),
    layer("store.txn.commits_per_msg", "count", Lower),
    layer("store.txn.apply_batch_mean", "count", Higher),
    layer("store.txn.abort_ratio", "ratio", Lower),
    layer("store.txn.replay_us", "us", Lower),
    layer("store.lock.wait_ns_per_commit", "ns", Lower),
    layer("store.lock.conflicts_per_kmsg", "count", Lower),
    layer("store.lock.deadlocks", "count", Lower),
    layer("store.slice.members_read_ns", "ns", Lower),
    layer("store.slice.keys", "count", Lower),
    layer("store.slice.retained_msgs", "count", Lower),
    layer("store.checkpoint.ms_p50", "ms", Lower),
    layer("store.gc.ms_p50", "ms", Lower),
    layer("store.gc.purged_per_cycle", "count", Higher),
    layer("store.recovery.us_per_record", "us", Lower),
    layer("store.payload_copies_per_msg", "count", Lower),
    layer("store.resident_kb", "KB", Lower),
    layer("core.engine.step_ns_p50", "ns", Lower),
    layer("core.engine.step_ns_p99", "ns", Lower),
    layer("core.engine.enqueue_ns_p50", "ns", Lower),
    layer("core.engine.self_share", "ratio", Lower),
    layer("core.engine.requeues_per_kmsg", "count", Lower),
    layer("core.engine.errors_routed_ratio", "ratio", Lower),
    layer("core.scheduler.pushpop_ns_d1", "ns", Lower),
    layer("core.scheduler.pushpop_ns_d100k", "ns", Lower),
    layer("core.scheduler.depth_max", "count", Lower),
    layer("core.cache.doc_hit_ratio", "ratio", Higher),
    layer("core.cache.doc_evictions_per_kmsg", "count", Lower),
    layer("core.cache.slice_seq_hit_ratio", "ratio", Higher),
    layer("core.cache.bytes", "bytes", Lower),
    layer("core.aggregates.delta_ratio", "ratio", Higher),
    layer("core.aggregates.rebuilds_per_kmsg", "count", Lower),
    layer("core.shard.forwards_per_msg", "count", Lower),
    layer("core.shard.skew", "ratio", Lower),
    layer("core.shard.ingest_errors", "count", Lower),
    layer("core.gateway.sent_per_msg", "count", Lower),
    layer("core.gateway.send_failures", "count", Lower),
    layer("net.send_pump_ns", "ns", Lower),
    layer("net.delivered_ratio", "ratio", Higher),
    layer("gen.lateness_ms_p99", "ms", Lower),
    layer("gen.backlog_end", "count", Lower),
    layer("obs.trace_overhead_ratio", "ratio", Lower),
    layer("obs.exposition_ms", "ms", Lower),
    layer("obs.trace_overwrites", "count", Lower),
    layer("host.cores", "count", Higher),
    layer("host.fsync_us_p50", "us", Lower),
    layer("host.yardstick_ns", "ns", Lower),
    layer("host.cpu_raw_us_per_msg", "us", Lower),
    layer("host.cpu_user_us_per_msg", "us", Lower),
    layer("host.cpu_sys_us_per_msg", "us", Lower),
    layer("store.wal.disk_syncs_per_commit", "count", Lower),
    layer("store.wal.disk_msgs_per_s", "1/s", Higher),
];

pub type Values = BTreeMap<&'static str, f64>;

/// The values of `specs`, in order; a metric the run did not produce is a
/// bug in the benchmark, not a zero.
pub fn in_order<'a>(specs: &'a [Spec], values: &Values) -> Vec<(&'a Spec, f64)> {
    specs
        .iter()
        .map(|s| {
            (
                s,
                *values
                    .get(s.name)
                    .unwrap_or_else(|| panic!("metric `{}` was not measured", s.name)),
            )
        })
        .collect()
}

/// The untraced pass of either driver, reduced to what the metrics need.
pub struct Untraced {
    pub end_to_end: Values,
    /// Wall-clock and host figures that only an untraced pass can give.
    pub extras: Values,
    pub attempted: u64,
    pub failed: u64,
    /// CPU microseconds per processed message under the workload's own
    /// sync policy, unscaled: the base of the tracing overhead ratio.
    pub cpu_raw_us_per_msg: f64,
}

pub fn from_closed(run: &ClosedRun) -> Untraced {
    let per_segment = |f: &dyn Fn(&crate::closed::Segment) -> f64| {
        median(&run.segments.iter().map(f).collect::<Vec<_>>())
    };
    let end_to_end = Values::from([
        ("setup_s", run.setup_s),
        ("cpu_us_per_msg", median(&run.cpu_us_per_msg)),
        (
            "wal_bytes_per_msg",
            per_segment(&|s| s.wal_bytes as f64 / s.fed as f64),
        ),
        (
            "fsyncs_per_kmsg",
            per_segment(&|s| s.fsyncs as f64 * 1e3 / s.fed as f64),
        ),
        ("peak_rss_kb", run.peak_rss_kb as f64),
    ]);
    let processed: f64 = run.segments.iter().map(|s| s.processed as f64).sum();
    let split = |f: &dyn Fn(&crate::closed::Segment) -> u64| {
        run.segments.iter().map(f).sum::<u64>() as f64 / 1e3 / processed
    };
    let cpu_raw_us_per_msg = per_segment(&|s| s.cpu_ns as f64 / 1e3 / s.processed as f64);
    let extras = Values::from([
        (
            "wall.throughput_msgs_per_s",
            per_segment(&|s| s.processed as f64 / s.busy.as_secs_f64()),
        ),
        ("wall.latency_p50_ms", 0.0),
        ("wall.latency_p99_ms", 0.0),
        ("wall.latency_samples", 0.0),
        (
            "wall.maintenance_us_per_msg",
            per_segment(&|s| s.maintenance.as_secs_f64() * 1e6 / s.processed as f64),
        ),
        ("wall.recovery_s", run.recovery_s),
        ("gen.lateness_ms_p99", 0.0),
        ("gen.backlog_end", 0.0),
        (
            "store.recovery.us_per_record",
            ratio(run.recovery_s * 1e6, run.recovered_commits),
        ),
        ("store.resident_kb", run.resident_kb),
        (
            "core.scheduler.depth_max",
            run.segments
                .iter()
                .map(|s| s.scheduler_depth)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("host.yardstick_ns", per_segment(&|s| s.yardstick_ns)),
        ("host.cpu_raw_us_per_msg", cpu_raw_us_per_msg),
        ("host.cpu_user_us_per_msg", split(&|s| s.cpu_split.user_ns)),
        ("host.cpu_sys_us_per_msg", split(&|s| s.cpu_split.sys_ns)),
    ]);
    Untraced {
        end_to_end,
        extras,
        attempted: run.attempted,
        failed: run.failed,
        cpu_raw_us_per_msg,
    }
}

pub fn from_open(run: &OpenRun) -> Untraced {
    let (sent, processed) = (run.sent as f64, run.processed as f64);
    let end_to_end = Values::from([
        ("setup_s", run.setup_s),
        ("cpu_us_per_msg", median(&run.cpu_us_per_msg)),
        ("wal_bytes_per_msg", ratio(run.wal_bytes as f64, sent)),
        ("fsyncs_per_kmsg", ratio(run.fsyncs as f64 * 1e3, sent)),
        ("peak_rss_kb", run.peak_rss_kb as f64),
    ]);
    let maintenance_us: f64 = run.maintenance.iter().map(|d| d.as_secs_f64() * 1e6).sum();
    let cpu_raw_us_per_msg = ratio(run.engine_cpu_ns as f64 / 1e3, processed);
    let extras = Values::from([
        ("wall.throughput_msgs_per_s", ratio(processed, run.wall_s)),
        ("wall.latency_p50_ms", run.latency_p50_ms),
        ("wall.latency_p99_ms", run.latency_p99_ms),
        ("wall.latency_samples", run.latency_samples as f64),
        (
            "wall.maintenance_us_per_msg",
            ratio(maintenance_us, processed),
        ),
        ("wall.recovery_s", run.recovery_s),
        ("gen.lateness_ms_p99", run.lateness_p99_ms),
        ("gen.backlog_end", run.backlog_end as f64),
        (
            "store.recovery.us_per_record",
            ratio(run.recovery_s * 1e6, run.recovered_commits),
        ),
        ("store.resident_kb", run.resident_kb),
        // Depth ≈ 1 by construction; the gauge is only set while stepping.
        ("core.scheduler.depth_max", 1.0),
        ("host.yardstick_ns", median(&run.yardstick_ns)),
        ("host.cpu_raw_us_per_msg", cpu_raw_us_per_msg),
        // The tick split cannot tell the generator's CPU from the engine's.
        ("host.cpu_user_us_per_msg", 0.0),
        ("host.cpu_sys_us_per_msg", 0.0),
    ]);
    Untraced {
        end_to_end,
        extras,
        attempted: run.attempted,
        failed: run.failed,
        cpu_raw_us_per_msg,
    }
}

fn p(sorted_ns: &[f64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        0.0
    } else {
        percentile(sorted_ns, q)
    }
}

/// Per-layer values from the traced pass: spans for times, the registry
/// for counts. `drive` spans are `step` on a stepped server, `drain` where
/// the engine is driven through `run_until_idle`.
pub fn from_traced(run: &TracedRun, untraced_cpu_us_per_msg: f64) -> Values {
    let spans: &[Span] = run.recorder.spans();
    let a: &Snapshot = &run.activity;
    let (fed, processed) = (run.fed as f64, run.processed as f64);
    let c = |name: &str| a.counter(name);

    let mut drive = durations_of(spans, "step");
    if drive.is_empty() {
        drive = durations_of(spans, "drain");
    }
    let drive_total: f64 = drive.iter().sum();
    let eval_share = ratio(a.hist_sum("demaq_engine_rule_eval_ns"), drive_total);
    let commit_share = ratio(a.hist_sum("demaq_engine_txn_commit_ns"), drive_total);
    let ingest = durations_of(spans, "ingest");
    let (gc, checkpoint) = (durations_of(spans, "gc"), durations_of(spans, "checkpoint"));
    let commits = c("demaq_store_commits_total");
    let registry = &run.engine.obs().registry;
    let exposition = std::time::Instant::now();
    let exposition_len = run.engine.metrics_text().len();
    let exposition_ms = exposition.elapsed().as_secs_f64() * 1e3;
    assert!(exposition_len > 0, "empty metrics exposition");
    let mean_store =
        run.store_messages.iter().sum::<usize>() as f64 / run.store_messages.len().max(1) as f64;
    let seq_hits = c("demaq_core_slice_seq_hits_total");
    let seq_reads = seq_hits
        + c("demaq_core_slice_seq_rebuilds_total")
        + c("demaq_core_slice_seq_appends_total");
    let doc_hits = c("demaq_core_doc_cache_hits_total");

    Values::from([
        (
            "xml.parses_per_msg",
            ratio(c("demaq_core_doc_parses_total"), processed),
        ),
        (
            "xquery.eval_ns_per_rule",
            a.hist_mean("demaq_engine_rule_eval_ns"),
        ),
        ("xquery.eval_share", eval_share),
        (
            "xquery.rules_skipped_ratio",
            ratio(
                c("demaq_engine_rules_skipped_total"),
                c("demaq_engine_rules_skipped_total") + c("demaq_engine_rules_evaluated_total"),
            ),
        ),
        (
            "xquery.ebv_short_circuits_per_msg",
            ratio(run.ebv_short_circuits as f64, processed),
        ),
        (
            "store.wal.bytes_per_commit",
            ratio(run.wal_bytes as f64, commits),
        ),
        (
            "store.wal.syncs_per_commit",
            ratio(c("demaq_store_wal_syncs_total"), commits),
        ),
        (
            "store.wal.group_batch_mean",
            a.hist_mean("demaq_store_group_commit_batch_size"),
        ),
        (
            "store.wal.flush_ns_p50",
            registry.histogram("demaq_store_wal_flush_ns").p50() as f64,
        ),
        (
            "store.txn.commit_ns_p50",
            registry.histogram("demaq_engine_txn_commit_ns").p50() as f64,
        ),
        (
            "store.txn.commit_ns_p99",
            registry.histogram("demaq_engine_txn_commit_ns").p99() as f64,
        ),
        ("store.txn.commit_share", commit_share),
        ("store.txn.commits_per_msg", ratio(commits, processed)),
        (
            "store.txn.apply_batch_mean",
            a.hist_mean("demaq_store_apply_batch_size"),
        ),
        (
            "store.txn.abort_ratio",
            ratio(
                c("demaq_store_aborts_total"),
                c("demaq_store_aborts_total") + commits,
            ),
        ),
        (
            "store.lock.wait_ns_per_commit",
            ratio(a.hist_sum("demaq_store_lock_wait_ns"), commits),
        ),
        (
            "store.lock.conflicts_per_kmsg",
            ratio(c("demaq_store_lock_conflicts_total") * 1e3, processed),
        ),
        (
            "store.lock.deadlocks",
            c("demaq_store_lock_deadlocks_total"),
        ),
        ("store.slice.members_read_ns", run.slices.read_ns_per_key),
        ("store.slice.keys", run.slices.keys as f64),
        ("store.slice.retained_msgs", run.slices.retained_msgs as f64),
        ("store.checkpoint.ms_p50", p(&checkpoint, 0.5) / 1e6),
        ("store.gc.ms_p50", p(&gc, 0.5) / 1e6),
        (
            "store.gc.purged_per_cycle",
            ratio(c("demaq_engine_gc_purged_total"), gc.len() as f64),
        ),
        (
            "store.payload_copies_per_msg",
            ratio(c("demaq_store_payload_copies_total"), processed),
        ),
        ("core.engine.step_ns_p50", p(&drive, 0.5)),
        ("core.engine.step_ns_p99", p(&drive, 0.99)),
        ("core.engine.enqueue_ns_p50", p(&ingest, 0.5)),
        ("core.engine.self_share", 1.0 - eval_share - commit_share),
        (
            "core.engine.requeues_per_kmsg",
            ratio(c("demaq_engine_requeues_total") * 1e3, processed),
        ),
        (
            "core.engine.errors_routed_ratio",
            ratio(c("demaq_engine_errors_routed_total"), processed),
        ),
        (
            "core.cache.doc_hit_ratio",
            ratio(doc_hits, doc_hits + c("demaq_core_doc_cache_misses_total")),
        ),
        (
            "core.cache.doc_evictions_per_kmsg",
            ratio(c("demaq_core_doc_cache_evictions_total") * 1e3, processed),
        ),
        ("core.cache.slice_seq_hit_ratio", ratio(seq_hits, seq_reads)),
        ("core.cache.bytes", run.doc_cache_bytes as f64),
        (
            "core.aggregates.delta_ratio",
            ratio(
                c("demaq_core_agg_deltas_total"),
                c("demaq_core_agg_deltas_total") + c("demaq_core_agg_rebuilds_total"),
            ),
        ),
        (
            "core.aggregates.rebuilds_per_kmsg",
            ratio(c("demaq_core_agg_rebuilds_total") * 1e3, processed),
        ),
        (
            "core.shard.forwards_per_msg",
            ratio(c("demaq_engine_shard_forwards_total"), fed),
        ),
        (
            "core.shard.skew",
            ratio(
                run.store_messages.iter().copied().max().unwrap_or(0) as f64,
                mean_store,
            ),
        ),
        (
            "core.shard.ingest_errors",
            c("demaq_engine_shard_ingest_errors_total"),
        ),
        (
            "core.gateway.sent_per_msg",
            ratio(c("demaq_gateway_sent_total"), fed),
        ),
        (
            "core.gateway.send_failures",
            c("demaq_gateway_send_failures_total"),
        ),
        (
            "net.delivered_ratio",
            ratio(c("demaq_net_delivered_total"), c("demaq_net_sent_total")),
        ),
        (
            "obs.trace_overhead_ratio",
            ratio(
                ratio(run.cpu_ns as f64 / 1e3, processed),
                untraced_cpu_us_per_msg,
            ),
        ),
        ("obs.exposition_ms", exposition_ms),
        (
            "obs.trace_overwrites",
            c("demaq_obs_trace_overwrites_total"),
        ),
        ("host.cores", crate::host::cores() as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn declared(benchmark: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        benchmark
            .get(key)
            .unwrap()
            .as_array()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn coded(specs: &[Spec]) -> Vec<(String, String, String, Option<f64>)> {
        specs
            .iter()
            .map(|s| {
                (
                    s.name.into(),
                    s.unit.into(),
                    s.better.as_str().into(),
                    s.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let benchmark = json::parse(&text).unwrap();
        assert_eq!(declared(&benchmark, "end_to_end"), coded(END_TO_END));
        assert_eq!(declared(&benchmark, "per_layer"), coded(PER_LAYER));
        let workloads: Vec<&str> = benchmark
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            benchmark.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s" && s.better == Better::Lower));
    }
}
