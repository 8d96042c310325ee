//! Reading the engine's public metric registry: counter totals and
//! histogram sums, as differences over a measured interval.

use demaq_obs::Obs;
use std::collections::BTreeMap;

const COUNTERS: &[&str] = &[
    "demaq_core_agg_deltas_total",
    "demaq_core_agg_rebuilds_total",
    "demaq_core_doc_cache_evictions_total",
    "demaq_core_doc_cache_hits_total",
    "demaq_core_doc_cache_misses_total",
    "demaq_core_doc_parses_total",
    "demaq_core_slice_seq_appends_total",
    "demaq_core_slice_seq_hits_total",
    "demaq_core_slice_seq_rebuilds_total",
    "demaq_engine_errors_routed_total",
    "demaq_engine_gc_purged_total",
    "demaq_engine_requeues_total",
    "demaq_engine_rules_evaluated_total",
    "demaq_engine_rules_skipped_total",
    "demaq_engine_shard_forwards_total",
    "demaq_engine_shard_ingest_errors_total",
    "demaq_gateway_send_failures_total",
    "demaq_gateway_sent_total",
    "demaq_net_delivered_total",
    "demaq_net_sent_total",
    "demaq_obs_trace_overwrites_total",
    "demaq_store_aborts_total",
    "demaq_store_commits_total",
    "demaq_store_lock_conflicts_total",
    "demaq_store_lock_deadlocks_total",
    "demaq_store_payload_copies_total",
    "demaq_store_wal_syncs_total",
];

const HISTOGRAMS: &[&str] = &[
    "demaq_engine_rule_eval_ns",
    "demaq_engine_txn_commit_ns",
    "demaq_store_apply_batch_size",
    "demaq_store_group_commit_batch_size",
    "demaq_store_lock_wait_ns",
    "demaq_store_wal_flush_ns",
];

/// Counter totals and histogram `(sum, count)` at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, (u64, u64)>,
}

impl Snapshot {
    pub fn take(obs: &Obs) -> Snapshot {
        let r = &obs.registry;
        Snapshot {
            counters: COUNTERS.iter().map(|&n| (n, r.counter_total(n))).collect(),
            histograms: HISTOGRAMS
                .iter()
                .map(|&n| {
                    let h = r.histogram(n);
                    (n, (h.sum_ns(), h.count()))
                })
                .collect(),
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(&n, &v)| (n, v - earlier.counters.get(n).copied().unwrap_or(0)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(&n, &(sum, count))| {
                    let (s0, c0) = earlier.histograms.get(n).copied().unwrap_or((0, 0));
                    (n, (sum - s0, count - c0))
                })
                .collect(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        *self
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("counter `{name}` is not snapshotted")) as f64
    }

    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hist(name).0 as f64
    }

    pub fn hist_mean(&self, name: &str) -> f64 {
        let (sum, count) = self.hist(name);
        ratio(sum as f64, count as f64)
    }

    fn hist(&self, name: &str) -> (u64, u64) {
        *self
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("histogram `{name}` is not snapshotted"))
    }
}

/// `a / b`, 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
