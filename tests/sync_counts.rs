//! Exact WAL syncs of the `durable_sharded` benchmark workload.
//!
//! The workload of `durable_sharded/mod.rs` runs under
//! `SyncPolicy::Always`. Its drain is single-threaded, so the order of
//! every commit, hold and barrier is fixed and the counts are exact on
//! every host. The test pins the total of `demaq_store_wal_syncs_total`
//! and the durability barriers of each reason, and checks that two runs
//! agree.
//!
//! Every acknowledged enqueue is one sync (200), and those are the floor.
//! A busy worker runs a backlog barrier once 32 effects wait in its
//! outbox, or once 32 of its deferred commits ingest what lives only in
//! memory (here: the cross-shard `done` forwards that land on it). When it
//! ran one per 32 unsynced commits instead, whether or not anything waited
//! on them, the same run made 223 syncs: 200 ack, 21 backlog and 2 idle
//! barriers.

mod durable_sharded;

use demaq_store::store::SyncPolicy;
use durable_sharded::JOBS;
use std::collections::BTreeMap;
use tempfile::TempDir;

/// WAL syncs for the 200 jobs: 1.035 per job.
const SYNCS: u64 = 207;
/// Durability barriers by reason.
const BARRIERS: [(&str, u64); 4] = [
    ("ack", 200),
    ("backlog", 4),
    ("idle", 3),
    ("maintenance", 0),
];

/// Syncs, barriers by reason, and the outbox's hold time (p50, p99 ns).
struct Counts {
    syncs: u64,
    barriers: BTreeMap<String, u64>,
    hold_ns: (u64, u64),
}

fn run() -> Counts {
    let dir = TempDir::new().unwrap();
    let server = durable_sharded::run(dir.path(), SyncPolicy::Always);
    let obs = server.metrics();
    let r = &obs.registry;
    let hold = r.histogram("demaq_engine_outbox_hold_ns");
    Counts {
        syncs: r.counter_total("demaq_store_wal_syncs_total"),
        barriers: r
            .counter_series("demaq_engine_durability_barriers_total")
            .into_iter()
            .map(|(labels, n)| (labels[0].1.clone(), n))
            .collect(),
        hold_ns: (hold.p50(), hold.p99()),
    }
}

#[test]
fn durable_sharded_syncs_per_job_are_pinned() {
    let first = run();
    let again = run();
    assert_eq!(
        (again.syncs, &again.barriers),
        (first.syncs, &first.barriers),
        "counts repeat exactly"
    );
    println!(
        "durable_sharded: {} WAL syncs ({:.3} per job), barriers {:?}, \
         outbox hold p50 {} ns, p99 {} ns",
        first.syncs,
        first.syncs as f64 / JOBS as f64,
        first.barriers,
        first.hold_ns.0,
        first.hold_ns.1
    );
    let pinned: BTreeMap<String, u64> = BARRIERS.iter().map(|&(r, n)| (r.to_string(), n)).collect();
    assert_eq!((first.syncs, first.barriers), (SYNCS, pinned));
}
