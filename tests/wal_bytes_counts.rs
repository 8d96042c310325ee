//! Exact WAL volume of the `durable_sharded` benchmark workload.
//!
//! The workload of `durable_sharded/mod.rs` runs under
//! `SyncPolicy::Batch`. Every id, timestamp and name is the same on every
//! host, so the log's size is exact: the test pins the bytes and the
//! frames per job and checks that two runs agree.
//!
//! Before transactions were logged as one frame each (a `Begin` record,
//! one record per op and a `Commit`, with property values as decimal
//! text), the same run logged 196 422 bytes in 4 024 records: 982.11 bytes
//! and 20.12 records per job. Before lineage was read from the enqueue
//! instead of logged as an op of its own, and ids and times were coded by
//! distance, it logged 55 906 bytes in the same 912 frames: 279.53 bytes
//! per job.

mod durable_sharded;

use demaq_store::store::SyncPolicy;
use demaq_store::wal::read_log;
use durable_sharded::{JOBS, SHARDS};
use tempfile::TempDir;

/// WAL bytes for the 200 jobs, segment headers included: 205.04 per job.
const WAL_BYTES: u64 = 41_009;
/// One frame per committed transaction: 4.56 per job.
const FRAMES: u64 = 912;

/// Feed the jobs and drain; returns (WAL bytes, frames).
fn run() -> (u64, u64) {
    let dir = TempDir::new().unwrap();
    let server = durable_sharded::run(dir.path(), SyncPolicy::Batch);
    let bytes = (0..SHARDS)
        .map(|i| server.shard(i).store().wal_bytes_logged())
        .sum();
    drop(server);
    let frames = (0..SHARDS)
        .map(|i| {
            let segment = dir.path().join(format!("shard-{i}/wal-000000.log"));
            read_log(&segment).unwrap().txns.len() as u64
        })
        .sum();
    (bytes, frames)
}

#[test]
fn durable_sharded_wal_bytes_per_job_are_pinned() {
    let (bytes, frames) = run();
    assert_eq!(run(), (bytes, frames), "counts repeat exactly");
    let per_job = |n: u64| n as f64 / JOBS as f64;
    println!(
        "durable_sharded: {:.2} WAL bytes and {:.2} frames per job",
        per_job(bytes),
        per_job(frames)
    );
    assert_eq!((bytes, frames), (WAL_BYTES, FRAMES));
}
