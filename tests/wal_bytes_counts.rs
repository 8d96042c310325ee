//! Exact WAL volume of the `durable_sharded` benchmark workload.
//!
//! The program and the job generator are re-declared here (the benchmark
//! package exposes no library), and 200 jobs from a fixed seed run through
//! two shards under `SyncPolicy::Batch`, drained single-threaded. A virtual
//! clock fixes every timestamp, so every id, timestamp and name is the same
//! on every host and the log's size is exact: the test pins the bytes and
//! the frames per job and checks that two runs agree.
//!
//! Before transactions were logged as one frame each (a `Begin` record,
//! one record per op and a `Commit`, with property values as decimal
//! text), the same run logged 196 422 bytes in 4 024 records: 982.11 bytes
//! and 20.12 records per job. Before lineage was read from the enqueue
//! instead of logged as an op of its own, and ids and times were coded by
//! distance, it logged 55 906 bytes in the same 912 frames: 279.53 bytes
//! per job.

use demaq::Server;
use demaq_net::Clock;
use demaq_store::store::SyncPolicy;
use demaq_store::wal::read_log;
use demaq_xquery::Atomic;
use tempfile::TempDir;

/// `demaq-benchmark/src/workloads/durable_sharded.rs`'s program, verbatim.
const PROGRAM: &str = r#"
create queue intake kind basic mode persistent
create queue enriched kind basic mode persistent
create queue done kind basic mode persistent
create queue alarms kind basic mode persistent
create property lane as xs:integer inherited
create slicing lanes on lane
create rule enrich for intake
  if (/job) then do enqueue <enriched n="{/job/@n}" to="{/job/@to}"/> into enriched
create rule finish for enriched
  if (/enriched) then
    do enqueue <done n="{/enriched/@n}"/> into done with lane value (/enriched/@to)
create rule overflow for lanes
  if (count(qs:slice()) >= 100000000) then
    do enqueue <overflow lane="{qs:slicekey()}"/> into alarms
"#;

const SHARDS: usize = 2;
const LANES: u64 = 64;
const JOBS: u64 = 200;
const SEED: u64 = 0x5EED_0039;
/// 2023-11-14T22:13:20Z: a present-day timestamp, so `enqueued_at` has
/// the width it has in production.
const START_MS: i64 = 1_700_000_000_000;

/// WAL bytes for the 200 jobs, segment headers included: 205.04 per job.
const WAL_BYTES: u64 = 41_009;
/// One frame per committed transaction: 4.56 per job.
const FRAMES: u64 = 912;

/// splitmix64: a fixed, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Feed the jobs and drain; returns (WAL bytes, frames).
fn run() -> (u64, u64) {
    let dir = TempDir::new().unwrap();
    let server = Server::builder()
        .program(PROGRAM)
        .dir(dir.path())
        .sync_policy(SyncPolicy::Batch)
        .clock(Clock::virtual_at(START_MS))
        .shards(SHARDS)
        .build()
        .unwrap();
    let mut rng = Rng(SEED);
    for n in 0..JOBS {
        let (lane, to) = (rng.below(LANES), rng.below(LANES));
        server
            .enqueue_external_with_props(
                "intake",
                &format!("<job n=\"{n}\" to=\"{to}\"/>"),
                &[("lane".to_string(), Atomic::Int(lane as i64))],
            )
            .unwrap();
    }
    server.run_until_idle().unwrap();
    assert_eq!(server.queue_bodies("done").unwrap().len(), JOBS as usize);
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
