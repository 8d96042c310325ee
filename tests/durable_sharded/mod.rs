//! The `durable_sharded` benchmark workload for the exact count tests.
//!
//! The program and the job generator are re-declared here (the benchmark
//! package exposes no library): 200 jobs from a fixed seed run through two
//! shards, drained single-threaded by `ShardedServer::run_until_idle`. A
//! virtual clock fixes every timestamp, so every id, time, commit and
//! barrier is the same on every host.

use demaq::{Server, ShardedServer};
use demaq_net::Clock;
use demaq_store::store::SyncPolicy;
use demaq_xquery::Atomic;
use std::path::Path;

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

pub const SHARDS: usize = 2;
pub const JOBS: u64 = 200;
const LANES: u64 = 64;
const SEED: u64 = 0x5EED_0039;
/// 2023-11-14T22:13:20Z: a present-day timestamp, so `enqueued_at` has
/// the width it has in production.
const START_MS: i64 = 1_700_000_000_000;

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

/// Feed the jobs, acknowledged one at a time, into a deployment in `dir`
/// under `sync`, and drain it.
pub fn run(dir: &Path, sync: SyncPolicy) -> ShardedServer {
    let server = Server::builder()
        .program(PROGRAM)
        .dir(dir)
        .sync_policy(sync)
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
    server
}
