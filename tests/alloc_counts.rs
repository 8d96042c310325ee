//! Exact heap allocations per message for the `slice_state` and
//! `durable_sharded` benchmark workloads.
//!
//! Both programs are re-declared here verbatim (the benchmark package
//! exposes no library) and driven from fixed seeds on one thread, on a
//! virtual clock, under `SyncPolicy::Batch`. A counting allocator that
//! counts per thread (see `counting`) reads every allocation the feeding
//! and draining thread makes, so the counts are host-independent. Each
//! count is split into ingest (`enqueue_external*`) and processing (the
//! drain), taken after a warm-up, and two runs must agree exactly.
//!
//! Per message, with the pinned counts, and before a message's
//! properties, names, rule host and lock plan were shared (built once
//! instead of copied per use). The earlier engine's hash maps were
//! randomly seeded, so its counts moved by up to 3 allocations in 1 000
//! from run to run:
//!
//! | workload          | ingest      | processing    | total         | bytes           |
//! |-------------------|-------------|---------------|---------------|-----------------|
//! | `slice_state`     | 66.80 → 51.80 | 103.86 → 26.41 | 170.65 → 78.21 | 11 024 → 7 643 |
//! | `durable_sharded` | 34.47 → 19.46 | 277.10 → 110.28 | 311.56 → 129.74 | 24 905 → 15 609 |

mod counting;

use counting::{Allocs, Counting};
use demaq::Server;
use demaq_net::Clock;
use demaq_store::store::SyncPolicy;
use demaq_xquery::Atomic;
use tempfile::TempDir;

#[global_allocator]
static ALLOC: Counting = Counting;

/// 2023-11-14T22:13:20Z: a present-day timestamp, so `enqueued_at` has
/// the width it has in production.
const START_MS: i64 = 1_700_000_000_000;

/// splitmix64: a fixed, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Allocations of one measured run, split by phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    messages: u64,
    ingest: Allocs,
    processing: Allocs,
}

impl Counts {
    fn total(&self) -> Allocs {
        let mut t = self.ingest;
        t += self.processing;
        t
    }

    fn print(&self, workload: &str) {
        let (i, _) = self.ingest.per(self.messages);
        let (p, _) = self.processing.per(self.messages);
        let (t, b) = self.total().per(self.messages);
        println!(
            "{workload}: {i:.2} ingest + {p:.2} processing = {t:.2} allocations \
             and {b:.0} bytes per message ({self:?})"
        );
    }
}

/// The counts of `run`, which two runs must agree on. A first run goes
/// before them: what the process sets up once (its name pool, say) is
/// charged to no message, whichever test ran first.
fn repeated(run: impl Fn() -> Counts) -> Counts {
    run();
    let counts = run();
    assert_eq!(run(), counts, "counts repeat exactly");
    counts
}

// ---- slice_state ---------------------------------------------------------

/// `demaq-benchmark/src/workloads/slice_state.rs`'s program, verbatim.
const SLICE_STATE: &str = r#"
create queue readings kind basic mode persistent
create queue reports kind basic mode persistent
create queue alerts kind basic mode persistent
create property device as xs:string fixed queue readings value /reading/@dev
create property grp as xs:string fixed queue readings value /reading/@grp
create slicing byDevice on device
create slicing byGroup on grp

create rule spike for byDevice
  if (count(qs:slice()) >= 4 and
      qs:message()//v * count(qs:slice()) > 2 * sum(qs:slice()//v)) then
    do enqueue <spike dev="{qs:slicekey()}" v="{qs:message()//v/text()}"/> into alerts

create rule hot for byGroup
  if (count(qs:slice()//v[. > 95]) >= 3 and qs:message()//v > 95) then
    do enqueue <hot grp="{qs:slicekey()}" n="{count(qs:slice()//v[. > 95])}"
                    at="{qs:message()/reading/@seq}"/> into alerts

create rule rollover for byGroup
  if (count(qs:slice()) >= 96) then
    (do enqueue <window grp="{qs:slicekey()}" n="{count(qs:slice())}"
                        total="{sum(qs:slice()//v)}"/> into reports,
     do reset)
"#;

const DEVICES: u64 = 2048;
const GROUPS: u64 = 64;
const DOC_CACHE_BUDGET: usize = 96 << 10;
const BURST: u64 = 250;
const SLICE_SEED: u64 = 0x5EED_0040;

/// Zipf(1.0) over the devices by inverse CDF, as the workload draws them.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: u64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf(cdf)
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        self.0.partition_point(|&c| c < u) as u64
    }
}

/// Feed `bursts` bursts of readings, draining after each; returns the
/// allocations of the last `measured` bursts.
fn slice_state(warmup: u64, measured: u64) -> Counts {
    let dir = TempDir::new().unwrap();
    let server = Server::builder()
        .program(SLICE_STATE)
        .dir(dir.path())
        .sync_policy(SyncPolicy::Batch)
        .doc_cache_budget(DOC_CACHE_BUDGET)
        .clock(Clock::virtual_at(START_MS))
        .build()
        .unwrap();
    let (mut rng, zipf) = (Rng(SLICE_SEED), Zipf::new(DEVICES));
    let mut seq = 0;
    let mut counts = Counts {
        messages: measured * BURST,
        ingest: Allocs::default(),
        processing: Allocs::default(),
    };
    for burst in 0..warmup + measured {
        let readings: Vec<String> = (0..BURST)
            .map(|_| {
                let dev = zipf.sample(&mut rng);
                let v = if rng.below(100) < 3 {
                    100 + rng.below(21)
                } else {
                    10 + rng.below(21)
                };
                seq += 1;
                format!(
                    "<reading dev=\"d{dev}\" grp=\"g{}\" seq=\"{seq}\"><v>{v}</v>\
                     <unit>celsius</unit></reading>",
                    dev % GROUPS
                )
            })
            .collect();
        let ((), ingest) = Allocs::during(|| {
            for xml in &readings {
                server.enqueue_external("readings", xml).unwrap();
            }
        });
        let (processed, processing) = Allocs::during(|| server.run_until_idle().unwrap());
        assert!(processed >= BURST);
        if burst >= warmup {
            counts.ingest += ingest;
            counts.processing += processing;
        }
    }
    assert!(!server.queue_bodies("reports").unwrap().is_empty());
    counts
}

/// Allocations and bytes, ingest and processing, for 1 000 readings after
/// 500 of warm-up: 51.80 + 26.41 allocations per reading. Before lineage
/// was read from the enqueue, 51.80 + 26.43 (51 796 allocations and
/// 4 784 976 bytes, 26 425 and 2 893 407): a message's enqueue LSN costs
/// its map entry 16 bytes, and the lineage map and its ops are gone.
const SLICE_STATE_COUNTS: (Allocs, Allocs) = (
    Allocs {
        count: 51_796,
        bytes: 4_785_744,
    },
    Allocs {
        count: 26_410,
        bytes: 2_857_231,
    },
);

#[test]
fn slice_state_allocations_per_reading_are_pinned() {
    let counts = repeated(|| slice_state(2, 4));
    counts.print("slice_state");
    assert_eq!((counts.ingest, counts.processing), SLICE_STATE_COUNTS);
}

// ---- durable_sharded -----------------------------------------------------

/// `demaq-benchmark/src/workloads/durable_sharded.rs`'s program, verbatim.
const DURABLE_SHARDED: &str = r#"
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
const JOB_SEED: u64 = 0x5EED_0041;

/// Feed `warmup` jobs and drain, then `measured` more; returns the
/// allocations of the measured ones. Drained on this thread.
fn durable_sharded(warmup: u64, measured: u64) -> Counts {
    let dir = TempDir::new().unwrap();
    let server = Server::builder()
        .program(DURABLE_SHARDED)
        .dir(dir.path())
        .sync_policy(SyncPolicy::Batch)
        .clock(Clock::virtual_at(START_MS))
        .shards(SHARDS)
        .build()
        .unwrap();
    let mut rng = Rng(JOB_SEED);
    let mut counts = Counts {
        messages: measured,
        ingest: Allocs::default(),
        processing: Allocs::default(),
    };
    for (first, n, counted) in [(0, warmup, false), (warmup, measured, true)] {
        let jobs: Vec<(String, Vec<(String, Atomic)>)> = (first..first + n)
            .map(|n| {
                let (lane, to) = (rng.below(LANES), rng.below(LANES));
                (
                    format!("<job n=\"{n}\" to=\"{to}\"/>"),
                    vec![("lane".to_string(), Atomic::Int(lane as i64))],
                )
            })
            .collect();
        let ((), ingest) = Allocs::during(|| {
            for (xml, props) in &jobs {
                server
                    .enqueue_external_with_props("intake", xml, props)
                    .unwrap();
            }
        });
        let (processed, processing) = Allocs::during(|| server.run_until_idle().unwrap());
        assert_eq!(processed, 3 * n);
        if counted {
            counts.ingest = ingest;
            counts.processing = processing;
        }
    }
    assert_eq!(
        server.queue_bodies("done").unwrap().len(),
        (warmup + measured) as usize
    );
    counts
}

/// Allocations and bytes, ingest and processing, for 200 jobs after 100
/// of warm-up: 19.46 + 110.28 allocations per job. Before lineage was read
/// from the enqueue, 19.46 + 112.30 (3 893 allocations and 489 016 bytes,
/// 22 459 and 2 774 642).
const DURABLE_SHARDED_COUNTS: (Allocs, Allocs) = (
    Allocs {
        count: 3_893,
        bytes: 499_000,
    },
    Allocs {
        count: 22_055,
        bytes: 2_622_866,
    },
);

#[test]
fn durable_sharded_allocations_per_job_are_pinned() {
    let counts = repeated(|| durable_sharded(100, 200));
    counts.print("durable_sharded");
    assert_eq!((counts.ingest, counts.processing), DURABLE_SHARDED_COUNTS);
}
