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
//!
//! Since rule evaluation allocates for its output only (zero or one item
//! inline in a sequence, a constructed message built in one document and
//! enqueued without a copy, a forwarded message not parsed again), the
//! pins read 44.80 + 10.00 = 54.80 for `slice_state` (property bindings
//! run on the same evaluator at ingest) and 19.46 + 69.00 = 88.46 for
//! `durable_sharded`. Since slices are addressed by handle (a membership
//! row copies no key; a message records its handles in one allocation,
//! however many slices it joins; a lock key clones nothing; a reset's
//! handle rides in its op), they read 44.08 + 7.96 = 52.04 and 20.46 +
//! 71.00 = 91.47. Recording one allocation per slice joined read 45.08 +
//! 7.96 for `slice_state`.
//!
//! Each run also counts the slices found by `(slicing, key)`
//! (`demaq_store_slice_lookups_total`): one per slice a message joins,
//! none for processing a message. Before slices were addressed by
//! handle, counting by instrumenting each lookup, a `slice_state`
//! reading found its slices by name 10.07 times: the store's index 2.00
//! times at ingest and 4.11 in processing, the engine's cells and lock
//! table 3.97 times in processing.

mod counting;

use counting::{Allocs, Counting};
use demaq::Server;
use demaq_net::Clock;
use demaq_obs::Obs;
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
    /// Slices found by `(slicing, key)` (`demaq_store_slice_lookups_total`),
    /// at ingest and in processing.
    lookups: [u64; 2],
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

/// `demaq_store_slice_lookups_total` so far.
fn lookups(obs: &Obs) -> u64 {
    obs.registry
        .counter_total("demaq_store_slice_lookups_total")
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
        lookups: [0; 2],
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
        let found = lookups(&server.metrics());
        let ((), ingest) = Allocs::during(|| {
            for xml in &readings {
                server.enqueue_external("readings", xml).unwrap();
            }
        });
        let ingest_found = lookups(&server.metrics());
        let (processed, processing) = Allocs::during(|| server.run_until_idle().unwrap());
        assert!(processed >= BURST);
        if burst >= warmup {
            counts.ingest += ingest;
            counts.processing += processing;
            counts.lookups[0] += ingest_found - found;
            counts.lookups[1] += lookups(&server.metrics()) - ingest_found;
        }
    }
    assert!(!server.queue_bodies("reports").unwrap().is_empty());
    counts
}

/// Allocations and bytes, ingest and processing, for 1 000 readings after
/// 500 of warm-up: 44.10 + 7.97 allocations per reading. While the
/// scheduler kept a burst's buffers once its backlog was gone, 44.08 +
/// 7.96 (44 079 allocations and 3 464 668 bytes, 7 960 and 1 449 701):
/// each burst of 250 now regrows them at ingest and hands them back in
/// processing, four allocations and two per burst. Recording a
/// message's handles one allocation per slice it joined, and keeping a
/// reset's handle in a vector beside the transaction's ops (24 bytes more
/// in every transaction buffer, 96 in every apply batch), read 45.08 +
/// 7.96 (45 079 allocations and 3 600 668 bytes, 7 962 and 1 547 013).
/// Before slices were addressed by handle, 44.80 + 10.00 (44 796 allocations and
/// 3 417 744 bytes, 10 002 and 1 435 112). Before rule
/// evaluation allocated for its output only, 51.80 + 26.41 (51 796
/// allocations and 4 785 744 bytes, 26 410 and 2 857 231). Before lineage
/// was read from the enqueue, 51.80 + 26.43 (51 796 allocations and
/// 4 784 976 bytes, 26 425 and 2 893 407): a message's enqueue LSN costs
/// its map entry 16 bytes, and the lineage map and its ops are gone.
const SLICE_STATE_COUNTS: (Allocs, Allocs) = (
    Allocs {
        count: 44_095,
        bytes: 3_553_884,
    },
    Allocs {
        count: 7_968,
        bytes: 1_464_613,
    },
);
/// Slices found by name for those readings: 2.00 per reading, one per
/// slicing at ingest, and none in processing.
const SLICE_STATE_LOOKUPS: [u64; 2] = [2_000, 0];

#[test]
fn slice_state_allocations_per_reading_are_pinned() {
    let counts = repeated(|| slice_state(2, 4));
    counts.print("slice_state");
    assert_eq!((counts.ingest, counts.processing), SLICE_STATE_COUNTS);
    assert_eq!(counts.lookups, SLICE_STATE_LOOKUPS);
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
        lookups: [0; 2],
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
        let found = lookups(&server.metrics());
        let ((), ingest) = Allocs::during(|| {
            for (xml, props) in &jobs {
                server
                    .enqueue_external_with_props("intake", xml, props)
                    .unwrap();
            }
        });
        let ingest_found = lookups(&server.metrics());
        let (processed, processing) = Allocs::during(|| server.run_until_idle().unwrap());
        assert_eq!(processed, 3 * n);
        if counted {
            counts.ingest = ingest;
            counts.processing = processing;
            counts.lookups = [
                ingest_found - found,
                lookups(&server.metrics()) - ingest_found,
            ];
        }
    }
    assert_eq!(
        server.queue_bodies("done").unwrap().len(),
        (warmup + measured) as usize
    );
    counts
}

/// Allocations and bytes, ingest and processing, for 200 jobs after 100
/// of warm-up: 20.47 + 71.02 allocations per job. While the scheduler
/// kept a drained backlog's buffers, 20.46 + 71.00 (4 093 allocations and
/// 494 584 bytes, 14 200 and 1 821 792). With a reset's handle
/// in a vector beside the transaction's ops, 4 093 allocations and
/// 513 784 bytes, 14 200 and 1 888 512. Before slices were
/// addressed by handle, 19.46 + 69.00 (3 893 allocations and 499 000
/// bytes, 13 800 and 1 832 608). Before rule evaluation
/// allocated for its output only and a forward carried its parsed
/// document, 19.46 + 110.28 (22 055 processing allocations and 2 622 866
/// bytes). Before lineage was read from the enqueue, 19.46 + 112.30
/// (3 893 allocations and 489 016 bytes, 22 459 and 2 774 642).
const DURABLE_SHARDED_COUNTS: (Allocs, Allocs) = (
    Allocs {
        count: 4_094,
        bytes: 499_704,
    },
    Allocs {
        count: 14_203,
        bytes: 1_828_080,
    },
);
/// Slices found by name for those jobs: each of a job's three messages
/// joins its `lanes` slice once, the intake at ingest and the two the
/// rules enqueue in processing.
const DURABLE_SHARDED_LOOKUPS: [u64; 2] = [200, 400];

#[test]
fn durable_sharded_allocations_per_job_are_pinned() {
    let counts = repeated(|| durable_sharded(100, 200));
    counts.print("durable_sharded");
    assert_eq!((counts.ingest, counts.processing), DURABLE_SHARDED_COUNTS);
    assert_eq!(counts.lookups, DURABLE_SHARDED_LOOKUPS);
}
