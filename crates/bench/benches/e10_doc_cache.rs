//! E10 — Sharded document cache + materialized slice sequences (ISSUE 3).
//!
//! The rule-evaluation hot path used to re-parse message payloads on
//! every access: a slicing rule over a slice of N members parsed all N
//! documents on *each* member arrival, so processing N arrivals cost
//! O(N²) parses. The sharded byte-budgeted document cache plus the
//! slice's member-sequence cell — validated on the store's `(token, len)`
//! like an aggregate cell — turn that into O(N): each document is parsed
//! once on first touch, and an arrival extends the cached member sequence
//! by its own document instead of rebuilding it.
//!
//! Measured (the uncached twin was retired once the comparison was
//! decided — its numbers are the committed `BENCH_E10.json` entry):
//! * `slice_join` — N arrivals into one slice, each followed by
//!   `run_until_idle` so the slicing rule re-evaluates against the
//!   growing slice.
//! * `parallel_4` — correlate workload drained by
//!   `process_all_parallel(4)` (the condvar-parked workers must not
//!   spin).
//!
//! Gated shape: `demaq_core_doc_parses_total` grows linearly with N (it
//! was quadratic before the caches), both caches see hit traffic, and the
//! append-only slice is rebuilt exactly once, on its cold read. The
//! metrics dump lands in `target/metrics/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use demaq::Server;
use demaq_store::store::SyncPolicy;

/// One slice that every message joins; the rule forces a full slice
/// materialization per processing without ever firing its action. The
/// read is positional, not an aggregate: the E14 registry answers
/// `count(qs:slice())` without materializing the slice at all, which
/// would leave the caches under measurement with no traffic.
const JOIN_PROGRAM: &str = r#"
    create queue parts kind basic mode persistent
    create queue alerts kind basic mode persistent
    create property rid as xs:string fixed queue parts value //@rid
    create slicing byRid on rid
    create rule join for byRid
      if (qs:slice()[1000000]) then
        do enqueue <overflow>{qs:slicekey()}</overflow> into alerts
"#;

fn smoke() -> bool {
    std::env::var("DEMAQ_E10_SMOKE").is_ok()
}

fn build_server() -> Server {
    Server::builder()
        .program(JOIN_PROGRAM)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .expect("valid program")
}

/// N arrivals into the single slice, processing after each so the
/// slicing rule always sees the slice mid-growth (the O(N²) shape).
fn run_join(server: &Server, n: usize) {
    for i in 0..n {
        server
            .enqueue_external("parts", &format!("<p rid='hot'><n>{i}</n></p>"))
            .expect("enqueue");
        server.run_until_idle().expect("idle");
    }
}

/// Read one unlabeled counter/gauge value from a Prometheus exposition.
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or(0)
}

fn bench_e10(c: &mut Criterion) {
    let sizes: &[usize] = if smoke() { &[32] } else { &[256, 1024] };
    let mut group = c.benchmark_group("e10_doc_cache");
    group.sample_size(10);

    for &n in sizes {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("slice_join_cached", n), &n, |b, &n| {
            b.iter(|| {
                let server = build_server();
                run_join(&server, n);
                server.stats().processed
            });
        });
    }

    // Parallel drain: feed first, then 4 workers race the scheduler over
    // the shared caches.
    let (messages, instances) = if smoke() { (64, 8) } else { (1024, 8) };
    group.throughput(Throughput::Elements(messages as u64));
    group.bench_with_input(
        BenchmarkId::new("parallel_4_cached", messages),
        &messages,
        |b, &messages| {
            b.iter(|| {
                let server = build_server();
                for i in 0..messages {
                    let inst = i % instances;
                    server
                        .enqueue_external("parts", &format!("<p rid='i{inst}'><n>{i}</n></p>"))
                        .expect("enqueue");
                }
                server.process_all_parallel(4).expect("parallel");
                server.stats().processed
            });
        },
    );
    group.finish();

    // Representative run with a metric snapshot: it must show real hit
    // traffic and linear parse growth.
    let n = if smoke() { 48 } else { 512 };

    let server = build_server();
    run_join(&server, n);
    let text = server.metrics_text();
    let parses = metric_value(&text, "demaq_core_doc_parses_total");
    let doc_hits = metric_value(&text, "demaq_core_doc_cache_hits_total");
    let seq_hits = metric_value(&text, "demaq_core_slice_seq_hits_total")
        + metric_value(&text, "demaq_core_slice_seq_appends_total");
    let rebuilds = metric_value(&text, "demaq_core_slice_seq_rebuilds_total");
    assert!(doc_hits > 0, "doc cache saw no hits:\n{text}");
    assert!(seq_hits > 0, "slice-seq cache saw no hits/appends:\n{text}");
    assert!(
        parses <= (2 * n) as u64,
        "cached parse count must stay linear in N={n}, got {parses}"
    );
    assert_eq!(
        rebuilds, 1,
        "an append-only slice is rebuilt once, on the cold read; appends extend"
    );
    demaq_bench::dump_metrics(&server, "e10_doc_cache");

    println!(
        "e10: N={n} parses={parses} doc_hits={doc_hits} seq_hits+appends={seq_hits} \
         rebuilds={rebuilds}"
    );

    // Trajectory entry: the cache's parse-avoidance shape, machine-readable.
    let mut report = demaq_bench::report::BenchReport::new("e10_doc_cache", smoke());
    report
        .result("slice_members", n as f64, "count")
        .result("parses_cached", parses as f64, "count")
        .result("doc_cache_hits", doc_hits as f64, "count")
        .result("slice_seq_hits_and_appends", seq_hits as f64, "count");
    report.write();
}

criterion_group!(benches, bench_e10);
criterion_main!(benches);
