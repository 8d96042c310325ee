//! E14 — Incremental slice aggregates (ISSUE 9).
//!
//! A slicing rule whose condition aggregates over its slice used to
//! rescan all N members on every arrival: `sum(qs:slice()//v)` folded N
//! documents per message, so N arrivals cost O(N²) member visits even
//! with the E10 caches (the *fold* was linear, not the loads). The
//! aggregate registry materializes one cell per `(aggregate, slicing
//! key)` validated on the store's lifetime tokens: an append-only arrival
//! takes the delta path (absorb exactly the new suffix), a re-read at the
//! same `(token, len)` is a pure hit, and reset/GC force a rebuild — per-message
//! aggregate cost becomes O(1) in N.
//!
//! Since ISSUE 25 a read is O(1) in N too: the store hands out only the
//! members past the cell's `(token, len)` (none on a hit) instead of a
//! clone of all N ids, and a delta folds each new member's contribution
//! — computed once at its enqueue — without loading its document.
//!
//! Measured:
//! * `aggregate_rule_{incremental,rescan}` — N arrivals into one hot
//!   slice, each followed by `run_until_idle`, so the rule's `count` +
//!   `sum` aggregates re-evaluate against the growing slice.
//!   The rescan side spells the same two aggregates in shapes the
//!   recognizer does not match (`count((qs:slice(), ()))`,
//!   `sum(qs:slice()//v, 0)`), so every read folds all N members — what
//!   the registry-less rescan fallback costs.
//! * Representative runs assert the counter shape (deltas ≈ N with each
//!   delta absorbing a 1-member suffix; rebuilds rare; membership-only
//!   `count` answered as hits) and the end-to-end wall-clock ratio:
//!   ≥ 5x over the rescan program at N = 1024 in full mode.
//! * `read_ns_{small,large}_n` — ns per aggregate read with the slice at
//!   the small and the large N: the `watch` rule's own evaluation time
//!   (its body is nothing but its two reads) over further arrivals. Full
//!   mode asserts large/small ≤ 1.5 — the O(1)-in-N claim, gated.
//!
//! The headline `incremental_throughput` is per-message and therefore
//! comparable between smoke (N=48) and full (N=1024) runs — flatness in
//! N is the claim being gated.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use demaq::Server;
use demaq_store::store::SyncPolicy;
use std::time::Instant;

/// The guard's two aggregates as the registry recognizes them: a
/// membership-only `count` (registry fast path) and a stepped `sum`
/// (materialized cell).
const RECOGNIZED: (&str, &str) = ("count(qs:slice())", "sum(qs:slice()//v)");

/// The same two values in shapes the recognizer does not match: a
/// sequence-wrapped source and `fn:sum`'s two-argument form. Recognition
/// runs on the AST, so lowering keeps both as plain calls over
/// `qs:slice()`, which evaluate like `Plan::AggregateRead`'s rescan
/// fallback: every read loads and folds all N members.
const RESCANNED: (&str, &str) = ("count((qs:slice(), ()))", "sum(qs:slice()//v, 0)");

/// One hot slice every message joins, watched by a rule whose guard
/// reads the two aggregates and never fires, so each arrival pays
/// exactly the aggregate-read cost. Both sides of the comparison differ
/// only in the aggregates' spelling.
fn watch_program((count, sum): (&str, &str)) -> String {
    format!(
        r#"
    create queue parts kind basic mode persistent
    create queue alerts kind basic mode persistent
    create property rid as xs:string fixed queue parts value //@rid
    create slicing byRid on rid
    create rule watch for byRid
      if ({count} >= 1000000 or {sum} >= 1000000000) then
        do enqueue <overflow>{{qs:slicekey()}}</overflow> into alerts
"#
    )
}

fn smoke() -> bool {
    std::env::var("DEMAQ_E14_SMOKE").is_ok()
}

fn build_server(program: &str) -> Server {
    Server::builder()
        .program(program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .expect("valid program")
}

/// N arrivals into the single slice, processing after each so the rule
/// always re-aggregates mid-growth (the O(N²) rescan shape).
fn run_feed(server: &Server, n: usize) {
    feed_range(server, 0..n);
}

fn feed_range(server: &Server, arrivals: std::ops::Range<usize>) {
    for i in arrivals {
        server
            .enqueue_external("parts", &format!("<p rid='hot'><v>{}</v></p>", i % 17))
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

/// Aggregate reads per firing of `watch`: the membership-only `count` and
/// the stepped `sum`.
const READS_PER_FIRING: f64 = 2.0;

/// `watch`'s accumulated evaluation time and firings.
fn watch_profile(server: &Server) -> (u64, u64) {
    let p = server
        .rule_profiles()
        .into_iter()
        .find(|p| p.rule == "watch")
        .expect("watch rule profiled");
    (p.eval_ns_total, p.fires)
}

/// ns per aggregate read with the hot slice at `n` members: grow it to `n`
/// (unmeasured), then attribute `probe` further arrivals' `watch`
/// evaluations to their reads.
fn read_ns_at(n: usize, probe: usize) -> f64 {
    let server = build_server(&watch_program(RECOGNIZED));
    run_feed(&server, n);
    let (ns0, fires0) = watch_profile(&server);
    feed_range(&server, n..n + probe);
    let (ns1, fires1) = watch_profile(&server);
    (ns1 - ns0) as f64 / ((fires1 - fires0) as f64 * READS_PER_FIRING)
}

/// Median of per-read costs at the small and the large N, measured in
/// alternation so host drift hits both sides alike.
fn read_ns_small_large(small: usize, large: usize, probe: usize) -> (f64, f64) {
    let (mut s, mut l): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        s.push(read_ns_at(small, probe));
        l.push(read_ns_at(large, probe));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(&mut s), median(&mut l))
}

fn timed_feed(program: &str, n: usize) -> (Server, f64) {
    let server = build_server(program);
    let t0 = Instant::now();
    run_feed(&server, n);
    (server, t0.elapsed().as_secs_f64())
}

fn bench_e14(c: &mut Criterion) {
    let sizes: &[usize] = if smoke() { &[32] } else { &[256, 1024] };
    let mut group = c.benchmark_group("e14_incremental_aggregates");
    group.sample_size(10);

    for &n in sizes {
        group.throughput(Throughput::Elements(n as u64));
        for (label, program) in [
            ("aggregate_rule_incremental", watch_program(RECOGNIZED)),
            ("aggregate_rule_rescan", watch_program(RESCANNED)),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
                b.iter(|| {
                    let server = build_server(&program);
                    run_feed(&server, n);
                    server.stats().processed
                });
            });
        }
    }
    group.finish();

    // Representative runs with metric snapshots and the shape asserts.
    let n = if smoke() { 48 } else { 1024 };

    let (server, t_inc) = timed_feed(&watch_program(RECOGNIZED), n);
    let text = server.metrics_text();
    let hits = metric_value(&text, "demaq_core_agg_hits_total");
    let deltas = metric_value(&text, "demaq_core_agg_deltas_total");
    let rebuilds = metric_value(&text, "demaq_core_agg_rebuilds_total");
    assert!(hits > 0, "membership fast path saw no hits:\n{text}");
    assert!(
        deltas > 0,
        "append-only growth must take the delta path:\n{text}"
    );
    // Flat-in-N counter shape: every arrival's aggregate reads are
    // answered by the registry (hits + deltas + rebuilds cover all
    // reads), each delta absorbs exactly the 1-message suffix (so deltas
    // is linear in N, and total member visits ≈ N, not N²), and full
    // refolds stay rare.
    assert!(
        hits + deltas + rebuilds >= n as u64,
        "registry must answer at least one read per arrival (N={n}): \
         hits={hits} deltas={deltas} rebuilds={rebuilds}"
    );
    assert!(
        deltas <= (n + 8) as u64,
        "delta count must stay linear in N={n}, got {deltas}"
    );
    assert!(
        rebuilds <= (n / 8 + 4) as u64,
        "rebuilds must stay rare for an append-only slice, got {rebuilds}"
    );
    demaq_bench::dump_metrics(&server, "e14_incremental_aggregates");

    let (server, t_rescan) = timed_feed(&watch_program(RESCANNED), n);
    let text = server.metrics_text();
    for name in [
        "demaq_core_agg_hits_total",
        "demaq_core_agg_deltas_total",
        "demaq_core_agg_rebuilds_total",
    ] {
        assert_eq!(
            metric_value(&text, name),
            0,
            "the rescan program reads no recognized aggregate; {name} must be 0"
        );
    }
    demaq_bench::dump_metrics(&server, "e14_incremental_aggregates_rescan");

    let speedup = t_rescan / t_inc.max(1e-9);
    if !smoke() {
        assert!(
            speedup >= 5.0,
            "incremental aggregates must beat the rescan program ≥5x at N={n}, \
             got {speedup:.2}x ({t_rescan:.3}s vs {t_inc:.3}s)"
        );
        // Per-message cost must be flat in N: quadrupling the slice may
        // not even double the per-message time (generous bound; a rescan
        // engine quadruples it).
        let (_, t_small) = timed_feed(&watch_program(RECOGNIZED), n / 4);
        let per_big = t_inc / n as f64;
        let per_small = t_small / (n / 4) as f64;
        assert!(
            per_big <= per_small * 2.0,
            "per-message aggregate cost must stay flat in N: \
             {:.1}us at N={} vs {:.1}us at N={}",
            per_big * 1e6,
            n,
            per_small * 1e6,
            n / 4
        );
    }

    // Per-read cost at the small and the large N: flat, because a read
    // copies no membership and loads no member document.
    let (small, large, probe) = if smoke() {
        (16, 64, 32)
    } else {
        (256, 1024, 256)
    };
    let (ns_small, ns_large) = read_ns_small_large(small, large, probe);
    let growth = ns_large / ns_small.max(1e-9);
    if !smoke() {
        assert!(
            growth <= 1.5,
            "aggregate read cost must be O(1) in N: {ns_large:.0} ns at N={large} \
             vs {ns_small:.0} ns at N={small} ({growth:.2}x)"
        );
    }

    println!(
        "e14: N={n} hits={hits} deltas={deltas} rebuilds={rebuilds} \
         incremental={t_inc:.3}s rescan={t_rescan:.3}s speedup={speedup:.2}x \
         read_ns@{small}={ns_small:.0} read_ns@{large}={ns_large:.0} ({growth:.2}x)"
    );

    let mut report = demaq_bench::report::BenchReport::new("e14_incremental_aggregates", smoke());
    report
        .result("slice_members", n as f64, "count")
        .result("agg_hits", hits as f64, "count")
        .result("agg_deltas", deltas as f64, "count")
        .result("agg_rebuilds", rebuilds as f64, "count")
        .result("incremental_wall_s", t_inc, "s")
        .result("rescan_program_wall_s", t_rescan, "s")
        .result(
            "incremental_throughput",
            n as f64 / t_inc.max(1e-9),
            "msg/s",
        )
        .result("speedup_vs_rescan_program", speedup, "x")
        .result("read_ns_small_n", ns_small, "ns")
        .result("read_ns_large_n", ns_large, "ns")
        .result("read_ns_large_over_small", growth, "x");
    report.write();
}

criterion_group!(benches, bench_e14);
criterion_main!(benches);
