//! E15 — Static retention narrowing under a long-running soak (ISSUE 10).
//!
//! A telemetry fan-in whose slicing is only ever read through
//! incrementally-maintained aggregates used to retain every member
//! forever: without a `do reset`, slice membership pins each processed
//! reading in the store, so resident bytes grow linearly with uptime
//! even though no rule will ever look at the old payloads again. The
//! liveness pass proves the slicing `AggregateOnly`, and GC folds
//! processed members into persisted base cells and purges the payloads
//! — the store footprint plateaus while every count/sum still spans the
//! entire history.
//!
//! Measured:
//! * `soak_{narrowed,full}` — R rounds of keyed readings, each round
//!   followed by `run_until_idle` + `gc()`, on the narrowed program vs
//!   the same program plus one never-running rule that reads the slice in
//!   full, which the liveness pass must retain for.
//! * A representative soak records the resident-byte trajectory per
//!   round and asserts the shape: the narrowed footprint plateaus
//!   (second half adds almost nothing) while the full-retention program
//!   keeps growing, and the final narrowed residency is a small
//!   fraction of the full program's. Aggregate outputs stay identical.
//!
//! The headline `soak_throughput` is per-message and flat in uptime, so
//! smoke and full runs are directly comparable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use demaq::Server;
use demaq_store::store::SyncPolicy;
use std::time::Instant;

/// Aggregate-only fan-in: the slicing's sole reader folds `count` +
/// `sum` over the slice, and the member queue is read nowhere else —
/// exactly the shape the liveness pass narrows.
const SOAK_PROGRAM: &str = r#"
    create queue intake kind basic mode persistent
    create queue report kind basic mode persistent
    create property device as xs:string fixed queue intake value //reading/@dev
    create slicing byDevice on device
    create rule stats for byDevice
      if (qs:message()//reading) then
        do enqueue <stat dev="{qs:slicekey()}" n="{count(qs:slice())}"
                         total="{sum(qs:slice()//v)}"/> into report
"#;

/// The rule [`full_program`] adds: it copies the whole slice out. No
/// `<audit>` message ever arrives, so it never runs, but its read makes
/// the slicing a full scan: the store keeps every member.
const AUDIT_RULE: &str = r#"
    create rule audit for byDevice
      if (qs:message()/audit) then do enqueue <audit>{qs:slice()}</audit> into report
"#;

/// [`SOAK_PROGRAM`] plus [`AUDIT_RULE`], and nothing else.
fn full_program() -> String {
    format!("{SOAK_PROGRAM}{AUDIT_RULE}")
}

const DEVICES: usize = 8;

fn smoke() -> bool {
    std::env::var("DEMAQ_E15_SMOKE").is_ok()
}

fn build_server(program: &str) -> Server {
    Server::builder()
        .program(program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .expect("valid program")
}

/// One soak round: `per_round` keyed readings, drained, then GC — the
/// maintenance cadence of a long-running node.
fn soak_round(server: &Server, round: usize, per_round: usize) {
    for i in 0..per_round {
        let n = round * per_round + i;
        server
            .enqueue_external(
                "intake",
                &format!(
                    "<reading dev='d{}'><v>{}</v></reading>",
                    n % DEVICES,
                    n % 17
                ),
            )
            .expect("enqueue");
    }
    server.run_until_idle().expect("idle");
    server.gc().expect("gc");
}

/// Full soak returning the server, wall seconds, and the resident-byte
/// trajectory sampled after each round's GC.
fn soak(program: &str, rounds: usize, per_round: usize) -> (Server, f64, Vec<u64>) {
    let server = build_server(program);
    let t0 = Instant::now();
    let mut resident = Vec::with_capacity(rounds);
    for r in 0..rounds {
        soak_round(&server, r, per_round);
        resident.push(server.store().resident_payload_bytes());
    }
    (server, t0.elapsed().as_secs_f64(), resident)
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

fn bench_e15(c: &mut Criterion) {
    let (rounds, per_round) = if smoke() { (4, 48) } else { (8, 384) };
    let total = rounds * per_round;

    let mut group = c.benchmark_group("e15_retention_soak");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total as u64));
    let full_program = full_program();
    for (label, program) in [
        ("soak_narrowed", SOAK_PROGRAM),
        ("soak_full", &full_program),
    ] {
        group.bench_with_input(BenchmarkId::new(label, total), &total, |b, _| {
            b.iter(|| {
                let server = build_server(program);
                for r in 0..rounds {
                    soak_round(&server, r, per_round);
                }
                server.stats().processed
            });
        });
    }
    group.finish();

    // Representative soaks with trajectory + metric shape asserts.
    let (nar, t_nar, res_nar) = soak(SOAK_PROGRAM, rounds, per_round);
    let (full, t_full, res_full) = soak(&full_program, rounds, per_round);

    // Identical observable behavior (the differential suite proves this
    // exhaustively; the soak re-checks the cheap invariants).
    assert_eq!(nar.stats().processed, full.stats().processed);
    assert_eq!(nar.stats().errors_routed, full.stats().errors_routed);

    let text = nar.metrics_text();
    let released = metric_value(&text, "demaq_engine_retention_released_total");
    assert!(
        released > 0,
        "narrowed soak never released a member:\n{text}"
    );
    assert_eq!(
        metric_value(
            &full.metrics_text(),
            "demaq_engine_retention_released_total"
        ),
        0,
        "the full-retention program must not release"
    );

    // Footprint shape: the narrowed trajectory plateaus — its second
    // half adds (almost) nothing — while full retention keeps growing
    // and ends well above it.
    let (mid, last) = (res_nar[rounds / 2 - 1].max(1), *res_nar.last().unwrap());
    assert!(
        last <= mid * 2,
        "narrowed residency must plateau: {res_nar:?}"
    );
    let (fmid, flast) = (res_full[rounds / 2 - 1].max(1), *res_full.last().unwrap());
    assert!(
        flast >= fmid * 3 / 2,
        "full-retention residency should keep growing: {res_full:?}"
    );
    let ratio = flast as f64 / last.max(1) as f64;
    assert!(
        ratio >= 2.0,
        "narrowing should shed most of the resident bytes: \
         narrowed={last} full={flast} ({ratio:.2}x)"
    );

    // Narrowing must not tax the hot path: the soak includes the fold
    // work, yet stays within noise of the full-retention program (and
    // wins once its slices get long enough to slow *its* GC scans).
    let slowdown = t_nar / t_full.max(1e-9);
    assert!(
        slowdown <= 2.0,
        "narrowed soak fell behind the full-retention program: \
         {t_nar:.3}s vs {t_full:.3}s ({slowdown:.2}x)"
    );

    demaq_bench::dump_metrics(&nar, "e15_retention_soak");
    demaq_bench::dump_metrics(&full, "e15_retention_soak_full");

    println!(
        "e15: msgs={total} released={released} resident_narrowed={last}B \
         resident_full={flast}B ratio={ratio:.2}x narrowed={t_nar:.3}s full={t_full:.3}s"
    );

    let mut report = demaq_bench::report::BenchReport::new("e15_retention_soak", smoke());
    report
        .result("soak_messages", total as f64, "count")
        .result("released_members", released as f64, "count")
        .result("resident_bytes_narrowed", last as f64, "bytes")
        .result("resident_bytes_full", flast as f64, "bytes")
        .result("resident_ratio_full_vs_narrowed", ratio, "x")
        .result("soak_throughput", total as f64 / t_nar.max(1e-9), "msg/s")
        .result("full_retention_wall_s", t_full, "s");
    report.write();
}

criterion_group!(benches, bench_e15);
criterion_main!(benches);
