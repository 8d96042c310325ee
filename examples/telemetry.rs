//! IoT telemetry fan-in with per-device windowed aggregates — the
//! "sensor networks" application family from the paper's introduction,
//! exercising the incremental aggregate registry (ISSUE 9) end to end.
//!
//! Thousands of readings fan into one queue; a slicing partitions them
//! per device, and two slicing rules aggregate over each device's slice
//! on *every* arrival:
//! * `rollover` — when the device's window fills (`count(qs:slice())`),
//!   emit a `<window>` report with `sum`/`min`/`max` over the window and
//!   reset the slice, so the processed readings become collectable;
//! * `spike` — flag any reading more than twice the window's running
//!   mean (`count` + `sum`, no stored state).
//!
//! With the aggregate registry (the default), each arrival extends the
//! device's materialized cells by exactly one member instead of
//! rescanning the slice, so the whole soak stays flat per message; the
//! example asserts real registry traffic (`hits`/`deltas` counters) and
//! behaves as a miniature soak test: ~1.5k messages, six window
//! generations per device, GC after every generation.
//!
//! ```text
//! cargo run --example telemetry
//! ```

use demaq::Server;
use demaq_store::store::SyncPolicy;

const DEVICES: usize = 16;
const READINGS_PER_DEVICE: usize = 96;
const WINDOW: usize = 16;

const PROGRAM: &str = r#"
    create queue readings kind basic mode persistent
    create queue reports kind basic mode persistent
    create queue alerts kind basic mode persistent

    create property device as xs:string fixed queue readings value //reading/@dev
    create slicing byDevice on device

    (: A full window: summarize it and reset so the next one starts
       empty and the summarized readings can be garbage-collected. :)
    create rule rollover for byDevice
      if (count(qs:slice()) >= 16) then
        (do enqueue <window dev="{qs:slicekey()}"
                            n="{count(qs:slice())}"
                            total="{sum(qs:slice()//v)}"
                            lo="{min(qs:slice()//v)}"
                            hi="{max(qs:slice()//v)}"/> into reports,
         do reset)

    (: Spike detection against the window's running mean, expressed
       multiplicatively (v > 2 * sum/count) to stay in integer land. :)
    create rule spike for byDevice
      if (count(qs:slice()) >= 4 and
          qs:message()//v * count(qs:slice()) > 2 * sum(qs:slice()//v)) then
        do enqueue <spike dev="{qs:slicekey()}" v="{qs:message()//v/text()}"/> into alerts
"#;

/// Deterministic reading stream: device `i % DEVICES`, values wobbling
/// around 15, with every 37th reading a 100-unit spike.
fn reading(i: usize) -> String {
    let dev = i % DEVICES;
    let v = if i % 37 == 36 { 100 } else { 10 + (i * 7) % 11 };
    format!("<reading dev='d{dev}'><v>{v}</v></reading>")
}

fn counter(server: &Server, name: &str) -> u64 {
    server.metrics().registry.counter_total(name)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = Server::builder()
        .program(PROGRAM)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()?;

    let total = DEVICES * READINGS_PER_DEVICE;
    let mut purged = 0usize;
    let mut reports: Vec<String> = Vec::new();
    let mut alerts: Vec<String> = Vec::new();
    for i in 0..total {
        server.enqueue_external("readings", &reading(i))?;
        // Drain in bursts so arrivals pile up like a real fan-in. The
        // egress queues have no rules, so their messages count as
        // processed and nothing retains them — harvest them *before*
        // maintenance, which GCs them along with the reset windows.
        if i % 64 == 63 {
            server.run_until_idle()?;
            reports.extend(server.queue_bodies("reports")?);
            alerts.extend(server.queue_bodies("alerts")?);
            purged += server.maintenance()?;
        }
    }
    server.run_until_idle()?;
    reports.extend(server.queue_bodies("reports")?);
    alerts.extend(server.queue_bodies("alerts")?);
    purged += server.maintenance()?;
    let expected_windows = total / WINDOW;
    println!(
        "telemetry: {total} readings from {DEVICES} devices → {} window reports, \
         {} spike alerts, {purged} messages purged by retention GC",
        reports.len(),
        alerts.len()
    );
    for r in reports.iter().take(3) {
        println!("  {r}");
    }

    assert_eq!(
        reports.len(),
        expected_windows,
        "every full window must produce exactly one report"
    );
    assert!(
        reports
            .iter()
            .all(|r| r.contains(&format!("n=\"{WINDOW}\""))),
        "windows roll over at exactly {WINDOW} members"
    );
    assert!(!alerts.is_empty(), "the 100-unit spikes must be flagged");
    assert!(
        purged > total / 2,
        "reset windows must be garbage-collected, purged only {purged}"
    );

    // The whole point: the registry — not a rescan — answered the
    // per-arrival aggregate reads. `count(qs:slice())` is membership-only
    // (hits); the stepped `sum`/`min`/`max` cells grow by delta.
    let hits = counter(&server, "demaq_core_agg_hits_total");
    let deltas = counter(&server, "demaq_core_agg_deltas_total");
    let rebuilds = counter(&server, "demaq_core_agg_rebuilds_total");
    println!("aggregate registry: hits={hits} deltas={deltas} rebuilds={rebuilds}");
    assert!(hits > 0, "aggregate reads never hit the registry");
    assert!(deltas > 0, "append-only growth never took the delta path");
    assert!(
        deltas >= rebuilds,
        "steady-state growth should be delta-dominated (deltas={deltas}, rebuilds={rebuilds})"
    );

    let stats = server.stats();
    println!(
        "stats: processed={} rules_evaluated={} errors_routed={}",
        stats.processed, stats.rules_evaluated, stats.errors_routed
    );
    assert_eq!(stats.errors_routed, 0, "soak must stay error-free");
    Ok(())
}
