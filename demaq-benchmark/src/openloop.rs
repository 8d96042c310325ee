//! The open-loop driver of `gateway_openloop`: a generator thread sends on
//! a seeded Poisson schedule whether or not the engine keeps up, and each
//! response is timed from when its request was *due*.

use crate::closed::{measure_setup, Twin, RECOVERY_REPEATS};
use crate::engine::Engine;
use crate::host;
use crate::registry::Snapshot;
use crate::rng::{poisson_schedule, Rng};
use crate::stats::{median, median_of_window_percentiles, percentile, sorted};
use crate::workloads::gateway_openloop::{response_index, GatewayOpenLoop, RATE_PER_S};
use crate::workloads::{verify, Workload};
use demaq_net::Envelope;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The engine thread gives up this long after the schedule's end; what is
/// still undelivered then counts as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Latency windows: 2.5 s at the schedule's rate gives each window ten
/// samples beyond its p99, the least a percentile should rest on.
const WINDOW_NS: u64 = 2_500_000_000;
const MIN_BEYOND_P99: usize = 10;
/// Closed-loop cycles on the `Batch` twin after the schedule, to price CPU
/// per message with device flushes left out.
const CPU_CYCLES: usize = 8;

pub struct OpenRun {
    pub setup_s: f64,
    pub recovery_s: f64,
    pub recovered_commits: f64,
    pub resident_kb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub sent: u64,
    pub processed: u64,
    /// Response latency from due time, ms, over every delivered message.
    pub latency_p50_ms: f64,
    pub latency_samples: usize,
    /// Median over 2.5 s windows of each window's p99; over all samples
    /// when the run is too short for any window to qualify.
    pub latency_p99_ms: f64,
    pub lateness_p99_ms: f64,
    /// Requests sent but not yet answered when the schedule ended.
    pub backlog_end: u64,
    /// Wall time from first due time to the last delivery.
    pub wall_s: f64,
    /// CPU of everything but the generator thread over the schedule, ns.
    pub engine_cpu_ns: u64,
    /// Per twin cycle, CPU microseconds per processed message scaled by
    /// the yardstick, and the yardstick itself.
    pub cpu_us_per_msg: Vec<f64>,
    pub yardstick_ns: Vec<f64>,
    /// `VmHWM` when the schedule ended.
    pub peak_rss_kb: u64,
    pub wal_bytes: u64,
    pub fsyncs: u64,
    pub maintenance: Vec<Duration>,
}

/// What the engine thread hands back.
struct EngineSide {
    processed: u64,
    wal_bytes: u64,
    maintenance: Vec<Duration>,
    /// When the last maintenance began: everything due later was enqueued
    /// after its GC and must survive the reopen.
    last_gc: Instant,
    finished: Instant,
}

/// A schedule too short to hold an arrival has no latencies.
fn percentile_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, q)
    }
}

pub fn run(w: &mut GatewayOpenLoop, twin: Box<dyn Workload>, seconds: f64, seed: u64) -> OpenRun {
    let setup_s = measure_setup(w);
    let dir = host::fresh_dir("gateway_openloop-store");
    let mut engine = w.open(&dir).expect("gateway_openloop: build failed");
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Warm-up, closed loop: one segment through the whole path.
    let warm = w.next_inputs(w.segment_msgs(), w.burst());
    attempted += warm.len() as u64;
    for input in &warm {
        w.feed(&engine, input).expect("warm-up send");
    }
    engine.drain().expect("warm-up drain");
    failed += verify(w, &engine);
    engine.maintenance().expect("maintenance");

    let due = poisson_schedule(&mut Rng::new(seed, 40), RATE_PER_S, seconds);
    let first_index = w.next_index();
    let requests: Vec<(String, String)> = due.iter().map(|_| w.next_request()).collect();
    attempted += due.len() as u64;

    let before = Snapshot::take(&engine.obs());
    let schedule_done = AtomicBool::new(false);
    let mut lateness_ms = Vec::with_capacity(due.len());
    let mut backlog_end = 0u64;
    let cpu0 = host::process_cpu_ns();
    let start = Instant::now();
    let (side, generator_cpu_ns) = std::thread::scope(|scope| {
        let Engine::Single(server) = &engine else {
            unreachable!("gateway_openloop runs one server")
        };
        let (sink, total, schedule_done) = (&w.sink, due.len(), &schedule_done);
        let engine_ref = &engine;
        let worker = scope.spawn(move || {
            let mut side = EngineSide {
                processed: 0,
                wal_bytes: 0,
                maintenance: Vec::new(),
                last_gc: start,
                finished: start,
            };
            let mut next_maintenance = start + Duration::from_secs(1);
            let mut ended_at = None;
            loop {
                let n = server.run_until_idle().expect("run_until_idle");
                side.processed += n;
                let now = Instant::now();
                let done = schedule_done.load(Ordering::SeqCst);
                if done {
                    let ended = *ended_at.get_or_insert(now);
                    if sink.delivered() >= total || now - ended > DRAIN_LIMIT {
                        side.finished = now;
                        side.wal_bytes += engine_ref.wal_bytes();
                        return side;
                    }
                } else if now >= next_maintenance {
                    // Once per schedule-second, inline, as a deployment
                    // without a spare core would.
                    side.wal_bytes += engine_ref.wal_bytes();
                    side.last_gc = now;
                    engine_ref.maintenance().expect("maintenance");
                    side.maintenance.push(now.elapsed());
                    next_maintenance += Duration::from_secs(1);
                }
                if n == 0 {
                    // The generator unparks after every send; the timeout
                    // only bounds how late maintenance may start.
                    std::thread::park_timeout(Duration::from_millis(20));
                }
            }
        });

        let gen_cpu0 = host::thread_cpu_ns();
        for (i, (&due_ns, (request, _))) in due.iter().zip(&requests).enumerate() {
            let due_at = start + Duration::from_nanos(due_ns);
            loop {
                let now = Instant::now();
                if now >= due_at {
                    lateness_ms.push((now - due_at).as_secs_f64() * 1e3);
                    break;
                }
                // Sleep through long gaps, spin the last stretch.
                let gap = due_at - now;
                if gap > Duration::from_micros(300) {
                    std::thread::sleep(gap - Duration::from_micros(200));
                } else {
                    std::hint::spin_loop();
                }
            }
            if w.net
                .send(Envelope::new(
                    "urn:bench-in",
                    "urn:bench-gen",
                    request.clone(),
                ))
                .is_err()
            {
                failed += 1;
            }
            worker.thread().unpark();
            if i + 1 == due.len() {
                backlog_end = (due.len() - w.sink.delivered().min(due.len())) as u64;
            }
        }
        schedule_done.store(true, Ordering::SeqCst);
        worker.thread().unpark();
        let generator_cpu_ns = host::thread_cpu_ns() - gen_cpu0;
        (
            worker.join().expect("engine thread panicked"),
            generator_cpu_ns,
        )
    });
    let engine_cpu_ns = (host::process_cpu_ns() - cpu0).saturating_sub(generator_cpu_ns);
    let peak_rss_kb = host::peak_rss_kb();
    let activity = Snapshot::take(&engine.obs()).since(&before);

    // Latency of each response from its request's due time.
    let deliveries = w.sink.take();
    let mut seen = vec![0u32; due.len()];
    let mut latencies: Vec<(usize, f64)> = Vec::with_capacity(deliveries.len());
    for d in &deliveries {
        let Some(i) = response_index(&d.body)
            .and_then(|n| n.checked_sub(first_index))
            .map(|i| i as usize)
        else {
            failed += 1;
            continue;
        };
        if i >= due.len() || d.body != requests[i].1 {
            failed += 1;
            continue;
        }
        seen[i] += 1;
        let due_at = start + Duration::from_nanos(due[i]);
        latencies.push((
            (due[i] / WINDOW_NS) as usize,
            d.at.saturating_duration_since(due_at).as_secs_f64() * 1e3,
        ));
    }
    // Exactly once: missing and duplicated responses both fail.
    failed += seen.iter().map(|&n| u64::from(n.abs_diff(1))).sum::<u64>();
    let all = sorted(latencies.iter().map(|l| l.1).collect());

    // Crash stand-in: drop with the last schedule-second un-checkpointed,
    // about one second's share of the schedule's commits.
    let recovered_commits = activity.counter("demaq_store_commits_total") / seconds.max(1.0);
    let mut reopen = Vec::with_capacity(RECOVERY_REPEATS);
    for _ in 0..RECOVERY_REPEATS {
        drop(engine);
        let t = Instant::now();
        engine = w.open(&dir).expect("gateway_openloop: reopen failed");
        reopen.push(t.elapsed().as_secs_f64());
    }
    let survivors = engine.queue_bodies("outbound").expect("read outbound");
    let must_survive = due
        .iter()
        .zip(&requests)
        .filter(|(&d, _)| start + Duration::from_nanos(d) > side.last_gc)
        .filter(|(_, (_, response))| !survivors.contains(response))
        .count() as u64;
    if must_survive > 0 {
        eprintln!("gateway_openloop: {must_survive} acknowledged responses missing after reopen");
    }
    failed +=
        must_survive + engine.drain().expect("drain after reopen") + w.sink.take().len() as u64;
    w.forget_expectations();
    engine.maintenance().expect("maintenance");

    let mut twin =
        Twin::of(w, twin).expect("gateway_openloop syncs every commit, so it has a twin");
    twin.cycle(&mut attempted, &mut failed);
    let cycles: Vec<_> = (0..CPU_CYCLES)
        .map(|_| twin.cycle(&mut attempted, &mut failed))
        .collect();

    OpenRun {
        setup_s,
        recovery_s: median(&reopen),
        recovered_commits,
        resident_kb: engine.resident_payload_bytes() as f64 / 1024.0,
        attempted,
        failed,
        sent: due.len() as u64,
        processed: side.processed,
        latency_p50_ms: percentile_or_zero(&all, 0.5),
        latency_samples: all.len(),
        latency_p99_ms: median_of_window_percentiles(&latencies, 0.99, MIN_BEYOND_P99)
            .unwrap_or_else(|| percentile_or_zero(&all, 0.99)),
        lateness_p99_ms: percentile_or_zero(&sorted(lateness_ms), 0.99),
        backlog_end,
        wall_s: (side.finished - start).as_secs_f64(),
        engine_cpu_ns,
        cpu_us_per_msg: cycles.iter().map(|s| s.cpu_us_per_msg()).collect(),
        yardstick_ns: cycles.iter().map(|s| s.yardstick_ns).collect(),
        peak_rss_kb,
        wal_bytes: side.wal_bytes,
        fsyncs: activity.counter("demaq_store_wal_syncs_total") as u64,
        maintenance: side.maintenance,
    }
}
