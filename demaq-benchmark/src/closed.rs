//! The closed-loop driver: feed a segment, drain it, check it, run
//! maintenance — repeated until the measuring time is used up — then
//! reopen the store to price recovery.

use crate::engine::Engine;
use crate::host::{self, CpuTimes};
use crate::stats::median;
use crate::workloads::{verify, Workload};
use demaq_store::{MsgId, SyncPolicy};
use std::time::{Duration, Instant};

/// Engines built on fresh directories to price set-up, before the run's
/// own store exists: beside a store that is writing, file creation waits
/// for the file system's journal and the figure is the disk's.
const SETUP_REPEATS: usize = 41;
/// Reopens of the crashed store per run; the median is reported.
pub const RECOVERY_REPEATS: usize = 3;
/// Complete cycles every run makes however slow the host; peak memory is
/// read after exactly this many, so it does not depend on how many more a
/// fast host fits into the measuring time.
const MIN_CYCLES: usize = 3;

/// One feed → drain → maintenance cycle.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    pub fed: u64,
    pub processed: u64,
    /// Wall time of feed plus drain.
    pub busy: Duration,
    /// Process CPU (user plus system) over feed plus drain.
    pub cpu_ns: u64,
    /// Its user/system split, at tick resolution.
    pub cpu_split: CpuTimes,
    /// The host's yardstick around this segment (mean of before, after).
    pub yardstick_ns: f64,
    pub wal_bytes: u64,
    /// WAL fsyncs over the whole cycle, maintenance included.
    pub fsyncs: u64,
    pub maintenance: Duration,
    pub scheduler_depth: i64,
}

impl Segment {
    /// CPU microseconds per processed message as a quiet host would have
    /// spent them.
    pub fn cpu_us_per_msg(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.processed as f64 * host::YARDSTICK_NOMINAL_NS
            / self.yardstick_ns
    }
}

pub struct ClosedRun {
    /// Complete cycles, warm-up excluded.
    pub segments: Vec<Segment>,
    /// Per cycle, [`Segment::cpu_us_per_msg`] with device flushes left
    /// out: of the cycle's own segment when the workload runs under
    /// `SyncPolicy::Batch`, else of the same segment on its `Batch` twin.
    pub cpu_us_per_msg: Vec<f64>,
    pub setup_s: f64,
    pub recovery_s: f64,
    /// Commits in the un-checkpointed segment the recovery replayed.
    pub recovered_commits: f64,
    pub resident_kb: f64,
    /// `VmHWM` after warm-up plus [`MIN_CYCLES`] cycles.
    pub peak_rss_kb: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// Median wall time of building the workload's engine on a fresh
/// directory — QDL parse, analysis, rule compilation and lowering, store
/// open — scaled by the host's yardstick taken around the builds.
pub fn measure_setup(w: &dyn Workload) -> f64 {
    let yardstick_before = host::yardstick_ns_per_op();
    let samples: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let dir = host::fresh_dir(&format!("{}-setup", w.name()));
            let t = Instant::now();
            let engine = w
                .open(&dir)
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", w.name()));
            let s = t.elapsed().as_secs_f64();
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
            s
        })
        .collect();
    let yardstick = (yardstick_before + host::yardstick_ns_per_op()) / 2.0;
    median(&samples) * host::YARDSTICK_NOMINAL_NS / yardstick
}

/// Feed a segment of `n` messages in bursts, draining after each burst;
/// timed as a whole. Returns the segment and the ids the engine
/// acknowledged.
fn feed_and_drain(
    w: &mut dyn Workload,
    engine: &Engine,
    n: usize,
    failed: &mut u64,
) -> (Segment, Vec<MsgId>) {
    let burst = w.burst();
    let inputs = w.next_inputs(n, burst);
    let mut acked = Vec::with_capacity(inputs.len());
    let mut seg = Segment {
        fed: inputs.len() as u64,
        ..Segment::default()
    };
    let depth = engine.obs().registry.gauge("demaq_engine_scheduler_depth");
    let yardstick_before = host::yardstick_ns_per_op();
    let (cpu0, split0) = (host::process_cpu_ns(), host::process_cpu_split());
    let t0 = Instant::now();
    for chunk in inputs.chunks(burst) {
        for input in chunk {
            match w.feed(engine, input) {
                Ok(id) => acked.extend(id),
                Err(e) => {
                    *failed += 1;
                    eprintln!("{}: enqueue failed: {e}", w.name());
                }
            }
        }
        if let Engine::Single(s) = engine {
            // One step first so the depth gauge (set per step) shows the
            // backlog this burst built.
            if s.step().expect("step") {
                seg.processed += 1;
                seg.scheduler_depth = seg.scheduler_depth.max(depth.get() + 1);
            }
        }
        seg.processed += engine
            .drain()
            .unwrap_or_else(|e| panic!("{}: drain failed: {e}", w.name()));
    }
    seg.busy = t0.elapsed();
    seg.cpu_ns = host::process_cpu_ns() - cpu0;
    seg.cpu_split = host::process_cpu_split().since(split0);
    seg.yardstick_ns = (yardstick_before + host::yardstick_ns_per_op()) / 2.0;
    seg.wal_bytes = engine.wal_bytes();
    (seg, acked)
}

/// The workload's `SyncPolicy::Batch` twin: the same program fed the same
/// inputs with device flushes left out, so the CPU it takes is the
/// program's and not the disk's. (In this VM the time a flush spends in
/// the hypervisor is charged to the flushing thread as system CPU.)
pub struct Twin {
    workload: Box<dyn Workload>,
    engine: Engine,
}

impl Twin {
    /// `None` for a workload that already runs under `Batch`.
    pub fn of(w: &dyn Workload, twin: Box<dyn Workload>) -> Option<Twin> {
        if w.sync_policy() == SyncPolicy::Batch {
            return None;
        }
        let dir = host::fresh_dir(&format!("{}-twin", w.name()));
        let engine = twin
            .open_with(&dir, SyncPolicy::Batch)
            .unwrap_or_else(|e| panic!("{}: twin build failed: {e}", w.name()));
        Some(Twin {
            workload: twin,
            engine,
        })
    }

    /// One checked cycle on the twin.
    pub fn cycle(&mut self, attempted: &mut u64, failed: &mut u64) -> Segment {
        let n = self.workload.twin_segment_msgs();
        let (seg, _) = feed_and_drain(self.workload.as_mut(), &self.engine, n, failed);
        *attempted += seg.fed;
        *failed += verify(self.workload.as_mut(), &self.engine);
        self.engine.maintenance().expect("twin maintenance");
        seg
    }
}

/// Run the workload closed-loop for about `seconds` of cycles. `twin` is a
/// second instance of the same workload and seed.
pub fn run(w: &mut dyn Workload, twin: Box<dyn Workload>, seconds: f64) -> ClosedRun {
    let setup_s = measure_setup(w);
    let dir = host::fresh_dir(&format!("{}-store", w.name()));
    let mut engine = w
        .open(&dir)
        .unwrap_or_else(|e| panic!("{}: build failed: {e}", w.name()));
    let mut twin = Twin::of(w, twin);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let counter = |e: &Engine, name: &str| e.obs().registry.counter_total(name);

    // Warm-up cycle: fills caches, grows the heap file, discarded.
    let n = w.segment_msgs();
    let (warm, _) = feed_and_drain(w, &engine, n, &mut failed);
    attempted += warm.fed;
    failed += verify(w, &engine);
    engine.maintenance().expect("maintenance");
    if let Some(twin) = &mut twin {
        twin.cycle(&mut attempted, &mut failed);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut segments: Vec<Segment> = Vec::new();
    let mut cpu_us_per_msg = Vec::new();
    let mut peak_rss_kb = 0;
    let (last_acked, recovered_commits) = loop {
        let syncs0 = counter(&engine, "demaq_store_wal_syncs_total");
        let commits0 = counter(&engine, "demaq_store_commits_total");
        let (mut seg, acked) = feed_and_drain(w, &engine, n, &mut failed);
        attempted += seg.fed;
        if Instant::now() >= deadline && segments.len() >= MIN_CYCLES {
            // The last segment stays un-checkpointed: recovery replays it.
            break (
                acked,
                counter(&engine, "demaq_store_commits_total") - commits0,
            );
        }
        failed += verify(w, &engine);
        let t = Instant::now();
        engine.maintenance().expect("maintenance");
        seg.maintenance = t.elapsed();
        seg.fsyncs = counter(&engine, "demaq_store_wal_syncs_total") - syncs0;
        cpu_us_per_msg.push(match &mut twin {
            Some(twin) => twin.cycle(&mut attempted, &mut failed).cpu_us_per_msg(),
            None => seg.cpu_us_per_msg(),
        });
        segments.push(seg);
        if segments.len() == MIN_CYCLES {
            peak_rss_kb = host::peak_rss_kb();
        }
    };

    // Crash stand-in: drop without maintenance, reopen from the files.
    let mut reopen = Vec::with_capacity(RECOVERY_REPEATS);
    for _ in 0..RECOVERY_REPEATS {
        drop(engine);
        let t = Instant::now();
        engine = w
            .open(&dir)
            .unwrap_or_else(|e| panic!("{}: reopen failed: {e}", w.name()));
        reopen.push(t.elapsed().as_secs_f64());
    }
    let lost = last_acked.iter().filter(|&&id| !engine.holds(id)).count() as u64;
    if lost > 0 {
        eprintln!("{}: {lost} acked messages missing after reopen", w.name());
    }
    failed += lost + verify(w, &engine);
    let leftover = engine.drain().expect("drain after reopen");
    if leftover > 0 {
        eprintln!(
            "{}: {leftover} messages were processed again after reopen",
            w.name()
        );
        failed += leftover;
    }
    engine.maintenance().expect("maintenance");

    ClosedRun {
        segments,
        cpu_us_per_msg,
        setup_s,
        recovery_s: median(&reopen),
        recovered_commits: recovered_commits as f64,
        resident_kb: engine.resident_payload_bytes() as f64 / 1024.0,
        peak_rss_kb,
        attempted,
        failed,
    }
}
