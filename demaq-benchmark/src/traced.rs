//! The traced run: the same workload driven one fed message at a time,
//! with a span around every call into the engine, and the public metric
//! registry read before and after.

use crate::engine::Engine;
use crate::host;
use crate::registry::Snapshot;
use crate::trace::Recorder;
use crate::workloads::{verify, Workload};
use demaq_store::PropValue;
use std::time::{Duration, Instant};

pub struct TracedRun {
    pub recorder: Recorder,
    /// Registry activity over the traced messages.
    pub activity: Snapshot,
    pub fed: u64,
    pub processed: u64,
    /// Process CPU of ingest plus drive, maintenance excluded.
    pub cpu_ns: u64,
    /// WAL bytes logged while tracing.
    pub wal_bytes: u64,
    /// Existence tests the evaluator cut short (a process-wide count).
    pub ebv_short_circuits: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Messages each store held before the last maintenance.
    pub store_messages: Vec<usize>,
    pub slices: SliceProbe,
    /// Bytes the document caches held before the last maintenance.
    pub doc_cache_bytes: i64,
    pub engine: Engine,
}

/// Reading every live slice of every slicing through `Server::store()`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SliceProbe {
    pub keys: usize,
    pub retained_msgs: usize,
    pub read_ns_per_key: f64,
}

fn probe_slices(engine: &Engine) -> SliceProbe {
    let mut probe = SliceProbe::default();
    let mut spent = Duration::ZERO;
    for server in engine.servers() {
        for slicing in &server.app().spec.slicings {
            let keys: Vec<PropValue> = server.store().slice_keys(&slicing.name);
            let t = Instant::now();
            for key in &keys {
                probe.retained_msgs += server
                    .store()
                    .slice_members_versioned(&slicing.name, key)
                    .0
                    .len();
            }
            spent += t.elapsed();
            probe.keys += keys.len();
        }
    }
    probe.read_ns_per_key = crate::registry::ratio(spent.as_nanos() as f64, probe.keys as f64);
    probe
}

pub fn run(w: &mut dyn Workload, seconds: f64) -> TracedRun {
    let dir = host::fresh_dir(&format!("{}-traced", w.name()));
    let engine = w
        .open(&dir)
        .unwrap_or_else(|e| panic!("{}: build failed: {e}", w.name()));
    let mut rec = Recorder::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Warm-up at the traced pace, un-spanned in effect: its spans are
    // dropped with this recorder.
    let mut warm = Recorder::new();
    let chunk = (w.segment_msgs() / 4).max(1);
    for input in &w.next_inputs(chunk, 1) {
        attempted += 1;
        if let Err(e) = w.feed(&engine, input) {
            failed += 1;
            eprintln!("{}: enqueue failed: {e}", w.name());
        }
        w.drive(&engine, &mut warm, 0).expect("drive");
    }
    failed += verify(w, &engine);
    engine.maintenance().expect("maintenance");

    let before = Snapshot::take(&engine.obs());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut fed, mut processed, mut cpu_ns) = (0u64, 0u64, 0u64);
    let (mut store_messages, mut slices, mut wal_bytes) = (Vec::new(), SliceProbe::default(), 0u64);
    let mut doc_cache_bytes = 0;
    let ebv0 = demaq_xquery::plan::ebv_short_circuits_total();
    while Instant::now() < deadline {
        let inputs = w.next_inputs(chunk, 1);
        let cpu0 = host::process_cpu_ns();
        for input in &inputs {
            let req = fed;
            fed += 1;
            if let Err(e) = rec.span("ingest", req, |_| w.feed(&engine, input)) {
                failed += 1;
                eprintln!("{}: enqueue failed: {e}", w.name());
            }
            processed += w.drive(&engine, &mut rec, req).expect("drive");
        }
        cpu_ns += host::process_cpu_ns() - cpu0;
        failed += verify(w, &engine);
        store_messages = engine.stores().iter().map(|s| s.message_count()).collect();
        slices = probe_slices(&engine);
        wal_bytes += engine.wal_bytes();
        doc_cache_bytes = engine
            .obs()
            .registry
            .gauge("demaq_core_doc_cache_bytes")
            .get();
        rec.span("maintenance", fed, |rec| {
            rec.span("gc", fed, |_| engine.gc()).expect("gc");
            rec.span("checkpoint", fed, |_| engine.checkpoint())
                .expect("checkpoint");
        });
    }
    attempted += fed;
    let activity = Snapshot::take(&engine.obs()).since(&before);
    TracedRun {
        recorder: rec,
        activity,
        fed,
        processed,
        cpu_ns,
        wal_bytes,
        ebv_short_circuits: demaq_xquery::plan::ebv_short_circuits_total() - ebv0,
        attempted,
        failed,
        store_messages,
        slices,
        doc_cache_bytes,
        engine,
    }
}
