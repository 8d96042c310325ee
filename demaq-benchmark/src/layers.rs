//! Probes of single layers through their public functions, outside any
//! server: what a layer costs on this workload's inputs when nothing else
//! runs. Each is short and sized by a constant, not by the clock.

use crate::host;
use crate::registry::ratio;
use crate::stats::median;
use crate::workloads::{durable_sharded, Workload};
use demaq::analysis::{analyze_spec, LintConfig};
use demaq::scheduler::Scheduler;
use demaq::Server;
use demaq_net::{Clock, Envelope, Network};
use demaq_qdl::parse_program;
use demaq_store::{MessageStore, MsgId, PropValue, QueueMode, StoreOptions, SyncPolicy};
use demaq_xquery::{lower, parse_expr, DynamicContext, PlanEvaluator};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median over `rounds` timings of `f`, in microseconds.
fn median_us(rounds: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// `(parse, serialize)` nanoseconds per KB over the workload's payloads.
pub fn xml_ns_per_kb(corpus: &[String]) -> (f64, f64) {
    let kb = corpus.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let docs: Vec<_> = corpus
        .iter()
        .map(|x| demaq_xml::parse(x).expect("corpus parses"))
        .collect();
    let parse = median_us(9, || {
        for x in corpus {
            black_box(demaq_xml::parse(black_box(x)).expect("corpus parses"));
        }
    });
    let serialize = median_us(9, || {
        for d in &docs {
            black_box(demaq_xml::serialize(black_box(d)));
        }
    });
    (parse * 1e3 / kb, serialize * 1e3 / kb)
}

/// `(qdl.parse_us, analysis.analyze_us, xquery.compile_us)` for a program:
/// parsing it, analysing it, and parsing plus lowering every rule body.
pub fn compile_us(program: &str) -> (f64, f64, f64) {
    let spec = parse_program(program).expect("program parses");
    let qdl = median_us(15, || {
        black_box(parse_program(black_box(program)).expect("program parses"));
    });
    let analysis = median_us(15, || {
        black_box(analyze_spec(black_box(&spec), &LintConfig::new()));
    });
    let xquery = median_us(15, || {
        for rule in &spec.rules {
            let expr = parse_expr(black_box(&rule.body_src)).expect("rule body parses");
            black_box(lower(&expr));
        }
    });
    (qdl, analysis, xquery)
}

/// Mean nanoseconds to evaluate one lowered rule condition against one
/// corpus document, with no engine around it.
pub fn probe_eval_ns(conditions: &[&str], corpus: &[String]) -> f64 {
    let plans: Vec<_> = conditions
        .iter()
        .map(|c| lower(&parse_expr(c).expect("condition parses")))
        .collect();
    let docs: Vec<_> = corpus
        .iter()
        .map(|x| demaq_xml::parse(x).expect("corpus parses"))
        .collect();
    let dctx = DynamicContext::default();
    let evals = (plans.len() * docs.len()) as f64;
    let us = median_us(9, || {
        let mut evaluator = PlanEvaluator::new(&dctx);
        for doc in &docs {
            for plan in &plans {
                black_box(
                    evaluator
                        .eval_with_context(plan, doc.root())
                        .expect("condition evaluates"),
                );
            }
        }
    });
    us * 1e3 / evals
}

/// Nanoseconds per push+pop pair with `depth` messages already queued.
pub fn scheduler_pushpop_ns(depth: u64) -> f64 {
    const PAIRS: u64 = 20_000;
    let scheduler = Scheduler::new();
    for i in 0..depth {
        scheduler.push(MsgId(i), "q", 0);
    }
    let us = median_us(5, || {
        for i in 0..PAIRS {
            scheduler.push(MsgId(depth + i), "q", 0);
            black_box(scheduler.pop());
        }
    });
    us * 1e3 / PAIRS as f64
}

/// Nanoseconds per `Network::send` + `Network::pump` of one envelope to a
/// handler that does nothing.
pub fn net_send_pump_ns(body: &str) -> f64 {
    const SENDS: usize = 5_000;
    let net = Network::new(Clock::virtual_at(0), 1);
    net.set_latency_ms(0);
    net.register("urn:probe", Arc::new(|env: Envelope| drop(black_box(env))));
    let us = median_us(5, || {
        for _ in 0..SENDS {
            net.send(Envelope::new("urn:probe", "urn:gen", body))
                .expect("probe send");
            black_box(net.pump());
        }
    });
    us * 1e3 / SENDS as f64
}

/// Microseconds per store transaction of the engine's shape — enqueue a
/// payload, add it to a slice, mark its predecessor processed, commit —
/// straight on a `MessageStore` with no fsync, so the figure is the
/// commit path's own work.
pub fn store_txn_us(corpus: &[String]) -> f64 {
    const TXNS: usize = 3_000;
    let dir = host::fresh_dir("probe-store");
    let mut opts = StoreOptions::new(&dir);
    opts.sync = SyncPolicy::Batch;
    let store = MessageStore::open(opts).expect("open probe store");
    store
        .create_queue("q", QueueMode::Persistent, 0)
        .expect("create queue");
    let mut previous: Option<MsgId> = None;
    let t = Instant::now();
    for i in 0..TXNS {
        let txn = store.begin();
        let id = store
            .enqueue(
                txn,
                "q",
                corpus[i % corpus.len()].as_str().into(),
                Vec::new(),
                0,
            )
            .expect("enqueue");
        store
            .slice_add(txn, "s", PropValue::Int((i % 64) as i64), id)
            .expect("slice_add");
        if let Some(p) = previous.replace(id) {
            store.mark_processed(txn, p).expect("mark_processed");
        }
        store.commit(txn).expect("commit");
    }
    let us = t.elapsed().as_nanos() as f64 / 1e3 / TXNS as f64;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    us
}

/// Group commit where it can be seen: the `durable_sharded` rules on ONE
/// store, two workers sharing its WAL, fsync on every commit. Returns
/// `(fsyncs per commit, messages per second)`. Reported, never gated:
/// both follow the disk's mood.
pub fn shared_wal_pass(jobs: u64) -> (f64, f64) {
    let dir = host::fresh_dir("probe-shared-wal");
    let server = Server::builder()
        .program(durable_sharded::PROGRAM)
        .dir(&dir)
        .sync_policy(SyncPolicy::Always)
        .build()
        .expect("shared-WAL server builds");
    let mut w = durable_sharded::DurableSharded::new(1, 1);
    for input in w.next_inputs(jobs as usize, jobs as usize) {
        server
            .enqueue_external_with_props(input.queue, &input.xml, &input.props)
            .expect("enqueue");
    }
    let registry = &server.metrics().registry;
    let (syncs0, commits0) = (
        registry.counter_total("demaq_store_wal_syncs_total"),
        registry.counter_total("demaq_store_commits_total"),
    );
    let t = Instant::now();
    let processed = server.process_all_parallel(2).expect("parallel drain");
    let secs = t.elapsed().as_secs_f64();
    let syncs = registry.counter_total("demaq_store_wal_syncs_total") - syncs0;
    let commits = registry.counter_total("demaq_store_commits_total") - commits0;
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    (ratio(syncs as f64, commits as f64), processed as f64 / secs)
}

/// Everything above for one workload, keyed by per-layer metric name.
pub fn probe_all(w: &dyn Workload, scale: usize) -> Vec<(&'static str, f64)> {
    let corpus = w.corpus();
    let (parse, serialize) = xml_ns_per_kb(&corpus);
    let (qdl, analysis, xquery) = compile_us(w.program());
    let (disk_syncs, disk_rate) = shared_wal_pass(400 / scale as u64);
    vec![
        ("xml.parse_ns_per_kb", parse),
        ("xml.serialize_ns_per_kb", serialize),
        ("qdl.parse_us", qdl),
        ("analysis.analyze_us", analysis),
        ("xquery.compile_us", xquery),
        (
            "xquery.probe_eval_ns",
            probe_eval_ns(w.probe_conditions(), &corpus),
        ),
        ("core.scheduler.pushpop_ns_d1", scheduler_pushpop_ns(1)),
        (
            "core.scheduler.pushpop_ns_d100k",
            scheduler_pushpop_ns(100_000),
        ),
        ("net.send_pump_ns", net_send_pump_ns(&corpus[0])),
        ("store.txn.replay_us", store_txn_us(&corpus)),
        (
            "host.fsync_us_p50",
            host::fsync_us_p50(&host::work_dir(), 64),
        ),
        ("store.wal.disk_syncs_per_commit", disk_syncs),
        ("store.wal.disk_msgs_per_s", disk_rate),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    #[test]
    fn probes_run_on_every_workload_program_and_corpus() {
        for name in crate::workloads::NAMES {
            let w = by_name(name, 1, 10).unwrap();
            let corpus = w.corpus();
            assert_eq!(corpus.len(), 256);
            assert_eq!(corpus, w.corpus(), "{name}: the corpus is fixed");
            let (parse, serialize) = xml_ns_per_kb(&corpus[..8]);
            assert!(parse > 0.0 && serialize > 0.0);
            let (qdl, analysis, xquery) = compile_us(w.program());
            assert!(qdl > 0.0 && analysis > 0.0 && xquery > 0.0);
            assert!(
                probe_eval_ns(w.probe_conditions(), &corpus[..8]) > 0.0,
                "{name}"
            );
        }
    }
}
