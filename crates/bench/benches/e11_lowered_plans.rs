//! E11 — Lowered execution plans (ISSUE 4).
//!
//! Rule bodies used to be re-interpreted from the name-based AST on every
//! message: every QName test compared strings, every variable reference
//! scanned the binding stack by name, and every trigger condition
//! materialized (and document-order-deduplicated) the full step result
//! just to take its effective boolean value. The lowering pass
//! (`demaq_xquery::plan`) resolves all of that at deploy time: name tests
//! become interned-symbol integer comparisons, variables become frame-slot
//! indices, constants fold, and boolean-position paths become streaming
//! existence tests that stop at the first matching node.
//!
//! Measured: `rule_eval` — single-thread rule-body evaluation throughput,
//! lowered plan vs the reference AST interpreter (the dev-only
//! `demaq-xquery-reference` crate: no shipped crate links it, it is the
//! test oracle), on (a)
//! the paper's Fig. 5 newOfferRequest rule against its offerRequest
//! message and (b) the 4-rule pipeline workload. No store, no scheduler:
//! pure evaluation.
//!
//! Gate: the lowered evaluator must clear the speedup floor (1.5x full,
//! 1.0x smoke — smoke runs are too short to assert more than "not
//! slower"). One engine run of the pipeline leaves its metric snapshot in
//! `target/metrics/`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use demaq::Server;
use demaq_bench::{feed_pipeline, pipeline_server};
use demaq_store::store::SyncPolicy;
use demaq_xml::NodeRef;
use demaq_xquery::{DynamicContext, NoHost, Plan, PlanEvaluator};
use demaq_xquery_reference::Evaluator;
use std::sync::Arc;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("DEMAQ_E11_SMOKE").is_ok()
}

/// Fig. 5 (Example 3.1): the newOfferRequest rule and a matching message.
const FIG5_PROGRAM: &str = r#"
    create queue crm kind basic mode persistent
    create queue finance kind basic mode persistent
    create queue legal kind basic mode persistent
    create queue supplier kind basic mode persistent
    create rule newOfferRequest for crm
      if (//offerRequest) then
        let $customerInfo :=
          <requestCustomerInfo>{//requestID} {//customerID}</requestCustomerInfo>
        let $exportRestrictionInfo :=
          <requestRestrictionInfo>{//requestID} {//items}</requestRestrictionInfo>
        let $plantCapacityInfo :=
          <plantCapacityInfo>{//requestID} {//items}</plantCapacityInfo>
        return (do enqueue $customerInfo into finance,
                do enqueue $exportRestrictionInfo into legal,
                do enqueue $plantCapacityInfo into supplier)
"#;

const FIG5_MESSAGE: &str = "<offerRequest><requestID>r1</requestID><customerID>c23</customerID>\
     <items><item>solvent</item><item>acid</item><item>base</item></items></offerRequest>";

/// A deployed rule set pulled out of the compiled app: (body, plan) pairs
/// and the queue's shared-subexpression table.
struct Deployed {
    rules: Vec<(demaq_xquery::Expr, Arc<Plan>)>,
    shared: Arc<[Plan]>,
}

fn deployed_rules(server: &Server, queue: &str) -> Deployed {
    let cq = &server.app().queues[queue];
    Deployed {
        rules: cq
            .rules
            .iter()
            .map(|r| (r.body.clone(), Arc::clone(&r.plan)))
            .collect(),
        shared: Arc::clone(&cq.shared),
    }
}

/// Evaluate every rule body with the reference interpreter.
fn eval_reference(deployed: &Deployed, root: &NodeRef) -> usize {
    let dctx = DynamicContext::new(Arc::new(NoHost));
    let mut updates = 0;
    for (body, _) in &deployed.rules {
        let mut ev = Evaluator::new(&dctx);
        ev.eval_with_context(body, root.clone()).expect("eval");
        updates += ev.updates.len();
    }
    updates
}

/// Evaluate every lowered rule plan with one evaluator, as the engine
/// does for the rules of one message.
fn eval_lowered(deployed: &Deployed, root: &NodeRef) -> usize {
    let dctx = DynamicContext::new(Arc::new(NoHost));
    let mut ev = PlanEvaluator::with_shared(&dctx, &deployed.shared);
    for (_, plan) in &deployed.rules {
        ev.eval_with_context(plan, root.clone()).expect("eval");
    }
    ev.updates.len()
}

/// Median wall time of `samples` timed runs of `f`.
fn median_ns(samples: usize, mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos().max(1)
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
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

fn bench_e11(c: &mut Criterion) {
    let fig5_server = Server::builder()
        .program(FIG5_PROGRAM)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .expect("valid program");
    let fig5_rules = deployed_rules(&fig5_server, "crm");
    let fig5_doc = demaq_xml::parse(FIG5_MESSAGE).expect("parse");
    let fig5_root = fig5_doc.root();

    const PIPE_RULES: usize = 4;
    let pipe_server = pipeline_server(PIPE_RULES, SyncPolicy::Batch, false);
    let pipe_rules = deployed_rules(&pipe_server, "inbox");
    // A message of realistic size (the paper's listings carry request IDs,
    // customer data, and item lists — not two elements): the matching
    // element sits behind a small header, with a payload tail the
    // existence test never needs to visit.
    let header: String = (0..4).map(|i| format!("<h{i}>x</h{i}>")).collect();
    let tail: String = (0..24)
        .map(|i| format!("<item n='{i}'><desc>part {i}</desc></item>"))
        .collect();
    let pipe_doc =
        demaq_xml::parse(&format!("<m>{header}<kind2 n='7'/>{tail}</m>")).expect("parse");
    let pipe_root = pipe_doc.root();

    // ---- criterion groups ------------------------------------------------
    let mut group = c.benchmark_group("e11_rule_eval");
    group.throughput(Throughput::Elements(1));
    group.bench_function("fig5_reference", |b| {
        b.iter(|| eval_reference(&fig5_rules, &fig5_root))
    });
    group.bench_function("fig5_lowered", |b| {
        b.iter(|| eval_lowered(&fig5_rules, &fig5_root))
    });
    group.bench_function("pipeline4_reference", |b| {
        b.iter(|| eval_reference(&pipe_rules, &pipe_root))
    });
    group.bench_function("pipeline4_lowered", |b| {
        b.iter(|| eval_lowered(&pipe_rules, &pipe_root))
    });
    group.finish();

    // ---- speedup gate on pure rule-eval throughput -----------------------
    let (iters, samples) = if smoke() { (1_500, 5) } else { (12_000, 7) };
    // Interleave a matching and a non-matching message so both the
    // short-circuit (hit) and the full-scan (miss) shapes count.
    let miss_doc =
        demaq_xml::parse(&format!("<m>{header}<other n='0'/>{tail}</m>")).expect("parse");
    let miss_root = miss_doc.root();
    let ref_ns = median_ns(samples, || {
        for _ in 0..iters {
            eval_reference(&pipe_rules, &pipe_root);
            eval_reference(&pipe_rules, &miss_root);
        }
    });
    let low_ns = median_ns(samples, || {
        for _ in 0..iters {
            eval_lowered(&pipe_rules, &pipe_root);
            eval_lowered(&pipe_rules, &miss_root);
        }
    });
    let speedup = ref_ns as f64 / low_ns as f64;
    let floor = if smoke() { 1.0 } else { 1.5 };
    println!(
        "e11: rule-eval pipeline4 reference={ref_ns}ns lowered={low_ns}ns speedup={speedup:.2}x (floor {floor}x)"
    );
    assert!(
        speedup >= floor,
        "lowered plans must be at least {floor}x the AST interpreter on the \
         pipeline rule-eval workload, measured {speedup:.2}x"
    );

    // ---- e2e representative run with metric snapshot ---------------------
    let messages = if smoke() { 128 } else { 2048 };
    let server = pipeline_server(PIPE_RULES, SyncPolicy::Batch, false);
    feed_pipeline(&server, messages, PIPE_RULES);
    server.run_until_idle().expect("idle");
    let stats = server.stats();
    // Each inbox message is processed and produces one outbox message
    // (also processed), so the count is 2x the feed.
    assert!(stats.processed >= messages as u64, "{stats:?}");
    assert!(stats.plans_lowered > 0, "no plans lowered: {stats:?}");
    assert!(
        stats.ebv_short_circuits > 0,
        "existence tests never short-circuited: {stats:?}"
    );
    assert!(stats.interned_symbols > 0, "empty symbol table: {stats:?}");
    let text = server.metrics_text();
    for m in [
        "demaq_xquery_plans_lowered_total",
        "demaq_xquery_ebv_short_circuits_total",
        "demaq_xquery_interned_symbols",
    ] {
        assert!(metric_value(&text, m) > 0, "metric {m} missing:\n{text}");
    }
    demaq_bench::dump_metrics(&server, "e11_lowered_plans");

    // Trajectory entry: the lowered-vs-reference speedup, machine-readable.
    let mut report = demaq_bench::report::BenchReport::new("e11_lowered_plans", smoke());
    report
        .result("rule_eval_speedup", speedup, "x")
        .result("rule_eval_reference", ref_ns as f64, "ns")
        .result("rule_eval_lowered", low_ns as f64, "ns")
        .metric_from(&text, "demaq_xquery_plans_lowered_total")
        .metric_from(&text, "demaq_xquery_ebv_short_circuits_total")
        .metric_from(&text, "demaq_xquery_interned_symbols");
    report.write();
}

criterion_group!(benches, bench_e11);
criterion_main!(benches);
