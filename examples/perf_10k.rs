//! Throughput smoke check: 10k messages through a 4-rule pipeline,
//! `run_until_idle`, wall-clock msg/s — first with the default
//! observability configuration, then with event tracing disabled. Used
//! to bound the observability overhead (DESIGN.md §6) — run with
//! `--release`.
//!
//! Also guards the analysis pass (DESIGN.md §5.10): whole-application
//! analysis of the pipeline must stay well under 10 ms so it can run
//! unconditionally at every deploy, and queue-granularity locking must
//! drain a cross-enqueue app on 4 threads without a single lock-timeout
//! requeue: every transaction takes its locks up front in one key order,
//! so none can deadlock.

use demaq::Server;
use demaq_analysis::LintConfig;
use demaq_store::store::SyncPolicy;
use demaq_store::LockGranularity;
use std::time::Instant;

const MESSAGES: usize = 10_000;
const RULES: usize = 4;

fn pipeline_program() -> String {
    let mut program = String::from(
        "create queue inbox kind basic mode persistent\n\
         create queue outbox kind basic mode persistent\n",
    );
    for r in 0..RULES {
        program.push_str(&format!(
            "create rule r{r} for inbox if (//kind{r}) then \
             do enqueue <out>{{//kind{r}/@n}}</out> into outbox\n"
        ));
    }
    program
}

fn build_server() -> Result<Server, Box<dyn std::error::Error>> {
    Ok(Server::builder()
        .program(&pipeline_program())
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()?)
}

fn run(server: &Server) -> Result<f64, Box<dyn std::error::Error>> {
    let started = Instant::now();
    for i in 0..MESSAGES {
        let k = i % RULES;
        server.enqueue_external("inbox", &format!("<m><kind{k} n='{i}'/></m>"))?;
    }
    server.run_until_idle()?;
    let secs = started.elapsed().as_secs_f64();
    Ok(server.stats().processed as f64 / secs)
}

/// Best-of-N on fresh servers: the max filters out scheduler noise on
/// busy machines, which dwarfs the effect being measured.
fn best_rate(trace: bool) -> Result<f64, Box<dyn std::error::Error>> {
    let mut best = 0f64;
    for _ in 0..5 {
        let server = build_server()?;
        server.metrics().tracer.set_enabled(trace);
        best = best.max(run(&server)?);
    }
    Ok(best)
}

/// Time the whole-application analysis pass on its own (parse excluded):
/// it runs inside every `build()`, so it must be deploy-budget cheap.
fn analysis_budget() -> Result<(), Box<dyn std::error::Error>> {
    let spec = demaq_qdl::parse_program(&pipeline_program())?;
    let config = LintConfig::new();
    // Warm up, then take the best of 10: the guard bounds the cost of the
    // pass itself, not scheduler noise.
    demaq_analysis::analyze_spec(&spec, &config);
    let mut best = f64::INFINITY;
    for _ in 0..10 {
        let started = Instant::now();
        let a = demaq_analysis::analyze_spec(&spec, &config);
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
        assert!(a.diagnostics.is_empty(), "pipeline must analyze clean");
    }
    println!("analysis pass       : best {best:.3} ms over 10 runs");
    if !cfg!(debug_assertions) {
        assert!(best < 10.0, "analysis must stay under 10 ms, got {best:.3}");
    }
    Ok(())
}

/// Drain a cross-enqueue app on 4 threads under queue locks. Each worker
/// needs both `a` and `b` and takes them in key order, so no wait-for
/// cycle forms and the lock-timeout requeue never fires.
fn cross_enqueue_drain() -> Result<(), Box<dyn std::error::Error>> {
    let s = Server::builder()
        .program(
            "create queue a kind basic mode persistent\n\
             create queue b kind basic mode persistent\n\
             create queue done kind basic mode persistent\n\
             create rule ab for a if (//ping) then do enqueue <t/> into done\n\
             create rule ab2 for a if (//hop) then do enqueue <ping/> into b\n\
             create rule ba for b if (//ping) then do enqueue <t/> into done\n\
             create rule ba2 for b if (//hop) then do enqueue <ping/> into a\n",
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .lock_granularity(LockGranularity::Queue)
        .build()?;
    for i in 0..2000 {
        s.enqueue_external(if i % 2 == 0 { "a" } else { "b" }, "<hop/>")?;
    }
    let started = Instant::now();
    s.process_all_parallel(4)?;
    s.process_all_parallel(4)?;
    let secs = started.elapsed().as_secs_f64();
    let requeues = s
        .metrics()
        .registry
        .counter_total("demaq_engine_requeues_total");
    println!(
        "4-thread cross drain: {:.0} msg/s, {requeues} requeues",
        s.stats().processed as f64 / secs
    );
    assert_eq!(requeues, 0, "ordered acquisition never deadlocks");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "tracing on (default): best {:.0} msg/s over 5 runs of {MESSAGES}",
        best_rate(true)?
    );
    println!(
        "tracing off         : best {:.0} msg/s over 5 runs of {MESSAGES}",
        best_rate(false)?
    );
    analysis_budget()?;
    cross_enqueue_drain()?;
    Ok(())
}
