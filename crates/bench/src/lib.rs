//! Shared workload builders for the benchmark suite.
//!
//! Every bench in `benches/` regenerates one experiment of EXPERIMENTS.md;
//! this module provides the common Demaq server configurations so the
//! experiments measure the intended dimension and nothing else.

pub mod report;

use demaq::Server;
use demaq_store::store::SyncPolicy;
use demaq_store::LockGranularity;

/// A Demaq server running the correlate-accumulate workload used by E1/E3:
/// messages carry an instance key; a slicing groups them; a rule touches
/// the slice (forcing slice access like a BPEL variable read would).
pub fn correlate_server(granularity: LockGranularity) -> Server {
    Server::builder()
        .program(
            r#"
            create queue work kind basic mode persistent
            create queue alerts kind basic mode persistent
            create property instance as xs:string fixed queue work value //@instance
            create slicing byInstance on instance
            create rule watch for byInstance
              if (count(qs:slice()) >= 1000000) then
                do enqueue <overflow>{qs:slicekey()}</overflow> into alerts
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .lock_granularity(granularity)
        .build()
        .expect("valid program")
}

/// Feed `messages` round-robin over `instances` into the correlate server.
pub fn feed_correlate(server: &Server, messages: usize, instances: usize) {
    for i in 0..messages {
        let inst = i % instances;
        server
            .enqueue_external(
                "work",
                &format!("<event instance='i{inst}'><n>{i}</n></event>"),
            )
            .expect("enqueue");
    }
}

/// A pipeline server for E6/E7: `rules` independent rules on the inbox,
/// each matching a distinct element so exactly one fires per message.
pub fn pipeline_server(rules: usize, sync: SyncPolicy, persistent: bool) -> Server {
    let mode = if persistent {
        "persistent"
    } else {
        "transient"
    };
    let mut program = format!(
        "create queue inbox kind basic mode {mode}\ncreate queue outbox kind basic mode {mode}\n"
    );
    for r in 0..rules {
        program.push_str(&format!(
            "create rule r{r} for inbox if (//kind{r}) then do enqueue <out>{{//kind{r}/@n}}</out> into outbox\n"
        ));
    }
    Server::builder()
        .program(&program)
        .in_memory()
        .sync_policy(sync)
        .build()
        .expect("valid program")
}

/// Feed the pipeline: message `i` matches rule `i % rules`.
pub fn feed_pipeline(server: &Server, messages: usize, rules: usize) {
    for i in 0..messages {
        let k = i % rules;
        server
            .enqueue_external("inbox", &format!("<m><kind{k} n='{i}'/></m>"))
            .expect("enqueue");
    }
}

/// Dump the server's full Prometheus exposition to
/// `target/metrics/<experiment>.prom`, next to the criterion results
/// (`target/criterion-lite.jsonl`), so a bench run leaves an inspectable
/// snapshot of internal counters/latencies alongside the timing numbers.
pub fn dump_metrics(server: &Server, experiment: &str) {
    dump_text(&server.metrics_text(), experiment);
}

/// Like [`dump_metrics`], for benches that drive the store directly
/// (without a [`Server`]) and hold their own registry.
pub fn dump_registry(registry: &demaq_obs::Registry, experiment: &str) {
    dump_text(&registry.render_text(), experiment);
}

fn dump_text(text: &str, experiment: &str) {
    let dir = std::path::Path::new("target").join("metrics");
    if std::fs::create_dir_all(&dir).is_err() {
        return; // benches must never fail on snapshot IO
    }
    let _ = std::fs::write(dir.join(format!("{experiment}.prom")), text);
}
