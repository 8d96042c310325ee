//! E6 — Rule compiler: one evaluation of each shared path per message,
//! and trigger pre-filtering (Sec. 4.4.1).
//!
//! Claim: "the rule bodies are combined into a single query … The query is
//! then compiled into an execution plan that is executed every time a
//! message arrives in that queue. A variety of existing techniques can be
//! leveraged …, including XML filtering."
//!
//! The compiler keeps a queue's rules apart — each keeps its trigger
//! pre-filter, error queue and profile — but lowers them against one table
//! of the message-only subexpressions they share, and the engine evaluates
//! every rule of a message with one evaluator that computes each table
//! entry at most once. Workloads, R rules on one queue:
//! * `distinct_triggers` — each rule triggered by a distinct element, so
//!   each message matches exactly one rule; the pre-filter (the
//!   XML-filtering stand-in) skips the other R − 1.
//! * `common_path` — every rule compares one common path with its own
//!   number, and the one rule that matches copies the path's value out.
//!   Shape assertion: exactly one shared evaluation per message and R
//!   reuses (R − 1 other conditions plus the matching rule's copy), for
//!   every R.
//!
//! `DEMAQ_E6_SMOKE=1` shrinks the feed and the rule counts and leaves a
//! metric snapshot in `target/metrics/e6_rule_compiler.prom`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use demaq::Server;
use demaq_bench::{feed_pipeline, pipeline_server};
use demaq_store::store::SyncPolicy;

fn smoke() -> bool {
    std::env::var("DEMAQ_E6_SMOKE").is_ok()
}

/// `rules` rules on the inbox, all reading `/m/common/@n`; rule `r` fires
/// on a message whose `n` is `r`.
fn common_path_server(rules: usize) -> Server {
    let mut program = String::from(
        "create queue inbox kind basic mode persistent\n\
         create queue outbox kind basic mode persistent\n",
    );
    for r in 0..rules {
        program.push_str(&format!(
            "create rule c{r} for inbox if (/m/common/@n = {r}) then \
             do enqueue <out n=\"{{/m/common/@n}}\"/> into outbox\n"
        ));
    }
    Server::builder()
        .program(&program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .expect("valid program")
}

/// Feed the common-path server: message `i` matches rule `i % rules`.
fn feed_common_path(server: &Server, messages: usize, rules: usize) {
    for i in 0..messages {
        let n = i % rules;
        server
            .enqueue_external("inbox", &format!("<m><common n='{n}'/><pad/></m>"))
            .expect("enqueue");
    }
}

fn counter(server: &Server, name: &str) -> u64 {
    server.metrics().registry.counter_total(name)
}

fn bench_e6(c: &mut Criterion) {
    let messages = if smoke() { 64 } else { 256 };
    let rule_counts: &[usize] = if smoke() { &[1, 4] } else { &[1, 4, 16, 32] };
    let mut group = c.benchmark_group("e6_rule_compiler");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.throughput(Throughput::Elements(messages as u64));
    for &rules in rule_counts {
        group.bench_with_input(
            BenchmarkId::new("distinct_triggers", rules),
            &rules,
            |b, &rules| {
                b.iter(|| {
                    let server = pipeline_server(rules, SyncPolicy::Batch, true);
                    feed_pipeline(&server, messages, rules);
                    server.run_until_idle().expect("run");
                    let stats = server.stats();
                    assert_eq!(
                        server.queue_bodies("outbox").expect("read").len(),
                        messages,
                        "exactly one rule fires per message"
                    );
                    assert_eq!(
                        stats.rules_skipped_by_filter,
                        (messages * (rules - 1)) as u64,
                        "the pre-filter skips every rule but the matching one"
                    );
                    stats.rules_evaluated
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("common_path", rules),
            &rules,
            |b, &rules| {
                b.iter(|| {
                    let server = common_path_server(rules);
                    feed_common_path(&server, messages, rules);
                    server.run_until_idle().expect("run");
                    assert_eq!(
                        server.queue_bodies("outbox").expect("read").len(),
                        messages,
                        "exactly one rule fires per message"
                    );
                    let evals = counter(&server, "demaq_xquery_shared_evals_total");
                    let reuses = counter(&server, "demaq_xquery_shared_reuses_total");
                    assert_eq!(
                        (evals, reuses),
                        (messages as u64, (messages * rules) as u64),
                        "one shared evaluation per message, R reuses, for R = {rules}"
                    );
                    if rules == *rule_counts.last().expect("rule counts") {
                        demaq_bench::dump_metrics(&server, "e6_rule_compiler");
                    }
                    evals
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_e6);
criterion_main!(benches);
