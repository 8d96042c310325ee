//! End-to-end observability: after a multi-queue run, the Prometheus
//! exposition from [`Server::metrics_text`] must agree with the store's
//! ground truth, and the tracer must have recorded the message lifecycle.

use demaq::Server;
use demaq_obs::Obs;
use demaq_store::store::SyncPolicy;
use demaq_store::LockGranularity;
use std::collections::BTreeMap;

/// Parse every `name{queue="..."} value` sample of `metric` out of a
/// Prometheus text exposition.
fn labeled_samples(text: &str, metric: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(metric) else {
            continue;
        };
        let Some(rest) = rest.strip_prefix("{queue=\"") else {
            continue;
        };
        let Some((queue, rest)) = rest.split_once("\"}") else {
            continue;
        };
        let value: u64 = rest.trim().parse().expect("integer sample value");
        out.insert(queue.to_string(), value);
    }
    out
}

fn build_server() -> Server {
    Server::builder()
        .program(
            r#"
            create queue orders kind basic mode persistent
            create queue confirmations kind basic mode persistent
            create queue rejections kind basic mode persistent
            create queue audit kind basic mode persistent

            create rule triage for orders
              if (//order) then
                if (//order/quantity <= 1000) then
                  do enqueue <confirmation>{//order/id}</confirmation>
                     into confirmations
                else
                  do enqueue <rejection>{//order/id}</rejection>
                     into rejections

            create rule audit_confirm for confirmations
              do enqueue <audited>{//confirmation}</audited> into audit
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap()
}

#[test]
fn processed_counters_match_store_ground_truth() {
    let server = build_server();
    for (id, qty) in [(1, 100), (2, 5000), (3, 900), (4, 1000), (5, 2000)] {
        server
            .enqueue_external(
                "orders",
                &format!("<order><id>{id}</id><quantity>{qty}</quantity></order>"),
            )
            .unwrap();
    }
    let processed = server.run_until_idle().unwrap();
    assert!(processed > 0);

    let text = server.metrics_text();
    let processed_by_queue = labeled_samples(&text, "demaq_engine_processed_total");
    let enqueued_by_queue = labeled_samples(&text, "demaq_engine_enqueued_total");

    // Ground truth: count processed messages per queue straight from the
    // store. Every queue that holds messages must have matching counters.
    for queue in ["orders", "confirmations", "rejections", "audit"] {
        let msgs = server.queue_messages(queue).unwrap();
        let done = msgs.iter().filter(|m| m.processed).count() as u64;
        assert_eq!(
            processed_by_queue.get(queue).copied().unwrap_or(0),
            done,
            "processed counter for `{queue}` disagrees with the store"
        );
        assert_eq!(
            enqueued_by_queue.get(queue).copied().unwrap_or(0),
            msgs.len() as u64,
            "enqueued counter for `{queue}` disagrees with the store"
        );
    }

    // The per-queue counters sum to the aggregate ServerStats view.
    let stats = server.stats();
    assert_eq!(processed_by_queue.values().sum::<u64>(), stats.processed);
    assert_eq!(processed, stats.processed);
    assert_eq!(enqueued_by_queue.values().sum::<u64>(), stats.enqueued);
}

#[test]
fn exposition_contains_latency_histograms() {
    let server = build_server();
    server
        .enqueue_external("orders", "<order><id>1</id><quantity>10</quantity></order>")
        .unwrap();
    server.run_until_idle().unwrap();

    let text = server.metrics_text();
    // Histogram families render TYPE metadata plus cumulative buckets,
    // a +Inf bucket, and _sum/_count samples.
    for metric in ["demaq_engine_rule_eval_ns", "demaq_engine_txn_commit_ns"] {
        assert!(
            text.contains(&format!("# TYPE {metric} histogram")),
            "missing TYPE line for {metric}"
        );
        assert!(text.contains(&format!("{metric}_bucket{{le=\"+Inf\"}}")));
        assert!(text.contains(&format!("{metric}_sum")));
        assert!(text.contains(&format!("{metric}_count")));
    }
    // Store-side instrumentation reports through the same registry.
    assert!(text.contains("# TYPE demaq_store_wal_flush_ns histogram"));
    assert!(text.contains("demaq_store_commits_total"));

    // The engine recorded at least one rule evaluation in the histogram.
    let count = |metric: &str| -> u64 {
        let count_line = text
            .lines()
            .find(|l| l.starts_with(&format!("{metric}_count")))
            .unwrap_or_else(|| panic!("{metric} count sample"));
        count_line
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .expect("count value")
    };
    let evals = count("demaq_engine_rule_eval_ns");
    assert!(evals >= 1, "rule evaluation histogram is empty");
    // The span's three stages are timed once per span each.
    for stage in [
        "demaq_engine_lock_ns",
        "demaq_engine_evaluate_ns",
        "demaq_engine_execute_ns",
    ] {
        assert_eq!(count(stage), evals, "{stage}");
    }
}

#[test]
fn gc_metrics_report_per_queue_purges_and_retained_backlog() {
    // `scratch` messages are purgeable once processed; `ledger` messages
    // are retained by the byK slicing (no reset, never read by rules) and
    // become the processed-but-retained backlog.
    let server = Server::builder()
        .program(
            r#"
            create queue scratch kind basic mode persistent
            create queue ledger kind basic mode persistent
            create property k as xs:string fixed
                queue ledger value //@k
            create slicing byK on k
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();
    for i in 0..3 {
        server
            .enqueue_external("scratch", &format!("<t n='{i}'/>"))
            .unwrap();
    }
    for k in ["a", "b"] {
        server
            .enqueue_external("ledger", &format!("<entry k='{k}'/>"))
            .unwrap();
    }
    server.run_until_idle().unwrap();
    let purged = server.gc().unwrap();
    assert_eq!(
        purged, 3,
        "only the unsliced scratch messages are purgeable"
    );

    let text = server.metrics_text();
    // GC purges are attributed per queue via labels.
    let purged_by_queue = labeled_samples(&text, "demaq_store_gc_purged_total");
    assert_eq!(purged_by_queue.get("scratch").copied(), Some(3));
    assert_eq!(purged_by_queue.get("ledger").copied().unwrap_or(0), 0);
    assert_eq!(purged_by_queue.values().sum::<u64>(), 3);

    // The retained-processed backlog gauge counts what GC could not purge.
    let backlog_line = text
        .lines()
        .find(|l| l.starts_with("demaq_store_retained_processed_backlog"))
        .expect("backlog gauge sample");
    let backlog: u64 = backlog_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(backlog, 2, "both ledger entries are processed yet retained");

    // Resident payload bytes: gauge agrees with the store accessor.
    let resident_line = text
        .lines()
        .find(|l| l.starts_with("demaq_store_resident_payload_bytes"))
        .expect("resident bytes gauge sample");
    let resident: u64 = resident_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(resident, server.store().resident_payload_bytes());
    assert!(
        resident > 0,
        "the retained ledger entries have payload bytes"
    );
}

/// The commit pipeline's series against ground truth: two shards under
/// `Always`, one flow whose rekeying hop forwards across them, one that
/// ends in an outgoing gateway (a gateway pins its whole flow to a shard,
/// so the two cannot be one).
#[test]
fn durability_pipeline_series_match_store_ground_truth() {
    use demaq_net::{Clock, Envelope, Network};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const JOBS: u64 = 40;
    let net = Arc::new(Network::new(Clock::virtual_at(0), 7));
    let delivered = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&delivered);
    net.register(
        "urn:obs-sink",
        Arc::new(move |_: Envelope| {
            sink.fetch_add(1, Ordering::SeqCst);
        }),
    );
    let server = Server::builder()
        .program(
            r#"
            create queue intake kind basic mode persistent
            create queue enriched kind basic mode persistent
            create queue notices kind basic mode persistent
            create queue out kind outgoingGateway mode persistent endpoint "urn:obs-sink"
            create property lane as xs:integer inherited
            create slicing lanes on lane
            create rule enrich for intake
              if (//job) then
                do enqueue <enriched n="{//job/@n}"/> into enriched
                  with lane value ((xs:integer(//job/@n) * 3 + 1) mod 7)
            create rule publish for notices
              if (//notice) then do enqueue <published n="{//notice/@n}"/> into out
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Always)
        .network(net)
        .obs(Obs::with_trace_capacity(8192))
        .shards(2)
        .build()
        .unwrap();
    for i in 0..JOBS {
        let lane = vec![(
            "lane".to_string(),
            demaq_xquery::Atomic::Int((i % 7) as i64),
        )];
        server
            .enqueue_external_with_props("intake", &format!("<job n='{i}'/>"), &lane)
            .unwrap();
        server
            .enqueue_external("notices", &format!("<notice n='{i}'/>"))
            .unwrap();
    }
    server.run_until_idle().unwrap();

    let obs = server.metrics();
    let r = &obs.registry;
    let commits = r.counter_total("demaq_store_commits_total");
    let syncs = r.counter_total("demaq_store_wal_syncs_total");
    let barriers: BTreeMap<String, u64> = r
        .counter_series("demaq_engine_durability_barriers_total")
        .into_iter()
        .map(|(labels, n)| (labels[0].1.clone(), n))
        .collect();
    assert_eq!(barriers["ack"], 2 * JOBS, "one per acknowledged enqueue");
    assert!(barriers["idle"] >= 1, "{barriers:?}");
    assert!(
        barriers["backlog"] >= 1,
        "32 effects held, or 32 forwards landed, in a drain: {barriers:?}"
    );
    assert!(
        barriers.values().sum::<u64>() <= commits,
        "{barriers:?} vs {commits} commits"
    );
    assert!(
        syncs < commits / 2,
        "{syncs} syncs for {commits} commits: the commit path re-serialized"
    );

    // Ground truth. A forward is an `enriched` message living on another
    // shard than the trigger that produced it; a send is a message in the
    // gateway queue.
    let enriched = server.queue_messages("enriched").unwrap();
    assert_eq!(enriched.len() as u64, JOBS);
    let forwards = enriched
        .iter()
        .filter(|m| match m.prop("parentMsg") {
            Some(demaq_store::PropValue::Int(p)) => (*p as u64) >> 48 != m.id.0 >> 48,
            _ => panic!("rule-created message without a parent"),
        })
        .count() as u64;
    let sends = server.queue_messages("out").unwrap().len() as u64;
    assert!(
        forwards > 0 && sends == JOBS,
        "{forwards} forwards, {sends} sends"
    );
    assert_eq!(
        r.counter_total("demaq_engine_shard_forwards_total"),
        forwards
    );
    assert_eq!(r.counter_total("demaq_gateway_sent_total"), sends);
    assert_eq!(delivered.load(Ordering::SeqCst), sends);
    // Everything that left went through the outbox, and all of it is out.
    assert_eq!(
        r.histogram("demaq_engine_outbox_hold_ns").count(),
        forwards + sends
    );
    assert_eq!(r.gauge("demaq_engine_outbox_depth").get(), 0);
    let released: Vec<_> = server
        .trace_tail(8192)
        .into_iter()
        .filter(|e| e.kind == "msg.released")
        .collect();
    assert_eq!(released.len() as u64, forwards + sends);
    assert!(released
        .iter()
        .all(|e| e.msg_id.is_some() && e.detail.contains(" batch=")));
    let text = server.metrics_text();
    assert!(text.contains("# TYPE demaq_engine_outbox_hold_ns histogram"));
    assert!(text.contains("demaq_engine_durability_barriers_total{reason=\"idle\"}"));
}

/// A local chain of two rules: nothing it commits leaves the process.
const LOCAL_CHAIN: &str = r#"
    create queue intake kind basic mode persistent
    create queue enriched kind basic mode persistent
    create queue done kind basic mode persistent
    create rule enrich for intake
      if (//job) then do enqueue <enriched n="{//job/@n}"/> into enriched
    create rule finish for enriched
      if (//enriched) then do enqueue <done n="{//enriched/@n}"/> into done
"#;

/// `demaq_engine_durability_barriers_total` by reason.
fn barriers(server: &Server) -> BTreeMap<String, u64> {
    server
        .metrics()
        .registry
        .counter_series("demaq_engine_durability_barriers_total")
        .into_iter()
        .map(|(labels, n)| (labels[0].1.clone(), n))
        .collect()
}

/// Process every scheduled message with `step`, which runs the idle
/// barrier only once nothing is scheduled; returns the commits made.
fn step_while_scheduled(server: &Server) -> u64 {
    let obs = server.metrics();
    let r = &obs.registry;
    let before = r.counter_total("demaq_store_commits_total");
    while r.gauge("demaq_engine_scheduler_depth").get() > 0 {
        assert!(server.step().unwrap());
    }
    r.counter_total("demaq_store_commits_total") - before
}

/// A local-only drain under `Always` holds no effect and ingests nothing
/// that lives only in memory, so no backlog barrier runs however many
/// deferred commits pile up: the idle barrier at its end covers them all
/// with one sync. A crash before it loses them, and recovery redoes them
/// from their still-unprocessed input.
#[test]
fn commits_that_hold_no_effect_wait_for_the_idle_barrier() {
    const JOBS: u64 = 40;
    let dir = tempfile::TempDir::new().unwrap();
    let server = Server::builder()
        .program(LOCAL_CHAIN)
        .dir(dir.path())
        .sync_policy(SyncPolicy::Always)
        .build()
        .unwrap();
    for i in 0..JOBS {
        server
            .enqueue_external("intake", &format!("<job n='{i}'/>"))
            .unwrap();
    }
    let obs = server.metrics();
    let r = &obs.registry;
    let syncs_fed = r.counter_total("demaq_store_wal_syncs_total");
    assert_eq!(server.store().unsynced_commits(), 0, "every ack synced");
    let deferred = step_while_scheduled(&server);
    assert!(deferred >= 64, "{deferred} deferred commits");
    assert_eq!(server.store().unsynced_commits(), deferred);
    assert_eq!(
        barriers(&server)["backlog"],
        0,
        "nothing held: {:?}",
        barriers(&server)
    );
    assert_eq!(r.counter_total("demaq_store_wal_syncs_total"), syncs_fed);

    let idle = barriers(&server)["idle"];
    assert!(!server.step().unwrap(), "idle, and nothing to release");
    assert_eq!(barriers(&server)["idle"], idle + 1);
    assert_eq!(
        server.store().unsynced_commits(),
        0,
        "the idle barrier covered them"
    );
    assert_eq!(
        r.counter_total("demaq_store_wal_syncs_total"),
        syncs_fed + 1
    );
    assert_eq!(server.queue_bodies("done").unwrap().len() as u64, JOBS);
}

/// A gateway ingest's input lives only in memory (the sender has its
/// acknowledgement), so a crash that loses the commit loses the message.
/// Such commits pace the backlog barrier like held effects: the 32nd
/// unsynced ingest syncs them all, even though nothing is held.
#[test]
fn gateway_ingests_are_synced_within_32() {
    use demaq_net::{Clock, Envelope, Network};
    use std::sync::Arc;

    const REQUESTS: u64 = 40;
    let net = Arc::new(Network::new(Clock::virtual_at(0), 7));
    net.set_latency_ms(0);
    let server = Server::builder()
        .program(
            r#"
            create queue wire kind incomingGateway mode persistent endpoint "urn:obs-in"
            create queue done kind basic mode persistent
            create rule accept for wire
              if (/req) then do enqueue <done n="{/req/@n}"/> into done
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Always)
        .network(Arc::clone(&net))
        .build()
        .unwrap();
    for i in 0..REQUESTS {
        let xml = format!("<req n=\"{i}\"/>");
        net.send(Envelope::new("urn:obs-in", "urn:obs-gen", xml))
            .unwrap();
    }
    // One pump ingests every delivery and processes none of them.
    assert!(server.pump_environment().unwrap());
    assert_eq!(
        server.queue_messages("wire").unwrap().len() as u64,
        REQUESTS
    );
    assert_eq!(barriers(&server)["backlog"], 1, "{:?}", barriers(&server));
    assert_eq!(server.store().unsynced_commits(), REQUESTS - 32);
    server.run_until_idle().unwrap();
    assert_eq!(server.queue_bodies("done").unwrap().len() as u64, REQUESTS);
}

/// A send held behind a long drain of commits that hold nothing does not
/// wait for the drain to go idle: once 256 commits are unsynced while it
/// waits, a backlog barrier releases it.
#[test]
fn a_lone_held_send_waits_at_most_256_commits() {
    use demaq_net::{Clock, Envelope, Network};
    use std::sync::Arc;

    const JOBS: u64 = 150;
    let net = Arc::new(Network::new(Clock::virtual_at(0), 7));
    net.register("urn:obs-sink", Arc::new(|_: Envelope| {}));
    let server = Server::builder()
        .program(&format!(
            r#"{LOCAL_CHAIN}
            create queue notices kind basic mode persistent
            create queue out kind outgoingGateway mode persistent endpoint "urn:obs-sink"
            create rule publish for notices
              if (//notice) then do enqueue <published/> into out
            "#
        ))
        .in_memory()
        .sync_policy(SyncPolicy::Always)
        .network(net)
        .build()
        .unwrap();
    server.enqueue_external("notices", "<notice/>").unwrap();
    for i in 0..JOBS {
        server
            .enqueue_external("intake", &format!("<job n='{i}'/>"))
            .unwrap();
    }
    let drained = step_while_scheduled(&server);
    assert!(drained > 256 + 32, "{drained} commits");
    let obs = server.metrics();
    let r = &obs.registry;
    assert_eq!(barriers(&server)["backlog"], 1, "{:?}", barriers(&server));
    assert_eq!(
        r.counter_total("demaq_gateway_sent_total"),
        1,
        "released before idle"
    );
    assert_eq!(r.gauge("demaq_engine_outbox_depth").get(), 0);
    assert_eq!(server.store().unsynced_commits(), drained - 256);
}

/// An acknowledged enqueue runs one `ack` barrier under `Always`, whose
/// sync covers its commit. A commit into a transient queue logs nothing,
/// so that barrier has nothing to sync. Under `Batch` nothing waits for the
/// disk: no barrier runs and nothing syncs.
#[test]
fn an_acked_enqueue_syncs_only_what_it_logged() {
    const PROGRAM: &str = r#"
        create queue ticks kind basic mode transient
        create queue orders kind basic mode persistent
    "#;
    let syncs = |server: &Server| {
        server
            .metrics()
            .registry
            .counter_total("demaq_store_wal_syncs_total")
    };
    for sync in [SyncPolicy::Always, SyncPolicy::Batch] {
        let server = Server::builder()
            .program(PROGRAM)
            .in_memory()
            .sync_policy(sync)
            .build()
            .unwrap();
        let (syncs_before, barriers_before) = (syncs(&server), barriers(&server));
        let end = server.store().log_end();
        server.enqueue_external("ticks", "<tick/>").unwrap();
        assert_eq!(server.store().log_end(), end, "{sync:?}: logged nothing");
        assert_eq!(syncs(&server), syncs_before, "{sync:?}");
        let mut acked = barriers_before.clone();
        if sync == SyncPolicy::Always {
            *acked.get_mut("ack").unwrap() += 1;
        }
        assert_eq!(barriers(&server), acked, "{sync:?}");

        server.enqueue_external("orders", "<order/>").unwrap();
        let (syncs_after, acks, unsynced) = match sync {
            SyncPolicy::Always => (syncs_before + 1, 2, 0),
            SyncPolicy::Batch => (syncs_before, 0, 1),
        };
        assert_eq!(syncs(&server), syncs_after, "{sync:?}");
        assert_eq!(barriers(&server)["ack"], acks, "{sync:?}");
        assert_eq!(server.store().unsynced_commits(), unsynced, "{sync:?}");
    }
}

/// A slicing read only through recognized aggregates never touches a
/// member document: processing a message looks up exactly one document
/// (its own) and no member sequence, because every member's contribution
/// was computed once, at its enqueue — one per member and aggregate.
#[test]
fn aggregate_reads_never_touch_member_documents() {
    let server = Server::builder()
        .program(
            r#"
            create queue intake kind basic mode persistent
            create queue report kind basic mode persistent
            create property dev as xs:string fixed queue intake value //@dev
            create slicing byDev on dev
            create rule stats for byDev
              if (count(qs:slice()) >= 2 and sum(qs:slice()//v) > 0) then
                do enqueue <s n="{count(qs:slice())}" hi="{max(qs:slice()//v)}"
                              hot="{count(qs:slice()//v[. > 5])}"/> into report
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();
    const MEMBERS: u64 = 24;
    // Three aggregates fold contributions — `sum(…//v)`, `max(…//v)` and
    // the guarded `count`; the step-free `count(qs:slice())` is a length.
    const FOLDED_AGGREGATES: u64 = 3;
    let obs = server.metrics();
    let r = &obs.registry;
    let doc_lookups = || {
        r.counter_total("demaq_core_doc_cache_hits_total")
            + r.counter_total("demaq_core_doc_cache_misses_total")
    };
    let seq_lookups = || {
        ["hits", "appends", "rebuilds"]
            .iter()
            .map(|k| r.counter_total(&format!("demaq_core_slice_seq_{k}_total")))
            .sum::<u64>()
    };
    let slice_lookups = || r.counter_total("demaq_store_slice_lookups_total");
    // Two bursts, so the second one's reads extend warm cells.
    let mut steps = 0;
    for burst in [0..MEMBERS / 2, MEMBERS / 2..MEMBERS] {
        let found = slice_lookups();
        for i in burst {
            let xml = format!("<r dev='d{}'><v>{}</v></r>", i % 4, i % 9);
            server.enqueue_external("intake", &xml).unwrap();
        }
        assert_eq!(
            slice_lookups() - found,
            MEMBERS / 2,
            "one slice found by name per reading, when it joins"
        );
        loop {
            let (docs, seqs, found) = (doc_lookups(), seq_lookups(), slice_lookups());
            if !server.step().unwrap() {
                break;
            }
            steps += 1;
            assert_eq!(
                doc_lookups() - docs,
                1,
                "step {steps}: only its own document"
            );
            assert_eq!(seq_lookups() - seqs, 0, "step {steps}: no member sequence");
            assert_eq!(slice_lookups() - found, 0, "step {steps}: slices by handle");
        }
    }
    assert!(
        steps as u64 > MEMBERS,
        "the rule fired and its outputs were processed too"
    );
    assert!(r.counter_total("demaq_core_agg_deltas_total") > 0);
    assert_eq!(
        r.counter_total("demaq_core_agg_contributions_total"),
        MEMBERS * FOLDED_AGGREGATES,
        "one contribution per member and folded aggregate"
    );
    let text = server.metrics_text();
    assert!(text.contains("demaq_core_agg_contributions_total"));
    assert!(text.contains(&format!("demaq_store_slice_lookups_total {MEMBERS}")));
}

#[test]
fn tracer_records_message_lifecycle() {
    let server = build_server();
    server
        .enqueue_external("orders", "<order><id>7</id><quantity>70</quantity></order>")
        .unwrap();
    server.run_until_idle().unwrap();

    let tail = server.trace_tail(64);
    assert!(!tail.is_empty(), "tracer recorded nothing");
    let kinds: Vec<&str> = tail.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"msg.enqueue"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"msg.processed"), "kinds: {kinds:?}");
    // Events come back oldest-first with monotonically increasing
    // sequence numbers.
    for pair in tail.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    // Every event renders to a single human-readable line.
    for ev in &tail {
        assert!(!ev.render().contains('\n'));
    }
}

/// The rule evaluators' work counters, against counts worked out from the
/// program: two rules on `orders` share `/order/qty` (both conditions) and
/// `string(/order/id)` (both bodies). Per order, the first condition
/// evaluates `/order/qty` and the second reads it from the memo; the one
/// rule that fires evaluates `string(/order/id)`. Each shared path takes
/// two steps (`order`, then its child), and `out` has no rules.
#[test]
fn rule_evaluation_counters_match_the_program() {
    let server = Server::builder()
        .program(
            r#"
            create queue orders kind basic mode persistent
            create queue out kind basic mode persistent
            create rule big for orders
              if (/order/qty > 10) then do enqueue <big>{string(/order/id)}</big> into out
            create rule small for orders
              if (/order/qty <= 10) then do enqueue <small>{string(/order/id)}</small> into out
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();
    for (id, qty) in [(1, 5), (2, 50), (3, 10)] {
        server
            .enqueue_external(
                "orders",
                &format!("<order><id>{id}</id><qty>{qty}</qty></order>"),
            )
            .unwrap();
    }
    server.run_until_idle().unwrap();
    assert_eq!(server.queue_bodies("out").unwrap().len(), 3);

    let text = server.metrics_text();
    let sample = |name: &str| -> u64 {
        let line = text
            .lines()
            .find(|l| l.split(' ').next() == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from the exposition"));
        line.rsplit(' ').next().unwrap().parse().unwrap()
    };
    assert_eq!(sample("demaq_xquery_shared_evals_total"), 3 * 2);
    assert_eq!(sample("demaq_xquery_shared_reuses_total"), 3);
    assert_eq!(sample("demaq_xquery_path_steps_total"), 3 * 2 * 2);
}

/// `rules_cpu`'s shape: a chain of queues and rules, no slicings.
const PIPELINE: &str = r#"
create queue orders kind basic mode persistent
create queue priced kind basic mode persistent
create queue shipping kind basic mode persistent
create queue invoices kind basic mode persistent
create queue alerts kind basic mode persistent
create rule price for orders
  if (/order) then do enqueue <priced id="{/order/@id}"/> into priced
create rule bulk for orders
  if (/order/@n > 6) then do enqueue <bulk id="{/order/@id}"/> into alerts
create rule rush for orders
  if (//rush) then do enqueue <expedite id="{/order/@id}"/> into shipping
create rule invoice for priced
  if (/priced) then do enqueue <invoice id="{/priced/@id}"/> into invoices
create rule ship for shipping
  if (/expedite) then do enqueue <shipment id="{/expedite/@id}"/> into invoices
"#;

/// `slice_state`'s shape: every reading is in one slice of `byDevice` and
/// one of `byGroup`; what the slicing rules produce is in none.
const READINGS: &str = r#"
create queue readings kind basic mode persistent
create queue reports kind basic mode persistent
create queue alerts kind basic mode persistent
create property device as xs:string fixed queue readings value /reading/@dev
create property grp as xs:string fixed queue readings value /reading/@grp
create slicing byDevice on device
create slicing byGroup on grp
create rule spike for byDevice
  if (count(qs:slice()) >= 3) then do enqueue <spike dev="{qs:slicekey()}"/> into alerts
create rule rollover for byGroup
  if (count(qs:slice()) >= 4) then
    (do enqueue <window grp="{qs:slicekey()}"/> into reports, do reset)
"#;

fn drained(program: &str, granularity: LockGranularity, feed: &[(&str, String)]) -> Server {
    let server = Server::builder()
        .program(program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .lock_granularity(granularity)
        .build()
        .unwrap();
    for (queue, body) in feed {
        server.enqueue_external(queue, body).unwrap();
    }
    server.run_until_idle().unwrap();
    server
}

/// Lock-table acquisitions (`demaq_store_lock_acquisitions_total`) per
/// processed message. Under slice granularity a message locks exactly its
/// slices: 0 in `rules_cpu`'s shape, 2 in `slice_state`'s. Under queue
/// granularity it locks its queue's compiled plan. While every message
/// also took a lock of its own, slice granularity took 1 and 3.
#[test]
fn lock_acquisitions_per_message_are_pinned() {
    let counter = |s: &Server, name| s.metrics().registry.counter_total(name);
    let acquisitions = |s: &Server| counter(s, "demaq_store_lock_acquisitions_total");
    let orders: Vec<(&str, String)> = (0..30)
        .map(|i| {
            let rush = if i % 4 == 0 { "<rush/>" } else { "" };
            let body = format!("<order id='o{i}' n='{}'>{rush}</order>", i % 10);
            ("orders", body)
        })
        .collect();

    let s = drained(PIPELINE, LockGranularity::Slice, &orders);
    let processed = counter(&s, "demaq_engine_processed_total");
    assert!(processed > 60, "the chain ran: {processed} processed");
    assert_eq!(acquisitions(&s), 0);

    let readings: Vec<(&str, String)> = (0..40)
        .map(|i| {
            let body = format!("<reading dev='d{}' grp='g{}'/>", i % 5, i % 3);
            ("readings", body)
        })
        .collect();
    let s = drained(READINGS, LockGranularity::Slice, &readings);
    let per_queue = labeled_samples(&s.metrics_text(), "demaq_engine_processed_total");
    assert_eq!(per_queue["readings"], 40);
    assert!(per_queue["alerts"] > 0 && per_queue["reports"] > 0);
    assert_eq!(acquisitions(&s), 2 * 40);

    let s = drained(PIPELINE, LockGranularity::Queue, &orders);
    let per_queue = labeled_samples(&s.metrics_text(), "demaq_engine_processed_total");
    let plan = |q: &str| s.app().queues[q].locks.len() as u64;
    assert_eq!(
        [
            plan("orders"),
            plan("priced"),
            plan("shipping"),
            plan("invoices")
        ],
        [4, 2, 2, 1]
    );
    let planned: u64 = per_queue.iter().map(|(q, n)| n * plan(q)).sum();
    assert_eq!(acquisitions(&s), planned);
}
