//! Causal provenance end to end: lineage across rule firings, gateway
//! hops, timer echoes, and error routing; identity of the causal chain
//! across crash/recovery (WAL-only and checkpointed); lineage following
//! retention through GC; per-rule wall-time
//! attribution; trace-context filtering.

use demaq::engine::RuleProfile;
use demaq::{Server, TraceFilter};
use demaq_net::{Clock, Network};
use demaq_store::store::SyncPolicy;
use demaq_store::MsgId;
use std::sync::Arc;

/// A procurement-flavored pipeline whose chain crosses a loopback gateway
/// hop: order → approval → supplier (outgoing gateway) ⇢ network ⇢
/// confirmations (incoming gateway) → archive.
const PROCUREMENT: &str = r#"
    create queue order kind basic mode persistent
    create queue approval kind basic mode persistent
    create queue supplier kind outgoingGateway mode persistent endpoint "urn:supplier"
    create queue confirmations kind incomingGateway mode persistent endpoint "urn:supplier"
    create queue archive kind basic mode persistent
    create rule approve for order
      if (//order) then do enqueue <approved>{string(//order/@id)}</approved> into approval
    create rule dispatch for approval
      if (//approved) then do enqueue <shipRequest>{//approved/text()}</shipRequest> into supplier
    create rule archiveConfirmation for confirmations
      if (//shipRequest) then do enqueue <archived>{//shipRequest/text()}</archived> into archive
"#;

fn build(dir: &std::path::Path) -> Server {
    let clock = Clock::virtual_at(0);
    let net = Arc::new(Network::new(clock.clone(), 7));
    Server::builder()
        .program(PROCUREMENT)
        .dir(dir)
        .sync_policy(SyncPolicy::Always)
        .network(net)
        .clock(clock)
        .server_addr("urn:procurement")
        .build()
        .unwrap()
}

/// Run the pipeline once and return every retained message id, in order.
fn run_pipeline(s: &Server) -> Vec<MsgId> {
    let root = s.enqueue_external("order", "<order id='o-1'/>").unwrap();
    s.run_until_idle().unwrap();
    let mut ids = vec![root];
    for q in ["approval", "supplier", "confirmations", "archive"] {
        let msgs = s.queue_messages(q).unwrap();
        assert_eq!(msgs.len(), 1, "exactly one message in `{q}`");
        ids.push(msgs[0].id);
    }
    ids
}

#[test]
fn lineage_spans_rules_and_a_gateway_hop() {
    let tmp = tempfile::TempDir::new().unwrap();
    let s = build(tmp.path());
    let ids = run_pipeline(&s);
    let [root, approval, supplier, confirmation, archive] = ids[..] else {
        panic!("expected 5 messages, got {ids:?}");
    };

    // Root: no ancestors, every later message a descendant (in causal
    // breadth-first order).
    let l = s.lineage(root);
    let target = l.target.expect("root is indexed");
    assert_eq!(target.parent, None);
    assert_eq!(target.root, root.0);
    assert_eq!(target.queue, "order");
    assert!(l.ancestors.is_empty());
    let desc: Vec<u64> = l.descendants.iter().map(|r| r.msg).collect();
    assert_eq!(
        desc,
        [approval.0, supplier.0, confirmation.0, archive.0],
        "descendants cross the gateway hop"
    );
    assert!(l.descendants.iter().all(|r| r.root == root.0));

    // Mid-chain: ancestors nearest-first up to the root, descendants
    // below; rule attribution names the producing rule, and the gateway
    // hop is marked as such.
    let l = s.lineage(supplier);
    let anc: Vec<u64> = l.ancestors.iter().map(|r| r.msg).collect();
    assert_eq!(anc, [approval.0, root.0]);
    assert_eq!(l.target.as_ref().unwrap().rule.as_deref(), Some("dispatch"));
    let desc: Vec<u64> = l.descendants.iter().map(|r| r.msg).collect();
    assert_eq!(desc, [confirmation.0, archive.0]);

    let l = s.lineage(confirmation);
    let t = l.target.unwrap();
    assert_eq!(t.parent, Some(supplier.0), "ingest names the sent message");
    assert_eq!(t.rule.as_deref(), Some("<gateway>"));
    assert_eq!(t.root, root.0, "the tree survives the hop");

    // The chain is durable: every rule-produced edge carries a WAL LSN.
    for id in [approval, supplier, archive] {
        let rec = s.lineage(id).target.unwrap();
        assert!(rec.lsn.is_some(), "edge of {id:?} not WAL-durable");
    }
}

/// Every message answers the same lineage before and after a reopen —
/// including a root whose rule did not fire, which has no edge of its own.
#[test]
fn lineage_identical_before_and_after_crash_recovery() {
    let tmp = tempfile::TempDir::new().unwrap();
    let (ids, before) = {
        let s = build(tmp.path());
        let childless = s.enqueue_external("order", "<note/>").unwrap();
        let mut ids = run_pipeline(&s);
        ids.push(childless);
        let before: Vec<_> = ids.iter().map(|id| s.lineage(*id)).collect();
        let lone = before.last().unwrap();
        assert_eq!(lone.target.as_ref().map(|t| t.root), Some(childless.0));
        assert!(lone.descendants.is_empty());
        (ids, before)
        // Dropped without checkpoint: recovery must rebuild the chain
        // from WAL records alone.
    };
    let s = build(tmp.path());
    for (id, want) in ids.iter().zip(&before) {
        assert_eq!(
            &s.lineage(*id),
            want,
            "lineage of {id:?} diverged after WAL-only recovery"
        );
    }

    // And again through a checkpoint (snapshot carries the lineage, the
    // WAL segments before it are gone). Checkpoint directly — the
    // retention GC would legitimately purge the processed, unsliced
    // messages along with their lineage.
    s.store().checkpoint().unwrap();
    drop(s);
    let s = build(tmp.path());
    for (id, want) in ids.iter().zip(&before) {
        assert_eq!(
            &s.lineage(*id),
            want,
            "lineage of {id:?} diverged after checkpointed recovery"
        );
    }
}

/// Lineage answers for exactly the messages the store retains: GC purges
/// the processed, unsliced chain and its lineage with it, and a reopen
/// (whose WAL replay brings purged messages back until the next GC)
/// keeps the two in step.
#[test]
fn lineage_follows_retention() {
    let tmp = tempfile::TempDir::new().unwrap();
    let agrees = |s: &Server, ids: &[MsgId], when: &str| {
        for id in ids {
            assert_eq!(
                s.lineage(*id).target.is_some(),
                s.store().message_meta(*id).is_ok(),
                "{when}: lineage of {id:?} disagrees with retention"
            );
        }
    };
    let ids = {
        let s = build(tmp.path());
        let ids = run_pipeline(&s);
        agrees(&s, &ids, "before gc");
        assert!(s.gc().unwrap() > 0, "the chain is processed and unsliced");
        assert!(ids.iter().any(|id| s.lineage(*id).target.is_none()));
        agrees(&s, &ids, "after gc");
        ids
    };
    let s = build(tmp.path());
    agrees(&s, &ids, "after reopen");
    s.gc().unwrap();
    agrees(&s, &ids, "after gc on reopen");
}

#[test]
fn error_messages_join_the_causal_tree_of_the_failing_message() {
    let s = Server::builder()
        .program(
            r#"
            set errorqueue errors
            create schema strict {
                root order
                element order { id }
                element id text integer
            }
            create queue errors kind basic mode persistent
            create queue inbox kind basic mode persistent
            create queue guarded kind basic mode persistent schema strict
            create rule explode for inbox
              if (//boom) then do enqueue <notAnOrder/> into guarded
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();
    let root = s.enqueue_external("inbox", "<boom/>").unwrap();
    s.run_until_idle().unwrap();
    let errs = s.queue_messages("errors").unwrap();
    assert_eq!(errs.len(), 1);
    let l = s.lineage(errs[0].id);
    let t = l.target.unwrap();
    assert_eq!(t.parent, Some(root.0));
    assert_eq!(t.root, root.0);
    assert_eq!(
        t.rule.as_deref(),
        Some("explode"),
        "failing rule attributed"
    );
    let l = s.lineage(root);
    assert_eq!(l.descendants.len(), 1, "error message is a descendant");
}

#[test]
fn rule_profiles_attribute_time_and_production() {
    let tmp = tempfile::TempDir::new().unwrap();
    let s = build(tmp.path());
    for i in 0..5 {
        s.enqueue_external("order", &format!("<order id='o-{i}'/>"))
            .unwrap();
    }
    s.run_until_idle().unwrap();

    let profiles = s.rule_profiles();
    assert_eq!(profiles.len(), 3, "one profile per declared rule");
    let by_name = |n: &str| -> &RuleProfile {
        profiles
            .iter()
            .find(|p| p.rule == n)
            .unwrap_or_else(|| panic!("no profile for `{n}`"))
    };
    for rule in ["approve", "dispatch", "archiveConfirmation"] {
        let p = by_name(rule);
        assert_eq!(p.fires, 5, "`{rule}` fired per message");
        assert_eq!(p.messages_produced, 5, "`{rule}` produced per firing");
        assert!(p.eval_ns_total > 0);
        assert!(p.eval_ns_p50 <= p.eval_ns_p99);
        assert!(p.eval_ns_mean > 0.0);
    }
    // Sorted by total evaluation time, heaviest first.
    assert!(profiles
        .windows(2)
        .all(|w| w[0].eval_ns_total >= w[1].eval_ns_total));

    // The same series appear in the Prometheus exposition.
    let text = s.metrics_text();
    assert!(text.contains("demaq_engine_rule_time_ns_bucket{rule=\"approve\""));
    assert!(text.contains("demaq_engine_rule_fires_total{rule=\"dispatch\""));
    assert!(text.contains("demaq_engine_rule_produced_total{rule=\"archiveConfirmation\""));
}

#[test]
fn trace_tail_filters_by_trace_and_message() {
    let tmp = tempfile::TempDir::new().unwrap();
    let s = build(tmp.path());
    let a = s.enqueue_external("order", "<order id='a'/>").unwrap();
    let b = s.enqueue_external("order", "<order id='b'/>").unwrap();
    s.run_until_idle().unwrap();

    // Each cascade is one trace, keyed by its root message id.
    let tree_a = s.trace_tail_filtered(
        1024,
        &TraceFilter {
            trace_id: Some(a.0),
            ..Default::default()
        },
    );
    assert!(!tree_a.is_empty());
    assert!(tree_a.iter().all(|e| e.trace_id == Some(a.0)));
    assert!(
        tree_a.iter().any(|e| e.queue == "archive"),
        "trace follows the cascade to its last hop"
    );
    assert!(
        tree_a.iter().all(|e| e.trace_id != Some(b.0)),
        "the other cascade is filtered out"
    );

    // Message filter surfaces both the message's own events and the
    // enqueues it caused (parent_span hits).
    let around_a = s.trace_tail_filtered(
        1024,
        &TraceFilter {
            msg_id: Some(a.0),
            ..Default::default()
        },
    );
    assert!(around_a.iter().any(|e| e.kind == "msg.processed"));
    assert!(
        around_a
            .iter()
            .any(|e| e.kind == "msg.enqueue" && e.parent_span == Some(a.0)),
        "children of the message surface via parent_span"
    );

    // Queue filter composes.
    let archive_only = s.trace_tail_filtered(
        1024,
        &TraceFilter {
            queue: Some("archive".into()),
            ..Default::default()
        },
    );
    assert!(!archive_only.is_empty());
    assert!(archive_only.iter().all(|e| e.queue == "archive"));
}

#[test]
fn echo_timer_preserves_the_causal_chain() {
    let s = Server::builder()
        .program(
            r#"
            create queue inbox kind basic mode persistent
            create queue later kind echo mode persistent
            create queue woken kind basic mode persistent
            create rule park for inbox
              if (//start) then
                do enqueue <wake/> into later
                  with delay value 100
                  with target value "woken"
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();
    let root = s.enqueue_external("inbox", "<start/>").unwrap();
    s.run_until_idle().unwrap();
    let woken = s.queue_messages("woken").unwrap();
    assert_eq!(woken.len(), 1);
    let l = s.lineage(woken[0].id);
    let t = l.target.unwrap();
    assert_eq!(t.rule.as_deref(), Some("<echo>"));
    assert_eq!(t.root, root.0, "echoed message stays in the tree");
    let anc: Vec<u64> = l.ancestors.iter().map(|r| r.msg).collect();
    assert_eq!(*anc.last().unwrap(), root.0, "chain walks back to the root");
}

/// The labels of hops no rule made, and the failing rule of an error
/// message, are read from the messages themselves: they, and every LSN,
/// read the same after a checkpoint and a reopen.
#[test]
fn rule_less_hops_keep_their_labels_across_a_checkpoint_and_reopen() {
    const PROGRAM: &str = r#"
        set errorqueue errors
        create schema strict {
            root order
            element order { id }
            element id text integer
        }
        create queue errors kind basic mode persistent
        create queue inbox kind basic mode persistent
        create queue guarded kind basic mode persistent schema strict
        create queue later kind echo mode persistent
        create queue woken kind basic mode persistent
        create rule explode for inbox
          if (//boom) then do enqueue <notAnOrder/> into guarded
        create rule park for inbox
          if (//start) then
            do enqueue <wake/> into later
              with delay value 100
              with target value "woken"
    "#;
    let tmp = tempfile::TempDir::new().unwrap();
    let build = || {
        Server::builder()
            .program(PROGRAM)
            .dir(tmp.path())
            .sync_policy(SyncPolicy::Always)
            .clock(Clock::virtual_at(0))
            .build()
            .unwrap()
    };
    let s = build();
    s.enqueue_external("inbox", "<boom/>").unwrap();
    s.enqueue_external("inbox", "<start/>").unwrap();
    s.run_until_idle().unwrap();
    let error = s.queue_messages("errors").unwrap()[0].id;
    let woken = s.queue_messages("woken").unwrap()[0].id;
    let before = [s.lineage(error), s.lineage(woken)];
    let rule = |l: &demaq::Lineage| l.target.as_ref().unwrap().rule.clone();
    assert_eq!(rule(&before[0]).as_deref(), Some("explode"));
    assert_eq!(rule(&before[1]).as_deref(), Some("<echo>"));
    assert!(before
        .iter()
        .all(|l| l.target.as_ref().unwrap().lsn.is_some()));
    s.store().checkpoint().unwrap();
    drop(s);

    let s = build();
    assert_eq!([s.lineage(error), s.lineage(woken)], before);
}
