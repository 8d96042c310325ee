//! End-to-end engine tests: execution model, slicing, retention, errors,
//! gateways, timers, recovery.

use demaq::Server;
use demaq_store::store::SyncPolicy;
use demaq_store::{LockGranularity, PropValue};
use demaq_xquery::Atomic;
use tempfile::TempDir;

fn server(program: &str) -> Server {
    Server::builder()
        .program(program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap()
}

#[test]
fn simple_forwarding_rule() {
    let s = server(
        r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create rule fwd for inbox
          if (//order) then do enqueue <ack>{//order/id}</ack> into outbox
        "#,
    );
    s.enqueue_external("inbox", "<order><id>7</id></order>")
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("outbox").unwrap(), ["<ack><id>7</id></ack>"]);
    assert_eq!(
        s.stats().processed,
        2,
        "the ack is processed too (no rules fire)"
    );
}

#[test]
fn a_tree_update_is_refused_at_deploy() {
    // Stored messages are immutable: a rule that would edit one in place
    // is refused when the program is built, not each time the rule fires.
    let err = Server::builder()
        .program(
            r#"
            create queue inbox kind basic mode persistent
            create rule scrub for inbox
              if (//x) then do delete //x
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .err()
        .expect("a rule with `do delete` must not deploy");
    let msg = err.to_string();
    assert!(msg.contains("rule `scrub`"), "{msg}");
    assert!(msg.contains("`do delete`"), "{msg}");
}

#[test]
fn every_enqueued_message_is_a_document_of_its_own() {
    // One bound construction enqueued twice, the trigger itself and a node
    // of it: a fresh construction is enqueued without a copy, so these
    // check that no two messages, and no message and its trigger, share a
    // document. The probe reads them back through the document cache.
    let s = server(
        r#"
        create queue inbox kind basic mode persistent
        create queue out kind basic mode persistent
        create queue probe kind basic mode persistent
        create queue report kind basic mode persistent
        create rule copy for inbox
          if (/order) then
            let $x := <m>{/order/customer/text()}</m>
            return (do enqueue $x into out, do enqueue $x into out,
                    do enqueue qs:message() into out,
                    do enqueue /order/customer into out)
        create rule check for probe
          if (/probe) then
            let $out := qs:queue("out")
            return do enqueue
              <r docs="{count((qs:queue("inbox"), $out) union ())}"
                 twice="{$out[1] is $out[2]}"
                 trigger="{qs:queue("inbox") is $out[3]}"/> into report
        "#,
    );
    s.enqueue_external("inbox", "<order><customer>c1</customer></order>")
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("out").unwrap(),
        [
            "<m>c1</m>",
            "<m>c1</m>",
            "<order><customer>c1</customer></order>",
            "<customer>c1</customer>",
        ]
    );
    s.enqueue_external("probe", "<probe/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("report").unwrap(),
        [r#"<r docs="5" twice="false" trigger="false"/>"#]
    );
}

#[test]
fn rule_condition_false_produces_nothing() {
    let s = server(
        r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create rule fwd for inbox
          if (//order) then do enqueue <a/> into outbox
        "#,
    );
    s.enqueue_external("inbox", "<notAnOrder/>").unwrap();
    s.run_until_idle().unwrap();
    assert!(s.queue_bodies("outbox").unwrap().is_empty());
}

#[test]
fn cascading_rules() {
    // a -> b -> c chains through three queues.
    let s = server(
        r#"
        create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create queue c kind basic mode persistent
        create rule r1 for a if (//start) then do enqueue <middle/> into b
        create rule r2 for b if (//middle) then do enqueue <done/> into c
        "#,
    );
    s.enqueue_external("a", "<start/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("c").unwrap(), ["<done/>"]);
}

#[test]
fn multiple_rules_on_one_queue_all_fire() {
    let s = server(
        r#"
        create queue q kind basic mode persistent
        create queue out kind basic mode persistent
        create rule r1 for q if (//m) then do enqueue <from1/> into out
        create rule r2 for q if (//m) then do enqueue <from2/> into out
        "#,
    );
    s.enqueue_external("q", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    let mut got = s.queue_bodies("out").unwrap();
    got.sort();
    assert_eq!(got, ["<from1/>", "<from2/>"]);
}

#[test]
fn queue_rules_evaluate_a_shared_path_once_per_message() {
    let s = server(
        r#"
        create queue q kind basic mode persistent
        create queue out kind basic mode persistent
        create rule r1 for q if (count(/m/i) > 1) then do enqueue <a n="{count(/m/i)}"/> into out
        create rule r2 for q if (count(/m/i) > 2) then do enqueue <b n="{count(/m/i)}"/> into out
        "#,
    );
    assert_eq!(s.app().queues["q"].shared.len(), 1);
    s.enqueue_external("q", "<m><i/><i/><i/></m>").unwrap();
    s.enqueue_external("q", "<m><i/><i/></m>").unwrap();
    s.run_until_idle().unwrap();
    let mut got = s.queue_bodies("out").unwrap();
    got.sort();
    assert_eq!(got, [r#"<a n="2"/>"#, r#"<a n="3"/>"#, r#"<b n="3"/>"#]);
    // `count(/m/i)` is evaluated by r1's condition and then read from the
    // memo: by r1's body, r2's condition and, on the first message, r2's
    // body.
    let counter = |name| s.metrics().registry.counter_total(name);
    assert_eq!(counter("demaq_xquery_shared_evals_total"), 2);
    assert_eq!(counter("demaq_xquery_shared_reuses_total"), 5);
    assert!(counter("demaq_xquery_path_steps_total") > 0);
    // Each rule keeps its own profile: evaluations, and what it produced.
    let profiles = s.rule_profiles();
    let profile = |rule: &str| {
        let p = profiles.iter().find(|p| p.rule == rule).unwrap();
        (p.fires, p.messages_produced)
    };
    assert_eq!(profile("r1"), (2, 2));
    assert_eq!(profile("r2"), (2, 1));
    // And each produced message names the rule that created it.
    let creators: Vec<_> = s
        .queue_messages("out")
        .unwrap()
        .iter()
        .map(|m| m.prop("creatingRule").cloned())
        .collect();
    assert_eq!(creators.len(), 3);
    for rule in ["r1", "r2"] {
        assert!(
            creators.contains(&Some(PropValue::Str(rule.into()))),
            "{creators:?}"
        );
    }
}

#[test]
fn trigger_prefilter_skips_rules() {
    let s = server(
        r#"
        create queue q kind basic mode persistent
        create queue out kind basic mode persistent
        create rule only_orders for q if (//order) then do enqueue <hit/> into out
        "#,
    );
    s.enqueue_external("q", "<somethingElse/>").unwrap();
    s.run_until_idle().unwrap();
    let st = s.stats();
    assert_eq!(
        st.rules_skipped_by_filter, 1,
        "filter skipped the rule without evaluating"
    );
    assert_eq!(st.rules_evaluated, 0);
}

#[test]
fn queue_contents_visible_to_rules() {
    // qs:queue access, like Fig. 6.
    let s = server(
        r#"
        create queue invoices kind basic mode persistent
        create queue finance kind basic mode persistent
        create queue crm kind basic mode persistent
        create rule checkCreditRating for finance
          if (//requestCustomerInfo) then
            let $result :=
              <customerInfoResult>
                {//requestID}
                {if (qs:queue("invoices")[//customerID = qs:message()//customerID])
                 then <refuse/> else <accept/>}
              </customerInfoResult>
            return do enqueue $result into crm
        "#,
    );
    // An unpaid bill for customer c9 sits in the invoices queue.
    s.enqueue_external("invoices", "<invoice><customerID>c9</customerID></invoice>")
        .unwrap();
    s.run_until_idle().unwrap();
    s.enqueue_external(
        "finance",
        "<requestCustomerInfo><requestID>r1</requestID><customerID>c9</customerID></requestCustomerInfo>",
    )
    .unwrap();
    s.run_until_idle().unwrap();
    let crm = s.queue_bodies("crm").unwrap();
    assert_eq!(crm.len(), 1);
    assert!(
        crm[0].contains("<refuse/>"),
        "unpaid bill leads to refusal: {}",
        crm[0]
    );

    // A different customer is accepted.
    s.enqueue_external(
        "finance",
        "<requestCustomerInfo><requestID>r2</requestID><customerID>c10</customerID></requestCustomerInfo>",
    )
    .unwrap();
    s.run_until_idle().unwrap();
    let crm = s.queue_bodies("crm").unwrap();
    assert!(crm[1].contains("<accept/>"), "{}", crm[1]);
}

#[test]
fn properties_and_slicing_join() {
    // Fig. 7-style join: act only when both parts arrived.
    let s = server(
        r#"
        create queue parts kind basic mode persistent
        create queue joined kind basic mode persistent
        create property reqID as xs:string fixed
          queue parts value //rid
        create slicing byRequest on reqID
        create rule join for byRequest
          if (qs:slice()[/left] and qs:slice()[/right]) then
            do enqueue <complete>{qs:slicekey()}</complete> into joined
        "#,
    );
    s.enqueue_external("parts", "<left><rid>A</rid></left>")
        .unwrap();
    s.run_until_idle().unwrap();
    assert!(
        s.queue_bodies("joined").unwrap().is_empty(),
        "only one part so far"
    );
    s.enqueue_external("parts", "<right><rid>A</rid></right>")
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("joined").unwrap(),
        ["<complete>A</complete>"]
    );

    // A different request id joins independently. (Each part is processed
    // before the next arrives; if both committed before either is
    // processed, the ECA semantics would fire the join once per arrival —
    // which is why the paper's Fig. 8 resets the slice after acting.)
    s.enqueue_external("parts", "<right><rid>B</rid></right>")
        .unwrap();
    s.run_until_idle().unwrap();
    s.enqueue_external("parts", "<left><rid>B</rid></left>")
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("joined").unwrap().len(), 2);
}

#[test]
fn join_without_reset_fires_once_per_satisfied_arrival() {
    // Documents the ECA semantics: when both parts are committed before
    // either is processed, the join condition holds during both
    // processings.
    let s = server(
        r#"
        create queue parts kind basic mode persistent
        create queue joined kind basic mode persistent
        create property reqID as xs:string fixed queue parts value //rid
        create slicing byRequest on reqID
        create rule join for byRequest
          if (qs:slice()[/left] and qs:slice()[/right]) then
            do enqueue <complete>{qs:slicekey()}</complete> into joined
        "#,
    );
    s.enqueue_external("parts", "<right><rid>B</rid></right>")
        .unwrap();
    s.enqueue_external("parts", "<left><rid>B</rid></left>")
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("joined").unwrap().len(), 2);
}

#[test]
fn join_with_reset_is_exactly_once() {
    // The paper's own remedy (Fig. 8): a cleanup rule resets the slice once
    // the completion is sent, so the second processing sees an empty slice.
    let s = server(
        r#"
        create queue parts kind basic mode persistent
        create queue joined kind basic mode persistent
        create property reqID as xs:string fixed queue parts value //rid
        create slicing byRequest on reqID
        create rule join for byRequest
          if (qs:slice()[/left] and qs:slice()[/right]
              and not(qs:queue("joined")[/complete = qs:slicekey()])) then
            do enqueue <complete>{qs:slicekey()}</complete> into joined
        create rule cleanup for byRequest
          if (qs:queue("joined")[/complete = qs:slicekey()]) then do reset
        "#,
    );
    s.enqueue_external("parts", "<right><rid>B</rid></right>")
        .unwrap();
    s.enqueue_external("parts", "<left><rid>B</rid></left>")
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("joined").unwrap().len(), 1);
}

#[test]
fn slice_reset_and_retention_gc() {
    let s = server(
        r#"
        create queue q kind basic mode persistent
        create property key as xs:string fixed queue q value //k
        create slicing byKey on key
        create rule cleanup for byKey
          if (qs:slice()[/finish]) then do reset
        "#,
    );
    s.enqueue_external("q", "<work><k>x</k></work>").unwrap();
    s.run_until_idle().unwrap();
    // Processed but retained by the slice: GC keeps it.
    assert_eq!(s.gc().unwrap(), 0);
    assert_eq!(s.queue_bodies("q").unwrap().len(), 1);

    // The finish message triggers the reset; then everything is purgeable.
    s.enqueue_external("q", "<finish><k>x</k></finish>")
        .unwrap();
    s.run_until_idle().unwrap();
    let purged = s.gc().unwrap();
    assert_eq!(purged, 2, "work + finish both released");
    assert!(s.queue_bodies("q").unwrap().is_empty());
}

/// Counts and sums each arrival's slice; a `flush` resets it.
const TALLY: &str = r#"
    create queue q kind basic mode persistent
    create queue out kind basic mode persistent
    create property key as xs:string fixed queue q value //@k
    create slicing byKey on key
    create rule tally for byKey
      if (qs:message()/m) then
        do enqueue <seen at="{qs:message()/m/@n}" n="{count(qs:slice())}"
                         sum="{sum(qs:slice()//@v)}"/> into out
    create rule roll for byKey
      if (qs:message()/flush) then do reset
"#;

#[test]
fn a_message_whose_slice_was_reset_before_processing_fires_on_the_new_lifetime() {
    let s = server(TALLY);
    // One burst: the flush resets the slice before m2 is processed, and
    // m2 leaves it with the old lifetime.
    for xml in [
        "<m k='a' n='1' v='2'/>",
        "<flush k='a'/>",
        "<m k='a' n='2' v='3'/>",
    ] {
        s.enqueue_external("q", xml).unwrap();
    }
    s.run_until_idle().unwrap();
    s.enqueue_external("q", "<m k='a' n='3' v='5'/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("out").unwrap(),
        [
            r#"<seen at="1" n="3" sum="5"/>"#,
            r#"<seen at="2" n="0" sum="0"/>"#,
            r#"<seen at="3" n="1" sum="5"/>"#,
        ]
    );
    // Each message joined one slice, found by name once, at ingest;
    // processing went by the handles.
    let lookups = s
        .metrics()
        .registry
        .counter_total("demaq_store_slice_lookups_total");
    assert_eq!(lookups, 4);
}

/// Slices, their aggregates and resets answer the same after a clean drop
/// and reopen — replayed from the log, or restored from a checkpoint
/// after GC and narrowing — as on a server that never stopped. One
/// message waits across the stop, out of the slice a reset emptied.
#[test]
fn slice_answers_survive_a_reopen() {
    let open = |dir: &std::path::Path| {
        Server::builder()
            .program(TALLY)
            .dir(dir)
            .sync_policy(SyncPolicy::Batch)
            .build()
            .unwrap()
    };
    let run = |stop: Option<bool>| -> Vec<String> {
        let dir = TempDir::new().unwrap();
        let mut s = open(dir.path());
        for xml in [
            "<m k='a' n='1' v='2'/>",
            "<m k='b' n='2' v='3'/>",
            "<flush k='a'/>",
            "<m k='a' n='3' v='5'/>",
        ] {
            s.enqueue_external("q", xml).unwrap();
        }
        // m1, m2 and the flush; m3 waits.
        for _ in 0..3 {
            assert!(s.step().unwrap());
        }
        if let Some(maintain) = stop {
            if maintain {
                s.maintenance().unwrap();
            }
            drop(s);
            s = open(dir.path());
        }
        s.run_until_idle().unwrap();
        for xml in ["<m k='a' n='4' v='7'/>", "<m k='b' n='5' v='11'/>"] {
            s.enqueue_external("q", xml).unwrap();
        }
        s.run_until_idle().unwrap();
        s.queue_bodies("out").unwrap()
    };
    let want = run(None);
    assert_eq!(
        want,
        [
            r#"<seen at="1" n="3" sum="7"/>"#,
            r#"<seen at="2" n="1" sum="3"/>"#,
            r#"<seen at="3" n="0" sum="0"/>"#,
            r#"<seen at="4" n="1" sum="7"/>"#,
            r#"<seen at="5" n="2" sum="14"/>"#,
        ]
    );
    assert_eq!(run(Some(false)), want, "replayed from the log");
    assert_eq!(run(Some(true)), want, "restored from a checkpoint");
}

#[test]
fn inherited_properties_propagate_through_rules() {
    let s = server(
        r#"
        create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create property vip as xs:boolean inherited queue a, b value false
        create rule fwd for a if (//m) then do enqueue <m2/> into b
        "#,
    );
    s.enqueue_external_with_props("a", "<m/>", &[("vip".to_string(), Atomic::Bool(true))])
        .unwrap();
    s.run_until_idle().unwrap();
    let msgs = s.queue_messages("b").unwrap();
    assert_eq!(msgs.len(), 1);
    assert_eq!(
        msgs[0].prop("vip"),
        Some(&PropValue::Bool(true)),
        "inherited from trigger"
    );
    // System properties present too.
    assert_eq!(
        msgs[0].prop("creatingRule"),
        Some(&PropValue::Str("fwd".into()))
    );
}

#[test]
fn with_clause_sets_explicit_property() {
    let s = server(
        r#"
        create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create rule fwd for a
          if (//m) then do enqueue <out/> into b with Sender value "http://ws.chem.invalid/"
        "#,
    );
    s.enqueue_external("a", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    let msgs = s.queue_messages("b").unwrap();
    assert_eq!(
        msgs[0].prop("Sender"),
        Some(&PropValue::Str("http://ws.chem.invalid/".into()))
    );
}

#[test]
fn rule_errors_route_to_error_queue() {
    let s = server(
        r#"
        create queue q kind basic mode persistent
        create queue qErrors kind basic mode persistent
        create rule failing for q errorqueue qErrors
          if (//m) then do enqueue <out>{1 idiv 0}</out> into q
        "#,
    );
    s.enqueue_external("q", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    let errs = s.queue_bodies("qErrors").unwrap();
    assert_eq!(errs.len(), 1);
    assert!(errs[0].contains("<applicationError/>"), "{}", errs[0]);
    assert!(errs[0].contains("<rule>failing</rule>"));
    assert!(errs[0].contains("<initialMessage><m/></initialMessage>"));
    assert_eq!(s.stats().errors_routed, 1);
}

#[test]
fn queue_level_error_queue_fallback() {
    let s = server(
        r#"
        create queue q kind basic mode persistent errorqueue qeq
        create queue qeq kind basic mode persistent
        create rule failing for q
          if (//m) then do enqueue <out>{exactly-one(())}</out> into q
        "#,
    );
    s.enqueue_external("q", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("qeq").unwrap().len(), 1);
}

#[test]
fn system_level_error_queue_fallback() {
    let s = server(
        r#"
        set errorqueue sys
        create queue q kind basic mode persistent
        create queue sys kind basic mode persistent
        create rule failing for q
          if (//m) then do enqueue <out>{$undefined}</out> into q
        "#,
    );
    s.enqueue_external("q", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("sys").unwrap().len(), 1);
}

#[test]
fn failing_message_still_marked_processed() {
    let s = server(
        r#"
        set errorqueue sys
        create queue q kind basic mode persistent
        create queue sys kind basic mode persistent
        create rule failing for q if (//m) then do enqueue <x>{1 idiv 0}</x> into q
        "#,
    );
    s.enqueue_external("q", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    // The failed message is processed (not retried forever) and unsliced,
    // so GC removes it.
    assert!(s.gc().unwrap() >= 1);
}

#[test]
fn schema_enforcement_on_enqueue() {
    let s = server(
        r#"
        set errorqueue sys
        create schema strict {
            root order
            element order { id }
            element id text integer
        }
        create queue sys kind basic mode persistent
        create queue src kind basic mode persistent
        create queue dst kind basic mode persistent schema strict
        create rule fwd for src
          if (//m) then do enqueue <notAnOrder/> into dst
        "#,
    );
    // External message violating the schema is rejected synchronously.
    assert!(s.enqueue_external("dst", "<bad/>").is_err());
    assert!(s
        .enqueue_external("dst", "<order><id>5</id></order>")
        .is_ok());
    // Rule-created message violating the schema goes to the error queue.
    s.enqueue_external("src", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    let errs = s.queue_bodies("sys").unwrap();
    assert_eq!(errs.len(), 1);
    assert!(errs[0].contains("<schemaViolation/>"), "{}", errs[0]);
    assert!(
        s.queue_bodies("dst").unwrap().len() == 1,
        "only the valid order landed"
    );
}

#[test]
fn echo_queue_timer_fires() {
    // Paper Sec. 2.1.3 + Example 3.4 infrastructure.
    let s = server(
        r#"
        create queue echoQueue kind echo mode persistent
        create queue finance kind basic mode persistent
        create rule start for finance
          if (//invoice) then
            do enqueue <timeoutNotification>{//requestID}</timeoutNotification> into echoQueue
              with delay value "PT30S"
              with target value "finance"
        "#,
    );
    s.enqueue_external("finance", "<invoice><requestID>r7</requestID></invoice>")
        .unwrap();
    s.run_until_idle().unwrap();
    // run_until_idle fast-forwards the virtual clock past the 30s timeout.
    let bodies = s.queue_bodies("finance").unwrap();
    assert!(
        bodies.iter().any(|b| b.contains("timeoutNotification")),
        "timeout notification came back: {bodies:?}"
    );
    assert_eq!(s.stats().timers_fired, 1);
    assert!(s.clock().now() >= 30_000, "clock fast-forwarded");
}

#[test]
fn echo_message_missing_props_is_a_timer_error() {
    let s = server(
        r#"
        set errorqueue sys
        create queue sys kind basic mode persistent
        create queue echoQueue kind echo mode persistent
        "#,
    );
    s.enqueue_external("echoQueue", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    let errs = s.queue_bodies("sys").unwrap();
    assert_eq!(errs.len(), 1);
    assert!(errs[0].contains("<timerError/>"));
}

#[test]
fn crash_recovery_reprocesses_unprocessed_messages() {
    let dir = TempDir::new().unwrap();
    let program = r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create rule fwd for inbox if (//m) then do enqueue <done/> into outbox
    "#;
    {
        let s = Server::builder()
            .program(program)
            .dir(dir.path())
            .build()
            .unwrap();
        // Enqueue but do NOT process (no run_until_idle): simulated crash
        // with pending work.
        s.enqueue_external("inbox", "<m/>").unwrap();
    }
    let s = Server::builder()
        .program(program)
        .dir(dir.path())
        .build()
        .unwrap();
    let processed = s.run_until_idle().unwrap();
    assert!(
        processed >= 1,
        "recovered message was scheduled and processed"
    );
    assert_eq!(s.queue_bodies("outbox").unwrap(), ["<done/>"]);
}

#[test]
fn exactly_once_processing_across_restart() {
    let dir = TempDir::new().unwrap();
    let program = r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create rule fwd for inbox if (//m) then do enqueue <done/> into outbox
    "#;
    {
        let s = Server::builder()
            .program(program)
            .dir(dir.path())
            .build()
            .unwrap();
        s.enqueue_external("inbox", "<m/>").unwrap();
        s.run_until_idle().unwrap();
        assert_eq!(s.queue_bodies("outbox").unwrap().len(), 1);
    }
    let s = Server::builder()
        .program(program)
        .dir(dir.path())
        .build()
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("outbox").unwrap().len(),
        1,
        "already-processed message is not reprocessed after restart"
    );
}

#[test]
fn priority_scheduling_order() {
    let s = server(
        r#"
        create queue hi kind basic mode persistent priority 10
        create queue lo kind basic mode persistent priority 0
        create queue log kind basic mode persistent
        create rule rh for hi if (//m) then do enqueue <hi/> into log
        create rule rl for lo if (//m) then do enqueue <lo/> into log
        "#,
    );
    // Enqueue low first; high-priority must still be processed first.
    s.enqueue_external("lo", "<m/>").unwrap();
    s.enqueue_external("hi", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("log").unwrap(), ["<hi/>", "<lo/>"]);
}

#[test]
fn parallel_processing_is_correct() {
    for granularity in [LockGranularity::Queue, LockGranularity::Slice] {
        let s = Server::builder()
            .program(
                r#"
                create queue work kind basic mode persistent
                create queue out kind basic mode persistent
                create property grp as xs:string fixed queue work, out value //g
                create slicing groups on grp
                create rule process for work
                  if (//job) then do enqueue <result><g>{string(//g)}</g></result> into out
                "#,
            )
            .in_memory()
            .sync_policy(SyncPolicy::Batch)
            .lock_granularity(granularity)
            .build()
            .unwrap();
        for i in 0..60 {
            s.enqueue_external("work", &format!("<job><g>g{}</g></job>", i % 6))
                .unwrap();
        }
        s.process_all_parallel(4).unwrap();
        assert_eq!(
            s.queue_bodies("out").unwrap().len(),
            60,
            "all jobs processed exactly once under {granularity:?}"
        );
    }
}

#[test]
fn collections_accessible_from_rules() {
    let prices = demaq_xml::parse("<pricelist><item name='acid'>10</item></pricelist>").unwrap();
    let s = Server::builder()
        .program(
            r#"
            create queue q kind basic mode persistent
            create queue out kind basic mode persistent
            create rule quote for q
              if (//request) then
                do enqueue <offer>{collection("crm")//item[@name = 'acid']/text()}</offer> into out
            "#,
        )
        .in_memory()
        .collection("crm", vec![prices])
        .build()
        .unwrap();
    s.enqueue_external("q", "<request/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("out").unwrap(), ["<offer>10</offer>"]);
}

#[test]
fn maintenance_checkpoint_and_gc() {
    let dir = TempDir::new().unwrap();
    let program = r#"
        create queue q kind basic mode persistent
        create queue out kind basic mode persistent
        create rule fwd for q if (//m) then do enqueue <o/> into out
    "#;
    {
        let s = Server::builder()
            .program(program)
            .dir(dir.path())
            .build()
            .unwrap();
        for _ in 0..10 {
            s.enqueue_external("q", "<m/>").unwrap();
        }
        s.run_until_idle().unwrap();
        // Everything is processed and nothing is sliced: inputs AND outputs
        // are purgeable — "messages which are not part of any slice may be
        // deleted … as soon as [they have] been processed" (Sec. 2.3.3).
        let purged = s.maintenance().unwrap();
        assert_eq!(purged, 20, "10 inputs + 10 results purged");
    }
    // Restart after checkpoint: the purge survives.
    let s = Server::builder()
        .program(program)
        .dir(dir.path())
        .build()
        .unwrap();
    assert!(s.queue_bodies("out").unwrap().is_empty());
    assert!(s.queue_bodies("q").unwrap().is_empty());
}

#[test]
fn sliced_results_survive_maintenance() {
    // Results that belong to a slice are retained across GC + restart.
    let dir = TempDir::new().unwrap();
    let program = r#"
        create queue q kind basic mode persistent
        create queue out kind basic mode persistent
        create property key as xs:string fixed queue out value //k
        create slicing audit on key
        create rule fwd for q if (//m) then do enqueue <o><k>{string(//m/@k)}</k></o> into out
    "#;
    {
        let s = Server::builder()
            .program(program)
            .dir(dir.path())
            .build()
            .unwrap();
        for i in 0..5 {
            s.enqueue_external("q", &format!("<m k='k{i}'/>")).unwrap();
        }
        s.run_until_idle().unwrap();
        let purged = s.maintenance().unwrap();
        assert_eq!(purged, 5, "only the unsliced inputs are purged");
    }
    let s = Server::builder()
        .program(program)
        .dir(dir.path())
        .build()
        .unwrap();
    assert_eq!(
        s.queue_bodies("out").unwrap().len(),
        5,
        "audit slice retains results"
    );
}
