//! Stress and adversarial scenarios: cross-writing rule sets, rule
//! cascades, bursty slicing, checkpoint-under-load, and mixed
//! persistent/transient pipelines.

use demaq::Server;
use demaq_store::store::SyncPolicy;
use demaq_store::LockGranularity;
use tempfile::TempDir;

#[test]
fn cross_writing_rules_under_queue_locks_do_not_deadlock_forever() {
    // Rules on `a` write into `b` and vice versa: with queue-granularity
    // exclusive locks two workers each need both queues. Every worker
    // takes its locks up front in one key order (`a` before `b`), so no
    // wait-for cycle can form and no transaction ever waits out its lock
    // timeout.
    let s = Server::builder()
        .program(
            r#"
            create queue a kind basic mode persistent
            create queue b kind basic mode persistent
            create queue done kind basic mode persistent
            create rule ab for a if (//ping) then do enqueue <t/> into done
            create rule ab2 for a if (//hop) then do enqueue <ping/> into b
            create rule ba for b if (//ping) then do enqueue <t/> into done
            create rule ba2 for b if (//hop) then do enqueue <ping/> into a
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .lock_granularity(LockGranularity::Queue)
        .build()
        .unwrap();
    for i in 0..40 {
        let q = if i % 2 == 0 { "a" } else { "b" };
        s.enqueue_external(q, "<hop/>").unwrap();
    }
    let done = s.process_all_parallel(4).unwrap();
    assert!(done >= 40, "all initial messages processed, got {done}");
    // Cascade completes: every hop produced a ping, every ping a t.
    s.process_all_parallel(4).unwrap();
    assert_eq!(s.queue_bodies("done").unwrap().len(), 40);
    // The timeout requeue is a backstop and must not fire here.
    assert_eq!(
        s.metrics()
            .registry
            .counter_total("demaq_engine_requeues_total"),
        0,
        "ordered acquisition never deadlocks"
    );
}

#[test]
fn deep_rule_cascade() {
    // A chain of 24 queues, each forwarding — exercises scheduler + txn
    // machinery over a long causal chain.
    let mut program = String::new();
    for i in 0..24 {
        program.push_str(&format!("create queue q{i} kind basic mode persistent\n"));
    }
    for i in 0..23 {
        program.push_str(&format!(
            "create rule r{i} for q{i} if (//m) then do enqueue <m step='{i}'/> into q{next}\n",
            next = i + 1
        ));
    }
    let s = Server::builder()
        .program(&program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();
    s.enqueue_external("q0", "<m step='start'/>").unwrap();
    let processed = s.run_until_idle().unwrap();
    assert_eq!(processed, 24, "one message processed per stage");
    let tail = s.queue_bodies("q23").unwrap();
    assert_eq!(tail.len(), 1);
    assert!(tail[0].contains("step='22'") || tail[0].contains("step=\"22\""));
}

#[test]
fn fanout_explosion_is_bounded_and_correct() {
    // One message fans out to 3, each of which fans out to 3 again.
    let s = Server::builder()
        .program(
            r#"
            create queue l0 kind basic mode persistent
            create queue l1 kind basic mode persistent
            create queue l2 kind basic mode persistent
            create rule f0 for l0 if (//m) then
              (do enqueue <m/> into l1, do enqueue <m/> into l1, do enqueue <m/> into l1)
            create rule f1 for l1 if (//m) then
              (do enqueue <m/> into l2, do enqueue <m/> into l2, do enqueue <m/> into l2)
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();
    for _ in 0..5 {
        s.enqueue_external("l0", "<m/>").unwrap();
    }
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("l1").unwrap().len(), 15);
    assert_eq!(s.queue_bodies("l2").unwrap().len(), 45);
    assert_eq!(s.stats().processed, 5 + 15 + 45);
}

#[test]
fn checkpoint_between_batches_under_load() {
    let dir = TempDir::new().unwrap();
    let program = r#"
        create queue work kind basic mode persistent
        create queue out kind basic mode persistent
        create property k as xs:string fixed queue out value //@k
        create slicing keep on k
        create rule fwd for work if (//m) then do enqueue <o k="{string(//m/@k)}"/> into out
    "#;
    {
        let s = Server::builder()
            .program(program)
            .dir(dir.path())
            .sync_policy(SyncPolicy::Batch)
            .build()
            .unwrap();
        for batch in 0..5 {
            for i in 0..20 {
                s.enqueue_external("work", &format!("<m k='b{batch}-{i}'/>"))
                    .unwrap();
            }
            s.run_until_idle().unwrap();
            s.maintenance().unwrap(); // GC + checkpoint every batch
        }
        assert_eq!(s.queue_bodies("out").unwrap().len(), 100);
    }
    let s = Server::builder()
        .program(program)
        .dir(dir.path())
        .build()
        .unwrap();
    assert_eq!(
        s.queue_bodies("out").unwrap().len(),
        100,
        "all results survive"
    );
    assert!(
        s.queue_bodies("work").unwrap().is_empty(),
        "inputs were GC'd"
    );
}

#[test]
fn mixed_transient_persistent_pipeline_restart() {
    let dir = TempDir::new().unwrap();
    let program = r#"
        create queue staging kind transient mode transient
        create queue archive kind basic mode persistent
        create property k as xs:string fixed queue archive value //@k
        create slicing hold on k
        create rule promote for staging if (//m) then do enqueue <m k="{string(//m/@k)}"/> into archive
    "#;
    // `kind transient` is not a kind; fix to basic.
    let program = program.replace("kind transient mode transient", "kind basic mode transient");
    {
        let s = Server::builder()
            .program(&program)
            .dir(dir.path())
            .sync_policy(SyncPolicy::Batch)
            .build()
            .unwrap();
        for i in 0..10 {
            s.enqueue_external("staging", &format!("<m k='k{i}'/>"))
                .unwrap();
        }
        s.run_until_idle().unwrap();
        // Leave 5 unprocessed transient messages behind.
        for i in 10..15 {
            s.enqueue_external("staging", &format!("<m k='k{i}'/>"))
                .unwrap();
        }
        s.store().sync().unwrap();
    }
    let s = Server::builder()
        .program(&program)
        .dir(dir.path())
        .build()
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("archive").unwrap().len(),
        10,
        "persistent results survive; unprocessed transient staging is lost by design"
    );
}

#[test]
fn many_slicings_on_one_message() {
    // A message carrying 4 properties joins 4 slicings; all retention
    // criteria must clear before GC may purge it.
    let s = Server::builder()
        .program(
            r#"
            create queue q kind basic mode persistent
            create property p1 as xs:string fixed queue q value //@a
            create property p2 as xs:string fixed queue q value //@b
            create property p3 as xs:string fixed queue q value //@c
            create property p4 as xs:string fixed queue q value //@d
            create slicing s1 on p1
            create slicing s2 on p2
            create slicing s3 on p3
            create slicing s4 on p4
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();
    s.enqueue_external("q", "<m a='1' b='2' c='3' d='4'/>")
        .unwrap();
    s.run_until_idle().unwrap();
    let store = s.store();
    let reset = |slicing: &str, key: &str| {
        let txn = store.begin();
        store
            .slice_reset(txn, slicing, demaq_store::PropValue::Str(key.into()))
            .unwrap();
        store.commit(txn).unwrap();
    };
    for (slicing, key) in [("s1", "1"), ("s2", "2"), ("s3", "3")] {
        reset(slicing, key);
        assert_eq!(s.gc().unwrap(), 0, "{slicing} reset alone must not release");
    }
    reset("s4", "4");
    assert_eq!(s.gc().unwrap(), 1, "all four criteria cleared");
}

#[test]
fn burst_of_thousand_messages() {
    let s = Server::builder()
        .program(
            r#"
            create queue q kind basic mode persistent
            create queue out kind basic mode persistent
            create rule f for q if (//m) then do enqueue <o>{string(//m/@i)}</o> into out
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();
    for i in 0..1000 {
        s.enqueue_external("q", &format!("<m i='{i}'/>")).unwrap();
    }
    s.run_until_idle().unwrap();
    let out = s.queue_bodies("out").unwrap();
    assert_eq!(out.len(), 1000);
    // FIFO order is preserved end to end.
    assert_eq!(out[0], "<o>0</o>");
    assert_eq!(out[999], "<o>999</o>");
    assert_eq!(s.gc().unwrap(), 2000, "everything processed & unsliced");
}
