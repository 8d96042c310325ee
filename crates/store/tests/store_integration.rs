//! Integration tests: transactions, durability, crash recovery, retention.

use demaq_store::store::SyncPolicy;
use demaq_store::{
    LockGranularity, LockKey, LockMode, MessageStore, MsgId, PropValue, QueueMode, StoreOptions,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempfile::TempDir;

fn open(dir: &TempDir) -> MessageStore {
    MessageStore::open(StoreOptions::new(dir.path())).unwrap()
}

fn enqueue_one(store: &MessageStore, queue: &str, payload: &str) -> MsgId {
    let txn = store.begin();
    let id = store
        .enqueue(txn, queue, payload.into(), vec![], 0)
        .unwrap();
    store.commit(txn).unwrap();
    id
}

#[test]
fn enqueue_and_read_back() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store.create_queue("crm", QueueMode::Persistent, 0).unwrap();
    let id = enqueue_one(
        &store,
        "crm",
        "<offerRequest><requestID>1</requestID></offerRequest>",
    );
    let msgs = store.queue_messages("crm").unwrap();
    assert_eq!(msgs.len(), 1);
    assert_eq!(msgs[0].id, id);
    assert_eq!(
        msgs[0].payload,
        "<offerRequest><requestID>1</requestID></offerRequest>"
    );
    assert!(!msgs[0].processed);
}

#[test]
fn arrival_order_is_preserved() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    for i in 0..20 {
        enqueue_one(&store, "q", &format!("<m>{i}</m>"));
    }
    let msgs = store.queue_messages("q").unwrap();
    let bodies: Vec<String> = msgs.iter().map(|m| m.payload.to_string()).collect();
    let expected: Vec<String> = (0..20).map(|i| format!("<m>{i}</m>")).collect();
    assert_eq!(bodies, expected);
}

#[test]
fn unknown_queue_rejected() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    let txn = store.begin();
    assert!(store
        .enqueue(txn, "nope", "<m/>".into(), vec![], 0)
        .is_err());
    store.abort(txn);
}

#[test]
fn abort_discards_effects() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    let txn = store.begin();
    store
        .enqueue(txn, "q", "<never/>".into(), vec![], 0)
        .unwrap();
    store.abort(txn);
    assert!(store.queue_messages("q").unwrap().is_empty());
}

#[test]
fn transaction_is_atomic_across_queues() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store.create_queue("a", QueueMode::Persistent, 0).unwrap();
    store.create_queue("b", QueueMode::Persistent, 0).unwrap();
    let txn = store.begin();
    store.enqueue(txn, "a", "<m/>".into(), vec![], 0).unwrap();
    store.enqueue(txn, "b", "<m/>".into(), vec![], 0).unwrap();
    // Nothing visible before commit.
    assert!(store.queue_messages("a").unwrap().is_empty());
    store.commit(txn).unwrap();
    assert_eq!(store.queue_messages("a").unwrap().len(), 1);
    assert_eq!(store.queue_messages("b").unwrap().len(), 1);
}

#[test]
fn properties_roundtrip() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    let txn = store.begin();
    let props: Vec<(demaq_store::Name, PropValue)> = vec![
        ("orderID".into(), PropValue::Str("o-77".into())),
        ("isVIPorder".into(), PropValue::Bool(true)),
        ("amount".into(), PropValue::Int(950)),
    ];
    store
        .enqueue(txn, "q", "<order/>".into(), props.clone(), 42)
        .unwrap();
    store.commit(txn).unwrap();
    let msg = &store.queue_messages("q").unwrap()[0];
    assert_eq!(*msg.props, *props);
    assert_eq!(msg.prop("orderID"), Some(&PropValue::Str("o-77".into())));
    assert_eq!(msg.enqueued_at, 42);
}

#[test]
fn crash_recovery_replays_committed_transactions() {
    let dir = TempDir::new().unwrap();
    let id;
    {
        let store = open(&dir);
        store.create_queue("crm", QueueMode::Persistent, 0).unwrap();
        id = enqueue_one(&store, "crm", "<survives/>");
        // Uncommitted transaction: must vanish.
        let txn = store.begin();
        store
            .enqueue(txn, "crm", "<lost/>".into(), vec![], 0)
            .unwrap();
        // Simulated crash: store dropped without commit/checkpoint.
    }
    let store = open(&dir);
    let msgs = store.queue_messages("crm").unwrap();
    assert_eq!(msgs.len(), 1);
    assert_eq!(msgs[0].id, id);
    assert_eq!(msgs[0].payload, "<survives/>");
}

#[test]
fn recovery_restores_slices_and_processed_flags() {
    let dir = TempDir::new().unwrap();
    let key = PropValue::Str("23".into());
    let (m1, m2);
    {
        let store = open(&dir);
        store
            .create_queue("orders", QueueMode::Persistent, 0)
            .unwrap();
        let txn = store.begin();
        m1 = store
            .enqueue(txn, "orders", "<o>1</o>".into(), vec![], 0)
            .unwrap();
        m2 = store
            .enqueue(txn, "orders", "<o>2</o>".into(), vec![], 0)
            .unwrap();
        store.slice_add(txn, "customer", key.clone(), m1).unwrap();
        store.slice_add(txn, "customer", key.clone(), m2).unwrap();
        store.commit(txn).unwrap();
        let txn = store.begin();
        store.mark_processed(txn, m1).unwrap();
        store.commit(txn).unwrap();
    }
    let store = open(&dir);
    assert_eq!(store.slice_members("customer", &key), vec![m1, m2]);
    let msgs = store.queue_messages("orders").unwrap();
    assert!(msgs.iter().find(|m| m.id == m1).unwrap().processed);
    assert!(!msgs.iter().find(|m| m.id == m2).unwrap().processed);
}

#[test]
fn recovery_after_checkpoint_and_more_commits() {
    let dir = TempDir::new().unwrap();
    {
        let store = open(&dir);
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        for i in 0..10 {
            enqueue_one(&store, "q", &format!("<pre>{i}</pre>"));
        }
        store.checkpoint().unwrap();
        for i in 0..5 {
            enqueue_one(&store, "q", &format!("<post>{i}</post>"));
        }
    }
    let store = open(&dir);
    let msgs = store.queue_messages("q").unwrap();
    assert_eq!(msgs.len(), 15);
    assert!(msgs[0].payload.starts_with("<pre>"));
    assert!(msgs[14].payload.starts_with("<post>"));
}

#[test]
fn repeated_checkpoint_recover_cycles() {
    let dir = TempDir::new().unwrap();
    for round in 0..4 {
        let store = open(&dir);
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        enqueue_one(&store, "q", &format!("<r>{round}</r>"));
        if round % 2 == 0 {
            store.checkpoint().unwrap();
        }
    }
    let store = open(&dir);
    assert_eq!(store.queue_messages("q").unwrap().len(), 4);
}

#[test]
fn transient_queue_content_is_lost_on_restart() {
    let dir = TempDir::new().unwrap();
    {
        let store = open(&dir);
        store
            .create_queue("scratch", QueueMode::Transient, 0)
            .unwrap();
        store
            .create_queue("durable", QueueMode::Persistent, 0)
            .unwrap();
        enqueue_one(&store, "scratch", "<gone/>");
        enqueue_one(&store, "durable", "<kept/>");
        assert_eq!(store.queue_messages("scratch").unwrap().len(), 1);
        store.checkpoint().unwrap();
    }
    let store = open(&dir);
    store
        .create_queue("scratch", QueueMode::Transient, 0)
        .unwrap();
    assert!(store.queue_messages("scratch").unwrap().is_empty());
    assert_eq!(store.queue_messages("durable").unwrap().len(), 1);
}

#[test]
fn transient_commits_write_no_log() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store
        .create_queue("scratch", QueueMode::Transient, 0)
        .unwrap();
    let before = store.wal_bytes_logged();
    for _ in 0..10 {
        enqueue_one(&store, "scratch", "<m/>");
    }
    assert_eq!(
        store.wal_bytes_logged(),
        before,
        "transient ops must not be logged"
    );
}

#[test]
fn retention_gc_respects_slices() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    let key = PropValue::Str("grp".into());
    let txn = store.begin();
    let m = store.enqueue(txn, "q", "<m/>".into(), vec![], 0).unwrap();
    store.slice_add(txn, "s", key.clone(), m).unwrap();
    store.commit(txn).unwrap();

    // Unprocessed: never purged.
    assert_eq!(store.gc().unwrap(), 0);

    let txn = store.begin();
    store.mark_processed(txn, m).unwrap();
    store.commit(txn).unwrap();
    // Processed but still in a slice: retained.
    assert_eq!(store.gc().unwrap(), 0);
    assert_eq!(store.message_count(), 1);

    let txn = store.begin();
    store.slice_reset(txn, "s", key.clone()).unwrap();
    store.commit(txn).unwrap();
    // Processed and released: purged.
    assert_eq!(store.gc().unwrap(), 1);
    assert_eq!(store.message_count(), 0);
    assert!(store.queue_messages("q").unwrap().is_empty());
}

#[test]
fn unsliced_processed_message_purged_immediately() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    let m = enqueue_one(&store, "q", "<m/>");
    let txn = store.begin();
    store.mark_processed(txn, m).unwrap();
    store.commit(txn).unwrap();
    assert_eq!(store.gc().unwrap(), 1);
}

#[test]
fn gc_decision_is_rederived_after_crash() {
    // Paper Sec. 4.1: deletions are not logged; after a crash the store
    // re-derives them. Purge, crash, reopen: the message must stay purged.
    let dir = TempDir::new().unwrap();
    {
        let store = open(&dir);
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        let m = enqueue_one(&store, "q", "<m/>");
        let txn = store.begin();
        store.mark_processed(txn, m).unwrap();
        store.commit(txn).unwrap();
        assert_eq!(store.gc().unwrap(), 1);
        // crash without checkpoint
    }
    let store = open(&dir);
    // Replay resurrects the purged message (its enqueue is still logged);
    // the next GC re-derives the deletion without any log analysis.
    store.gc().unwrap();
    assert_eq!(store.message_count(), 0, "GC re-purges after recovery");
}

#[test]
fn slice_reset_epoch_survives_recovery() {
    let dir = TempDir::new().unwrap();
    let key = PropValue::Str("d1".into());
    {
        let store = open(&dir);
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        let txn = store.begin();
        let m1 = store.enqueue(txn, "q", "<old/>".into(), vec![], 0).unwrap();
        store.slice_add(txn, "domains", key.clone(), m1).unwrap();
        store.commit(txn).unwrap();
        let txn = store.begin();
        store.slice_reset(txn, "domains", key.clone()).unwrap();
        store.commit(txn).unwrap();
        let txn = store.begin();
        let m2 = store.enqueue(txn, "q", "<new/>".into(), vec![], 0).unwrap();
        store.slice_add(txn, "domains", key.clone(), m2).unwrap();
        store.commit(txn).unwrap();
    }
    let store = open(&dir);
    let members = store.slice_members("domains", &key);
    assert_eq!(
        members.len(),
        1,
        "only the new lifetime is visible: {members:?}"
    );
    let m = store.message(members[0]).unwrap();
    assert_eq!(m.payload, "<new/>");
}

/// What a store answers about its slices, in names only (handles are
/// process-local): each slice's members and `(len, released)`, each
/// message's joined slicings, and whether slice locks of two messages
/// conflict.
fn slice_answers(store: &MessageStore, msgs: &[(MsgId, &str)]) -> Vec<String> {
    let mut out = Vec::new();
    for (slicing, key) in [("s", "a"), ("s", "b"), ("t", "a")] {
        let key = PropValue::Str(key.into());
        let len = store.slice_id(slicing, &key).map(|id| store.slice_len(id));
        let members = store.slice_members(slicing, &key);
        out.push(format!("{slicing} {key:?}: {members:?} {len:?}"));
    }
    let lock_of = |msg: MsgId, slicing: &str| {
        let meta = store.message_meta(msg).unwrap();
        Some(LockKey::Slice(meta.slice_of(slicing)?))
    };
    for &(msg, key) in msgs {
        let meta = store.message_meta(msg).unwrap();
        let mut joined: Vec<String> = meta
            .slices
            .as_deref()
            .unwrap_or_default()
            .iter()
            .map(|(s, _)| s.to_string())
            .collect();
        joined.sort();
        // Each recorded handle is the slice the message's key names.
        for (slicing, id) in meta.slices.as_deref().unwrap_or_default().iter() {
            let named = store.slice_id(slicing, &PropValue::Str(key.into()));
            assert_eq!(named, Some(*id), "{msg}: {slicing}");
        }
        out.push(format!("{msg}: {joined:?}"));
    }
    for (i, &(a, _)) in msgs.iter().enumerate() {
        for &(b, _) in &msgs[i + 1..] {
            let (Some(ka), Some(kb)) = (lock_of(a, "s"), lock_of(b, "s")) else {
                continue;
            };
            let (ta, tb) = (store.begin(), store.begin());
            store.locks.acquire(ta, ka, LockMode::Exclusive).unwrap();
            let conflict = store.locks.acquire(tb, kb, LockMode::Exclusive).is_err();
            store.abort(ta);
            store.abort(tb);
            out.push(format!("{a} {b}: conflict {conflict}"));
        }
    }
    out
}

#[test]
fn slice_handles_answer_the_same_after_reopen() {
    let dir = TempDir::new().unwrap();
    let open = || {
        let mut opts = StoreOptions::new(dir.path());
        opts.lock_timeout = Duration::from_millis(20);
        MessageStore::open(opts).unwrap()
    };
    let store = open();
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    let mut msgs = Vec::new();
    for (i, key) in ["a", "b", "a", "a", "b"].into_iter().enumerate() {
        let txn = store.begin();
        let m = store
            .enqueue(txn, "q", format!("<m{i}/>").into(), vec![], 0)
            .unwrap();
        store
            .slice_add(txn, "s", PropValue::Str(key.into()), m)
            .unwrap();
        if key == "a" {
            store
                .slice_add(txn, "t", PropValue::Str(key.into()), m)
                .unwrap();
        }
        store.commit(txn).unwrap();
        msgs.push((m, key));
        if i == 2 {
            // Members 0 and 2 leave ("s", "a"); both still joined it.
            let txn = store.begin();
            store
                .slice_reset(txn, "s", PropValue::Str("a".into()))
                .unwrap();
            store.commit(txn).unwrap();
        }
    }
    let before = slice_answers(&store, &msgs);
    assert!(before.contains(&format!("{} {}: conflict true", msgs[0].0, msgs[3].0)));
    assert!(before.contains(&format!("{} {}: conflict false", msgs[0].0, msgs[1].0)));
    // A clean drop replays the log; a checkpoint restores the snapshot,
    // where a message the reset removed records no handle for it.
    drop(store);
    let store = open();
    assert_eq!(slice_answers(&store, &msgs), before, "replayed");
    store.checkpoint().unwrap();
    drop(store);
    let store = open();
    let restored = slice_answers(&store, &msgs);
    let reset_away = |line: &String| {
        let gone = [msgs[0].0.to_string(), msgs[2].0.to_string()];
        line.split([' ', ':'])
            .any(|word| gone.iter().any(|m| *m == word))
    };
    let kept = |answers: &[String]| -> Vec<String> {
        answers.iter().filter(|l| !reset_away(l)).cloned().collect()
    };
    assert_eq!(kept(&restored), kept(&before), "restored");
    let m0 = store.message_meta(msgs[0].0).unwrap();
    let joined: Vec<&str> = m0
        .slices
        .as_deref()
        .unwrap_or_default()
        .iter()
        .map(|(s, _)| &**s)
        .collect();
    assert_eq!(joined, ["t"], "the reset left only its other slice");
}

#[test]
fn unprocessed_worklist_for_scheduler() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store.create_queue("hi", QueueMode::Persistent, 10).unwrap();
    store.create_queue("lo", QueueMode::Persistent, 1).unwrap();
    enqueue_one(&store, "lo", "<a/>");
    enqueue_one(&store, "hi", "<b/>");
    let work = store.unprocessed();
    assert_eq!(work.len(), 2);
    let hi = work.iter().find(|(_, q, _)| &**q == "hi").unwrap();
    assert_eq!(hi.2, 10);
}

#[test]
fn large_messages_roundtrip_through_checkpoint() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    store.create_queue("t", QueueMode::Transient, 0).unwrap();
    let big = format!("<blob>{}</blob>", "x".repeat(50_000));
    let wide = "<w>\u{e9}\u{20ac}\u{1f600}</w>".repeat(100);
    let big_id = enqueue_one(&store, "q", &big);
    let wide_id = enqueue_one(&store, "q", &wide);
    enqueue_one(&store, "t", "<gone/>");
    // The checkpoint deletes the WAL segment holding the enqueues: after
    // the restart the payloads can only come from the snapshot.
    store.checkpoint().unwrap();
    drop(store);
    let store = open(&dir);
    store.create_queue("t", QueueMode::Transient, 0).unwrap();
    assert_eq!(store.message(big_id).unwrap().payload, big);
    assert_eq!(store.message(wide_id).unwrap().payload, wide);
    assert_eq!(store.message_count(), 2);
    assert!(store.queue_messages("t").unwrap().is_empty());
}

#[test]
fn batch_sync_policy_still_recovers_after_clean_sync() {
    let dir = TempDir::new().unwrap();
    {
        let mut opts = StoreOptions::new(dir.path());
        opts.sync = SyncPolicy::Batch;
        let store = MessageStore::open(opts).unwrap();
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        for _ in 0..50 {
            enqueue_one(&store, "q", "<m/>");
        }
        store.sync().unwrap(); // group-commit boundary
    }
    let store = open(&dir);
    assert_eq!(store.queue_messages("q").unwrap().len(), 50);
}

#[test]
fn concurrent_enqueues_from_many_threads() {
    let dir = TempDir::new().unwrap();
    let mut opts = StoreOptions::new(dir.path());
    opts.sync = SyncPolicy::Batch;
    opts.lock_granularity = LockGranularity::Slice;
    let store = Arc::new(MessageStore::open(opts).unwrap());
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..50 {
                    let txn = store.begin();
                    store
                        .locks
                        .acquire(txn, LockKey::Queue("q".into()), LockMode::Shared)
                        .unwrap();
                    store
                        .enqueue(txn, "q", format!("<m t='{t}' i='{i}'/>").into(), vec![], 0)
                        .unwrap();
                    store.commit(txn).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(store.queue_messages("q").unwrap().len(), 400);
    // Ids are unique and ordered.
    let msgs = store.queue_messages("q").unwrap();
    let mut ids: Vec<_> = msgs.iter().map(|m| m.id).collect();
    let before = ids.clone();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 400);
    assert_eq!(before, ids, "queue order matches arrival (id) order");
}

#[test]
fn lock_timeout_configuration() {
    let dir = TempDir::new().unwrap();
    let mut opts = StoreOptions::new(dir.path());
    opts.lock_timeout = Duration::from_millis(30);
    let store = MessageStore::open(opts).unwrap();
    let t1 = store.begin();
    let t2 = store.begin();
    store
        .locks
        .acquire(t1, LockKey::Queue("q".into()), LockMode::Exclusive)
        .unwrap();
    assert!(store
        .locks
        .acquire(t2, LockKey::Queue("q".into()), LockMode::Exclusive)
        .is_err());
    store.abort(t1);
    store.abort(t2);
}

#[test]
fn checkpoint_truncates_wal() {
    let dir = TempDir::new().unwrap();
    let store = open(&dir);
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    for _ in 0..20 {
        enqueue_one(&store, "q", "<m/>");
    }
    store.checkpoint().unwrap();
    // The new segment starts (nearly) empty.
    assert!(store.wal_bytes_logged() < 100);
    // Old segments removed.
    let wal_files: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .collect();
    assert_eq!(wal_files.len(), 1);
}

#[test]
fn gc_of_many_messages_does_not_stall_committers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    // Purging a large backlog must not block committers for long: the
    // only work under the state write lock is the (linear, in-memory)
    // logical removal.
    let dir = TempDir::new().unwrap();
    let store = Arc::new(open(&dir));
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    for b in 0..20 {
        let txn = store.begin();
        let ids: Vec<MsgId> = (0..500)
            .map(|i| {
                store
                    .enqueue(txn, "q", format!("<m>{b}-{i}</m>").into(), vec![], 0)
                    .unwrap()
            })
            .collect();
        store.commit(txn).unwrap();
        let txn = store.begin();
        for id in ids {
            store.mark_processed(txn, id).unwrap();
        }
        store.commit(txn).unwrap();
    }
    let gc_done = Arc::new(AtomicBool::new(false));
    let gc = {
        let store = Arc::clone(&store);
        let done = Arc::clone(&gc_done);
        std::thread::spawn(move || {
            let purged = store.gc_collect().unwrap().len();
            done.store(true, Ordering::SeqCst);
            purged
        })
    };
    // While the GC sweeps 10k messages, commits must keep completing
    // within a bounded wait.
    let mut max_latency = Duration::ZERO;
    loop {
        let t0 = Instant::now();
        enqueue_one(&store, "q", "<during-gc/>");
        max_latency = max_latency.max(t0.elapsed());
        if gc_done.load(Ordering::SeqCst) {
            break;
        }
    }
    let purged = gc.join().unwrap();
    assert_eq!(purged, 10_000, "GC missed processed messages");
    assert!(
        max_latency < Duration::from_secs(2),
        "a commit stalled {max_latency:?} behind the concurrent GC"
    );
}
