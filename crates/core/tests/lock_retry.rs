//! A message whose transaction times out waiting for a lock is retried
//! exactly once, through the scheduler: the requeue is the only retry
//! path.

use demaq::Server;
use demaq_store::store::SyncPolicy;
use demaq_store::{LockGranularity, LockKey, LockMode};
use std::time::{Duration, Instant};

#[test]
fn a_lock_timeout_processes_the_message_once() {
    let server = Server::builder()
        .program(
            "create queue inbox kind basic mode persistent\n\
             create queue out kind basic mode persistent\n\
             create rule fwd for inbox if (//a) then do enqueue <b/> into out",
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .lock_granularity(LockGranularity::Queue)
        .build()
        .unwrap();
    server.enqueue_external("inbox", "<a/>").unwrap();
    let store = server.store();
    let obs = server.metrics();
    let counter = |name| obs.registry.counter_total(name);
    let timeouts = || counter("demaq_store_lock_timeouts_total");

    // A foreign transaction holds the message's queue until the engine's
    // first attempt has timed out on it, then lets go.
    let foreign = store.begin();
    store
        .locks
        .acquire(foreign, LockKey::Queue("inbox".into()), LockMode::Exclusive)
        .unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(60);
            while timeouts() == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            store.abort(foreign);
        });
        assert!(server.step().unwrap(), "the step dealt with the message");
    });
    assert_eq!(timeouts(), 1);
    server.run_until_idle().unwrap();

    assert_eq!(server.queue_bodies("out").unwrap(), ["<b/>"]);
    assert_eq!(counter("demaq_engine_requeues_total"), 1);
    // The trigger and its product, once each.
    assert_eq!(counter("demaq_engine_processed_total"), 2);
}
