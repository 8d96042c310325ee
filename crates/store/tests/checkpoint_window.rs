//! Tests that act inside a checkpoint's out-of-lock write window.
//!
//! They arm the process-wide `DEMAQ_CKPT_SLOW_WRITE_MS` failpoint, which
//! every `checkpoint()` in the process reads, so they live in a binary of
//! their own: no other test's checkpoint can be slowed by it, and no other
//! thread reads the environment while it is being set. Within this binary
//! each test holds `CKPT_FAILPOINT` for its whole run.

use demaq_store::checkpoint::Snapshot;
use demaq_store::{MessageStore, MsgId, QueueMode, StoreOptions};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tempfile::TempDir;

static CKPT_FAILPOINT: Mutex<()> = Mutex::new(());

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

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn commits_progress_while_checkpoint_writes() {
    let _failpoint = CKPT_FAILPOINT.lock().unwrap_or_else(|e| e.into_inner());
    // Regression: `checkpoint()` used to hold the commit-order and state
    // locks across the snapshot *write*; a large (here: artificially slow)
    // checkpoint stalled every committer for its full duration. The cut
    // still happens under the locks, the write must not.
    let dir = TempDir::new().unwrap();
    let store = Arc::new(open(&dir));
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    for i in 0..200 {
        enqueue_one(&store, "q", &format!("<m>{i}</m>"));
    }
    std::env::set_var("DEMAQ_CKPT_SLOW_WRITE_MS", "2000");
    let ckpt_done = Arc::new(AtomicBool::new(false));
    let ckpt = {
        let store = Arc::clone(&store);
        let done = Arc::clone(&ckpt_done);
        std::thread::spawn(move || {
            store.checkpoint().unwrap();
            done.store(true, Ordering::SeqCst);
        })
    };
    // Let the checkpoint take its cut and enter the slow write window.
    std::thread::sleep(Duration::from_millis(200));
    let committed = enqueue_one(&store, "q", "<during-checkpoint/>");
    let still_writing = !ckpt_done.load(Ordering::SeqCst);
    ckpt.join().unwrap();
    std::env::remove_var("DEMAQ_CKPT_SLOW_WRITE_MS");
    assert!(
        still_writing,
        "checkpoint finished before the concurrent commit — the slow-write \
         failpoint did not arm and the test exercised nothing"
    );
    assert_eq!(
        store.message(committed).unwrap().payload,
        "<during-checkpoint/>"
    );
}

#[test]
fn gc_between_checkpoints_never_breaks_the_published_snapshot() {
    // Regression: GC used to free a purged message's payload record while
    // the published snapshot still referenced it. A crash before the next
    // snapshot was published then failed recovery with `NotFound`.
    let _failpoint = CKPT_FAILPOINT.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new().unwrap();
    let store = Arc::new(open(&dir));
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    let m = enqueue_one(&store, "q", "<m>\u{e9}</m>");
    store.checkpoint().unwrap();
    let txn = store.begin();
    store.mark_processed(txn, m).unwrap();
    store.commit(txn).unwrap();
    assert_eq!(store.gc().unwrap(), 1);

    // A second checkpoint, held in its write window: it has rotated the
    // WAL but not yet published its snapshot.
    std::env::set_var("DEMAQ_CKPT_SLOW_WRITE_MS", "2000");
    let ckpt = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.checkpoint().unwrap())
    };
    let rotated = dir.path().join("wal-000002.log");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !rotated.exists() {
        assert!(
            Instant::now() < deadline,
            "second checkpoint never rotated the WAL"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // What a crash right now would leave on disk.
    let crashed = TempDir::new().unwrap();
    copy_dir(dir.path(), crashed.path());
    ckpt.join().unwrap();
    std::env::remove_var("DEMAQ_CKPT_SLOW_WRITE_MS");
    let published = Snapshot::read_from(&crashed.path().join("ckpt.snap")).unwrap();
    assert_eq!(
        published.map(|s| s.wal_index),
        Some(1),
        "the copy must hold the first checkpoint's snapshot"
    );

    let reopened = open(&crashed);
    assert_eq!(reopened.message(m).unwrap().payload, "<m>\u{e9}</m>");
    assert_eq!(reopened.gc().unwrap(), 1, "GC re-purges after recovery");
    assert_eq!(reopened.message_count(), 0);
}

#[test]
fn a_commit_inside_the_window_syncs_the_new_segments_entry_itself() {
    let _failpoint = CKPT_FAILPOINT.lock().unwrap_or_else(|e| e.into_inner());
    // A checkpoint's directory sync after the snapshot rename also covers
    // the segment its cut rotated to, so that segment's first sync skips
    // its own. A commit that syncs the segment earlier, inside the write
    // window, cannot wait for that: it syncs the directory itself.
    let dir = TempDir::new().unwrap();
    let obs = demaq_obs::Obs::new();
    let mut opts = StoreOptions::new(dir.path());
    opts.obs = Some(Arc::clone(&obs));
    let store = Arc::new(MessageStore::open(opts).unwrap());
    let counter = |name| obs.registry.counter_total(name);
    let syncs = || {
        (
            counter("demaq_store_wal_syncs_total"),
            counter("demaq_store_dir_syncs_total"),
        )
    };
    store.create_queue("q", QueueMode::Persistent, 0).unwrap();
    enqueue_one(&store, "q", "<before/>");
    assert_eq!(syncs(), (1, 1), "a fresh store's first commit");
    std::env::set_var("DEMAQ_CKPT_SLOW_WRITE_MS", "1000");
    let ckpt_done = Arc::new(AtomicBool::new(false));
    let ckpt = {
        let store = Arc::clone(&store);
        let done = Arc::clone(&ckpt_done);
        std::thread::spawn(move || {
            store.checkpoint().unwrap();
            done.store(true, Ordering::SeqCst);
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    enqueue_one(&store, "q", "<during-checkpoint/>");
    let still_writing = !ckpt_done.load(Ordering::SeqCst);
    let during = syncs();
    ckpt.join().unwrap();
    std::env::remove_var("DEMAQ_CKPT_SLOW_WRITE_MS");
    assert!(
        still_writing,
        "checkpoint finished before the concurrent commit — the slow-write \
         failpoint did not arm and the test exercised nothing"
    );
    assert_eq!(during, (2, 2), "the early commit synced the new entry");
    assert_eq!(syncs(), (2, 3), "then the checkpoint's own rename");
    enqueue_one(&store, "q", "<after/>");
    assert_eq!(syncs(), (3, 3), "later commits sync no directory");
}
