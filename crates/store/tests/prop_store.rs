//! Property-based tests on storage invariants: codec roundtrips, the WAL
//! frame decoder, slice retention algebra, and recovery equivalence for
//! arbitrary committed histories.

use demaq_store::checkpoint::Snapshot;
use demaq_store::slice::SliceIndex;
use demaq_store::store::SyncPolicy;
use demaq_store::txn::TxnOp;
use demaq_store::wal::{crc32, read_log, GroupCommitCfg, LogWriter, SEGMENT_MAGIC};
use demaq_store::{MessageStore, MsgId, PropValue, QueueMode, StoreError, StoreOptions};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use tempfile::TempDir;

/// Records the largest single allocation the current thread requests
/// while [`largest_allocation`] runs a closure: the bound the decoder
/// properties check.
struct TrackLargest;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if TRACKING.with(Cell::get) {
        LARGEST.with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// each caller's guarantees are the ones `System` requires; `note` only
// touches const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for TrackLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: TrackLargest = TrackLargest;

/// Run `f`, returning its result and the largest allocation it made.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(0));
    TRACKING.with(|t| t.set(true));
    let r = f();
    TRACKING.with(|t| t.set(false));
    (r, LARGEST.with(Cell::get))
}

fn prop_value_strategy() -> impl Strategy<Value = PropValue> {
    prop_oneof![
        "[ -~]{0,16}".prop_map(PropValue::Str),
        any::<i64>().prop_map(PropValue::Int),
        any::<bool>().prop_map(PropValue::Bool),
        (-1.0e12f64..1.0e12).prop_map(PropValue::Double),
        any::<i64>().prop_map(PropValue::DateTime),
        any::<i64>().prop_map(PropValue::Duration),
    ]
}

/// Names from a pool of twelve, so transactions reuse them often.
fn name_strategy() -> impl Strategy<Value = String> {
    "[a-c]{1,2}"
}

fn op_strategy() -> impl Strategy<Value = TxnOp> {
    prop_oneof![
        (
            name_strategy(),
            any::<u64>(),
            "[ -~\u{e9}]{0,24}",
            proptest::collection::vec((name_strategy(), prop_value_strategy()), 0..4),
            any::<i64>(),
        )
            .prop_map(|(queue, msg, payload, props, enqueued_at)| TxnOp::Enqueue {
                queue: queue.into(),
                msg: MsgId(msg),
                payload: payload.into(),
                props: props.into_iter().map(|(n, v)| (n.into(), v)).collect(),
                enqueued_at,
            }),
        any::<u64>().prop_map(|msg| TxnOp::MarkProcessed { msg: MsgId(msg) }),
        (name_strategy(), prop_value_strategy(), any::<u64>()).prop_map(|(slicing, key, msg)| {
            TxnOp::SliceAdd {
                slicing: slicing.into(),
                key,
                msg: MsgId(msg),
            }
        }),
        (name_strategy(), prop_value_strategy()).prop_map(|(slicing, key)| TxnOp::SliceReset {
            slicing: slicing.into(),
            key,
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            name_strategy(),
            name_strategy()
        )
            .prop_map(|(msg, parent, root, rule, queue)| TxnOp::Lineage {
                msg: MsgId(msg),
                parent: MsgId(parent),
                root: MsgId(root),
                rule: rule.into(),
                queue: queue.into(),
            }),
    ]
}

/// Append each transaction as one frame through a writer on `path`.
fn append_all(path: &Path, txns: &[Vec<TxnOp>]) {
    let w = LogWriter::open(path, GroupCommitCfg::default()).unwrap();
    for ops in txns {
        w.append_txn(&ops.iter().collect::<Vec<_>>()).unwrap();
    }
    w.sync_now().unwrap();
}

/// Frame `payload` as the writer does.
fn frame(file: &mut Vec<u8>, payload: &[u8]) {
    file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    file.extend_from_slice(&crc32(payload).to_le_bytes());
    file.extend_from_slice(payload);
}

/// The allocation bound for decoding `file_len` bytes of segment: one
/// transaction op per byte. A count or length taken from the bytes and
/// trusted would allocate far past it.
fn allocation_bound(file_len: usize) -> usize {
    file_len * std::mem::size_of::<TxnOp>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_value_codec_roundtrip(values in proptest::collection::vec(prop_value_strategy(), 0..8)) {
        let mut buf = Vec::new();
        for v in &values {
            v.encode(&mut buf);
        }
        let mut at = 0usize;
        for v in &values {
            let got = PropValue::decode(&buf, &mut at).expect("decode");
            prop_assert_eq!(&got, v);
        }
        prop_assert_eq!(at, buf.len());
    }

    /// (a) Transactions round-trip through `append_txn` → `read_log`,
    /// with names reused within a frame, across frames and across a
    /// reopen, and each name defined once per segment.
    #[test]
    fn frames_roundtrip_with_names_across_frames_and_reopens(
        txns in proptest::collection::vec(proptest::collection::vec(op_strategy(), 0..5), 1..8),
        reopen_at in any::<usize>(),
    ) {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let split = reopen_at % (txns.len() + 1);
        append_all(&path, &txns[..split]);
        append_all(&path, &txns[split..]);
        let scan = read_log(&path).unwrap();
        let read: Vec<Vec<TxnOp>> = scan.txns.into_iter().map(|(_, ops)| ops).collect();
        prop_assert_eq!(read, txns);
        let mut unique = scan.names.clone();
        unique.sort();
        unique.dedup();
        prop_assert_eq!(unique.len(), scan.names.len(), "a name defined twice: {:?}", scan.names);
    }

    /// (b) A frame of random bytes with a valid CRC, after a frame that
    /// defined names, never panics and never allocates past the bound:
    /// the segment is refused as `Corrupt`, unless the bytes happen to
    /// be a whole valid frame.
    #[test]
    fn random_frames_read_as_corrupt_and_allocate_within_bounds(
        prefix in proptest::collection::vec(op_strategy(), 1..4),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        append_all(&path, &[prefix]);
        let mut file = std::fs::read(&path).unwrap();
        frame(&mut file, &garbage);
        std::fs::write(&path, &file).unwrap();
        let (read, largest) = largest_allocation(|| read_log(&path));
        prop_assert!(largest <= allocation_bound(file.len()), "allocated {} for {:?}", largest, garbage);
        match read {
            Err(StoreError::Corrupt(_)) => {}
            Ok(scan) => prop_assert_eq!((scan.txns.len(), scan.valid_len), (2, file.len() as u64)),
            Err(e) => panic!("expected Corrupt, got {e:?}"),
        }
    }

    /// (c) A frame cut inside the varint that ends it is refused.
    #[test]
    fn a_varint_truncated_at_the_end_of_a_frame_is_rejected(
        msg in (1u64 << 7)..u64::MAX,
        cut in any::<usize>(),
    ) {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        append_all(&path, &[vec![TxnOp::MarkProcessed { msg: MsgId(msg) }]]);
        let file = std::fs::read(&path).unwrap();
        let payload = &file[SEGMENT_MAGIC.len() + 8..];
        // Op count and tag, then the id's varint of two bytes or more.
        let varint = payload.len() - 2;
        prop_assert!(varint >= 2);
        let kept = 2 + 1 + cut % (varint - 1);
        let mut cut_file = SEGMENT_MAGIC.to_vec();
        frame(&mut cut_file, &payload[..kept]);
        std::fs::write(&path, &cut_file).unwrap();
        match read_log(&path) {
            Err(StoreError::Corrupt(_)) => {}
            other => panic!("a frame cut after {kept} bytes read as {other:?}"),
        }
    }

    #[test]
    fn crc_detects_single_bit_flips(payload in proptest::collection::vec(any::<u8>(), 1..64), flip in any::<usize>()) {
        let c = crc32(&payload);
        let mut mutated = payload.clone();
        let idx = flip % mutated.len();
        mutated[idx] ^= 1 << (flip % 8);
        prop_assert_ne!(crc32(&mutated), c);
    }

    #[test]
    fn slice_retention_invariant(
        ops in proptest::collection::vec((0u64..20, 0u8..4, any::<bool>()), 1..60)
    ) {
        // Model: a message is retained iff some slicing's current epoch
        // contains it. Execute random add/reset sequences and compare the
        // index against a naive model.
        let mut idx = SliceIndex::new();
        let mut model: std::collections::HashMap<(u8, u64), (u64, Vec<(u64, u64)>)> =
            std::collections::HashMap::new();
        for (msg, slicing, is_reset) in ops {
            let s_name = format!("s{slicing}");
            let key = PropValue::Int((msg % 4) as i64);
            let model_key = (slicing, msg % 4);
            let entry = model.entry(model_key).or_insert((0, Vec::new()));
            if is_reset {
                idx.reset(&s_name, &key);
                entry.0 += 1;
            } else {
                idx.add(&s_name, &key, MsgId(msg));
                let epoch = entry.0;
                if !entry.1.contains(&(msg, epoch)) {
                    entry.1.push((msg, epoch));
                }
            }
        }
        for m in 0..20u64 {
            let model_retained = model.iter().any(|(_, (epoch, members))| {
                members.iter().any(|(mm, e)| *mm == m && e == epoch)
            });
            prop_assert_eq!(idx.is_retained(MsgId(m)), model_retained, "message {}", m);
        }
    }

    #[test]
    fn snapshot_codec_roundtrip(
        wal_index in any::<u64>(),
        msgs in proptest::collection::vec(
            ("[a-z]{1,6}".prop_map(|s| s), any::<u64>(), any::<bool>(), "[ -~\u{e9}\u{20ac}\u{1f600}]{0,48}"),
            0..10,
        ),
    ) {
        let mut snap = Snapshot { wal_index, next_msg: 1, ..Default::default() };
        for (q, id, processed, payload) in &msgs {
            snap.messages.push(demaq_store::checkpoint::SnapMessage {
                id: MsgId(*id),
                queue: q.as_str().into(),
                payload: payload.as_str().into(),
                processed: *processed,
                enqueued_at: *id as i64,
                props: vec![("p".into(), PropValue::Int(*id as i64))].into(),
            });
        }
        let decoded = Snapshot::decode(&snap.encode().expect("encode")).expect("decode");
        prop_assert_eq!(decoded, snap);
    }
}

proptest! {
    // Store recovery runs real I/O: keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recovery_preserves_committed_history(
        batches in proptest::collection::vec(
            proptest::collection::vec(("[a-b]".prop_map(|s| s), "[ -~]{0,24}"), 1..4),
            1..6,
        ),
        crash_uncommitted in any::<bool>(),
    ) {
        let dir = TempDir::new().unwrap();
        let mut expected: Vec<(String, String)> = Vec::new();
        {
            let mut opts = StoreOptions::new(dir.path());
            opts.sync = SyncPolicy::Batch;
            let store = MessageStore::open(opts).unwrap();
            store.create_queue("a", QueueMode::Persistent, 0).unwrap();
            store.create_queue("b", QueueMode::Persistent, 0).unwrap();
            for batch in &batches {
                let txn = store.begin();
                for (q, payload) in batch {
                    store.enqueue(txn, q, payload.clone().into(), vec![], 0).unwrap();
                    expected.push((q.clone(), payload.clone()));
                }
                store.commit(txn).unwrap();
            }
            if crash_uncommitted {
                let txn = store.begin();
                store.enqueue(txn, "a", "<lost/>".into(), vec![], 0).unwrap();
                // dropped without commit
            }
            store.sync().unwrap();
        }
        let store = MessageStore::open(StoreOptions::new(dir.path())).unwrap();
        // Queue definitions come from the application program, not the log;
        // the engine re-declares them at startup (idempotent).
        store.create_queue("a", QueueMode::Persistent, 0).unwrap();
        store.create_queue("b", QueueMode::Persistent, 0).unwrap();
        let mut recovered: Vec<(String, String)> = Vec::new();
        for q in ["a", "b"] {
            for m in store.queue_messages(q).unwrap() {
                recovered.push((m.queue.to_string(), m.payload.to_string()));
            }
        }
        let sort = |mut v: Vec<(String, String)>| {
            v.sort();
            v
        };
        prop_assert_eq!(sort(recovered), sort(expected));
    }
}
