//! Property-based tests on storage invariants: codec roundtrips, the WAL
//! frame and snapshot decoders, slice retention algebra, and recovery
//! equivalence for arbitrary committed histories.
//!
//! The decoder fuzz properties run `DEMAQ_FUZZ_CASES` cases each (default
//! 64; CI runs 640).

use demaq_store::checkpoint::{SnapMessage, SnapQueue, SnapSlice, Snapshot};
use demaq_store::provenance::{CREATING_RULE, PARENT_MSG, ROOT_MSG};
use demaq_store::slice::SliceIndex;
use demaq_store::store::SyncPolicy;
use demaq_store::txn::TxnOp;
use demaq_store::wal::{crc32, read_log, GroupCommitCfg, LogWriter, MAX_TIME, SEGMENT_MAGIC};
use demaq_store::{Lsn, MessageStore, MsgId, PropValue, QueueMode, StoreError, StoreOptions};
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

/// The retention model: `(slicing, key)` to its current epoch and the
/// `(message, epoch)` adds it saw.
type SliceModel = std::collections::HashMap<(u8, u64), (u64, Vec<(u64, u64)>)>;

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

/// A message id a frame holds (at most `i64::MAX`): mostly near another
/// one, as in a store, sometimes anywhere.
fn id_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, (1u64 << 48)..(1 << 48) + 64, 0u64..1 << 63]
}

/// A provenance property: mostly what the engine stamps (an id, a rule
/// name), sometimes any value.
fn provenance_strategy() -> impl Strategy<Value = (String, PropValue)> {
    let name = prop_oneof![Just(PARENT_MSG), Just(ROOT_MSG), Just(CREATING_RULE)];
    let value = prop_oneof![
        id_strategy().prop_map(|id| PropValue::Int(id as i64)),
        name_strategy().prop_map(PropValue::Str),
        prop_value_strategy(),
    ];
    (name, value).prop_map(|(n, v)| (n.to_string(), v))
}

fn op_strategy() -> impl Strategy<Value = TxnOp> {
    prop_oneof![
        (
            name_strategy(),
            id_strategy(),
            "[ -~\u{e9}]{0,24}",
            proptest::collection::vec((name_strategy(), prop_value_strategy()), 0..4),
            proptest::collection::vec(provenance_strategy(), 0..3),
            -MAX_TIME..MAX_TIME,
        )
            .prop_map(|(queue, msg, payload, props, provenance, enqueued_at)| {
                TxnOp::Enqueue {
                    queue: queue.into(),
                    msg: MsgId(msg),
                    payload: payload.into(),
                    props: props
                        .into_iter()
                        .chain(provenance)
                        .map(|(n, v)| (n.into(), v))
                        .collect(),
                    enqueued_at,
                }
            }),
        id_strategy().prop_map(|msg| TxnOp::MarkProcessed { msg: MsgId(msg) }),
        (name_strategy(), prop_value_strategy(), id_strategy()).prop_map(|(slicing, key, msg)| {
            TxnOp::SliceAdd {
                slicing: slicing.into(),
                key,
                msg: MsgId(msg),
            }
        }),
        (name_strategy(), prop_value_strategy()).prop_map(|(slicing, key)| TxnOp::SliceReset {
            slicing: slicing.into(),
            key,
            at: None,
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

/// Cases per decoder fuzz property: `DEMAQ_FUZZ_CASES`, default 64.
fn fuzz_cases() -> u32 {
    std::env::var("DEMAQ_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn unzigzag(u: u64) -> i128 {
    ((u >> 1) as i64 ^ -((u & 1) as i64)) as i128
}

/// A snapshot holding one of everything, for the decoder to mangle.
fn sample_snapshot() -> Snapshot {
    Snapshot {
        wal_index: 2,
        next_msg: 9,
        queues: vec![SnapQueue {
            name: "q".into(),
            persistent: true,
            priority: 1,
        }],
        messages: vec![SnapMessage {
            id: MsgId(8),
            queue: "q".into(),
            payload: "<a>\u{e9}</a>".into(),
            processed: false,
            enqueued_at: 5,
            props: vec![(PARENT_MSG.into(), PropValue::Int(7))].into(),
            lsn: Some(Lsn(42)),
        }],
        slices: vec![SnapSlice {
            slicing: "s".into(),
            key: PropValue::Str("x".into()),
            epoch: 1,
            members: vec![MsgId(8)],
            base: vec![("c".into(), vec![0xAB])],
            base_members: 3,
        }],
    }
}

/// Frame a snapshot body under the current header, as `encode` does.
fn snapshot_file(body: &[u8]) -> Vec<u8> {
    let mut file = b"DEMAQCK5".to_vec();
    file.extend_from_slice(&crc32(body).to_le_bytes());
    file.extend_from_slice(&(body.len() as u64).to_le_bytes());
    file.extend_from_slice(body);
    file
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

    /// (c) A frame cut inside the varint that ends it is refused.
    #[test]
    fn a_varint_truncated_at_the_end_of_a_frame_is_rejected(
        msg in (1u64 << 7)..1 << 63,
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
        let mut model = SliceModel::new();
        for (msg, slicing, is_reset) in ops {
            let s_name = format!("s{slicing}");
            let key = PropValue::Int((msg % 4) as i64);
            let model_key = (slicing, msg % 4);
            let entry = model.entry(model_key).or_insert((0, Vec::new()));
            if is_reset {
                let id = idx.resolve(&s_name, &key);
                idx.reset(id);
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
                lsn: (*id != 0).then_some(Lsn(*id)),
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

proptest! {
    // The decoder fuzz properties; CI raises the count tenfold.
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// (b) A frame of random bytes with a valid CRC, after a frame that
    /// defined names, never panics and never allocates past the bound:
    /// the segment is refused as `Corrupt`, unless the bytes happen to
    /// be a whole valid frame. So does a well-formed frame whose id and
    /// time distances are random: each decodes to exactly the id or time
    /// it names, computed without wrapping, or — when that leaves the
    /// range of ids (0 to `i64::MAX`) or times (`MAX_TIME` either side of
    /// 0) — the segment is refused as `Corrupt`.
    #[test]
    fn random_frames_read_as_corrupt_and_allocate_within_bounds(
        prefix in proptest::collection::vec(op_strategy(), 1..4),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
        distances in (
            prop_oneof![0u64..64, any::<u64>()],
            prop_oneof![0u64..64, any::<u64>()],
            prop_oneof![0u64..64, any::<u64>()],
            prop_oneof![0u64..64, any::<u64>()],
        ),
    ) {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        append_all(&path, &[prefix]);
        let clean = std::fs::read(&path).unwrap();
        let time = read_log(&path).unwrap().time as i128;

        let mut file = clean.clone();
        frame(&mut file, &garbage);
        std::fs::write(&path, &file).unwrap();
        let (read, largest) = largest_allocation(|| read_log(&path));
        prop_assert!(largest <= allocation_bound(file.len()), "allocated {} for {:?}", largest, garbage);
        match read {
            Err(StoreError::Corrupt(_)) => {}
            Ok(scan) => prop_assert_eq!((scan.txns.len(), scan.valid_len), (2, file.len() as u64)),
            Err(e) => panic!("expected Corrupt, got {e:?}"),
        }

        // An enqueue of a first id with a time distance and a `parentMsg`
        // id distance, then a processed-mark at an id distance.
        let (first, dt, dparent, dmark) = distances;
        let mut payload = vec![2, 1, 0, 1, b'q'];
        put_varint(&mut payload, first);
        put_varint(&mut payload, dt);
        payload.extend_from_slice(&[0, 1, 0, 9]);
        payload.extend_from_slice(PARENT_MSG.as_bytes());
        payload.push(6);
        put_varint(&mut payload, dparent);
        payload.push(2);
        put_varint(&mut payload, dmark);
        let mut file = clean;
        frame(&mut file, &payload);
        std::fs::write(&path, &file).unwrap();
        let (read, largest) = largest_allocation(|| read_log(&path));
        prop_assert!(largest <= allocation_bound(file.len()));
        let id = |d: u64| first as i128 + unzigzag(d);
        let ids = [first as i128, id(dparent), id(dmark)];
        let t = time + unzigzag(dt);
        let in_range = ids.iter().all(|id| (0..=i64::MAX as i128).contains(id))
            && (-(MAX_TIME as i128)..=MAX_TIME as i128).contains(&t);
        match read {
            Err(StoreError::Corrupt(_)) => prop_assert!(!in_range, "{:?} {} refused", ids, t),
            Ok(scan) => {
                prop_assert!(in_range, "{:?} {} read", ids, t);
                let (_, ops) = scan.txns.last().unwrap();
                let want = vec![
                    TxnOp::Enqueue {
                        queue: "q".into(),
                        msg: MsgId(ids[0] as u64),
                        payload: "".into(),
                        props: vec![(PARENT_MSG.into(), PropValue::Int(ids[1] as i64))].into(),
                        enqueued_at: t as i64,
                    },
                    TxnOp::MarkProcessed { msg: MsgId(ids[2] as u64) },
                ];
                prop_assert_eq!(ops, &want);
                prop_assert_eq!(scan.time as i128, t);
            }
            Err(e) => panic!("expected Corrupt, got {e:?}"),
        }
    }

    /// (b) for snapshots: a body of random bytes, or a real one with
    /// random bytes overwritten, under a valid header and CRC, never
    /// panics and never allocates past a bound linear in its size: it is
    /// refused as `Corrupt`, or read as a snapshot that reads back the
    /// same from its own encoding.
    #[test]
    fn random_snapshots_read_as_corrupt_and_allocate_within_bounds(
        garbage in proptest::collection::vec(any::<u8>(), 0..96),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut real = sample_snapshot().encode().unwrap()[20..].to_vec();
        for (at, byte) in edits {
            let at = at % real.len();
            real[at] = byte;
        }
        for body in [garbage.clone(), real] {
            let file = snapshot_file(&body);
            let (read, largest) = largest_allocation(|| Snapshot::decode(&file));
            let bound = file.len() * 2 * std::mem::size_of::<SnapMessage>();
            prop_assert!(largest <= bound, "allocated {} for {:?}", largest, body);
            match read {
                Err(StoreError::Corrupt(_)) => {}
                Ok(snap) => {
                    let again = Snapshot::decode(&snap.encode().unwrap()).unwrap();
                    prop_assert_eq!(again, snap);
                }
                Err(e) => panic!("expected Corrupt, got {e:?}"),
            }
        }
    }
}
