//! Property-based tests on storage invariants: codec roundtrips, slice
//! retention algebra, and recovery equivalence for arbitrary committed
//! histories.

use demaq_store::checkpoint::Snapshot;
use demaq_store::slice::SliceIndex;
use demaq_store::store::SyncPolicy;
use demaq_store::txn::TxnOp;
use demaq_store::wal::{crc32, LogRecord};
use demaq_store::{MessageStore, MsgId, PropValue, QueueMode, StoreOptions, TxnId};
use proptest::prelude::*;
use tempfile::TempDir;

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

    #[test]
    fn log_record_codec_roundtrip(
        queue in "[a-z]{1,8}",
        payload in "[ -~]{0,64}",
        props in proptest::collection::vec(("[a-z]{1,6}".prop_map(|s| s), prop_value_strategy()), 0..4),
        msg in any::<u64>(),
        txn in any::<u64>(),
        at in any::<i64>(),
    ) {
        let rec = LogRecord::Op {
            txn: TxnId(txn),
            op: TxnOp::Enqueue {
                queue,
                msg: MsgId(msg),
                payload: payload.into(),
                props,
                enqueued_at: at,
            },
        };
        let bytes = rec.encode();
        prop_assert_eq!(LogRecord::decode(&bytes), Some(rec));
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
        let mut snap = Snapshot { wal_index, next_msg: 1, next_txn: 1, ..Default::default() };
        for (q, id, processed, payload) in &msgs {
            snap.messages.push(demaq_store::checkpoint::SnapMessage {
                id: MsgId(*id),
                queue: q.clone(),
                payload: payload.as_str().into(),
                processed: *processed,
                enqueued_at: *id as i64,
                props: vec![("p".into(), PropValue::Int(*id as i64))],
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
                recovered.push((m.queue, m.payload.to_string()));
            }
        }
        let sort = |mut v: Vec<(String, String)>| {
            v.sort();
            v
        };
        prop_assert_eq!(sort(recovered), sort(expected));
    }
}
