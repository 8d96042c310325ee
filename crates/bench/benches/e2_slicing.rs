//! E2 — Materialized slices vs. merged slice queries (Sec. 4.3).
//!
//! Claim: "similar to the materialized views concept in RDBMSs, it is
//! possible to maintain a physical representation of the slices, for
//! example using a B-Tree indexed by the slice key", instead of
//! "evaluat[ing] a complex query for every incoming message".
//!
//! Workload: a store with Q messages spread over 64 customers across two
//! queues; look up one customer's slice. `index` uses the slice index;
//! `scan` merges the definition into a query (parse every message,
//! evaluate the key path, compare). Expected shape: the index is O(slice
//! size) and roughly flat in Q; the scan grows linearly with Q —
//! orders-of-magnitude gap at the top end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use demaq_baselines::slice_scan::scan_slice_members_src;
use demaq_store::{MessageStore, PropValue, QueueMode, StoreOptions};
use tempfile::TempDir;

const CUSTOMERS: usize = 64;

fn build_store(messages: usize) -> (TempDir, MessageStore) {
    let dir = TempDir::new().expect("tempdir");
    let mut opts = StoreOptions::new(dir.path());
    opts.sync = demaq_store::store::SyncPolicy::Batch;
    let store = MessageStore::open(opts).expect("open");
    store
        .create_queue("orders", QueueMode::Persistent, 0)
        .expect("queue");
    store
        .create_queue("bills", QueueMode::Persistent, 0)
        .expect("queue");
    for i in 0..messages {
        let customer = i % CUSTOMERS;
        let queue = if i % 2 == 0 { "orders" } else { "bills" };
        let txn = store.begin();
        let id = store
            .enqueue(
                txn,
                queue,
                format!("<doc><customerID>{customer}</customerID><payload>{i}</payload></doc>")
                    .into(),
                vec![],
                0,
            )
            .expect("enqueue");
        store
            .slice_add(txn, "byCustomer", PropValue::Str(customer.to_string()), id)
            .expect("slice");
        store.commit(txn).expect("commit");
    }
    (dir, store)
}

fn bench_e2(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_slicing");
    group.sample_size(10);
    for &q in &[256usize, 2048, 16384] {
        let (_dir, store) = build_store(q);
        let key = PropValue::Str("7".into());
        group.bench_with_input(BenchmarkId::new("index", q), &q, |b, _| {
            b.iter(|| store.slice_members("byCustomer", &key));
        });
        group.bench_with_input(BenchmarkId::new("scan", q), &q, |b, _| {
            b.iter(|| {
                scan_slice_members_src(&store, &["orders", "bills"], "string(//customerID)", &key)
            });
        });
        // Sanity: both strategies agree.
        assert_eq!(
            store.slice_members("byCustomer", &key),
            scan_slice_members_src(&store, &["orders", "bills"], "string(//customerID)", &key)
        );
    }
    group.finish();
}

criterion_group!(benches, bench_e2);
criterion_main!(benches);
