//! Non-materialized slice access: merge the slice definition into the
//! query (paper Sec. 4.3's strawman — "this would require to evaluate a
//! complex query for every incoming message").
//!
//! Given the queues a slicing is defined over and the key-property
//! expression, compute the members of one slice by scanning every retained
//! message, parsing it, evaluating the key path, and comparing with the
//! wanted key. The materialized [`demaq_store::slice::SliceIndex`] answers
//! the same question with one ordered-map lookup; benchmark E2 measures
//! the gap. The key expression is lowered once and run as a plan, the
//! way the engine runs its own property bindings.

use demaq_store::{MessageStore, MsgId, PropValue};
use demaq_xml::parse;
use demaq_xquery::{lower, parse_expr, DynamicContext, Expr, PlanEvaluator};

/// Evaluate `key_expr` (e.g. `//customerID`) against every message of the
/// named queues, returning the ids whose computed key equals `key`.
pub fn scan_slice_members(
    store: &MessageStore,
    queues: &[&str],
    key_expr: &Expr,
    key: &PropValue,
) -> Vec<MsgId> {
    let plan = lower(key_expr);
    let dctx = DynamicContext::default();
    let wanted = key.render();
    let mut out = Vec::new();
    for q in queues {
        let Ok(messages) = store.queue_messages(q) else {
            continue;
        };
        for m in messages {
            let Ok(doc) = parse(&m.payload) else { continue };
            let mut ev = PlanEvaluator::new(&dctx);
            if let Ok(seq) = ev.eval_with_context(&plan, doc.root()) {
                if let Some(item) = seq.0.first() {
                    if item.string_value() == wanted {
                        out.push(m.id);
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// Convenience: parse the key expression from text.
pub fn scan_slice_members_src(
    store: &MessageStore,
    queues: &[&str],
    key_expr_src: &str,
    key: &PropValue,
) -> Vec<MsgId> {
    let expr = parse_expr(key_expr_src).expect("valid key expression");
    scan_slice_members(store, queues, &expr, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_store::{QueueMode, StoreOptions};
    use tempfile::TempDir;

    #[test]
    fn scan_agrees_with_materialized_index() {
        let dir = TempDir::new().unwrap();
        let store = MessageStore::open(StoreOptions::new(dir.path())).unwrap();
        store
            .create_queue("orders", QueueMode::Persistent, 0)
            .unwrap();
        store
            .create_queue("bills", QueueMode::Persistent, 0)
            .unwrap();
        for i in 0..30 {
            let customer = i % 5;
            let queue = if i % 2 == 0 { "orders" } else { "bills" };
            let txn = store.begin();
            let id = store
                .enqueue(
                    txn,
                    queue,
                    format!("<doc><customerID>{customer}</customerID><n>{i}</n></doc>").into(),
                    vec![],
                    0,
                )
                .unwrap();
            store
                .slice_add(txn, "byCustomer", PropValue::Str(customer.to_string()), id)
                .unwrap();
            store.commit(txn).unwrap();
        }
        for customer in 0..5 {
            let key = PropValue::Str(customer.to_string());
            let scanned =
                scan_slice_members_src(&store, &["orders", "bills"], "string(//customerID)", &key);
            let indexed = store.slice_members("byCustomer", &key);
            assert_eq!(scanned, indexed, "customer {customer}");
            assert_eq!(scanned.len(), 6);
        }
    }

    #[test]
    fn missing_key_yields_empty() {
        let dir = TempDir::new().unwrap();
        let store = MessageStore::open(StoreOptions::new(dir.path())).unwrap();
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        let got = scan_slice_members_src(&store, &["q"], "//x", &PropValue::Str("zz".into()));
        assert!(got.is_empty());
    }
}
