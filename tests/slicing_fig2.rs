//! Reproduction of Figure 2: "Slicing example (customer transactions)".
//!
//! Three physical queues (requests, orders, delivery notifications) hold
//! messages of many customers; slices group the messages of one customer
//! across all three queues — e.g. the slices for customers 23 and 42 in
//! the figure.

use demaq::Server;
use demaq_store::{store::SyncPolicy, PropValue};

#[test]
fn fig_2_customer_transaction_slices() {
    let s = Server::builder()
        .program(
            r#"
            create queue requests kind basic mode persistent
            create queue orders kind basic mode persistent
            create queue deliveryNotifications kind basic mode persistent
            create property customer as xs:integer fixed
              queue requests, orders, deliveryNotifications value //customerID
            create slicing customerTxns on customer
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();

    // The figure's population: messages for customers 23, 47, 7, 42, 9, 15
    // spread over the three queues.
    let population: &[(&str, u32)] = &[
        ("requests", 23),
        ("requests", 47),
        ("requests", 15),
        ("orders", 7),
        ("orders", 42),
        ("orders", 23),
        ("orders", 23),
        ("deliveryNotifications", 9),
        ("deliveryNotifications", 42),
        ("deliveryNotifications", 23),
    ];
    for (queue, customer) in population {
        s.enqueue_external(
            queue,
            &format!("<msg><customerID>{customer}</customerID></msg>"),
        )
        .unwrap();
    }
    s.run_until_idle().unwrap();

    let store = s.store();
    // Slice for customer 23 spans all three queues (4 messages).
    let slice23 = store.slice_members("customerTxns", &PropValue::Int(23));
    assert_eq!(slice23.len(), 4);
    let queues23: std::collections::HashSet<String> = slice23
        .iter()
        .map(|m| store.message(*m).unwrap().queue.to_string())
        .collect();
    assert_eq!(
        queues23.len(),
        3,
        "slice 23 crosses requests/orders/notifications"
    );

    // Slice for customer 42: order + delivery notification.
    let slice42 = store.slice_members("customerTxns", &PropValue::Int(42));
    assert_eq!(slice42.len(), 2);

    // Singleton slices.
    for c in [47, 7, 9, 15] {
        assert_eq!(
            store
                .slice_members("customerTxns", &PropValue::Int(c))
                .len(),
            1,
            "customer {c}"
        );
    }
    // Messages appear in arrival order within a slice.
    let payloads: Vec<String> = slice23
        .iter()
        .map(|m| store.message(*m).unwrap().id.0.to_string())
        .collect();
    let mut sorted = payloads.clone();
    sorted.sort_by_key(|s| s.parse::<u64>().unwrap());
    assert_eq!(payloads, sorted);

    // Active slice keys of the slicing (one per customer).
    let keys = store.slice_keys("customerTxns");
    assert_eq!(keys.len(), 6);
}
