//! Gateway queues, WSDL validation, reliable messaging, error handling,
//! and multi-node (two servers on one simulated network) scenarios.

use demaq::Server;
use demaq_net::{Clock, Envelope, Network};
use demaq_store::store::SyncPolicy;
use demaq_store::PropValue;
use parking_lot::Mutex;
use std::sync::Arc;

const SUPPLIER_WSDL: &str = r#"
<definitions service="supplier">
  <port name="CapacityRequestPort">
    <operation name="checkCapacity" input="plantCapacityInfo" output="capacityResult"/>
  </port>
</definitions>"#;

fn net_and_clock() -> (Clock, Arc<Network>) {
    let clock = Clock::virtual_at(0);
    let net = Arc::new(Network::new(clock.clone(), 7));
    (clock, net)
}

/// Register a sink endpoint collecting bodies.
fn sink(net: &Arc<Network>, addr: &str) -> Arc<Mutex<Vec<String>>> {
    let collected = Arc::new(Mutex::new(Vec::new()));
    let c2 = Arc::clone(&collected);
    net.register(
        addr,
        Arc::new(move |env: Envelope| c2.lock().push(env.body)),
    );
    collected
}

#[test]
fn outgoing_gateway_sends_to_endpoint() {
    let (_clock, net) = net_and_clock();
    let received = sink(&net, "urn:customer");
    let s = Server::builder()
        .program(
            r#"
            create queue crm kind basic mode persistent
            create queue customer kind outgoingGateway mode persistent endpoint "urn:customer"
            create rule confirm for crm
              if (//customerOrder) then
                do enqueue <confirmation>{//orderID}</confirmation> into customer
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .network(net)
        .build()
        .unwrap();
    s.enqueue_external(
        "crm",
        "<customerOrder><orderID>42</orderID></customerOrder>",
    )
    .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        received.lock().as_slice(),
        ["<confirmation><orderID>42</orderID></confirmation>"]
    );
}

#[test]
fn wsdl_validation_blocks_wrong_messages() {
    let (_clock, net) = net_and_clock();
    let received = sink(&net, "service:supplier");
    let s = Server::builder()
        .program(
            r#"
            set errorqueue errors
            create queue errors kind basic mode persistent
            create queue crm kind basic mode persistent
            create queue supplier kind outgoingGateway mode persistent
              interface supplier.wsdl port CapacityRequestPort
            create rule good for crm
              if (//ok) then do enqueue <plantCapacityInfo/> into supplier
            create rule bad for crm
              if (//nope) then do enqueue <unknownOperation/> into supplier
            "#,
        )
        .wsdl_file("supplier.wsdl", SUPPLIER_WSDL)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .network(net)
        .build()
        .unwrap();
    s.enqueue_external("crm", "<ok/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(received.lock().len(), 1, "conforming message was sent");

    s.enqueue_external("crm", "<nope/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        received.lock().len(),
        1,
        "nonconforming message was not sent"
    );
    let errs = s.queue_bodies("errors").unwrap();
    assert_eq!(errs.len(), 1);
    assert!(errs[0].contains("<interfaceMismatch/>"), "{}", errs[0]);
}

/// Under `Batch` the send fails the moment its message commits; under
/// `Always` it fails when the durability barrier releases it from the
/// outbox. Either way the error routes like the paper's Fig. 10.
#[test]
fn disconnected_endpoint_routes_error_like_fig10() {
    for sync in [SyncPolicy::Batch, SyncPolicy::Always] {
        // The deadLink handler of the paper's Fig. 10.
        let (_clock, net) = net_and_clock();
        let _customer = sink(&net, "urn:customer");
        let postal = sink(&net, "urn:postal");
        let s = Server::builder()
            .program(
                r#"
                create queue crmErrors kind basic mode persistent
                create queue crm kind basic mode persistent
                create queue customer kind outgoingGateway mode persistent endpoint "urn:customer"
                create queue postalService kind outgoingGateway mode persistent endpoint "urn:postal"
                create rule confirmOrder for crm errorqueue crmErrors
                  if (//customerOrder) then
                    do enqueue <confirmation>{//orderID}</confirmation> into customer
                create rule deadLink for crmErrors
                  if (/error/disconnectedTransport) then
                    do enqueue <sendMessage>{/error/initialMessage/*}</sendMessage> into postalService
                "#,
            )
            .in_memory()
            .sync_policy(sync)
            .network(Arc::clone(&net))
            .build()
            .unwrap();
        net.disconnect("urn:customer");
        s.enqueue_external("crm", "<customerOrder><orderID>7</orderID></customerOrder>")
            .unwrap();
        s.run_until_idle().unwrap();
        // The confirmation could not be delivered; the error rule
        // compensated via the postal service.
        let mail = postal.lock();
        assert_eq!(mail.len(), 1, "{sync:?}");
        assert!(
            mail[0].contains("<confirmation><orderID>7</orderID></confirmation>"),
            "{sync:?}: {}",
            mail[0]
        );
    }
}

#[test]
fn reliable_gateway_retries_through_loss() {
    let (_clock, net) = net_and_clock();
    let received = sink(&net, "urn:flaky");
    net.set_drop_rate(0.6);
    let s = Server::builder()
        .program(
            r#"
            create queue out kind outgoingGateway mode persistent
              using WS-ReliableMessaging policy wsrmpol.xml
              endpoint "urn:flaky"
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .network(Arc::clone(&net))
        .seed(99)
        .build()
        .unwrap();
    for i in 0..10 {
        s.enqueue_external("out", &format!("<m n='{i}'/>")).unwrap();
    }
    s.run_until_idle().unwrap();
    // Retries continue until everything is acknowledged. The receiving side
    // here is a bare sink without dedup, so at-least-once: >= 10 arrivals,
    // all 10 distinct payloads present.
    let got = received.lock();
    assert!(got.len() >= 10, "got {}", got.len());
    for i in 0..10 {
        assert!(
            got.iter().any(|b| b.contains(&format!("n='{i}'"))),
            "message {i} arrived"
        );
    }
    drop(got);
    let stats = s.stats();
    assert!(stats.processed >= 10);
}

#[test]
fn reliable_gateway_gives_up_and_reports_timeout() {
    let (_clock, net) = net_and_clock();
    let _ep = sink(&net, "urn:gone");
    net.disconnect("urn:gone");
    let s = Server::builder()
        .program(
            r#"
            set errorqueue errors
            create queue errors kind basic mode persistent
            create queue out kind outgoingGateway mode persistent
              using WS-ReliableMessaging policy wsrmpol.xml
              endpoint "urn:gone"
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .network(Arc::clone(&net))
        .build()
        .unwrap();
    s.enqueue_external("out", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    let errs = s.queue_bodies("errors").unwrap();
    assert_eq!(errs.len(), 1);
    assert!(errs[0].contains("<deliveryTimeout/>"), "{}", errs[0]);
}

#[test]
fn incoming_gateway_receives_and_sets_sender_property() {
    let (clock, net) = net_and_clock();
    let s = Server::builder()
        .program(
            r#"
            create queue requests kind incomingGateway mode persistent endpoint "urn:me"
            create queue out kind basic mode persistent
            create rule handle for requests
              if (//ping) then do enqueue <pong>{qs:property("Sender")}</pong> into out
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .network(Arc::clone(&net))
        .clock(clock.clone())
        .build()
        .unwrap();
    net.send(Envelope::new("urn:me", "urn:client-1", "<ping/>"))
        .unwrap();
    clock.advance(5);
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("out").unwrap(),
        ["<pong>urn:client-1</pong>"]
    );
    // Sender became a system property on the stored message.
    let reqs = s.queue_messages("requests").unwrap();
    assert_eq!(
        reqs[0].prop("Sender"),
        Some(&PropValue::Str("urn:client-1".into()))
    );
    // One parse per inbound message: the ingest's own document is what
    // gets validated, stored in the cache, and evaluated.
    let parses = s
        .metrics()
        .registry
        .counter_total("demaq_core_doc_parses_total");
    assert_eq!(parses, 1);
}

#[test]
fn malformed_incoming_payload_is_a_message_error() {
    let (clock, net) = net_and_clock();
    let s = Server::builder()
        .program(
            r#"
            set errorqueue errors
            create queue errors kind basic mode persistent
            create queue requests kind incomingGateway mode persistent endpoint "urn:me"
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .network(Arc::clone(&net))
        .clock(clock.clone())
        .build()
        .unwrap();
    net.send(Envelope::new("urn:me", "urn:client", "<broken"))
        .unwrap();
    clock.advance(5);
    s.run_until_idle().unwrap();
    let errs = s.queue_bodies("errors").unwrap();
    assert_eq!(errs.len(), 1);
    assert!(errs[0].contains("<malformedMessage/>"), "{}", errs[0]);
    assert!(
        errs[0].contains("&lt;broken"),
        "corrupt body embedded: {}",
        errs[0]
    );
}

#[test]
fn two_demaq_nodes_talk_over_one_network() {
    // "This also facilitates the distribution of applications over several
    // nodes by replacing local queues with pairs of gateway queues that
    // connect two sites." (Sec. 2.1.2)
    let clock = Clock::virtual_at(0);
    let net = Arc::new(Network::new(clock.clone(), 7));

    let node_a = Server::builder()
        .program(
            r#"
            create queue start kind basic mode persistent
            create queue toB kind outgoingGateway mode persistent endpoint "urn:node-b"
            create queue fromB kind incomingGateway mode persistent endpoint "urn:node-a"
            create queue results kind basic mode persistent
            create rule send for start
              if (//task) then do enqueue <request>{//task/text()}</request> into toB
            create rule recv for fromB
              if (//reply) then do enqueue <final>{//reply/text()}</final> into results
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .network(Arc::clone(&net))
        .clock(clock.clone())
        .server_addr("urn:node-a")
        .build()
        .unwrap();

    let node_b = Server::builder()
        .program(
            r#"
            create queue inbox kind incomingGateway mode persistent endpoint "urn:node-b"
            create queue back kind outgoingGateway mode persistent endpoint "urn:node-a"
            create rule work for inbox
              if (//request) then do enqueue <reply>done:{//request/text()}</reply> into back
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .network(Arc::clone(&net))
        .clock(clock.clone())
        .server_addr("urn:node-b")
        .build()
        .unwrap();

    node_a
        .enqueue_external("start", "<task>job-1</task>")
        .unwrap();
    // Alternate the two nodes until the whole exchange settles.
    for _ in 0..10 {
        node_a.run_until_idle().unwrap();
        node_b.run_until_idle().unwrap();
    }
    assert_eq!(
        node_a.queue_bodies("results").unwrap(),
        ["<final>done:job-1</final>"]
    );
}

#[test]
fn recipient_property_overrides_destination() {
    let (_clock, net) = net_and_clock();
    let a = sink(&net, "urn:a");
    let b = sink(&net, "urn:b");
    let s = Server::builder()
        .program(
            r#"
            create queue q kind basic mode persistent
            create queue gw kind outgoingGateway mode persistent endpoint "urn:a"
            create rule route for q
              if (//m) then
                do enqueue <payload/> into gw with Recipient value string(//m/@to)
            "#,
        )
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .network(net)
        .build()
        .unwrap();
    s.enqueue_external("q", "<m to='urn:b'/>").unwrap();
    s.run_until_idle().unwrap();
    assert!(a.lock().is_empty());
    assert_eq!(b.lock().len(), 1, "dynamic recipient won");
}
