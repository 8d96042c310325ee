//! Gateway queues ↔ transport glue (paper Sec. 2.1.2 / 4.2).
//!
//! "By introducing gateway queues, all network-related operations can be
//! implemented by a communication subsystem providing a queue-based
//! interface." Outgoing gateway messages are handed to the simulated
//! transport (optionally through the reliable-messaging layer); incoming
//! gateway endpoints buffer deliveries for the server loop to enqueue.

use crate::app::CompiledApp;
use crate::properties::{lineage_prop, system};
use demaq_net::reliable::{reliable_receiver, ReliableSender};
use demaq_net::{Envelope, Network, TransportError};
use demaq_obs::Obs;
use demaq_qdl::QueueKind;
use demaq_store::{PropValue, StoredMessage};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// One outgoing gateway binding.
struct Outgoing {
    endpoint: String,
    reliable: Option<Arc<ReliableSender>>,
}

/// Gateway subsystem of one server.
pub struct GatewayManager {
    net: Arc<Network>,
    /// This server's own transport address (the `from` of outgoing mail).
    pub server_addr: String,
    outgoing: HashMap<String, Outgoing>,
    /// Buffered incoming deliveries: (queue, envelope).
    inbox: Arc<Mutex<Vec<(String, Envelope)>>>,
    reliable_senders: Vec<(String, Arc<ReliableSender>)>,
    obs: Arc<Obs>,
}

impl GatewayManager {
    /// Wire up every gateway queue of the application.
    pub fn new(
        app: &CompiledApp,
        net: Arc<Network>,
        server_addr: String,
        obs: Arc<Obs>,
    ) -> GatewayManager {
        Self::with_incoming_filter(app, net, server_addr, obs, None)
    }

    /// Like [`Self::new`], but when `incoming` is `Some`, only the named
    /// incoming-gateway queues register network listeners. A sharded
    /// server homes each incoming gateway on exactly one shard — two
    /// shards listening on the same address would both claim deliveries.
    pub fn with_incoming_filter(
        app: &CompiledApp,
        net: Arc<Network>,
        server_addr: String,
        obs: Arc<Obs>,
        incoming: Option<&std::collections::HashSet<String>>,
    ) -> GatewayManager {
        let inbox: Arc<Mutex<Vec<(String, Envelope)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut outgoing = HashMap::new();
        let mut reliable_senders = Vec::new();

        for (name, q) in &app.queues {
            match q.decl.kind {
                QueueKind::OutgoingGateway => {
                    // Destination: explicit `endpoint`, else derived from the
                    // WSDL service name, else the queue name itself.
                    let endpoint = q
                        .decl
                        .endpoint
                        .clone()
                        .or_else(|| {
                            q.interface
                                .as_ref()
                                .map(|i| format!("service:{}", i.service))
                        })
                        .unwrap_or_else(|| name.clone());
                    let reliable = if q
                        .decl
                        .extensions
                        .iter()
                        .any(|(e, _)| e == "WS-ReliableMessaging")
                    {
                        let sender = ReliableSender::new(
                            Arc::clone(&net),
                            format!("{server_addr}/acks/{name}"),
                            50,
                            25,
                        );
                        reliable_senders.push((name.clone(), Arc::clone(&sender)));
                        Some(sender)
                    } else {
                        None
                    };
                    outgoing.insert(name.clone(), Outgoing { endpoint, reliable });
                }
                QueueKind::IncomingGateway => {
                    if incoming.is_some_and(|set| !set.contains(name)) {
                        continue; // homed on another shard
                    }
                    // Listen address: explicit `endpoint` or the queue name.
                    let addr = q.decl.endpoint.clone().unwrap_or_else(|| name.clone());
                    let inbox2 = Arc::clone(&inbox);
                    let qname = name.clone();
                    let received = obs
                        .registry
                        .counter_with("demaq_gateway_received_total", &[("queue", name)]);
                    let tracer_obs = Arc::clone(&obs);
                    let handler: demaq_net::DeliveryHandler = Arc::new(move |env: Envelope| {
                        received.inc();
                        tracer_obs
                            .tracer
                            .event("gateway.recv", None, &qname, &env.from);
                        inbox2.lock().push((qname.clone(), env));
                    });
                    // Incoming gateways always understand the reliable
                    // protocol (acks + dedup are harmless for plain sends).
                    net.register(&addr, reliable_receiver(Arc::clone(&net), handler));
                }
                _ => {}
            }
        }
        GatewayManager {
            net,
            server_addr,
            outgoing,
            inbox,
            reliable_senders,
            obs,
        }
    }

    /// Send one outgoing-gateway message. Properties feed envelope
    /// metadata:
    /// * `Sender` — correlation header for the remote service (Example 3.1),
    /// * `Recipient` — overrides the gateway's destination address,
    /// * `connection` — synchronous exchange correlation handle.
    pub fn send(&self, queue: &str, msg: &StoredMessage) -> Result<(), TransportError> {
        let out = self
            .outgoing
            .get(queue)
            .ok_or_else(|| TransportError::NoRoute(format!("queue `{queue}` is not a gateway")))?;
        let to = match msg.prop("Recipient") {
            Some(PropValue::Str(addr)) => addr.clone(),
            _ => out.endpoint.clone(),
        };
        let to_addr = to.clone();
        let mut env = Envelope::new(to, self.server_addr.clone(), msg.payload.to_string());
        if let Some(PropValue::Str(s)) = msg.prop("Sender") {
            env = env.with_header("Sender", s.clone());
        }
        if let Some(PropValue::Str(r)) = msg.prop("creatingRule") {
            // Carried so that reliability-layer failures can still route to
            // the creating rule's error queue.
            env = env.with_header("creatingRule", r.clone());
        }
        // Causal provenance across the hop: whatever the receiver enqueues
        // from this envelope is a child of *this* message, in the tree this
        // message belongs to (its own root, or itself if it is the root).
        env = env.with_header(system::PARENT_MSG, msg.id.0.to_string());
        let root = lineage_prop(&msg.props, system::ROOT_MSG).unwrap_or(msg.id.0);
        env = env.with_header(system::ROOT_MSG, root.to_string());
        if let Some(PropValue::Int(c)) = msg.prop("connection") {
            env = env.with_conn(demaq_net::ConnectionHandle(*c as u64));
        }
        let result = match &out.reliable {
            Some(sender) => sender.send(env),
            None => self.net.send(env),
        };
        match &result {
            Ok(()) => {
                self.obs
                    .registry
                    .counter_with("demaq_gateway_sent_total", &[("queue", queue)])
                    .inc();
                self.obs
                    .tracer
                    .event("gateway.send", Some(msg.id.0), queue, &to_addr);
            }
            Err(e) => {
                self.obs
                    .registry
                    .counter_with("demaq_gateway_send_failures_total", &[("queue", queue)])
                    .inc();
                self.obs
                    .tracer
                    .event("gateway.send_fail", Some(msg.id.0), queue, &e.to_string());
            }
        }
        result
    }

    /// Drain buffered incoming deliveries.
    pub fn take_inbox(&self) -> Vec<(String, Envelope)> {
        std::mem::take(&mut self.inbox.lock())
    }

    /// Retransmit timers for reliable channels; collect exhausted sends as
    /// (gateway queue, envelope, error) for error-queue routing.
    pub fn tick(&self) -> Vec<(String, Envelope, TransportError)> {
        let mut failures = Vec::new();
        for (queue, sender) in &self.reliable_senders {
            sender.tick();
            for (env, err) in sender.take_failed() {
                self.obs
                    .registry
                    .counter_with("demaq_gateway_send_failures_total", &[("queue", queue)])
                    .inc();
                self.obs
                    .tracer
                    .event("gateway.send_fail", None, queue, &err.to_string());
                failures.push((queue.clone(), env, err));
            }
        }
        failures
    }

    /// Earliest upcoming reliable retransmission, for clock fast-forward.
    pub fn next_retry_at(&self) -> Option<i64> {
        self.reliable_senders
            .iter()
            .filter_map(|(_, s)| s.next_retry_at())
            .min()
    }

    /// Total retransmissions across channels (stats).
    pub fn retransmissions(&self) -> u64 {
        self.reliable_senders
            .iter()
            .map(|(_, s)| s.retransmissions())
            .sum()
    }
}
