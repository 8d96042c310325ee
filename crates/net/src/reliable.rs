//! Reliable messaging — the WS-ReliableMessaging stand-in (paper
//! Sec. 2.1.2: "using WS-ReliableMessaging policy wsrmpol.xml" and "the
//! reliable messaging extensions which support reliable sending across
//! system failures").
//!
//! Implements at-least-once delivery with duplicate suppression (therefore
//! effectively exactly-once at the application): the sender keeps
//! unacknowledged envelopes and retransmits them on every
//! [`ReliableSender::tick`] after the retry interval; the receiving side
//! wraps the application handler, acks every copy, and suppresses
//! duplicates by envelope uid.

use crate::clock::Clock;
use crate::envelope::Envelope;
use crate::error::TransportError;
use crate::network::{DeliveryHandler, Network};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// Sender-side state for one reliable channel (one outgoing gateway).
pub struct ReliableSender {
    net: Arc<Network>,
    clock: Clock,
    /// Address acks come back to.
    ack_addr: String,
    retry_interval_ms: i64,
    max_retries: u32,
    state: Mutex<SenderState>,
}

struct Pending {
    env: Envelope,
    last_sent: i64,
    attempts: u32,
}

#[derive(Default)]
struct SenderState {
    pending: Vec<Pending>,
    acked: HashSet<u64>,
    retransmissions: u64,
    /// Envelopes that exhausted their retries (picked up by the gateway to
    /// generate error messages).
    failed: Vec<(Envelope, TransportError)>,
}

impl ReliableSender {
    /// Create a sender; registers an ack endpoint at `ack_addr`.
    pub fn new(
        net: Arc<Network>,
        ack_addr: impl Into<String>,
        retry_interval_ms: i64,
        max_retries: u32,
    ) -> Arc<ReliableSender> {
        let ack_addr = ack_addr.into();
        let sender = Arc::new(ReliableSender {
            clock: net.clock().clone(),
            net,
            ack_addr: ack_addr.clone(),
            retry_interval_ms,
            max_retries,
            state: Mutex::new(SenderState::default()),
        });
        let weak = Arc::downgrade(&sender);
        sender.net.register(
            &ack_addr,
            Arc::new(move |env: Envelope| {
                if let Some(s) = weak.upgrade() {
                    if let Some(uid) = env.header("ack-of").and_then(|v| v.parse::<u64>().ok()) {
                        let mut st = s.state.lock();
                        st.acked.insert(uid);
                        st.pending.retain(|p| p.env.uid != uid);
                    }
                }
            }),
        );
        sender
    }

    /// Send reliably: the envelope is tracked until acknowledged.
    pub fn send(&self, mut env: Envelope) -> Result<(), TransportError> {
        env.headers.push(("reliable".into(), "true".into()));
        env.headers.push(("ack-to".into(), self.ack_addr.clone()));
        let now = self.clock.now();
        // First transmission: routing errors surface immediately; transient
        // loss is handled by retries.
        let result = self.net.send(env.clone());
        let mut st = self.state.lock();
        match result {
            Ok(()) => {
                st.pending.push(Pending {
                    env,
                    last_sent: now,
                    attempts: 1,
                });
                Ok(())
            }
            Err(e @ TransportError::NoRoute(_)) => Err(e),
            Err(_) => {
                // Disconnected: keep trying; the endpoint may come back.
                st.pending.push(Pending {
                    env,
                    last_sent: now,
                    attempts: 1,
                });
                Ok(())
            }
        }
    }

    /// Retransmit overdue envelopes; move the hopeless ones to the failed
    /// list. Call periodically (the Demaq scheduler's background task).
    pub fn tick(&self) {
        let now = self.clock.now();
        let mut st = self.state.lock();
        let mut keep = Vec::new();
        let pending = std::mem::take(&mut st.pending);
        for mut p in pending {
            if now - p.last_sent < self.retry_interval_ms {
                keep.push(p);
                continue;
            }
            if p.attempts > self.max_retries {
                st.failed
                    .push((p.env.clone(), TransportError::Timeout(p.env.to.clone())));
                continue;
            }
            p.attempts += 1;
            p.last_sent = now;
            st.retransmissions += 1;
            // Ignore transient errors; the next tick retries again.
            let _ = self.net.send(p.env.clone());
            keep.push(p);
        }
        st.pending = keep;
    }

    /// Take envelopes that exhausted retries (for error-queue routing).
    pub fn take_failed(&self) -> Vec<(Envelope, TransportError)> {
        std::mem::take(&mut self.state.lock().failed)
    }

    /// Unacknowledged count.
    pub fn pending(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Earliest upcoming retransmission time, if anything is pending.
    pub fn next_retry_at(&self) -> Option<i64> {
        self.state
            .lock()
            .pending
            .iter()
            .map(|p| p.last_sent + self.retry_interval_ms)
            .min()
    }

    /// Total retransmissions performed.
    pub fn retransmissions(&self) -> u64 {
        self.state.lock().retransmissions
    }
}

/// Wrap an application handler with receiver-side reliability: every copy
/// is acknowledged, duplicates are suppressed by uid.
pub fn reliable_receiver(net: Arc<Network>, inner: DeliveryHandler) -> DeliveryHandler {
    let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    Arc::new(move |env: Envelope| {
        if env.header("reliable") == Some("true") {
            if let Some(ack_to) = env.header("ack-to") {
                let ack = Envelope::new(ack_to.to_string(), env.to.clone(), "<ack/>")
                    .with_header("ack-of", env.uid.to_string());
                let _ = net.send(ack);
            }
            if !seen.lock().insert(env.uid) {
                return; // duplicate
            }
        }
        inner(env);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clock, network, sender and the receiver's delivered bodies.
    type Setup = (
        Clock,
        Arc<Network>,
        Arc<ReliableSender>,
        Arc<Mutex<Vec<String>>>,
    );

    fn setup(drop_rate: f64, seed: u64) -> Setup {
        let clock = Clock::virtual_at(0);
        let net = Arc::new(Network::new(clock.clone(), seed));
        net.set_latency_ms(1);
        net.set_drop_rate(drop_rate);
        let sink = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&sink);
        let inner: DeliveryHandler = Arc::new(move |env: Envelope| s2.lock().push(env.body));
        let wrapped = reliable_receiver(Arc::clone(&net), inner);
        net.register("svc", wrapped);
        let sender = ReliableSender::new(Arc::clone(&net), "me/acks", 10, 20);
        (clock, net, sender, sink)
    }

    fn run(clock: &Clock, net: &Network, sender: &ReliableSender, steps: usize) {
        for _ in 0..steps {
            clock.advance(5);
            net.pump();
            sender.tick();
        }
    }

    #[test]
    fn clean_network_delivers_once() {
        let (clock, net, sender, sink) = setup(0.0, 1);
        sender.send(Envelope::new("svc", "me", "<m/>")).unwrap();
        run(&clock, &net, &sender, 5);
        assert_eq!(sink.lock().len(), 1);
        assert_eq!(sender.pending(), 0, "ack received");
        assert_eq!(sender.retransmissions(), 0);
    }

    #[test]
    fn lossy_network_retries_until_delivered_exactly_once() {
        let (clock, net, sender, sink) = setup(0.6, 99);
        for i in 0..20 {
            sender
                .send(Envelope::new("svc", "me", format!("<m>{i}</m>")))
                .unwrap();
        }
        run(&clock, &net, &sender, 200);
        let delivered = sink.lock().clone();
        assert_eq!(delivered.len(), 20, "all messages arrive exactly once");
        let unique: HashSet<_> = delivered.iter().collect();
        assert_eq!(unique.len(), 20, "no duplicates reach the application");
        assert!(sender.retransmissions() > 0, "loss forced retries");
        assert_eq!(sender.pending(), 0);
    }

    #[test]
    fn outage_then_recovery() {
        let (clock, net, sender, sink) = setup(0.0, 5);
        net.disconnect("svc");
        sender.send(Envelope::new("svc", "me", "<m/>")).unwrap();
        run(&clock, &net, &sender, 5);
        assert!(sink.lock().is_empty());
        net.reconnect("svc");
        run(&clock, &net, &sender, 10);
        assert_eq!(
            sink.lock().len(),
            1,
            "delivered after the endpoint came back"
        );
    }

    #[test]
    fn permanent_outage_exhausts_retries() {
        let (clock, net, sender, _sink) = setup(0.0, 5);
        net.disconnect("svc");
        sender.send(Envelope::new("svc", "me", "<m/>")).unwrap();
        run(&clock, &net, &sender, 100);
        let failed = sender.take_failed();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].1.kind_element(), "deliveryTimeout");
        assert_eq!(sender.pending(), 0);
    }

    #[test]
    fn no_route_fails_fast() {
        let (_, _, sender, _) = setup(0.0, 5);
        let err = sender
            .send(Envelope::new("ghost", "me", "<m/>"))
            .unwrap_err();
        assert!(matches!(err, TransportError::NoRoute(_)));
    }
}
