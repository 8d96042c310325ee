//! The endpoint registry and asynchronous delivery simulation.
//!
//! Endpoints register a [`DeliveryHandler`]; senders call [`Network::send`],
//! which models latency by parking envelopes on an in-flight list keyed by
//! due time. The owner of the [`crate::Clock`] (the Demaq server's
//! background task) calls [`Network::pump`] to deliver everything due.
//!
//! Failure injection:
//! * [`Network::disconnect`] — sends to that address fail immediately with
//!   [`TransportError::Disconnected`],
//! * [`Network::set_drop_rate`] — a seeded RNG silently drops that
//!   fraction of envelopes in flight (retried by the reliable layer).

use crate::clock::Clock;
use crate::envelope::Envelope;
use crate::error::TransportError;
use demaq_obs::{Counter, Obs};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Callback invoked when an envelope arrives at an endpoint.
pub type DeliveryHandler = Arc<dyn Fn(Envelope) + Send + Sync>;

struct InFlight {
    due: i64,
    env: Envelope,
}

struct NetState {
    endpoints: HashMap<String, DeliveryHandler>,
    disconnected: HashSet<String>,
    in_flight: Vec<InFlight>,
    drop_rate: f64,
    rng: StdRng,
    latency_ms: i64,
    delivered: u64,
    dropped: u64,
}

/// Registry handles for transport metrics (`demaq_net_*`).
struct NetMetrics {
    sent: Counter,
    delivered: Counter,
    dropped: Counter,
}

/// The simulated network.
pub struct Network {
    clock: Clock,
    state: Mutex<NetState>,
    metrics: OnceLock<NetMetrics>,
}

impl Network {
    /// Create a network on the given clock. `seed` drives the failure RNG
    /// (deterministic experiments).
    pub fn new(clock: Clock, seed: u64) -> Network {
        Network {
            clock,
            state: Mutex::new(NetState {
                endpoints: HashMap::new(),
                disconnected: HashSet::new(),
                in_flight: Vec::new(),
                drop_rate: 0.0,
                rng: StdRng::seed_from_u64(seed),
                latency_ms: 1,
                delivered: 0,
                dropped: 0,
            }),
            metrics: OnceLock::new(),
        }
    }

    /// Register transport counters (`demaq_net_sent_total`,
    /// `demaq_net_delivered_total`, `demaq_net_dropped_total`) in `obs`.
    /// First attachment wins — on a shared multi-node network the first
    /// server's registry collects transport-wide counts.
    pub fn attach_obs(&self, obs: &Obs) {
        let _ = self.metrics.set(NetMetrics {
            sent: obs.registry.counter("demaq_net_sent_total"),
            delivered: obs.registry.counter("demaq_net_delivered_total"),
            dropped: obs.registry.counter("demaq_net_dropped_total"),
        });
    }

    /// Register (or replace) the handler for an address.
    pub fn register(&self, addr: impl Into<String>, handler: DeliveryHandler) {
        self.state.lock().endpoints.insert(addr.into(), handler);
    }

    /// Simulate an endpoint outage.
    pub fn disconnect(&self, addr: &str) {
        self.state.lock().disconnected.insert(addr.to_string());
    }

    /// End an outage.
    pub fn reconnect(&self, addr: &str) {
        self.state.lock().disconnected.remove(addr);
    }

    /// Fraction (0.0–1.0) of in-flight envelopes silently lost.
    pub fn set_drop_rate(&self, rate: f64) {
        self.state.lock().drop_rate = rate.clamp(0.0, 1.0);
    }

    /// Fixed one-way latency applied to every send.
    pub fn set_latency_ms(&self, ms: i64) {
        self.state.lock().latency_ms = ms.max(0);
    }

    /// Submit an envelope. Fails fast on routing/connectivity errors;
    /// otherwise the message is in flight until [`Self::pump`].
    pub fn send(&self, env: Envelope) -> Result<(), TransportError> {
        let mut st = self.state.lock();
        if !st.endpoints.contains_key(&env.to) {
            return Err(TransportError::NoRoute(env.to));
        }
        if st.disconnected.contains(&env.to) {
            return Err(TransportError::Disconnected(env.to));
        }
        if let Some(m) = self.metrics.get() {
            m.sent.inc();
        }
        if st.drop_rate > 0.0 {
            let p: f64 = st.rng.gen();
            if p < st.drop_rate {
                st.dropped += 1;
                if let Some(m) = self.metrics.get() {
                    m.dropped.inc();
                }
                return Ok(()); // lost in transit: sender believes it went out
            }
        }
        let due = self.clock.now() + st.latency_ms;
        st.in_flight.push(InFlight { due, env });
        Ok(())
    }

    /// Deliver all envelopes due at the current clock. Returns the number
    /// delivered.
    pub fn pump(&self) -> usize {
        let now = self.clock.now();
        let (due, handlers): (Vec<Envelope>, Vec<DeliveryHandler>) = {
            let mut st = self.state.lock();
            let mut due = Vec::new();
            let mut rest = Vec::new();
            let in_flight = std::mem::take(&mut st.in_flight);
            for inf in in_flight {
                if inf.due <= now && !st.disconnected.contains(&inf.env.to) {
                    due.push(inf.env);
                } else {
                    rest.push(inf);
                }
            }
            st.in_flight = rest;
            // Endpoints may have been unregistered since send: such
            // envelopes vanish (the remote went away).
            let mut kept = Vec::new();
            let mut handlers = Vec::new();
            for e in due {
                if let Some(h) = st.endpoints.get(&e.to) {
                    handlers.push(Arc::clone(h));
                    kept.push(e);
                } else {
                    st.dropped += 1;
                    if let Some(m) = self.metrics.get() {
                        m.dropped.inc();
                    }
                }
            }
            st.delivered += kept.len() as u64;
            if let Some(m) = self.metrics.get() {
                m.delivered.add(kept.len() as u64);
            }
            (kept, handlers)
        };
        // Invoke handlers outside the lock: they may send again.
        let n = due.len();
        for (env, handler) in due.into_iter().zip(handlers) {
            handler(env);
        }
        n
    }

    /// Messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.state.lock().in_flight.len()
    }

    /// Earliest due time among in-flight envelopes (virtual-clock servers
    /// fast-forward to this when otherwise idle).
    pub fn next_due(&self) -> Option<i64> {
        self.state.lock().in_flight.iter().map(|f| f.due).min()
    }

    /// (delivered, dropped) counters.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.delivered, st.dropped)
    }

    /// Clock this network runs on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;

    fn collector() -> (DeliveryHandler, Arc<PMutex<Vec<String>>>) {
        let sink = Arc::new(PMutex::new(Vec::new()));
        let s2 = Arc::clone(&sink);
        (
            Arc::new(move |env: Envelope| s2.lock().push(env.body)),
            sink,
        )
    }

    #[test]
    fn deliver_after_latency() {
        let clock = Clock::virtual_at(0);
        let net = Network::new(clock.clone(), 7);
        let (handler, sink) = collector();
        net.register("svc", handler);
        net.set_latency_ms(10);
        net.send(Envelope::new("svc", "me", "<m/>")).unwrap();
        assert_eq!(net.pump(), 0, "not due yet");
        clock.advance(10);
        assert_eq!(net.pump(), 1);
        assert_eq!(sink.lock().as_slice(), ["<m/>"]);
    }

    #[test]
    fn no_route_and_disconnect() {
        let net = Network::new(Clock::virtual_at(0), 7);
        let err = net.send(Envelope::new("ghost", "me", "<m/>")).unwrap_err();
        assert!(matches!(err, TransportError::NoRoute(_)));

        let (handler, _) = collector();
        net.register("svc", handler);
        net.disconnect("svc");
        let err = net.send(Envelope::new("svc", "me", "<m/>")).unwrap_err();
        assert_eq!(err.kind_element(), "disconnectedTransport");
        net.reconnect("svc");
        net.send(Envelope::new("svc", "me", "<m/>")).unwrap();
    }

    #[test]
    fn drop_rate_loses_messages() {
        let clock = Clock::virtual_at(0);
        let net = Network::new(clock.clone(), 42);
        let (handler, sink) = collector();
        net.register("svc", handler);
        net.set_drop_rate(0.5);
        for _ in 0..200 {
            net.send(Envelope::new("svc", "me", "<m/>")).unwrap();
        }
        clock.advance(5);
        net.pump();
        let got = sink.lock().len();
        assert!(got > 50 && got < 150, "~half should arrive, got {got}");
        let (_, dropped) = net.stats();
        assert_eq!(dropped as usize + got, 200);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed: u64| {
            let clock = Clock::virtual_at(0);
            let net = Network::new(clock.clone(), seed);
            let (handler, sink) = collector();
            net.register("svc", handler);
            net.set_drop_rate(0.3);
            for i in 0..50 {
                net.send(Envelope::new("svc", "me", format!("<m>{i}</m>")))
                    .unwrap();
            }
            clock.advance(5);
            net.pump();
            let delivered: Vec<String> = sink.lock().clone();
            delivered
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn handlers_can_reply() {
        // Request/response through the network (re-entrant send).
        let clock = Clock::virtual_at(0);
        let net = Arc::new(Network::new(clock.clone(), 7));
        let (client_handler, client_sink) = collector();
        net.register("client", client_handler);
        let net2 = Arc::clone(&net);
        net.register(
            "server",
            Arc::new(move |env: Envelope| {
                let reply = Envelope::new("client", "server", format!("<re>{}</re>", env.body));
                net2.send(reply).unwrap();
            }),
        );
        net.send(Envelope::new("server", "client", "<req/>"))
            .unwrap();
        clock.advance(1);
        net.pump();
        clock.advance(1);
        net.pump();
        assert_eq!(client_sink.lock().as_slice(), ["<re><req/></re>"]);
    }
}
