//! `gateway_openloop`: the whole message life — gateway in, schedule,
//! parse, evaluate, lock, WAL, fsync, apply, gateway out — at scheduler
//! depth ≈ 1 with a lone committer, so the commit path is latency-bound.

use super::{expect, Expected, Workload};
use crate::engine::{Engine, Input};
use crate::rng::Rng;
use crate::trace::Recorder;
use demaq::Server;
use demaq_net::{Clock, Envelope, Network};
use demaq_store::{MsgId, SyncPolicy};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const PROGRAM: &str = r#"
create queue inbound kind incomingGateway mode persistent endpoint "urn:bench-in"
create queue work kind basic mode persistent
create queue outbound kind outgoingGateway mode persistent endpoint "urn:bench-sink"
create rule accept for inbound
  if (/req) then do enqueue <job n="{/req/@n}">{/req/body/text()}</job> into work
create rule reply for work
  if (/job) then
    do enqueue <resp n="{/job/@n}" len="{string-length(/job)}"/> into outbound
"#;

/// Arrivals per second of the open-loop schedule: about a quarter of the
/// rate at which the builder's disk saturated (see README, calibration).
pub const RATE_PER_S: f64 = 400.0;
/// Requests per segment when the workload is driven closed-loop (the
/// traced run and the open loop's warm-up).
const SEGMENT_REQUESTS: usize = 400;

const WORDS: [&str; 6] = ["quote", "order", "status", "cancel", "refund", "track"];

/// One delivery at the sink endpoint.
pub struct Delivery {
    pub body: String,
    pub at: Instant,
}

/// The remote endpoint behind the outgoing gateway: stamps each delivery.
#[derive(Default)]
pub struct Sink {
    deliveries: Mutex<Vec<Delivery>>,
}

impl Sink {
    pub fn delivered(&self) -> usize {
        self.deliveries.lock().expect("sink mutex poisoned").len()
    }

    pub fn take(&self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries.lock().expect("sink mutex poisoned"))
    }
}

/// The request index a response body carries: `<resp n="17" …`.
pub fn response_index(body: &str) -> Option<u64> {
    let rest = body.strip_prefix("<resp n=\"")?;
    rest[..rest.find('"')?].parse().ok()
}

pub fn request_xml(n: u64, text: &str) -> String {
    format!("<req n=\"{n}\"><body>{text}</body></req>")
}

pub fn response_xml(n: u64, text: &str) -> String {
    format!("<resp n=\"{n}\" len=\"{}\"/>", text.len())
}

pub struct GatewayOpenLoop {
    rng: Rng,
    next_index: u64,
    segment: usize,
    pub net: Arc<Network>,
    pub sink: Arc<Sink>,
    expected: Expected,
    /// Response bodies the sink must see, once each, since the last check.
    awaited: Vec<String>,
}

impl GatewayOpenLoop {
    pub fn new(seed: u64, scale: usize) -> GatewayOpenLoop {
        let net = Arc::new(Network::new(Clock::wall(), seed));
        net.set_latency_ms(0);
        let sink = Arc::new(Sink::default());
        let stamp = Arc::clone(&sink);
        net.register(
            "urn:bench-sink",
            Arc::new(move |env: Envelope| {
                let at = Instant::now();
                stamp
                    .deliveries
                    .lock()
                    .expect("sink mutex poisoned")
                    .push(Delivery { body: env.body, at });
            }),
        );
        GatewayOpenLoop {
            rng: Rng::new(seed, 4),
            next_index: 0,
            segment: SEGMENT_REQUESTS / scale,
            net,
            sink,
            expected: Expected::new(),
            awaited: Vec::new(),
        }
    }

    /// The next request and the response the rules must produce for it.
    pub fn next_request(&mut self) -> (String, String) {
        let n = self.next_index;
        self.next_index += 1;
        let mut text = String::new();
        for w in 0..self.rng.range(3, 9) {
            if w > 0 {
                text.push(' ');
            }
            text.push_str(WORDS[self.rng.below(6) as usize]);
        }
        (request_xml(n, &text), response_xml(n, &text))
    }

    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// The open-loop driver checks its own deliveries; drop what the
    /// closed-loop checks would otherwise still wait for.
    pub fn forget_expectations(&mut self) {
        self.expected.clear();
        self.awaited.clear();
    }

    /// Deliveries since the last call against `awaited` response bodies:
    /// every one exactly once. Returns failures.
    pub fn check_deliveries(deliveries: &[Delivery], awaited: &[String]) -> u64 {
        let mut residual = std::collections::HashMap::new();
        for body in awaited {
            *residual.entry(body.as_str()).or_insert(0i64) += 1;
        }
        for d in deliveries {
            *residual.entry(d.body.as_str()).or_insert(0) -= 1;
        }
        residual.values().map(|r| r.unsigned_abs()).sum()
    }
}

impl Workload for GatewayOpenLoop {
    fn name(&self) -> &'static str {
        "gateway_openloop"
    }

    /// The generator and one engine thread.
    fn threads(&self) -> usize {
        2
    }

    fn program(&self) -> &'static str {
        PROGRAM
    }

    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::Always
    }

    fn open_with(&self, dir: &Path, sync: SyncPolicy) -> demaq::Result<Engine> {
        Server::builder()
            .program(PROGRAM)
            .dir(dir)
            .sync_policy(sync)
            .network(Arc::clone(&self.net))
            .build()
            .map(|s| Engine::Single(Box::new(s)))
    }

    fn segment_msgs(&self) -> usize {
        self.segment
    }

    fn burst(&self) -> usize {
        self.segment
    }

    /// 6400 requests, about 0.35 s of CPU.
    fn twin_segment_msgs(&self) -> usize {
        16 * self.segment
    }

    fn next_inputs(&mut self, n: usize, _burst: usize) -> Vec<Input> {
        (0..n)
            .map(|_| {
                let (request, response) = self.next_request();
                let job = request
                    .replacen("<req", "<job", 1)
                    .replace("<body>", "")
                    .replace("</body></req>", "</job>");
                expect(&mut self.expected, "work", job);
                expect(&mut self.expected, "outbound", response.clone());
                self.awaited.push(response);
                Input {
                    queue: "inbound",
                    xml: request,
                    props: Vec::new(),
                }
            })
            .collect()
    }

    /// Requests arrive over the transport, not through `enqueue_external`.
    fn feed(&self, _engine: &Engine, input: &Input) -> Result<Option<MsgId>, String> {
        self.net
            .send(Envelope::new(
                "urn:bench-in",
                "urn:bench-gen",
                input.xml.clone(),
            ))
            .map(|()| None)
            .map_err(|e| e.to_string())
    }

    /// The transport hands the request to the gateway (`pump`); draining
    /// then ingests it, runs both rules and delivers the response.
    fn drive(&self, engine: &Engine, rec: &mut Recorder, req: u64) -> demaq::Result<u64> {
        let Engine::Single(server) = engine else {
            unreachable!("gateway_openloop runs one server")
        };
        rec.span("pump", req, |_| self.net.pump());
        rec.span("drain", req, |_| server.run_until_idle())
    }

    fn checked_queues(&self) -> &'static [&'static str] {
        &["work", "outbound"]
    }

    fn take_expected(&mut self) -> Expected {
        std::mem::take(&mut self.expected)
    }

    fn check_state(&mut self, _engine: &Engine) -> u64 {
        let failures = Self::check_deliveries(&self.sink.take(), &self.awaited);
        if failures > 0 {
            eprintln!("gateway_openloop: {failures} responses missing or duplicated at the sink");
        }
        self.awaited.clear();
        failures
    }

    fn corpus(&self) -> Vec<String> {
        let mut twin = GatewayOpenLoop::new(0xC0, 1);
        (0..256).map(|_| twin.next_request().0).collect()
    }

    fn probe_conditions(&self) -> &'static [&'static str] {
        &["/req", "/req/body/text()", "string-length(/req)"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_carry_the_request_index_and_text_length() {
        assert_eq!(
            request_xml(17, "quote order"),
            "<req n=\"17\"><body>quote order</body></req>"
        );
        assert_eq!(
            response_xml(17, "quote order"),
            "<resp n=\"17\" len=\"11\"/>"
        );
        assert_eq!(response_index("<resp n=\"17\" len=\"11\"/>"), Some(17));
        assert_eq!(response_index("<job n=\"17\"/>"), None);
        let mut w = GatewayOpenLoop::new(2, 1);
        let (request, response) = w.next_request();
        assert!(
            request.starts_with("<req n=\"0\"><body>")
                && response.starts_with("<resp n=\"0\" len=\"")
        );
        assert_eq!(w.next_index(), 1);
    }

    #[test]
    fn deliveries_must_arrive_exactly_once() {
        let at = Instant::now();
        let d = |body: &str| Delivery {
            body: body.to_string(),
            at,
        };
        let awaited = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        assert_eq!(
            GatewayOpenLoop::check_deliveries(&[d("a"), d("b"), d("c")], &awaited),
            0
        );
        assert_eq!(
            GatewayOpenLoop::check_deliveries(&[d("a"), d("c")], &awaited),
            1,
            "one missing"
        );
        assert_eq!(
            GatewayOpenLoop::check_deliveries(&[d("a"), d("b"), d("b"), d("c")], &awaited),
            1,
            "one duplicate"
        );
        assert_eq!(
            GatewayOpenLoop::check_deliveries(&[d("a"), d("b"), d("x")], &awaited),
            2,
            "one wrong, one missing"
        );
    }

    #[test]
    fn fifty_requests_through_both_gateways_match_the_model() {
        super::super::tests::engine_agrees_with_model("gateway_openloop", 50, 50);
    }
}
