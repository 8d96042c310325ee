//! The four workloads. Each owns its program text, its seeded input
//! generator and a plain-Rust reference model that predicts every output
//! message, so a run is checked as well as timed.

pub mod durable_sharded;
pub mod gateway_openloop;
pub mod rules_cpu;
pub mod slice_state;

use crate::engine::{Engine, Input};
use crate::trace::Recorder;
use demaq_store::{MsgId, SyncPolicy};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Expected output bodies per queue, as a multiset.
pub type Expected = BTreeMap<&'static str, HashMap<String, i64>>;

pub fn expect(expected: &mut Expected, queue: &'static str, body: String) {
    *expected.entry(queue).or_default().entry(body).or_insert(0) += 1;
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Threads the workload runs (driver/generator plus engine workers).
    fn threads(&self) -> usize;
    fn program(&self) -> &'static str;
    /// The durability policy the workload deploys with.
    fn sync_policy(&self) -> SyncPolicy;
    /// Build the engine on `dir` (again on the same directory: recovery).
    /// `sync` is the workload's own policy, or `Batch` for the twin that
    /// prices CPU with device flushes left out.
    fn open_with(&self, dir: &Path, sync: SyncPolicy) -> demaq::Result<Engine>;
    fn open(&self, dir: &Path) -> demaq::Result<Engine> {
        self.open_with(dir, self.sync_policy())
    }
    /// Messages fed per segment (between two `maintenance()` calls).
    fn segment_msgs(&self) -> usize;
    /// Messages fed back to back before the engine drains. Slice reads see
    /// every member enqueued so far, so the model needs to know.
    fn burst(&self) -> usize;
    /// Messages the `Batch` twin is fed per cycle. Without device flushes
    /// a segment sized for the real engine is over in tens of
    /// milliseconds; the twin needs a few hundred to price CPU steadily.
    fn twin_segment_msgs(&self) -> usize {
        self.segment_msgs()
    }
    /// Generate the next `n` inputs and advance the reference model as if
    /// they were fed in bursts of `burst` and drained after each burst.
    fn next_inputs(&mut self, n: usize, burst: usize) -> Vec<Input>;
    /// Hand one input to the engine the way this workload's clients do;
    /// returns the message id when the engine acknowledges with one.
    fn feed(&self, engine: &Engine, input: &Input) -> Result<Option<MsgId>, String> {
        engine.feed(input).map(Some).map_err(|e| e.to_string())
    }
    /// Process what one fed message caused, one span per call into the
    /// engine; returns messages processed. A single server is stepped one
    /// message at a time; shards are drained through their router.
    fn drive(&self, engine: &Engine, rec: &mut Recorder, req: u64) -> demaq::Result<u64> {
        match engine {
            Engine::Single(server) => {
                let mut processed = 0;
                loop {
                    rec.begin("step", req);
                    if !server.step()? {
                        rec.cancel();
                        return Ok(processed);
                    }
                    rec.end();
                    processed += 1;
                }
            }
            Engine::Sharded(sharded) => rec.span("drain", req, |_| sharded.run_until_idle()),
        }
    }
    /// Every queue whose contents the model predicts.
    fn checked_queues(&self) -> &'static [&'static str];
    /// The model's predictions since the last call.
    fn take_expected(&mut self) -> Expected;
    /// Map an actual body to the form the model predicts (error messages
    /// embed store-assigned ids).
    fn normalize(&self, _queue: &str, body: String) -> String {
        body
    }
    /// Workload-specific state checks beyond queue contents; returns
    /// failures found.
    fn check_state(&mut self, _engine: &Engine) -> u64 {
        0
    }
    /// Payloads representative of what the XML layer parses here.
    fn corpus(&self) -> Vec<String>;
    /// Rule conditions as pure expressions over a corpus document, for the
    /// evaluator probe.
    fn probe_conditions(&self) -> &'static [&'static str];
}

/// Compare the checked queues with the model's predictions. Returns the
/// number of missing, wrong or duplicated messages.
pub fn verify(w: &mut dyn Workload, engine: &Engine) -> u64 {
    let mut expected = w.take_expected();
    for &queue in w.checked_queues() {
        let bodies = engine
            .queue_bodies(queue)
            .unwrap_or_else(|e| panic!("read queue {queue}: {e}"));
        let slot = expected.entry(queue).or_default();
        for body in bodies {
            *slot.entry(w.normalize(queue, body)).or_insert(0) -= 1;
        }
    }
    let mut failures = 0u64;
    let mut shown = 0;
    for (queue, bodies) in &expected {
        for (body, &residual) in bodies {
            if residual != 0 {
                failures += residual.unsigned_abs();
                if shown < 5 {
                    shown += 1;
                    let what = if residual > 0 {
                        "missing"
                    } else {
                        "unexpected"
                    };
                    eprintln!(
                        "{}: {what} ×{} in `{queue}`: {body}",
                        w.name(),
                        residual.abs()
                    );
                }
            }
        }
    }
    failures + w.check_state(engine)
}

pub const NAMES: [&str; 4] = [
    "rules_cpu",
    "durable_sharded",
    "slice_state",
    "gateway_openloop",
];

/// A workload by name, its inputs drawn from `seed`. `scale` divides the
/// frozen sizes (`--quick` passes 10).
pub fn by_name(name: &str, seed: u64, scale: usize) -> Option<Box<dyn Workload>> {
    match name {
        "rules_cpu" => Some(Box::new(rules_cpu::RulesCpu::new(seed, scale))),
        "durable_sharded" => Some(Box::new(durable_sharded::DurableSharded::new(seed, scale))),
        "slice_state" => Some(Box::new(slice_state::SliceState::new(seed, scale))),
        "gateway_openloop" => Some(Box::new(gateway_openloop::GatewayOpenLoop::new(
            seed, scale,
        ))),
        _ => None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Feed `msgs` generated inputs in bursts through the real engine and
    /// hold the result against the model: the two were written apart, so
    /// agreement checks both.
    pub fn engine_agrees_with_model(name: &str, msgs: usize, burst: usize) {
        let mut w = by_name(name, 11, 1).unwrap();
        let dir = crate::host::fresh_dir(&format!("test-{name}-{msgs}-{burst}"));
        let engine = w.open(&dir).unwrap();
        let inputs = w.next_inputs(msgs, burst);
        assert_eq!(inputs.len(), msgs);
        for chunk in inputs.chunks(burst) {
            for input in chunk {
                w.feed(&engine, input).unwrap();
            }
            engine.drain().unwrap();
        }
        assert_eq!(
            verify(w.as_mut(), &engine),
            0,
            "{name}: engine and model disagree"
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_same_inputs_for_every_workload() {
        for name in NAMES {
            let xml = |seed: u64| -> Vec<String> {
                let mut w = by_name(name, seed, 1).unwrap();
                let burst = w.burst();
                w.next_inputs(50, burst)
                    .into_iter()
                    .map(|i| i.xml)
                    .collect()
            };
            assert_eq!(xml(7), xml(7), "{name}");
            assert_ne!(xml(7), xml(8), "{name}");
        }
        assert!(by_name("nope", 1, 1).is_none());
    }

    #[test]
    fn verify_counts_missing_and_unexpected_messages() {
        let mut w = by_name("rules_cpu", 3, 1).unwrap();
        let dir = crate::host::fresh_dir("test-verify-counts");
        let engine = w.open(&dir).unwrap();
        // Nothing fed: every prediction of the model is missing.
        let _ = w.next_inputs(5, 5);
        let predicted: i64 = w.take_expected().values().flat_map(|q| q.values()).sum();
        let _ = w.next_inputs(5, 5);
        assert!(predicted >= 5);
        assert!(verify(w.as_mut(), &engine) >= 5);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
