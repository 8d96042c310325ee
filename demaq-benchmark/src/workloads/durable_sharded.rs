//! `durable_sharded`: two shards, one worker each, fsync on every commit,
//! tiny payloads, two trivial forwarding rules. The WAL, the commit path,
//! locking and the shard router do most of the work; XQuery almost none.

use super::{expect, Expected, Workload};
use crate::engine::{Engine, Input};
use crate::rng::Rng;
use demaq::Server;
use demaq_store::{PropValue, SyncPolicy};
use demaq_xquery::Atomic;
use std::path::Path;

/// The second hop re-keys the message (`with lane value`), so its home
/// shard is drawn afresh: about half of those hops forward cross-shard.
/// `overflow` never fires here; it is the slicing's only reader, through
/// `count`, which lets GC fold processed members away — a slicing nobody
/// reads is retained for ever and the store would grow without bound.
pub const PROGRAM: &str = r#"
create queue intake kind basic mode persistent
create queue enriched kind basic mode persistent
create queue done kind basic mode persistent
create queue alarms kind basic mode persistent
create property lane as xs:integer inherited
create slicing lanes on lane
create rule enrich for intake
  if (/job) then do enqueue <enriched n="{/job/@n}" to="{/job/@to}"/> into enriched
create rule finish for enriched
  if (/enriched) then
    do enqueue <done n="{/enriched/@n}"/> into done with lane value (/enriched/@to)
create rule overflow for lanes
  if (count(qs:slice()) >= 100000000) then
    do enqueue <overflow lane="{qs:slicekey()}"/> into alarms
"#;

pub const SHARDS: usize = 2;
pub const LANES: u64 = 64;
/// Jobs fed between two `maintenance()` calls; each costs about six
/// fsyncs, which sets the segment's length on the builder's disk.
const SEGMENT_JOBS: usize = 800;

pub struct DurableSharded {
    rng: Rng,
    next_index: u64,
    segment: usize,
    expected: Expected,
    /// Slice members the model expects per lane since the last GC.
    lane_members: Vec<usize>,
}

impl DurableSharded {
    pub fn new(seed: u64, scale: usize) -> DurableSharded {
        DurableSharded {
            rng: Rng::new(seed, 2),
            next_index: 0,
            segment: SEGMENT_JOBS / scale,
            expected: Expected::new(),
            lane_members: vec![0; LANES as usize],
        }
    }
}

pub fn job_xml(n: u64, to: u64) -> String {
    format!("<job n=\"{n}\" to=\"{to}\"/>")
}

impl Workload for DurableSharded {
    fn name(&self) -> &'static str {
        "durable_sharded"
    }

    /// One worker per shard; the feeding thread waits while they drain.
    fn threads(&self) -> usize {
        SHARDS
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
            .shards(SHARDS)
            .build()
            .map(Engine::Sharded)
    }

    fn segment_msgs(&self) -> usize {
        self.segment
    }

    fn burst(&self) -> usize {
        self.segment
    }

    /// 6400 jobs, about 0.45 s of CPU.
    fn twin_segment_msgs(&self) -> usize {
        8 * self.segment
    }

    fn next_inputs(&mut self, n: usize, _burst: usize) -> Vec<Input> {
        (0..n)
            .map(|_| {
                let i = self.next_index;
                self.next_index += 1;
                let (lane, to) = (self.rng.below(LANES), self.rng.below(LANES));
                // intake and enriched carry `lane`; done carries `to`.
                self.lane_members[lane as usize] += 2;
                self.lane_members[to as usize] += 1;
                expect(
                    &mut self.expected,
                    "enriched",
                    format!("<enriched n=\"{i}\" to=\"{to}\"/>"),
                );
                expect(&mut self.expected, "done", format!("<done n=\"{i}\"/>"));
                Input {
                    queue: "intake",
                    xml: job_xml(i, to),
                    props: vec![("lane".to_string(), Atomic::Int(lane as i64))],
                }
            })
            .collect()
    }

    fn checked_queues(&self) -> &'static [&'static str] {
        &["enriched", "done", "alarms"]
    }

    fn take_expected(&mut self) -> Expected {
        std::mem::take(&mut self.expected)
    }

    /// Slice membership per lane, summed over the shards: GC releases
    /// processed members, so the slices hold exactly what was fed since.
    fn check_state(&mut self, engine: &Engine) -> u64 {
        let mut failures = 0;
        for (lane, expected) in self.lane_members.iter_mut().enumerate() {
            let key = PropValue::Int(lane as i64);
            let actual: usize = engine
                .stores()
                .iter()
                .map(|s| s.slice_members("lanes", &key).len())
                .sum();
            if actual != *expected {
                eprintln!("durable_sharded: lane {lane} has {actual} slice members, model says {expected}");
                failures += actual.abs_diff(*expected) as u64;
            }
            *expected = 0;
        }
        failures
    }

    fn corpus(&self) -> Vec<String> {
        let mut rng = Rng::new(0xC0, 2);
        (0..256).map(|i| job_xml(i, rng.below(LANES))).collect()
    }

    fn probe_conditions(&self) -> &'static [&'static str] {
        &["/job", "/job/@n"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_predicts_one_enriched_and_one_done_per_job() {
        let mut w = DurableSharded::new(9, 1);
        let inputs = w.next_inputs(50, 50);
        let out = w.take_expected();
        assert_eq!(out["enriched"].values().sum::<i64>(), 50);
        assert_eq!(out["done"].values().sum::<i64>(), 50);
        assert!(out["done"].contains_key("<done n=\"49\"/>"));
        // Job 0 by hand: its `to` attribute re-appears on the enriched hop.
        let to = inputs[0]
            .xml
            .split("to=\"")
            .nth(1)
            .unwrap()
            .trim_end_matches("\"/>");
        assert!(out["enriched"].contains_key(&format!("<enriched n=\"0\" to=\"{to}\"/>")));
        // Three slice members per job: intake + enriched on `lane`, done on `to`.
        assert_eq!(w.lane_members.iter().sum::<usize>(), 150);
        assert!(inputs
            .iter()
            .all(|i| i.xml.len() < 100 && i.props.len() == 1));
    }

    #[test]
    fn fifty_jobs_through_two_shards_match_the_model() {
        super::super::tests::engine_agrees_with_model("durable_sharded", 50, 50);
    }
}
