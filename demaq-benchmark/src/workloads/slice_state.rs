//! `slice_state`: telemetry fan-in. Slice *reads* beside appends, resets
//! and GC, with a retained working set about four times the document
//! cache — the opposite use of the store from `durable_sharded`.

use super::{expect, Expected, Workload};
use crate::engine::{Engine, Input};
use crate::rng::{Rng, Zipf};
use demaq::Server;
use demaq_store::SyncPolicy;
use std::collections::HashMap;
use std::path::Path;

/// `spike` reads its slice only through `count`/`sum` (incremental cells;
/// GC folds processed members into them and purges the payloads).
/// `rollover` bounds the group windows with `do reset`; `hot` scans every
/// member document of the window on every arrival (the scan comes first
/// in its condition) and fires when a hot reading joins two others.
pub const PROGRAM: &str = r#"
create queue readings kind basic mode persistent
create queue reports kind basic mode persistent
create queue alerts kind basic mode persistent
create property device as xs:string fixed queue readings value /reading/@dev
create property grp as xs:string fixed queue readings value /reading/@grp
create slicing byDevice on device
create slicing byGroup on grp

create rule spike for byDevice
  if (count(qs:slice()) >= 4 and
      qs:message()//v * count(qs:slice()) > 2 * sum(qs:slice()//v)) then
    do enqueue <spike dev="{qs:slicekey()}" v="{qs:message()//v/text()}"/> into alerts

create rule hot for byGroup
  if (count(qs:slice()//v[. > 95]) >= 3 and qs:message()//v > 95) then
    do enqueue <hot grp="{qs:slicekey()}" n="{count(qs:slice()//v[. > 95])}"
                    at="{qs:message()/reading/@seq}"/> into alerts

create rule rollover for byGroup
  if (count(qs:slice()) >= 96) then
    (do enqueue <window grp="{qs:slicekey()}" n="{count(qs:slice())}"
                        total="{sum(qs:slice()//v)}"/> into reports,
     do reset)
"#;

pub const DEVICES: usize = 2048;
pub const GROUPS: u64 = 64;
pub const WINDOW: usize = 96;
/// Group windows hold up to 64 × 96 readings of ~110 B (≈ 340 KB at
/// half-full windows); the cache gets about a quarter of that.
pub const DOC_CACHE_BUDGET: usize = 96 << 10;
/// Readings fed between two `maintenance()` calls.
const SEGMENT_READINGS: usize = 6000;
/// Readings that pile up before the engine drains, like a real fan-in.
const BURST: usize = 250;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    pub seq: u64,
    pub dev: usize,
    pub v: u64,
}

impl Reading {
    pub fn grp(&self) -> u64 {
        self.dev as u64 % GROUPS
    }

    pub fn to_xml(self) -> String {
        format!(
            "<reading dev=\"d{}\" grp=\"g{}\" seq=\"{}\"><v>{}</v><unit>celsius</unit></reading>",
            self.dev,
            self.grp(),
            self.seq,
            self.v
        )
    }
}

/// The slices as the rules see them. A slice contains every member
/// *enqueued* so far, processed or not, so a burst is first added whole
/// and then processed in arrival order.
#[derive(Default)]
pub struct Model {
    /// Per device: `(count, sum)` over its whole history.
    devices: HashMap<usize, (u64, u64)>,
    /// Per group: the values in the current window.
    groups: HashMap<u64, Vec<u64>>,
}

impl Model {
    pub fn burst(&mut self, readings: &[Reading], out: &mut Expected) {
        for r in readings {
            let d = self.devices.entry(r.dev).or_default();
            d.0 += 1;
            d.1 += r.v;
            self.groups.entry(r.grp()).or_default().push(r.v);
        }
        for r in readings {
            let (count, sum) = self.devices[&r.dev];
            if count >= 4 && r.v * count > 2 * sum {
                expect(
                    out,
                    "alerts",
                    format!("<spike dev=\"d{}\" v=\"{}\"/>", r.dev, r.v),
                );
            }
            let window = self
                .groups
                .get_mut(&r.grp())
                .expect("group was filled above");
            let hot = window.iter().filter(|&&v| v > 95).count();
            if hot >= 3 && r.v > 95 {
                expect(
                    out,
                    "alerts",
                    format!("<hot grp=\"g{}\" n=\"{hot}\" at=\"{}\"/>", r.grp(), r.seq),
                );
            }
            if window.len() >= WINDOW {
                let total: u64 = window.iter().sum();
                expect(
                    out,
                    "reports",
                    format!(
                        "<window grp=\"g{}\" n=\"{}\" total=\"{total}\"/>",
                        r.grp(),
                        window.len()
                    ),
                );
                // The reset empties the slice, members still waiting in
                // this burst included.
                window.clear();
            }
        }
    }
}

pub struct SliceState {
    rng: Rng,
    zipf: Zipf,
    next_seq: u64,
    segment: usize,
    burst: usize,
    model: Model,
    expected: Expected,
}

impl SliceState {
    pub fn new(seed: u64, scale: usize) -> SliceState {
        SliceState {
            rng: Rng::new(seed, 3),
            zipf: Zipf::new(DEVICES, 1.0),
            next_seq: 0,
            segment: SEGMENT_READINGS / scale,
            burst: BURST,
            model: Model::default(),
            expected: Expected::new(),
        }
    }

    fn reading(&mut self) -> Reading {
        let seq = self.next_seq;
        self.next_seq += 1;
        let v = if self.rng.chance(0.03) {
            self.rng.range(100, 120)
        } else {
            self.rng.range(10, 30)
        };
        Reading {
            seq,
            dev: self.zipf.sample(&mut self.rng),
            v,
        }
    }
}

impl Workload for SliceState {
    fn name(&self) -> &'static str {
        "slice_state"
    }

    fn threads(&self) -> usize {
        1
    }

    fn program(&self) -> &'static str {
        PROGRAM
    }

    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::Batch
    }

    fn open_with(&self, dir: &Path, sync: SyncPolicy) -> demaq::Result<Engine> {
        Server::builder()
            .program(PROGRAM)
            .dir(dir)
            .sync_policy(sync)
            .doc_cache_budget(DOC_CACHE_BUDGET)
            .build()
            .map(|s| Engine::Single(Box::new(s)))
    }

    fn segment_msgs(&self) -> usize {
        self.segment
    }

    fn burst(&self) -> usize {
        self.burst
    }

    fn next_inputs(&mut self, n: usize, burst: usize) -> Vec<Input> {
        let readings: Vec<Reading> = (0..n).map(|_| self.reading()).collect();
        for chunk in readings.chunks(burst) {
            self.model.burst(chunk, &mut self.expected);
        }
        readings
            .iter()
            .map(|r| Input {
                queue: "readings",
                xml: r.to_xml(),
                props: Vec::new(),
            })
            .collect()
    }

    fn checked_queues(&self) -> &'static [&'static str] {
        &["reports", "alerts"]
    }

    fn take_expected(&mut self) -> Expected {
        std::mem::take(&mut self.expected)
    }

    fn corpus(&self) -> Vec<String> {
        let mut rng = Rng::new(0xC0, 3);
        (0..256)
            .map(|seq| {
                Reading {
                    seq,
                    dev: rng.below(DEVICES as u64) as usize,
                    v: rng.range(10, 120),
                }
                .to_xml()
            })
            .collect()
    }

    fn probe_conditions(&self) -> &'static [&'static str] {
        &[
            "//v * 4 > 2 * 50",
            "count(//v[. > 95]) >= 3",
            "/reading/@seq",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alerts(out: &Expected, queue: &str) -> Vec<String> {
        let mut v: Vec<String> = out
            .get(queue)
            .into_iter()
            .flatten()
            .map(|(b, n)| format!("{n}x {b}"))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn spike_guard_reads_count_and_sum_of_everything_enqueued() {
        // One device, one burst of four: every message sees count 4 and
        // sum 130, so only v = 100 exceeds twice the mean (65).
        let burst: Vec<Reading> = [10, 10, 10, 100]
            .iter()
            .enumerate()
            .map(|(i, &v)| Reading {
                seq: i as u64,
                dev: 1,
                v,
            })
            .collect();
        let (mut model, mut out) = (Model::default(), Expected::new());
        model.burst(&burst, &mut out);
        assert_eq!(alerts(&out, "alerts"), ["1x <spike dev=\"d1\" v=\"100\"/>"]);
        // One message at a time the fourth still sees (4, 130); the first
        // three see fewer than four members.
        let (mut model, mut out) = (Model::default(), Expected::new());
        for r in &burst {
            model.burst(std::slice::from_ref(r), &mut out);
        }
        assert_eq!(alerts(&out, "alerts"), ["1x <spike dev=\"d1\" v=\"100\"/>"]);
    }

    #[test]
    fn a_full_window_reports_once_and_the_reset_empties_the_burst() {
        // 96 readings of 20 from 96 devices of group 5, in one burst: the
        // first one processed sees all 96, reports and resets; the other
        // 95 then see an empty slice.
        let burst: Vec<Reading> = (0..96)
            .map(|i| Reading {
                seq: i,
                dev: 5 + 64 * (i as usize % 32),
                v: 20,
            })
            .collect();
        assert!(burst.iter().all(|r| r.grp() == 5));
        let (mut model, mut out) = (Model::default(), Expected::new());
        model.burst(&burst, &mut out);
        assert_eq!(
            alerts(&out, "reports"),
            ["1x <window grp=\"g5\" n=\"96\" total=\"1920\"/>"]
        );
        // Each device got 3 readings of 20: count 3 < 4, no spike.
        assert!(alerts(&out, "alerts").is_empty());
    }

    #[test]
    fn hot_scan_fires_for_hot_messages_that_see_three_hot_values() {
        let values = [100, 101, 102, 20, 20];
        let burst: Vec<Reading> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| Reading {
                seq: i as u64,
                dev: 7 + 64 * i,
                v,
            })
            .collect();
        let (mut model, mut out) = (Model::default(), Expected::new());
        model.burst(&burst, &mut out);
        let expected: Vec<String> = (0..3)
            .map(|i| format!("1x <hot grp=\"g7\" n=\"3\" at=\"{i}\"/>"))
            .collect();
        assert_eq!(alerts(&out, "alerts"), expected);
        // Fed one at a time only the third message sees three hot values
        // and is hot itself.
        let (mut model, mut out) = (Model::default(), Expected::new());
        for r in &burst {
            model.burst(std::slice::from_ref(r), &mut out);
        }
        assert_eq!(alerts(&out, "alerts"), expected[2..]);
    }

    #[test]
    fn readings_through_the_engine_match_the_model() {
        super::super::tests::engine_agrees_with_model("slice_state", 50, 10);
        // Enough arrivals for windows to fill and roll over, in the
        // workload's own burst size and one at a time (the traced pace).
        super::super::tests::engine_agrees_with_model("slice_state", 3000, 250);
        super::super::tests::engine_agrees_with_model("slice_state", 800, 1);
    }
}
