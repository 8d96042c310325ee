//! Message-lifetime (relevance) analysis: which retained messages is the
//! application provably done with?
//!
//! The paper couples retention to slice membership (Sec. 2.3.3) — a
//! processed message stays in the store for as long as some slice can
//! still read it. This pass abstract-interprets the per-rule
//! [`RuleFacts`] (their pruned [`ScanReads`] and aggregate-read facts)
//! plus every property binding to place each queue and slicing on the
//! **liveness lattice**:
//!
//! ```text
//!            FullScan            arbitrary member reads (today's behavior)
//!           /        \
//!   AggregateOnly  BoundedSuffix  read only through incremental aggregate
//!           \        /            cells / only the newest k members
//!            Unread               no member document is ever read
//! ```
//!
//! The join of two shapes is the least shape that answers both read
//! families; mixed aggregate + suffix reads join to `FullScan` rather
//! than tracking both retention strategies at once.
//!
//! The lattice lowers to a per-application [`RetentionPlan`] carried on
//! `Analysis` (and hence `CompiledApp`): a slicing whose own reads stay
//! below `FullScan` *and* whose member queues are never read as queues
//! is **narrowable** — the engine may fold processed members into a
//! persisted accumulator (`AggregateOnly`), keep only the proven suffix
//! (`BoundedSuffix`), or drop them outright (`Unread`), and the store's
//! GC then purges the member payloads. Anything the analysis cannot
//! prove stays fully retained, so enabling the plan can never change
//! observable results — only the store's footprint.

use crate::facts::{
    extract_aggregate_reads, extract_scan_reads, AggReadSource, RuleFacts, ScanReads,
};
use demaq_qdl::{AppSpec, PropKind};
use std::collections::BTreeMap;

/// How the application reads a queue's (or slicing's) member documents —
/// one point of the liveness lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadShape {
    /// No member document is ever read.
    Unread,
    /// Members are read exclusively through aggregate shapes the
    /// incremental pass maintains; a persisted accumulator can stand in
    /// for the member payloads.
    AggregateOnly,
    /// Only the newest `k` members are ever read (`SOURCE[last()]`).
    BoundedSuffix(usize),
    /// Arbitrary member reads: full retention required (conservative
    /// fallback = behavior before this pass existed).
    FullScan,
}

impl ReadShape {
    /// Least shape that answers both read families.
    pub fn join(self, other: ReadShape) -> ReadShape {
        use ReadShape::*;
        match (self, other) {
            (Unread, x) | (x, Unread) => x,
            (FullScan, _) | (_, FullScan) => FullScan,
            (AggregateOnly, AggregateOnly) => AggregateOnly,
            (BoundedSuffix(a), BoundedSuffix(b)) => BoundedSuffix(a.max(b)),
            // Serving both at once would need two retention strategies
            // per slice; stay conservative.
            (AggregateOnly, BoundedSuffix(_)) | (BoundedSuffix(_), AggregateOnly) => FullScan,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            ReadShape::Unread => "unread",
            ReadShape::AggregateOnly => "aggregate-only",
            ReadShape::BoundedSuffix(_) => "bounded-suffix",
            ReadShape::FullScan => "full-scan",
        }
    }
}

/// The retention verdict for one slicing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicePlan {
    /// Join of every `qs:slice()` read in the slicing's rules.
    pub shape: ReadShape,
    /// Queues whose messages can become members of this slicing (the
    /// key property's binding queues for `fixed` properties; every
    /// queue for `inherited`/`explicit` keys, which any message can
    /// carry).
    pub member_queues: Vec<String>,
    /// Every member queue's own shape is `Unread`: purging a member
    /// payload cannot change any queue-level read.
    pub member_queues_unread: bool,
    /// Some rule resets this slicing (named or bare), bounding each
    /// slice generation's lifetime.
    pub has_reset: bool,
    /// The engine may narrow retention for this slicing — drop,
    /// summarize, or suffix-trim processed member payloads.
    pub narrowable: bool,
}

/// Per-application lowering of the liveness lattice, carried on
/// `Analysis` (and hence `CompiledApp`) for the engine's GC to consult.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetentionPlan {
    /// Queue name → how its members are read.
    pub queues: BTreeMap<String, ReadShape>,
    /// Slicing name → its retention verdict.
    pub slicings: BTreeMap<String, SlicePlan>,
    /// A dynamically-targeted read (`qs:queue(E)`, argument-less
    /// `qs:queue()` outside a queue rule, computed `collection(E)`)
    /// forced every queue to `FullScan`.
    pub dynamic_reads: bool,
}

impl RetentionPlan {
    /// Shape for a queue (absent = never mentioned = `Unread`).
    pub fn queue_shape(&self, queue: &str) -> ReadShape {
        if self.dynamic_reads {
            return ReadShape::FullScan;
        }
        self.queues.get(queue).copied().unwrap_or(ReadShape::Unread)
    }
}

/// Build the retention plan from the spec and per-rule facts.
pub fn retention_plan(spec: &AppSpec, rules: &[RuleFacts]) -> RetentionPlan {
    // Property bindings evaluate per message too; their reads count the
    // same as rule-body reads. Argument-less `qs:queue()` has no queue
    // context there, so it classifies as dynamic.
    let binding_reads: Vec<(ScanReads, Vec<crate::facts::AggregateReadFact>)> = spec
        .properties
        .iter()
        .flat_map(|p| p.bindings.iter())
        .map(|b| {
            (
                extract_scan_reads(&b.value, None),
                extract_aggregate_reads(&b.value, None),
            )
        })
        .collect();

    let dynamic_reads =
        rules.iter().any(|r| r.scan_reads.dynamic) || binding_reads.iter().any(|(s, _)| s.dynamic);

    // ---- per-queue shapes --------------------------------------------------
    let mut queues: BTreeMap<String, ReadShape> = spec
        .queues
        .iter()
        .map(|q| (q.name.clone(), ReadShape::Unread))
        .collect();
    {
        let mut join = |q: &str, shape: ReadShape| {
            let slot = queues.entry(q.to_string()).or_insert(ReadShape::Unread);
            *slot = slot.join(shape);
        };
        let absorb = |scans: &ScanReads,
                      aggs: &[crate::facts::AggregateReadFact],
                      join: &mut dyn FnMut(&str, ReadShape)| {
            for q in &scans.queues {
                join(q, ReadShape::FullScan);
            }
            for (q, k) in &scans.suffix {
                if let Some(q) = q {
                    join(q, ReadShape::BoundedSuffix(*k));
                }
            }
            for a in aggs {
                if let (AggReadSource::Queue(q), true) = (&a.source, a.incremental) {
                    join(q, ReadShape::AggregateOnly);
                }
                // Non-incremental aggregates also recorded a raw scan.
            }
        };
        for r in rules {
            absorb(&r.scan_reads, &r.aggregate_reads, &mut join);
        }
        for (scans, aggs) in &binding_reads {
            absorb(scans, aggs, &mut join);
        }
        if dynamic_reads {
            for shape in queues.values_mut() {
                *shape = ReadShape::FullScan;
            }
        }
    }

    // ---- per-slicing plans -------------------------------------------------
    let all_queues: Vec<String> = spec.queues.iter().map(|q| q.name.clone()).collect();
    let mut slicings: BTreeMap<String, SlicePlan> = BTreeMap::new();
    for s in &spec.slicings {
        let own_rules = || rules.iter().filter(|r| r.on_slicing && r.target == s.name);
        let mut shape = ReadShape::Unread;
        for r in own_rules() {
            if r.scan_reads.slice {
                shape = shape.join(ReadShape::FullScan);
            }
            for (q, k) in &r.scan_reads.suffix {
                if q.is_none() {
                    shape = shape.join(ReadShape::BoundedSuffix(*k));
                }
            }
            for a in &r.aggregate_reads {
                if a.source == AggReadSource::Slice {
                    shape = shape.join(if a.incremental {
                        ReadShape::AggregateOnly
                    } else {
                        ReadShape::FullScan
                    });
                }
            }
        }
        let has_reset = rules.iter().any(|r| {
            r.named_resets.iter().any(|n| n == &s.name)
                || (r.bare_resets > 0 && r.on_slicing && r.target == s.name)
        });
        // Which queues can contribute members? A `fixed` key is computed
        // only on its binding queues (plus any enqueue that names it in a
        // `with` clause, kept for conservatism); `inherited`/`explicit`
        // keys can ride on any message anywhere.
        let member_queues: Vec<String> = match spec.property(&s.property) {
            Some(p) if p.kind == PropKind::Fixed => {
                let mut qs: Vec<String> = p
                    .bindings
                    .iter()
                    .flat_map(|b| b.queues.iter().cloned())
                    .collect();
                for r in rules {
                    for site in &r.enqueues {
                        if site.with_props.iter().any(|(n, _)| n == &s.property) {
                            qs.push(site.queue.clone());
                        }
                    }
                }
                qs.sort();
                qs.dedup();
                qs
            }
            _ => all_queues.clone(),
        };
        let member_queues_unread = !dynamic_reads
            && member_queues
                .iter()
                .all(|q| matches!(queues.get(q.as_str()), Some(ReadShape::Unread)));
        let narrowable = member_queues_unread && shape != ReadShape::FullScan;
        slicings.insert(
            s.name.clone(),
            SlicePlan {
                shape,
                member_queues,
                member_queues_unread,
                has_reset,
                narrowable,
            },
        );
    }

    RetentionPlan {
        queues,
        slicings,
        dynamic_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_qdl::parse_program;

    fn plan(src: &str) -> RetentionPlan {
        let spec = parse_program(src).expect("parse");
        let facts: Vec<RuleFacts> = spec
            .rules
            .iter()
            .map(|r| RuleFacts::from_rule(r, &spec))
            .collect();
        retention_plan(&spec, &facts)
    }

    const TELEMETRY: &str = r#"
        create queue readings kind basic mode persistent
        create queue reports kind basic mode persistent
        create property device as xs:string fixed queue readings value //reading/@dev
        create slicing byDevice on device
        create rule rollover for byDevice
          if (count(qs:slice()) >= 16) then
            (do enqueue <window n="{count(qs:slice())}" total="{sum(qs:slice()//v)}"/>
               into reports,
             do reset)
    "#;

    #[test]
    fn join_is_commutative_and_conservative() {
        use ReadShape::*;
        assert_eq!(Unread.join(AggregateOnly), AggregateOnly);
        assert_eq!(AggregateOnly.join(BoundedSuffix(1)), FullScan);
        assert_eq!(BoundedSuffix(1).join(BoundedSuffix(3)), BoundedSuffix(3));
        assert_eq!(FullScan.join(Unread), FullScan);
    }

    #[test]
    fn aggregate_only_slicing_on_fixed_key_narrows() {
        let p = plan(TELEMETRY);
        let s = &p.slicings["byDevice"];
        assert_eq!(s.shape, ReadShape::AggregateOnly);
        assert_eq!(s.member_queues, ["readings"]);
        assert!(s.member_queues_unread, "{p:?}");
        assert!(s.has_reset);
        assert!(s.narrowable);
        assert_eq!(p.queue_shape("readings"), ReadShape::Unread);
    }

    #[test]
    fn raw_slice_scan_blocks_narrowing() {
        let p = plan(
            r#"
            create queue readings kind basic mode persistent
            create queue reports kind basic mode persistent
            create property device as xs:string fixed queue readings value //reading/@dev
            create slicing byDevice on device
            create rule dump for byDevice
              if (count(qs:slice()) >= 4) then
                (do enqueue <all>{qs:slice()//v}</all> into reports, do reset)
        "#,
        );
        let s = &p.slicings["byDevice"];
        assert_eq!(s.shape, ReadShape::FullScan);
        assert!(!s.narrowable);
    }

    #[test]
    fn member_queue_read_elsewhere_blocks_narrowing() {
        let p = plan(
            r#"
            create queue readings kind basic mode persistent
            create queue reports kind basic mode persistent
            create property device as xs:string fixed queue readings value //reading/@dev
            create slicing byDevice on device
            create rule roll for byDevice
              if (count(qs:slice()) >= 4) then do reset
            create rule audit for reports
              if (count(qs:queue("readings")) > 100) then
                do enqueue <big/> into reports
        "#,
        );
        // `count(qs:queue("readings"))` is AggregateOnly — but any
        // queue-level read observes retained members, so purging them
        // would change it.
        assert_eq!(p.queue_shape("readings"), ReadShape::AggregateOnly);
        assert!(!p.slicings["byDevice"].member_queues_unread);
        assert!(!p.slicings["byDevice"].narrowable);
    }

    #[test]
    fn suffix_reads_stay_bounded() {
        let p = plan(
            r#"
            create queue events kind basic mode persistent
            create queue out kind basic mode persistent
            create property sess as xs:string fixed queue events value //e/@s
            create slicing bySession on sess
            create rule latest for bySession
              if (qs:slice()[last()]//e/@kind = "close") then
                do enqueue <bye/> into out
        "#,
        );
        let s = &p.slicings["bySession"];
        assert_eq!(s.shape, ReadShape::BoundedSuffix(1));
        assert!(s.narrowable);
        assert!(!s.has_reset);
    }

    #[test]
    fn inherited_key_widens_member_queues_and_dynamic_reads_widen_all() {
        let p = plan(
            r#"
            create queue a kind basic mode persistent
            create queue b kind basic mode persistent
            create property lane as xs:integer inherited
            create slicing lanes on lane
            create rule roll for lanes
              if (count(qs:slice()) > 3) then do reset
        "#,
        );
        let s = &p.slicings["lanes"];
        assert_eq!(s.member_queues, ["a", "b"]);
        assert!(s.member_queues_unread);
        assert!(s.narrowable);

        let p = plan(
            r#"
            create queue a kind basic mode persistent
            create queue b kind basic mode persistent
            create property lane as xs:integer inherited
            create slicing lanes on lane
            create rule roll for lanes
              if (count(qs:slice()) > 3) then do reset
            create rule peek for a
              if (exists(collection(//which)//x)) then do enqueue <saw/> into b
        "#,
        );
        assert!(p.dynamic_reads);
        assert_eq!(p.queue_shape("a"), ReadShape::FullScan);
        assert!(!p.slicings["lanes"].narrowable);
    }

    #[test]
    fn unread_slicing_shape_allows_drop_narrowing() {
        // A slicing whose rules never read the slice at all (pure
        // latest-trigger logic) narrows to dropping members outright.
        let p = plan(
            r#"
            create queue pings kind basic mode persistent
            create queue out kind basic mode persistent
            create property host as xs:string fixed queue pings value //p/@h
            create slicing byHost on host
            create rule note for byHost
              if (qs:message()//p/@up = "0") then do enqueue <down/> into out
        "#,
        );
        let s = &p.slicings["byHost"];
        assert_eq!(s.shape, ReadShape::Unread);
        assert!(s.narrowable);
    }
}
