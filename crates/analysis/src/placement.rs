//! Queue → shard placement derived from the whole-application flow graph.
//!
//! The paper's slice-granularity locking (Sec. 5) already treats slices as
//! independent units of work; placement extends that to a *partitioned*
//! deployment: N engine shards, each owning its own store (private WAL +
//! slice index), fronted by a routing directory that maps
//! `(queue, slicing-key-hash)` to a shard at enqueue time.
//!
//! The computed placement keeps two invariants:
//!
//! 1. **Slice completeness** — all messages carrying the same slicing-key
//!    value land on the same shard, so slicing rules see whole slices.
//!    With a single slicing key this holds by hashing the key value with
//!    one process-stable hash everywhere; queues that cannot be keyed
//!    (gateways, echo queues, queues read via `qs:queue(...)`) are pinned
//!    to a fixed shard instead.
//! 2. **Chain locality** — queues connected by flow edges or cross-queue
//!    reads share a *group*; a whole group is either key-partitioned or
//!    pinned together, so a hot rule chain (e.g. enrich → finish) never
//!    hops shards when the key is inherited down the chain.
//!
//! Messages that reach a key-partitioned queue *without* the key fall
//! back to the group's dedicated shard, keeping key-less traffic of one
//! chain co-located. A 1-shard placement routes everything to shard 0 and
//! degrades exactly to the single-server engine.

use crate::facts::RuleFacts;
use crate::graph::FlowGraph;
use demaq_qdl::{AppSpec, QueueKind};
use std::collections::{BTreeMap, BTreeSet};

/// Where one queue's messages live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueuePlacement {
    /// Every message of this queue lives on one shard.
    Fixed(usize),
    /// Messages are distributed by the hash of `property`'s value;
    /// messages that do not carry the key go to `fallback`.
    ByKey { property: String, fallback: usize },
}

/// The routing directory: queue name → placement, for a shard count.
#[derive(Debug, Clone)]
pub struct Placement {
    pub shards: usize,
    pub queues: BTreeMap<String, QueuePlacement>,
}

impl Placement {
    /// The trivial single-shard placement (everything on shard 0).
    pub fn single() -> Placement {
        Placement {
            shards: 1,
            queues: BTreeMap::new(),
        }
    }

    /// Destination shard for a message entering `queue`, given the stable
    /// hash of its slicing-key value (`None` when the key is absent).
    /// Unknown queues route to shard 0.
    pub fn route(&self, queue: &str, key_hash: Option<u64>) -> usize {
        if self.shards <= 1 {
            return 0;
        }
        match self.queues.get(queue) {
            Some(QueuePlacement::Fixed(s)) => *s,
            Some(QueuePlacement::ByKey { fallback, .. }) => match key_hash {
                Some(h) => (h % self.shards as u64) as usize,
                None => *fallback,
            },
            None => 0,
        }
    }

    /// The slicing-key property that partitions `queue`, if any.
    pub fn key_property(&self, queue: &str) -> Option<&str> {
        match self.queues.get(queue) {
            Some(QueuePlacement::ByKey { property, .. }) => Some(property),
            _ => None,
        }
    }
}

/// Process-stable FNV-1a over a key value's canonical bytes. Every shard
/// of a deployment must agree on `hash(value) % shards`, so the std
/// `DefaultHasher` (randomly seeded per instance) is out.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Union-find over queue indexes.
struct Groups {
    parent: Vec<usize>,
}

impl Groups {
    fn new(n: usize) -> Groups {
        Groups {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, a: usize) -> usize {
        let mut r = a;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = a;
        while self.parent[c] != c {
            let next = self.parent[c];
            self.parent[c] = r;
            c = next;
        }
        r
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Queues on which `prop` is known to appear statically: binding sites
/// plus `with prop …` enqueue targets.
fn static_carriers(spec: &AppSpec, rules: &[RuleFacts], prop: &str) -> Vec<String> {
    let mut out = BTreeSet::new();
    if let Some(p) = spec.property(prop) {
        for b in &p.bindings {
            for q in &b.queues {
                out.insert(q.clone());
            }
        }
    }
    for r in rules {
        for s in &r.enqueues {
            if s.with_props.iter().any(|(n, _)| n == prop) {
                out.insert(s.queue.clone());
            }
        }
    }
    out.into_iter().collect()
}

/// The queues a rule's firings originate from: its trigger queue, or — for
/// a slicing rule — every queue its key property can statically appear on.
fn rule_sources(spec: &AppSpec, rules: &[RuleFacts], r: &RuleFacts) -> Vec<String> {
    if !r.on_slicing {
        return vec![r.target.clone()];
    }
    match spec.slicing(&r.target) {
        Some(s) => static_carriers(spec, rules, &s.property),
        None => Vec::new(),
    }
}

/// Compute the queue → shard routing directory for `shards` shards.
///
/// Grouping: queues joined by flow edges, by a rule's cross-queue reads
/// (`qs:queue(...)` — the read queue must be whole on the reader's
/// shard), or by carrying the same slicing key are placed together. A
/// group is key-partitioned iff the application has exactly one slicing
/// key, and the group contains only basic queues none of which is read
/// across queues; otherwise the group is pinned to one shard,
/// round-robin over groups in deterministic (name) order.
pub fn compute_placement(
    spec: &AppSpec,
    rules: &[RuleFacts],
    graph: &FlowGraph,
    shards: usize,
) -> Placement {
    let shards = shards.max(1);
    let mut queues: BTreeMap<String, QueuePlacement> = BTreeMap::new();
    if shards == 1 {
        for q in &graph.queues {
            queues.insert(q.clone(), QueuePlacement::Fixed(0));
        }
        return Placement { shards, queues };
    }

    let n = graph.queues.len();
    let idx = |name: &str| graph.index(name);
    let mut groups = Groups::new(n);
    for e in &graph.edges {
        groups.union(e.from, e.to);
    }
    // Readers must be co-located with the queues they read in full.
    for r in rules {
        for src in rule_sources(spec, rules, r) {
            if let Some(a) = idx(&src) {
                for read in &r.reads_queues {
                    if let Some(b) = idx(read) {
                        groups.union(a, b);
                    }
                }
            }
        }
    }
    // Statically-known carriers of one slicing key belong together.
    let slicing_props: BTreeSet<&str> = spec.slicings.iter().map(|s| s.property.as_str()).collect();
    for p in &slicing_props {
        let carriers = static_carriers(spec, rules, p);
        let mut first = None;
        for q in &carriers {
            if let Some(i) = idx(q) {
                match first {
                    None => first = Some(i),
                    Some(f) => groups.union(f, i),
                }
            }
        }
    }

    // One slicing key → hash-partitioning has an unambiguous dimension.
    let single_key: Option<&str> = if slicing_props.len() == 1 {
        slicing_props.iter().next().copied()
    } else {
        None
    };
    let read_queues: BTreeSet<&str> = rules
        .iter()
        .flat_map(|r| r.reads_queues.iter().map(|q| q.as_str()))
        .collect();

    // Deterministic group order: by each group's smallest queue name.
    let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        by_root.entry(groups.find(i)).or_default().push(i);
    }
    let mut group_list: Vec<Vec<usize>> = by_root.into_values().collect();
    for g in &mut group_list {
        g.sort_by(|&a, &b| graph.queues[a].cmp(&graph.queues[b]));
    }
    group_list.sort_by(|a, b| graph.queues[a[0]].cmp(&graph.queues[b[0]]));

    for (gi, members) in group_list.iter().enumerate() {
        let home = gi % shards;
        let partitionable = single_key.is_some()
            && members.iter().all(|&i| {
                let name = graph.queues[i].as_str();
                spec.queue(name).map(|q| q.kind) == Some(QueueKind::Basic)
                    && !read_queues.contains(name)
            });
        for &i in members {
            let name = graph.queues[i].clone();
            let p = if partitionable {
                QueuePlacement::ByKey {
                    property: single_key.unwrap().to_string(),
                    fallback: home,
                }
            } else {
                QueuePlacement::Fixed(home)
            };
            queues.insert(name, p);
        }
    }
    Placement { shards, queues }
}

/// One DQ010 finding: a flow edge whose target lands on a different shard
/// than its trigger queue under `placement`.
#[derive(Debug, Clone)]
pub struct CrossShardEdge {
    pub rule: String,
    pub from: String,
    pub to: String,
    pub message: String,
}

/// Flow edges that hop shards under the given placement. Edges into
/// gateways and echo queues are exempt — those queues are single-homed by
/// construction and the egress hop is expected. Off-key warnings (a
/// produced message dropping the slicing key) fire only when the trigger
/// queue statically carries the key and the producing rule is not a
/// slicing rule: a slicing rule's output is a per-slice aggregate, not a
/// per-message chain, so its fallback-shard hop is expected.
pub fn cross_shard_edges(
    spec: &AppSpec,
    rules: &[RuleFacts],
    graph: &FlowGraph,
    placement: &Placement,
) -> Vec<CrossShardEdge> {
    let mut out = Vec::new();
    if placement.shards <= 1 {
        return out;
    }
    let mut seen = BTreeSet::new();
    for e in &graph.edges {
        let from = graph.queues[e.from].as_str();
        let to = graph.queues[e.to].as_str();
        if spec.queue(to).map(|q| q.kind) != Some(QueueKind::Basic) {
            continue;
        }
        let (Some(pf), Some(pt)) = (placement.queues.get(from), placement.queues.get(to)) else {
            continue;
        };
        let message = match (pf, pt) {
            (QueuePlacement::Fixed(a), QueuePlacement::Fixed(b)) if a != b => Some(format!(
                "enqueues from `{from}` (shard {a}) into `{to}` (shard {b}): every firing \
                 crosses shards"
            )),
            (QueuePlacement::ByKey { property, .. }, QueuePlacement::Fixed(b)) => Some(format!(
                "enqueues from key-partitioned `{from}` (by `{property}`) into `{to}` pinned \
                 to shard {b}: most firings cross shards"
            )),
            (QueuePlacement::Fixed(a), QueuePlacement::ByKey { property, .. }) => Some(format!(
                "enqueues from `{from}` pinned to shard {a} into key-partitioned `{to}` \
                 (by `{property}`): most firings cross shards"
            )),
            (
                QueuePlacement::ByKey { property: p1, .. },
                QueuePlacement::ByKey { property: p2, .. },
            ) => {
                if p1 != p2 {
                    Some(format!(
                        "`{from}` is partitioned by `{p1}` but `{to}` by `{p2}`: firings \
                         cross shards whenever the keys hash apart"
                    ))
                } else if key_guaranteed_on_target(spec, rules, &e.rule, to, p1) {
                    None
                } else {
                    let trigger_keyed = static_carriers(spec, rules, p1).iter().any(|q| q == from);
                    let from_slicing_rule = rules.iter().any(|r| r.name == e.rule && r.on_slicing);
                    if trigger_keyed && !from_slicing_rule {
                        Some(format!(
                            "messages produced into `{to}` do not carry slicing key \
                             `{p1}` (not inherited, not set at the enqueue, no binding \
                             on `{to}`): they fall back off-key and the chain hops shards"
                        ))
                    } else {
                        None
                    }
                }
            }
            _ => None,
        };
        if let Some(message) = message {
            if seen.insert((e.rule.clone(), e.from, e.to)) {
                out.push(CrossShardEdge {
                    rule: e.rule.clone(),
                    from: from.to_string(),
                    to: to.to_string(),
                    message,
                });
            }
        }
    }
    out
}

/// Does a message produced by `rule` into `to` reliably carry key
/// property `prop`?
fn key_guaranteed_on_target(
    spec: &AppSpec,
    rules: &[RuleFacts],
    rule: &str,
    to: &str,
    prop: &str,
) -> bool {
    if let Some(p) = spec.property(prop) {
        if p.kind == demaq_qdl::PropKind::Inherited {
            return true; // propagates from the trigger
        }
        if p.bindings.iter().any(|b| b.queues.iter().any(|q| q == to)) {
            return true; // computed on arrival
        }
    }
    rules.iter().filter(|r| r.name == rule).any(|r| {
        r.enqueues
            .iter()
            .any(|s| s.queue == to && s.with_props.iter().any(|(n, _)| n == prop))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::RuleFacts;
    use demaq_qdl::parse_program;

    fn place(src: &str, shards: usize) -> (demaq_qdl::AppSpec, Vec<RuleFacts>, Placement) {
        let spec = parse_program(src).expect("parse");
        let facts: Vec<RuleFacts> = spec
            .rules
            .iter()
            .map(|r| RuleFacts::from_rule(r, &spec))
            .collect();
        let graph = FlowGraph::build(&spec, &facts);
        let p = compute_placement(&spec, &facts, &graph, shards);
        (spec, facts, p)
    }

    const KEYED_PIPELINE: &str = r#"
        create queue intake kind basic mode persistent
        create queue enriched kind basic mode persistent
        create queue done kind basic mode persistent
        create property lane as xs:integer inherited
        create slicing lanes on lane
        create rule enrich for intake
          if (//job) then do enqueue <enriched/> into enriched
        create rule finish for enriched
          if (//enriched) then do enqueue <done/> into done
    "#;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let (_, _, p) = place(KEYED_PIPELINE, 1);
        assert_eq!(p.route("intake", Some(42)), 0);
        assert_eq!(p.route("done", None), 0);
    }

    #[test]
    fn single_slicing_key_partitions_the_chain() {
        let (_, _, p) = place(KEYED_PIPELINE, 4);
        for q in ["intake", "enriched", "done"] {
            assert_eq!(
                p.key_property(q),
                Some("lane"),
                "{q} should be key-partitioned: {:?}",
                p.queues.get(q)
            );
            // Same key value → same shard on every queue of the chain.
            let h = stable_hash(b"7");
            assert_eq!(p.route(q, Some(h)), (h % 4) as usize);
        }
    }

    #[test]
    fn gateways_and_read_queues_pin_their_group() {
        let (_, _, p) = place(
            r#"
            create queue inbox kind basic mode persistent
            create queue ship kind outgoingGateway mode persistent endpoint "urn:s"
            create queue audit kind basic mode persistent
            create property lane as xs:integer inherited
            create slicing lanes on lane
            create rule send for inbox
              if (//order and not(qs:queue("audit")[/copy])) then
                do enqueue <req/> into ship
            create rule stash for inbox
              if (//order) then do enqueue <copy/> into audit
        "#,
            4,
        );
        // `audit` is read in full; `ship` is a gateway: the whole group is
        // pinned to one shard.
        let home = p.route("inbox", None);
        assert!(matches!(
            p.queues.get("inbox"),
            Some(QueuePlacement::Fixed(_))
        ));
        assert_eq!(p.route("audit", Some(stable_hash(b"x"))), home);
        assert_eq!(p.route("ship", Some(stable_hash(b"y"))), home);
    }

    #[test]
    fn keyless_messages_share_the_group_fallback() {
        let (_, _, p) = place(KEYED_PIPELINE, 4);
        let f = p.route("intake", None);
        assert_eq!(p.route("enriched", None), f);
        assert_eq!(p.route("done", None), f);
    }

    #[test]
    fn disconnected_groups_spread_round_robin() {
        let (_, _, p) = place(
            r#"
            create queue a1 kind basic mode persistent
            create queue a2 kind basic mode persistent
            create queue b1 kind basic mode persistent
            create queue b2 kind basic mode persistent
            create rule ra for a1 if (//x) then do enqueue <y/> into a2
            create rule rb for b1 if (//x) then do enqueue <y/> into b2
        "#,
            2,
        );
        // No slicing: both chains are pinned, each whole, on different
        // shards.
        let ha = p.route("a1", None);
        let hb = p.route("b1", None);
        assert_eq!(p.route("a2", None), ha);
        assert_eq!(p.route("b2", None), hb);
        assert_ne!(ha, hb);
    }

    #[test]
    fn inherited_key_chain_has_no_cross_shard_edges() {
        let (spec, facts, p) = place(KEYED_PIPELINE, 4);
        let graph = FlowGraph::build(&spec, &facts);
        let edges = cross_shard_edges(&spec, &facts, &graph, &p);
        assert!(edges.is_empty(), "got: {edges:?}");
    }

    #[test]
    fn non_inherited_key_flags_the_hot_edge() {
        let (spec, facts, p) = place(
            r#"
            create queue intake kind basic mode persistent
            create queue done kind basic mode persistent
            create property lane as xs:integer
                queue intake value //job/@lane
            create slicing lanes on lane
            create rule fwd for intake
              if (//job) then do enqueue <done/> into done
        "#,
            4,
        );
        let graph = FlowGraph::build(&spec, &facts);
        let edges = cross_shard_edges(&spec, &facts, &graph, &p);
        assert_eq!(edges.len(), 1, "got: {edges:?}");
        assert_eq!(edges[0].rule, "fwd");
        assert_eq!(edges[0].to, "done");
    }

    #[test]
    fn a_pinned_queue_inside_a_keyed_chain_is_flagged() {
        let (spec, facts, mut p) = place(KEYED_PIPELINE, 4);
        p.queues
            .insert("enriched".to_string(), QueuePlacement::Fixed(2));
        let graph = FlowGraph::build(&spec, &facts);
        let edges = cross_shard_edges(&spec, &facts, &graph, &p);
        // intake→enriched (ByKey→Fixed) and enriched→done (Fixed→ByKey).
        assert_eq!(edges.len(), 2, "got: {edges:?}");
    }
}
