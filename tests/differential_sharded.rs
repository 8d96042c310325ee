//! Differential twin tests for the sharded engine runtime: the same
//! workload on a plain `Server`, a 1-shard `ShardedServer`, and a 4-shard
//! `ShardedServer` must agree on final queue bodies, slice memberships,
//! and lineage chains. Shard counts only move *where* messages live and
//! commit — never *what* the application computes.
//!
//! A crash-recovery iteration re-invokes this binary as a child driving a
//! 4-shard deployment with fsync-always durability, SIGKILLs it
//! mid-workload, reopens the same directories, and asserts every
//! acknowledged enqueue survived in its shard's WAL (acked ⇒ present).

use demaq::{Server, ShardedServer};
use demaq_store::store::SyncPolicy;
use demaq_store::{MsgId, PropValue};
use demaq_xquery::Atomic;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

/// The E12/E13 pipeline with a slicing key, so the flow group
/// intake → enriched → done is key-partitioned across shards.
const KEYED_PIPELINE: &str = r#"
    create queue intake kind basic mode persistent
    create queue enriched kind basic mode persistent
    create queue done kind basic mode persistent
    create property lane as xs:integer inherited
    create slicing lanes on lane
    create rule enrich for intake
      if (//job) then do enqueue <enriched>{string(//job/@n)}</enriched> into enriched
    create rule finish for enriched
      if (//enriched) then do enqueue <done>{//enriched/text()}</done> into done
"#;

/// The keyed pipeline with a *rekeying* enrich stage: the produced
/// message's lane hashes to a different shard than its trigger's, so
/// every enrich firing rides the cross-shard forward path.
const REKEY: &str = r#"
    create queue intake kind basic mode persistent
    create queue enriched kind basic mode persistent
    create queue done kind basic mode persistent
    create property lane as xs:integer inherited
    create slicing lanes on lane
    create rule enrich for intake
      if (//job) then
        do enqueue <enriched>{string(//job/@n)}</enriched> into enriched
          with lane value ((xs:integer(//job/@n) * 3 + 1) mod 7)
    create rule finish for enriched
      if (//enriched) then do enqueue <done>{//enriched/text()}</done> into done
"#;

fn single(program: &str) -> Server {
    Server::builder()
        .program(program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap()
}

fn sharded(program: &str, shards: usize) -> ShardedServer {
    Server::builder()
        .program(program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .shards(shards)
        .build()
        .unwrap()
}

fn lane(i: usize) -> Vec<(String, Atomic)> {
    vec![("lane".to_string(), Atomic::Int((i % 7) as i64))]
}

/// Sorted bodies of every queue: the order-insensitive behavioral
/// fingerprint (shard merge order is not part of the contract).
fn sorted_bodies(
    queues: &[&str],
    get: impl Fn(&str) -> Vec<String>,
) -> BTreeMap<String, Vec<String>> {
    queues
        .iter()
        .map(|q| {
            let mut v = get(q);
            v.sort();
            (q.to_string(), v)
        })
        .collect()
}

#[test]
fn keyed_pipeline_twin_1_vs_4_shards() {
    const N: usize = 60;
    let queues = ["intake", "enriched", "done"];

    let s1 = single(KEYED_PIPELINE);
    let s4 = sharded(KEYED_PIPELINE, 4);
    for i in 0..N {
        let xml = format!("<job n='{i}'/>");
        s1.enqueue_external_with_props("intake", &xml, &lane(i))
            .unwrap();
        s4.enqueue_external_with_props("intake", &xml, &lane(i))
            .unwrap();
    }
    s1.run_until_idle().unwrap();
    s4.run_until_idle().unwrap();

    // Identical queue bodies.
    let b1 = sorted_bodies(&queues, |q| s1.queue_bodies(q).unwrap());
    let b4 = sorted_bodies(&queues, |q| s4.queue_bodies(q).unwrap());
    assert_eq!(b1, b4);
    assert_eq!(b1["done"].len(), N);

    // Identical slice memberships: per lane key, the multiset of member
    // payloads (ids differ across shard counts by construction).
    for k in 0..7i64 {
        let key = PropValue::Int(k);
        let mut m1: Vec<String> = s1
            .store()
            .slice_members("lanes", &key)
            .iter()
            .map(|id| s1.store().payload(*id).unwrap().to_string())
            .collect();
        let mut m4: Vec<String> = Vec::new();
        for s in 0..s4.num_shards() {
            let shard = s4.shard(s);
            m4.extend(
                shard
                    .store()
                    .slice_members("lanes", &key)
                    .iter()
                    .map(|id| shard.store().payload(*id).unwrap().to_string()),
            );
        }
        m1.sort();
        m4.sort();
        assert_eq!(m1, m4, "lane {k} members diverged");
        // Each lane's members must live on exactly one shard (slice
        // coherence is the whole point of key-partitioned placement).
        let shards_with_members = (0..s4.num_shards())
            .filter(|&s| !s4.shard(s).store().slice_members("lanes", &key).is_empty())
            .count();
        assert!(shards_with_members <= 1, "lane {k} split across shards");
    }

    // Identical lineage chains: every done message walks back
    // done → enriched → intake through the same rules.
    for twin_chain in [
        s1.queue_messages("done")
            .unwrap()
            .iter()
            .map(|m| chain_shape(&s1.lineage(m.id)))
            .collect::<Vec<_>>(),
        s4.queue_messages("done")
            .unwrap()
            .iter()
            .map(|m| chain_shape(&s4.lineage(m.id)))
            .collect::<Vec<_>>(),
    ] {
        assert_eq!(twin_chain.len(), N);
        for shape in twin_chain {
            assert_eq!(
                shape,
                vec![
                    ("done".to_string(), Some("finish".to_string())),
                    ("enriched".to_string(), Some("enrich".to_string())),
                    ("intake".to_string(), None),
                ]
            );
        }
    }
}

/// (queue, creating rule) along the causal chain, target first.
fn chain_shape(l: &demaq::Lineage) -> Vec<(String, Option<String>)> {
    let mut shape = Vec::new();
    if let Some(t) = &l.target {
        shape.push((t.queue.clone(), t.rule.clone()));
    }
    for a in &l.ancestors {
        shape.push((a.queue.clone(), a.rule.clone()));
    }
    shape
}

/// A pipeline whose enrich stage *reassigns* the slicing key, so the
/// produced message hashes to a different shard than its trigger and the
/// enqueue must ride the cross-shard forward path. Bodies, slices, and
/// lineage must still match the single-server run exactly.
#[test]
fn rekeying_pipeline_forwards_across_shards() {
    const N: usize = 40;
    let s1 = single(REKEY);
    let s4 = sharded(REKEY, 4);
    let mut roots = Vec::new();
    for i in 0..N {
        let xml = format!("<job n='{i}'/>");
        let a = s1
            .enqueue_external_with_props("intake", &xml, &lane(i))
            .unwrap();
        let b = s4
            .enqueue_external_with_props("intake", &xml, &lane(i))
            .unwrap();
        roots.push((a, b));
    }
    s1.run_until_idle().unwrap();
    s4.run_until_idle().unwrap();

    let queues = ["intake", "enriched", "done"];
    assert_eq!(
        sorted_bodies(&queues, |q| s1.queue_bodies(q).unwrap()),
        sorted_bodies(&queues, |q| s4.queue_bodies(q).unwrap()),
    );
    // The rekey must actually have exercised the forward machinery —
    // otherwise this twin proves nothing about cross-shard enqueues.
    let forwards = metric_value(&s4.metrics_text(), "demaq_engine_shard_forwards_total");
    assert!(
        forwards > 0.0,
        "expected cross-shard forwards, got {forwards}"
    );
    // Lineage chains span shards: each message is read from its home
    // shard's store.
    for m in s4.queue_messages("done").unwrap() {
        let shape = chain_shape(&s4.lineage(m.id));
        assert_eq!(shape.len(), 3, "done → enriched → intake: {shape:?}");
    }
    // Descendants are collected from every shard: each root's tree reads
    // as on the single server, by queue and rule, in order.
    let tree = |l: demaq::Lineage| -> Vec<(String, Option<String>)> {
        l.descendants
            .into_iter()
            .map(|r| (r.queue, r.rule))
            .collect()
    };
    for (a, b) in roots {
        let want = tree(s1.lineage(a));
        assert_eq!(want.len(), 2, "intake → enriched → done");
        assert_eq!(tree(s4.lineage(b)), want, "tree of root {b:?}");
    }
    // One shard alone answers for the ids it holds (its store is not the
    // fleet's store `id >> 48`).
    let shard = s4.shard(1);
    let homed = shard.queue_messages("enriched").unwrap();
    assert!(!homed.is_empty(), "the rekey homes work on shard 1");
    for m in homed {
        let alone = shard.lineage(m.id).target;
        assert!(alone.is_some(), "shard 1 answers for its own {:?}", m.id);
        assert_eq!(alone, s4.lineage(m.id).target);
    }
}

/// The sharded builder takes placement's facts and flow graph from the
/// compiled application (rewritten bodies, compiler read sets). Routing
/// must equal the placement the raw parsed rules give — otherwise an
/// existing sharded store directory would see its keys move on reopen.
#[test]
fn placement_from_compiled_facts_matches_raw_rules() {
    use demaq::analysis::{compute_placement, FlowGraph, RuleFacts};
    use demaq::CompiledApp;
    // `demaq-benchmark`'s `durable_sharded` program.
    const DURABLE_SHARDED: &str = r#"
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
    // Own-queue and cross-queue `qs:queue` reads, aggregates over both,
    // a second slicing key, and an error queue.
    const READERS: &str = r#"
        create queue orders kind basic mode persistent
        create queue stock kind basic mode persistent
        create queue audit kind basic mode persistent
        create queue errs kind basic mode persistent
        create queue out kind basic mode persistent
        create property cust as xs:string fixed queue orders value /order/@cust
        create property sku as xs:string fixed queue stock value /item/@sku
        create slicing byCust on cust
        create slicing bySku on sku
        create rule tally for orders errorqueue errs
          if (count(qs:queue()) > sum(qs:queue("stock")//qty)) then
            do enqueue <short/> into audit
        create rule cust for byCust
          if (sum(qs:slice()//amount) > 100) then do enqueue <vip/> into out
        create rule restock for stock
          if (//item) then do enqueue <seen/> into audit
    "#;
    for program in [KEYED_PIPELINE, REKEY, DURABLE_SHARDED, READERS] {
        let spec = demaq_qdl::parse_program(program).unwrap();
        let raw: Vec<RuleFacts> = spec
            .rules
            .iter()
            .map(|r| RuleFacts::from_rule(r, &spec))
            .collect();
        let raw_graph = FlowGraph::build(&spec, &raw);
        let app = CompiledApp::compile(spec.clone(), &Default::default()).unwrap();
        for shards in [2, 3, 4] {
            let expected = compute_placement(&spec, &raw, &raw_graph, shards);
            let actual = compute_placement(&app.spec, &app.facts, &app.analysis.graph, shards);
            assert_eq!(
                actual.queues, expected.queues,
                "{shards} shards:\n{program}"
            );
        }
    }
}

/// First sample of `name` in Prometheus-style metrics text.
fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(name))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .next()
        .unwrap_or(f64::NAN)
}

#[test]
fn keyed_pipeline_parallel_drain_matches() {
    const N: usize = 60;
    let s1 = single(KEYED_PIPELINE);
    let s4 = sharded(KEYED_PIPELINE, 4);
    for i in 0..N {
        let xml = format!("<job n='{i}'/>");
        s1.enqueue_external_with_props("intake", &xml, &lane(i))
            .unwrap();
        s4.enqueue_external_with_props("intake", &xml, &lane(i))
            .unwrap();
    }
    let d1 = s1.process_all_parallel(2).unwrap();
    let d4 = s4.process_all_parallel(2).unwrap();
    assert_eq!(d1, (3 * N) as u64);
    assert_eq!(d4, (3 * N) as u64);
    let queues = ["intake", "enriched", "done"];
    assert_eq!(
        sorted_bodies(&queues, |q| s1.queue_bodies(q).unwrap()),
        sorted_bodies(&queues, |q| s4.queue_bodies(q).unwrap()),
    );
}

/// The rekeying pipeline under *parallel* drain: cross-shard forwards race
/// the fleet's termination detection. Regression test for the drain bug
/// where a worker could observe empty schedulers and no active peers while
/// a just-popped message was about to forward cross-shard, terminate the
/// fleet, and strand the forward in a dead shard's mailbox. Several rounds
/// vary the thread interleaving.
#[test]
fn rekeying_pipeline_parallel_drain_matches() {
    const N: usize = 40;
    for _round in 0..4 {
        let s1 = single(REKEY);
        let s4 = sharded(REKEY, 4);
        for i in 0..N {
            let xml = format!("<job n='{i}'/>");
            s1.enqueue_external_with_props("intake", &xml, &lane(i))
                .unwrap();
            s4.enqueue_external_with_props("intake", &xml, &lane(i))
                .unwrap();
        }
        let d1 = s1.process_all_parallel(2).unwrap();
        let d4 = s4.process_all_parallel(2).unwrap();
        assert_eq!(d1, (3 * N) as u64);
        assert_eq!(d4, (3 * N) as u64, "sharded drain lost work");
        let queues = ["intake", "enriched", "done"];
        assert_eq!(
            sorted_bodies(&queues, |q| s1.queue_bodies(q).unwrap()),
            sorted_bodies(&queues, |q| s4.queue_bodies(q).unwrap()),
        );
        let forwards = metric_value(&s4.metrics_text(), "demaq_engine_shard_forwards_total");
        assert!(
            forwards > 0.0,
            "expected cross-shard forwards, got {forwards}"
        );
    }
}

/// Paper listings on 1-shard vs 4-shard deployments: programs without a
/// usable partition key fall back to fixed per-group placement and must
/// still behave identically.
#[test]
fn paper_listings_twin() {
    struct Case {
        program: &'static str,
        feeds: Vec<(&'static str, String)>,
        queues: Vec<&'static str>,
    }
    let cases = vec![
        // Example 3.1 / Fig. 5: fork to three queues.
        Case {
            program: r#"
                create queue crm kind basic mode persistent
                create queue finance kind basic mode persistent
                create queue legal kind basic mode persistent
                create queue supplier kind basic mode persistent
                create rule newOfferRequest for crm
                  if (//offerRequest) then
                    let $customerInfo :=
                      <requestCustomerInfo>{//requestID} {//customerID}</requestCustomerInfo>
                    let $exportRestrictionInfo :=
                      <requestRestrictionInfo>{//requestID} {//items}</requestRestrictionInfo>
                    let $plantCapacityInfo :=
                      <plantCapacityInfo>{//requestID} {//items}</plantCapacityInfo>
                    return (do enqueue $customerInfo into finance,
                            do enqueue $exportRestrictionInfo into legal,
                            do enqueue $plantCapacityInfo into supplier)
            "#,
            feeds: (0..12)
                .map(|i| {
                    (
                        "crm",
                        format!(
                            "<offerRequest><requestID>r{i}</requestID>\
                             <customerID>c{i}</customerID>\
                             <items><item>solvent</item></items></offerRequest>"
                        ),
                    )
                })
                .collect(),
            queues: vec!["crm", "finance", "legal", "supplier"],
        },
        // Slice lifetimes (domain registrar, Sec. 2.3.2): slicing rules
        // with resets, keyed by a fixed property.
        Case {
            program: r#"
                create queue registrar kind basic mode persistent
                create queue audit kind basic mode persistent
                create property domain as xs:string fixed queue registrar value //domain
                create slicing byDomain on domain
                create rule ownerChange for byDomain
                  if (qs:message()/transfer) then do reset
                create rule history for byDomain
                  if (qs:message()/query) then
                    do enqueue <history>{count(qs:slice())}</history> into audit
            "#,
            feeds: ["example.org", "example.net", "example.com"]
                .iter()
                .flat_map(|d| {
                    vec![
                        (
                            "registrar",
                            format!("<register><domain>{d}</domain></register>"),
                        ),
                        (
                            "registrar",
                            format!("<update><domain>{d}</domain></update>"),
                        ),
                        ("registrar", format!("<query><domain>{d}</domain></query>")),
                    ]
                })
                .collect(),
            queues: vec!["registrar", "audit"],
        },
    ];

    for case in cases {
        let s1 = single(case.program);
        let s4 = sharded(case.program, 4);
        for (q, xml) in &case.feeds {
            s1.enqueue_external(q, xml).unwrap();
            s1.run_until_idle().unwrap();
            s4.enqueue_external(q, xml).unwrap();
            s4.run_until_idle().unwrap();
        }
        assert_eq!(
            sorted_bodies(&case.queues, |q| s1.queue_bodies(q).unwrap()),
            sorted_bodies(&case.queues, |q| s4.queue_bodies(q).unwrap()),
        );
    }
}

/// A 1-shard `ShardedServer` degrades *exactly* to today's server:
/// identical message ids, bodies, and lineage — not just equivalent ones.
#[test]
fn single_shard_is_bit_identical_to_server() {
    const N: usize = 20;
    let s = single(KEYED_PIPELINE);
    let sh = sharded(KEYED_PIPELINE, 1);
    for i in 0..N {
        let xml = format!("<job n='{i}'/>");
        let id_a = s
            .enqueue_external_with_props("intake", &xml, &lane(i))
            .unwrap();
        let id_b = sh
            .enqueue_external_with_props("intake", &xml, &lane(i))
            .unwrap();
        assert_eq!(id_a, id_b, "1-shard deployment must allocate the same ids");
    }
    s.run_until_idle().unwrap();
    sh.run_until_idle().unwrap();
    for q in ["intake", "enriched", "done"] {
        let a: Vec<(u64, String)> = s
            .queue_messages(q)
            .unwrap()
            .iter()
            .map(|m| (m.id.0, m.payload.to_string()))
            .collect();
        let b: Vec<(u64, String)> = sh
            .queue_messages(q)
            .unwrap()
            .iter()
            .map(|m| (m.id.0, m.payload.to_string()))
            .collect();
        assert_eq!(a, b, "queue {q} diverged");
    }
    for m in s.queue_messages("done").unwrap() {
        assert_eq!(
            chain_shape(&s.lineage(m.id)),
            chain_shape(&sh.lineage(m.id))
        );
    }
}

/// `ShardedServer::stats` reads the fleet's shared registry: `processed`
/// counts the messages processed on both shards together.
#[test]
fn fleet_stats_count_processing_on_every_shard() {
    const N: usize = 40;
    let s2 = sharded(REKEY, 2);
    for i in 0..N {
        let xml = format!("<job n='{i}'/>");
        s2.enqueue_external_with_props("intake", &xml, &lane(i))
            .unwrap();
    }
    let drained = s2.process_all_parallel(1).unwrap();
    let per_shard: Vec<u64> = (0..s2.num_shards())
        .map(|i| {
            let shard = s2.shard(i);
            assert!(
                shard.store().unprocessed().is_empty(),
                "shard {i} not drained"
            );
            ["intake", "enriched", "done"]
                .iter()
                .map(|q| shard.queue_messages(q).unwrap().len() as u64)
                .sum()
        })
        .collect();
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "a shard processed nothing: {per_shard:?}"
    );
    assert_eq!(s2.stats().processed, per_shard.iter().sum::<u64>());
    assert_eq!(s2.stats().processed, drained);
}

/// Enqueues racing parallel drains: a feeder enqueues keyed jobs on a
/// 2-shard deployment while another thread loops `process_all_parallel(1)`,
/// then a final drain runs. The fleet's pending count is exact at every
/// moment, so every drain returns, the count never goes below zero (a
/// debug assertion), and every job's output appears exactly once.
/// `DEMAQ_RACE_ROUNDS` sets the number of rounds.
#[test]
fn concurrent_feed_during_parallel_drain_is_exactly_once() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const N: usize = 60;
    let rounds = race_rounds();
    let mut expected: Vec<String> = (0..N).map(|i| format!("<done>{i}</done>")).collect();
    expected.sort();
    for round in 0..rounds {
        let server = sharded(REKEY, 2);
        let fed = AtomicBool::new(false);
        let drained = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    let xml = format!("<job n='{i}'/>");
                    server
                        .enqueue_external_with_props("intake", &xml, &lane(i))
                        .unwrap();
                }
                fed.store(true, Ordering::SeqCst);
            });
            s.spawn(|| {
                while !fed.load(Ordering::SeqCst) {
                    let n = server.process_all_parallel(1).unwrap();
                    drained.fetch_add(n, Ordering::Relaxed);
                }
            });
        });
        let total = drained.into_inner() + server.process_all_parallel(1).unwrap();
        assert_eq!(
            total,
            (3 * N) as u64,
            "round {round}: drains processed {total}"
        );
        let mut done = server.queue_bodies("done").unwrap();
        done.sort();
        assert_eq!(done, expected, "round {round}: outputs not exactly once");
    }
}

/// Lineage reads racing a parallel drain: one thread loops `lineage(root)`
/// over every root while `process_all_parallel(1)` drains two shards, and
/// walks each returned descendant back up. A message becomes visible only
/// with its edge, after everything it descends from, so every walk ends at
/// its root; and the drain returns. `DEMAQ_RACE_ROUNDS` sets the number of
/// rounds.
#[test]
fn lineage_reads_during_parallel_drain_end_at_the_root() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    const N: usize = 30;
    for round in 0..race_rounds() {
        let server = sharded(REKEY, 2);
        let roots: Vec<MsgId> = (0..N)
            .map(|i| {
                let xml = format!("<job n='{i}'/>");
                server
                    .enqueue_external_with_props("intake", &xml, &lane(i))
                    .unwrap()
            })
            .collect();
        let start = Barrier::new(2);
        let drained = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                // One more full pass after the drain reads the final trees.
                loop {
                    let last = drained.load(Ordering::SeqCst);
                    for root in &roots {
                        let tree = server.lineage(*root).descendants;
                        for d in &tree {
                            let up = server.lineage(MsgId(d.msg)).ancestors;
                            assert_eq!(
                                up.last().map(|a| a.msg),
                                Some(root.0),
                                "round {round}: {} does not walk back to {root:?}",
                                d.msg
                            );
                        }
                        if last {
                            assert_eq!(tree.len(), 2, "round {round}: tree of {root:?}");
                        }
                    }
                    if last {
                        break;
                    }
                }
            });
            start.wait();
            let n = server.process_all_parallel(1);
            drained.store(true, Ordering::SeqCst);
            assert_eq!(n.unwrap(), (3 * N) as u64, "round {round}: drain lost work");
        });
    }
}

/// Rounds of the race tests (`DEMAQ_RACE_ROUNDS`, default 3).
fn race_rounds() -> usize {
    std::env::var("DEMAQ_RACE_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

// ---- crash recovery -----------------------------------------------------

const CRASH_SHARDS: usize = 4;
const ACK_FILE: &str = "acks.txt";

fn crash_deployment(root: &Path) -> ShardedServer {
    Server::builder()
        .program(KEYED_PIPELINE)
        .dir(root)
        .sync_policy(SyncPolicy::Always)
        .shards(CRASH_SHARDS)
        .build()
        .unwrap()
}

/// Child body: enqueue keyed messages forever with fsync-always
/// durability, acking each id only after `enqueue` (and therefore the
/// owning shard's WAL commit) returned. Drain workers run concurrently so
/// the kill also lands mid-processing and mid-forward.
#[test]
#[ignore = "crash-harness child body; only meaningful when re-invoked by the parent test"]
fn sharded_crash_child_body() {
    let Ok(dir) = std::env::var("DEMAQ_SHARD_CRASH_DIR") else {
        return;
    };
    let root = std::path::PathBuf::from(dir);
    let server = crash_deployment(&root);
    let acks = std::sync::Mutex::new(
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(root.join(ACK_FILE))
            .unwrap(),
    );
    std::thread::scope(|s| {
        // Feeder: ack after the commit returns.
        s.spawn(|| {
            for i in 0.. {
                let xml = format!("<job n='{i}'/>");
                let id = server
                    .enqueue_external_with_props("intake", &xml, &lane(i))
                    .unwrap();
                let mut f = acks.lock().unwrap();
                f.write_all(format!("{} {xml}\n", id.0).as_bytes()).unwrap();
                f.flush().unwrap();
            }
        });
        // Drainers: keep the pipeline (and cross-shard mailboxes) hot.
        s.spawn(|| loop {
            server.process_all_parallel(1).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        });
    });
}

#[test]
fn sharded_crash_recovery_acked_is_present() {
    let iters: usize = std::env::var("DEMAQ_CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let exe = std::env::current_exe().unwrap();
    let mut total_acked = 0usize;
    for round in 0..iters {
        let dir = tempfile::TempDir::new().unwrap();
        let mut child = Command::new(&exe)
            .args([
                "sharded_crash_child_body",
                "--exact",
                "--ignored",
                "--nocapture",
            ])
            .env("DEMAQ_SHARD_CRASH_DIR", dir.path())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        std::thread::sleep(Duration::from_millis(150 + 100 * round as u64));
        child.kill().unwrap();
        let _ = child.wait();

        // Complete, acked lines only: a torn tail is un-acked, not corrupt.
        let ack_text = std::fs::read_to_string(dir.path().join(ACK_FILE)).unwrap_or_default();
        let complete = match ack_text.rfind('\n') {
            Some(end) => &ack_text[..end],
            None => "",
        };
        let acked: Vec<(u64, String)> = complete
            .lines()
            .filter_map(|l| {
                let (id, xml) = l.split_once(' ')?;
                Some((id.parse().ok()?, xml.to_string()))
            })
            .collect();

        // Reopen the same shard directories: per-shard WAL recovery.
        let server = crash_deployment(dir.path());
        let mut present: BTreeMap<u64, String> = BTreeMap::new();
        for m in server.queue_messages("intake").unwrap() {
            present.insert(m.id.0, m.payload.to_string());
        }
        for (id, xml) in &acked {
            assert_eq!(
                present.get(id),
                Some(xml),
                "round {round}: acked message {id} lost or altered \
                 (shard {} WAL)",
                id >> 48,
            );
        }
        // The recovered deployment keeps working.
        server.run_until_idle().unwrap();
        assert!(
            server.queue_messages("done").unwrap().len() >= acked.len(),
            "round {round}: recovered pipeline did not finish the cascade"
        );
        total_acked += acked.len();
    }
    // Guard against a vacuous pass: across all rounds the child must have
    // gotten real acked work in before the kill.
    assert!(
        total_acked > 0,
        "crash harness never acked a single enqueue"
    );
}
