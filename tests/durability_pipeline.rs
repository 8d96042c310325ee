//! The commit pipeline under `SyncPolicy::Always`: a worker does not wait
//! for its own fsync, and everything that leaves the process — cross-shard
//! forwards, gateway sends — waits in the durable outbox until the
//! producing commit is on disk.
//!
//! * **Differential**: the pipelined drain must compute exactly what a
//!   drain with a barrier after every message computes (queue bodies in
//!   order, slice membership, lineage, sink deliveries), and — sharded —
//!   what the `Batch` policy, which defers nothing, computes.
//! * **Drop**: a clean drop loses no deferred commit and a reopen
//!   re-processes nothing.
//! * **Failure**: a message whose rule fails is marked processed in the
//!   transaction that enqueues its error message — one frame, no window.
//! * **Crash**: a child process (this binary re-invoked) logs every effect
//!   the instant it is released, dies at a randomized point — SIGKILL, or
//!   the `DEMAQ_WAL_CRASH_AFTER_BYTES` failpoint, which drops everything
//!   past the last fsync — and the parent holds the recovered stores
//!   against that log: no released effect without its producing commit,
//!   every acknowledged id present, and recover + drain yields every
//!   output at most once — exactly once where no in-memory hop was in
//!   flight. `DEMAQ_CRASH_ITERS` rounds per scenario (default 25; CI 100).
//!   A local-only chain holds no effect, so its drains run no backlog
//!   barrier: the failpoint lands behind a tail of many unsynced commits,
//!   and recovery must redo every one of them exactly once. Gateway
//!   ingests, whose input lives only in memory, are synced within 32: a
//!   crash loses at most that many.

use demaq::{Server, ShardedServer};
use demaq_net::{Clock, Envelope, Network};
use demaq_obs::Obs;
use demaq_store::store::SyncPolicy;
use demaq_store::txn::TxnOp;
use demaq_store::wal::read_log;
use demaq_store::{MsgId, PropValue};
use demaq_xquery::Atomic;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Acked ingress → two rules → outgoing gateway, with a slicing whose rule
/// reads and resets it, and an incoming gateway feeding the same path.
const GATEWAY: &str = r#"
    create queue inbound kind basic mode persistent
    create queue wire kind incomingGateway mode persistent endpoint "urn:pipe-in"
    create queue work kind basic mode persistent
    create queue outbound kind outgoingGateway mode persistent endpoint "urn:pipe-sink"
    create property lane as xs:integer inherited
    create slicing lanes on lane
    create rule accept for inbound
      if (/req) then do enqueue <job n="{/req/@n}"/> into work
    create rule acceptWire for wire
      if (/req) then do enqueue <job n="{/req/@n}"/> into work with lane value 3
    create rule reply for work
      if (/job) then do enqueue <resp n="{/job/@n}"/> into outbound
    create rule window for lanes
      if (count(qs:slice()) >= 9) then do reset
"#;

/// The rekeying pipeline of `differential_sharded.rs`: every `enrich`
/// firing draws a fresh home shard for its product.
const REKEY: &str = r#"
    create queue intake kind basic mode persistent
    create queue enriched kind basic mode persistent
    create queue done kind basic mode persistent
    create property lane as xs:integer inherited
    create slicing lanes on lane
    create rule enrich for intake
      if (//job) then
        do enqueue <enriched n="{//job/@n}"/> into enriched
          with lane value ((xs:integer(//job/@n) * 3 + 1) mod 7)
    create rule finish for enriched
      if (//enriched) then do enqueue <done n="{//enriched/@n}"/> into done
"#;

/// A chain of three rules that never leaves the store: no forward, no
/// send, so nothing is ever held in the outbox.
const LOCAL: &str = r#"
    create queue intake kind basic mode persistent
    create queue checked kind basic mode persistent
    create queue priced kind basic mode persistent
    create queue done kind basic mode persistent
    create rule check for intake
      if (/job) then do enqueue <checked n="{/job/@n}"/> into checked
    create rule price for checked
      if (/checked) then do enqueue <priced n="{/checked/@n}"/> into priced
    create rule finish for priced
      if (/priced) then do enqueue <done n="{/priced/@n}"/> into done
"#;

fn lane(i: u64) -> Vec<(String, Atomic)> {
    vec![("lane".to_string(), Atomic::Int((i % 7) as i64))]
}

/// Bodies a sink endpoint received, in delivery order.
type Deliveries = Arc<Mutex<Vec<String>>>;

/// A virtual-clock network with a sink at `urn:pipe-sink`; `on_delivery`
/// sees each delivery before it is recorded.
fn network_with_sink(
    on_delivery: impl Fn(&Envelope) + Send + Sync + 'static,
) -> (Arc<Network>, Deliveries) {
    let net = Arc::new(Network::new(Clock::virtual_at(0), 7));
    let delivered: Deliveries = Arc::default();
    let sink = Arc::clone(&delivered);
    net.register(
        "urn:pipe-sink",
        Arc::new(move |env: Envelope| {
            on_delivery(&env);
            sink.lock().unwrap().push(env.body);
        }),
    );
    (net, delivered)
}

fn gateway_server(dir: &Path, net: &Arc<Network>, obs: Option<Arc<Obs>>) -> Server {
    let mut b = Server::builder()
        .program(GATEWAY)
        .dir(dir)
        .sync_policy(SyncPolicy::Always)
        .network(Arc::clone(net));
    if let Some(obs) = obs {
        b = b.obs(obs);
    }
    b.build().unwrap()
}

fn rekey_deployment(dir: &Path, sync: SyncPolicy, obs: Option<Arc<Obs>>) -> ShardedServer {
    let mut b = Server::builder().program(REKEY).dir(dir).sync_policy(sync);
    if let Some(obs) = obs {
        b = b.obs(obs);
    }
    b.shards(2).build().unwrap()
}

fn local_server(dir: &Path, obs: Option<Arc<Obs>>) -> Server {
    let mut b = Server::builder()
        .program(LOCAL)
        .dir(dir)
        .sync_policy(SyncPolicy::Always);
    if let Some(obs) = obs {
        b = b.obs(obs);
    }
    b.build().unwrap()
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.registry.counter_total(name)
}

/// Everything the application computed on one server, order included.
#[derive(Debug, PartialEq)]
struct Computed {
    /// Per queue: (id, body, processed) in queue order.
    queues: BTreeMap<String, Vec<(u64, String, bool)>>,
    /// Per lane: member ids.
    slices: BTreeMap<i64, Vec<MsgId>>,
    /// Per message: (parent, root, rule) of its lineage edge.
    lineage: Vec<(MsgId, MsgId, MsgId, String)>,
}

fn computed(server: &Server) -> Computed {
    let queues = server
        .app()
        .queues
        .keys()
        .map(|q| {
            let msgs = server.queue_messages(q).unwrap();
            let rows = msgs
                .iter()
                .map(|m| (m.id.0, m.payload.to_string(), m.processed))
                .collect();
            (q.clone(), rows)
        })
        .collect();
    let slices = (0..7)
        .map(|k| (k, server.store().slice_members("lanes", &PropValue::Int(k))))
        .collect();
    let lineage = server
        .store()
        .lineage_edges()
        .into_iter()
        .map(|e| (e.msg, e.parent, e.root, e.rule.to_string()))
        .collect();
    Computed {
        queues,
        slices,
        lineage,
    }
}

/// Feed `n` requests, every third over the wire, the rest acknowledged.
fn feed_gateway(server: &Server, net: &Network, from: u64, n: u64) {
    for i in from..from + n {
        let xml = format!("<req n=\"{i}\"/>");
        if i % 3 == 2 {
            net.send(Envelope::new("urn:pipe-in", "urn:pipe-gen", xml))
                .unwrap();
        } else {
            server
                .enqueue_external_with_props("inbound", &xml, &lane(i))
                .unwrap();
        }
    }
}

/// `run_until_idle` against a hand-rolled loop that forces a durability
/// barrier after every single message: identical results, and far fewer
/// syncs.
#[test]
fn pipelined_drain_computes_what_a_barrier_per_message_computes() {
    let run = |barrier_per_message: bool| {
        let dir = tempfile::TempDir::new().unwrap();
        let (net, delivered) = network_with_sink(|_| {});
        let obs = Obs::new();
        let server = gateway_server(dir.path(), &net, Some(Arc::clone(&obs)));
        for burst in 0..4 {
            feed_gateway(&server, &net, burst * 15, 15);
            if barrier_per_message {
                loop {
                    let mut progressed = false;
                    while server.step().unwrap() {
                        server.durability_barrier().unwrap();
                        progressed = true;
                    }
                    if server.pump_environment().unwrap() || progressed {
                        continue;
                    }
                    match server.next_event_at() {
                        Some(t) => server.clock().set(t.max(server.clock().now())),
                        None => break,
                    }
                }
            } else {
                server.run_until_idle().unwrap();
            }
        }
        let syncs = counter(&obs, "demaq_store_wal_syncs_total");
        let commits = counter(&obs, "demaq_store_commits_total");
        let deliveries = delivered.lock().unwrap().clone();
        (computed(&server), deliveries, syncs, commits)
    };
    let (stepwise, stepwise_deliveries, stepwise_syncs, stepwise_commits) = run(true);
    let (pipelined, pipelined_deliveries, pipelined_syncs, pipelined_commits) = run(false);
    assert_eq!(pipelined, stepwise);
    assert_eq!(pipelined_deliveries, stepwise_deliveries);
    assert_eq!(pipelined_deliveries.len(), 60, "one response per request");
    assert_eq!(pipelined.queues["outbound"].len(), 60);
    assert_eq!(pipelined_commits, stepwise_commits);
    // 40 acknowledged enqueues sync each; the ~200 engine-side commits
    // share barriers. Stepwise, nearly every commit has its own.
    assert!(
        pipelined_syncs < pipelined_commits / 3 && pipelined_syncs * 2 < stepwise_syncs,
        "pipelined {pipelined_syncs} vs stepwise {stepwise_syncs} syncs for {pipelined_commits} commits"
    );
}

/// Sharded, the reference is the `Batch` policy: it defers nothing and
/// holds nothing. Where a forwarded message lands *relative to its
/// destination's own work* legitimately differs (a held forward arrives a
/// round later), so bodies compare as multisets.
#[test]
fn pipelined_shards_compute_what_undeferred_shards_compute() {
    let run = |sync: SyncPolicy| {
        let dir = tempfile::TempDir::new().unwrap();
        let server = rekey_deployment(dir.path(), sync, None);
        for i in 0..90u64 {
            let xml = format!("<job n=\"{i}\"/>");
            server
                .enqueue_external_with_props("intake", &xml, &lane(i))
                .unwrap();
            if i % 30 == 29 {
                if i < 60 {
                    server.run_until_idle().unwrap();
                } else {
                    server.process_all_parallel(1).unwrap();
                }
            }
        }
        let bodies: BTreeMap<&str, Vec<String>> = ["intake", "enriched", "done"]
            .into_iter()
            .map(|q| {
                let mut v = server.queue_bodies(q).unwrap();
                v.sort();
                (q, v)
            })
            .collect();
        let slices: Vec<Vec<String>> = (0..7)
            .map(|k| {
                let mut members = Vec::new();
                for s in 0..server.num_shards() {
                    let store = server.shard(s).store();
                    for id in store.slice_members("lanes", &PropValue::Int(k)) {
                        members.push(store.payload(id).unwrap().to_string());
                    }
                }
                members.sort();
                members
            })
            .collect();
        let chains: BTreeSet<Vec<(String, Option<String>)>> = server
            .queue_messages("done")
            .unwrap()
            .iter()
            .map(|m| {
                let l = server.lineage(m.id);
                l.target
                    .iter()
                    .chain(&l.ancestors)
                    .map(|r| (r.queue.clone(), r.rule.clone()))
                    .collect()
            })
            .collect();
        let forwards = counter(&server.metrics(), "demaq_engine_shard_forwards_total");
        (bodies, slices, chains, forwards)
    };
    let pipelined = run(SyncPolicy::Always);
    assert_eq!(pipelined, run(SyncPolicy::Batch));
    assert_eq!(pipelined.0["done"].len(), 90);
    assert!(pipelined.3 > 0, "the rekey must forward across shards");
    assert_eq!(
        pipelined.2.len(),
        1,
        "every done walks back done → enriched → intake"
    );
}

/// A clean drop under `Always` loses nothing: commits no barrier has
/// covered yet are synced, held sends go out, and the reopened server
/// holds exactly the dropped one's state — it processes what was left and
/// nothing again.
#[test]
fn drop_then_reopen_replays_every_deferred_commit_and_reprocesses_nothing() {
    let dir = tempfile::TempDir::new().unwrap();
    let (net, delivered) = network_with_sink(|_| {});
    let server = gateway_server(dir.path(), &net, None);
    for i in 0..12 {
        let xml = format!("<req n=\"{i}\"/>");
        server
            .enqueue_external_with_props("inbound", &xml, &lane(i))
            .unwrap();
    }
    // 20 of the 36 messages, never idle: 20 deferred commits no barrier
    // has covered, and the sends of the first replies still held.
    for _ in 0..20 {
        assert!(server.step().unwrap());
    }
    assert_eq!(server.store().unsynced_commits(), 20);
    assert!(delivered.lock().unwrap().is_empty() && net.in_flight() == 0);
    let dropped = computed(&server);
    assert_eq!(
        dropped.queues.values().flatten().filter(|m| m.2).count(),
        20
    );
    drop(server);
    assert!(net.in_flight() > 0, "the drop released the held sends");

    let server = gateway_server(dir.path(), &net, None);
    assert_eq!(computed(&server), dropped);
    assert_eq!(
        server.run_until_idle().unwrap(),
        16,
        "what was left, nothing again"
    );
    drop(server);

    let server = gateway_server(dir.path(), &net, None);
    assert_eq!(server.run_until_idle().unwrap(), 0);
    assert!(computed(&server).queues.values().flatten().all(|m| m.2));
    let delivered = delivered.lock().unwrap();
    assert_eq!(
        per_index(delivered.iter()),
        (0..12).map(|n| (n, 1)).collect(),
        "every response delivered exactly once across the restarts"
    );
}

/// A rule that fails after a sibling rule enqueued, with an error queue.
const FAILING: &str = r#"
    set errorqueue errors
    create schema strict {
        root order
        element order { id }
        element id text integer
    }
    create queue errors kind basic mode persistent
    create queue inbox kind basic mode persistent
    create queue audit kind basic mode persistent
    create queue guarded kind basic mode persistent schema strict
    create rule note for inbox
      if (//boom) then do enqueue <seen/> into audit
    create rule explode for inbox
      if (//boom) then do enqueue <notAnOrder/> into guarded
"#;

/// A failing rule aborts its message's whole transaction, the sibling
/// rule's enqueue included (paper Sec. 3.6). One new transaction then
/// marks the message processed and enqueues its error message: the log
/// holds both in one frame, so no crash can leave the message processed
/// and its error lost.
#[test]
fn a_failing_rule_marks_and_routes_its_error_in_one_frame() {
    let dir = tempfile::TempDir::new().unwrap();
    let server = Server::builder()
        .program(FAILING)
        .dir(dir.path())
        .sync_policy(SyncPolicy::Always)
        .build()
        .unwrap();
    let msg = server.enqueue_external("inbox", "<boom/>").unwrap();
    server.run_until_idle().unwrap();
    let errors = server.queue_messages("errors").unwrap();
    assert_eq!(errors.len(), 1);
    let error = errors[0].id;
    assert!(server.store().message(msg).unwrap().processed);
    assert!(server.queue_messages("audit").unwrap().is_empty());
    drop(server);

    let scan = read_log(&dir.path().join("wal-000000.log")).unwrap();
    let frames: Vec<&Vec<TxnOp>> = scan.txns.iter().map(|(_, ops)| ops).collect();
    let marking: Vec<_> = frames
        .iter()
        .filter(|ops| ops.contains(&TxnOp::MarkProcessed { msg }))
        .collect();
    assert_eq!(marking.len(), 1, "{frames:?}");
    assert!(
        marking[0]
            .iter()
            .any(|op| matches!(op, TxnOp::Enqueue { msg, .. } if *msg == error)),
        "the mark and the error enqueue are in different frames: {frames:?}"
    );
    let enqueued_into = |queue: &str| {
        let enqueues = frames.iter().flat_map(|ops| ops.iter());
        enqueues
            .filter(|op| matches!(op, TxnOp::Enqueue { queue: q, .. } if &**q == queue))
            .count()
    };
    assert_eq!(enqueued_into("audit"), 0, "a sibling's enqueue logged");
}

// ---- crash harness ------------------------------------------------------------

const ACKS: &str = "acks.log";
const EFFECTS: &str = "effects.log";
/// Jobs the child feeds before it exits by itself.
const CHILD_JOBS: u64 = 400;

/// Append-only log written with one `write` per line, so a kill cannot
/// leave a torn line that parses as a different one.
struct LineLog(Mutex<std::fs::File>);

impl LineLog {
    fn open(path: PathBuf) -> Arc<LineLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        Arc::new(LineLog(Mutex::new(file)))
    }

    fn line(&self, text: String) {
        self.0.lock().unwrap().write_all(text.as_bytes()).unwrap();
    }
}

fn complete_lines(path: PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let complete = text.rfind('\n').map_or("", |end| &text[..end]);
    complete.lines().map(str::to_string).collect()
}

/// An observability context whose tracer logs every `msg.released` event
/// — the engine records it right before it performs the effect — and
/// every `msg.processed` one and every enqueue into the incoming gateway
/// queue `wire`, which it records right after the commit.
fn logging_obs(effects: &Arc<LineLog>) -> Arc<Obs> {
    let obs = Obs::new();
    let log = Arc::clone(effects);
    obs.tracer.attach_tap(move |ev| match ev.kind {
        "msg.released" => {
            let kind = ev.detail.split(' ').next().unwrap_or("");
            log.line(format!("released {kind} {}\n", ev.msg_id.unwrap_or(0)));
        }
        "msg.processed" => log.line(format!("processed {}\n", ev.msg_id.unwrap_or(0))),
        "msg.enqueue" if ev.queue == "wire" => {
            log.line(format!("ingested {}\n", ev.msg_id.unwrap_or(0)))
        }
        _ => {}
    });
    obs
}

/// Child body of every scenario: feed jobs in bursts (acknowledged, or
/// over the wire), drain after each, until killed (or done). A no-op unless re-invoked by
/// the parent with `DEMAQ_PIPE_CRASH_DIR`.
#[test]
#[ignore = "crash-harness child body; only meaningful when re-invoked by the parent test"]
fn pipeline_crash_child_body() {
    let Ok(dir) = std::env::var("DEMAQ_PIPE_CRASH_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let scenario = std::env::var("DEMAQ_PIPE_CRASH_SCENARIO").unwrap();
    let burst: u64 = std::env::var("DEMAQ_PIPE_CRASH_BURST")
        .unwrap()
        .parse()
        .unwrap();
    let acks = LineLog::open(dir.join(ACKS));
    let effects = LineLog::open(dir.join(EFFECTS));
    let obs = logging_obs(&effects);
    match scenario.as_str() {
        "gateway" => {
            let log = Arc::clone(&effects);
            let (net, _) =
                network_with_sink(move |env| log.line(format!("delivered {}\n", env.body)));
            let server = gateway_server(&dir.join("store"), &net, Some(obs));
            for i in 0..CHILD_JOBS {
                let xml = format!("<req n=\"{i}\"/>");
                let id = server
                    .enqueue_external_with_props("inbound", &xml, &lane(i))
                    .unwrap();
                acks.line(format!("{} {xml}\n", id.0));
                if i % burst == burst - 1 {
                    server.run_until_idle().unwrap();
                }
            }
        }
        "sharded" => {
            let server = rekey_deployment(&dir.join("store"), SyncPolicy::Always, Some(obs));
            for i in 0..CHILD_JOBS {
                let xml = format!("<job n=\"{i}\"/>");
                let id = server
                    .enqueue_external_with_props("intake", &xml, &lane(i))
                    .unwrap();
                acks.line(format!("{} {xml}\n", id.0));
                if i % burst == burst - 1 {
                    // Alternate the two drains: one loop, then one pinned
                    // worker per shard.
                    if (i / burst).is_multiple_of(2) {
                        server.run_until_idle().unwrap();
                    } else {
                        server.process_all_parallel(1).unwrap();
                    }
                }
            }
        }
        "wire" => {
            let log = Arc::clone(&effects);
            let (net, _) =
                network_with_sink(move |env| log.line(format!("delivered {}\n", env.body)));
            let server = gateway_server(&dir.join("store"), &net, Some(obs));
            for i in 0..CHILD_JOBS {
                let xml = format!("<req n=\"{i}\"/>");
                net.send(Envelope::new("urn:pipe-in", "urn:pipe-gen", xml))
                    .unwrap();
                if i % burst == burst - 1 {
                    server.run_until_idle().unwrap();
                }
            }
        }
        "local" => {
            let server = local_server(&dir.join("store"), Some(obs));
            for i in 0..CHILD_JOBS {
                let xml = format!("<job n=\"{i}\"/>");
                let id = server.enqueue_external("intake", &xml).unwrap();
                acks.line(format!("{} {xml}\n", id.0));
                if i % burst == burst - 1 {
                    server.run_until_idle().unwrap();
                }
            }
        }
        other => panic!("unknown scenario {other}"),
    }
}

struct Xorshift(u64);

impl Xorshift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// What one crashed child left behind.
struct Crashed {
    dir: tempfile::TempDir,
    /// (id, payload) of every acknowledged enqueue.
    acked: Vec<(u64, String)>,
    /// Producing message id of every released (kind, id) effect.
    released: Vec<(String, u64)>,
    /// Bodies the child's sink saw.
    delivered: Vec<String>,
    /// Every message whose processing the child committed.
    processed: Vec<u64>,
    /// Every message the child's incoming gateway committed.
    ingested: Vec<u64>,
}

impl Crashed {
    fn store_dir(&self) -> PathBuf {
        self.dir.path().join("store")
    }
}

/// Run the child and kill it: by the WAL failpoint after a random number
/// of log bytes (two rounds in three), else by SIGKILL after a random
/// delay. The local and wire scenarios drain after bursts of 64–127
/// jobs, the others after 1–12.
fn crash_child(scenario: &str, round: u64, rng: &mut Xorshift) -> Crashed {
    let dir = tempfile::TempDir::new().unwrap();
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args([
        "pipeline_crash_child_body",
        "--exact",
        "--ignored",
        "--nocapture",
    ])
    .env("DEMAQ_PIPE_CRASH_DIR", dir.path())
    .env("DEMAQ_PIPE_CRASH_SCENARIO", scenario)
    .env(
        "DEMAQ_PIPE_CRASH_BURST",
        match scenario {
            "local" | "wire" => 64 + rng.below(64),
            _ => 1 + rng.below(12),
        }
        .to_string(),
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    let failpoint = round % 3 != 2;
    if failpoint {
        // A job logs about 190 B into the gateway, wire and local
        // scenarios' WALs and 100–160 B into each sharded one, so every
        // budget tears a log within the child's first ~200 jobs.
        cmd.env(
            "DEMAQ_WAL_CRASH_AFTER_BYTES",
            (100 + rng.below(34_000)).to_string(),
        );
    }
    let mut child = cmd.spawn().unwrap();
    let deadline = Instant::now()
        + if failpoint {
            Duration::from_secs(20)
        } else {
            Duration::from_millis(15 + rng.below(150))
        };
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = child.wait();

    let acked = complete_lines(dir.path().join(ACKS))
        .iter()
        .filter_map(|l| {
            let (id, xml) = l.split_once(' ')?;
            Some((id.parse().ok()?, xml.to_string()))
        })
        .collect();
    let (mut released, mut delivered) = (Vec::new(), Vec::new());
    let (mut processed, mut ingested) = (Vec::new(), Vec::new());
    for l in complete_lines(dir.path().join(EFFECTS)) {
        if let Some(body) = l.strip_prefix("delivered ") {
            delivered.push(body.to_string());
        } else if let Some(id) = l.strip_prefix("processed ") {
            processed.push(id.parse().expect("processed id"));
        } else if let Some(id) = l.strip_prefix("ingested ") {
            ingested.push(id.parse().expect("ingested id"));
        } else if let Some(rest) = l.strip_prefix("released ") {
            let (kind, id) = rest.split_once(' ').expect("released <kind> <id>");
            released.push((kind.to_string(), id.parse().expect("producer id")));
        }
    }
    Crashed {
        dir,
        acked,
        released,
        delivered,
        processed,
        ingested,
    }
}

fn crash_rounds() -> (u64, Xorshift, u64) {
    let rounds = std::env::var("DEMAQ_CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let seed = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_nanos() as u64
        | 1;
    (rounds, Xorshift(seed), seed)
}

/// What a scenario's rounds verified, to tell a tame harness from a
/// passing one.
#[derive(Default)]
struct Tally {
    /// Jobs the children took in: acknowledged enqueues and gateway
    /// ingests.
    fed: usize,
    released: usize,
    /// Commits the crash lost (total, and most in one round).
    lost: usize,
    lost_max: usize,
    killed_mid_run: u64,
}

impl Tally {
    /// `lost`: commits the child reported that the recovered store lacks
    /// (counted in the local and wire scenarios).
    fn add(&mut self, crashed: &Crashed, lost: usize) {
        let fed = crashed.acked.len() + crashed.ingested.len();
        self.fed += fed;
        self.released += crashed.released.len();
        self.lost += lost;
        self.lost_max = self.lost_max.max(lost);
        self.killed_mid_run += (fed < CHILD_JOBS as usize) as u64;
    }

    fn finish(self, scenario: &str, rounds: u64, seed: u64) {
        let Tally {
            fed,
            released,
            lost,
            lost_max,
            killed_mid_run,
        } = self;
        assert!(
            rounds < 10 || (fed > 0 && released + lost > 0 && killed_mid_run > rounds / 2),
            "{scenario} harness too tame: {fed} fed, {released} released, {lost} lost, \
             {killed_mid_run}/{rounds} killed mid-run (seed {seed})"
        );
        eprintln!(
            "{scenario} crash harness: {rounds} rounds, {killed_mid_run} killed mid-run, \
             {fed} jobs fed, {released} released effects and {lost} lost commits \
             (at most {lost_max} in a round) verified (seed {seed})"
        );
    }
}

/// The `n` of `<tag n="17"/>`.
fn index_of(body: &str) -> u64 {
    let rest = &body[body.find("n=\"").expect("n attribute") + 3..];
    rest[..rest.find('"').unwrap()].parse().expect("index")
}

/// How often each index occurs among `bodies`.
fn per_index<S: AsRef<str>>(bodies: impl IntoIterator<Item = S>) -> BTreeMap<u64, usize> {
    let mut counts = BTreeMap::new();
    for b in bodies {
        *counts.entry(index_of(b.as_ref())).or_insert(0) += 1;
    }
    counts
}

#[test]
fn gateway_crash_never_shows_an_effect_without_its_commit() {
    let (rounds, mut rng, seed) = crash_rounds();
    let mut tally = Tally::default();
    for round in 0..rounds {
        let crashed = crash_child("gateway", round, &mut rng);
        let ctx = format!("round {round} (seed {seed})");
        let (net, redelivered) = network_with_sink(|_| {});
        let server = gateway_server(&crashed.store_dir(), &net, None);

        // (b) acknowledged ⇒ present.
        let inbound: BTreeMap<u64, String> = server
            .queue_messages("inbound")
            .unwrap()
            .iter()
            .map(|m| (m.id.0, m.payload.to_string()))
            .collect();
        for (id, xml) in &crashed.acked {
            assert_eq!(inbound.get(id), Some(xml), "{ctx}: acked {id} lost");
        }
        // (a) every released send, and every delivery, belongs to a
        // response whose enqueue recovery replayed.
        let outbound = server.queue_messages("outbound").unwrap();
        let recovered: BTreeSet<u64> = outbound.iter().map(|m| m.id.0).collect();
        for (kind, producer) in &crashed.released {
            assert_eq!(kind, "send", "{ctx}");
            assert!(
                recovered.contains(producer),
                "{ctx}: response {producer} was sent, but its commit did not survive"
            );
        }
        let recovered_bodies: BTreeSet<&str> = outbound.iter().map(|m| &*m.payload).collect();
        for body in &crashed.delivered {
            assert!(
                recovered_bodies.contains(body.as_str()),
                "{ctx}: {body} reached the sink, but its commit did not survive"
            );
        }
        // Responses durable at the crash are never sent again (the send is
        // an effect of their enqueue): if the crash fell between their
        // sync and their release, they are the at-most-once window.
        let durable_at_crash: BTreeSet<u64> =
            outbound.iter().map(|m| index_of(&m.payload)).collect();

        // (c) recover + drain: one response per request, delivered at most
        // once over both lives, exactly once unless durable-but-unsent.
        server.run_until_idle().unwrap();
        assert_eq!(server.run_until_idle().unwrap(), 0);
        let requests = per_index(inbound.values());
        assert_eq!(
            per_index(server.queue_bodies("outbound").unwrap()),
            requests,
            "{ctx}: exactly one response per recovered request"
        );
        let redelivered = redelivered.lock().unwrap();
        let deliveries = per_index(crashed.delivered.iter().chain(redelivered.iter()));
        for n in requests.keys() {
            match deliveries.get(n).copied().unwrap_or(0) {
                1 => {}
                0 => assert!(
                    durable_at_crash.contains(n),
                    "{ctx}: response {n} never delivered"
                ),
                k => panic!("{ctx}: response {n} delivered {k} times"),
            }
        }
        tally.add(&crashed, 0);
    }
    tally.finish("gateway", rounds, seed);
}

#[test]
fn sharded_crash_never_shows_a_forward_without_its_commit() {
    let (rounds, mut rng, seed) = crash_rounds();
    let mut tally = Tally::default();
    for round in 0..rounds {
        let crashed = crash_child("sharded", round, &mut rng);
        let ctx = format!("round {round} (seed {seed})");
        let server = rekey_deployment(&crashed.store_dir(), SyncPolicy::Always, None);

        // (b) acknowledged ⇒ present.
        let intake = server.queue_messages("intake").unwrap();
        let present: BTreeMap<u64, &str> = intake.iter().map(|m| (m.id.0, &*m.payload)).collect();
        for (id, xml) in &crashed.acked {
            assert_eq!(
                present.get(id).copied(),
                Some(xml.as_str()),
                "{ctx}: acked {id} lost"
            );
        }
        // (a) a released forward's producer is the trigger its commit
        // marked processed — on the producer's own shard, a different WAL
        // than the forward lands in.
        for (kind, producer) in &crashed.released {
            assert_eq!(kind, "forward", "{ctx}");
            let home = server.shard((producer >> 48) as usize).store();
            let processed = home.message_meta(MsgId(*producer)).map(|m| m.processed);
            assert_eq!(
                processed.ok(),
                Some(true),
                "{ctx}: a forward of {producer} was released, but its commit did not survive"
            );
        }
        // Jobs whose `enrich` commit was durable at the crash are not
        // re-run; if their forward was still in memory (held, published,
        // or landed but unsynced) it is the known at-most-once window.
        let enriched_at_crash: BTreeSet<u64> = intake
            .iter()
            .filter(|m| m.processed)
            .map(|m| index_of(&m.payload))
            .collect();

        // (c) recover + drain: no output twice, none missing but a hop
        // that was in flight.
        server.run_until_idle().unwrap();
        assert_eq!(server.process_all_parallel(1).unwrap(), 0);
        let jobs = per_index(intake.iter().map(|m| &*m.payload));
        let enriched = per_index(server.queue_bodies("enriched").unwrap());
        let done = per_index(server.queue_bodies("done").unwrap());
        for (n, count) in &jobs {
            assert_eq!(*count, 1, "{ctx}: job {n} is in intake {count} times");
            match enriched.get(n).copied().unwrap_or(0) {
                1 => {}
                0 => assert!(
                    enriched_at_crash.contains(n),
                    "{ctx}: job {n} was re-run but produced nothing"
                ),
                k => panic!("{ctx}: job {n} enriched {k} times"),
            }
        }
        assert_eq!(
            done, enriched,
            "{ctx}: `finish` is shard-local — exactly once"
        );
        assert!(enriched.keys().all(|n| jobs.contains_key(n)), "{ctx}");
        tally.add(&crashed, 0);
    }
    tally.finish("sharded", rounds, seed);
}

#[test]
fn local_crash_redoes_every_unsynced_commit_exactly_once() {
    let (rounds, mut rng, seed) = crash_rounds();
    let mut tally = Tally::default();
    for round in 0..rounds {
        let crashed = crash_child("local", round, &mut rng);
        let ctx = format!("round {round} (seed {seed})");
        let server = local_server(&crashed.store_dir(), None);

        // (b) acknowledged ⇒ present.
        let intake = server.queue_messages("intake").unwrap();
        let present: BTreeMap<u64, &str> = intake.iter().map(|m| (m.id.0, &*m.payload)).collect();
        for (id, xml) in &crashed.acked {
            assert_eq!(
                present.get(id).copied(),
                Some(xml.as_str()),
                "{ctx}: acked {id} lost"
            );
        }
        assert!(crashed.released.is_empty(), "{ctx}: {:?}", crashed.released);
        // The unsynced tail the crash dropped: processing the child
        // committed that recovery does not have (the message itself may
        // be gone with its producer's commit).
        let store = server.store();
        let lost = crashed
            .processed
            .iter()
            .filter(|&&id| !store.message_meta(MsgId(id)).is_ok_and(|m| m.processed))
            .count();

        // (c) recover + drain: nothing was in flight outside the store, so
        // every stage yields exactly one output per recovered job.
        server.run_until_idle().unwrap();
        assert_eq!(server.run_until_idle().unwrap(), 0);
        let jobs = per_index(intake.iter().map(|m| &*m.payload));
        assert!(jobs.values().all(|&c| c == 1), "{ctx}: {jobs:?}");
        for queue in ["checked", "priced", "done"] {
            assert_eq!(
                per_index(server.queue_bodies(queue).unwrap()),
                jobs,
                "{ctx}: `{queue}` holds one message per job"
            );
        }
        tally.add(&crashed, lost);
    }
    tally.finish("local", rounds, seed);
}

/// Requests arrive over the wire only. An ingest's input lives only in
/// memory, so a crash that loses its commit loses the request: the barrier
/// syncs every 32nd unsynced ingest, and no crash loses more.
#[test]
fn wire_crash_loses_at_most_32_gateway_ingests() {
    let (rounds, mut rng, seed) = crash_rounds();
    let mut tally = Tally::default();
    for round in 0..rounds {
        let crashed = crash_child("wire", round, &mut rng);
        let ctx = format!("round {round} (seed {seed})");
        let (net, _) = network_with_sink(|_| {});
        let server = gateway_server(&crashed.store_dir(), &net, None);

        let wire = server.queue_messages("wire").unwrap();
        let recovered: BTreeSet<u64> = wire.iter().map(|m| m.id.0).collect();
        let lost = crashed
            .ingested
            .iter()
            .filter(|id| !recovered.contains(id))
            .count();
        assert!(lost <= 32, "{ctx}: the crash lost {lost} gateway ingests");
        // (a) every released send belongs to a response whose enqueue
        // recovery replayed.
        let outbound: BTreeSet<u64> = server
            .queue_messages("outbound")
            .unwrap()
            .iter()
            .map(|m| m.id.0)
            .collect();
        for (kind, producer) in &crashed.released {
            assert_eq!(kind, "send", "{ctx}");
            assert!(
                outbound.contains(producer),
                "{ctx}: response {producer} lost"
            );
        }
        // (c) recover + drain: one response per recovered request.
        server.run_until_idle().unwrap();
        assert_eq!(server.run_until_idle().unwrap(), 0);
        assert_eq!(
            per_index(server.queue_bodies("outbound").unwrap()),
            per_index(wire.iter().map(|m| &*m.payload)),
            "{ctx}: exactly one response per recovered request"
        );
        tally.add(&crashed, lost);
    }
    tally.finish("wire", rounds, seed);
}
