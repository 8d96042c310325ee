//! Differential tests for incremental aggregate maintenance.
//!
//! The engine answers recognized aggregate shapes from materialized cells
//! validated by the store's version clocks. Every scenario runs on one
//! server stepped through the shared oracle in `tests/oracle`, which
//! predicts each step with the reference evaluator rescanning every
//! member — the slice members a narrowing GC released included — and
//! checks the step's effects against it: enqueued payloads, and the
//! `<detail>` of routed errors byte for byte. Scenarios cover the paper
//! listings that aggregate over slices and queues, aggregate error paths
//! (`fn:sum` over non-numeric content), a randomized enqueue/reset/GC
//! interleaving corpus over keyed and unkeyed scopes, sharded deployments
//! (held against one checked server), and SIGKILL crash recovery (cells
//! are process-local and must be rebuilt from the recovered store, never
//! trusted across a restart). The lifetime-token scenarios pin what a
//! cell may and may not reuse: a reset refilled to the same length,
//! commits applied out of id order, a narrowing release, a GC purge under
//! warm cells, an erroring guard, doc-less cross-shard members, and a
//! clean reopen with cold cells over live base cells.

mod oracle;

use demaq::{Server, ShardedServer};
use demaq_store::store::SyncPolicy;
use demaq_xquery::Atomic;
use oracle::Harness;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

fn build(program: &str) -> Server {
    Server::builder()
        .program(program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap()
}

fn metric(s: &Server, name: &str) -> u64 {
    s.metrics().registry.counter_total(name)
}

/// Feed every message to a fresh server through the oracle, draining
/// after each. Returns the server for scenario-specific assertions.
fn checked(name: &str, program: &str, feed: &[(&str, String)]) -> Server {
    let server = build(program);
    let h = Harness::new(name, &server);
    for (q, xml) in feed {
        h.feed(q, xml);
    }
    drop(h);
    server
}

/// Sorted bodies per queue.
fn sorted_bodies(queues: &[&str], bodies: impl Fn(&str) -> Vec<String>) -> Vec<Vec<String>> {
    queues
        .iter()
        .map(|q| {
            let mut b = bodies(q);
            b.sort();
            b
        })
        .collect()
}

/// Domain registrar (paper Sec. 2.3.2): `count(qs:slice())` in a slicing
/// rule with resets — slice-scoped counting across slice lifetimes.
#[test]
fn registrar_slice_count_with_resets() {
    let program = r#"
        create queue registrar kind basic mode persistent
        create queue audit kind basic mode persistent
        create property domain as xs:string fixed queue registrar value //domain
        create slicing byDomain on domain
        create rule ownerChange for byDomain
          if (qs:message()/transfer) then do reset
        create rule history for byDomain
          if (qs:message()/query) then
            do enqueue <history>{count(qs:slice())}</history> into audit
    "#;
    let mut feed: Vec<(&str, String)> = Vec::new();
    for d in ["example.org", "example.net", "example.com"] {
        feed.push((
            "registrar",
            format!("<register><domain>{d}</domain></register>"),
        ));
        feed.push((
            "registrar",
            format!("<update><domain>{d}</domain></update>"),
        ));
        feed.push(("registrar", format!("<query><domain>{d}</domain></query>")));
        feed.push((
            "registrar",
            format!("<transfer><domain>{d}</domain></transfer>"),
        ));
        feed.push(("registrar", format!("<query><domain>{d}</domain></query>")));
    }
    let inc = checked("registrar", program, &feed);
    // The registry actually answered reads.
    assert!(
        metric(&inc, "demaq_core_agg_hits_total")
            + metric(&inc, "demaq_core_agg_deltas_total")
            + metric(&inc, "demaq_core_agg_rebuilds_total")
            > 0,
        "the registry answered no read"
    );
}

/// Per-device stats over a slice: count / sum / min / max / exists with
/// path steps below the member roots, plus `qs:slicekey()` in the output.
#[test]
fn per_device_slice_stats() {
    let program = r#"
        create queue intake kind basic mode persistent
        create queue report kind basic mode persistent
        create property device as xs:string fixed queue intake value //reading/@dev
        create slicing byDevice on device
        create rule stats for byDevice
          if (qs:message()//reading) then
            do enqueue
              <stat dev="{qs:slicekey()}"
                    n="{count(qs:slice())}"
                    total="{sum(qs:slice()//v)}"
                    lo="{min(qs:slice()//v)}"
                    hi="{max(qs:slice()//v)}"
                    hot="{exists(qs:slice()//alarm)}"/> into report
    "#;
    let mut feed: Vec<(&str, String)> = Vec::new();
    for i in 0..18u32 {
        let dev = ["d0", "d1", "d2"][(i % 3) as usize];
        let alarm = if i == 11 { "<alarm/>" } else { "" };
        feed.push((
            "intake",
            format!(
                "<reading dev='{dev}'><v>{}</v>{alarm}</reading>",
                i * 3 % 17
            ),
        ));
    }
    let inc = checked("device-stats", program, &feed);
    assert!(
        metric(&inc, "demaq_core_agg_deltas_total") > 0,
        "append-only slice growth should take the delta path"
    );
}

/// Queue-scope aggregates, including the error path: `fn:sum` over
/// non-numeric content raises, and the routed error document (which
/// embeds the message text) must carry the reference's text — the
/// incremental path must decline rather than cache an errored fold.
#[test]
fn queue_scope_aggregates_and_error_parity() {
    let program = r#"
        create queue inbox kind basic mode persistent
        create queue audit kind basic mode persistent
        create queue out kind basic mode persistent
        create queue errs kind basic mode persistent
        create rule stash for inbox
          if (//item) then do enqueue <entry>{//item/node()}</entry> into audit
        create rule watch for inbox errorqueue errs
          if (//tick) then
            do enqueue
              <seen n="{count(qs:queue("audit"))}"
                    any="{exists(qs:queue("audit")//flag)}"
                    sum="{sum(qs:queue("audit")//amt)}"/> into out
    "#;
    let feed = vec![
        ("inbox", "<item><amt>3</amt></item>".to_string()),
        ("inbox", "<tick/>".to_string()),
        ("inbox", "<item><amt>4.5</amt><flag/></item>".to_string()),
        ("inbox", "<tick/>".to_string()),
        // Non-numeric amt: fn:sum raises from here on.
        ("inbox", "<item><amt>oops</amt></item>".to_string()),
        ("inbox", "<tick/>".to_string()),
        ("inbox", "<tick/>".to_string()),
    ];
    let inc = checked("queue-aggregates", program, &feed);
    assert!(inc.stats().errors_routed >= 2, "sum error must route");
    assert_eq!(inc.queue_bodies("errs").unwrap().len(), 2);
}

/// Randomized interleaving corpus: keyed slice aggregates, unkeyed queue
/// aggregates, resets, and GC, in a deterministic pseudo-random order.
/// Cross-reading rules (each watcher aggregates over the *other* queue)
/// exercise multi-queue lock acquisition on every firing.
#[test]
fn randomized_interleaving_corpus() {
    let program = r#"
        create queue alpha kind basic mode persistent
        create queue beta kind basic mode persistent
        create queue out kind basic mode persistent
        create property sess as xs:string fixed queue alpha, beta value //@s
        create slicing bySess on sess
        create rule closeSess for bySess
          if (qs:message()/bye) then do reset
        create rule tallySess for bySess
          if (qs:message()/ev) then
            do enqueue <tally s="{qs:slicekey()}" n="{count(qs:slice())}"
                              sum="{sum(qs:slice()//w)}"/> into out
        create rule watchA for alpha
          if (//probe) then
            do enqueue <fromA n="{count(qs:queue("beta"))}"
                              hi="{max(qs:queue("beta")//w)}"/> into out
        create rule watchB for beta
          if (//probe) then
            do enqueue <fromB n="{count(qs:queue("alpha"))}"
                              any="{exists(qs:queue("alpha")//w)}"/> into out
    "#;
    for seed in 0..4u64 {
        let server = build(program);
        let h = Harness::new(format!("corpus seed {seed}"), &server);
        let mut rng = StdRng::seed_from_u64(0xA66_0000 + seed);
        for _ in 0..120 {
            let q = if rng.gen::<bool>() { "alpha" } else { "beta" };
            let sess = rng.gen_range(0..5);
            let xml = match rng.gen_range(0..10) {
                0..=5 => format!("<ev s='s{sess}'><w>{}</w></ev>", rng.gen_range(0..50)),
                6 => format!("<bye s='s{sess}'/>"),
                _ => format!("<probe s='s{sess}'/>"),
            };
            h.feed(q, &xml);
            if rng.gen_bool(0.15) {
                h.gc();
            }
        }
        assert!(
            !server.queue_bodies("out").unwrap().is_empty(),
            "seed {seed}"
        );
    }
}

/// Cells are shard-local: a keyed aggregate workload on a 4-shard
/// deployment must produce what one checked server produces.
#[test]
fn sharded_twin_4_shards() {
    let program = r#"
        create queue intake kind basic mode persistent
        create queue report kind basic mode persistent
        create property lane as xs:integer inherited
        create slicing lanes on lane
        create rule tally for lanes
          if (qs:message()/job) then
            do enqueue <t n="{count(qs:slice())}" s="{sum(qs:slice()//w)}"/> into report
    "#;
    let inc: ShardedServer = Server::builder()
        .program(program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .shards(4)
        .build()
        .unwrap();
    let single = build(program);
    let h = Harness::new("lanes", &single);
    for i in 0..48usize {
        let xml = format!("<job><w>{}</w></job>", i % 9);
        let props = vec![("lane".to_string(), Atomic::Int((i % 7) as i64))];
        inc.enqueue_external_with_props("intake", &xml, &props)
            .unwrap();
        h.enqueue("intake", &xml, &props);
    }
    inc.run_until_idle().unwrap();
    h.run();
    let queues = ["intake", "report"];
    assert_eq!(
        sorted_bodies(&queues, |q| inc.queue_bodies(q).unwrap()),
        sorted_bodies(&queues, |q| single.queue_bodies(q).unwrap()),
        "4 shards diverged from one checked server"
    );
    // Per-shard registries really ran.
    let text = inc.metrics_text();
    let used: f64 = ["hits", "deltas", "rebuilds"]
        .iter()
        .map(|k| sample(&text, &format!("demaq_core_agg_{k}_total")))
        .sum();
    assert!(used > 0.0, "no shard's registry answered a read");
}

/// Sum of all samples of `name` in Prometheus-style metrics text (the
/// sharded server concatenates per-shard registries).
fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(name))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

// ---- lifetime-token validation -------------------------------------------

/// A reset followed by a refill to the *same* length: the cell folded
/// before the reset must neither hit (same length) nor extend (a stale
/// prefix) — the slice's lifetime token moved.
#[test]
fn reset_then_refill_to_the_same_length_rebuilds() {
    let program = r#"
        create queue intake kind basic mode persistent
        create queue report kind basic mode persistent
        create property k as xs:string fixed queue intake value //@k
        create slicing byK on k
        create rule close for byK
          if (qs:message()/close) then do reset
        create rule tally for byK
          if (qs:message()/probe) then
            do enqueue <t n="{count(qs:slice())}" s="{sum(qs:slice()//v)}"
                          hi="{max(qs:slice()//v)}"/> into report
    "#;
    let feed: Vec<(&str, String)> = [
        "<e k='a'><v>1</v></e>",
        "<e k='a'><v>2</v></e>",
        "<probe k='a'/>",
        "<close k='a'/>",
        // Three members again — the same length the first probe folded.
        "<e k='a'><v>10</v></e>",
        "<e k='a'><v>20</v></e>",
        "<probe k='a'/>",
    ]
    .iter()
    .map(|x| ("intake", x.to_string()))
    .collect();
    let inc = checked("reset-refill", program, &feed);
    let report = inc.queue_bodies("report").unwrap();
    assert!(
        report[1].contains("s=\"30\""),
        "stale fold survived the reset: {report:?}"
    );
    assert!(
        metric(&inc, "demaq_core_agg_rebuilds_total") >= 4,
        "the post-reset probe must rebuild both cells"
    );
}

/// Commits that apply out of id order (concurrent committers) must not
/// let a cell extend past a member smaller than one it already folded.
/// Apply order 5, 6, 3 (read), 4, 7 (read): the 4 exceeds the last member
/// (3) but not the largest (6), so it is no append — the second read
/// rebuilds in id order. Extending instead would sum 1e16, -1e16, 1 → 1
/// where id order sums 1e16, 1, -1e16 → 0 (1e16 + 1 rounds to 1e16).
/// The first read sums 1e16, -1e16 → 0 too. (The members are committed
/// straight into the store and never scheduled, so no oracle can step
/// this server; the id-order sums are the model.)
#[test]
fn out_of_order_commits_fold_in_id_order() {
    use demaq_store::PropValue;
    let program = r#"
        create queue intake kind basic mode persistent
        create queue report kind basic mode persistent
        create property k as xs:string fixed queue intake value //@k
        create slicing byK on k
        create rule tally for byK
          if (qs:message()/probe) then
            do enqueue <t s="{sum(qs:slice()//v)}"/> into report
    "#;
    let s = build(program);
    let store = s.store();
    let key = PropValue::Str("a".into());
    // Members 3, 4, 5 get their ids first, and commit later.
    let txns: Vec<_> = ["1e16", "1", "-1e16"]
        .iter()
        .map(|v| {
            let txn = store.begin();
            let xml = format!("<e k='a'><v>{v}</v></e>");
            let props = vec![("k".into(), key.clone())];
            let id = store
                .enqueue(txn, "intake", xml.as_str().into(), props, 0)
                .unwrap();
            store.slice_add(txn, "byK", key.clone(), id).unwrap();
            txn
        })
        .collect();
    store.commit(txns[2]).unwrap();
    s.enqueue_external("intake", "<probe k='a'/>").unwrap();
    store.commit(txns[0]).unwrap();
    s.run_until_idle().unwrap();
    store.commit(txns[1]).unwrap();
    s.enqueue_external("intake", "<probe k='a'/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("report").unwrap(),
        [r#"<t s="0"/>"#, r#"<t s="0"/>"#],
        "the registry must fold in id order"
    );
}

const TELEMETRY: &str = r#"
    create queue intake kind basic mode persistent
    create queue report kind basic mode persistent
    create property device as xs:string fixed queue intake value //reading/@dev
    create slicing byDevice on device
    create rule stats for byDevice
      if (qs:message()//reading) then
        do enqueue <stat dev="{qs:slicekey()}" n="{count(qs:slice())}"
                         total="{sum(qs:slice()//v)}" hi="{max(qs:slice()//v)}"
                         hot="{count(qs:slice()//v[. > 6])}"/> into report
"#;

fn reading(i: u32) -> String {
    format!("<reading dev='d{}'><v>{}</v></reading>", i % 3, i * 5 % 11)
}

/// Narrowing releases processed members into base cells; later arrivals
/// rebuild from the base once, then extend — and answer exactly what a
/// rescan of the whole history (released members included) answers.
#[test]
fn narrowing_release_then_append_matches_rescan() {
    let inc = build(TELEMETRY);
    let h = Harness::new("narrowing", &inc);
    for round in 0..4u32 {
        for i in 0..9u32 {
            h.feed("intake", &reading(round * 9 + i));
        }
        h.gc();
    }
    assert_eq!(h.released(), 36);
    assert!(metric(&inc, "demaq_core_agg_deltas_total") > 0);
    assert!(
        inc.queue_messages("intake").unwrap().is_empty(),
        "released members are purged"
    );
}

/// A GC purge while queue-scope cells are warm moves the queue's token:
/// the next read rebuilds over the surviving members.
#[test]
fn gc_purge_under_warm_cells_matches_rescan() {
    let program = r#"
        create queue inbox kind basic mode persistent
        create queue audit kind basic mode persistent
        create queue out kind basic mode persistent
        create rule stash for inbox
          if (//item) then do enqueue <entry>{//item/node()}</entry> into audit
        create rule watch for inbox
          if (//tick) then
            do enqueue <seen n="{count(qs:queue("audit"))}"
                             sum="{sum(qs:queue("audit")//amt)}"
                             big="{count(qs:queue("audit")//amt[. > 4])}"/> into out
    "#;
    let inc = build(program);
    let h = Harness::new("gc-purge", &inc);
    for round in 0..5u32 {
        for i in 0..4u32 {
            h.enqueue(
                "inbox",
                &format!("<item><amt>{}</amt></item>", round * 4 + i),
                &[],
            );
        }
        h.feed("inbox", "<tick/>");
        // Purge the processed `audit` entries while the cells are warm.
        assert!(h.gc() > 0, "round {round}");
        h.feed("inbox", "<tick/>");
    }
    assert!(
        metric(&inc, "demaq_core_agg_rebuilds_total") >= 5,
        "purges force rebuilds"
    );
}

/// A guard that errors on one member: every read over that slice
/// declines, and the fallback raises the reference's error.
#[test]
fn erroring_guard_declines_to_the_identical_error() {
    let program = r#"
        create queue intake kind basic mode persistent
        create queue report kind basic mode persistent
        create queue errs kind basic mode persistent
        create property k as xs:string fixed queue intake value //@k
        create slicing byK on k
        create rule big for byK errorqueue errs
          if (qs:message()/e) then
            do enqueue <t n="{count(qs:slice()//v[xs:integer(.) > 5])}"/> into report
    "#;
    let feed: Vec<(&str, String)> = [
        "<e k='a'><v>3</v></e>",
        "<e k='a'><v>9</v></e>",
        "<e k='b'><v>7</v></e>",
        "<e k='a'><v>oops</v></e>",
        "<e k='a'><v>8</v></e>",
        "<e k='b'><v>6</v></e>",
    ]
    .iter()
    .map(|x| ("intake", x.to_string()))
    .collect();
    let inc = checked("erroring-guard", program, &feed);
    let errs = inc.queue_bodies("errs").unwrap();
    assert_eq!(
        errs.len(),
        2,
        "both reads after the bad member fail: {errs:?}"
    );
}

/// Two shards whose rekeying hop forwards members across them: a forward
/// lands without a parsed document, so its contribution is computed when
/// a fold first needs it — and the answers match one checked server's.
#[test]
fn doc_less_forwards_fold_like_local_members() {
    let program = r#"
        create queue intake kind basic mode persistent
        create queue enriched kind basic mode persistent
        create queue report kind basic mode persistent
        create property lane as xs:integer inherited
        create slicing lanes on lane
        create rule enrich for intake
          if (//job) then
            do enqueue <e n="{//job/@n}"><w>{string(//job/@w)}</w></e> into enriched
              with lane value ((xs:integer(//job/@n) * 3 + 1) mod 5)
        create rule tally for lanes
          if (qs:message()/e) then
            do enqueue <t lane="{qs:slicekey()}" n="{count(qs:slice())}"
                          s="{sum(qs:slice()//w)}" hot="{count(qs:slice()//w[. > 5])}"/>
              into report
    "#;
    let inc: ShardedServer = Server::builder()
        .program(program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .shards(2)
        .build()
        .unwrap();
    let single = build(program);
    let h = Harness::new("rekeyed-lanes", &single);
    for i in 0..40usize {
        let xml = format!("<job n='{i}' w='{}'/>", i % 9);
        let props = vec![("lane".to_string(), Atomic::Int((i % 5) as i64))];
        inc.enqueue_external_with_props("intake", &xml, &props)
            .unwrap();
        inc.run_until_idle().unwrap();
        h.enqueue("intake", &xml, &props);
        h.run();
    }
    let queues = ["enriched", "report"];
    assert_eq!(
        sorted_bodies(&queues, |q| inc.queue_bodies(q).unwrap()),
        sorted_bodies(&queues, |q| single.queue_bodies(q).unwrap()),
        "2 shards diverged from one checked server"
    );
    let text = inc.metrics_text();
    assert!(
        sample(&text, "demaq_engine_shard_forwards_total") > 0.0,
        "no member crossed shards"
    );
    assert!(sample(&text, "demaq_core_agg_deltas_total") > 0.0);
}

/// Drop + reopen: cells are cold after the restart, narrowed slices carry
/// live base cells through the checkpoint, and the first reads rebuild
/// from base + reloaded members to exactly a full-history rescan's
/// answers.
#[test]
fn reopen_with_cold_cells_and_live_base_cells_matches_rescan() {
    let dir = tempfile::TempDir::new().unwrap();
    let open = || {
        Server::builder()
            .program(TELEMETRY)
            .dir(dir.path())
            .sync_policy(SyncPolicy::Batch)
            .build()
            .unwrap()
    };
    let feed = |h: &Harness, from: u32| {
        for i in from..from + 12 {
            h.feed("intake", &reading(i));
        }
    };
    let history = {
        let inc = open();
        let h = Harness::new("reopen", &inc);
        feed(&h, 0);
        h.maintenance();
        feed(&h, 12);
        assert!(metric(&inc, "demaq_engine_retention_released_total") > 0);
        h.history()
    };
    let inc = open();
    let h = Harness::new("reopened", &inc).with_history(history);
    feed(&h, 24);
    assert!(
        metric(&inc, "demaq_core_agg_rebuilds_total") > 0,
        "cells start cold"
    );
}

// ---- crash recovery -----------------------------------------------------

const ACK_FILE: &str = "acks.txt";

const CRASH_PROGRAM: &str = r#"
    create queue intake kind basic mode persistent
    create queue report kind basic mode persistent
    create property device as xs:string fixed queue intake value //reading/@dev
    create slicing byDevice on device
    create rule stats for byDevice
      if (qs:message()//reading) then
        do enqueue <stat dev="{qs:slicekey()}" n="{count(qs:slice())}"
                         total="{sum(qs:slice()//v)}"/> into report
"#;

fn crash_server(root: &Path) -> Server {
    Server::builder()
        .program(CRASH_PROGRAM)
        .dir(root)
        .sync_policy(SyncPolicy::Always)
        .build()
        .unwrap()
}

/// Child body: feed keyed readings with fsync-always durability, acking
/// each id after the commit returns, while a drain thread keeps the
/// aggregate cells hot — so the SIGKILL lands with warm cells that the
/// recovered process must NOT trust.
#[test]
#[ignore = "crash-harness child body; only meaningful when re-invoked by the parent test"]
fn aggregate_crash_child_body() {
    let Ok(dir) = std::env::var("DEMAQ_AGG_CRASH_DIR") else {
        return;
    };
    let root = std::path::PathBuf::from(dir);
    let server = crash_server(&root);
    let acks = std::sync::Mutex::new(
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(root.join(ACK_FILE))
            .unwrap(),
    );
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0u64.. {
                let xml = format!("<reading dev='d{}'><v>{}</v></reading>", i % 5, i % 13);
                let id = server.enqueue_external("intake", &xml).unwrap();
                let mut f = acks.lock().unwrap();
                f.write_all(format!("{} {xml}\n", id.0).as_bytes()).unwrap();
                f.flush().unwrap();
            }
        });
        s.spawn(|| loop {
            server.run_until_idle().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        });
    });
}

/// SIGKILL the child mid-workload and recover: acked messages must be
/// present, the oracle checks every step of the finished cascade against
/// a rescan, and the server must have *rebuilt* its cells from the
/// recovered store (rebuild counter, not a hit).
#[test]
fn crash_recovery_rebuilds_cells_and_matches_rescan() {
    let exe = std::env::current_exe().unwrap();
    let mut total_acked = 0usize;
    for round in 0..2u64 {
        let dir = tempfile::TempDir::new().unwrap();
        let mut child = Command::new(&exe)
            .args([
                "aggregate_crash_child_body",
                "--exact",
                "--ignored",
                "--nocapture",
            ])
            .env("DEMAQ_AGG_CRASH_DIR", dir.path())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        std::thread::sleep(Duration::from_millis(200 + 100 * round));
        child.kill().unwrap();
        let _ = child.wait();

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

        let inc = crash_server(dir.path());
        let present: BTreeMap<u64, String> = inc
            .queue_messages("intake")
            .unwrap()
            .iter()
            .map(|m| (m.id.0, m.payload.to_string()))
            .collect();
        for (id, xml) in &acked {
            assert_eq!(
                present.get(id),
                Some(xml),
                "round {round}: acked message {id} lost or altered"
            );
        }
        let h = Harness::new(format!("recovered round {round}"), &inc);
        h.run();
        if !acked.is_empty() {
            // Cells were rebuilt from the store, not carried over: the
            // first post-restart read of each grown slice cannot be a
            // same-version hit. The child may have processed every
            // reading before the kill, so a probe into d0's slice (the
            // first acked reading's) makes sure such a read happens.
            h.feed("intake", "<reading dev='d0'><v>0</v></reading>");
            assert!(
                metric(&inc, "demaq_core_agg_rebuilds_total") > 0,
                "round {round}: recovery must rebuild cells from the store"
            );
        }
        total_acked += acked.len();
    }
    assert!(
        total_acked > 0,
        "crash harness never acked a single enqueue"
    );
}
