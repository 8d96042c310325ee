//! Differential twin tests for static retention narrowing.
//!
//! Every scenario runs twice on otherwise identical servers — once with
//! `static_retention(true)` (the default: the liveness plan lets GC fold
//! processed slice members into persisted aggregate base cells or keep
//! only the proven newest-k suffix) and once with
//! `static_retention(false)` (full retention, the behavior before the
//! pass existed) — and everything observable must match exactly: the
//! output queue bodies, attached property values, aggregate values that
//! span purged history, routed errors, and the engine's evaluation
//! stats. Only the store footprint may differ, and it must actually
//! shrink on the narrowed twin. Scenarios cover an aggregate-only
//! telemetry fan-in, a bounded-suffix (`qs:slice()[last()]`) session
//! monitor, a randomized enqueue/reset/GC interleaving corpus, a clean
//! restart (base cells must round-trip through the checkpoint), and
//! SIGKILL crash recovery.

use demaq::Server;
use demaq_store::store::SyncPolicy;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

fn build(program: &str, narrowed: bool) -> Server {
    Server::builder()
        .program(program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .static_retention(narrowed)
        .build()
        .unwrap()
}

/// Order-insensitive behavioral fingerprint: per queue, the sorted
/// multiset of `(payload, properties)` pairs.
fn fingerprint(s: &Server, queues: &[&str]) -> BTreeMap<String, Vec<(String, Vec<String>)>> {
    queues
        .iter()
        .map(|q| {
            let mut v: Vec<(String, Vec<String>)> = s
                .queue_messages(q)
                .unwrap()
                .iter()
                .map(|m| {
                    let mut props: Vec<String> = m
                        .props
                        .iter()
                        .map(|(n, p)| format!("{n}={p:?}"))
                        .collect();
                    props.sort();
                    (m.payload.to_string(), props)
                })
                .collect();
            v.sort();
            (q.to_string(), v)
        })
        .collect()
}

fn metric(s: &Server, name: &str) -> u64 {
    s.metrics().registry.counter_total(name)
}

fn assert_same_behavior(name: &str, nar: &Server, full: &Server, queues: &[&str]) {
    assert_eq!(
        fingerprint(nar, queues),
        fingerprint(full, queues),
        "{name}: observable queue bodies or property values diverged"
    );
    let (sn, sf) = (nar.stats(), full.stats());
    assert_eq!(sn.processed, sf.processed, "{name}: processed diverged");
    assert_eq!(
        sn.rules_evaluated, sf.rules_evaluated,
        "{name}: rules_evaluated diverged"
    );
    assert_eq!(
        sn.errors_routed, sf.errors_routed,
        "{name}: errors_routed diverged"
    );
    // The full-retention twin must never release anything.
    assert_eq!(
        metric(full, "demaq_engine_retention_released_total"),
        0,
        "{name}: full-retention twin released members"
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
                         total="{sum(qs:slice()//v)}"/> into report
"#;

/// Pull `attr="..."` out of a serialized stat element.
fn attr(xml: &str, name: &str) -> String {
    let pat = format!("{name}=\"");
    let start = xml.find(&pat).unwrap_or_else(|| panic!("no {name} in {xml}")) + pat.len();
    xml[start..][..xml[start..].find('"').unwrap()].to_string()
}

/// Aggregate-only telemetry fan-in: every slice read is an
/// incrementally-maintained aggregate, so GC may fold processed members
/// into base cells. Counts and sums must keep spanning the purged
/// history, and the narrowed store must actually get smaller.
#[test]
fn aggregate_only_twins_match_and_footprint_shrinks() {
    let nar = build(TELEMETRY, true);
    let full = build(TELEMETRY, false);
    let feed = |lo: u32, hi: u32| -> Vec<String> {
        (lo..hi)
            .map(|i| format!("<reading dev='d{}'><v>{}</v></reading>", i % 3, i % 7))
            .collect()
    };
    // Phase A, then GC on both twins: the narrowed one folds the
    // processed intake members into per-device base cells.
    for xml in feed(0, 21) {
        nar.enqueue_external("intake", &xml).unwrap();
        full.enqueue_external("intake", &xml).unwrap();
        nar.run_until_idle().unwrap();
        full.run_until_idle().unwrap();
    }
    nar.gc().unwrap();
    full.gc().unwrap();
    assert!(
        metric(&nar, "demaq_engine_retention_released_total") > 0,
        "narrowing never released a member"
    );
    // Phase B: post-purge aggregates must still count the folded history.
    for xml in feed(21, 33) {
        nar.enqueue_external("intake", &xml).unwrap();
        full.enqueue_external("intake", &xml).unwrap();
        nar.run_until_idle().unwrap();
        full.run_until_idle().unwrap();
    }
    assert_same_behavior("telemetry", &nar, &full, &["report"]);

    // The last d0 stat spans all 11 d0 readings even though the narrowed
    // intake no longer holds them all.
    let last_d0 = nar
        .queue_bodies("report")
        .unwrap()
        .into_iter()
        .filter(|b| b.contains("dev=\"d0\""))
        .next_back()
        .expect("d0 stats");
    assert_eq!(attr(&last_d0, "n"), "11");

    let (ni, fi) = (
        nar.queue_messages("intake").unwrap().len(),
        full.queue_messages("intake").unwrap().len(),
    );
    assert!(
        ni < fi,
        "narrowed intake ({ni}) should hold fewer members than full retention ({fi})"
    );
    assert!(
        nar.store().resident_payload_bytes() < full.store().resident_payload_bytes(),
        "narrowed twin should be resident-byte smaller"
    );
}

/// Bounded-suffix monitor: rules only ever look at `qs:slice()[last()]`,
/// so everything older than the newest member is purgeable once
/// processed. The visible close-out decisions must not change.
#[test]
fn bounded_suffix_twins_match_and_release_old_members() {
    let program = r#"
        create queue events kind basic mode persistent
        create queue out kind basic mode persistent
        create property sess as xs:string fixed queue events value //e/@s
        create slicing bySession on sess
        create rule latest for bySession
          if (qs:slice()[last()]//e/@kind = "close") then
            do enqueue <bye s="{qs:slicekey()}"/> into out
    "#;
    let nar = build(program, true);
    let full = build(program, false);
    let mut feed: Vec<String> = Vec::new();
    for s in 0..3u32 {
        for i in 0..6u32 {
            feed.push(format!("<e s='s{s}' kind='k{i}'/>"));
        }
    }
    feed.push("<e s='s1' kind='close'/>".to_string());
    for (i, xml) in feed.iter().enumerate() {
        nar.enqueue_external("events", xml).unwrap();
        full.enqueue_external("events", xml).unwrap();
        nar.run_until_idle().unwrap();
        full.run_until_idle().unwrap();
        if i == 11 {
            nar.gc().unwrap();
            full.gc().unwrap();
        }
    }
    assert_same_behavior("suffix", &nar, &full, &["out"]);
    assert_eq!(
        fingerprint(&full, &["out"])["out"].len(),
        1,
        "exactly one close fired"
    );
    assert!(
        metric(&nar, "demaq_engine_retention_released_total") > 0,
        "suffix narrowing never released a member"
    );
    assert!(
        nar.queue_messages("events").unwrap().len() < full.queue_messages("events").unwrap().len(),
        "narrowed events queue should shed pre-suffix members"
    );
}

/// Randomized interleaving corpus: keyed aggregate reads, explicit
/// resets, and GC in a deterministic pseudo-random order. Resets and
/// narrowing interact (a reset clears the base cells along with the
/// membership), and the visible tallies must never notice.
#[test]
fn randomized_interleaving_with_resets() {
    let program = r#"
        create queue alpha kind basic mode persistent
        create queue out kind basic mode persistent
        create property sess as xs:string fixed queue alpha value //@s
        create slicing bySess on sess
        create rule closeSess for bySess
          if (qs:message()/bye) then do reset
        create rule tallySess for bySess
          if (qs:message()/ev) then
            do enqueue <tally s="{qs:slicekey()}" n="{count(qs:slice())}"
                              sum="{sum(qs:slice()//w)}"/> into out
    "#;
    for seed in 0..4u64 {
        let nar = build(program, true);
        let full = build(program, false);
        let mut rng = StdRng::seed_from_u64(0x4E7_0000 + seed);
        for step in 0..120u32 {
            let sess = rng.gen_range(0..5);
            let xml = match rng.gen_range(0..8) {
                0 => format!("<bye s='s{sess}'/>"),
                _ => format!("<ev s='s{sess}'><w>{}</w></ev>", rng.gen_range(0..50)),
            };
            let a = nar.enqueue_external("alpha", &xml);
            let b = full.enqueue_external("alpha", &xml);
            assert_eq!(a.is_ok(), b.is_ok(), "seed {seed} step {step}");
            nar.run_until_idle().unwrap();
            full.run_until_idle().unwrap();
            if rng.gen_bool(0.15) {
                // Purge counts legitimately differ (that is the point);
                // only observable behavior must not.
                nar.gc().unwrap();
                full.gc().unwrap();
            }
        }
        assert_same_behavior(&format!("corpus seed {seed}"), &nar, &full, &["out"]);
    }
}

/// Clean restart: base cells travel through the checkpoint. After
/// maintenance folds and purges members, a reopened server must answer
/// aggregates spanning the purged history from the recovered base.
#[test]
fn narrowed_aggregates_survive_clean_restart() {
    let dir = tempfile::TempDir::new().unwrap();
    let mk = || {
        Server::builder()
            .program(TELEMETRY)
            .dir(dir.path())
            .sync_policy(SyncPolicy::Always)
            .build()
            .unwrap()
    };
    {
        let server = mk();
        for i in 0..10u32 {
            server
                .enqueue_external("intake", &format!("<reading dev='d0'><v>{i}</v></reading>"))
                .unwrap();
        }
        server.run_until_idle().unwrap();
        server.maintenance().unwrap();
        assert!(
            server.queue_messages("intake").unwrap().len() < 10,
            "maintenance should have folded processed members away"
        );
    }
    let server = mk();
    server
        .enqueue_external("intake", "<reading dev='d0'><v>100</v></reading>")
        .unwrap();
    server.run_until_idle().unwrap();
    let last = server
        .queue_bodies("report")
        .unwrap()
        .into_iter()
        .next_back()
        .expect("post-restart stat");
    assert_eq!(
        attr(&last, "n"),
        "11",
        "recovered base cell must count the purged members: {last}"
    );
    // sum(0..10) + 100
    assert_eq!(attr(&last, "total"), "145", "{last}");
}

// ---- crash recovery -----------------------------------------------------

const ACK_FILE: &str = "acks.txt";

fn crash_server(root: &Path, narrowed: bool) -> Server {
    Server::builder()
        .program(TELEMETRY)
        .dir(root)
        .sync_policy(SyncPolicy::Always)
        .static_retention(narrowed)
        .build()
        .unwrap()
}

/// Child body: feed keyed readings with fsync-always durability, acking
/// each id after the commit returns, while a drain thread interleaves
/// processing with `maintenance()` — so the SIGKILL lands between
/// fold/purge cycles with checkpoints that carry base cells.
#[test]
#[ignore = "crash-harness child body; only meaningful when re-invoked by the parent test"]
fn retention_crash_child_body() {
    let Ok(dir) = std::env::var("DEMAQ_RET_CRASH_DIR") else {
        return;
    };
    let root = std::path::PathBuf::from(dir);
    let server = crash_server(&root, true);
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
                let xml = format!("<reading dev='d{}'><v>{}</v></reading>", i % 4, i % 13);
                let id = server.enqueue_external("intake", &xml).unwrap();
                let mut f = acks.lock().unwrap();
                f.write_all(format!("{} d{}\n", id.0, i % 4).as_bytes()).unwrap();
                f.flush().unwrap();
            }
        });
        s.spawn(|| loop {
            server.run_until_idle().unwrap();
            server.maintenance().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        });
    });
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

/// SIGKILL the child mid-workload, clone the surviving bytes, and
/// recover one copy narrowed and one with full retention: the finished
/// cascades must agree, and a fresh probe reading per device must see a
/// count covering every acked reading — whether the member survived as
/// a resident payload or only inside a checkpointed base cell.
/// `DEMAQ_CRASH_ITERS` sets the number of rounds (default 2).
#[test]
fn crash_recovery_preserves_folded_history() {
    let rounds: u64 = std::env::var("DEMAQ_CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let exe = std::env::current_exe().unwrap();
    let mut total_acked = 0usize;
    for round in 0..rounds {
        let dir = tempfile::TempDir::new().unwrap();
        let mut child = Command::new(&exe)
            .args(["retention_crash_child_body", "--exact", "--ignored", "--nocapture"])
            .env("DEMAQ_RET_CRASH_DIR", dir.path())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        std::thread::sleep(Duration::from_millis(250 + 100 * (round % 4)));
        child.kill().unwrap();
        let _ = child.wait();

        let ack_text = std::fs::read_to_string(dir.path().join(ACK_FILE)).unwrap_or_default();
        let complete = match ack_text.rfind('\n') {
            Some(end) => &ack_text[..end],
            None => "",
        };
        let mut acked_per_dev: BTreeMap<String, u64> = BTreeMap::new();
        for line in complete.lines() {
            if let Some((_, dev)) = line.split_once(' ') {
                *acked_per_dev.entry(dev.to_string()).or_default() += 1;
            }
        }

        // Twin recoveries from identical surviving bytes.
        let clone = tempfile::TempDir::new().unwrap();
        copy_dir(dir.path(), clone.path());
        let nar = crash_server(dir.path(), true);
        let full = crash_server(clone.path(), false);
        nar.run_until_idle().unwrap();
        full.run_until_idle().unwrap();
        assert_eq!(
            fingerprint(&nar, &["report"]),
            fingerprint(&full, &["report"]),
            "round {round}: recovered twins diverged"
        );

        // One probe per device: its stat counts every acked reading plus
        // itself, no matter how much of the history was folded away.
        for (dev, acked) in &acked_per_dev {
            let probe = format!("<reading dev='{dev}'><v>0</v></reading>");
            nar.enqueue_external("intake", &probe).unwrap();
            full.enqueue_external("intake", &probe).unwrap();
            nar.run_until_idle().unwrap();
            full.run_until_idle().unwrap();
            let last = |s: &Server| {
                s.queue_bodies("report")
                    .unwrap()
                    .into_iter()
                    .filter(|b| b.contains(&format!("dev=\"{dev}\"")))
                    .next_back()
                    .unwrap_or_else(|| panic!("round {round}: no stat for {dev}"))
            };
            let (ln, lf) = (last(&nar), last(&full));
            assert_eq!(
                attr(&ln, "n"),
                attr(&lf, "n"),
                "round {round} {dev}: probe counts diverged"
            );
            let n: u64 = attr(&ln, "n").parse().unwrap();
            assert!(
                n >= acked + 1,
                "round {round} {dev}: probe saw {n} readings, {acked} were acked"
            );
            total_acked += *acked as usize;
        }
    }
    assert!(total_acked > 0, "crash harness never acked a single enqueue");
}
