//! Differential tests for static retention narrowing.
//!
//! The liveness plan lets GC fold processed slice members into persisted
//! aggregate base cells, or keep only the proven newest-k suffix. Every
//! scenario runs on one server stepped through the shared oracle in
//! `tests/oracle`, which keeps the members each GC releases and predicts
//! every step with the reference evaluator over the whole slice lifetime
//! — what a server that never narrowed would compute. Output queue bodies,
//! aggregate values that span purged history, and routed errors must all
//! be what that full history gives; only the store footprint may shrink,
//! and it must. Scenarios cover an aggregate-only telemetry fan-in, a
//! bounded-suffix (`qs:slice()[last()]`) session monitor, a randomized
//! enqueue/reset/GC interleaving corpus, a clean restart (base cells must
//! round-trip through the checkpoint), and SIGKILL crash recovery.

mod oracle;

use demaq::Server;
use demaq_store::store::SyncPolicy;
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
    let start = xml
        .find(&pat)
        .unwrap_or_else(|| panic!("no {name} in {xml}"))
        + pat.len();
    xml[start..][..xml[start..].find('"').unwrap()].to_string()
}

/// Aggregate-only telemetry fan-in: every slice read is an
/// incrementally-maintained aggregate, so GC may fold processed members
/// into base cells. Counts and sums must keep spanning the purged
/// history, and the narrowed store must actually get smaller.
#[test]
fn aggregate_only_twins_match_and_footprint_shrinks() {
    let nar = build(TELEMETRY);
    let h = Harness::new("telemetry", &nar);
    let feed = |lo: u32, hi: u32| {
        for i in lo..hi {
            h.feed(
                "intake",
                &format!("<reading dev='d{}'><v>{}</v></reading>", i % 3, i % 7),
            );
        }
    };
    // Phase A, then GC: it folds the processed intake members into
    // per-device base cells.
    feed(0, 21);
    h.gc();
    assert_eq!(
        metric(&nar, "demaq_engine_retention_released_total"),
        21,
        "narrowing must release every processed member"
    );
    // Phase B: post-purge aggregates must still count the folded history.
    feed(21, 33);

    // The last d0 stat spans all 11 d0 readings even though the narrowed
    // intake no longer holds them all.
    let last_d0 = nar
        .queue_bodies("report")
        .unwrap()
        .into_iter()
        .rfind(|b| b.contains("dev=\"d0\""))
        .expect("d0 stats");
    assert_eq!(attr(&last_d0, "n"), "11");

    // Only phase B's readings are still resident.
    assert_eq!(nar.queue_messages("intake").unwrap().len(), 12);
    assert_eq!(h.released(), 21);
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
    let nar = build(program);
    let h = Harness::new("suffix", &nar);
    let mut feed: Vec<String> = Vec::new();
    for s in 0..3u32 {
        for i in 0..6u32 {
            feed.push(format!("<e s='s{s}' kind='k{i}'/>"));
        }
    }
    feed.push("<e s='s1' kind='close'/>".to_string());
    for (i, xml) in feed.iter().enumerate() {
        h.feed("events", xml);
        if i == 11 {
            h.gc();
        }
    }
    assert_eq!(
        nar.queue_bodies("out").unwrap(),
        [r#"<bye s="s1"/>"#],
        "exactly one close fired"
    );
    // Two sessions of six processed events each at the GC: all but the
    // newest of each go.
    assert_eq!(metric(&nar, "demaq_engine_retention_released_total"), 10);
    assert_eq!(nar.queue_messages("events").unwrap().len(), feed.len() - 10);
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
        let nar = build(program);
        let h = Harness::new(format!("corpus seed {seed}"), &nar);
        let mut rng = StdRng::seed_from_u64(0x4E7_0000 + seed);
        for _ in 0..120 {
            let sess = rng.gen_range(0..5);
            let xml = match rng.gen_range(0..8) {
                0 => format!("<bye s='s{sess}'/>"),
                _ => format!("<ev s='s{sess}'><w>{}</w></ev>", rng.gen_range(0..50)),
            };
            h.feed("alpha", &xml);
            if rng.gen_bool(0.15) {
                h.gc();
            }
        }
        assert!(
            metric(&nar, "demaq_engine_retention_released_total") > 0,
            "seed {seed}: nothing was narrowed"
        );
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

fn crash_server(root: &Path) -> Server {
    Server::builder()
        .program(TELEMETRY)
        .dir(root)
        .sync_policy(SyncPolicy::Always)
        .build()
        .unwrap()
}

/// Child body: feed keyed readings with fsync-always durability from one
/// thread, logging each reading before its enqueue (`try`) and again
/// after the commit returns (`ack`), while a drain thread interleaves
/// processing with `maintenance()` — so the SIGKILL lands between
/// fold/purge cycles with checkpoints that carry base cells.
#[test]
#[ignore = "crash-harness child body; only meaningful when re-invoked by the parent test"]
fn retention_crash_child_body() {
    let Ok(dir) = std::env::var("DEMAQ_RET_CRASH_DIR") else {
        return;
    };
    let root = std::path::PathBuf::from(dir);
    let server = crash_server(&root);
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(root.join(ACK_FILE))
        .unwrap();
    let mut note = move |kind: &str, dev: u64, v: u64| {
        log.write_all(format!("{kind} d{dev} {v}\n").as_bytes())
            .unwrap();
        log.flush().unwrap();
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0u64.. {
                let (dev, v) = (i % 4, i % 13);
                note("try", dev, v);
                let xml = format!("<reading dev='d{dev}'><v>{v}</v></reading>");
                server.enqueue_external("intake", &xml).unwrap();
                note("ack", dev, v);
            }
        });
        s.spawn(|| loop {
            server.run_until_idle().unwrap();
            server.maintenance().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        });
    });
}

/// Count and value sum of the readings one device's log lines name.
#[derive(Default)]
struct Tally {
    n: u64,
    total: u64,
}

/// SIGKILL the child mid-workload and recover: a fresh probe reading per
/// device must see exactly the readings that committed, whether each
/// survived as a resident payload or only inside a checkpointed base
/// cell. Every acked reading committed and every committed one was tried
/// first, so the probe's count and sum sit between the acked and the
/// tried readings (plus the probe itself, which carries 0). With one
/// enqueue thread at most one reading is tried but not acked, so every
/// other device's count is exact, and a recovery that lost a folded
/// member or counted one twice fails.
/// `DEMAQ_CRASH_ITERS` sets the number of rounds (default 2).
#[test]
fn crash_recovery_preserves_folded_history() {
    let rounds: u64 = std::env::var("DEMAQ_CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let exe = std::env::current_exe().unwrap();
    let mut total_acked = 0u64;
    for round in 0..rounds {
        let dir = tempfile::TempDir::new().unwrap();
        let mut child = Command::new(&exe)
            .args([
                "retention_crash_child_body",
                "--exact",
                "--ignored",
                "--nocapture",
            ])
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
        let mut tried: BTreeMap<String, Tally> = BTreeMap::new();
        let mut acked: BTreeMap<String, Tally> = BTreeMap::new();
        for line in complete.lines() {
            let mut parts = line.split(' ');
            let (Some(kind), Some(dev), Some(v)) = (parts.next(), parts.next(), parts.next())
            else {
                panic!("round {round}: malformed log line {line:?}");
            };
            let side = match kind {
                "try" => &mut tried,
                "ack" => &mut acked,
                _ => panic!("round {round}: malformed log line {line:?}"),
            };
            let t = side.entry(dev.to_string()).or_default();
            t.n += 1;
            t.total += v.parse::<u64>().unwrap();
        }
        let in_flight =
            tried.values().map(|t| t.n).sum::<u64>() - acked.values().map(|t| t.n).sum::<u64>();
        assert!(
            in_flight <= 1,
            "round {round}: {in_flight} readings tried but not acked"
        );

        let nar = crash_server(dir.path());
        nar.run_until_idle().unwrap();

        // One probe per device: its stat counts every committed reading
        // plus itself, no matter how much of the history was folded away.
        for (dev, hi) in &tried {
            let lo = acked.get(dev).map_or((0, 0), |t| (t.n, t.total));
            let probe = format!("<reading dev='{dev}'><v>0</v></reading>");
            nar.enqueue_external("intake", &probe).unwrap();
            nar.run_until_idle().unwrap();
            let last = nar
                .queue_bodies("report")
                .unwrap()
                .into_iter()
                .rfind(|b| b.contains(&format!("dev=\"{dev}\"")))
                .unwrap_or_else(|| panic!("round {round}: no stat for {dev}"));
            let n: u64 = attr(&last, "n").parse().unwrap();
            let total: u64 = attr(&last, "total").parse().unwrap();
            assert!(
                (lo.0 + 1..=hi.n + 1).contains(&n),
                "round {round} {dev}: probe saw {n} readings; {} acked, {} tried",
                lo.0,
                hi.n
            );
            assert!(
                (lo.1..=hi.total).contains(&total),
                "round {round} {dev}: probe summed {total}; acked {}, tried {}",
                lo.1,
                hi.total
            );
            total_acked += lo.0;
        }
    }
    assert!(
        total_acked > 0,
        "crash harness never acked a single enqueue"
    );
}
