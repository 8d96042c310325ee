//! Cache coherence tests: the document cache and the materialized
//! slice member sequences must never surface stale state to a rule
//! evaluation — across GC purges, slice resets (epoch bumps), aborted
//! transactions, and concurrent writers (ISSUE 3 tentpole correctness
//! constraint: invalidation is a side effect of commit, never of
//! evaluation-time heuristics).

use demaq::Server;
use demaq_store::PropValue;

fn server(program: &str) -> Server {
    Server::builder()
        .program(program)
        .in_memory()
        .build()
        .unwrap()
}

/// Join program used by several tests: members accumulate in one slice,
/// and every processing materializes the member sequence.
const JOIN: &str = r#"
    create queue parts kind basic mode persistent
    create queue joined kind basic mode persistent
    create property rid as xs:string fixed queue parts value //@rid
    create slicing byRid on rid
    create rule join for byRid
      if (count(qs:slice()) >= 3) then
        do enqueue <complete>{qs:slicekey()}</complete> into joined
"#;

/// Reset one slice through a store transaction (the epoch bump the engine
/// performs for `do reset`), committing immediately.
fn reset_slice(s: &Server, slicing: &str, key: &str) {
    let store = s.store();
    let txn = store.begin();
    store
        .slice_reset(txn, slicing, PropValue::Str(key.into()))
        .unwrap();
    store.commit(txn).unwrap();
}

#[test]
fn slice_seq_cache_sees_appends_and_reset() {
    let s = server(JOIN);
    // Three arrivals: the cached member sequence must grow with each
    // commit (an add grows the length), firing the join exactly at 3.
    s.enqueue_external("parts", r#"<p rid="A" n="1"/>"#)
        .unwrap();
    s.run_until_idle().unwrap();
    assert!(s.queue_bodies("joined").unwrap().is_empty());
    s.enqueue_external("parts", r#"<p rid="A" n="2"/>"#)
        .unwrap();
    s.run_until_idle().unwrap();
    assert!(
        s.queue_bodies("joined").unwrap().is_empty(),
        "2 members < 3: a stale over-full cached sequence would fire early"
    );
    s.enqueue_external("parts", r#"<p rid="A" n="3"/>"#)
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("joined").unwrap(),
        ["<complete>A</complete>"]
    );

    // Reset the slice (epoch bump → new token): a stale cached
    // 3-member sequence must not resurrect the join on the next arrival.
    reset_slice(&s, "byRid", "A");
    let key = PropValue::Str("A".into());
    assert!(s.store().slice_members("byRid", &key).is_empty());
    s.enqueue_external("parts", r#"<p rid="A" n="4"/>"#)
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("joined").unwrap().len(),
        1,
        "post-reset slice restarts from one member; a stale cached \
         sequence would have re-fired the join"
    );
    assert_eq!(s.store().slice_members("byRid", &key).len(), 1);
}

#[test]
fn gc_purge_invalidates_cached_members() {
    let s = server(JOIN);
    for n in 1..=3 {
        s.enqueue_external("parts", &format!(r#"<p rid="B" n="{n}"/>"#))
            .unwrap();
        s.run_until_idle().unwrap();
    }
    assert_eq!(s.queue_bodies("joined").unwrap().len(), 1);
    // After a reset everything is purgeable; GC must drop the cached
    // documents and the member sequences pinning them.
    reset_slice(&s, "byRid", "B");
    let purged = s.gc().unwrap();
    assert!(purged >= 3, "parts released by the reset, got {purged}");
    // New members after the purge evaluate against fresh state only.
    // (GC also collected the processed `joined` message, so any entry
    // appearing below would be a spurious re-fire off stale cache state.)
    for n in 4..=5 {
        s.enqueue_external("parts", &format!(r#"<p rid="B" n="{n}"/>"#))
            .unwrap();
        s.run_until_idle().unwrap();
    }
    assert_eq!(
        s.queue_bodies("joined").unwrap().len(),
        0,
        "2 fresh members < 3: purged members must not count"
    );
    let key = PropValue::Str("B".into());
    assert_eq!(s.store().slice_members("byRid", &key).len(), 2);
}

/// Positional program: the rule reads the slice's member sequence (not
/// just its length, which the aggregate cells answer on their own).
const FIRST: &str = r#"
    create queue parts kind basic mode persistent
    create queue firsts kind basic mode persistent
    create property rid as xs:string fixed queue parts value //@rid
    create slicing byRid on rid
    create rule first for byRid
      if (count(qs:slice()) >= 2) then
        do enqueue <first>{string(qs:slice()[1]/p/@n)}</first> into firsts
"#;

#[test]
fn reset_then_refill_to_the_same_length_reads_the_new_lifetime() {
    let s = server(FIRST);
    for n in 1..=2 {
        s.enqueue_external("parts", &format!(r#"<p rid="A" n="{n}"/>"#))
            .unwrap();
    }
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("firsts").unwrap(), ["<first>1</first>"; 2]);
    // A new lifetime refilled to the cached length before any read: the
    // cell's length matches, only its token tells the lifetimes apart.
    reset_slice(&s, "byRid", "A");
    for n in 3..=4 {
        s.enqueue_external("parts", &format!(r#"<p rid="A" n="{n}"/>"#))
            .unwrap();
    }
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("firsts").unwrap()[2..],
        ["<first>3</first>"; 2],
        "a stale cached sequence would still start at member 1"
    );
}

#[test]
fn gc_drops_member_sequences_holding_purged_documents() {
    let s = server(FIRST);
    for rid in ["A", "B"] {
        for n in 1..=2 {
            s.enqueue_external("parts", &format!(r#"<p rid="{rid}" n="{n}"/>"#))
                .unwrap();
        }
    }
    s.run_until_idle().unwrap();
    assert_eq!(s.cached_slice_sequences(), 2);
    // The reset releases A's members; GC purges them, and with them the
    // cell that still holds their documents. B's cell is current.
    reset_slice(&s, "byRid", "A");
    let purged = s.gc().unwrap();
    assert!(purged >= 2, "A's members are purged, got {purged}");
    assert_eq!(s.cached_slice_sequences(), 1, "only B's cell survives");
    s.enqueue_external("parts", r#"<p rid="B" n="3"/>"#)
        .unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(s.queue_bodies("firsts").unwrap(), ["<first>1</first>"]);
}

#[test]
fn aborted_transaction_leaves_no_cache_trace() {
    // The rule's first action succeeds, the second violates the target
    // schema → the whole transaction aborts. Neither the enqueued
    // message's document nor its slice membership may leak into any
    // cache: a later evaluation must see the pre-abort state.
    let s = server(
        r#"
        set errorqueue sys
        create schema strict {
            root order
            element order text
        }
        create queue src kind basic mode persistent
        create queue staged kind basic mode persistent
        create queue guarded kind basic mode persistent schema strict
        create queue sys kind basic mode persistent
        create property gid as xs:string fixed queue staged value //@gid
        create slicing byGid on gid
        create rule failing for src
          if (//go) then (
            do enqueue <m gid="G"/> into staged,
            do enqueue <notAnOrder/> into guarded
          )
        create rule count for byGid
          if (count(qs:slice()) >= 1) then
            do enqueue <seen>{count(qs:slice())}</seen> into sys
        "#,
    );
    s.enqueue_external("src", "<go/>").unwrap();
    s.run_until_idle().unwrap();
    // The abort must have kept `staged` empty and the slice memberless.
    assert!(s.queue_bodies("staged").unwrap().is_empty());
    let key = PropValue::Str("G".into());
    assert!(
        s.store().slice_members("byGid", &key).is_empty(),
        "aborted slice_add must not be visible"
    );
    // One error was routed for the failing rule; no <seen> from the
    // slicing rule (it never had a committed member to fire on).
    let sys = s.queue_bodies("sys").unwrap();
    assert_eq!(sys.len(), 1, "{sys:?}");
    assert!(sys[0].contains("<schemaViolation/>"), "{}", sys[0]);

    // A committed member now fires the slicing rule with count 1 — a
    // leaked cached document/membership from the abort would show 2.
    s.enqueue_external("staged", r#"<m gid="G"/>"#).unwrap();
    s.run_until_idle().unwrap();
    let sys = s.queue_bodies("sys").unwrap();
    assert!(
        sys.iter().any(|b| b == "<seen>1</seen>"),
        "evaluation must see exactly the committed member: {sys:?}"
    );
    assert!(!sys.iter().any(|b| b.contains("<seen>2</seen>")));
}

#[test]
fn rule_level_error_queue_beats_queue_level() {
    // Regression for the discarded rule-level error-queue computation in
    // try_process (`let _ = eq;`): precedence is rule > queue > system
    // (paper Sec. 3.6), resolved against the rules that actually ran.
    let s = server(
        r#"
        set errorqueue sys
        create queue q kind basic mode persistent errorqueue qeq
        create queue qeq kind basic mode persistent
        create queue req kind basic mode persistent
        create queue sys kind basic mode persistent
        create rule failing for q errorqueue req
          if (//m) then do enqueue <x>{1 idiv 0}</x> into q
        "#,
    );
    s.enqueue_external("q", "<m/>").unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("req").unwrap().len(),
        1,
        "rule-level errorqueue wins"
    );
    assert!(s.queue_bodies("qeq").unwrap().is_empty());
    assert!(s.queue_bodies("sys").unwrap().is_empty());
}

#[test]
fn slicing_rule_error_routes_through_its_own_error_queue() {
    // A failing slicing rule resolves its error queue from the fired
    // slice rules (not only the queue's own rules, which was all the old
    // dead computation looked at).
    let s = server(
        r#"
        set errorqueue sys
        create queue q kind basic mode persistent
        create queue seq kind basic mode persistent
        create queue sys kind basic mode persistent
        create property k as xs:string fixed queue q value //@k
        create slicing byK on k
        create rule sfail for byK errorqueue seq
          if (qs:slice()) then do enqueue <x>{1 idiv 0}</x> into q
        "#,
    );
    s.enqueue_external("q", r#"<m k="a"/>"#).unwrap();
    s.run_until_idle().unwrap();
    assert_eq!(
        s.queue_bodies("seq").unwrap().len(),
        1,
        "slicing rule's own errorqueue"
    );
    assert!(s.queue_bodies("sys").unwrap().is_empty());
}

#[test]
fn concurrent_writers_and_parallel_readers_stay_coherent() {
    // Writers enqueue members into a handful of slices while parallel
    // workers evaluate slice rules over them. Every message must be
    // processed exactly once and the final member counts must match the
    // writes — no stale cached sequence may hide or duplicate a member.
    let s = std::sync::Arc::new(server(
        r#"
        create queue parts kind basic mode persistent
        create queue watched kind basic mode persistent
        create property rid as xs:string fixed queue parts value //@rid
        create slicing byRid on rid
        create rule watch for byRid
          if (count(qs:slice()) >= 1) then
            do enqueue <w>{qs:slicekey()}</w> into watched
        "#,
    ));
    const WRITERS: usize = 3;
    const PER_WRITER: usize = 40;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let s = std::sync::Arc::clone(&s);
            scope.spawn(move || {
                for n in 0..PER_WRITER {
                    let key = n % 4; // four hot slices
                    s.enqueue_external("parts", &format!(r#"<p rid="{key}" w="{w}" n="{n}"/>"#))
                        .unwrap();
                }
            });
        }
        // Readers drain concurrently with the writers.
        let s2 = std::sync::Arc::clone(&s);
        scope.spawn(move || {
            for _ in 0..8 {
                s2.process_all_parallel(4).unwrap();
            }
        });
    });
    // Drain whatever remained after the concurrent phase.
    s.process_all_parallel(4).unwrap();
    s.run_until_idle().unwrap();

    let total = (WRITERS * PER_WRITER) as u64;
    let stats = s.stats();
    assert!(
        stats.processed >= total,
        "every part processed exactly once (plus watched messages): {} < {total}",
        stats.processed
    );
    for key in 0..4 {
        let k = PropValue::Str(key.to_string());
        assert_eq!(
            s.store().slice_members("byRid", &k).len(),
            WRITERS * PER_WRITER / 4,
            "slice {key} membership matches the writes"
        );
    }
    // The watch rule fired once per part processing.
    assert_eq!(s.queue_bodies("watched").unwrap().len() as u64, total);
}
