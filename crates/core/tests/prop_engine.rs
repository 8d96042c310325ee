//! Property-based tests on engine invariants:
//!
//! * exactly-once processing for arbitrary workloads,
//! * conservation: every enqueue is observable (processed + retained ≥ it),
//! * retention algebra: a message survives GC iff some slice holds it,
//! * parallel processing equals sequential processing (same final state),
//! * restart equivalence: recovery never duplicates or loses results.

use demaq::Server;
use demaq_store::store::SyncPolicy;
use demaq_store::LockGranularity;
use proptest::prelude::*;
use tempfile::TempDir;

const PROGRAM: &str = r#"
    create queue work kind basic mode persistent
    create queue out kind basic mode persistent
    create property grp as xs:string fixed queue work value //@g
    create slicing groups on grp
    create rule classify for work
      if (//job) then
        do enqueue <result g="{string(//job/@g)}" n="{string(//job/@n)}"/> into out
    create rule finishGroup for groups
      if (qs:message()/close) then do reset groups key qs:slicekey()
"#;

fn build(dir: &TempDir) -> Server {
    Server::builder()
        .program(PROGRAM)
        .dir(dir.path())
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn results_match_inputs_exactly_once(
        jobs in proptest::collection::vec((0u8..6, 0u32..1000), 0..40),
    ) {
        let dir = TempDir::new().unwrap();
        let s = build(&dir);
        for (g, n) in &jobs {
            s.enqueue_external("work", &format!("<job g='g{g}' n='{n}'/>")).unwrap();
        }
        s.run_until_idle().unwrap();
        let mut got: Vec<(String, String)> = s
            .queue_messages("out")
            .unwrap()
            .iter()
            .map(|m| {
                let doc = demaq_xml::parse(&m.payload).unwrap();
                let e = doc.document_element().unwrap();
                let attr = |name| e.attribute(name).unwrap().to_string();
                (attr("g"), attr("n"))
            })
            .collect();
        let mut want: Vec<(String, String)> =
            jobs.iter().map(|(g, n)| (format!("g{g}"), n.to_string())).collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn parallel_equals_sequential(
        jobs in proptest::collection::vec((0u8..6, 0u32..1000), 1..40),
        threads in 1usize..5,
        granularity_slice in any::<bool>(),
    ) {
        let run = |parallel: Option<usize>| {
            let dir = TempDir::new().unwrap();
            let s = Server::builder()
                .program(PROGRAM)
                .dir(dir.path())
                .sync_policy(SyncPolicy::Batch)
                .lock_granularity(if granularity_slice {
                    LockGranularity::Slice
                } else {
                    LockGranularity::Queue
                })
                .build()
                .unwrap();
            for (g, n) in &jobs {
                s.enqueue_external("work", &format!("<job g='g{g}' n='{n}'/>")).unwrap();
            }
            match parallel {
                Some(t) => {
                    s.process_all_parallel(t).unwrap();
                }
                None => {
                    s.run_until_idle().unwrap();
                }
            }
            let mut out: Vec<String> = s.queue_bodies("out").unwrap();
            out.sort();
            out
        };
        prop_assert_eq!(run(None), run(Some(threads)));
    }

    #[test]
    fn retention_iff_sliced(
        groups in proptest::collection::vec(0u8..5, 1..20),
        closed in proptest::collection::vec(0u8..5, 0..5),
    ) {
        let dir = TempDir::new().unwrap();
        let s = build(&dir);
        for g in &groups {
            s.enqueue_external("work", &format!("<job g='g{g}' n='0'/>")).unwrap();
        }
        s.run_until_idle().unwrap();
        for g in &closed {
            s.enqueue_external("work", &format!("<close g='g{g}'/>")).unwrap();
        }
        s.run_until_idle().unwrap();
        s.gc().unwrap();
        // A work message survives GC iff its group's slice was never reset
        // after it was added. Close messages themselves join the slice
        // *after* the reset (the reset happens while processing the close),
        // so they are retained; results are unsliced and purged.
        let retained: Vec<String> = s.queue_bodies("work").unwrap();
        for g in 0u8..5 {
            let had_jobs = groups.contains(&g);
            let was_closed = closed.contains(&g);
            let jobs_left = retained
                .iter()
                .filter(|b| b.contains(&format!("g='g{g}'")) && b.contains("<job"))
                .count();
            if had_jobs && !was_closed {
                prop_assert!(jobs_left > 0, "open group g{} must retain its jobs", g);
            }
            if was_closed {
                prop_assert_eq!(jobs_left, 0, "closed group g{} must be purged", g);
            }
        }
        prop_assert!(s.queue_bodies("out").unwrap().is_empty(), "results are unsliced");
    }

    #[test]
    fn restart_preserves_results(
        jobs in proptest::collection::vec((0u8..6, 0u32..1000), 0..25),
        process_before_crash in any::<bool>(),
    ) {
        let dir = TempDir::new().unwrap();
        {
            let s = build(&dir);
            for (g, n) in &jobs {
                s.enqueue_external("work", &format!("<job g='g{g}' n='{n}'/>")).unwrap();
            }
            if process_before_crash {
                s.run_until_idle().unwrap();
            }
            s.store().sync().unwrap();
            // drop = crash
        }
        let s = build(&dir);
        s.run_until_idle().unwrap();
        prop_assert_eq!(
            s.queue_bodies("out").unwrap().len(),
            jobs.len(),
            "each job yields exactly one result, crash or not"
        );
    }
}
