//! Whole-application analysis over the repo's own programs plus a seeded
//! bad-app corpus (one test per lint code).
//!
//! The paper's listings (Figs. 2, 5-10, reproduced in
//! `tests/paper_listings.rs` / `tests/slicing_fig2.rs`) and the shipped
//! examples are the analyzer's negative controls: a lint that fires on
//! them is a false positive. The seeded corpus is the positive control:
//! each program contains exactly one defect and the matching DQ code must
//! fire.

use demaq_analysis::{
    analyze_spec, extract_qdl_programs, Analysis, LintCode, LintConfig, Severity,
};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extract and analyze every embedded program of a Rust source file,
/// asserting parse + validate + analyze are all clean.
fn assert_source_clean(path: &Path) -> usize {
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let programs = extract_qdl_programs(&source);
    for (i, program) in programs.iter().enumerate() {
        let spec = demaq_qdl::parse_program(program)
            .unwrap_or_else(|e| panic!("{path:?} program {}: parse error: {e}", i + 1));
        let violations = demaq_qdl::validate(&spec);
        assert!(
            violations.is_empty(),
            "{path:?} program {}: validation: {violations:?}",
            i + 1
        );
        let a = analyze_spec(&spec, &LintConfig::new());
        // Info-severity diagnostics are advisory (DQ013 reports that an
        // optimization applies, not a defect) — only warn and above make
        // a shipped program dirty.
        let over_info: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.severity > Severity::Info)
            .collect();
        assert!(
            over_info.is_empty(),
            "{path:?} program {} has diagnostics:\n{}",
            i + 1,
            a.render_human()
        );
    }
    programs.len()
}

#[test]
fn paper_listings_are_diagnostic_free() {
    let n = assert_source_clean(&repo_root().join("tests/paper_listings.rs"));
    assert_eq!(n, 8, "expected all eight paper listings to be extracted");
}

#[test]
fn slicing_fig2_is_diagnostic_free() {
    let n = assert_source_clean(&repo_root().join("tests/slicing_fig2.rs"));
    assert!(n >= 1, "expected the Fig. 2 program to be extracted");
}

#[test]
fn shipped_examples_are_diagnostic_free() {
    let dir = repo_root().join("examples");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("read examples/") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            checked += assert_source_clean(&path);
        }
    }
    // perf_10k assembles its program at runtime (plain strings), so it is
    // covered by deploy-time analysis rather than extraction.
    assert!(
        checked >= 4,
        "expected programs in examples/, got {checked}"
    );
}

// ---- seeded bad-app corpus: one defect per program, one test per code ----

fn run(src: &str) -> Analysis {
    let spec = demaq_qdl::parse_program(src).expect("corpus programs must parse");
    analyze_spec(&spec, &LintConfig::new())
}

fn codes(a: &Analysis) -> Vec<&'static str> {
    a.diagnostics.iter().map(|d| d.code.as_str()).collect()
}

#[test]
fn dq001_unknown_enqueue_target() {
    let a = run(r#"
        create queue inbox kind basic mode persistent
        create rule fwd for inbox
          if (//order) then do enqueue <fwd/> into billing
    "#);
    assert_eq!(codes(&a), ["DQ001"], "{}", a.render_human());
    assert!(a.has_deny());
    assert_eq!(a.diagnostics[0].code, LintCode::UnknownEnqueueTarget);
}

#[test]
fn dq002_enqueue_into_incoming_gateway() {
    let a = run(r#"
        create queue inbox kind incomingGateway mode persistent endpoint "urn:in"
        create queue work kind basic mode persistent
        create rule bounce for work
          if (//retry) then do enqueue <retry/> into inbox
    "#);
    assert_eq!(codes(&a), ["DQ002"], "{}", a.render_human());
    assert!(a.has_deny());
}

#[test]
fn dq002_echo_timer_target_may_not_be_incoming_gateway() {
    let a = run(r#"
        create queue inbox kind incomingGateway mode persistent endpoint "urn:in"
        create queue timers kind echo mode persistent
        create rule arm for inbox
          if (//order) then do enqueue <tick/> into timers
            with delay value "PT30S"
            with target value "inbox"
    "#);
    assert_eq!(codes(&a), ["DQ002"], "{}", a.render_human());
}

#[test]
fn dq003_unreachable_queue() {
    let a = run(r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create queue orphan kind basic mode persistent
        create rule fwd for inbox
          if (//order) then do enqueue <fwd/> into outbox
    "#);
    assert_eq!(codes(&a), ["DQ003"], "{}", a.render_human());
    assert_eq!(a.diagnostics[0].subject, "queue orphan");
}

#[test]
fn dq004_dead_rule_constant_false_condition() {
    let a = run(r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create rule live for inbox
          if (//order) then do enqueue <fwd/> into outbox
        create rule dead for inbox
          if (false()) then do enqueue <never/> into outbox
    "#);
    assert_eq!(codes(&a), ["DQ004"], "{}", a.render_human());
    assert_eq!(a.diagnostics[0].subject, "rule dead");
}

#[test]
fn dq004_dead_rule_trigger_outside_schema_vocabulary() {
    let a = run(r#"
        create schema order-schema {
            root order
            element order any
        }
        create queue orders kind basic mode persistent schema order-schema
        create queue outbox kind basic mode persistent
        create rule live for orders
          if (//order) then do enqueue <fwd/> into outbox
        create rule dead for orders
          if (//invoice) then do enqueue <never/> into outbox
    "#);
    assert_eq!(codes(&a), ["DQ004"], "{}", a.render_human());
    assert_eq!(a.diagnostics[0].subject, "rule dead");
}

#[test]
fn dq005_unguarded_flow_cycle() {
    let a = run(r#"
        create queue ping kind basic mode persistent
        create queue pong kind basic mode persistent
        create rule p1 for ping do enqueue <b/> into pong
        create rule p2 for pong do enqueue <a/> into ping
    "#);
    assert_eq!(codes(&a), ["DQ005"], "{}", a.render_human());
    assert!(a.diagnostics[0].subject.starts_with("cycle "));
}

#[test]
fn dq006_property_read_never_written() {
    let a = run(r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create property region as xs:string fixed
        create rule route for inbox
          if (qs:property("region") = "eu") then do enqueue <eu/> into outbox
    "#);
    assert_eq!(codes(&a), ["DQ006"], "{}", a.render_human());
    assert_eq!(a.diagnostics[0].subject, "property region");
}

#[test]
fn dq007_error_queue_cycle() {
    // `set errorqueue sink` keeps `sink` an observable lineage terminal
    // so this program seeds exactly the DQ007 defect.
    let a = run(r#"
        set errorqueue sink
        create queue work kind basic mode persistent errorqueue handler
        create queue handler kind basic mode persistent errorqueue work
        create queue sink kind basic mode persistent
        create rule w for work if (//x) then do enqueue <y/> into sink
        create rule h for handler if (//y) then do enqueue <z/> into sink
    "#);
    assert_eq!(codes(&a), ["DQ007"], "{}", a.render_human());
    assert!(a.has_deny());
}

#[test]
fn dq008_slicing_key_never_written() {
    let a = run(r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create property customer as xs:integer fixed
        create slicing perCustomer on customer
        create rule fwd for inbox
          if (//order) then do enqueue <fwd/> into outbox
    "#);
    assert_eq!(codes(&a), ["DQ008"], "{}", a.render_human());
    assert_eq!(a.diagnostics[0].subject, "slicing perCustomer");
}

#[test]
fn dq009_dead_end_lineage() {
    let a = run(r#"
        create queue inbox kind basic mode persistent
        create queue ship kind outgoingGateway mode persistent endpoint "urn:ship"
        create queue limbo kind basic mode persistent
        create rule send for inbox
          if (//order) then do enqueue <req/> into ship
        create rule stash for inbox
          if (//order) then do enqueue <copy/> into limbo
    "#);
    assert_eq!(codes(&a), ["DQ009"], "{}", a.render_human());
    assert_eq!(a.diagnostics[0].code, LintCode::DeadEndLineage);
    assert_eq!(a.diagnostics[0].subject, "queue limbo");
    assert!(!a.has_deny(), "dead-end lineage warns, it does not deny");
}

#[test]
fn dq012_unbounded_retention() {
    // Full-scan slice reads and no reset anywhere: the slicing's members
    // are provably never purgeable.
    let a = run(r#"
        create queue events kind basic mode persistent
        create queue outbox kind basic mode persistent
        create property device as xs:string fixed
            queue events value //@device
        create slicing byDevice on device
        create rule dumpAll for byDevice
          if (qs:message()/reading) then
            do enqueue <dump>{qs:slice()}</dump> into outbox
    "#);
    assert_eq!(codes(&a), ["DQ012"], "{}", a.render_human());
    assert_eq!(a.diagnostics[0].code, LintCode::UnboundedRetention);
    assert_eq!(a.diagnostics[0].subject, "slicing byDevice");
    assert_eq!(a.diagnostics[0].severity, Severity::Warn);
    assert!(
        a.diagnostics[0]
            .message
            .contains("scan full slice contents"),
        "{}",
        a.diagnostics[0].message
    );
    assert!(!a.has_deny(), "unbounded retention warns, it does not deny");
}

#[test]
fn dq012_not_fired_when_a_reset_bounds_the_lifetime() {
    // Same shape, but a reset rule ends the slice lifetime: bounded.
    let a = run(r#"
        create queue events kind basic mode persistent
        create queue outbox kind basic mode persistent
        create property device as xs:string fixed
            queue events value //@device
        create slicing byDevice on device
        create rule dumpAll for byDevice
          if (qs:message()/reading) then
            do enqueue <dump>{qs:slice()}</dump> into outbox
        create rule release for byDevice
          if (qs:message()/retire) then
            do reset
    "#);
    assert!(a.diagnostics.is_empty(), "{}", a.render_human());
}

#[test]
fn dq013_retention_narrowed() {
    // Every slice read is an incrementally-maintained aggregate and the
    // member queue is read nowhere else: retention narrows to aggregate
    // cells, reported as an info-level heads-up.
    let a = run(r#"
        create queue readings kind basic mode persistent
        create queue alerts kind basic mode persistent
        create property device as xs:string fixed
            queue readings value //@device
        create slicing byDevice on device
        create rule alarm for byDevice
          if (count(qs:slice()) >= 5) then
            do enqueue <alert/> into alerts
    "#);
    assert_eq!(codes(&a), ["DQ013"], "{}", a.render_human());
    assert_eq!(a.diagnostics[0].code, LintCode::RetentionNarrowed);
    assert_eq!(a.diagnostics[0].subject, "slicing byDevice");
    assert_eq!(a.diagnostics[0].severity, Severity::Info);
    assert!(
        a.diagnostics[0]
            .message
            .contains("add an explicit `do reset`"),
        "no-reset narrowing should suggest making intent explicit: {}",
        a.diagnostics[0].message
    );
    assert!(!a.has_deny());
}

#[test]
fn corpus_defects_are_absent_from_a_clean_program() {
    // Sanity: the minimal clean app used as the corpus baseline really is
    // clean, so each test above isolates exactly its seeded defect.
    let a = run(r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create rule fwd for inbox
          if (//order) then do enqueue <fwd/> into outbox
    "#);
    assert!(a.diagnostics.is_empty(), "{}", a.render_human());
}
