//! Keeps the README "Tracing a message's lineage" example honest: this
//! is the same code, verbatim, run as a test.

use demaq::Server;
use demaq::TraceFilter;

#[test]
fn readme_lineage_example() -> Result<(), Box<dyn std::error::Error>> {
    let server = Server::builder()
        .program(
            r#"
            create queue order kind basic mode persistent
            create queue approval kind basic mode persistent
            create queue archive kind basic mode persistent
            create rule approve for order
              if (//order) then do enqueue <approved/> into approval
            create rule archive for approval
              if (//approved) then do enqueue <archived/> into archive
        "#,
        )
        .in_memory()
        .build()?;
    let root = server.enqueue_external("order", "<order id='o-1'/>")?;
    server.run_until_idle()?;

    let archived = server.queue_messages("archive")?[0].id;
    let lineage = server.lineage(archived);
    assert_eq!(
        lineage.target.as_ref().unwrap().rule.as_deref(),
        Some("archive")
    );
    assert_eq!(lineage.ancestors.last().unwrap().msg, root.0);

    for p in server.rule_profiles() {
        println!(
            "{}: {} fires, {} produced, p99 {}ns",
            p.rule, p.fires, p.messages_produced, p.eval_ns_p99
        );
    }

    let tree = server.trace_tail_filtered(
        1024,
        &TraceFilter {
            trace_id: Some(root.0),
            ..Default::default()
        },
    );
    assert!(tree.iter().any(|e| e.queue == "archive"));
    Ok(())
}
