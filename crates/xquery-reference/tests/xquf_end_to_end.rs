//! XQuery Update Facility end to end: parse `do …` expressions, evaluate
//! them into pending update lists, apply copy-on-write, verify snapshot
//! semantics (paper Sec. 3.2: "pending update list of update primitives
//! that are applied after the entire statement has been evaluated").
//!
//! The lists come from the plan evaluator the engine runs; each must equal
//! the reference interpreter's list for the same expression.

use demaq_xml::{parse, NodeRef};
use demaq_xquery::{apply_tree_updates, lower, parse_expr, DynamicContext, PlanEvaluator, Update};
use demaq_xquery_reference::{render_updates, Evaluator};
use std::sync::Arc;

/// The plan evaluator's pending updates for `query`, after checking them
/// against the reference interpreter's.
fn pending_updates(query: &str, dctx: &DynamicContext, context: NodeRef) -> Vec<Update> {
    let expr = parse_expr(query).unwrap();
    let mut reference = Evaluator::new(dctx);
    reference.eval_with_context(&expr, context.clone()).unwrap();
    let mut ev = PlanEvaluator::new(dctx);
    ev.eval_with_context(&lower(&expr), context).unwrap();
    assert_eq!(
        render_updates(&ev.updates),
        render_updates(&reference.updates),
        "{query}"
    );
    ev.updates
}

fn run_updates(query: &str, xml: &str) -> (NodeRef, String) {
    let doc = parse(xml).unwrap();
    let updates = pending_updates(query, &DynamicContext::default(), doc.root());
    let rebuilt = apply_tree_updates(&updates).unwrap();
    let new_doc = rebuilt
        .get(&doc.doc_seq)
        .map(Arc::clone)
        .unwrap_or_else(|| doc.clone());
    let xml_out = new_doc.root().to_xml();
    (doc.root(), xml_out)
}

#[test]
fn do_insert_into() {
    let (_orig, out) = run_updates("do insert <new/> into /order", "<order><old/></order>");
    assert_eq!(out, "<order><old/><new/></order>");
}

#[test]
fn do_insert_as_first() {
    let (_o, out) = run_updates(
        "do insert <new/> as first into /order",
        "<order><old/></order>",
    );
    assert_eq!(out, "<order><new/><old/></order>");
}

#[test]
fn do_insert_before_and_after() {
    let (_o, out) = run_updates(
        "(do insert <a/> before /r/mid, do insert <z/> after /r/mid)",
        "<r><mid/></r>",
    );
    assert_eq!(out, "<r><a/><mid/><z/></r>");
}

#[test]
fn do_delete_by_predicate() {
    let (_o, out) = run_updates(
        "do delete //item[@obsolete = 'yes']",
        "<cat><item obsolete='yes'/><item/><item obsolete='yes'/></cat>",
    );
    assert_eq!(out, "<cat><item/></cat>");
}

#[test]
fn do_replace_node() {
    let (_o, out) = run_updates(
        "do replace /doc/price with <price currency='EUR'>42</price>",
        "<doc><price>10</price></doc>",
    );
    assert_eq!(out, r#"<doc><price currency="EUR">42</price></doc>"#);
}

#[test]
fn do_replace_value_of() {
    let (_o, out) = run_updates(
        "do replace value of /doc/price with 10 * 5",
        "<doc><price>10</price></doc>",
    );
    assert_eq!(out, "<doc><price>50</price></doc>");
}

#[test]
fn do_rename() {
    let (_o, out) = run_updates("do rename /a/b as 'c'", "<a><b>t</b></a>");
    assert_eq!(out, "<a><c>t</c></a>");
}

#[test]
fn conditional_updates_only_taken_branch() {
    let (_o, out) = run_updates(
        "if (//flag = 'on') then do delete //secret else do delete //public",
        "<r><flag>on</flag><secret/><public/></r>",
    );
    assert_eq!(out, "<r><flag>on</flag><public/></r>");
}

#[test]
fn flwor_generates_one_update_per_binding() {
    let (_o, out) = run_updates(
        "for $i in //item where number($i/@v) > 1 return do rename $i as 'big'",
        "<r><item v='1'/><item v='2'/><item v='3'/></r>",
    );
    assert_eq!(out, "<r><item v=\"1\"/><big v=\"2\"/><big v=\"3\"/></r>");
}

#[test]
fn snapshot_semantics_source_unchanged() {
    // The source document must be untouched — updates build a new tree.
    let doc = parse("<a><b/></a>").unwrap();
    let updates = pending_updates("do delete /a/b", &DynamicContext::default(), doc.root());
    let rebuilt = apply_tree_updates(&updates).unwrap();
    assert_eq!(doc.root().to_xml(), "<a><b/></a>", "source immutable");
    assert_eq!(rebuilt[&doc.doc_seq].root().to_xml(), "<a/>");
}

#[test]
fn updates_across_multiple_documents() {
    let d1 = parse("<a><x/></a>").unwrap();
    let d2 = parse("<b><y/></b>").unwrap();
    let mut dctx = DynamicContext::default();
    dctx.bind("other", demaq_xquery::Sequence::one(d2.root()));
    let updates = pending_updates("(do delete /a/x, do delete $other/b/y)", &dctx, d1.root());
    let rebuilt = apply_tree_updates(&updates).unwrap();
    assert_eq!(rebuilt[&d1.doc_seq].root().to_xml(), "<a/>");
    assert_eq!(rebuilt[&d2.doc_seq].root().to_xml(), "<b/>");
}

#[test]
fn mixing_queue_and_tree_updates() {
    // Queue primitives coexist with tree updates on the same list; the
    // tree applier ignores the queue entries.
    let doc = parse("<r><kill/></r>").unwrap();
    let query = "(do enqueue <m/> into q, do delete //kill)";
    let updates = pending_updates(query, &DynamicContext::default(), doc.root());
    assert_eq!(updates.len(), 2);
    assert!(updates.iter().any(|u| u.is_queue_update()));
    let rebuilt = apply_tree_updates(&updates).unwrap();
    assert_eq!(rebuilt[&doc.doc_seq].root().to_xml(), "<r/>");
}
