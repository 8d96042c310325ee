//! A 200 000-deep message must not hurt the process: before the tree went
//! flat, parsing it overflowed the stack of the recursive parser, and so
//! would have every recursive walk after it. The test thread's default
//! 2 MB stack is the tripwire.

use demaq_xml::{parse, serialize, NodeRef};
use demaq_xquery::{eval_query, parse_expr, DynamicContext, Sequence};
use demaq_xquery_reference::Evaluator;

/// The lowered plan's answer (what the engine runs), checked against the
/// reference evaluator's.
fn eval(query: &str, context: &NodeRef) -> Sequence {
    let planned = eval_query(query, context).unwrap();
    let reference = Evaluator::new(&DynamicContext::default())
        .eval_with_context(&parse_expr(query).unwrap(), context.clone())
        .unwrap();
    assert_eq!(planned.to_string(), reference.to_string(), "{query}");
    planned
}

#[test]
fn a_200_000_deep_message_parses_round_trips_answers_queries_and_drops() {
    const DEPTH: usize = 200_000;
    let xml = format!("{}x{}", "<a>".repeat(DEPTH), "</a>".repeat(DEPTH));
    let doc = parse(&xml).expect("deep document parses");
    assert_eq!(serialize(&doc), xml);
    let root = doc.root();
    assert_eq!(root.string_value(), "x");
    assert_eq!(eval("count(//a)", &root).to_string(), DEPTH.to_string());
    assert_eq!(eval("string(/a)", &root).to_string(), "x");
    assert_eq!(
        eval("if (//a/text()) then 1 else 0", &root).to_string(),
        "1"
    );
    // A constructor deep-copies the whole message (`DocBuilder::copy_node`).
    let wrapped = eval("<w>{/a}</w>", &root);
    let copy = wrapped.as_slice()[0]
        .as_node()
        .unwrap()
        .children()
        .next()
        .unwrap();
    assert!(copy.deep_equal(&doc.document_element().unwrap()));
    drop((wrapped, copy, doc));
}
