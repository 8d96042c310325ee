//! Property-based tests: serialize∘parse is the identity on document
//! trees, for arbitrary trees including hostile text content.

use demaq_xml::{parse, serialize, serialize_pretty, DocBuilder, Document};
use proptest::prelude::*;
use std::sync::Arc;

/// A generated XML node.
#[derive(Debug, Clone)]
enum GenNode {
    Element {
        name: String,
        attrs: Vec<(String, String)>,
        children: Vec<GenNode>,
    },
    Text(String),
    Comment(String),
}

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_.-]{0,8}".prop_map(|s| s)
}

/// Text containing the characters that need escaping.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("&".to_string()),
            Just("<".to_string()),
            Just(">".to_string()),
            Just("\"".to_string()),
            Just("'".to_string()),
            Just("grüße 漢字".to_string()),
            "[ -~]{1,6}".prop_map(|s| s),
        ],
        1..4,
    )
    .prop_map(|v| v.join(""))
}

fn comment_strategy() -> impl Strategy<Value = String> {
    // Comments may not contain `--` or end with `-`.
    "[a-zA-Z0-9 ]{0,12}".prop_map(|s| s.trim_end_matches('-').to_string())
}

fn node_strategy() -> impl Strategy<Value = GenNode> {
    let leaf = prop_oneof![
        text_strategy().prop_map(GenNode::Text),
        comment_strategy().prop_map(GenNode::Comment),
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3)
        )
            .prop_map(|(name, attrs)| GenNode::Element {
                name,
                attrs,
                children: vec![]
            }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| GenNode::Element {
                name,
                attrs,
                children,
            })
    })
}

fn build(node: &GenNode, b: &mut DocBuilder) {
    match node {
        GenNode::Element {
            name,
            attrs,
            children,
        } => {
            b.start(name.as_str());
            let mut seen = std::collections::HashSet::new();
            for (an, av) in attrs {
                if seen.insert(an.clone()) {
                    b.attr(an.as_str(), av.as_str());
                }
            }
            for c in children {
                build(c, b);
            }
            b.end();
        }
        GenNode::Text(t) => {
            b.text(t);
        }
        GenNode::Comment(c) => {
            b.comment(c.clone());
        }
    }
}

fn gen_doc(root_name: &str, children: &[GenNode]) -> Arc<Document> {
    let mut b = DocBuilder::new();
    b.start(root_name);
    for c in children {
        build(c, &mut b);
    }
    b.end();
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn serialize_parse_roundtrip(
        root in name_strategy(),
        children in proptest::collection::vec(node_strategy(), 0..5),
    ) {
        let doc = gen_doc(&root, &children);
        let xml = serialize(&doc);
        let back = parse(&xml).expect("serialized output must re-parse");
        prop_assert!(doc.root().deep_equal(&back.root()), "roundtrip mismatch for {xml}");
    }

    #[test]
    fn pretty_print_preserves_element_structure(
        root in name_strategy(),
        children in proptest::collection::vec(node_strategy(), 0..5),
    ) {
        let doc = gen_doc(&root, &children);
        let pretty = serialize_pretty(&doc);
        let back = parse(&pretty).expect("pretty output must re-parse");
        // Pretty printing may change whitespace-only text but never the
        // element skeleton or attributes.
        let skel = |d: &Arc<Document>| {
            d.root()
                .descendants()
                .filter(|n| n.is_element())
                .map(|n| {
                    let mut attrs: Vec<String> = n
                        .attributes()
                        .filter_map(|a| a.name().map(|q| {
                            format!("{}={}", q.local, a.string_value())
                        }))
                        .collect();
                    attrs.sort();
                    format!("{}[{}]", n.name().unwrap().local, attrs.join(","))
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(skel(&doc), skel(&back));
    }

    #[test]
    fn string_value_survives_roundtrip_without_mixed_ws(
        root in name_strategy(),
        texts in proptest::collection::vec(text_strategy(), 1..4),
    ) {
        // Pure text content (no structure): the string value is preserved
        // exactly by serialize∘parse.
        let mut b = DocBuilder::new();
        b.start(root.as_str());
        for t in &texts {
            b.text(t);
        }
        b.end();
        let doc = b.finish();
        let back = parse(&serialize(&doc)).unwrap();
        prop_assert_eq!(doc.root().string_value(), back.root().string_value());
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,120}") {
        let _ = parse(&input); // Result either way; must not panic.
    }

    #[test]
    fn parser_never_panics_on_tag_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<a>".to_string()),
                Just("</a>".to_string()),
                Just("<a/>".to_string()),
                Just("<a b='c'>".to_string()),
                Just("&amp;".to_string()),
                Just("&#65;".to_string()),
                Just("<![CDATA[x]]>".to_string()),
                Just("<!--c-->".to_string()),
                Just("<?pi d?>".to_string()),
                "[a-z<>&;\"']{0,6}".prop_map(|s| s),
            ],
            0..12,
        )
    ) {
        let soup = parts.join("");
        let _ = parse(&soup);
        let _ = demaq_xml::parse_fragment(&soup);
    }
}
