//! XML serialization: compact (canonical-ish) and pretty-printed forms.
//!
//! A subtree is a run of consecutive ids, so serializing is one loop over
//! that run with a stack of the elements whose end tags are still owed.

use crate::qname::QName;
use crate::tree::{Document, NodeId, NodeKind, NodeRef};
use std::sync::Arc;

/// Serialize a whole document compactly (no added whitespace).
pub fn serialize(doc: &Arc<Document>) -> String {
    serialize_node(&doc.root())
}

/// Serialize a node and its subtree compactly.
pub fn serialize_node(node: &NodeRef) -> String {
    let (doc, id) = (&*node.doc, node.id);
    // Room for the values plus about what tags add per node.
    let nodes = (doc.subtree_end(id) - id.0) as usize;
    let mut out = String::with_capacity(doc.value_bytes(id) + 8 * nodes);
    write_subtree(&mut out, doc, id, None);
    out
}

/// Serialize a document with 2-space indentation. Text-only elements stay
/// on one line; mixed content is emitted verbatim to avoid changing the
/// string value.
pub fn serialize_pretty(doc: &Arc<Document>) -> String {
    let mut out = String::new();
    write_subtree(&mut out, doc, NodeId::DOC, Some(2));
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// An element whose end tag is owed once the walk reaches `end`.
struct OpenTag<'a> {
    name: &'a QName,
    end: u32,
    /// Indentation step in force *around* this element (`None`: compact).
    indent: Option<usize>,
    depth: usize,
    /// Whether the end tag goes on a line of its own.
    pad_end_tag: bool,
}

fn write_subtree(out: &mut String, doc: &Document, root: NodeId, step: Option<usize>) {
    let mut open: Vec<OpenTag> = Vec::new();
    let close = |out: &mut String, tag: OpenTag| {
        if let (Some(step), true) = (tag.indent, tag.pad_end_tag) {
            pad(out, step * tag.depth);
        }
        out.push_str("</");
        push_name(out, tag.name);
        out.push('>');
        if tag.indent.is_some() {
            out.push('\n');
        }
    };
    let mut id = root.0;
    let end = doc.subtree_end(root);
    while id < end {
        while open.last().is_some_and(|t| t.end <= id) {
            close(out, open.pop().expect("open tag"));
        }
        // Indentation for this node: its parent's, unless the parent holds
        // text, below which nothing is reformatted.
        let (indent, depth) = match open.last() {
            Some(t) if t.pad_end_tag => (t.indent, t.depth + 1),
            Some(_) => (None, 0),
            None => (step, 0),
        };
        let node = NodeId(id);
        id += 1;
        match doc.kind(node) {
            NodeKind::Document => {}
            NodeKind::Element(name) => {
                if let Some(step) = indent {
                    pad(out, step * depth);
                }
                out.push('<');
                push_name(out, name);
                for a in doc.attributes(node) {
                    out.push(' ');
                    write_attribute(out, doc, a);
                    id += 1;
                }
                let mut children = doc.children(node).peekable();
                if children.peek().is_none() {
                    out.push_str("/>");
                    if indent.is_some() {
                        out.push('\n');
                    }
                    continue;
                }
                out.push('>');
                let has_text = children.any(|c| doc.is_text(c));
                let pad_end_tag = indent.is_some() && !has_text;
                if pad_end_tag {
                    out.push('\n');
                }
                open.push(OpenTag {
                    name,
                    end: doc.subtree_end(node),
                    indent,
                    depth,
                    pad_end_tag,
                });
            }
            NodeKind::Attribute(..) => write_attribute(out, doc, node),
            NodeKind::Text(t) => push_escaped(out, t, false),
            NodeKind::Comment(c) => {
                if let Some(step) = indent {
                    pad(out, step * depth);
                }
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
                if indent.is_some() {
                    out.push('\n');
                }
            }
            NodeKind::Pi { target, data } => {
                if let Some(step) = indent {
                    pad(out, step * depth);
                }
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
                if indent.is_some() {
                    out.push('\n');
                }
            }
        }
        // Pretty-printed top-level nodes each end their line.
        if step.is_some() && open.is_empty() && node != root && !out.ends_with('\n') {
            out.push('\n');
        }
    }
    while let Some(tag) = open.pop() {
        close(out, tag);
    }
}

fn write_attribute(out: &mut String, doc: &Document, id: NodeId) {
    if let NodeKind::Attribute(name, value) = doc.kind(id) {
        push_name(out, name);
        out.push_str("=\"");
        push_escaped(out, value, true);
        out.push('"');
    }
}

fn push_name(out: &mut String, name: &QName) {
    if let Some(p) = name.prefix.as_deref().filter(|p| !p.is_empty()) {
        out.push_str(p);
        out.push(':');
    }
    out.push_str(&name.local);
}

fn pad(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push(' ');
    }
}

/// Append `s`, escaped as character data or as a double-quoted attribute
/// value, copying the stretches between special characters whole.
fn push_escaped(out: &mut String, s: &str, attribute: bool) {
    let mut from = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match (b, attribute) {
            (b'&', _) => "&amp;",
            (b'<', _) => "&lt;",
            (b'>', false) => "&gt;",
            (b'"', true) => "&quot;",
            (b'\n', true) => "&#10;",
            (b'\t', true) => "&#9;",
            _ => continue,
        };
        out.push_str(&s[from..i]);
        out.push_str(escape);
        from = i + 1;
    }
    out.push_str(&s[from..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn escapes_special_chars() {
        let mut b = crate::DocBuilder::new();
        b.start("a").attr("x", "a\"b<c").text("1 < 2 & 3 > 2").end();
        let doc = b.finish();
        assert_eq!(
            serialize(&doc),
            "<a x=\"a&quot;b&lt;c\">1 &lt; 2 &amp; 3 &gt; 2</a>"
        );
        // Roundtrip: parse what we emitted and compare string values.
        let doc2 = parse(&serialize(&doc)).unwrap();
        assert!(doc.root().deep_equal(&doc2.root()));
    }

    #[test]
    fn pretty_print_structure() {
        let doc = parse("<a><b><c>x</c></b><d/></a>").unwrap();
        let pretty = serialize_pretty(&doc);
        assert_eq!(pretty, "<a>\n  <b>\n    <c>x</c>\n  </b>\n  <d/>\n</a>\n");
        // Pretty output re-parses to a doc with identical element structure.
        let doc2 = parse(&pretty).unwrap();
        let names = |d: &std::sync::Arc<crate::Document>| {
            d.root()
                .descendants()
                .filter_map(|n| n.name().map(|q| q.local.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&doc), names(&doc2));
    }

    #[test]
    fn mixed_content_not_reformatted() {
        let doc = parse("<p>hello <b>world</b>!</p>").unwrap();
        let pretty = serialize_pretty(&doc);
        assert_eq!(pretty, "<p>hello <b>world</b>!</p>\n");
    }

    #[test]
    fn pretty_print_keeps_comments_pis_and_nested_mixed_content_as_before() {
        let doc =
            parse("<!--top--><a><!--c--><?p d?><b>t<i><j/></i></b><e><f/><!--g--></e></a><?end?>")
                .unwrap();
        assert_eq!(
            serialize_pretty(&doc),
            "<!--top-->\n<a>\n  <!--c-->\n  <?p d?>\n  <b>t<i><j/></i></b>\n  <e>\n    \
             <f/>\n    <!--g-->\n  </e>\n</a>\n<?end?>\n"
        );
    }

    #[test]
    fn subtree_and_attribute_nodes_serialize_alone() {
        let doc = parse("<a><b p='1' q='2'><c/></b><d/></a>").unwrap();
        let b = doc.document_element().unwrap().children().next().unwrap();
        assert_eq!(b.to_xml(), "<b p=\"1\" q=\"2\"><c/></b>");
        assert_eq!(b.attributes().nth(1).unwrap().to_xml(), "q=\"2\"");
    }
}
