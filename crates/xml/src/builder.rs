//! Programmatic construction of frozen [`Document`]s.
//!
//! The parser, the XQuery node constructors and update application all
//! funnel through [`DocBuilder`], which appends to the document's flat
//! arrays in document order (element → its attributes → its children) so
//! that id comparison *is* document order.

use crate::qname::{split_lexical, QName};
use crate::sym::{self, Name};
use crate::tree::{Document, Kind, Node, NodeId, NodeKind, NodeRef, MAX_TAG_PAYLOAD, NO_PARENT};
use std::collections::HashMap;
use std::sync::Arc;

/// Anything [`DocBuilder::start`] and [`DocBuilder::attr`] accept as a name.
/// A `&str` is read as a lexical QName (`p:local` keeps its prefix, unbound).
pub trait IntoName {
    fn into_name(self) -> &'static Name;
}

impl IntoName for &'static Name {
    fn into_name(self) -> &'static Name {
        self
    }
}

impl IntoName for &QName {
    fn into_name(self) -> &'static Name {
        sym::intern_qname(self.ns.as_deref(), self.prefix.as_deref(), &self.local)
    }
}

impl IntoName for QName {
    fn into_name(self) -> &'static Name {
        (&self).into_name()
    }
}

impl IntoName for &str {
    fn into_name(self) -> &'static Name {
        let (prefix, local) = split_lexical(self).unwrap_or((None, self));
        sym::intern_qname(None, prefix, local)
    }
}

const LINEAR_NAMES: usize = 16;

/// Incremental builder for a single document.
pub struct DocBuilder {
    nodes: Vec<Node>,
    text: String,
    names: Vec<&'static Name>,
    /// Name-table index by pooled-name address, kept once the table has
    /// more than [`LINEAR_NAMES`] entries.
    name_index: HashMap<usize, u32>,
    /// The open element (or the document node); its ancestors are the
    /// other open elements.
    cur: u32,
}

impl Default for DocBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocBuilder {
    /// Start a new document.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    pub(crate) fn with_capacity(nodes: usize, text: usize) -> Self {
        let mut nodes = Vec::with_capacity(nodes.max(4));
        nodes.push(Node::new(Kind::Document, 0, NO_PARENT, 0, 0));
        DocBuilder {
            nodes,
            text: String::with_capacity(text),
            names: Vec::new(),
            name_index: HashMap::new(),
            cur: 0,
        }
    }

    pub(crate) fn push_node(&mut self, kind: Kind, payload: u32) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("document exceeds 2^32 nodes");
        let text = u32::try_from(self.text.len()).expect("document text exceeds 4 GiB");
        assert!(
            id < NO_PARENT && payload <= MAX_TAG_PAYLOAD,
            "document too large"
        );
        self.nodes
            .push(Node::new(kind, payload, self.cur, id, text));
        id
    }

    /// Append `name` to the name table without looking for an earlier
    /// entry (the parser keeps its own index by lexical name).
    pub(crate) fn push_name(&mut self, name: &'static Name) -> u32 {
        let idx = u32::try_from(self.names.len()).expect("name table exceeds 2^32 entries");
        self.names.push(name);
        idx
    }

    fn name_idx(&mut self, name: &'static Name) -> u32 {
        let key = |n: &'static Name| n as *const Name as usize;
        // A constructed element has a handful of names: compare addresses.
        // The map takes over where scanning would stop being cheap.
        let found = if self.names.len() <= LINEAR_NAMES {
            let at = self.names.iter().position(|&n| std::ptr::eq(n, name));
            at.map(|i| i as u32)
        } else {
            self.name_index.get(&key(name)).copied()
        };
        if let Some(idx) = found {
            return idx;
        }
        let idx = self.push_name(name);
        if self.names.len() > LINEAR_NAMES {
            if self.name_index.is_empty() {
                let all = self.names.iter().zip(0..).map(|(&n, i)| (key(n), i));
                self.name_index = all.collect();
            } else {
                self.name_index.insert(key(name), idx);
            }
        }
        idx
    }

    pub(crate) fn start_idx(&mut self, name_idx: u32) -> u32 {
        self.cur = self.push_node(Kind::Element, name_idx);
        self.cur
    }

    pub(crate) fn attr_idx(&mut self, name_idx: u32) -> u32 {
        self.push_node(Kind::Attribute, name_idx)
    }

    pub(crate) fn set_name_idx(&mut self, node: u32, name_idx: u32) {
        assert!(name_idx <= MAX_TAG_PAYLOAD, "too many distinct names");
        self.nodes[node as usize].set_payload(name_idx);
    }

    /// Append to the value of the node pushed last.
    pub(crate) fn push_value(&mut self, s: &str) {
        self.text.push_str(s);
    }

    pub(crate) fn text_len(&self) -> usize {
        self.text.len()
    }

    pub(crate) fn text_slice(&self, range: std::ops::Range<usize>) -> &str {
        &self.text[range]
    }

    /// Open an element; subsequent content goes inside until [`Self::end`].
    pub fn start(&mut self, name: impl IntoName) -> &mut Self {
        let idx = self.name_idx(name.into_name());
        self.start_idx(idx);
        self
    }

    /// Add an attribute to the currently open element. Must be called before
    /// any child content is added: attributes are the run of nodes right
    /// after their element.
    pub fn attr(&mut self, name: impl IntoName, value: impl AsRef<str>) -> &mut Self {
        let last = self.nodes.last().expect("document node");
        assert!(
            self.nodes[self.cur as usize].kind() == Kind::Element,
            "attributes only allowed on elements"
        );
        assert!(
            last.parent == self.cur && last.kind() == Kind::Attribute
                || self.nodes.len() - 1 == self.cur as usize,
            "attributes must precede children for document order"
        );
        let idx = self.name_idx(name.into_name());
        self.attr_idx(idx);
        self.text.push_str(value.as_ref());
        self
    }

    /// Append a text node. Consecutive text nodes are merged (XDM requires
    /// no adjacent text siblings).
    pub fn text(&mut self, value: impl AsRef<str>) -> &mut Self {
        let value = value.as_ref();
        if value.is_empty() {
            return self;
        }
        // The current element's last child, if it is a text node, is the
        // node pushed last, and its value ends the text buffer.
        let last = self.nodes.last().expect("document node");
        if !(last.kind() == Kind::Text && last.parent == self.cur) {
            self.push_node(Kind::Text, 0);
        }
        self.text.push_str(value);
        self
    }

    /// Append a comment node.
    pub fn comment(&mut self, value: impl AsRef<str>) -> &mut Self {
        self.push_node(Kind::Comment, 0);
        self.text.push_str(value.as_ref());
        self
    }

    /// Append a processing instruction.
    pub fn pi(&mut self, target: impl AsRef<str>, data: impl AsRef<str>) -> &mut Self {
        let target = target.as_ref();
        let len = u32::try_from(target.len()).expect("PI target exceeds 4 GiB");
        self.push_node(Kind::Pi, len);
        self.text.push_str(target);
        self.text.push_str(data.as_ref());
        self
    }

    /// Close the current element.
    pub fn end(&mut self) -> &mut Self {
        assert!(self.cur != 0, "end() without matching start()");
        let end = self.nodes.len() as u32;
        let open = &mut self.nodes[self.cur as usize];
        open.end = end;
        self.cur = open.parent;
        self
    }

    /// Deep-copy `node` (and its subtree) as a child of the current element
    /// (a document node contributes its children, an attribute node becomes
    /// an attribute). This is how XQuery constructors copy existing nodes
    /// into new trees.
    pub fn copy_node(&mut self, node: &NodeRef) -> &mut Self {
        let src = &*node.doc;
        let end = src.subtree_end(node.id);
        // `at` is the source node whose copy is the builder's open element;
        // it starts as the node above the copied range.
        let (first, mut at) = match node.kind() {
            NodeKind::Document => (node.id.0 + 1, Some(node.id)),
            _ => (node.id.0, src.parent(node.id)),
        };
        let outside = at;
        for id in (first..end).map(NodeId) {
            let parent = src.parent(id);
            while at != parent {
                self.end();
                at = at.and_then(|a| src.parent(a));
            }
            match src.kind(id) {
                NodeKind::Document => unreachable!("document node below the root"),
                NodeKind::Element(_) => {
                    let idx = self.name_idx(src.pooled_name(id).expect("element name"));
                    self.start_idx(idx);
                    at = Some(id);
                }
                NodeKind::Attribute(_, v) => {
                    self.attr(src.pooled_name(id).expect("attribute name"), v);
                }
                NodeKind::Text(t) => {
                    self.text(t);
                }
                NodeKind::Comment(c) => {
                    self.comment(c);
                }
                NodeKind::Pi { target, data } => {
                    self.pi(target, data);
                }
            }
        }
        while at != outside {
            self.end();
            at = at.and_then(|a| src.parent(a));
        }
        self
    }

    /// Finish construction. Panics if elements are left open.
    pub fn finish(mut self) -> Arc<Document> {
        assert_eq!(self.cur, 0, "unclosed elements at finish()");
        self.nodes[0].end = self.nodes.len() as u32;
        Document::freeze(self.nodes, self.text, self.names)
    }

    /// Convenience: a document with a single element containing text.
    pub fn simple(name: &str, text: &str) -> Arc<Document> {
        let mut b = DocBuilder::new();
        b.start(name).text(text).end();
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_serialize() {
        let mut b = DocBuilder::new();
        b.start("order")
            .attr("id", "42")
            .start("item")
            .text("chemicals")
            .end()
            .end();
        let doc = b.finish();
        assert_eq!(
            doc.root().to_xml(),
            r#"<order id="42"><item>chemicals</item></order>"#
        );
    }

    #[test]
    fn text_merging() {
        let mut b = DocBuilder::new();
        b.start("a").text("x").text("y").end();
        let doc = b.finish();
        let a = doc.document_element().unwrap();
        assert_eq!(a.children().count(), 1);
        assert_eq!(a.string_value(), "xy");
    }

    #[test]
    fn text_after_a_closed_child_is_a_new_node() {
        let mut b = DocBuilder::new();
        b.start("a").start("b").text("x").end().text("y").end();
        let doc = b.finish();
        assert_eq!(doc.root().to_xml(), "<a><b>x</b>y</a>");
        assert_eq!(doc.document_element().unwrap().children().count(), 2);
    }

    #[test]
    fn copy_node_preserves_structure() {
        let src = crate::parse("<a p='1'><b>t</b><!--c--></a>").unwrap();
        let mut b = DocBuilder::new();
        b.start("wrap")
            .copy_node(&src.document_element().unwrap())
            .end();
        let doc = b.finish();
        assert_eq!(
            doc.root().to_xml(),
            r#"<wrap><a p="1"><b>t</b><!--c--></a></wrap>"#
        );
        // copy is a distinct node
        let copied = doc.document_element().unwrap().children().next().unwrap();
        assert!(!copied.is_same_node(&src.document_element().unwrap()));
    }

    #[test]
    fn copy_node_of_each_kind() {
        let src = crate::parse("<r><a p='1'><b/>t</a><?pi d?></r>").unwrap();
        let a = src.document_element().unwrap().children().next().unwrap();
        let mut b = DocBuilder::new();
        b.start("w").copy_node(&a.attributes().next().unwrap());
        b.copy_node(&a.children().next().unwrap()); // empty element
        b.copy_node(&a.children().nth(1).unwrap()); // text
        b.copy_node(&src.root()); // document node: its children
        b.end();
        assert_eq!(
            b.finish().root().to_xml(),
            r#"<w p="1"><b/>t<r><a p="1"><b/>t</a><?pi d?></r></w>"#
        );
    }

    #[test]
    fn many_names_are_not_duplicated_in_the_table() {
        let mut b = DocBuilder::new();
        b.start("r");
        for round in 0..3 {
            for i in 0..40 {
                b.start(format!("n{i}").as_str())
                    .attr("round", round.to_string())
                    .end();
            }
        }
        b.end();
        let doc = b.finish();
        // 121 elements + 120 attributes + the document node, 42 names.
        assert_eq!(doc.len(), 242);
        let bytes = doc.len() * 16 + 42 * 8 + 120 + std::mem::size_of::<Document>();
        assert_eq!(doc.heap_bytes(), bytes);
        let root = doc.root();
        let n7 = root
            .descendants()
            .filter(|n| n.name().is_some_and(|q| q.local == "n7"));
        assert_eq!(n7.count(), 3);
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unbalanced_builder_panics() {
        let mut b = DocBuilder::new();
        b.start("a");
        b.finish();
    }

    #[test]
    #[should_panic(expected = "precede children")]
    fn attribute_after_child_panics() {
        let mut b = DocBuilder::new();
        b.start("a").text("t").attr("p", "1");
    }
}
