//! Immutable XML document tree, stored flat in document order.
//!
//! A [`Document`] is three buffers: one array of fixed-size nodes in
//! pre-order (element, then its attributes, then its children), one string
//! holding every text, attribute, comment and PI value back to back, and a
//! table of the distinct names the document uses. A node's id is its array
//! index, so comparing `(doc_seq, NodeId)` pairs yields the total document
//! order that XQuery path semantics require, and every axis is a range of
//! ids:
//!
//! * each node records `end`, the id one past its subtree — descendants of
//!   `n` are the ids in `(n, end)` that are not attributes,
//! * an element's attributes are the run of attribute nodes right after it,
//! * its first child follows that run and each next sibling is the previous
//!   one's `end`,
//! * ancestors follow `parent`.
//!
//! Nothing in here recurses, so nesting depth costs heap, never stack.
//!
//! Documents are frozen after construction. This mirrors Demaq's
//! append-only message store — "messages are never modified after they have
//! been created" — and lets the engine share trees across threads without
//! synchronization.

use crate::qname::QName;
use crate::sym::{Name, Sym};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Index of a node within its document, in document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The document node itself is always node 0.
    pub const DOC: NodeId = NodeId(0);
}

/// A borrowed view of a node's kind and kind-specific payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind<'a> {
    /// The document root; children are the top-level nodes.
    Document,
    /// An element with a qualified name.
    Element(&'a QName),
    /// An attribute with a name and string value.
    Attribute(&'a QName, &'a str),
    /// A text node.
    Text(&'a str),
    /// A comment.
    Comment(&'a str),
    /// A processing instruction `<?target data?>`.
    Pi { target: &'a str, data: &'a str },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Kind {
    Document,
    Element,
    Attribute,
    Text,
    Comment,
    Pi,
}

const KIND_BITS: u32 = 3;
/// Largest value the 29 payload bits of [`Node::tag`] hold.
pub(crate) const MAX_TAG_PAYLOAD: u32 = u32::MAX >> KIND_BITS;
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// One tree node. Its value (attribute value, text, comment, PI target +
/// data) is the slice of the document's text buffer from `text` to the next
/// node's `text`: values are appended in node order, so no length is kept.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// [`Kind`] in the low bits; above it the name-table index of an
    /// element or attribute, or the byte length of a PI's target.
    tag: u32,
    pub(crate) parent: u32,
    /// One past the last id of this node's subtree.
    pub(crate) end: u32,
    pub(crate) text: u32,
}

impl Node {
    pub(crate) fn new(kind: Kind, payload: u32, parent: u32, id: u32, text: u32) -> Node {
        debug_assert!(payload <= MAX_TAG_PAYLOAD);
        Node {
            tag: payload << KIND_BITS | kind as u32,
            parent,
            end: id + 1,
            text,
        }
    }

    pub(crate) fn kind(&self) -> Kind {
        match self.tag & ((1 << KIND_BITS) - 1) {
            0 => Kind::Document,
            1 => Kind::Element,
            2 => Kind::Attribute,
            3 => Kind::Text,
            4 => Kind::Comment,
            _ => Kind::Pi,
        }
    }

    fn payload(&self) -> usize {
        (self.tag >> KIND_BITS) as usize
    }

    pub(crate) fn set_payload(&mut self, payload: u32) {
        debug_assert!(payload <= MAX_TAG_PAYLOAD);
        self.tag = payload << KIND_BITS | (self.tag & ((1 << KIND_BITS) - 1));
    }
}

static DOC_SEQ: AtomicU64 = AtomicU64::new(1);

/// A frozen XML document.
pub struct Document {
    /// Globally unique, monotonically increasing id; gives a stable total
    /// order across documents (XQuery's "implementation-defined" inter-
    /// document order).
    pub doc_seq: u64,
    nodes: Box<[Node]>,
    text: Box<str>,
    /// Distinct names in order of first use, each a pointer into the
    /// process-wide pool ([`crate::sym::intern_qname`]).
    names: Box<[&'static Name]>,
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Document(seq={}, nodes={})",
            self.doc_seq,
            self.nodes.len()
        )
    }
}

impl Document {
    pub(crate) fn freeze(
        nodes: Vec<Node>,
        text: String,
        names: Vec<&'static Name>,
    ) -> Arc<Document> {
        /// The buffer at its exact size. A fresh allocation and a copy, not
        /// `into_boxed_slice`: that shrinks with `realloc`, which for
        /// message-sized blocks costs several `malloc`/`free` pairs (a
        /// four-node document parsed in 180 ns this way, 280 ns that way).
        fn exact<T: Copy>(v: Vec<T>) -> Box<[T]> {
            if v.len() == v.capacity() {
                v.into_boxed_slice()
            } else {
                Box::from(&v[..])
            }
        }
        Arc::new(Document {
            doc_seq: DOC_SEQ.fetch_add(1, Ordering::Relaxed),
            nodes: exact(nodes),
            text: if text.len() == text.capacity() {
                text.into_boxed_str()
            } else {
                Box::from(text.as_str())
            },
            names: exact(names),
        })
    }

    /// Number of nodes including the document node.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document contains only the document node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Bytes this document occupies: the struct and its three buffers.
    /// The pooled names it points to are shared and not counted.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Document>()
            + std::mem::size_of_val(&*self.nodes)
            + self.text.len()
            + std::mem::size_of_val(&*self.names)
    }

    /// Whether some element's local name is `sym` (rule-trigger
    /// pre-filtering). A document without such an element usually lacks
    /// the name altogether, which its short name table settles; only a
    /// name it does use, possibly for attributes alone, costs a walk.
    pub fn has_element(&self, sym: Sym) -> bool {
        let named = |payload: usize| self.names[payload].sym == sym;
        (0..self.names.len()).any(named)
            && self
                .nodes
                .iter()
                .any(|n| n.kind() == Kind::Element && named(n.payload()))
    }

    /// The root node reference of this document.
    pub fn root(self: &Arc<Self>) -> NodeRef {
        self.node(NodeId::DOC)
    }

    /// A reference to node `id` (one `Arc` bump).
    pub fn node(self: &Arc<Self>, id: NodeId) -> NodeRef {
        NodeRef {
            doc: Arc::clone(self),
            id,
        }
    }

    /// The single top-level element, if there is exactly one.
    pub fn document_element(self: &Arc<Self>) -> Option<NodeRef> {
        let mut elements = self.children(NodeId::DOC).filter(|&c| self.is_element(c));
        let first = elements.next()?;
        elements.next().is_none().then(|| self.node(first))
    }

    fn n(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The value slice of node `i` (see [`Node`]).
    fn value(&self, i: usize) -> &str {
        let end = self
            .nodes
            .get(i + 1)
            .map_or(self.text.len(), |n| n.text as usize);
        &self.text[self.nodes[i].text as usize..end]
    }

    pub(crate) fn pooled_name(&self, id: NodeId) -> Option<&'static Name> {
        let n = self.n(id);
        matches!(n.kind(), Kind::Element | Kind::Attribute).then(|| self.names[n.payload()])
    }

    /// The kind of node `id`, borrowing its payload.
    pub fn kind(&self, id: NodeId) -> NodeKind<'_> {
        let i = id.0 as usize;
        let n = &self.nodes[i];
        match n.kind() {
            Kind::Document => NodeKind::Document,
            Kind::Element => NodeKind::Element(&self.names[n.payload()].qname),
            Kind::Attribute => NodeKind::Attribute(&self.names[n.payload()].qname, self.value(i)),
            Kind::Text => NodeKind::Text(self.value(i)),
            Kind::Comment => NodeKind::Comment(self.value(i)),
            Kind::Pi => {
                let (target, data) = self.value(i).split_at(n.payload());
                NodeKind::Pi { target, data }
            }
        }
    }

    /// Element or attribute name, if applicable.
    pub fn name(&self, id: NodeId) -> Option<&QName> {
        self.pooled_name(id).map(|n| &n.qname)
    }

    /// Interned local name of an element/attribute node (see [`crate::sym`]);
    /// `None` for unnamed node kinds. The evaluator's name tests compare
    /// this against a pre-interned test symbol.
    pub fn name_sym(&self, id: NodeId) -> Option<Sym> {
        self.pooled_name(id).map(|n| n.sym)
    }

    pub fn is_element(&self, id: NodeId) -> bool {
        self.n(id).kind() == Kind::Element
    }

    pub fn is_text(&self, id: NodeId) -> bool {
        self.n(id).kind() == Kind::Text
    }

    pub fn is_attribute(&self, id: NodeId) -> bool {
        self.n(id).kind() == Kind::Attribute
    }

    pub fn is_document(&self, id: NodeId) -> bool {
        self.n(id).kind() == Kind::Document
    }

    /// Parent node, if any. Attributes' parent is their element.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.n(id).parent;
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// Bytes of text, attribute, comment and PI values in `id`'s subtree.
    pub(crate) fn value_bytes(&self, id: NodeId) -> usize {
        let end = self.n(id).end as usize;
        let upto = self
            .nodes
            .get(end)
            .map_or(self.text.len(), |n| n.text as usize);
        upto - self.n(id).text as usize
    }

    /// One past the last id of `id`'s subtree.
    pub(crate) fn subtree_end(&self, id: NodeId) -> u32 {
        self.n(id).end
    }

    /// The id after `id`'s attribute run: its first child, if it has one.
    fn after_attributes(&self, id: NodeId) -> u32 {
        let mut i = id.0 + 1;
        while self
            .nodes
            .get(i as usize)
            .is_some_and(|n| n.kind() == Kind::Attribute && n.parent == id.0)
        {
            i += 1;
        }
        i
    }

    /// Attribute nodes of an element, in document order.
    pub fn attributes(&self, id: NodeId) -> Ids {
        Ids(id.0 + 1..self.after_attributes(id))
    }

    /// Children in document order (no attributes).
    pub fn children(&self, id: NodeId) -> Siblings<'_> {
        Siblings {
            doc: self,
            next: self.after_attributes(id),
            end: self.n(id).end,
        }
    }

    /// Following siblings in document order (none for attributes).
    pub fn following_siblings(&self, id: NodeId) -> Siblings<'_> {
        let n = self.n(id);
        let end = match n.kind() {
            Kind::Attribute | Kind::Document => n.end,
            _ => self.nodes[n.parent as usize].end,
        };
        Siblings {
            doc: self,
            next: n.end,
            end,
        }
    }

    /// Preceding siblings in reverse document order (none for attributes).
    pub fn preceding_siblings(&self, id: NodeId) -> PrecedingSiblings<'_> {
        let n = self.n(id);
        PrecedingSiblings {
            doc: self,
            cur: id.0,
            parent: match n.kind() {
                Kind::Attribute => NO_PARENT,
                _ => n.parent,
            },
        }
    }

    /// All descendant nodes (excluding `id`, excluding attributes), in
    /// document order.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            ids: id.0 + 1..self.n(id).end,
        }
    }

    /// Ancestors from parent to the document node.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            cur: self.n(id).parent,
        }
    }

    /// Look up an attribute value of element `id` by local name.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attributes(id)
            .find(|&a| self.names[self.n(a).payload()].qname.local == name)
            .map(|a| self.value(a.0 as usize))
    }

    /// The XPath string value: concatenation of all descendant text for
    /// elements/documents; the value itself for attributes/text/comments.
    /// Borrowed unless two or more text nodes have to be joined.
    pub fn string_value(&self, id: NodeId) -> Cow<'_, str> {
        let n = self.n(id);
        match n.kind() {
            Kind::Attribute | Kind::Text | Kind::Comment => {
                Cow::Borrowed(self.value(id.0 as usize))
            }
            Kind::Pi => Cow::Borrowed(&self.value(id.0 as usize)[n.payload()..]),
            Kind::Document | Kind::Element => {
                let mut texts = (id.0 as usize + 1..n.end as usize)
                    .filter(|&i| self.nodes[i].kind() == Kind::Text)
                    .map(|i| self.value(i));
                let Some(first) = texts.next() else {
                    return Cow::Borrowed("");
                };
                let Some(second) = texts.next() else {
                    return Cow::Borrowed(first);
                };
                let mut s = String::with_capacity(first.len() + second.len());
                s.push_str(first);
                s.push_str(second);
                s.extend(texts);
                Cow::Owned(s)
            }
        }
    }

    /// Deep structural equality of two subtrees (see
    /// [`NodeRef::deep_equal`]). Both are stored in pre-order, so equal
    /// trees are equal node sequences once each element's attribute run is
    /// compared as a set; comparing subtree sizes along the way pins the
    /// shape.
    pub fn deep_equal(&self, id: NodeId, other: &Document, other_id: NodeId) -> bool {
        let (mut i, mut j) = (id.0, other_id.0);
        let (end, other_end) = (self.n(id).end, other.n(other_id).end);
        if end - i != other_end - j {
            return false;
        }
        while i < end {
            let (a, b) = (self.n(NodeId(i)), other.n(NodeId(j)));
            if a.end - i != b.end - j {
                return false;
            }
            match (self.kind(NodeId(i)), other.kind(NodeId(j))) {
                (NodeKind::Element(an), NodeKind::Element(bn)) => {
                    if an != bn || !self.attributes_equal(NodeId(i), other, NodeId(j)) {
                        return false;
                    }
                    let skip = self.after_attributes(NodeId(i)) - i;
                    i += skip;
                    j += skip;
                    continue;
                }
                (a, b) if a != b => return false,
                _ => {}
            }
            i += 1;
            j += 1;
        }
        true
    }

    /// Attribute sets of two elements equal by name and value, in any order.
    fn attributes_equal(&self, id: NodeId, other: &Document, other_id: NodeId) -> bool {
        let (a, b) = (self.attributes(id), other.attributes(other_id));
        if a.len() != b.len() {
            return false;
        }
        let in_order = a
            .clone()
            .zip(b.clone())
            .all(|(x, y)| self.kind(x) == other.kind(y));
        if in_order {
            return true;
        }
        fn sorted(doc: &Document, ids: Ids) -> Vec<(Option<&QName>, &str)> {
            let mut v: Vec<_> = ids
                .map(|a| (doc.name(a), doc.value(a.0 as usize)))
                .collect();
            v.sort();
            v
        }
        sorted(self, a) == sorted(other, b)
    }
}

/// A run of consecutive node ids.
#[derive(Debug, Clone)]
pub struct Ids(Range<u32>);

impl Iterator for Ids {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        self.0.next().map(NodeId)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}
impl ExactSizeIterator for Ids {}

/// Sibling ids from `next` up to `end`, hopping over each one's subtree.
pub struct Siblings<'a> {
    doc: &'a Document,
    next: u32,
    end: u32,
}

impl Iterator for Siblings<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        (self.next < self.end).then(|| {
            let id = self.next;
            self.next = self.doc.nodes[id as usize].end;
            NodeId(id)
        })
    }
}

/// See [`Document::preceding_siblings`].
pub struct PrecedingSiblings<'a> {
    doc: &'a Document,
    cur: u32,
    parent: u32,
}

impl Iterator for PrecedingSiblings<'_> {
    type Item = NodeId;
    /// The node before `cur` in document order is the last node of the
    /// previous sibling's subtree (or the parent, or one of its
    /// attributes); climbing from it to the level below `parent` finds
    /// that sibling.
    fn next(&mut self) -> Option<NodeId> {
        if self.parent == NO_PARENT {
            return None;
        }
        let mut i = self.cur - 1;
        while i != self.parent {
            let n = &self.doc.nodes[i as usize];
            if n.parent == self.parent {
                if n.kind() == Kind::Attribute {
                    break;
                }
                self.cur = i;
                return Some(NodeId(i));
            }
            i = n.parent;
        }
        self.parent = NO_PARENT;
        None
    }
}

/// See [`Document::descendants`].
pub struct Descendants<'a> {
    doc: &'a Document,
    ids: Range<u32>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let doc = self.doc;
        self.ids
            .find(|&i| doc.nodes[i as usize].kind() != Kind::Attribute)
            .map(NodeId)
    }
}

/// See [`Document::ancestors`].
pub struct Ancestors<'a> {
    doc: &'a Document,
    cur: u32,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        (self.cur != NO_PARENT).then(|| {
            let id = self.cur;
            self.cur = self.doc.nodes[id as usize].parent;
            NodeId(id)
        })
    }
}

/// A reference to a node: a document handle plus a node id.
///
/// Cheap to clone (one `Arc` bump). Identity (`is_same_node`) and document
/// order are total across all documents.
#[derive(Clone)]
pub struct NodeRef {
    pub doc: Arc<Document>,
    pub id: NodeId,
}

impl fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NodeRef(doc={}, id={}, kind={:?})",
            self.doc.doc_seq,
            self.id.0,
            self.kind()
        )
    }
}

impl PartialEq for NodeRef {
    fn eq(&self, other: &Self) -> bool {
        self.is_same_node(other)
    }
}
impl Eq for NodeRef {}

impl PartialOrd for NodeRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NodeRef {
    /// Document order: within one document by node id (pre-order), across
    /// documents by document sequence number.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.doc.doc_seq, self.id).cmp(&(other.doc.doc_seq, other.id))
    }
}

impl std::hash::Hash for NodeRef {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.doc.doc_seq.hash(state);
        self.id.hash(state);
    }
}

/// Adapter turning an id iterator of one document into [`NodeRef`]s.
pub struct Nodes<'a, I> {
    doc: &'a Arc<Document>,
    ids: I,
}

impl<I: Iterator<Item = NodeId>> Iterator for Nodes<'_, I> {
    type Item = NodeRef;
    fn next(&mut self) -> Option<NodeRef> {
        self.ids.next().map(|id| self.doc.node(id))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl NodeRef {
    fn nodes<I>(&self, ids: I) -> Nodes<'_, I> {
        Nodes {
            doc: &self.doc,
            ids,
        }
    }

    /// Node identity: same document, same id.
    pub fn is_same_node(&self, other: &NodeRef) -> bool {
        self.doc.doc_seq == other.doc.doc_seq && self.id == other.id
    }

    /// The node kind.
    pub fn kind(&self) -> NodeKind<'_> {
        self.doc.kind(self.id)
    }

    /// Element or attribute name, if applicable.
    pub fn name(&self) -> Option<&QName> {
        self.doc.name(self.id)
    }

    /// See [`Document::name_sym`].
    pub fn name_sym(&self) -> Option<Sym> {
        self.doc.name_sym(self.id)
    }

    /// True for element nodes.
    pub fn is_element(&self) -> bool {
        self.doc.is_element(self.id)
    }

    /// True for text nodes.
    pub fn is_text(&self) -> bool {
        self.doc.is_text(self.id)
    }

    /// True for attribute nodes.
    pub fn is_attribute(&self) -> bool {
        self.doc.is_attribute(self.id)
    }

    /// True for the document node.
    pub fn is_document(&self) -> bool {
        self.doc.is_document(self.id)
    }

    /// Parent node, if any. Attributes' parent is their element.
    pub fn parent(&self) -> Option<NodeRef> {
        self.doc.parent(self.id).map(|p| self.doc.node(p))
    }

    /// Children in document order (no attributes).
    pub fn children(&self) -> Nodes<'_, Siblings<'_>> {
        self.nodes(self.doc.children(self.id))
    }

    /// Attribute nodes of an element.
    pub fn attributes(&self) -> Nodes<'_, Ids> {
        self.nodes(self.doc.attributes(self.id))
    }

    /// Look up an attribute value by local name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.doc.attribute(self.id, name)
    }

    /// See [`Document::descendants`].
    pub fn descendants(&self) -> Nodes<'_, Descendants<'_>> {
        self.nodes(self.doc.descendants(self.id))
    }

    /// Ancestors from parent to the document node.
    pub fn ancestors(&self) -> Nodes<'_, Ancestors<'_>> {
        self.nodes(self.doc.ancestors(self.id))
    }

    /// Following siblings in document order.
    pub fn following_siblings(&self) -> Nodes<'_, Siblings<'_>> {
        self.nodes(self.doc.following_siblings(self.id))
    }

    /// Preceding siblings in reverse document order.
    pub fn preceding_siblings(&self) -> Nodes<'_, PrecedingSiblings<'_>> {
        self.nodes(self.doc.preceding_siblings(self.id))
    }

    /// See [`Document::string_value`].
    pub fn string_value(&self) -> Cow<'_, str> {
        self.doc.string_value(self.id)
    }

    /// Serialize this node (and subtree) to markup.
    pub fn to_xml(&self) -> String {
        crate::serializer::serialize_node(self)
    }

    /// Deep structural equality (ignores node identity): kinds, names,
    /// attribute sets, and child sequences must match. Used by `fn:deep-equal`
    /// and tests.
    pub fn deep_equal(&self, other: &NodeRef) -> bool {
        self.doc.deep_equal(self.id, &other.doc, other.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn document_order_is_preorder() {
        let doc = parse("<a><b x='1'><c/></b><d/></a>").unwrap();
        let root = doc.document_element().unwrap();
        let desc: Vec<_> = root.descendants().collect();
        let names: Vec<_> = desc
            .iter()
            .filter_map(|n| n.name().map(|q| q.local.clone()))
            .collect();
        assert_eq!(names, ["b", "c", "d"]);
        // ids strictly increase in document order
        let mut sorted = desc.clone();
        sorted.sort();
        assert_eq!(
            desc.iter().map(|n| n.id).collect::<Vec<_>>(),
            sorted.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn attributes_sort_between_element_and_children() {
        let doc = parse("<a x='1'><b/></a>").unwrap();
        let a = doc.document_element().unwrap();
        let attr = a.attributes().next().unwrap();
        let b = a.children().next().unwrap();
        assert!(a < attr);
        assert!(attr < b);
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let doc = parse("<a>x<b>y</b>z</a>").unwrap();
        assert_eq!(doc.root().string_value(), "xyz");
    }

    #[test]
    fn string_value_borrows_a_single_text() {
        let doc = parse("<a p='v'><qty>3</qty><e/><!--c--></a>").unwrap();
        let a = doc.document_element().unwrap();
        let borrowed = |n: &NodeRef| matches!(n.string_value(), Cow::Borrowed(_));
        assert!(borrowed(&a) && a.string_value() == "3");
        for n in a.attributes().chain(a.children()) {
            assert!(borrowed(&n), "{n:?}");
        }
    }

    #[test]
    fn ancestors_and_siblings() {
        let doc = parse("<a><b/><c/><d/></a>").unwrap();
        let c = doc.document_element().unwrap().children().nth(1).unwrap();
        assert_eq!(c.ancestors().count(), 2); // a, document
        assert_eq!(c.following_siblings().count(), 1);
        assert_eq!(c.preceding_siblings().count(), 1);
        let b = c.preceding_siblings().next().unwrap();
        assert_eq!(b.name().unwrap().local, "b");
    }

    #[test]
    fn preceding_siblings_climb_out_of_nested_subtrees() {
        let doc = parse("<a p='1'>t<b><c q='2'><d/></c></b><!--x--><e/></a>").unwrap();
        let e = doc.document_element().unwrap().children().last().unwrap();
        let kinds: Vec<_> = e.preceding_siblings().map(|n| n.to_xml()).collect();
        assert_eq!(kinds, ["<!--x-->", "<b><c q=\"2\"><d/></c></b>", "t"]);
        let attr = doc.document_element().unwrap().attributes().next().unwrap();
        assert_eq!(attr.preceding_siblings().count(), 0);
        assert_eq!(attr.following_siblings().count(), 0);
    }

    #[test]
    fn deep_equal_ignores_attr_order() {
        let d1 = parse("<a x='1' y='2'><b/>t</a>").unwrap();
        let d2 = parse("<a y='2' x='1'><b/>t</a>").unwrap();
        let d3 = parse("<a y='2' x='9'><b/>t</a>").unwrap();
        assert!(d1.root().deep_equal(&d2.root()));
        assert!(!d1.root().deep_equal(&d3.root()));
    }

    #[test]
    fn deep_equal_sees_shape_not_just_node_sequence() {
        let nested = parse("<a><b><c/></b></a>").unwrap();
        let flat = parse("<a><b/><c/></a>").unwrap();
        assert!(!nested.root().deep_equal(&flat.root()));
    }

    #[test]
    fn has_element_tells_elements_from_attributes() {
        let doc = parse("<a x='1'><b/><c y='2'><b/></c></a>").unwrap();
        for (name, is_element) in [
            ("a", true),
            ("b", true),
            ("c", true),
            ("x", false),
            ("y", false),
            ("zz", false),
        ] {
            assert_eq!(
                doc.has_element(crate::sym::intern(name)),
                is_element,
                "{name}"
            );
        }
    }

    #[test]
    fn identity_differs_across_documents() {
        let d1 = parse("<a/>").unwrap();
        let d2 = parse("<a/>").unwrap();
        assert!(!d1.root().is_same_node(&d2.root()));
        assert!(d1.root().deep_equal(&d2.root()));
    }

    /// The 79-node purchase order of the `rules_cpu` benchmark workload.
    pub(crate) fn reference_order() -> String {
        let mut x = String::from(
            "<order id=\"o47\" region=\"EU\" priority=\"2\"><customer><id>c12</id>\
             <name>Customer 12</name><tier>gold</tier></customer><items>",
        );
        for i in 0..8 {
            x.push_str(&format!(
                "<item sku=\"s{}\"><qty>{}</qty><price>{}</price>\
                 <desc>alpha bravo charlie delta</desc></item>",
                100 + i * 37,
                1 + i,
                10 + i * 3
            ));
        }
        x.push_str(
            "</items><note>deliver to dock 17 between nine and five, call ahead</note></order>",
        );
        x
    }

    #[test]
    fn nodes_are_small_and_the_reference_order_fits_4k() {
        assert!(std::mem::size_of::<Node>() <= 24);
        let xml = reference_order();
        let doc = parse(&xml).unwrap();
        assert_eq!((xml.len(), doc.len()), (931, 79));
        assert!(doc.heap_bytes() <= 4096, "{} bytes", doc.heap_bytes());
    }
}
