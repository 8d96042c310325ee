//! The flat tree against a pointer tree that lives only here.
//!
//! Random documents (namespaces, attributes, mixed content, comments, PIs,
//! CDATA, entity and character references, multi-byte names and text) are
//! built three ways — through [`DocBuilder`], by parsing markup, and as a
//! naive `Vec`-of-children tree — and must agree on serialization, every
//! axis, string values, names, deep equality and document order. A second
//! group of tests pins the parser, and everything that walks a tree, to
//! linear time and constant stack.

use demaq_xml::schema::Schema;
use demaq_xml::{parse, serialize, sym, DocBuilder, Document, NodeId, QName};
use proptest::test_runner::TestRng;
use std::sync::Arc;

// ---- the naive tree --------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Document,
    Element(QName),
    Attribute(QName, String),
    Text(String),
    Comment(String),
    Pi(String, String),
}

/// A node owning its attributes and children, the way a DOM would.
#[derive(Debug, Clone)]
struct Naive {
    kind: Kind,
    attrs: Vec<Naive>,
    children: Vec<Naive>,
}

impl Naive {
    fn leaf(kind: Kind) -> Naive {
        Naive {
            kind,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    fn string_value(&self) -> String {
        match &self.kind {
            Kind::Attribute(_, v) | Kind::Text(v) | Kind::Comment(v) | Kind::Pi(_, v) => v.clone(),
            Kind::Document | Kind::Element(_) => self
                .children
                .iter()
                .filter(|c| matches!(c.kind, Kind::Text(_) | Kind::Element(_)))
                .map(Naive::string_value)
                .collect(),
        }
    }

    fn to_xml(&self, out: &mut String) {
        let escape = |s: &str, attr: bool| {
            let mut e = s.replace('&', "&amp;").replace('<', "&lt;");
            if attr {
                e = e
                    .replace('"', "&quot;")
                    .replace('\n', "&#10;")
                    .replace('\t', "&#9;");
            } else {
                e = e.replace('>', "&gt;");
            }
            e
        };
        match &self.kind {
            Kind::Document => self.children.iter().for_each(|c| c.to_xml(out)),
            Kind::Element(name) => {
                out.push_str(&format!("<{}", name.lexical()));
                self.attrs.iter().for_each(|a| a.to_xml(out));
                if self.children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    self.children.iter().for_each(|c| c.to_xml(out));
                    out.push_str(&format!("</{}>", name.lexical()));
                }
            }
            Kind::Attribute(name, v) => {
                out.push_str(&format!(" {}=\"{}\"", name.lexical(), escape(v, true)))
            }
            Kind::Text(t) => out.push_str(&escape(t, false)),
            Kind::Comment(c) => out.push_str(&format!("<!--{c}-->")),
            Kind::Pi(t, d) if d.is_empty() => out.push_str(&format!("<?{t}?>")),
            Kind::Pi(t, d) => out.push_str(&format!("<?{t} {d}?>")),
        }
    }

    fn build(&self, b: &mut DocBuilder) {
        match &self.kind {
            Kind::Document => self.children.iter().for_each(|c| c.build(b)),
            Kind::Element(name) => {
                b.start(name);
                self.attrs.iter().for_each(|a| a.build(b));
                self.children.iter().for_each(|c| c.build(b));
                b.end();
            }
            Kind::Attribute(name, v) => {
                b.attr(name, v);
            }
            Kind::Text(t) => {
                b.text(t);
            }
            Kind::Comment(c) => {
                b.comment(c);
            }
            Kind::Pi(t, d) => {
                b.pi(t, d);
            }
        }
    }

    /// Pre-order (element, its attributes, its children) with the links the
    /// axes are read off: a node's position in the result is the id the
    /// flat tree must give it.
    fn flatten(&self) -> Vec<Flat> {
        fn go(n: &Naive, parent: Option<usize>, out: &mut Vec<Flat>) -> usize {
            let at = out.len();
            out.push(Flat {
                kind: n.kind.clone(),
                string_value: n.string_value(),
                parent,
                attrs: Vec::new(),
                children: Vec::new(),
            });
            let attrs = n.attrs.iter().map(|a| go(a, Some(at), out)).collect();
            let children = n.children.iter().map(|c| go(c, Some(at), out)).collect();
            out[at].attrs = attrs;
            out[at].children = children;
            at
        }
        let mut out = Vec::new();
        go(self, None, &mut out);
        out
    }
}

struct Flat {
    kind: Kind,
    string_value: String,
    parent: Option<usize>,
    attrs: Vec<usize>,
    children: Vec<usize>,
}

// ---- the generator ---------------------------------------------------------

const NAMES: [&str; 8] = ["a", "b", "item", "qty", "größe", "名前", "x-1", "_u.v"];
const TEXTS: [&str; 12] = [
    "x",
    " ",
    "1 < 2",
    "a & b",
    "]]>",
    "\"q\" 'p'",
    "grüße",
    "漢字",
    "\u{10348}",
    "tab\there",
    "line\nbreak",
    "> gt",
];
const PREFIXES: [(&str, &str); 2] = [("p", "urn:p"), ("q", "urn:q")];

struct Gen {
    rng: TestRng,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    fn text(&mut self) -> String {
        (0..1 + self.below(3)).map(|_| self.pick(&TEXTS)).collect()
    }

    /// A name that is unprefixed (in `default_ns` when `use_default`) or
    /// under one of the prefixes the root declares.
    fn name(&mut self, default_ns: Option<&str>, use_default: bool) -> QName {
        let local = self.pick(&NAMES);
        if self.below(4) == 0 {
            let (prefix, ns) = self.pick(&PREFIXES);
            QName::full(ns, prefix, local)
        } else {
            QName {
                ns: default_ns.filter(|_| use_default).map(str::to_string),
                prefix: None,
                local: local.to_string(),
            }
        }
    }

    fn element(&mut self, depth: usize, mut default_ns: Option<&'static str>, root: bool) -> Naive {
        let mut attrs = Vec::new();
        let declare = |name: &str, uri: &str| {
            Naive::leaf(Kind::Attribute(QName::local(name), uri.to_string()))
        };
        if root {
            attrs.extend(PREFIXES.map(|(p, uri)| declare(&format!("xmlns:{p}"), uri)));
        }
        if self.below(6) == 0 {
            default_ns = self.pick(&[Some("urn:d"), Some("urn:e"), None]);
            attrs.push(declare("xmlns", default_ns.unwrap_or("")));
        }
        let name = self.name(default_ns, true);
        for _ in 0..self.below(4) {
            let attr = self.name(default_ns, false);
            let taken = |a: &Naive| matches!(&a.kind, Kind::Attribute(n, _) if *n == attr);
            if !attrs.iter().any(taken) {
                attrs.push(Naive::leaf(Kind::Attribute(attr, self.text())));
            }
        }
        let mut children: Vec<Naive> = Vec::new();
        for _ in 0..(if depth == 0 { 0 } else { self.below(5) }) {
            let after_text = matches!(children.last(), Some(c) if matches!(c.kind, Kind::Text(_)));
            children.push(match self.below(7) {
                0 if !after_text => Naive::leaf(Kind::Text(self.text())),
                1 => Naive::leaf(Kind::Comment(
                    self.pick(&["", "note", " a - b ", "größe"]).into(),
                )),
                2 => Naive::leaf(Kind::Pi(
                    self.pick(&["t", "xml-stylesheet", "名前"]).into(),
                    self.pick(&["", "d", "href='a.xsl' ?", "漢 字"]).into(),
                )),
                _ => self.element(depth - 1, default_ns, false),
            });
        }
        Naive {
            kind: Kind::Element(name),
            attrs,
            children,
        }
    }

    fn document(&mut self) -> Naive {
        let misc = |g: &mut Gen| match g.below(3) {
            0 => vec![Naive::leaf(Kind::Comment("top".into()))],
            1 => vec![Naive::leaf(Kind::Pi("xml-model".into(), "m".into()))],
            _ => vec![],
        };
        let mut children = misc(self);
        children.push(self.element(4, None, true));
        children.extend(misc(self));
        Naive {
            kind: Kind::Document,
            attrs: Vec::new(),
            children,
        }
    }

    /// `canonical` markup respelled: text in CDATA sections or with its
    /// characters as references, apostrophes around attribute values. Only
    /// spellings of the same document.
    fn respell(&mut self, tree: &Naive, out: &mut String) {
        match &tree.kind {
            Kind::Text(t) if !t.contains("]]>") && self.below(3) == 0 => {
                out.push_str(&format!("<![CDATA[{t}]]>"));
            }
            Kind::Text(t) if self.below(3) == 0 => {
                for c in t.chars() {
                    match self.below(3) {
                        0 => out.push_str(&format!("&#{};", c as u32)),
                        1 => out.push_str(&format!("&#x{:X};", c as u32)),
                        _ => Naive::leaf(Kind::Text(c.to_string())).to_xml(out),
                    }
                }
            }
            Kind::Attribute(name, v) if !v.contains('\'') && self.below(2) == 0 => {
                let v = v.replace('&', "&amp;").replace('<', "&lt;");
                let v = v.replace('\n', "&#xA;").replace('\t', "&#x9;");
                out.push_str(&format!("\n  {} = '{v}'", name.lexical()));
            }
            Kind::Element(name) if !tree.children.is_empty() => {
                out.push_str(&format!("<{}", name.lexical()));
                tree.attrs.iter().for_each(|a| self.respell(a, out));
                out.push_str(" >");
                tree.children.iter().for_each(|c| self.respell(c, out));
                out.push_str(&format!("</{} >", name.lexical()));
            }
            Kind::Document => {
                out.push_str("<?xml version=\"1.0\"?>\n");
                tree.children.iter().for_each(|c| self.respell(c, out));
            }
            _ => tree.to_xml(out),
        }
    }
}

// ---- the oracle ------------------------------------------------------------

fn ids(it: impl Iterator<Item = NodeId>) -> Vec<usize> {
    it.map(|id| id.0 as usize).collect()
}

fn check_against_naive(doc: &Arc<Document>, flat: &[Flat]) {
    assert_eq!(doc.len(), flat.len());
    let descendants = |i: usize| {
        fn go(flat: &[Flat], i: usize, out: &mut Vec<usize>) {
            for &c in &flat[i].children {
                out.push(c);
                go(flat, c, out);
            }
        }
        let mut out = Vec::new();
        go(flat, i, &mut out);
        out
    };
    for (i, want) in flat.iter().enumerate() {
        let id = NodeId(i as u32);
        let node = doc.node(id);
        let ctx = format!("node {i} of {}", serialize(doc));
        // Kind, name, symbol, values.
        let kind = match node.kind() {
            demaq_xml::NodeKind::Document => Kind::Document,
            demaq_xml::NodeKind::Element(q) => Kind::Element(q.clone()),
            demaq_xml::NodeKind::Attribute(q, v) => Kind::Attribute(q.clone(), v.into()),
            demaq_xml::NodeKind::Text(t) => Kind::Text(t.into()),
            demaq_xml::NodeKind::Comment(c) => Kind::Comment(c.into()),
            demaq_xml::NodeKind::Pi { target, data } => Kind::Pi(target.into(), data.into()),
        };
        assert_eq!(kind, want.kind, "{ctx}");
        if let Kind::Element(q) | Kind::Attribute(q, _) = &want.kind {
            // QName equality ignores the prefix; the tree must keep it.
            assert_eq!(node.name().unwrap().prefix, q.prefix, "{ctx}");
            assert_eq!(node.name_sym(), Some(sym::intern(&q.local)), "{ctx}");
        } else {
            assert_eq!((node.name(), node.name_sym()), (None, None), "{ctx}");
        }
        assert_eq!(node.string_value(), want.string_value, "{ctx}");
        // The axes, in their delivery order.
        let ancestors: Vec<usize> =
            std::iter::successors(want.parent, |&p| flat[p].parent).collect();
        let siblings = match (&want.kind, want.parent) {
            (Kind::Attribute(..), _) | (_, None) => &[][..],
            (_, Some(p)) => &flat[p].children[..],
        };
        let at = siblings.iter().position(|&s| s == i).unwrap_or(0);
        let (before, after) = (&siblings[..at], siblings.get(at + 1..).unwrap_or(&[]));
        let or_self = |rest: Vec<usize>| [vec![i], rest].concat();
        assert_eq!(ids(doc.children(id)), want.children, "child, {ctx}");
        assert_eq!(ids(doc.attributes(id)), want.attrs, "attribute, {ctx}");
        assert_eq!(
            ids(doc.descendants(id)),
            descendants(i),
            "descendant, {ctx}"
        );
        assert_eq!(
            or_self(ids(doc.descendants(id))),
            or_self(descendants(i)),
            "descendant-or-self, {ctx}"
        );
        assert_eq!(
            ids(doc.parent(id).into_iter()),
            want.parent.into_iter().collect::<Vec<_>>(),
            "parent, {ctx}"
        );
        assert_eq!(ids(doc.ancestors(id)), ancestors, "ancestor, {ctx}");
        assert_eq!(
            or_self(ids(doc.ancestors(id))),
            or_self(ancestors.clone()),
            "ancestor-or-self, {ctx}"
        );
        assert_eq!(
            ids(doc.following_siblings(id)),
            after,
            "following-sibling, {ctx}"
        );
        let preceding: Vec<usize> = before.iter().rev().copied().collect();
        assert_eq!(
            ids(doc.preceding_siblings(id)),
            preceding,
            "preceding-sibling, {ctx}"
        );
        // Document order is id order, and `NodeRef`s sort by it.
        if i > 0 {
            assert!(doc.node(NodeId(i as u32 - 1)) < node, "{ctx}");
        }
    }
}

#[test]
fn flat_tree_agrees_with_the_naive_tree() {
    for seed in 0..300 {
        let mut g = Gen {
            rng: TestRng::seed_from_u64(seed),
        };
        let tree = g.document();
        let flat = tree.flatten();
        let mut canonical = String::new();
        tree.to_xml(&mut canonical);
        let mut respelled = String::new();
        g.respell(&tree, &mut respelled);

        let mut b = DocBuilder::new();
        tree.build(&mut b);
        let built = b.finish();
        let reparsed = parse(&serialize(&built)).unwrap_or_else(|e| panic!("{e}: {canonical}"));
        let parsed = parse(&respelled).unwrap_or_else(|e| panic!("{e}: {respelled}"));

        let text_bytes: usize = flat
            .iter()
            .map(|f| match &f.kind {
                Kind::Attribute(_, v) | Kind::Text(v) | Kind::Comment(v) => v.len(),
                Kind::Pi(t, d) => t.len() + d.len(),
                _ => 0,
            })
            .sum();
        for doc in [&built, &reparsed, &parsed] {
            assert_eq!(serialize(doc), canonical, "seed {seed}");
            check_against_naive(doc, &flat);
            assert!(
                doc.root().deep_equal(&built.root()),
                "seed {seed}: {canonical}"
            );
            assert!(
                doc.heap_bytes() <= 32 * flat.len() + text_bytes + 256,
                "seed {seed}: {} bytes for {} nodes, {text_bytes} text bytes",
                doc.heap_bytes(),
                flat.len()
            );
        }
        // Every subtree serializes, and compares, on its own.
        for (i, f) in flat.iter().enumerate() {
            if let Kind::Element(_) = f.kind {
                let (a, b) = (built.node(NodeId(i as u32)), parsed.node(NodeId(i as u32)));
                assert_eq!(a.to_xml(), b.to_xml(), "seed {seed}");
                assert!(a.deep_equal(&b), "seed {seed}");
            }
        }
    }
}

#[test]
fn deep_equal_sees_one_changed_leaf_and_ignores_attribute_order() {
    /// The `k`-th leaf (attribute, text, comment, PI or empty element) in
    /// document order, counting `k` down.
    fn leaf<'a>(n: &'a mut Naive, k: &mut usize) -> Option<&'a mut Naive> {
        if n.attrs.is_empty() && n.children.is_empty() {
            if *k == 0 {
                return Some(n);
            }
            *k -= 1;
            return None;
        }
        let below = n.attrs.iter_mut().chain(n.children.iter_mut());
        below.into_iter().find_map(|c| leaf(c, k))
    }
    fn reverse_attrs(n: &mut Naive) {
        n.attrs.reverse();
        n.children.iter_mut().for_each(reverse_attrs);
    }
    let build = |tree: &Naive| {
        let mut b = DocBuilder::new();
        tree.build(&mut b);
        b.finish()
    };
    for seed in 0..100 {
        let mut g = Gen {
            rng: TestRng::seed_from_u64(1000 + seed),
        };
        let tree = g.document();
        let original = build(&tree);

        let mut shuffled = tree.clone();
        reverse_attrs(&mut shuffled);
        assert!(
            original.root().deep_equal(&build(&shuffled).root()),
            "seed {seed}"
        );

        let mut changed = tree.clone();
        let flat = tree.flatten();
        let leaves = flat
            .iter()
            .filter(|f| f.attrs.is_empty() && f.children.is_empty());
        let victim = leaf(&mut changed, &mut g.below(leaves.count())).expect("a leaf");
        victim.kind = match &victim.kind {
            Kind::Element(q) => Kind::Element(QName::local(format!("{}x", q.local))),
            Kind::Attribute(q, v) => Kind::Attribute(q.clone(), format!("{v}!")),
            Kind::Text(t) => Kind::Text(format!("{t}!")),
            Kind::Comment(c) => Kind::Comment(format!("{c}!")),
            Kind::Pi(t, d) => Kind::Pi(t.clone(), format!("{d}!")),
            Kind::Document => unreachable!("the document node has children"),
        };
        assert!(
            !original.root().deep_equal(&build(&changed).root()),
            "seed {seed}"
        );
    }
}

// ---- linear time, constant stack --------------------------------------------
//
// No clocks: each input is sized so that a quadratic parser needs minutes
// and a recursive walker overflows the 2 MB test-thread stack.

const MB: usize = 1 << 20;

#[test]
fn four_megabytes_of_text_parse_in_one_pass() {
    let text = "lorem ipsum dolor sit amet ".repeat(4 * MB / 27);
    let doc = parse(&format!("<a>{text}</a>")).unwrap();
    assert_eq!(doc.len(), 3);
    assert_eq!(doc.root().string_value(), text);
}

#[test]
fn a_four_megabyte_attribute_value_parses_in_one_pass() {
    let value = "0123456789abcdef".repeat(4 * MB / 16);
    let doc = parse(&format!("<a v=\"{value}\"/>")).unwrap();
    assert_eq!(
        doc.document_element().unwrap().attribute("v"),
        Some(&value[..])
    );
}

#[test]
fn two_hundred_thousand_siblings_parse_and_navigate() {
    let xml = format!("<r>{}</r>", "<e/>".repeat(200_000));
    let doc = parse(&xml).unwrap();
    let r = doc.document_element().unwrap();
    assert_eq!(r.children().count(), 200_000);
    let last = r.children().last().unwrap();
    assert_eq!(last.preceding_siblings().count(), 199_999);
    assert_eq!(serialize(&doc), xml);
}

#[test]
fn many_distinct_names_and_attributes_stay_linear() {
    // 100 000 distinct element names, then one element with 100 000
    // attributes: name lookup and duplicate detection may not scan.
    let mut xml = String::from("<r>");
    for i in 0..100_000 {
        xml.push_str(&format!("<n{i}/>"));
    }
    xml.push_str("<wide");
    for i in 0..100_000 {
        xml.push_str(&format!(" a{i}=\"{i}\""));
    }
    xml.push_str("/></r>");
    let doc = parse(&xml).unwrap();
    assert_eq!(doc.len(), 200_003);
    assert_eq!(serialize(&doc), xml);
    let dup = xml.replace(" a99999=", " a7=");
    assert_eq!(parse(&dup).unwrap_err().msg, "duplicate attribute `a7`");
    // The builder's name table, fed the same names, does not repeat them.
    let mut b = DocBuilder::new();
    b.copy_node(&doc.root()).copy_node(&doc.root());
    let (names, one_node) = (200_002, 16);
    let shared = std::mem::size_of::<Document>() + one_node + names * 8;
    assert_eq!(b.finish().heap_bytes(), 2 * doc.heap_bytes() - shared);
}

#[test]
fn a_200_000_deep_document_needs_no_stack() {
    const DEPTH: usize = 200_000;
    let xml = format!("{}x{}", "<a>".repeat(DEPTH), "</a>".repeat(DEPTH));
    let doc = parse(&xml).unwrap();
    assert_eq!(doc.len(), DEPTH + 2);
    assert_eq!(serialize(&doc), xml);
    let root = doc.root();
    assert_eq!(root.string_value(), "x");
    assert_eq!(root.descendants().filter(|n| n.is_element()).count(), DEPTH);
    let innermost = root.descendants().last().unwrap();
    assert_eq!(innermost.ancestors().count(), DEPTH + 1);
    // Copying, comparing and validating walk the same depth.
    let mut b = DocBuilder::new();
    b.copy_node(&root);
    let copy = b.finish();
    assert!(copy.root().deep_equal(&root));
    let schema = Schema::parse("root a\nelement a { a? } text").unwrap();
    assert!(schema.validate(&root).is_empty());
    let strict = Schema::parse("root a\nelement a { a? }").unwrap();
    assert_eq!(strict.validate(&root).len(), 1); // the innermost text
    drop((doc, copy));
}
