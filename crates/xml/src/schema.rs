//! Structural "schema-lite" validation.
//!
//! QDL's `create queue ... schema <name>` clause lets an application demand
//! that every queued message conform to a schema; Demaq raises a
//! message-related error otherwise (paper Sec. 3.6: "rules create messages
//! whose schema is incompatible with the target queue's schema").
//!
//! The paper references full XML Schema; we substitute a compact structural
//! language that covers what the paper's scenarios rely on — element
//! vocabularies, content models with occurrence indicators, required
//! attributes, and a typed-text check:
//!
//! ```text
//! schema order-schema
//! root order
//! element order { orderID, customer, items+ } attrs { date }
//! element orderID text integer
//! element customer { name, address? }
//! element items { item* }
//! element item text
//! element name text
//! element address text
//! ```
//!
//! Occurrence indicators: none = exactly one, `?` = optional, `*` = any,
//! `+` = at least one. Children may appear in any order (interleave
//! semantics, closer to RELAX NG than DTD sequences, and forgiving enough
//! for message payloads). Elements not declared are rejected; an element
//! declared as `element x any` admits arbitrary content.

use crate::tree::{Document, NodeId, NodeKind, NodeRef, Siblings};
use std::collections::HashMap;
use std::fmt;

/// Occurrence constraint for a child element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurs {
    One,
    Optional,
    Many,
    OneOrMore,
}

impl Occurs {
    fn admits(&self, n: usize) -> bool {
        match self {
            Occurs::One => n == 1,
            Occurs::Optional => n <= 1,
            Occurs::Many => true,
            Occurs::OneOrMore => n >= 1,
        }
    }
}

/// Text content constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TextType {
    #[default]
    None,
    /// Any character data.
    Any,
    /// Must parse as an integer.
    Integer,
    /// Must parse as a decimal number.
    Decimal,
    /// Must be `true`/`false`/`1`/`0`.
    Boolean,
}

/// Declaration of one element.
#[derive(Debug, Clone, Default)]
pub struct ElementDecl {
    /// Allowed children with occurrence constraints.
    pub children: Vec<(String, Occurs)>,
    /// Required attribute names.
    pub attrs: Vec<String>,
    /// Text content constraint.
    pub text: TextType,
    /// If true, arbitrary content is accepted below this element.
    pub any: bool,
}

/// A parsed schema: named element declarations plus a root element name.
#[derive(Debug, Clone)]
pub struct Schema {
    pub name: String,
    pub root: Option<String>,
    pub elements: HashMap<String, ElementDecl>,
}

/// A validation failure with a path to the offending node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    pub path: String,
    pub msg: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema violation at {}: {}", self.path, self.msg)
    }
}
impl std::error::Error for SchemaError {}

impl Schema {
    /// Parse the schema-lite text format. Lines: `schema NAME`,
    /// `root NAME`, `element NAME [any] [{ child[?*+], ... }]
    /// [attrs { a, b }] [text [integer|decimal|boolean]]`.
    /// `#` starts a comment.
    pub fn parse(input: &str) -> Result<Schema, String> {
        let mut schema = Schema {
            name: String::new(),
            root: None,
            elements: HashMap::new(),
        };
        for (lineno, raw) in input.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |m: String| format!("schema line {}: {}", lineno + 1, m);
            let (kw, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match kw {
                "schema" => schema.name = rest.to_string(),
                "root" => schema.root = Some(rest.to_string()),
                "element" => {
                    let (name, decl) = parse_element_line(rest).map_err(err)?;
                    if schema.elements.insert(name.clone(), decl).is_some() {
                        return Err(err(format!("duplicate element declaration `{name}`")));
                    }
                }
                other => return Err(err(format!("unknown keyword `{other}`"))),
            }
        }
        // Referential integrity: every referenced child must be declared.
        for (name, decl) in &schema.elements {
            for (child, _) in &decl.children {
                if !schema.elements.contains_key(child) {
                    return Err(format!(
                        "element `{name}` references undeclared child `{child}`"
                    ));
                }
            }
        }
        if let Some(root) = &schema.root {
            if !schema.elements.contains_key(root) {
                return Err(format!("root element `{root}` is not declared"));
            }
        }
        Ok(schema)
    }

    /// Validate a document node (or element). Returns all violations.
    pub fn validate(&self, node: &NodeRef) -> Vec<SchemaError> {
        let mut errors = Vec::new();
        let doc = &*node.doc;
        let element = if node.is_document() {
            match doc.children(node.id).find(|&c| doc.is_element(c)) {
                Some(e) => e,
                None => {
                    errors.push(SchemaError {
                        path: "/".into(),
                        msg: "document has no element".into(),
                    });
                    return errors;
                }
            }
        } else {
            node.id
        };
        if let Some(root) = &self.root {
            let actual = doc.name(element).map_or("", |q| q.local.as_str());
            if actual != root {
                errors.push(SchemaError {
                    path: format!("/{actual}"),
                    msg: format!("root element must be `{root}`"),
                });
                return errors;
            }
        }
        self.validate_element(doc, element, &mut errors);
        errors
    }

    /// Convenience: true when the node has no violations.
    pub fn is_valid(&self, node: &NodeRef) -> bool {
        self.validate(node).is_empty()
    }

    /// Check `root` and everything below it, reporting violations in
    /// document order. Elements being checked sit on an explicit stack, so
    /// a deeply nested message cannot exhaust the call stack.
    fn validate_element(&self, doc: &Document, root: NodeId, errors: &mut Vec<SchemaError>) {
        /// An element whose children are being walked.
        struct Frame<'a> {
            el: NodeId,
            name: &'a str,
            decl: &'a ElementDecl,
            children: Siblings<'a>,
            /// Occurrences so far, per entry of `decl.children`.
            counts: Vec<usize>,
            /// Length of the path without this element's step.
            path_len: usize,
        }
        let mut path = String::new();
        let mut stack: Vec<Frame> = Vec::new();
        let mut entering = Some(root);
        loop {
            if let Some(el) = entering.take() {
                let name = doc.name(el).map_or("", |q| q.local.as_str());
                let path_len = path.len();
                path.push('/');
                path.push_str(name);
                let mut fail = |msg: String| {
                    errors.push(SchemaError {
                        path: path.clone(),
                        msg,
                    })
                };
                match self.elements.get(name) {
                    None => fail(format!("undeclared element `{name}`")),
                    Some(decl) if decl.any => {}
                    Some(decl) => {
                        for required in &decl.attrs {
                            if doc.attribute(el, required).is_none() {
                                fail(format!("missing required attribute `{required}`"));
                            }
                        }
                        stack.push(Frame {
                            el,
                            name,
                            decl,
                            children: doc.children(el),
                            counts: vec![0; decl.children.len()],
                            path_len,
                        });
                        continue;
                    }
                }
                path.truncate(path_len);
            }
            let Some(frame) = stack.last_mut() else {
                return;
            };
            let (name, decl) = (frame.name, frame.decl);
            let mut fail = |msg: String| {
                errors.push(SchemaError {
                    path: path.clone(),
                    msg,
                })
            };
            // Child vocabulary: walk on until a child has to be entered.
            for c in frame.children.by_ref() {
                match doc.kind(c) {
                    NodeKind::Element(q) => {
                        match decl.children.iter().position(|(n, _)| *n == q.local) {
                            None => fail(format!("child `{}` not allowed in `{name}`", q.local)),
                            Some(i) => {
                                frame.counts[i] += 1;
                                entering = Some(c);
                                break;
                            }
                        }
                    }
                    NodeKind::Text(t) if decl.text == TextType::None && !t.trim().is_empty() => {
                        fail(format!("text content not allowed in `{name}`"));
                    }
                    _ => {}
                }
            }
            if entering.is_some() {
                continue;
            }
            // All children seen: occurrences, then the typed text check.
            for ((child, occurs), &n) in decl.children.iter().zip(&frame.counts) {
                if !occurs.admits(n) {
                    fail(format!(
                        "child `{child}` occurs {n} times, violating {occurs:?}"
                    ));
                }
            }
            let ok = |text: &str| match decl.text {
                TextType::None | TextType::Any => true,
                TextType::Integer => text.parse::<i64>().is_ok(),
                TextType::Decimal => text.parse::<f64>().is_ok(),
                TextType::Boolean => matches!(text, "true" | "false" | "1" | "0"),
            };
            if !matches!(decl.text, TextType::None | TextType::Any) {
                let text = doc.string_value(frame.el);
                let text = text.trim();
                if !ok(text) {
                    fail(format!("text `{text}` does not match {:?}", decl.text));
                }
            }
            path.truncate(frame.path_len);
            stack.pop();
        }
    }
}

fn parse_element_line(rest: &str) -> Result<(String, ElementDecl), String> {
    let mut decl = ElementDecl::default();
    let mut s = rest.trim();
    let name_end = s.find(|c: char| c.is_whitespace()).unwrap_or(s.len());
    let name = s[..name_end].to_string();
    if name.is_empty() {
        return Err("element declaration needs a name".into());
    }
    s = s[name_end..].trim();
    loop {
        if s.is_empty() {
            break;
        } else if let Some(r) = s.strip_prefix("any") {
            decl.any = true;
            s = r.trim();
        } else if s.starts_with('{') {
            let close = s.find('}').ok_or("unclosed `{`")?;
            for part in s[1..close].split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                let (child, occurs) = match part.chars().last() {
                    Some('?') => (&part[..part.len() - 1], Occurs::Optional),
                    Some('*') => (&part[..part.len() - 1], Occurs::Many),
                    Some('+') => (&part[..part.len() - 1], Occurs::OneOrMore),
                    _ => (part, Occurs::One),
                };
                decl.children.push((child.trim().to_string(), occurs));
            }
            s = s[close + 1..].trim();
        } else if let Some(r) = s.strip_prefix("attrs") {
            let r = r.trim();
            let r = r.strip_prefix('{').ok_or("attrs needs `{`")?;
            let close = r.find('}').ok_or("unclosed attrs `{`")?;
            for part in r[..close].split(',') {
                let part = part.trim();
                if !part.is_empty() {
                    decl.attrs.push(part.to_string());
                }
            }
            s = r[close + 1..].trim();
        } else if let Some(r) = s.strip_prefix("text") {
            let r = r.trim();
            let (ty, rem) = if let Some(x) = r.strip_prefix("integer") {
                (TextType::Integer, x)
            } else if let Some(x) = r.strip_prefix("decimal") {
                (TextType::Decimal, x)
            } else if let Some(x) = r.strip_prefix("boolean") {
                (TextType::Boolean, x)
            } else {
                (TextType::Any, r)
            };
            decl.text = ty;
            s = rem.trim();
        } else {
            return Err(format!("unexpected tokens `{s}`"));
        }
    }
    Ok((name, decl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const ORDER_SCHEMA: &str = "
        schema order
        root order
        element order { orderID, item+ } attrs { date }
        element orderID text integer
        element item text
    ";

    fn schema() -> Schema {
        Schema::parse(ORDER_SCHEMA).unwrap()
    }

    #[test]
    fn valid_document_passes() {
        let doc = parse("<order date='2026-07-05'><orderID>7</orderID><item>acid</item></order>")
            .unwrap();
        assert!(
            schema().is_valid(&doc.root()),
            "{:?}",
            schema().validate(&doc.root())
        );
    }

    #[test]
    fn wrong_root_rejected() {
        let doc = parse("<invoice/>").unwrap();
        let errs = schema().validate(&doc.root());
        assert!(errs[0].msg.contains("root element"));
    }

    #[test]
    fn missing_required_attr() {
        let doc = parse("<order><orderID>7</orderID><item>x</item></order>").unwrap();
        let errs = schema().validate(&doc.root());
        assert!(errs.iter().any(|e| e.msg.contains("date")));
    }

    #[test]
    fn occurrence_violations() {
        let doc =
            parse("<order date='d'><orderID>1</orderID><orderID>2</orderID></order>").unwrap();
        let errs = schema().validate(&doc.root());
        assert!(errs.iter().any(|e| e.msg.contains("orderID")));
        assert!(errs.iter().any(|e| e.msg.contains("item")));
    }

    #[test]
    fn typed_text() {
        let doc = parse("<order date='d'><orderID>seven</orderID><item>x</item></order>").unwrap();
        let errs = schema().validate(&doc.root());
        assert!(errs.iter().any(|e| e.msg.contains("Integer")));
    }

    #[test]
    fn undeclared_child_rejected() {
        let doc =
            parse("<order date='d'><orderID>1</orderID><item>x</item><extra/></order>").unwrap();
        let errs = schema().validate(&doc.root());
        assert!(errs.iter().any(|e| e.msg.contains("extra")));
    }

    #[test]
    fn any_element_admits_everything() {
        let s = Schema::parse("root e\nelement e any").unwrap();
        let doc = parse("<e><x><y z='1'>t</y></x></e>").unwrap();
        assert!(s.is_valid(&doc.root()));
    }

    #[test]
    fn schema_parse_errors() {
        assert!(Schema::parse("element a { b }").is_err()); // b undeclared
        assert!(Schema::parse("root r").is_err()); // r undeclared
        assert!(Schema::parse("bogus x").is_err());
        assert!(Schema::parse("element a { b").is_err()); // unclosed brace
    }
}
