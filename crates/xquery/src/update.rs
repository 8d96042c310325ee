//! Pending update lists (XQuery Update Facility) with Demaq's queue
//! extensions.
//!
//! Updating expressions never mutate anything during evaluation. They append
//! [`Update`] records to the evaluator's pending list; the caller applies
//! them afterwards — the paper's snapshot semantics ("pending update list of
//! update primitives that are applied after the entire statement has been
//! evaluated", Sec. 3.2).
//!
//! Demaq's rule engine consumes [`Update::Enqueue`] and [`Update::Reset`].
//! The XQUF tree primitives operate copy-on-write via
//! [`apply_tree_updates`], producing *new* documents — stored messages are
//! immutable (append-only store), so tree updates are only legal against
//! trees constructed inside the rule body.

use crate::ast::InsertPos;
use crate::error::{Error, Result};
use crate::value::Atomic;
use demaq_xml::{DocBuilder, Document, NodeId, NodeKind, NodeRef, QName};
use std::collections::HashMap;
use std::sync::Arc;

/// One pending update primitive.
#[derive(Debug, Clone)]
pub enum Update {
    /// `do enqueue <msg> into <queue> with p value v ...` — the central
    /// Demaq action (paper Sec. 3.4).
    Enqueue {
        queue: QName,
        message: Arc<Document>,
        /// Explicit property values supplied via `with ... value ...`.
        props: Vec<(String, Atomic)>,
    },
    /// `do reset [slicing key k]` — begin a new slice lifetime
    /// (paper Sec. 3.5.3).
    Reset {
        slicing: Option<QName>,
        key: Option<Atomic>,
    },
    /// XQUF insert.
    Insert {
        target: NodeRef,
        pos: InsertPos,
        content: Vec<NodeRef>,
    },
    /// XQUF delete.
    Delete { target: NodeRef },
    /// XQUF replace (node).
    Replace {
        target: NodeRef,
        content: Vec<NodeRef>,
    },
    /// XQUF replace value of (string value).
    ReplaceValue { target: NodeRef, value: String },
    /// XQUF rename.
    Rename { target: NodeRef, name: QName },
}

impl Update {
    /// Is this one of the Demaq queue primitives (vs. an XQUF tree update)?
    pub fn is_queue_update(&self) -> bool {
        matches!(self, Update::Enqueue { .. } | Update::Reset { .. })
    }
}

/// Per-node modification plan assembled from the tree updates of one doc.
#[derive(Default)]
struct NodePlan {
    delete: bool,
    rename: Option<QName>,
    replace: Option<Vec<NodeRef>>,
    replace_value: Option<String>,
    insert_first: Vec<NodeRef>,
    insert_last: Vec<NodeRef>,
    insert_before: Vec<NodeRef>,
    insert_after: Vec<NodeRef>,
}

/// Apply all *tree* updates on the list, returning the rebuilt documents
/// keyed by the original document's sequence number. Queue updates are
/// ignored (the engine handles those). Errors on conflicting updates
/// (two `replace` on the same node — XUDY0016-style).
pub fn apply_tree_updates(updates: &[Update]) -> Result<HashMap<u64, Arc<Document>>> {
    // Group plans per (doc, node).
    type DocPlans = HashMap<u64, (NodeRef, HashMap<NodeId, NodePlan>)>;
    let mut docs: DocPlans = HashMap::new();
    fn plan_for<'a>(docs: &'a mut DocPlans, node: &NodeRef) -> &'a mut NodePlan {
        let entry = docs
            .entry(node.doc.doc_seq)
            .or_insert_with(|| (node.doc.root(), HashMap::new()));
        entry.1.entry(node.id).or_default()
    }
    for u in updates {
        match u {
            Update::Enqueue { .. } | Update::Reset { .. } => {}
            Update::Delete { target } => plan_for(&mut docs, target).delete = true,
            Update::Rename { target, name } => {
                let p = plan_for(&mut docs, target);
                if p.rename.is_some() {
                    return Err(Error::update("two renames target the same node"));
                }
                p.rename = Some(name.clone());
            }
            Update::Replace { target, content } => {
                if target.parent().is_none() {
                    return Err(Error::update("cannot replace a root node"));
                }
                let p = plan_for(&mut docs, target);
                if p.replace.is_some() {
                    return Err(Error::update("two replaces target the same node"));
                }
                p.replace = Some(content.clone());
            }
            Update::ReplaceValue { target, value } => {
                let p = plan_for(&mut docs, target);
                if p.replace_value.is_some() {
                    return Err(Error::update("two value replaces target the same node"));
                }
                p.replace_value = Some(value.clone());
            }
            Update::Insert {
                target,
                pos,
                content,
            } => {
                let p = plan_for(&mut docs, target);
                match pos {
                    InsertPos::Into | InsertPos::IntoAsLast => {
                        p.insert_last.extend(content.iter().cloned())
                    }
                    InsertPos::IntoAsFirst => p.insert_first.extend(content.iter().cloned()),
                    InsertPos::Before => p.insert_before.extend(content.iter().cloned()),
                    InsertPos::After => p.insert_after.extend(content.iter().cloned()),
                }
            }
        }
    }

    let mut out = HashMap::new();
    for (seq, (root, plans)) in docs {
        let mut b = DocBuilder::new();
        rebuild(&root, &plans, &mut b)?;
        out.insert(seq, b.finish());
    }
    Ok(out)
}

fn rebuild(node: &NodeRef, plans: &HashMap<NodeId, NodePlan>, b: &mut DocBuilder) -> Result<()> {
    let plan = plans.get(&node.id);
    if let Some(p) = plan {
        for n in &p.insert_before {
            b.copy_node(n);
        }
        if p.delete {
            for n in &p.insert_after {
                b.copy_node(n);
            }
            return Ok(());
        }
        if let Some(content) = &p.replace {
            for n in content {
                b.copy_node(n);
            }
            for n in &p.insert_after {
                b.copy_node(n);
            }
            return Ok(());
        }
    }
    match node.kind() {
        NodeKind::Document => {
            for c in node.children() {
                rebuild(&c, plans, b)?;
            }
        }
        NodeKind::Element(q) => {
            b.start(plan.and_then(|p| p.rename.as_ref()).unwrap_or(q));
            for a in node.attributes() {
                // Attribute-level plans: delete / rename / replace value.
                if let Some(ap) = plans.get(&a.id) {
                    if ap.delete {
                        continue;
                    }
                    if let NodeKind::Attribute(an, av) = a.kind() {
                        let name = ap.rename.as_ref().unwrap_or(an);
                        let value = ap.replace_value.as_deref().unwrap_or(av);
                        b.attr(name, value);
                    }
                    continue;
                }
                b.copy_node(&a);
            }
            if let Some(p) = plan {
                if let Some(v) = &p.replace_value {
                    b.text(v);
                    b.end();
                    if !p.insert_after.is_empty() {
                        for n in &p.insert_after {
                            b.copy_node(n);
                        }
                    }
                    return Ok(());
                }
                for n in &p.insert_first {
                    b.copy_node(n);
                }
            }
            for c in node.children() {
                rebuild(&c, plans, b)?;
            }
            if let Some(p) = plan {
                for n in &p.insert_last {
                    b.copy_node(n);
                }
            }
            b.end();
        }
        NodeKind::Text(t) => {
            b.text(plan.and_then(|p| p.replace_value.as_deref()).unwrap_or(t));
        }
        NodeKind::Comment(c) => {
            b.comment(plan.and_then(|p| p.replace_value.as_deref()).unwrap_or(c));
        }
        NodeKind::Pi { target, data } => {
            b.pi(target, data);
        }
        NodeKind::Attribute(..) => {
            return Err(Error::update(
                "attribute updates must go through the owner element",
            ));
        }
    }
    if let Some(p) = plan {
        for n in &p.insert_after {
            b.copy_node(n);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_xml::parse;

    fn find(doc: &Arc<Document>, name: &str) -> NodeRef {
        doc.root()
            .descendants()
            .find(|n| n.name().map(|q| q.local == name).unwrap_or(false))
            .unwrap()
    }

    #[test]
    fn delete_node() {
        let doc = parse("<a><b/><c/></a>").unwrap();
        let ups = vec![Update::Delete {
            target: find(&doc, "b"),
        }];
        let rebuilt = apply_tree_updates(&ups).unwrap();
        let new_doc = &rebuilt[&doc.doc_seq];
        assert_eq!(new_doc.root().to_xml(), "<a><c/></a>");
    }

    #[test]
    fn insert_positions() {
        let doc = parse("<a><b/></a>").unwrap();
        let x = parse("<x/>").unwrap().document_element().unwrap();
        let y = parse("<y/>").unwrap().document_element().unwrap();
        let z = parse("<z/>").unwrap().document_element().unwrap();
        let w = parse("<w/>").unwrap().document_element().unwrap();
        let a = find(&doc, "a");
        let b = find(&doc, "b");
        let ups = vec![
            Update::Insert {
                target: a.clone(),
                pos: InsertPos::IntoAsFirst,
                content: vec![x],
            },
            Update::Insert {
                target: a,
                pos: InsertPos::IntoAsLast,
                content: vec![y],
            },
            Update::Insert {
                target: b.clone(),
                pos: InsertPos::Before,
                content: vec![z],
            },
            Update::Insert {
                target: b,
                pos: InsertPos::After,
                content: vec![w],
            },
        ];
        let rebuilt = apply_tree_updates(&ups).unwrap();
        assert_eq!(
            rebuilt[&doc.doc_seq].root().to_xml(),
            "<a><x/><z/><b/><w/><y/></a>"
        );
    }

    #[test]
    fn replace_and_rename() {
        let doc = parse("<a><b>old</b></a>").unwrap();
        let repl = parse("<n>new</n>").unwrap().document_element().unwrap();
        let ups = vec![
            Update::Replace {
                target: find(&doc, "b"),
                content: vec![repl],
            },
            Update::Rename {
                target: find(&doc, "a"),
                name: QName::local("r"),
            },
        ];
        let rebuilt = apply_tree_updates(&ups).unwrap();
        assert_eq!(rebuilt[&doc.doc_seq].root().to_xml(), "<r><n>new</n></r>");
    }

    #[test]
    fn replace_value_of_element() {
        let doc = parse("<a><b><c/>junk</b></a>").unwrap();
        let ups = vec![Update::ReplaceValue {
            target: find(&doc, "b"),
            value: "clean".into(),
        }];
        let rebuilt = apply_tree_updates(&ups).unwrap();
        assert_eq!(rebuilt[&doc.doc_seq].root().to_xml(), "<a><b>clean</b></a>");
    }

    #[test]
    fn attribute_updates() {
        let doc = parse("<a p=\"1\" q=\"2\"/>").unwrap();
        let attrs: Vec<_> = doc.document_element().unwrap().attributes().collect();
        let ups = vec![
            Update::Delete {
                target: attrs[0].clone(),
            },
            Update::ReplaceValue {
                target: attrs[1].clone(),
                value: "9".into(),
            },
        ];
        let rebuilt = apply_tree_updates(&ups).unwrap();
        assert_eq!(rebuilt[&doc.doc_seq].root().to_xml(), "<a q=\"9\"/>");
    }

    #[test]
    fn conflicting_replaces_rejected() {
        let doc = parse("<a><b/></a>").unwrap();
        let r = parse("<x/>").unwrap().document_element().unwrap();
        let ups = vec![
            Update::Replace {
                target: find(&doc, "b"),
                content: vec![r.clone()],
            },
            Update::Replace {
                target: find(&doc, "b"),
                content: vec![r],
            },
        ];
        assert!(apply_tree_updates(&ups).is_err());
    }

    #[test]
    fn replacing_root_rejected() {
        let doc = parse("<a/>").unwrap();
        let r = parse("<x/>").unwrap().document_element().unwrap();
        let ups = vec![Update::Replace {
            target: doc.root(),
            content: vec![r],
        }];
        assert!(apply_tree_updates(&ups).is_err());
    }

    #[test]
    fn updates_do_not_touch_original() {
        let doc = parse("<a><b/></a>").unwrap();
        let before = doc.root().to_xml();
        let ups = vec![Update::Delete {
            target: find(&doc, "b"),
        }];
        let _ = apply_tree_updates(&ups).unwrap();
        assert_eq!(doc.root().to_xml(), before, "source document is immutable");
    }
}
