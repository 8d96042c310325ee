//! Value and constructor semantics that do not depend on how an expression
//! is represented: the focus, axis traversal, node construction, set
//! operations, update operands, `order by` key comparison and the one `xs:`
//! cast table.
//!
//! [`PlanEvaluator`](crate::PlanEvaluator), the aggregate contributions and
//! the builtin functions use these directly; the reference AST interpreter
//! (the `demaq-xquery-reference` dev crate) uses them through the crate
//! root's re-exports, so the two evaluators cannot disagree here. What the
//! plan evaluator computes its own way (paths, comparisons and arithmetic
//! over borrowed atoms, FLWOR over slots) stays out, so the reference
//! checks it.

use crate::ast::{Axis, SetOp};
use crate::error::{Error, Result};
use crate::value::{parse_date_time, parse_duration, Atomic, Item, Sequence};
use demaq_xml::{DocBuilder, Document, NodeId, NodeRef, QName};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;

/// The focus: context item, position, and size (XPath `.`/`position()`/
/// `last()`).
#[derive(Clone)]
pub struct Focus {
    pub item: Item,
    pub pos: usize,
    pub size: usize,
}

impl Focus {
    pub fn solo(item: impl Into<Item>) -> Focus {
        Focus {
            item: item.into(),
            pos: 1,
            size: 1,
        }
    }
}

/// Visit the axis candidates (before node-test filtering) in the axis's
/// natural delivery order, until `f` breaks. Candidates are ids: a caller
/// pays for a [`NodeRef`] only for those it keeps.
pub fn for_each_on_axis<B>(
    axis: Axis,
    doc: &Document,
    id: NodeId,
    mut f: impl FnMut(NodeId) -> ControlFlow<B>,
) -> ControlFlow<B> {
    match axis {
        Axis::Child => doc.children(id).try_for_each(f),
        Axis::Descendant => doc.descendants(id).try_for_each(f),
        Axis::DescendantOrSelf => {
            f(id)?;
            doc.descendants(id).try_for_each(f)
        }
        Axis::Attribute => doc.attributes(id).try_for_each(f),
        Axis::SelfAxis => f(id),
        Axis::Parent => doc.parent(id).into_iter().try_for_each(f),
        Axis::Ancestor => doc.ancestors(id).try_for_each(f),
        Axis::AncestorOrSelf => {
            f(id)?;
            doc.ancestors(id).try_for_each(f)
        }
        Axis::FollowingSibling => doc.following_siblings(id).try_for_each(f),
        Axis::PrecedingSibling => doc.preceding_siblings(id).try_for_each(f),
    }
}

/// Assemble an element node from a name, literal attributes, and a
/// content sequence following the constructor content rules (`Content::push`).
pub fn assemble_element(
    name: &QName,
    attrs: &[(&QName, String)],
    content: Sequence,
) -> Result<NodeRef> {
    let mut b = DocBuilder::new();
    b.start(name);
    for (an, av) in attrs {
        b.attr(*an, av);
    }
    let mut rules = Content::default();
    for item in content.iter() {
        rules.push(&mut b, Part::Item(item))?;
    }
    b.end();
    let doc = b.finish();
    Ok(doc.document_element().expect("constructed element"))
}

/// One piece of constructor content.
pub(crate) enum Part<'a> {
    /// An evaluated item: an atomic becomes text, a node is deep-copied
    /// (a document node contributes its children).
    Item(&'a Item),
    /// Literal text of a direct constructor.
    Text(&'a str),
    /// A nested direct constructor, which the caller writes into the
    /// builder itself.
    Element,
}

/// The content of one element, or of one message document, being written
/// into a [`DocBuilder`]: what [`Content::push`] needs to remember of the
/// parts before.
#[derive(Default)]
pub(crate) struct Content {
    /// Writing a message document, where no attribute may appear.
    message: bool,
    has_child: bool,
    after_atomic: bool,
}

impl Content {
    /// Write `part` into `b` under the constructor content rules: adjacent
    /// atomics are joined with a space, an attribute node after element
    /// content is an error, and an empty literal text becomes `" "`.
    pub(crate) fn push(&mut self, b: &mut DocBuilder, part: Part) -> Result<()> {
        match part {
            Part::Item(Item::Atomic(a)) => {
                if self.after_atomic {
                    b.text(" ");
                }
                match a {
                    Atomic::Str(s) | Atomic::Untyped(s) => b.text(s),
                    other => b.text(other.to_str()),
                };
            }
            Part::Item(Item::Node(n)) if n.is_attribute() => {
                if self.message {
                    return Err(Error::type_error(
                        "cannot enqueue a bare attribute node as a message",
                    ));
                }
                if self.has_child {
                    return Err(Error::type_error(
                        "attribute constructed after element content",
                    ));
                }
                b.copy_node(n);
                self.after_atomic = false;
                return Ok(());
            }
            Part::Item(Item::Node(n)) => {
                b.copy_node(n);
            }
            Part::Text(t) => {
                b.text(if t.is_empty() { " " } else { t });
            }
            Part::Element => {}
        }
        self.has_child = true;
        self.after_atomic = matches!(part, Part::Item(Item::Atomic(_)));
        Ok(())
    }
}

/// Compare two evaluated order-key vectors; `flags[i]` is the i-th key's
/// `(descending, empty_greatest)` pair.
pub fn order_cmp(flags: &[(bool, bool)], ka: &[Sequence], kb: &[Sequence]) -> Ordering {
    for (i, &(descending, empty_greatest)) in flags.iter().enumerate() {
        let a = ka[i].iter().next().map(Item::atomize);
        let b = kb[i].iter().next().map(Item::atomize);
        let ord = match (&a, &b) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => {
                if empty_greatest {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (Some(_), None) => {
                if empty_greatest {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (Some(x), Some(y)) => x.value_cmp(y).unwrap_or(Ordering::Equal),
        };
        let ord = if descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Join the atomized items with single spaces (attribute/text content rule).
pub fn atomics_joined(seq: &Sequence) -> String {
    let mut out = String::new();
    push_atomics_joined(&mut out, seq);
    out
}

/// [`atomics_joined`], appended to `out`.
pub fn push_atomics_joined(out: &mut String, seq: &Sequence) {
    for (i, item) in seq.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match item {
            Item::Node(n) => out.push_str(&n.string_value()),
            Item::Atomic(Atomic::Str(s) | Atomic::Untyped(s)) => out.push_str(s),
            Item::Atomic(a) => out.push_str(&a.to_str()),
        }
    }
}

/// Convert an evaluated sequence into a standalone message document:
/// nodes are deep-copied (elements of documents unwrap), atomics become
/// text. A fresh construction is not copied: one element that is the only
/// child of a document no one else holds already is that document.
pub fn sequence_to_document(seq: &Sequence) -> Result<Arc<Document>> {
    if let [Item::Node(n)] = seq.as_slice() {
        let doc = &n.doc;
        let only_child =
            doc.parent(n.id) == Some(NodeId::DOC) && doc.children(NodeId::DOC).nth(1).is_none();
        if Arc::strong_count(doc) == 1 && doc.is_element(n.id) && only_child {
            return Ok(Arc::clone(doc));
        }
    }
    let mut b = DocBuilder::new();
    let mut rules = Content {
        message: true,
        ..Content::default()
    };
    for item in seq.iter() {
        rules.push(&mut b, Part::Item(item))?;
    }
    Ok(b.finish())
}

/// The name a computed constructor evaluated to; `what` names the
/// operand in the error.
pub fn computed_name(v: &Sequence, what: &str) -> Result<QName> {
    QName::parse_lexical(&v.string_value()?)
        .ok_or_else(|| Error::dynamic(format!("invalid {what} name")))
}

/// `attribute name {v}`. An orphan attribute lives under a holder element;
/// constructor assembly recognizes it and reattaches it.
pub fn computed_attribute(name: QName, v: &Sequence) -> NodeRef {
    let mut b = DocBuilder::new();
    b.start("attr-holder").attr(name, atomics_joined(v)).end();
    let doc = b.finish();
    let holder = doc.document_element().expect("holder");
    holder.attributes().next().expect("held attribute")
}

/// `text {v}`: no node for an empty `v`.
pub fn computed_text(v: &Sequence) -> Sequence {
    if v.is_empty() {
        return Sequence::empty();
    }
    let mut b = DocBuilder::new();
    b.text(atomics_joined(v));
    let doc = b.finish();
    doc.root()
        .children()
        .next()
        .map(Item::Node)
        .into_iter()
        .collect()
}

/// `comment {v}`.
pub fn computed_comment(v: &Sequence) -> NodeRef {
    let mut b = DocBuilder::new();
    b.comment(atomics_joined(v));
    let doc = b.finish();
    doc.root().children().next().expect("comment child")
}

/// `document {v}`: atomics as text, nodes deep-copied.
pub fn computed_document(v: &Sequence) -> NodeRef {
    let mut b = DocBuilder::new();
    for item in v.iter() {
        match item {
            Item::Atomic(a) => b.text(a.to_str()),
            Item::Node(n) => b.copy_node(n),
        };
    }
    b.finish().root()
}

/// `a to b`.
pub fn range(a: &Sequence, b: &Sequence) -> Result<Sequence> {
    if a.is_empty() || b.is_empty() {
        return Ok(Sequence::empty());
    }
    let from = a.exactly_one()?.atomize().cast_integer()?;
    let to = b.exactly_one()?.atomize().cast_integer()?;
    Ok((from..=to).map(|i| Item::Atomic(Atomic::Int(i))).collect())
}

/// Unary minus.
pub fn negate(v: &Sequence) -> Result<Sequence> {
    if v.is_empty() {
        return Ok(Sequence::empty());
    }
    Ok(match v.exactly_one()?.atomize() {
        Atomic::Int(i) => Sequence::int(-i),
        a => Sequence::one(Atomic::Double(-a.to_double())),
    })
}

/// `v instance of ty`, for the single-item types the parser accepts.
pub fn instance_of(v: &Sequence, ty: &str) -> bool {
    match v.as_slice() {
        [Item::Atomic(a)] => a.type_name() == ty,
        [Item::Node(_)] => ty == "node()" || ty == "item()",
        _ => false,
    }
}

/// `union`, `intersect` and `except`: nodes only, in document order,
/// without duplicates. Membership is by hashed node identity.
pub fn set_op(op: SetOp, l: &Sequence, r: &Sequence) -> Result<Sequence> {
    let nodes = |s: &Sequence| -> Result<Vec<NodeRef>> {
        s.iter()
            .map(|i| {
                i.as_node()
                    .cloned()
                    .ok_or_else(|| Error::type_error("set operand must be nodes"))
            })
            .collect()
    };
    let (ln, rn) = (nodes(l)?, nodes(r)?);
    let identity = |n: &NodeRef| (n.doc.doc_seq, n.id);
    let combined: Vec<NodeRef> = match op {
        SetOp::Union => ln.into_iter().chain(rn).collect(),
        SetOp::Intersect | SetOp::Except => {
            let rset: HashSet<_> = rn.iter().map(identity).collect();
            let keep = op == SetOp::Intersect;
            ln.into_iter()
                .filter(|n| rset.contains(&identity(n)) == keep)
                .collect()
        }
    };
    combined
        .into_iter()
        .map(Item::Node)
        .collect::<Sequence>()
        .document_order_dedup()
}

/// The value of one `with name value v` property of `do enqueue`: its one
/// item atomized, or the empty string.
pub fn enqueue_prop(name: &str, v: &Sequence) -> Result<Atomic> {
    match v.as_slice() {
        [] => Ok(Atomic::Str(String::new())),
        [item] => Ok(item.atomize()),
        _ => Err(Error::type_error(format!(
            "property `{name}` value must be a single item"
        ))),
    }
}

/// Cast an atomic to the `xs:` type `ty`: the one cast table behind
/// `cast as`, the `xs:` constructor functions and the engine's typed
/// properties. Takes the value, so a string cast to a string is a move.
pub fn cast(a: Atomic, ty: &str) -> Result<Atomic> {
    let fail = |a: &Atomic| Error::type_error(format!("cannot cast `{}` to {ty}", a.to_str()));
    match ty {
        "xs:string" | "string" => Ok(match a {
            Atomic::Str(s) | Atomic::Untyped(s) => Atomic::Str(s),
            other => Atomic::Str(other.to_str()),
        }),
        "xs:boolean" | "boolean" => Ok(Atomic::Bool(a.cast_boolean()?)),
        "xs:integer" | "xs:int" | "xs:long" | "integer" => Ok(Atomic::Int(a.cast_integer()?)),
        "xs:double" | "double" => cast_number(&a, true)
            .map(Atomic::Double)
            .ok_or_else(|| fail(&a)),
        "xs:decimal" | "decimal" => cast_number(&a, false)
            .map(Atomic::Decimal)
            .ok_or_else(|| fail(&a)),
        "xs:dateTime" | "dateTime" => match &a {
            Atomic::DateTime(_) => Ok(a),
            Atomic::Str(s) | Atomic::Untyped(s) => parse_date_time(s)
                .map(Atomic::DateTime)
                .ok_or_else(|| fail(&a)),
            _ => Err(fail(&a)),
        },
        "xs:dayTimeDuration" | "xs:duration" => match &a {
            Atomic::Duration(_) => Ok(a),
            Atomic::Str(s) | Atomic::Untyped(s) => parse_duration(s)
                .map(Atomic::Duration)
                .ok_or_else(|| fail(&a)),
            _ => Err(fail(&a)),
        },
        "xs:untypedAtomic" => Ok(Atomic::Untyped(match a {
            Atomic::Str(s) | Atomic::Untyped(s) => s,
            other => other.to_str(),
        })),
        other => Err(Error::type_error(format!(
            "unsupported cast target `{other}`"
        ))),
    }
}

/// `a` as an `xs:double` (`special`: `NaN`, `INF` and `-INF` are valid
/// lexical forms) or an `xs:decimal` (they are not); `None` when the cast
/// is not allowed — text that is no number, or a date, duration or QName.
fn cast_number(a: &Atomic, special: bool) -> Option<f64> {
    match a {
        Atomic::Str(s) | Atomic::Untyped(s) => match s.trim() {
            "NaN" if special => Some(f64::NAN),
            "INF" if special => Some(f64::INFINITY),
            "-INF" if special => Some(f64::NEG_INFINITY),
            // Digits, signs, point and exponent only: Rust's parser also
            // reads `inf` and `nan`, which XML Schema does not.
            t => {
                let numeral = t
                    .bytes()
                    .all(|b| b.is_ascii_digit() || b"+-.eE".contains(&b));
                numeral.then(|| t.parse().ok()).flatten()
            }
        },
        Atomic::Int(_) | Atomic::Decimal(_) | Atomic::Double(_) | Atomic::Bool(_) => {
            Some(a.to_double())
        }
        Atomic::DateTime(_) | Atomic::Duration(_) | Atomic::QName(_) => None,
    }
}
