//! Lowered execution plans.
//!
//! [`lower`] compiles an [`Expr`] tree (the output of the Demaq rule
//! compiler's `compile` stage, paper Sec. 4.4.1) into a [`Plan`]:
//! the same operator tree, but with every name resolved ahead of time so
//! the per-message hot path does no string work:
//!
//! * element/attribute name tests carry interned [`Sym`] ids — a name test
//!   is one `u32` comparison against [`NodeRef::name_sym`] instead of a
//!   string compare (see [`demaq_xml::sym`]),
//! * variable references become frame-slot indices ([`Plan::Slot`],
//!   de Bruijn style): the evaluator's environment is a plain
//!   `Vec<Sequence>` indexed by position, not a name-searched assoc list,
//! * constant subexpressions are folded at lower time ([`Plan::Const`]) —
//!   only where folding provably cannot hide a runtime error,
//! * paths in effective-boolean-value position (trigger conditions,
//!   `where` clauses, quantifier bodies) become [`Plan::Exists`], which
//!   stops at the first matching node instead of materializing and
//!   sorting the full node sequence,
//! * [`lower_rules`] lowers a queue's rule bodies against one table of the
//!   message-only subexpressions they share ([`crate::share`]): every
//!   occurrence becomes [`Plan::Shared`], which the evaluator computes once
//!   per message.
//!
//! [`PlanEvaluator`] is the only evaluator in the shipped crates: the
//! engine's rule bodies and property bindings, [`eval_query`](crate::eval_query)
//! and the E2 slice-scan baseline all run on it. Lowering must not change
//! what an expression means, so the dev-only `demaq-xquery-reference`
//! crate keeps a tree-walking interpreter over the unlowered [`Expr`], and
//! its differential suites hold the two to the same results, pending
//! updates and errors.

use crate::aggregate::{AggCatalog, AggId, AggregateSpec};
use crate::ast::*;
use crate::context::DynamicContext;
use crate::error::{Error, Result};
use crate::functions;
use crate::semantics::{
    assemble_element, atomics_joined, cast, computed_attribute, computed_comment,
    computed_document, computed_name, computed_text, enqueue_prop, for_each_on_axis, instance_of,
    negate, order_cmp, push_atomics_joined, range, sequence_to_document, set_op, update_content,
    update_target, Content, Focus, Part,
};
use crate::update::Update;
use crate::value::{AtomView, Atomic, Item, Sequence};
use demaq_xml::sym::{self, Sym};
use demaq_xml::{DocBuilder, Document, NodeId, NodeKind, NodeRef, QName};
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

static PLANS_LOWERED: AtomicU64 = AtomicU64::new(0);
static EBV_SHORT_CIRCUITS: AtomicU64 = AtomicU64::new(0);

/// Number of expression trees lowered to plans since process start
/// (`demaq_xquery_plans_lowered_total`).
pub fn plans_lowered_total() -> u64 {
    PLANS_LOWERED.load(AtomicOrdering::Relaxed)
}

/// Number of existence evaluations that stopped at the first matching node
/// (`demaq_xquery_ebv_short_circuits_total`).
pub fn ebv_short_circuits_total() -> u64 {
    EBV_SHORT_CIRCUITS.load(AtomicOrdering::Relaxed)
}

/// A pre-resolved node test: name comparisons are `Sym` equality, with the
/// namespace compared only when the test carries one (mirroring
/// [`QName::matches`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PTest {
    Name { sym: Sym, ns: Option<String> },
    AnyName,
    AnyKind,
    Text,
    Comment,
    Element(Option<(Sym, Option<String>)>),
    Attribute(Option<(Sym, Option<String>)>),
    Pi(Option<String>),
    Document,
}

pub(crate) fn lower_test(test: &NodeTest) -> PTest {
    let named = |q: &QName| (sym::intern(&q.local), q.ns.clone());
    match test {
        NodeTest::Name(q) => {
            let (sym, ns) = named(q);
            PTest::Name { sym, ns }
        }
        NodeTest::AnyName => PTest::AnyName,
        NodeTest::AnyKind => PTest::AnyKind,
        NodeTest::Text => PTest::Text,
        NodeTest::Comment => PTest::Comment,
        NodeTest::Element(q) => PTest::Element(q.as_ref().map(&named)),
        NodeTest::Attribute(q) => PTest::Attribute(q.as_ref().map(&named)),
        NodeTest::Pi(t) => PTest::Pi(t.clone()),
        NodeTest::Document => PTest::Document,
    }
}

/// Sym-fast name match: local names compare as integers; namespaces are
/// only consulted when both the test and the node carry one.
fn name_matches(doc: &Document, id: NodeId, sym: Sym, ns: &Option<String>) -> bool {
    if doc.name_sym(id) != Some(sym) {
        return false;
    }
    match (ns, doc.name(id).and_then(|q| q.ns.as_ref())) {
        (Some(t), Some(n)) => t == n,
        _ => true,
    }
}

pub(crate) fn ptest_matches(axis: Axis, doc: &Document, id: NodeId, test: &PTest) -> bool {
    // Namespace declarations are stored as attributes for serialization
    // fidelity but are not addressable via the attribute axis.
    if axis == Axis::Attribute {
        if let Some(q) = doc.name(id) {
            if q.local == "xmlns" || q.local.starts_with("xmlns:") {
                return false;
            }
        }
    }
    let principal = |id| {
        if axis == Axis::Attribute {
            doc.is_attribute(id)
        } else {
            doc.is_element(id)
        }
    };
    match test {
        PTest::AnyKind => true,
        PTest::Text => doc.is_text(id),
        PTest::Comment => matches!(doc.kind(id), NodeKind::Comment(_)),
        PTest::Document => doc.is_document(id),
        PTest::AnyName => principal(id),
        PTest::Name { sym, ns } => principal(id) && name_matches(doc, id, *sym, ns),
        PTest::Element(q) => {
            doc.is_element(id)
                && q.as_ref()
                    .is_none_or(|(s, ns)| name_matches(doc, id, *s, ns))
        }
        PTest::Attribute(q) => {
            doc.is_attribute(id)
                && q.as_ref()
                    .is_none_or(|(s, ns)| name_matches(doc, id, *s, ns))
        }
        PTest::Pi(target) => match doc.kind(id) {
            NodeKind::Pi { target: t, .. } => target.as_ref().is_none_or(|x| x == t),
            _ => false,
        },
    }
}

/// Hand `keep` the nodes on `axis` from `node` that pass `test`, in axis
/// order. Candidates are tested by id; only the ones kept become
/// [`NodeRef`]s.
pub(crate) fn step_nodes(axis: Axis, node: &NodeRef, test: &PTest, mut keep: impl FnMut(NodeRef)) {
    let doc = &node.doc;
    let _ = for_each_on_axis(axis, doc, node.id, |id| {
        if ptest_matches(axis, doc, id, test) {
            keep(doc.node(id));
        }
        ControlFlow::<()>::Continue(())
    });
}

/// A lowered FLWOR clause; binding names are gone — each clause pushes its
/// slot(s) at a statically known frame position.
#[derive(Debug, Clone)]
pub enum PClause {
    /// Pushes one slot.
    Let { value: Plan },
    /// Pushes one slot, plus a positional slot when `at` is set.
    For { at: bool, source: Plan },
}

#[derive(Debug, Clone)]
pub struct POrderSpec {
    pub key: Plan,
    pub descending: bool,
    pub empty_greatest: bool,
}

#[derive(Debug, Clone)]
pub enum PContent {
    Text(String),
    Expr(Plan),
}

#[derive(Debug, Clone)]
pub enum PAttrPart {
    Text(String),
    Expr(Plan),
}

/// The lowered operator tree. Mirrors [`Expr`] except that literals fold
/// into [`Plan::Const`], variables resolve to [`Plan::Slot`] /
/// [`Plan::FreeVar`], node tests are [`PTest`]s, and existence-only paths
/// become [`Plan::Exists`].
#[derive(Debug, Clone)]
pub enum Plan {
    Const(Sequence),
    /// Lexical variable resolved to an absolute frame index.
    Slot(usize),
    /// Variable not bound lexically; resolved from the dynamic context at
    /// run time (externally supplied variables).
    FreeVar(String),
    ContextItem,
    Sequence(Vec<Plan>),
    FunctionCall {
        name: QName,
        args: Vec<Plan>,
    },
    Path {
        root: bool,
        steps: Vec<Plan>,
    },
    Step {
        axis: Axis,
        test: PTest,
        predicates: Vec<Plan>,
    },
    Filter {
        base: Box<Plan>,
        predicates: Vec<Plan>,
    },
    RelativePath {
        base: Box<Plan>,
        step: Box<Plan>,
        descend: bool,
    },
    Or(Box<Plan>, Box<Plan>),
    And(Box<Plan>, Box<Plan>),
    Comparison {
        op: CompOp,
        left: Box<Plan>,
        right: Box<Plan>,
    },
    Arith {
        op: ArithOp,
        left: Box<Plan>,
        right: Box<Plan>,
    },
    Set {
        op: SetOp,
        left: Box<Plan>,
        right: Box<Plan>,
    },
    Range(Box<Plan>, Box<Plan>),
    Neg(Box<Plan>),
    If {
        cond: Box<Plan>,
        then: Box<Plan>,
        els: Option<Box<Plan>>,
    },
    Flwor {
        clauses: Vec<PClause>,
        where_: Option<Box<Plan>>,
        order: Vec<POrderSpec>,
        ret: Box<Plan>,
    },
    Quantified {
        every: bool,
        /// Binding sources in clause order; each pushes one slot.
        bindings: Vec<Plan>,
        satisfies: Box<Plan>,
    },
    DirectElement {
        name: QName,
        attrs: Vec<(QName, Vec<PAttrPart>)>,
        content: Vec<PContent>,
    },
    ComputedElement {
        name: Box<Plan>,
        content: Box<Plan>,
    },
    ComputedAttribute {
        name: Box<Plan>,
        content: Box<Plan>,
    },
    ComputedText(Box<Plan>),
    ComputedComment(Box<Plan>),
    ComputedDocument(Box<Plan>),
    Enqueue {
        message: Box<Plan>,
        queue: QName,
        props: Vec<(String, Plan)>,
    },
    Reset {
        slicing: Option<QName>,
        key: Option<Box<Plan>>,
    },
    Insert {
        source: Box<Plan>,
        pos: InsertPos,
        target: Box<Plan>,
    },
    Delete {
        target: Box<Plan>,
    },
    Replace {
        target: Box<Plan>,
        source: Box<Plan>,
        value_of: bool,
    },
    Rename {
        target: Box<Plan>,
        name: Box<Plan>,
    },
    Cast {
        expr: Box<Plan>,
        ty: String,
    },
    InstanceOf {
        expr: Box<Plan>,
        ty: String,
    },
    /// Effective-boolean-value of a pure axis path: yields
    /// `Sequence::bool` and stops at the first matching node. Only emitted
    /// for paths whose every step is a predicate-free axis step, where the
    /// equivalence to full evaluation + EBV is provable (such a path can
    /// produce no error besides the context-item checks, which `Exists`
    /// replicates).
    Exists {
        root: bool,
        steps: Vec<(Axis, PTest)>,
    },
    /// An incrementalizable aggregate over a queue/slice membership
    /// (`count(qs:slice())`, `sum(qs:queue("q")//n)`, …). The host may
    /// answer it from a materialized cell; when it declines (registry
    /// disabled, cold cell, no slice context) the evaluator runs
    /// `fallback` — the original `Plan::FunctionCall` — so unsupported
    /// reads are byte-identical to the reference rescan, errors included.
    AggregateRead {
        /// The shape's number in the application's [`AggCatalog`].
        id: AggId,
        spec: Arc<AggregateSpec>,
        fallback: Box<Plan>,
    },
    /// Entry `i` of the queue's shared-subexpression table: evaluated on
    /// first read, then answered from the evaluator's per-message memo.
    Shared(usize),
}

impl Plan {
    /// The folded constant value, when lowering reduced this plan to a
    /// constant (static-analysis introspection hook).
    pub fn as_const(&self) -> Option<&Sequence> {
        match self {
            Plan::Const(seq) => Some(seq),
            _ => None,
        }
    }
}

/// Constant-fold an expression through the lowerer and report its
/// effective boolean value when it reduces to a constant. `None` means the
/// value is not statically known (or has no EBV, e.g. a multi-atomic
/// sequence). Used by the whole-application analyzer to find rule
/// conditions that can never hold.
pub fn fold_boolean(expr: &Expr) -> Option<bool> {
    match lower(expr) {
        Plan::Const(seq) => seq.effective_boolean().ok(),
        _ => None,
    }
}

// ---- lowering -----------------------------------------------------------------

/// Lower an expression tree to an execution plan. Aggregate reads are
/// numbered in a catalog of their own — fine for a plan no host answers
/// aggregates for; an engine lowers through [`lower_in`], and its host
/// declines ids its catalog does not own ([`AggCatalog::owns`]).
pub fn lower(expr: &Expr) -> Plan {
    lower_in(expr, &mut AggCatalog::default()).0
}

/// Lower an expression tree, numbering its aggregate reads in `catalog`
/// (structurally equal shapes share one [`AggId`] across every plan
/// lowered into the same catalog). Also returns the ids the plan reads.
pub fn lower_in(expr: &Expr, catalog: &mut AggCatalog) -> (Plan, Vec<AggId>) {
    lower_sharing(expr, &[], catalog)
}

/// Lower the rule bodies of one queue against the table of subexpressions
/// they share ([`crate::share`]). Returns each body's plan and aggregate
/// ids, and the lowered table that their [`Plan::Shared`] nodes index.
pub fn lower_rules(
    bodies: &[Expr],
    catalog: &mut AggCatalog,
) -> (Vec<(Plan, Vec<AggId>)>, Vec<Plan>) {
    let table = crate::share::shared_subexpressions(bodies);
    let plans = bodies
        .iter()
        .map(|b| lower_sharing(b, &table, catalog))
        .collect();
    // An entry may read smaller entries, never itself: its own root is
    // lowered as is.
    let shared = table
        .iter()
        .map(|e| Lowerer::new(&table, catalog).lower_node(e))
        .collect();
    (plans, shared)
}

fn lower_sharing(expr: &Expr, shared: &[Expr], catalog: &mut AggCatalog) -> (Plan, Vec<AggId>) {
    PLANS_LOWERED.fetch_add(1, AtomicOrdering::Relaxed);
    let mut lowerer = Lowerer::new(shared, catalog);
    let plan = lowerer.lower(expr);
    let mut reads = lowerer.reads;
    reads.sort_unstable();
    reads.dedup();
    (plan, reads)
}

/// Lower a member-local guard predicate (aggregate recognition): no
/// counter bump, no aggregate numbering — a guard reads no `qs:` source.
pub(crate) fn lower_unnumbered(expr: &Expr) -> Plan {
    Lowerer::new(&[], &mut AggCatalog::default()).lower(expr)
}

/// Whether `e`, read as an effective boolean value, lowers to
/// [`Plan::Exists`].
pub(crate) fn lowers_to_exists(e: &Expr) -> bool {
    matches!(e, Expr::Path { steps, .. } if existence_chain(steps).is_some())
}

struct Lowerer<'c> {
    /// Lexical binding names in frame push order; `rposition` = slot index.
    scope: Vec<String>,
    catalog: &'c mut AggCatalog,
    /// Aggregate ids emitted so far.
    reads: Vec<AggId>,
    /// The queue's shared subexpressions; an occurrence evaluated with the
    /// initial focus lowers to [`Plan::Shared`].
    shared: &'c [Expr],
    /// Whether the node being lowered sees the initial focus.
    root_focus: bool,
}

impl<'c> Lowerer<'c> {
    fn new(shared: &'c [Expr], catalog: &'c mut AggCatalog) -> Self {
        Lowerer {
            scope: Vec::new(),
            catalog,
            reads: Vec::new(),
            shared,
            root_focus: true,
        }
    }

    fn lower(&mut self, e: &Expr) -> Plan {
        if self.root_focus {
            if let Some(i) = self.shared.iter().position(|s| s == e) {
                return Plan::Shared(i);
            }
        }
        self.lower_node(e)
    }

    /// Lower a subexpression evaluated with a focus of its own (a path
    /// step, a predicate).
    fn lower_refocused(&mut self, e: &Expr) -> Plan {
        let outer = std::mem::replace(&mut self.root_focus, false);
        let plan = self.lower(e);
        self.root_focus = outer;
        plan
    }

    fn lower_node(&mut self, e: &Expr) -> Plan {
        match e {
            Expr::StringLit(s) => Plan::Const(Sequence::str(s.clone())),
            Expr::IntLit(i) => Plan::Const(Sequence::int(*i)),
            Expr::DoubleLit(d) => Plan::Const(Sequence::one(Atomic::Double(*d))),
            Expr::Var(name) => match self.scope.iter().rposition(|n| n == name) {
                Some(slot) => Plan::Slot(slot),
                None => Plan::FreeVar(name.clone()),
            },
            Expr::ContextItem => Plan::ContextItem,
            Expr::Sequence(es) => {
                let parts: Vec<Plan> = es.iter().map(|e| self.lower(e)).collect();
                if let Some(folded) = fold_sequence(&parts) {
                    return folded;
                }
                Plan::Sequence(parts)
            }
            Expr::FunctionCall { name, args } => {
                let args: Vec<Plan> = args.iter().map(|a| self.lower(a)).collect();
                if let Some(spec) = crate::aggregate::recognize_aggregate(e) {
                    let (id, spec) = self.catalog.intern(spec);
                    self.reads.push(id);
                    return Plan::AggregateRead {
                        id,
                        spec,
                        fallback: Box::new(Plan::FunctionCall {
                            name: name.clone(),
                            args,
                        }),
                    };
                }
                if args.is_empty() && name.prefix.is_none() {
                    // fn:true()/fn:false() are constants.
                    match name.local.as_str() {
                        "true" => return Plan::Const(Sequence::bool(true)),
                        "false" => return Plan::Const(Sequence::bool(false)),
                        _ => {}
                    }
                }
                Plan::FunctionCall {
                    name: name.clone(),
                    args,
                }
            }
            Expr::Path { root, steps } => Plan::Path {
                root: *root,
                steps: steps.iter().map(|s| self.lower_refocused(s)).collect(),
            },
            Expr::Step {
                axis,
                test,
                predicates,
            } => Plan::Step {
                axis: *axis,
                test: lower_test(test),
                predicates: predicates.iter().map(|p| self.lower_refocused(p)).collect(),
            },
            Expr::Filter { base, predicates } => Plan::Filter {
                base: Box::new(self.lower(base)),
                predicates: predicates.iter().map(|p| self.lower_refocused(p)).collect(),
            },
            Expr::RelativePath {
                base,
                step,
                descend,
            } => Plan::RelativePath {
                base: Box::new(self.lower(base)),
                step: Box::new(self.lower_refocused(step)),
                descend: *descend,
            },
            Expr::Or(a, b) => {
                let l = self.lower_ebv(a);
                let r = self.lower_ebv(b);
                // Fold only when the constant's EBV is Ok — a constant whose
                // EBV errors (e.g. a two-atomic sequence) must still error.
                if let Some(lb) = const_ebv(&l) {
                    if lb {
                        return Plan::Const(Sequence::bool(true));
                    }
                    if let Some(rb) = const_ebv(&r) {
                        return Plan::Const(Sequence::bool(rb));
                    }
                }
                Plan::Or(Box::new(l), Box::new(r))
            }
            Expr::And(a, b) => {
                let l = self.lower_ebv(a);
                let r = self.lower_ebv(b);
                if let Some(lb) = const_ebv(&l) {
                    if !lb {
                        return Plan::Const(Sequence::bool(false));
                    }
                    if let Some(rb) = const_ebv(&r) {
                        return Plan::Const(Sequence::bool(rb));
                    }
                }
                Plan::And(Box::new(l), Box::new(r))
            }
            Expr::Comparison { op, left, right } => Plan::Comparison {
                op: *op,
                left: Box::new(self.lower(left)),
                right: Box::new(self.lower(right)),
            },
            Expr::Arith { op, left, right } => Plan::Arith {
                op: *op,
                left: Box::new(self.lower(left)),
                right: Box::new(self.lower(right)),
            },
            Expr::Set { op, left, right } => Plan::Set {
                op: *op,
                left: Box::new(self.lower(left)),
                right: Box::new(self.lower(right)),
            },
            Expr::Range(a, b) => {
                let l = self.lower(a);
                let r = self.lower(b);
                if let Some(folded) = fold_range(&l, &r) {
                    return folded;
                }
                Plan::Range(Box::new(l), Box::new(r))
            }
            Expr::Neg(e) => {
                let inner = self.lower(e);
                if let Some(folded) = fold_neg(&inner) {
                    return folded;
                }
                Plan::Neg(Box::new(inner))
            }
            Expr::If { cond, then, els } => {
                let c = self.lower_ebv(cond);
                if let Some(cb) = const_ebv(&c) {
                    // Dead-branch elimination: a trigger condition can be
                    // decided at compile time (an inlined fixed property).
                    return if cb {
                        self.lower(then)
                    } else {
                        match els {
                            Some(e) => self.lower(e),
                            None => Plan::Const(Sequence::empty()),
                        }
                    };
                }
                Plan::If {
                    cond: Box::new(c),
                    then: Box::new(self.lower(then)),
                    els: els.as_ref().map(|e| Box::new(self.lower(e))),
                }
            }
            Expr::Flwor {
                clauses,
                where_,
                order,
                ret,
            } => {
                let scope_base = self.scope.len();
                let mut pclauses = Vec::with_capacity(clauses.len());
                for c in clauses {
                    match c {
                        FlworClause::Let { var, value } => {
                            let value = self.lower(value);
                            self.scope.push(var.clone());
                            pclauses.push(PClause::Let { value });
                        }
                        FlworClause::For { var, at, source } => {
                            let source = self.lower(source);
                            self.scope.push(var.clone());
                            let at = if let Some(atv) = at {
                                self.scope.push(atv.clone());
                                true
                            } else {
                                false
                            };
                            pclauses.push(PClause::For { at, source });
                        }
                    }
                }
                let where_ = where_.as_ref().map(|w| Box::new(self.lower_ebv(w)));
                let order = order
                    .iter()
                    .map(|o| POrderSpec {
                        key: self.lower(&o.key),
                        descending: o.descending,
                        empty_greatest: o.empty_greatest,
                    })
                    .collect();
                let ret = Box::new(self.lower(ret));
                self.scope.truncate(scope_base);
                Plan::Flwor {
                    clauses: pclauses,
                    where_,
                    order,
                    ret,
                }
            }
            Expr::Quantified {
                every,
                bindings,
                satisfies,
            } => {
                let scope_base = self.scope.len();
                let mut sources = Vec::with_capacity(bindings.len());
                for (var, src) in bindings {
                    sources.push(self.lower(src));
                    self.scope.push(var.clone());
                }
                let satisfies = Box::new(self.lower_ebv(satisfies));
                self.scope.truncate(scope_base);
                Plan::Quantified {
                    every: *every,
                    bindings: sources,
                    satisfies,
                }
            }
            Expr::DirectElement {
                name,
                attrs,
                content,
            } => Plan::DirectElement {
                name: name.clone(),
                attrs: attrs
                    .iter()
                    .map(|(n, parts)| {
                        (
                            n.clone(),
                            parts
                                .iter()
                                .map(|p| match p {
                                    AttrValuePart::Text(t) => PAttrPart::Text(t.clone()),
                                    AttrValuePart::Enclosed(e) => PAttrPart::Expr(self.lower(e)),
                                })
                                .collect(),
                        )
                    })
                    .collect(),
                content: content
                    .iter()
                    .map(|c| match c {
                        DirContent::Text(t) => PContent::Text(t.clone()),
                        DirContent::Enclosed(e) | DirContent::Expr(e) => {
                            PContent::Expr(self.lower(e))
                        }
                    })
                    .collect(),
            },
            Expr::ComputedElement { name, content } => Plan::ComputedElement {
                name: Box::new(self.lower(name)),
                content: Box::new(self.lower(content)),
            },
            Expr::ComputedAttribute { name, content } => Plan::ComputedAttribute {
                name: Box::new(self.lower(name)),
                content: Box::new(self.lower(content)),
            },
            Expr::ComputedText(e) => Plan::ComputedText(Box::new(self.lower(e))),
            Expr::ComputedComment(e) => Plan::ComputedComment(Box::new(self.lower(e))),
            Expr::ComputedDocument(e) => Plan::ComputedDocument(Box::new(self.lower(e))),
            Expr::Enqueue {
                message,
                queue,
                props,
            } => Plan::Enqueue {
                message: Box::new(self.lower(message)),
                queue: queue.clone(),
                props: props
                    .iter()
                    .map(|(n, e)| (n.clone(), self.lower(e)))
                    .collect(),
            },
            Expr::Reset { slicing, key } => Plan::Reset {
                slicing: slicing.clone(),
                key: key.as_ref().map(|k| Box::new(self.lower(k))),
            },
            Expr::Insert {
                source,
                pos,
                target,
            } => Plan::Insert {
                source: Box::new(self.lower(source)),
                pos: *pos,
                target: Box::new(self.lower(target)),
            },
            Expr::Delete { target } => Plan::Delete {
                target: Box::new(self.lower(target)),
            },
            Expr::Replace {
                target,
                source,
                value_of,
            } => Plan::Replace {
                target: Box::new(self.lower(target)),
                source: Box::new(self.lower(source)),
                value_of: *value_of,
            },
            Expr::Rename { target, name } => Plan::Rename {
                target: Box::new(self.lower(target)),
                name: Box::new(self.lower(name)),
            },
            Expr::Cast { expr, ty } => Plan::Cast {
                expr: Box::new(self.lower(expr)),
                ty: ty.clone(),
            },
            Expr::InstanceOf { expr, ty } => Plan::InstanceOf {
                expr: Box::new(self.lower(expr)),
                ty: ty.clone(),
            },
        }
    }

    /// Lower an expression whose value is consumed as an effective boolean
    /// (trigger condition, `and`/`or` operand, `where`, `satisfies`).
    /// Predicate positions must NOT use this — a single numeric predicate
    /// is a positional test, not an EBV.
    fn lower_ebv(&mut self, e: &Expr) -> Plan {
        if let Expr::Path { root, steps } = e {
            if let Some(chain) = existence_chain(steps) {
                return Plan::Exists {
                    root: *root,
                    steps: chain,
                };
            }
        }
        self.lower(e)
    }
}

/// A path is existence-streamable iff every step is a predicate-free axis
/// step: such a path yields only nodes (EBV = non-empty) and, beyond the
/// context-item checks, cannot raise an error — so stopping at the first
/// match is observably identical to full evaluation.
fn existence_chain(steps: &[Expr]) -> Option<Vec<(Axis, PTest)>> {
    if steps.is_empty() {
        return None;
    }
    steps
        .iter()
        .map(|s| match s {
            Expr::Step {
                axis,
                test,
                predicates,
            } if predicates.is_empty() => Some((*axis, lower_test(test))),
            _ => None,
        })
        .collect()
}

/// EBV of a constant plan, only when evaluating it cannot error.
fn const_ebv(p: &Plan) -> Option<bool> {
    match p {
        Plan::Const(seq) => seq.effective_boolean().ok(),
        _ => None,
    }
}

fn fold_sequence(parts: &[Plan]) -> Option<Plan> {
    let mut out = Sequence::empty();
    for p in parts {
        match p {
            Plan::Const(seq) => out = out.concat(seq.clone()),
            _ => return None,
        }
    }
    Some(Plan::Const(out))
}

/// Fold `a to b` when both operands are constant and the range is small;
/// an over-large constant range stays lazy rather than bloating the plan.
/// An operand that errors is not folded: the error stays a runtime one.
fn fold_range(l: &Plan, r: &Plan) -> Option<Plan> {
    const MAX_FOLDED_RANGE: i64 = 1024;
    let (Plan::Const(ls), Plan::Const(rs)) = (l, r) else {
        return None;
    };
    let bound = |s: &Sequence| s.exactly_one().ok()?.atomize().cast_integer().ok();
    if let (Some(from), Some(to)) = (bound(ls), bound(rs)) {
        if to.saturating_sub(from) > MAX_FOLDED_RANGE {
            return None;
        }
    }
    range(ls, rs).ok().map(Plan::Const)
}

fn fold_neg(inner: &Plan) -> Option<Plan> {
    let Plan::Const(seq) = inner else {
        return None;
    };
    negate(seq).ok().map(Plan::Const)
}

// ---- plan evaluation -----------------------------------------------------------

const MAX_DEPTH: u32 = 512;

/// What one evaluator has done: deterministic work counts the engine adds
/// to its registry once per message.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalCounts {
    /// Path steps applied, one per (step, context item) pair of a full
    /// path evaluation (`demaq_xquery_path_steps_total`). Existence tests
    /// count in `demaq_xquery_ebv_short_circuits_total` instead.
    pub path_steps: u64,
    /// Shared subexpressions evaluated (`demaq_xquery_shared_evals_total`).
    pub shared_evals: u64,
    /// Shared subexpression reads answered from the memo
    /// (`demaq_xquery_shared_reuses_total`).
    pub shared_reuses: u64,
}

/// Evaluator for lowered plans. The environment is a slot frame, not a
/// name-searched binding list.
pub struct PlanEvaluator<'a> {
    dctx: &'a DynamicContext,
    /// Slot frame: `Plan::Slot(i)` reads `frame[i]`.
    frame: Vec<Sequence>,
    /// Pending update list produced by updating expressions.
    pub updates: Vec<Update>,
    depth: u32,
    /// The shared-subexpression table [`Plan::Shared`] indexes, and the
    /// values computed so far. One evaluator serves one message.
    shared: &'a [Plan],
    memo: Vec<Option<Sequence>>,
    pub counts: EvalCounts,
}

impl<'a> PlanEvaluator<'a> {
    pub fn new(dctx: &'a DynamicContext) -> Self {
        Self::with_shared(dctx, &[])
    }

    /// An evaluator for the plans of one queue's rules over one message:
    /// `shared` is the queue's lowered table (see [`lower_rules`]).
    pub fn with_shared(dctx: &'a DynamicContext, shared: &'a [Plan]) -> Self {
        PlanEvaluator {
            dctx,
            frame: Vec::new(),
            updates: Vec::new(),
            depth: 0,
            shared,
            memo: vec![None; shared.len()],
            counts: EvalCounts::default(),
        }
    }

    /// Evaluate with `context` as the initial context item.
    pub fn eval_with_context(&mut self, plan: &Plan, context: NodeRef) -> Result<Sequence> {
        self.eval(plan, Some(&Focus::solo(context)))
    }

    fn context_item(focus: Option<&Focus>) -> Result<&Item> {
        focus
            .map(|f| &f.item)
            .ok_or_else(|| Error::dynamic("context item is undefined here"))
    }

    pub fn eval(&mut self, plan: &Plan, focus: Option<&Focus>) -> Result<Sequence> {
        self.nested(|ev| ev.eval_inner(plan, focus))
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(Error::dynamic("expression nesting too deep"));
        }
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn eval_inner(&mut self, plan: &Plan, focus: Option<&Focus>) -> Result<Sequence> {
        match plan {
            Plan::Const(seq) => Ok(seq.clone()),
            Plan::Slot(i) => Ok(self.frame[*i].clone()),
            Plan::FreeVar(name) => self
                .dctx
                .variables
                .get(name)
                .cloned()
                .ok_or_else(|| Error::undefined_name(format!("undefined variable ${name}"))),
            Plan::ContextItem => Ok(Sequence::one(Self::context_item(focus)?.clone())),
            Plan::Sequence(ps) => {
                let mut out = Sequence::empty();
                for p in ps {
                    out = out.concat(self.eval(p, focus)?);
                }
                Ok(out)
            }
            Plan::FunctionCall { name, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, focus)?);
                }
                match name.prefix.as_deref() {
                    None => functions::call_builtin(self.dctx, &name.local, argv, focus),
                    Some("xs") => functions::call_constructor(&name.local, argv),
                    Some(_) => match self.dctx.host.call(name, &argv) {
                        Some(r) => r,
                        None => Err(Error::unknown_function(format!(
                            "unknown function {}()",
                            name.lexical()
                        ))),
                    },
                }
            }
            Plan::Path { root, steps } => {
                let start: Item = if *root {
                    match Self::context_item(focus)? {
                        Item::Node(n) => Item::Node(n.doc.root()),
                        Item::Atomic(_) => {
                            return Err(Error::type_error("`/` requires a node context item"))
                        }
                    }
                } else {
                    match focus {
                        Some(f) => f.item.clone(),
                        None => {
                            return Err(Error::dynamic("relative path with absent context item"))
                        }
                    }
                };
                self.eval_steps(std::slice::from_ref(&start), steps)
            }
            Plan::Step {
                axis,
                test,
                predicates,
            } => {
                let mut on_axis = Sequence::empty();
                match Self::context_item(focus)? {
                    Item::Node(n) => step_nodes(*axis, n, test, |n| on_axis.push(Item::Node(n))),
                    Item::Atomic(_) => {
                        return Err(Error::type_error("axis step on an atomic context item"))
                    }
                }
                self.apply_predicates(on_axis, predicates)
            }
            Plan::Filter { base, predicates } => {
                let seq = self.eval(base, focus)?;
                self.apply_predicates(seq, predicates)
            }
            Plan::RelativePath {
                base,
                step,
                descend,
            } => {
                let seq = self.eval(base, focus)?;
                if *descend {
                    let dos = Plan::Step {
                        axis: Axis::DescendantOrSelf,
                        test: PTest::AnyKind,
                        predicates: vec![],
                    };
                    let mid = self.eval_steps(seq.as_slice(), std::slice::from_ref(&dos))?;
                    self.eval_steps(mid.as_slice(), std::slice::from_ref(step))
                } else {
                    self.eval_steps(seq.as_slice(), std::slice::from_ref(step))
                }
            }
            Plan::Or(a, b) => {
                if self.eval(a, focus)?.effective_boolean()? {
                    return Ok(Sequence::bool(true));
                }
                Ok(Sequence::bool(self.eval(b, focus)?.effective_boolean()?))
            }
            Plan::And(a, b) => {
                if !self.eval(a, focus)?.effective_boolean()? {
                    return Ok(Sequence::bool(false));
                }
                Ok(Sequence::bool(self.eval(b, focus)?.effective_boolean()?))
            }
            Plan::Comparison { op, left, right } => self.eval_comparison(*op, left, right, focus),
            Plan::Arith { op, left, right } => self.eval_arith(*op, left, right, focus),
            Plan::Set { op, left, right } => {
                let l = self.eval(left, focus)?;
                set_op(*op, &l, &self.eval(right, focus)?)
            }
            Plan::Range(a, b) => range(&self.eval(a, focus)?, &self.eval(b, focus)?),
            Plan::Neg(p) => negate(&self.eval(p, focus)?),
            Plan::If { cond, then, els } => {
                if self.eval(cond, focus)?.effective_boolean()? {
                    self.eval(then, focus)
                } else {
                    match els {
                        Some(e) => self.eval(e, focus),
                        None => Ok(Sequence::empty()),
                    }
                }
            }
            Plan::Flwor {
                clauses,
                where_,
                order,
                ret,
            } => self.eval_flwor(clauses, where_.as_deref(), order, ret, focus),
            Plan::Quantified {
                every,
                bindings,
                satisfies,
            } => {
                let result = self.quantify(*every, bindings, 0, satisfies, focus)?;
                Ok(Sequence::bool(result))
            }
            Plan::DirectElement {
                name,
                attrs,
                content,
            } => {
                let mut b = DocBuilder::new();
                self.build_element(&mut b, name, attrs, content, focus)?;
                let doc = b.finish();
                Ok(Sequence::one(
                    doc.document_element().expect("constructed element"),
                ))
            }
            Plan::ComputedElement { name, content } => {
                let qn = computed_name(&self.eval(name, focus)?, "computed element")?;
                let seq = self.eval(content, focus)?;
                Ok(Sequence::one(assemble_element(&qn, &[], seq)?))
            }
            Plan::ComputedAttribute { name, content } => {
                let qn = computed_name(&self.eval(name, focus)?, "computed attribute")?;
                Ok(Sequence::one(computed_attribute(
                    qn,
                    &self.eval(content, focus)?,
                )))
            }
            Plan::ComputedText(e) => Ok(computed_text(&self.eval(e, focus)?)),
            Plan::ComputedComment(e) => Ok(Sequence::one(computed_comment(&self.eval(e, focus)?))),
            Plan::ComputedDocument(e) => {
                Ok(Sequence::one(computed_document(&self.eval(e, focus)?)))
            }
            Plan::Enqueue {
                message,
                queue,
                props,
            } => {
                let message = sequence_to_document(&self.eval(message, focus)?)?;
                let mut eprops = Vec::with_capacity(props.len());
                for (pname, pexpr) in props {
                    eprops.push((
                        pname.clone(),
                        enqueue_prop(pname, &self.eval(pexpr, focus)?)?,
                    ));
                }
                self.updates.push(Update::Enqueue {
                    queue: queue.clone(),
                    message,
                    props: eprops,
                });
                Ok(Sequence::empty())
            }
            Plan::Reset { slicing, key } => {
                let key = match key {
                    Some(k) => Some(self.eval(k, focus)?.exactly_one()?.atomize()),
                    None => None,
                };
                self.updates.push(Update::Reset {
                    slicing: slicing.clone(),
                    key,
                });
                Ok(Sequence::empty())
            }
            Plan::Insert {
                source,
                pos,
                target,
            } => {
                let content = update_content(self.eval(source, focus)?);
                let target = update_target(&self.eval(target, focus)?)?;
                self.updates.push(Update::Insert {
                    target,
                    pos: *pos,
                    content,
                });
                Ok(Sequence::empty())
            }
            Plan::Delete { target } => {
                for target in update_content(self.eval(target, focus)?) {
                    self.updates.push(Update::Delete { target });
                }
                Ok(Sequence::empty())
            }
            Plan::Replace {
                target,
                source,
                value_of,
            } => {
                let target = update_target(&self.eval(target, focus)?)?;
                let v = self.eval(source, focus)?;
                self.updates.push(if *value_of {
                    let value = atomics_joined(&v);
                    Update::ReplaceValue { target, value }
                } else {
                    let content = update_content(v);
                    Update::Replace { target, content }
                });
                Ok(Sequence::empty())
            }
            Plan::Rename { target, name } => {
                let target = update_target(&self.eval(target, focus)?)?;
                let name = computed_name(&self.eval(name, focus)?, "rename target")?;
                self.updates.push(Update::Rename { target, name });
                Ok(Sequence::empty())
            }
            Plan::Cast { expr, ty } => {
                let v = self.eval(expr, focus)?;
                if v.is_empty() {
                    return Ok(Sequence::empty());
                }
                let a = v.exactly_one()?.atomize();
                Ok(Sequence::one(cast(a, ty)?))
            }
            Plan::InstanceOf { expr, ty } => {
                Ok(Sequence::bool(instance_of(&self.eval(expr, focus)?, ty)))
            }
            Plan::Exists { root, steps } => {
                let start: NodeRef = if *root {
                    match Self::context_item(focus)? {
                        Item::Node(n) => n.doc.root(),
                        Item::Atomic(_) => {
                            return Err(Error::type_error("`/` requires a node context item"))
                        }
                    }
                } else {
                    match focus {
                        Some(f) => match &f.item {
                            Item::Node(n) => n.clone(),
                            Item::Atomic(_) => {
                                return Err(Error::type_error(
                                    "axis step on an atomic context item",
                                ))
                            }
                        },
                        None => {
                            return Err(Error::dynamic("relative path with absent context item"))
                        }
                    }
                };
                let found = step_exists(&start.doc, start.id, steps);
                if found {
                    EBV_SHORT_CIRCUITS.fetch_add(1, AtomicOrdering::Relaxed);
                }
                Ok(Sequence::bool(found))
            }
            Plan::AggregateRead { id, spec, fallback } => match self.dctx.host.aggregate(*id, spec) {
                Some(r) => r,
                None => self.eval(fallback, focus),
            },
            Plan::Shared(i) => {
                if let Some(Some(v)) = self.memo.get(*i) {
                    self.counts.shared_reuses += 1;
                    return Ok(v.clone());
                }
                let shared = self.shared;
                let entry = shared
                    .get(*i)
                    .ok_or_else(|| Error::dynamic("shared subexpression outside the table"))?;
                // An entry binds no outer variable: it runs on a frame of its
                // own. An error is not memoized; it fails the rule.
                let outer = std::mem::take(&mut self.frame);
                let v = self.eval(entry, focus);
                self.frame = outer;
                let v = v?;
                self.counts.shared_evals += 1;
                self.memo[*i] = Some(v.clone());
                Ok(v)
            }
        }
    }

    /// Write a direct element constructor into `b`: a nested direct
    /// constructor is written in place, an enclosed expression's value is
    /// copied in once.
    fn build_element(
        &mut self,
        b: &mut DocBuilder,
        name: &QName,
        attrs: &[(QName, Vec<PAttrPart>)],
        content: &[PContent],
        focus: Option<&Focus>,
    ) -> Result<()> {
        b.start(name);
        let mut value = String::new();
        for (an, parts) in attrs {
            value.clear();
            for p in parts {
                match p {
                    PAttrPart::Text(t) => value.push_str(t),
                    PAttrPart::Expr(e) => {
                        let v = self.eval(e, focus)?;
                        push_atomics_joined(&mut value, &v);
                    }
                }
            }
            b.attr(an, &value);
        }
        let mut rules = Content::default();
        for c in content {
            match c {
                PContent::Text(t) => rules.push(b, Part::Text(t))?,
                PContent::Expr(Plan::DirectElement {
                    name,
                    attrs,
                    content,
                }) => {
                    rules.push(b, Part::Element)?;
                    self.nested(|ev| ev.build_element(b, name, attrs, content, focus))?;
                }
                PContent::Expr(e) => {
                    for item in self.eval(e, focus)?.iter() {
                        rules.push(b, Part::Item(item))?;
                    }
                }
            }
        }
        b.end();
        Ok(())
    }

    // ---- paths ---------------------------------------------------------------

    fn eval_steps(&mut self, start: &[Item], steps: &[Plan]) -> Result<Sequence> {
        if steps.is_empty() {
            return Ok(start.iter().cloned().collect());
        }
        let mut current = Sequence::empty();
        for (idx, step) in steps.iter().enumerate() {
            let is_last = idx + 1 == steps.len();
            let context = if idx == 0 { start } else { current.as_slice() };
            let size = context.len();
            self.counts.path_steps += size as u64;
            let mut result = Sequence::empty();
            for (i, item) in context.iter().enumerate() {
                match (step, item) {
                    // A predicate-free axis step needs no focus of its own:
                    // what it selects goes straight into the step's result.
                    (
                        Plan::Step {
                            axis,
                            test,
                            predicates,
                        },
                        Item::Node(n),
                    ) if predicates.is_empty() => {
                        if self.depth >= MAX_DEPTH {
                            return Err(Error::dynamic("expression nesting too deep"));
                        }
                        step_nodes(*axis, n, test, |n| result.push(Item::Node(n)));
                    }
                    _ => {
                        let f = Focus {
                            item: item.clone(),
                            pos: i + 1,
                            size,
                        };
                        result = std::mem::take(&mut result).concat(self.eval(step, Some(&f))?);
                    }
                }
            }
            let all_nodes = result.iter().all(|i| matches!(i, Item::Node(_)));
            if all_nodes {
                result = result.document_order_dedup()?;
            } else if !is_last {
                return Err(Error::type_error(
                    "intermediate path step produced atomic values",
                ));
            } else if result.iter().any(|i| matches!(i, Item::Node(_))) {
                return Err(Error::type_error("path step mixes nodes and atomic values"));
            }
            current = result;
        }
        Ok(current)
    }

    fn apply_predicates(&mut self, mut seq: Sequence, predicates: &[Plan]) -> Result<Sequence> {
        for pred in predicates {
            let size = seq.len();
            let mut kept = Sequence::empty();
            for (i, item) in seq.iter().enumerate() {
                let f = Focus {
                    item: item.clone(),
                    pos: i + 1,
                    size,
                };
                let v = self.eval(pred, Some(&f))?;
                // Numeric predicate = positional test.
                let keep = match v.as_slice() {
                    [Item::Atomic(a)] if a.is_numeric() => a.to_double() == (i + 1) as f64,
                    _ => v.effective_boolean()?,
                };
                if keep {
                    kept.push(item.clone());
                }
            }
            seq = kept;
        }
        Ok(seq)
    }

    // ---- comparisons, arithmetic, sets ----------------------------------------

    fn eval_comparison(
        &mut self,
        op: CompOp,
        left: &Plan,
        right: &Plan,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        let l = self.eval(left, focus)?;
        let r = self.eval(right, focus)?;
        use CompOp::*;
        match op {
            GenEq | GenNe | GenLt | GenLe | GenGt | GenGe => {
                // The right side's views are built once, not per pair; a
                // lone right item (the usual case) needs no vector for it.
                let (lone, many);
                let rv: &[AtomView] = match r.as_slice() {
                    [b] => {
                        lone = [b.atom_view()];
                        &lone
                    }
                    items => {
                        many = items.iter().map(Item::atom_view).collect::<Vec<_>>();
                        &many
                    }
                };
                for a in l.iter() {
                    let a = a.atom_view();
                    for b in rv {
                        if let Some(ord) = a.value_cmp(b) {
                            let hit = match op {
                                GenEq => ord == Ordering::Equal,
                                GenNe => ord != Ordering::Equal,
                                GenLt => ord == Ordering::Less,
                                GenLe => ord != Ordering::Greater,
                                GenGt => ord == Ordering::Greater,
                                GenGe => ord != Ordering::Less,
                                _ => unreachable!(),
                            };
                            if hit {
                                return Ok(Sequence::bool(true));
                            }
                        } else if matches!(op, GenNe) {
                            // Incomparable values are "not equal".
                            return Ok(Sequence::bool(true));
                        }
                    }
                }
                Ok(Sequence::bool(false))
            }
            ValEq | ValNe | ValLt | ValLe | ValGt | ValGe => {
                if l.is_empty() || r.is_empty() {
                    return Ok(Sequence::empty());
                }
                let a = l.exactly_one()?.atom_view();
                let b = r.exactly_one()?.atom_view();
                let ord = a.value_cmp(&b).ok_or_else(|| {
                    Error::type_error(format!(
                        "cannot compare {} with {}",
                        a.type_name(),
                        b.type_name()
                    ))
                })?;
                let hit = match op {
                    ValEq => ord == Ordering::Equal,
                    ValNe => ord != Ordering::Equal,
                    ValLt => ord == Ordering::Less,
                    ValLe => ord != Ordering::Greater,
                    ValGt => ord == Ordering::Greater,
                    ValGe => ord != Ordering::Less,
                    _ => unreachable!(),
                };
                Ok(Sequence::bool(hit))
            }
            Is | Precedes | Follows => {
                if l.is_empty() || r.is_empty() {
                    return Ok(Sequence::empty());
                }
                let a = l
                    .exactly_one()?
                    .as_node()
                    .ok_or_else(|| Error::type_error("node comparison on atomic value"))?
                    .clone();
                let b = r
                    .exactly_one()?
                    .as_node()
                    .ok_or_else(|| Error::type_error("node comparison on atomic value"))?
                    .clone();
                let hit = match op {
                    Is => a.is_same_node(&b),
                    Precedes => a < b,
                    Follows => a > b,
                    _ => unreachable!(),
                };
                Ok(Sequence::bool(hit))
            }
        }
    }

    fn eval_arith(
        &mut self,
        op: ArithOp,
        left: &Plan,
        right: &Plan,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        let l = self.eval(left, focus)?;
        let r = self.eval(right, focus)?;
        if l.is_empty() || r.is_empty() {
            return Ok(Sequence::empty());
        }
        let a = l.exactly_one()?.atom_view();
        let b = r.exactly_one()?.atom_view();
        // Date/time arithmetic first; a node operand is untyped and takes
        // no part in it.
        if let (AtomView::Typed(a), AtomView::Typed(b)) = (&a, &b) {
            match (*a, op, *b) {
                (Atomic::DateTime(t), ArithOp::Add, Atomic::Duration(d))
                | (Atomic::Duration(d), ArithOp::Add, Atomic::DateTime(t)) => {
                    return Ok(Sequence::one(Atomic::DateTime(t + d)));
                }
                (Atomic::DateTime(t), ArithOp::Sub, Atomic::Duration(d)) => {
                    return Ok(Sequence::one(Atomic::DateTime(t - d)));
                }
                (Atomic::DateTime(t1), ArithOp::Sub, Atomic::DateTime(t2)) => {
                    return Ok(Sequence::one(Atomic::Duration(t1 - t2)));
                }
                (Atomic::Duration(d1), ArithOp::Add, Atomic::Duration(d2)) => {
                    return Ok(Sequence::one(Atomic::Duration(d1 + d2)));
                }
                (Atomic::Duration(d1), ArithOp::Sub, Atomic::Duration(d2)) => {
                    return Ok(Sequence::one(Atomic::Duration(d1 - d2)));
                }
                (Atomic::Duration(d), ArithOp::Mul, n) | (n, ArithOp::Mul, Atomic::Duration(d))
                    if n.is_numeric() =>
                {
                    return Ok(Sequence::one(Atomic::Duration(
                        (*d as f64 * n.to_double()) as i64,
                    )));
                }
                _ => {}
            }
        }
        let is_int = |v: &AtomView| matches!(v, AtomView::Typed(Atomic::Int(_)));
        let both_int = is_int(&a) && is_int(&b);
        let (x, y) = (a.to_double(), b.to_double());
        let result = match op {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
            ArithOp::Div => {
                if y == 0.0 && both_int {
                    return Err(Error::division_by_zero());
                }
                x / y
            }
            ArithOp::IDiv => {
                if y == 0.0 {
                    return Err(Error::division_by_zero());
                }
                return Ok(Sequence::int((x / y).trunc() as i64));
            }
            ArithOp::Mod => {
                if y == 0.0 {
                    return Err(Error::division_by_zero());
                }
                x % y
            }
        };
        if both_int && !matches!(op, ArithOp::Div) {
            Ok(Sequence::int(result as i64))
        } else {
            Ok(Sequence::one(Atomic::Double(result)))
        }
    }

    // ---- FLWOR / quantifiers ---------------------------------------------------

    fn eval_flwor(
        &mut self,
        clauses: &[PClause],
        where_: Option<&Plan>,
        order: &[POrderSpec],
        ret: &Plan,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        let base_len = self.frame.len();
        if order.is_empty() {
            let mut out = Sequence::empty();
            self.stream_tuples(clauses, 0, focus, &mut |ev| {
                let passed = match where_ {
                    Some(w) => ev.eval(w, focus)?.effective_boolean()?,
                    None => true,
                };
                if passed {
                    out = std::mem::take(&mut out).concat(ev.eval(ret, focus)?);
                }
                Ok(())
            })?;
            debug_assert_eq!(self.frame.len(), base_len);
            return Ok(out);
        }

        let n_slots = clause_slots(clauses);
        let mut survivors: Vec<(Vec<Sequence>, Vec<Sequence>)> = Vec::new();
        self.stream_tuples(clauses, 0, focus, &mut |ev| {
            let passed = match where_ {
                Some(w) => ev.eval(w, focus)?.effective_boolean()?,
                None => true,
            };
            if passed {
                let mut keys = Vec::with_capacity(order.len());
                for spec in order {
                    keys.push(ev.eval(&spec.key, focus)?);
                }
                let values = ev.frame[ev.frame.len() - n_slots..].to_vec();
                survivors.push((values, keys));
            }
            Ok(())
        })?;
        debug_assert_eq!(self.frame.len(), base_len);

        let flags: Vec<(bool, bool)> = order
            .iter()
            .map(|o| (o.descending, o.empty_greatest))
            .collect();
        survivors.sort_by(|(_, ka), (_, kb)| order_cmp(&flags, ka, kb));

        let mut out = Sequence::empty();
        for (values, _) in survivors {
            let n = values.len();
            self.frame.extend(values);
            let r = self.eval(ret, focus);
            self.frame.truncate(self.frame.len() - n);
            out = out.concat(r?);
        }
        Ok(out)
    }

    fn stream_tuples(
        &mut self,
        clauses: &[PClause],
        idx: usize,
        focus: Option<&Focus>,
        leaf: &mut dyn FnMut(&mut Self) -> Result<()>,
    ) -> Result<()> {
        if idx == clauses.len() {
            return leaf(self);
        }
        match &clauses[idx] {
            PClause::Let { value } => {
                let v = self.eval(value, focus)?;
                self.frame.push(v);
                let r = self.stream_tuples(clauses, idx + 1, focus, leaf);
                self.frame.pop();
                r
            }
            PClause::For { at, source } => {
                let src = self.eval(source, focus)?;
                for (i, item) in src.iter().enumerate() {
                    self.frame.push(Sequence::one(item.clone()));
                    if *at {
                        self.frame.push(Sequence::int(i as i64 + 1));
                    }
                    let r = self.stream_tuples(clauses, idx + 1, focus, leaf);
                    if *at {
                        self.frame.pop();
                    }
                    self.frame.pop();
                    r?;
                }
                Ok(())
            }
        }
    }

    fn quantify(
        &mut self,
        every: bool,
        bindings: &[Plan],
        idx: usize,
        satisfies: &Plan,
        focus: Option<&Focus>,
    ) -> Result<bool> {
        if idx == bindings.len() {
            return self.eval(satisfies, focus)?.effective_boolean();
        }
        let src = self.eval(&bindings[idx], focus)?;
        for item in src {
            self.frame.push(Sequence::one(item));
            let hit = self.quantify(every, bindings, idx + 1, satisfies, focus);
            self.frame.pop();
            let hit = hit?;
            if every && !hit {
                return Ok(false);
            }
            if !every && hit {
                return Ok(true);
            }
        }
        Ok(every)
    }
}

/// Depth-first existence test over a predicate-free step chain; returns as
/// soon as one full match is found.
fn step_exists(doc: &Document, id: NodeId, steps: &[(Axis, PTest)]) -> bool {
    let Some(((axis, test), rest)) = steps.split_first() else {
        return true;
    };
    for_each_on_axis(*axis, doc, id, |cand| {
        if ptest_matches(*axis, doc, cand, test) && step_exists(doc, cand, rest) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .is_break()
}

fn clause_slots(clauses: &[PClause]) -> usize {
    clauses
        .iter()
        .map(|c| match c {
            PClause::For { at: true, .. } => 2,
            _ => 1,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    #[test]
    fn variables_resolve_to_slots() {
        let expr = parse_expr("for $x in 1 to 3 let $y := $x return $y").unwrap();
        let plan = lower(&expr);
        fn has_free(p: &Plan) -> bool {
            match p {
                Plan::FreeVar(_) => true,
                Plan::Flwor { clauses, ret, .. } => {
                    clauses.iter().any(|c| match c {
                        PClause::Let { value } => has_free(value),
                        PClause::For { source, .. } => has_free(source),
                    }) || has_free(ret)
                }
                _ => false,
            }
        }
        assert!(!has_free(&plan), "lexical vars must lower to slots: {plan:?}");
    }

    #[test]
    fn constants_fold() {
        let expr = parse_expr("if (true()) then 1 + 0 else 2").unwrap();
        // The cond folds away; the branch remains (arith is not folded —
        // it stays an Arith node, which is fine).
        let plan = lower(&expr);
        assert!(
            !matches!(plan, Plan::If { .. }),
            "constant condition must fold: {plan:?}"
        );
        let expr = parse_expr("('a', 'b', 'c')").unwrap();
        assert!(matches!(lower(&expr), Plan::Const(_)));
    }

    #[test]
    fn ebv_paths_become_exists_and_short_circuit() {
        let expr = parse_expr("if (//item) then 1 else 0").unwrap();
        let plan = lower(&expr);
        let Plan::If { cond, .. } = &plan else {
            panic!("expected If: {plan:?}");
        };
        assert!(matches!(**cond, Plan::Exists { .. }), "cond: {cond:?}");

        let dctx = DynamicContext::default();
        let before = ebv_short_circuits_total();
        let d = demaq_xml::parse("<order><item/></order>").unwrap();
        let r = PlanEvaluator::new(&dctx)
            .eval_with_context(&plan, d.root())
            .unwrap();
        assert_eq!(r.len(), 1);
        assert!(ebv_short_circuits_total() > before);
    }

    #[test]
    fn predicates_do_not_become_exists() {
        // A numeric predicate is positional; EBV-lowering must not apply.
        let expr = parse_expr("//item[//total]").unwrap();
        let plan = lower(&expr);
        fn no_exists_in_predicates(p: &Plan) -> bool {
            match p {
                Plan::Step { predicates, .. } => {
                    predicates.iter().all(|q| !matches!(q, Plan::Exists { .. }))
                }
                Plan::Path { steps, .. } => steps.iter().all(no_exists_in_predicates),
                _ => true,
            }
        }
        assert!(no_exists_in_predicates(&plan));
    }

    #[test]
    fn a_fresh_construction_is_the_message_and_a_held_one_is_copied() {
        let dctx = DynamicContext::default();
        let d = demaq_xml::parse("<o v='7'/>").unwrap();
        let plan = lower(&parse_expr("<m a='{/o/@v}'>t<n>{1, 2}</n></m>").unwrap());
        let built = PlanEvaluator::new(&dctx)
            .eval_with_context(&plan, d.root())
            .unwrap();
        let node = built.exactly_one().unwrap().as_node().unwrap();
        assert_eq!(node.to_xml(), "<m a=\"7\">t<n>1 2</n></m>");

        // A second holder of the constructed document forces a copy.
        let holder = Arc::clone(&node.doc);
        let copied = sequence_to_document(&built).unwrap();
        assert!(!Arc::ptr_eq(&copied, &holder));
        drop(holder);
        let adopted = sequence_to_document(&built).unwrap();
        assert!(Arc::ptr_eq(&adopted, &node.doc));
        assert_eq!(adopted.root().to_xml(), copied.root().to_xml());

        // A bound construction enqueued twice makes two documents, and a
        // node of the context document is copied.
        let messages = |query: &str| -> Vec<Arc<Document>> {
            let mut ev = PlanEvaluator::new(&dctx);
            ev.eval_with_context(&lower(&parse_expr(query).unwrap()), d.root())
                .unwrap();
            ev.updates
                .into_iter()
                .map(|u| match u {
                    Update::Enqueue { message, .. } => message,
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        let twice = messages("let $x := <m/> return (do enqueue $x into q, do enqueue $x into q)");
        assert!(!Arc::ptr_eq(&twice[0], &twice[1]));
        let trigger = messages("do enqueue /o into q");
        assert!(!Arc::ptr_eq(&trigger[0], &d));
        assert_eq!(trigger[0].root().to_xml(), "<o v=\"7\"/>");
    }

    #[test]
    fn shared_entries_are_computed_once_and_agree_with_standalone_plans() {
        // `count(/o/i)` is shared by the first two bodies, and `/o/i` also
        // by the third, so the `count` entry reads the `/o/i` entry. The
        // second body reads a shared entry from inside a FLWOR whose own
        // slots the entry, with a FLWOR of its own, must not see.
        let bodies: Vec<Expr> = [
            "<a n='{count(/o/i)}'/>",
            "for $x in (1, 2) return ($x + count(/o/i), sum(for $i in /o/i return $i/@v))",
            "(/o/i/@v, sum(for $i in /o/i return $i/@v))",
        ]
        .iter()
        .map(|b| parse_expr(b).unwrap())
        .collect();
        let (plans, shared) = lower_rules(&bodies, &mut AggCatalog::default());
        assert_eq!(shared.len(), 3, "{shared:?}");
        let d = demaq_xml::parse("<o><i v='1'/><i v='2'/><i v='4'/></o>").unwrap();
        let dctx = DynamicContext::default();
        let mut ev = PlanEvaluator::with_shared(&dctx, &shared);
        for (body, (plan, _)) in bodies.iter().zip(&plans) {
            let got = ev.eval_with_context(plan, d.root()).unwrap();
            let want = PlanEvaluator::new(&dctx)
                .eval_with_context(&lower(body), d.root())
                .unwrap();
            assert_eq!(got.to_string(), want.to_string());
        }
        // Each entry is evaluated once. The memo answers `count` for both
        // `$x`, the `sum` for the second `$x` and the third body, and
        // `/o/i` when the `sum` entry reads it.
        assert_eq!((ev.counts.shared_evals, ev.counts.shared_reuses), (3, 5));
    }
}
