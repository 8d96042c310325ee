//! Incrementalizable aggregate shapes (ISSUE 9, extended by ISSUE 10).
//!
//! [`recognize_aggregate`] spots the rule-body subexpressions the engine
//! can maintain reactively instead of rescanning: `count` / `sum` /
//! `min` / `max` / `exists` / `avg` applied to a `qs:queue("…")` or
//! `qs:slice()` source, optionally refined by a chain of axis steps
//! (`count(qs:slice())`, `sum(qs:queue("orders")//total)`, …). Steps may
//! carry **guard predicates** — member-local boolean filters like
//! `[status = "open"]` — as long as each guard is deterministic,
//! position-free, and touches nothing outside the member document
//! (guard predicates, `is_guard_pred`). Those shapes are
//! per-message-independent — their value is a pure function of the
//! queue/slice membership — so a running [`AggAcc`] folded over member
//! documents in arrival order computes exactly what the reference
//! evaluator computes by rescanning, and a new arrival is a **delta**
//! (absorb one more member) instead of an O(N) rescan. `avg` decomposes
//! into a sum/count cell pair ([`AggAcc::Avg`]), so it folds just like
//! the others.
//!
//! Messages are immutable, so what one member adds to one aggregate never
//! changes: [`AggregateSpec::contribution`] walks a member document once
//! (by node id; guards run as lowered [`Plan`]s on the [`PlanEvaluator`])
//! and yields a [`Contribution`] — a count, or the selected nodes'
//! atomized values in node order — which [`AggAcc::absorb`] folds without
//! ever revisiting the document. The engine computes contributions when a
//! message is enqueued, from the document the enqueue already parsed.
//!
//! Positional predicates, variables, `qs:` context reads, and every
//! other argument shape are left alone: the lowering keeps the original
//! `Plan::FunctionCall` as the fallback inside [`Plan::AggregateRead`],
//! so unsupported or cold reads take the reference path unchanged.
//! Within one application, [`AggCatalog`] numbers the distinct shapes by
//! structural equality; the dense [`AggId`] rides in the plan, so a read
//! names its aggregate without formatting anything.
//!
//! Parity contract: [`AggAcc`] replicates the `fn:` builtin folds from
//! [`crate::functions`] *literally* — same comparison function, same
//! error strings — and any absorb/finish error makes the registry decline
//! the read so the fallback reproduces the identical error. Fold order is
//! member order rather than cross-document node order; every supported
//! aggregate is order-independent over the member multiset (`sum` over
//! floats is associative only up to rounding, which the differential
//! suite pins with integer-valued corpora).
//!
//! Accumulators can round-trip through an opaque byte encoding
//! ([`AggAcc::encode`]/[`AggAcc::decode`]) keyed by the shape's
//! [`AggregateSpec::stable_sig`]; the store persists those pairs as
//! retention *bases* when the liveness analysis proves a slice is read
//! only through these shapes (ISSUE 10), so purged members keep
//! contributing to every future read.

use crate::ast::{Axis, Expr};
use crate::context::DynamicContext;
use crate::error::{Error, Result};
use crate::plan::{lower_test, lower_unnumbered, ptest_matches, PTest, Plan, PlanEvaluator};
use crate::semantics::{for_each_on_axis, Focus};
use crate::value::{untyped_to_double, Atomic, Item, Sequence};
use demaq_xml::sym;
use demaq_xml::{NodeId, NodeRef};
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

/// The aggregate functions the incremental pass maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    Count,
    Sum,
    Min,
    Max,
    Exists,
    Avg,
}

impl AggOp {
    pub fn name(&self) -> &'static str {
        match self {
            AggOp::Count => "count",
            AggOp::Sum => "sum",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Exists => "exists",
            AggOp::Avg => "avg",
        }
    }

    fn from_name(name: &str) -> Option<AggOp> {
        Some(match name {
            "count" => AggOp::Count,
            "sum" => AggOp::Sum,
            "min" => AggOp::Min,
            "max" => AggOp::Max,
            "exists" => AggOp::Exists,
            "avg" => AggOp::Avg,
            _ => None?,
        })
    }
}

/// What the aggregate reads: a named queue or the current slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggSource {
    /// `qs:queue("name")` with a literal queue name.
    Queue(String),
    /// `qs:slice()` — resolved against the firing rule's slice context.
    Slice,
}

/// One axis step of a recognized aggregate path, with its (possibly
/// empty) guard predicates. A source-level filter (`qs:slice()[g]`)
/// normalizes to a `self::node()[g]` step, which evaluates identically.
#[derive(Debug, Clone)]
pub struct AggStep {
    pub axis: Axis,
    pub test: PTest,
    /// Member-local boolean guards, each accepted by `is_guard_pred`.
    /// This AST form is the step's identity (structural equality, the
    /// persisted signature).
    pub preds: Vec<Expr>,
    /// `preds` lowered to plans on first use — what a contribution walk
    /// runs. Recognition alone (static analysis) never pays for it.
    guards: OnceLock<Vec<Plan>>,
}

impl AggStep {
    fn new(axis: Axis, test: PTest, preds: Vec<Expr>) -> AggStep {
        AggStep {
            axis,
            test,
            preds,
            guards: OnceLock::new(),
        }
    }

    fn guards(&self) -> &[Plan] {
        self.guards
            .get_or_init(|| self.preds.iter().map(lower_unnumbered).collect())
    }
}

impl PartialEq for AggStep {
    fn eq(&self, other: &Self) -> bool {
        self.axis == other.axis && self.test == other.test && self.preds == other.preds
    }
}

/// A recognized incrementalizable aggregate: `op(source/steps…)` where
/// every step is an axis step whose predicates (if any) are member-local
/// boolean guards.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    pub op: AggOp,
    pub source: AggSource,
    /// Axis steps applied to each member document root, in order. A
    /// `//`-descent is expanded to an explicit `descendant-or-self::
    /// node()` step, exactly as `Plan::RelativePath` evaluates it.
    pub steps: Vec<AggStep>,
}

/// Dense number of one distinct aggregate shape within an application
/// (an index into its [`AggCatalog`]).
pub type AggId = u32;

/// The distinct aggregate shapes of one application, numbered by
/// structural equality as the rule bodies are lowered: two reads of the
/// same shape — in one rule or in several — share one [`AggId`], and so
/// one set of cells and one contribution per member.
#[derive(Debug, Default, Clone)]
pub struct AggCatalog {
    specs: Vec<Arc<AggregateSpec>>,
}

impl AggCatalog {
    /// The id of `spec`'s shape, numbering it if it is new.
    pub fn intern(&mut self, spec: AggregateSpec) -> (AggId, Arc<AggregateSpec>) {
        let i = match self.specs.iter().position(|s| **s == spec) {
            Some(i) => i,
            None => {
                self.specs.push(Arc::new(spec));
                self.specs.len() - 1
            }
        };
        (i as AggId, Arc::clone(&self.specs[i]))
    }

    pub fn get(&self, id: AggId) -> &AggregateSpec {
        &self.specs[id as usize]
    }

    /// Did this catalog number `spec` as `id`? A plan lowered into another
    /// catalog (e.g. by [`lower`](crate::lower)) carries ids that mean
    /// nothing here; the check is one pointer compare, since a plan shares
    /// the catalog's `Arc`.
    pub fn owns(&self, id: AggId, spec: &AggregateSpec) -> bool {
        self.specs
            .get(id as usize)
            .is_some_and(|s| std::ptr::eq(&**s, spec))
    }

    pub fn len(&self) -> usize {
        self.specs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

impl AggregateSpec {
    /// Process-independent signature: interned symbols are resolved back
    /// to their names, so the same source text produces the same string
    /// in every process. This is the key the store persists retention
    /// bases under (checkpoint survives restarts; `Sym` values do not) —
    /// formatted only where a base cell is written or read.
    pub fn stable_sig(&self) -> String {
        let src = match &self.source {
            AggSource::Queue(q) => format!("queue:{q}"),
            AggSource::Slice => "slice".to_string(),
        };
        let mut out = format!("{}|{}", self.op.name(), src);
        for s in &self.steps {
            out.push_str(&format!("|{:?}/{}", s.axis, ptest_sig(&s.test)));
            for p in &s.preds {
                // The AST `Debug` form carries only names and literals
                // (no interned ids), so it is process-stable.
                out.push_str(&format!("[{p:?}]"));
            }
        }
        out
    }

    /// Whether any step carries guard predicates.
    pub fn has_guards(&self) -> bool {
        self.steps.iter().any(|s| !s.preds.is_empty())
    }

    /// A step-free `count`/`exists`: a pure function of how many members
    /// there are, answered from the membership length alone — no cell,
    /// no contribution.
    pub fn membership_only(&self) -> bool {
        self.steps.is_empty() && matches!(self.op, AggOp::Count | AggOp::Exists)
    }

    /// What one member document adds to this aggregate. A selection or
    /// atomization error becomes [`Contribution::Failed`]: the reference
    /// rescan errors identically on any multiset containing this member.
    pub fn contribution(&self, root: &NodeRef) -> Contribution {
        let nodes = match self.member_nodes(root) {
            Ok(nodes) => nodes,
            Err(e) => return Contribution::Failed(Box::new(e)),
        };
        let doc = &root.doc;
        match self.op {
            AggOp::Count | AggOp::Exists => Contribution::Count(nodes.len() as u64),
            AggOp::Sum | AggOp::Avg => {
                let mut values = Vec::with_capacity(nodes.len());
                for &id in &nodes {
                    let d = untyped_to_double(&doc.string_value(id));
                    if d.is_nan() {
                        // `fn:avg` sums through `numeric_fold(_, "sum")`,
                        // so its error string names fn:sum as well.
                        return Contribution::Failed(Box::new(Error::type_error(
                            "fn:sum over non-numeric values",
                        )));
                    }
                    values.push(d);
                }
                Contribution::Numbers(values.into())
            }
            AggOp::Min | AggOp::Max => Contribution::Atoms(
                nodes
                    .iter()
                    .map(|&id| Atomic::Untyped(doc.string_value(id).into_owned()))
                    .collect(),
            ),
        }
    }

    /// Ids of the nodes the step chain selects within one member document,
    /// in document order. Errors when a guard predicate errors — the
    /// reference rescan errors identically on this member.
    fn member_nodes(&self, root: &NodeRef) -> Result<Vec<NodeId>> {
        let doc = &root.doc;
        let mut dctx: Option<DynamicContext> = None;
        let mut current = vec![root.id];
        for step in &self.steps {
            let mut next: Vec<NodeId> = Vec::new();
            for &node in &current {
                // Per-context-node batch, exactly as a lowered `Step`
                // scopes predicate positions.
                let batch = next.len();
                let _ = for_each_on_axis(step.axis, doc, node, |id| {
                    if ptest_matches(step.axis, doc, id, &step.test) {
                        next.push(id);
                    }
                    ControlFlow::<()>::Continue(())
                });
                for guard in step.guards() {
                    // Guards are statically proven never to touch the host.
                    let dctx = dctx.get_or_insert_with(DynamicContext::default);
                    let size = next.len() - batch;
                    let mut kept = batch;
                    for i in batch..next.len() {
                        let id = next[i];
                        if guard_keeps(dctx, guard, doc.node(id), i - batch + 1, size)? {
                            next[kept] = id;
                            kept += 1;
                        }
                    }
                    next.truncate(kept);
                }
            }
            // Per-step document-order dedup; ids are in document order.
            next.sort_unstable();
            next.dedup();
            current = next;
        }
        Ok(current)
    }
}

/// The predicate keep-test for one node, as a lowered step applies it: a
/// numeric value is a positional test (statically excluded for guards,
/// kept for defense in depth), anything else counts by effective boolean
/// value.
fn guard_keeps(
    dctx: &DynamicContext,
    guard: &Plan,
    node: NodeRef,
    pos: usize,
    size: usize,
) -> Result<bool> {
    let focus = Focus {
        item: Item::Node(node),
        pos,
        size,
    };
    let v = PlanEvaluator::new(dctx).eval(guard, Some(&focus))?;
    match v.as_slice() {
        [Item::Atomic(a)] if a.is_numeric() => Ok(a.to_double() == pos as f64),
        _ => v.effective_boolean(),
    }
}

/// One member document's share of one aggregate, computed once per
/// (message, aggregate) and folded by every later read of any scope the
/// member belongs to.
#[derive(Debug, Clone)]
pub enum Contribution {
    /// How many nodes the steps select (`count`, `exists`).
    Count(u64),
    /// The selected nodes' numeric values in node order (`sum`, `avg`).
    Numbers(Box<[f64]>),
    /// The selected nodes' atomized values in node order (`min`, `max`).
    Atoms(Box<[Atomic]>),
    /// Selecting or atomizing raised; every fold over this member raises
    /// the same error.
    Failed(Box<Error>),
}

/// Process-stable rendering of a `PTest` (interned syms resolved).
fn ptest_sig(t: &PTest) -> String {
    let named = |n: &Option<(sym::Sym, Option<String>)>| match n {
        Some((s, ns)) => format!("{}:{ns:?}", sym::resolve(*s)),
        None => "*".to_string(),
    };
    match t {
        PTest::Name { sym: s, ns } => format!("{}:{ns:?}", sym::resolve(*s)),
        PTest::AnyName => "*".to_string(),
        PTest::AnyKind => "node()".to_string(),
        PTest::Text => "text()".to_string(),
        PTest::Comment => "comment()".to_string(),
        PTest::Element(n) => format!("element({})", named(n)),
        PTest::Attribute(n) => format!("attribute({})", named(n)),
        PTest::Pi(n) => format!("pi({n:?})"),
        PTest::Document => "document()".to_string(),
    }
}

/// Builtins a guard predicate may call: deterministic, context-free
/// beyond their arguments.
const GUARD_FNS: &[&str] = &[
    "not", "exists", "empty", "boolean", "true", "false", "count", "sum", "min", "max", "avg",
    "number", "string", "string-length", "contains", "starts-with", "ends-with", "concat",
    "normalize-space", "abs", "floor", "ceiling", "round", "upper-case", "lower-case",
    "substring", "string-join",
];

/// Builtins whose value is never a single number — safe as a predicate's
/// *top-level* expression (a numeric predicate is a positional test).
const BOOLISH_FNS: &[&str] = &[
    "not", "exists", "empty", "boolean", "true", "false", "contains", "starts-with", "ends-with",
];

/// Is `e` evaluable against one member document alone: no variables, no
/// `qs:` context reads, no `fn:position`/`fn:last`, no clock, no
/// constructors or updates — and every nested predicate is itself a
/// guard (so nested positional tricks are caught too)?
fn is_member_local(e: &Expr) -> bool {
    match e {
        Expr::StringLit(_) | Expr::IntLit(_) | Expr::DoubleLit(_) | Expr::ContextItem => true,
        Expr::Sequence(es) => es.iter().all(is_member_local),
        Expr::FunctionCall { name, args } => match name.prefix.as_deref() {
            None => GUARD_FNS.contains(&name.local.as_str()) && args.iter().all(is_member_local),
            Some("xs") => args.iter().all(is_member_local),
            _ => false,
        },
        Expr::Path { root: _, steps } => steps.iter().all(is_member_local),
        Expr::Step {
            axis: _,
            test: _,
            predicates,
        } => predicates.iter().all(is_guard_pred),
        Expr::Filter { base, predicates } => {
            is_member_local(base) && predicates.iter().all(is_guard_pred)
        }
        Expr::RelativePath {
            base,
            step,
            descend: _,
        } => is_member_local(base) && is_member_local(step),
        Expr::Or(l, r) | Expr::And(l, r) | Expr::Range(l, r) => {
            is_member_local(l) && is_member_local(r)
        }
        Expr::Comparison { left, right, .. }
        | Expr::Arith { left, right, .. }
        | Expr::Set { left, right, .. } => is_member_local(left) && is_member_local(right),
        Expr::Neg(x) => is_member_local(x),
        Expr::If { cond, then, els } => {
            is_member_local(cond)
                && is_member_local(then)
                && els.as_deref().is_none_or(is_member_local)
        }
        Expr::Cast { expr, .. } | Expr::InstanceOf { expr, .. } => is_member_local(expr),
        // Variables, FLWOR/quantifiers (bindings), constructors, updates,
        // and anything else: not provably member-local.
        _ => false,
    }
}

/// A *guard* predicate: member-local (see [`is_member_local`]) and of a
/// top-level form that can never evaluate to a single number — numeric
/// predicates are positional tests, whose value depends on membership
/// order and therefore cannot be folded member-at-a-time.
fn is_guard_pred(e: &Expr) -> bool {
    let boolish = match e {
        Expr::Comparison { .. } | Expr::Or(..) | Expr::And(..) | Expr::StringLit(_) => true,
        Expr::Path { .. } | Expr::RelativePath { .. } | Expr::Step { .. } | Expr::Filter { .. } => {
            true
        }
        Expr::FunctionCall { name, .. } => {
            name.prefix.is_none() && BOOLISH_FNS.contains(&name.local.as_str())
        }
        _ => false,
    };
    boolish && is_member_local(e)
}

/// Recognize `count|sum|min|max|exists|avg ( <source-path> )` where the
/// single argument is `qs:queue("lit")`, `qs:slice()`, or either refined
/// by axis steps with member-local guard predicates. Everything else
/// returns `None`.
pub fn recognize_aggregate(expr: &Expr) -> Option<AggregateSpec> {
    let Expr::FunctionCall { name, args } = expr else {
        return None;
    };
    if name.prefix.is_some() || args.len() != 1 {
        return None;
    }
    let op = AggOp::from_name(&name.local)?;
    let (source, steps) = recognize_source(&args[0])?;
    Some(AggregateSpec { op, source, steps })
}

/// Accept a step's predicates when every one is a guard.
fn guard_preds(predicates: &[Expr]) -> Option<Vec<Expr>> {
    predicates
        .iter()
        .all(is_guard_pred)
        .then(|| predicates.to_vec())
}

/// Peel a source path down to its `qs:` root, collecting steps outside-in.
fn recognize_source(expr: &Expr) -> Option<(AggSource, Vec<AggStep>)> {
    match expr {
        Expr::FunctionCall { name, args } if name.prefix.as_deref() == Some("qs") => {
            match (name.local.as_str(), args.as_slice()) {
                ("queue", [Expr::StringLit(q)]) => Some((AggSource::Queue(q.clone()), Vec::new())),
                ("slice", []) => Some((AggSource::Slice, Vec::new())),
                _ => None,
            }
        }
        // A filtered source: guards normalize to a self::node() step
        // (identical semantics for position-free predicates); an
        // unguarded parenthesized source changes nothing.
        Expr::Filter { base, predicates } => {
            let (source, mut collected) = recognize_source(base)?;
            if !predicates.is_empty() {
                let preds = guard_preds(predicates)?;
                collected.push(AggStep::new(Axis::SelfAxis, PTest::AnyKind, preds));
            }
            Some((source, collected))
        }
        // The parser's primary path form: `qs:slice()//n` parses to
        // `Path { root: false, steps: [<source>, Step…] }`, with `//`
        // already expanded to an explicit descendant-or-self step.
        Expr::Path { root: false, steps } => {
            let (first, rest) = steps.split_first()?;
            let (source, mut collected) = recognize_source(first)?;
            for s in rest {
                let Expr::Step {
                    axis,
                    test,
                    predicates,
                } = s
                else {
                    return None;
                };
                collected.push(AggStep::new(
                    *axis,
                    lower_test(test),
                    guard_preds(predicates)?,
                ));
            }
            Some((source, collected))
        }
        Expr::RelativePath {
            base,
            step,
            descend,
        } => {
            let Expr::Step {
                axis,
                test,
                predicates,
            } = step.as_ref()
            else {
                return None;
            };
            let preds = guard_preds(predicates)?;
            let (source, mut steps) = recognize_source(base)?;
            if *descend {
                steps.push(AggStep::new(Axis::DescendantOrSelf, PTest::AnyKind, Vec::new()));
            }
            steps.push(AggStep::new(*axis, lower_test(test), preds));
            Some((source, steps))
        }
        _ => None,
    }
}

/// A running aggregate fold over member documents. Replicates the
/// corresponding `fn:` builtin exactly: same accumulator state, same
/// comparison, same error strings — so resuming the fold on new members
/// (the delta path) is indistinguishable from rescanning everything.
#[derive(Debug, Clone)]
pub enum AggAcc {
    Count(i64),
    Exists(bool),
    /// Running best (`fn:min`'s / `fn:max`'s loop variable).
    Min(Option<Atomic>),
    Max(Option<Atomic>),
    /// Node atomization yields `xs:untypedAtomic`, never `xs:integer`,
    /// so a non-empty `fn:sum` over path results always takes
    /// `numeric_fold`'s double branch; the empty multiset yields
    /// `xs:integer` 0 (the builtin's 1-arg zero).
    Sum { seen: bool, dsum: f64 },
    /// `fn:avg` decomposed into its sum/count pair (ROADMAP 5a): the
    /// builtin computes `numeric_fold(seq, "sum") / count(seq)`, both of
    /// which fold member-at-a-time.
    Avg { count: i64, dsum: f64 },
}

impl AggAcc {
    pub fn new(op: AggOp) -> AggAcc {
        match op {
            AggOp::Count => AggAcc::Count(0),
            AggOp::Exists => AggAcc::Exists(false),
            AggOp::Min => AggAcc::Min(None),
            AggOp::Max => AggAcc::Max(None),
            AggOp::Sum => AggAcc::Sum {
                seen: false,
                dsum: 0.0,
            },
            AggOp::Avg => AggAcc::Avg {
                count: 0,
                dsum: 0.0,
            },
        }
    }

    /// Fold one member's [`Contribution`] into the accumulator. An `Err`
    /// means the reference evaluation errors on this multiset too
    /// (non-numeric sum/avg, incomparable min/max, erroring guard) — the
    /// caller must discard the cell and fall back so the reference path
    /// raises the identical error.
    pub fn absorb(&mut self, c: &Contribution) -> Result<()> {
        match (self, c) {
            (_, Contribution::Failed(e)) => return Err((**e).clone()),
            (AggAcc::Count(n), Contribution::Count(k)) => *n += *k as i64,
            (AggAcc::Exists(b), Contribution::Count(k)) => *b = *b || *k > 0,
            (AggAcc::Sum { seen, dsum }, Contribution::Numbers(values)) => {
                for d in values.iter() {
                    *seen = true;
                    *dsum += d;
                }
            }
            (AggAcc::Avg { count, dsum }, Contribution::Numbers(values)) => {
                for d in values.iter() {
                    *count += 1;
                    *dsum += d;
                }
            }
            (acc @ (AggAcc::Min(_) | AggAcc::Max(_)), Contribution::Atoms(atoms)) => {
                let (name, want, best) = match acc {
                    AggAcc::Min(best) => ("min", Ordering::Less, best),
                    AggAcc::Max(best) => ("max", Ordering::Greater, best),
                    _ => unreachable!(),
                };
                for a in atoms.iter() {
                    match best {
                        None => *best = Some(a.clone()),
                        Some(b) => {
                            let ord = a.value_cmp(b).ok_or_else(|| {
                                Error::type_error(format!("fn:{name} over incomparable values"))
                            })?;
                            if ord == want {
                                *best = Some(a.clone());
                            }
                        }
                    }
                }
            }
            (acc, c) => {
                return Err(Error::dynamic(format!(
                    "aggregate contribution {c:?} does not fold into {acc:?}"
                )))
            }
        }
        Ok(())
    }

    /// The aggregate's value for the members absorbed so far.
    pub fn result(&self) -> Sequence {
        match self {
            AggAcc::Count(c) => Sequence::int(*c),
            AggAcc::Exists(b) => Sequence::bool(*b),
            AggAcc::Min(best) | AggAcc::Max(best) => match best {
                Some(a) => Sequence::one(a.clone()),
                None => Sequence::empty(),
            },
            AggAcc::Sum { seen, dsum } => {
                if *seen {
                    Sequence::one(Atomic::Double(*dsum))
                } else {
                    Sequence::int(0)
                }
            }
            AggAcc::Avg { count, dsum } => {
                if *count == 0 {
                    Sequence::empty()
                } else {
                    Sequence::one(Atomic::Double(*dsum / *count as f64))
                }
            }
        }
    }

    /// Serialize for persistence (retention bases in the checkpoint).
    /// `None` when the state is not encodable (a `QName` best — which
    /// member atomization never produces — stays process-local).
    pub fn encode(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(16);
        match self {
            AggAcc::Count(c) => {
                out.push(0);
                out.extend_from_slice(&c.to_le_bytes());
            }
            AggAcc::Exists(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            AggAcc::Min(best) => {
                out.push(2);
                encode_opt_atomic(&mut out, best)?;
            }
            AggAcc::Max(best) => {
                out.push(3);
                encode_opt_atomic(&mut out, best)?;
            }
            AggAcc::Sum { seen, dsum } => {
                out.push(4);
                out.push(*seen as u8);
                out.extend_from_slice(&dsum.to_bits().to_le_bytes());
            }
            AggAcc::Avg { count, dsum } => {
                out.push(5);
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&dsum.to_bits().to_le_bytes());
            }
        }
        Some(out)
    }

    /// Inverse of [`Self::encode`]; `None` on any malformed input (a
    /// corrupt or future-format base simply fails to load, and the slice
    /// stays fully retained).
    pub fn decode(bytes: &[u8]) -> Option<AggAcc> {
        let mut r = Reader(bytes);
        let acc = match r.u8()? {
            0 => AggAcc::Count(r.i64()?),
            1 => AggAcc::Exists(r.u8()? != 0),
            2 => AggAcc::Min(r.opt_atomic()?),
            3 => AggAcc::Max(r.opt_atomic()?),
            4 => AggAcc::Sum {
                seen: r.u8()? != 0,
                dsum: f64::from_bits(r.u64()?),
            },
            5 => AggAcc::Avg {
                count: r.i64()?,
                dsum: f64::from_bits(r.u64()?),
            },
            _ => return None,
        };
        r.0.is_empty().then_some(acc)
    }
}

fn encode_opt_atomic(out: &mut Vec<u8>, a: &Option<Atomic>) -> Option<()> {
    match a {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            let (tag, bytes): (u8, Vec<u8>) = match a {
                Atomic::Str(s) => (0, s.as_bytes().to_vec()),
                Atomic::Bool(b) => (1, vec![*b as u8]),
                Atomic::Int(i) => (2, i.to_le_bytes().to_vec()),
                Atomic::Decimal(d) => (3, d.to_bits().to_le_bytes().to_vec()),
                Atomic::Double(d) => (4, d.to_bits().to_le_bytes().to_vec()),
                Atomic::DateTime(t) => (5, t.to_le_bytes().to_vec()),
                Atomic::Duration(t) => (6, t.to_le_bytes().to_vec()),
                Atomic::Untyped(s) => (7, s.as_bytes().to_vec()),
                Atomic::QName(_) => return None,
            };
            out.push(tag);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
    }
    Some(())
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        (self.0.len() >= n).then(|| {
            let (head, rest) = self.0.split_at(n);
            self.0 = rest;
            head
        })
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn i64(&mut self) -> Option<i64> {
        self.take(8).map(|b| i64::from_le_bytes(b.try_into().unwrap()))
    }
    fn opt_atomic(&mut self) -> Option<Option<Atomic>> {
        match self.u8()? {
            0 => Some(None),
            1 => {
                let tag = self.u8()?;
                let len = self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))? as usize;
                let bytes = self.take(len)?;
                let s = || String::from_utf8(bytes.to_vec()).ok();
                let f = |b: &[u8]| Some(f64::from_bits(u64::from_le_bytes(b.try_into().ok()?)));
                let i = |b: &[u8]| Some(i64::from_le_bytes(b.try_into().ok()?));
                let a = match tag {
                    0 => Atomic::Str(s()?),
                    1 => Atomic::Bool(*bytes.first()? != 0),
                    2 => Atomic::Int(i(bytes)?),
                    3 => Atomic::Decimal(f(bytes)?),
                    4 => Atomic::Double(f(bytes)?),
                    5 => Atomic::DateTime(i(bytes)?),
                    6 => Atomic::Duration(i(bytes)?),
                    7 => Atomic::Untyped(s()?),
                    _ => return None,
                };
                Some(Some(a))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::value::Item;

    fn recognize(q: &str) -> Option<AggregateSpec> {
        recognize_aggregate(&parse_expr(q).unwrap())
    }

    #[test]
    fn recognizes_supported_shapes() {
        let s = recognize("count(qs:slice())").unwrap();
        assert_eq!(s.op, AggOp::Count);
        assert_eq!(s.source, AggSource::Slice);
        assert!(s.steps.is_empty());

        let s = recognize("sum(qs:queue(\"orders\")//total)").unwrap();
        assert_eq!(s.op, AggOp::Sum);
        assert_eq!(s.source, AggSource::Queue("orders".into()));
        // `//total` expands to descendant-or-self::node()/child::total.
        assert_eq!(s.steps.len(), 2);
        assert_eq!(s.steps[0].axis, Axis::DescendantOrSelf);

        for q in [
            "exists(qs:slice()/ack)",
            "min(qs:queue(\"q\")/m/price)",
            "max(qs:slice()//n)",
            "avg(qs:slice()//n)", // sum/count pair (ROADMAP 5a)
            "avg(qs:queue(\"orders\")//total)",
        ] {
            assert!(recognize(q).is_some(), "{q} should be incrementalizable");
        }
    }

    #[test]
    fn recognizes_guarded_shapes() {
        // Member-local boolean guards fold member-at-a-time.
        for q in [
            "count(qs:slice()[. > 1])",
            "count(qs:slice()//n[. > 5])",
            "sum(qs:slice()//item[status = \"open\"]/v)",
            "count(qs:queue(\"q\")/m[exists(ack)])",
            "avg(qs:slice()//n[not(@skip)])",
        ] {
            let s = recognize(q).unwrap_or_else(|| panic!("{q} should be recognized"));
            assert!(s.has_guards(), "{q} must carry its guard");
        }
    }

    #[test]
    fn rejects_unsupported_shapes() {
        for q in [
            "count(qs:queue())",          // implicit target queue, no literal
            "count(qs:queue($v))",        // non-literal queue name
            "count(qs:slice()/a[2])",     // positional predicate
            "count(qs:slice()[1])",       // positional source filter
            "count(qs:slice()//n[position() < 2])", // explicit position
            "count(qs:slice()//n[last()])", // membership-order dependent
            "count(qs:slice()//n[$v])",   // free variable
            "count(qs:slice()[qs:property(\"p\") = 1])", // context read
            "sum(qs:slice()//n, 0)",      // 2-arg sum
            "count(//a)",                 // message-relative path
            "count(qs:slicekey())",       // not a membership source
            "string(qs:slice())",         // not an aggregate
        ] {
            assert!(recognize(q).is_none(), "{q} must not be recognized");
        }
    }

    #[test]
    fn stable_sig_and_catalog_ids_distinguish_shapes() {
        let shapes = [
            "count(qs:slice())",
            "count(qs:queue(\"a\"))",
            "count(qs:queue(\"b\"))",
            "sum(qs:queue(\"a\"))",
            "avg(qs:queue(\"a\"))",
            "count(qs:queue(\"a\")/x)",
            "count(qs:queue(\"a\")/x[. > 1])",
        ];
        let sigs: Vec<String> = shapes.iter().map(|q| recognize(q).unwrap().stable_sig()).collect();
        let mut catalog = AggCatalog::default();
        let ids: Vec<AggId> = shapes
            .iter()
            .map(|q| catalog.intern(recognize(q).unwrap()).0)
            .collect();
        for i in 0..shapes.len() {
            for j in i + 1..shapes.len() {
                assert_ne!(sigs[i], sigs[j]);
                assert_ne!(ids[i], ids[j]);
            }
        }
        // Structurally equal shapes share one id, however often they occur.
        for (q, id) in shapes.iter().zip(&ids) {
            assert_eq!(catalog.intern(recognize(q).unwrap()).0, *id);
        }
        assert_eq!(catalog.len(), shapes.len());
    }

    #[test]
    fn membership_only_is_step_free_count_or_exists() {
        assert!(recognize("count(qs:slice())").unwrap().membership_only());
        assert!(recognize("exists(qs:queue(\"q\"))").unwrap().membership_only());
        assert!(!recognize("sum(qs:slice())").unwrap().membership_only());
        assert!(!recognize("count(qs:slice()/a)").unwrap().membership_only());
    }

    #[test]
    fn stable_sig_has_no_interned_ids() {
        let sig = recognize("sum(qs:slice()//total)").unwrap().stable_sig();
        assert!(sig.contains("total"), "names resolved in {sig}");
        assert!(!sig.contains("Sym("), "no raw interned ids in {sig}");
    }

    fn doc(xml: &str) -> NodeRef {
        demaq_xml::parse(xml).unwrap().root()
    }

    fn absorb(acc: &mut AggAcc, spec: &AggregateSpec, member: &NodeRef) -> Result<()> {
        acc.absorb(&spec.contribution(member))
    }

    /// The fold must agree with the builtin over the same member docs —
    /// including when resumed incrementally one member at a time.
    #[test]
    fn acc_matches_reference_builtins() {
        let members = [
            doc("<m><n>5</n></m>"),
            doc("<m><n>2</n><n>9</n></m>"),
            doc("<m/>"),
            doc("<m><n>7</n></m>"),
        ];
        for (q, op) in [
            ("count", AggOp::Count),
            ("sum", AggOp::Sum),
            ("min", AggOp::Min),
            ("max", AggOp::Max),
            ("exists", AggOp::Exists),
            ("avg", AggOp::Avg),
        ] {
            let spec = recognize(&format!("{q}(qs:slice()//n)")).unwrap();
            assert_eq!(spec.op, op);
            let mut acc = AggAcc::new(op);
            for m in &members {
                absorb(&mut acc, &spec, m).unwrap();
            }
            // Reference: the builtin applied to the atomized node multiset.
            let all: Sequence = members
                .iter()
                .flat_map(|m| {
                    let ids = spec.member_nodes(m).unwrap();
                    ids.into_iter().map(|id| Item::Node(m.doc.node(id)))
                })
                .collect();
            let reference =
                crate::functions::call_builtin(&test_dctx(), q, vec![all], None).unwrap();
            assert_eq!(
                format!("{:?}", acc.result()),
                format!("{:?}", reference),
                "{q} diverged from fn:{q}"
            );
        }
    }

    /// Guarded folds must agree with the reference evaluator filtering
    /// the same members.
    #[test]
    fn guarded_acc_matches_reference() {
        let members = [
            doc("<m><n>5</n></m>"),
            doc("<m><n>2</n><n>9</n></m>"),
            doc("<m><n>abc</n></m>"),
            doc("<m><n>7</n></m>"),
        ];
        let spec = recognize("count(qs:slice()//n[. > 4])").unwrap();
        let mut acc = AggAcc::new(AggOp::Count);
        for m in &members {
            absorb(&mut acc, &spec, m).unwrap();
        }
        // 5, 9, 7 pass; 2 fails; "abc" > 4 is false (untyped numeric cmp).
        assert_eq!(format!("{:?}", acc.result()), format!("{:?}", Sequence::int(3)));

        // Guards also shield sum from non-numeric members the reference
        // would filter out the same way.
        let spec = recognize("sum(qs:slice()//n[. > 4])").unwrap();
        let mut acc = AggAcc::new(AggOp::Sum);
        for m in &members {
            absorb(&mut acc, &spec, m).unwrap();
        }
        assert_eq!(
            format!("{:?}", acc.result()),
            format!("{:?}", Sequence::one(Atomic::Double(21.0)))
        );
    }

    #[test]
    fn acc_errors_match_reference_error_strings() {
        let bad = doc("<m><n>abc</n></m>");
        let good = doc("<m><n>1</n></m>");

        let spec = recognize("sum(qs:slice()//n)").unwrap();
        let mut acc = AggAcc::new(AggOp::Sum);
        absorb(&mut acc, &spec, &good).unwrap();
        let err = absorb(&mut acc, &spec, &bad).unwrap_err();
        assert!(err.to_string().contains("fn:sum over non-numeric values"));

        // `fn:avg` folds through `numeric_fold(_, "sum")`, so its error
        // string names fn:sum as well.
        let spec = recognize("avg(qs:slice()//n)").unwrap();
        let mut acc = AggAcc::new(AggOp::Avg);
        let err = absorb(&mut acc, &spec, &bad).unwrap_err();
        assert!(err.to_string().contains("fn:sum over non-numeric values"));

        // min over string-ish untyped values is fine (string comparison)…
        let spec = recognize("min(qs:slice()//n)").unwrap();
        let mut acc = AggAcc::new(AggOp::Min);
        absorb(&mut acc, &spec, &bad).unwrap();
        absorb(&mut acc, &spec, &good).unwrap();
        assert_eq!(
            format!("{:?}", acc.result()),
            format!("{:?}", Sequence::one(Atomic::Untyped("1".into())))
        );
    }

    #[test]
    fn empty_multiset_results_match_builtins() {
        let dbg = |s: Sequence| format!("{s:?}");
        assert_eq!(dbg(AggAcc::new(AggOp::Count).result()), dbg(Sequence::int(0)));
        assert_eq!(dbg(AggAcc::new(AggOp::Sum).result()), dbg(Sequence::int(0)));
        assert_eq!(dbg(AggAcc::new(AggOp::Exists).result()), dbg(Sequence::bool(false)));
        assert!(AggAcc::new(AggOp::Min).result().is_empty());
        assert!(AggAcc::new(AggOp::Max).result().is_empty());
        // fn:avg over the empty sequence is the empty sequence.
        assert!(AggAcc::new(AggOp::Avg).result().is_empty());
    }

    /// Persistence round-trip: every accumulator state survives
    /// encode/decode byte-identically (retention bases in checkpoints).
    #[test]
    fn acc_encode_decode_round_trip() {
        let states = [
            AggAcc::Count(42),
            AggAcc::Exists(true),
            AggAcc::Exists(false),
            AggAcc::Min(None),
            AggAcc::Min(Some(Atomic::Untyped("7".into()))),
            AggAcc::Max(Some(Atomic::Int(-3))),
            AggAcc::Max(Some(Atomic::Double(2.5))),
            AggAcc::Sum {
                seen: true,
                dsum: 19.25,
            },
            AggAcc::Sum {
                seen: false,
                dsum: 0.0,
            },
            AggAcc::Avg {
                count: 6,
                dsum: 33.0,
            },
        ];
        for acc in states {
            let bytes = acc.encode().expect("encodable");
            let back = AggAcc::decode(&bytes).expect("decodable");
            assert_eq!(format!("{acc:?}"), format!("{back:?}"));
        }
        // Malformed input never panics.
        assert!(AggAcc::decode(&[]).is_none());
        assert!(AggAcc::decode(&[9]).is_none());
        assert!(AggAcc::decode(&[0, 1]).is_none());
        let mut long = AggAcc::Count(1).encode().unwrap();
        long.push(0);
        assert!(AggAcc::decode(&long).is_none(), "trailing bytes rejected");
    }

    fn test_dctx() -> crate::context::DynamicContext {
        crate::context::DynamicContext::new(std::sync::Arc::new(crate::context::NoHost))
    }
}
