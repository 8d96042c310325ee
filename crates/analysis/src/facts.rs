//! Per-rule facts consumed by the analyzer.
//!
//! A [`RuleFacts`] is the analyzer's view of one rule: where it is
//! attached, which queues it reads and writes, every enqueue site with its
//! guardedness, which properties it reads and sets, and whether the body
//! constant-folds to a no-op. Facts can be built two ways:
//!
//! * [`RuleFacts::from_rule`] — from the raw parsed [`RuleDecl`] (the
//!   `demaq-lint` CLI path, no compiler required);
//! * [`RuleFacts::from_parts`] — from a compiled rule's already-extracted
//!   read/write sets and rewritten body (the deploy-time path in
//!   `demaq-core`).

use demaq_qdl::{AppSpec, RuleDecl};
use demaq_xquery::ast::{AttrValuePart, Axis, DirContent, FlworClause, NodeTest};
use demaq_xquery::{fold_boolean, lower, Expr, Plan};

/// What an aggregate read ranges over.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum AggReadSource {
    /// A named queue (`qs:queue("…")`, `collection("…")`, or the rule's
    /// own target via argument-less `qs:queue()`).
    Queue(String),
    /// The rule's slice (`qs:slice()`).
    Slice,
}

/// One aggregate function application over a queue or slice found in a
/// rule body or property binding: `count`/`sum`/`min`/`max`/`exists`/`avg`
/// whose argument reads `qs:queue(…)` or `qs:slice()`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AggregateReadFact {
    /// Aggregate function name (`count`, `sum`, …).
    pub op: String,
    /// The queue or slice it reads.
    pub source: AggReadSource,
    /// True when the shape matches what the incremental maintenance pass
    /// ([`demaq_xquery::recognize_aggregate`]) can answer from a
    /// materialized cell; false means every evaluation rescans the source.
    pub incremental: bool,
}

/// Raw (non-aggregate, non-suffix) read shapes found in a rule body or
/// property binding — the input to the message-lifetime pass in
/// [`crate::liveness`]. Collected by a *pruning* walk: recognized
/// incremental aggregate shapes and `SOURCE[last()]` suffix reads are not
/// descended into, so a body that touches members *only* through those
/// shapes reports no raw scans at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReads {
    /// Queues whose member documents are read outside every recognized
    /// aggregate / bounded-suffix shape (forces `FullScan`).
    pub queues: Vec<String>,
    /// The rule's own slice is scanned raw.
    pub slice: bool,
    /// Bounded suffix reads: `(None, k)` = the last `k` members of the
    /// own slice, `(Some(q), k)` = the last `k` members of queue `q`.
    pub suffix: Vec<(Option<String>, usize)>,
    /// A queue reference whose target is not statically known — a
    /// non-literal `qs:queue(E)` / `collection(E)` argument, or an
    /// argument-less `qs:queue()` outside a queue rule. The analysis
    /// must then assume *every* queue is scanned.
    pub dynamic: bool,
}

impl ScanReads {
    /// No raw reads at all (aggregate/suffix shapes may still be present).
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty() && !self.slice && self.suffix.is_empty() && !self.dynamic
    }
}

/// One `do enqueue … into Q` occurrence in a rule body.
#[derive(Debug, Clone)]
pub struct EnqueueSite {
    /// Target queue name.
    pub queue: String,
    /// True when the enqueue sits under a condition: an `if` branch, a
    /// FLWOR `for`/`where`, a quantifier body, or a predicate. Unguarded
    /// enqueues fire on *every* triggering message.
    pub conditional: bool,
    /// `with NAME value …` clauses; the second component is the value when
    /// it is a string literal (used to follow echo-queue timer targets).
    pub with_props: Vec<(String, Option<String>)>,
}

/// The analyzer's view of one rule.
#[derive(Debug, Clone)]
pub struct RuleFacts {
    pub name: String,
    /// Queue or slicing the rule is attached to.
    pub target: String,
    pub on_slicing: bool,
    pub error_queue: Option<String>,
    /// Queues read via `qs:queue("…")` / `collection("…")`.
    pub reads_queues: Vec<String>,
    /// Queues written via `do enqueue … into …`.
    pub writes_queues: Vec<String>,
    /// Every enqueue site with its guardedness.
    pub enqueues: Vec<EnqueueSite>,
    /// Literal arguments of `qs:property("…")` reads.
    pub prop_reads: Vec<String>,
    /// `do reset NAME …` slicing targets.
    pub named_resets: Vec<String>,
    /// Count of bare `do reset` occurrences (implicit slicing context).
    pub bare_resets: usize,
    /// Aggregate reads (`count`/`sum`/… over `qs:queue`/`qs:slice`) in
    /// the body, with whether the incremental pass maintains each.
    pub aggregate_reads: Vec<AggregateReadFact>,
    /// Raw member-scan shapes left over after pruning recognized
    /// aggregates and bounded-suffix reads (liveness input).
    pub scan_reads: ScanReads,
    /// Element names the trigger condition requires, when extractable.
    pub trigger_elements: Option<Vec<String>>,
    /// The body constant-folds away: either the whole body lowers to a
    /// constant (a constant carries no updates), or it is `if (C) then …`
    /// with `C` folding to false.
    pub never_fires: bool,
}

impl RuleFacts {
    /// Build facts from a raw parsed rule (no compiler rewrites applied).
    pub fn from_rule(rule: &RuleDecl, spec: &AppSpec) -> RuleFacts {
        let on_slicing = spec.slicing(&rule.target).is_some();
        let mut f = RuleFacts {
            name: rule.name.clone(),
            target: rule.target.clone(),
            on_slicing,
            error_queue: rule.error_queue.clone(),
            reads_queues: Vec::new(),
            writes_queues: Vec::new(),
            enqueues: Vec::new(),
            prop_reads: Vec::new(),
            named_resets: Vec::new(),
            bare_resets: 0,
            aggregate_reads: Vec::new(),
            scan_reads: ScanReads::default(),
            trigger_elements: extract_trigger_elements(&rule.body),
            never_fires: false,
        };
        f.scan_body(&rule.body);
        // A rule on a queue implicitly reads it via argument-less
        // qs:queue(); record the target so flow facts match the compiled
        // read set.
        if !on_slicing && !f.reads_queues.contains(&rule.target) {
            let reads_own = {
                let mut saw = false;
                rule.body.visit(&mut |e| {
                    if let Expr::FunctionCall { name, args } = e {
                        if name.prefix.as_deref() == Some("qs")
                            && name.local == "queue"
                            && args.is_empty()
                        {
                            saw = true;
                        }
                    }
                });
                saw
            };
            if reads_own {
                f.reads_queues.push(rule.target.clone());
            }
        }
        f.finish();
        f
    }

    /// Build facts from a compiled rule's pieces: identity fields plus the
    /// compiler's read/write sets and trigger filter, with enqueue sites,
    /// property reads, and resets re-derived from the (rewritten) body.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        name: &str,
        target: &str,
        on_slicing: bool,
        error_queue: Option<String>,
        reads_queues: Vec<String>,
        writes_queues: Vec<String>,
        trigger_elements: Option<Vec<String>>,
        body: &Expr,
    ) -> RuleFacts {
        let mut f = RuleFacts {
            name: name.to_string(),
            target: target.to_string(),
            on_slicing,
            error_queue,
            reads_queues,
            writes_queues,
            enqueues: Vec::new(),
            prop_reads: Vec::new(),
            named_resets: Vec::new(),
            bare_resets: 0,
            aggregate_reads: Vec::new(),
            scan_reads: ScanReads::default(),
            trigger_elements,
            never_fires: false,
        };
        f.scan_body(body);
        f.finish();
        f
    }

    fn scan_body(&mut self, body: &Expr) {
        walk(body, false, self);
        let own = (!self.on_slicing).then(|| self.target.clone());
        self.aggregate_reads = extract_aggregate_reads(body, own.as_deref());
        self.scan_reads = extract_scan_reads(body, own.as_deref());
        self.never_fires = body_never_fires(body);
    }

    fn finish(&mut self) {
        for s in &self.enqueues {
            self.writes_queues.push(s.queue.clone());
        }
        self.reads_queues.sort();
        self.reads_queues.dedup();
        self.writes_queues.sort();
        self.writes_queues.dedup();
        self.prop_reads.sort();
        self.prop_reads.dedup();
    }

    /// Property names this rule sets via `with` clauses.
    pub fn with_prop_names(&self) -> impl Iterator<Item = &str> {
        self.enqueues
            .iter()
            .flat_map(|s| s.with_props.iter().map(|(n, _)| n.as_str()))
    }
}

fn body_never_fires(body: &Expr) -> bool {
    if let Expr::If { cond, .. } = body {
        if fold_boolean(cond) == Some(false) {
            return true;
        }
    }
    // A body that folds to a constant cannot carry pending updates.
    matches!(lower(body), Plan::Const(_))
}

/// Aggregate functions the extractor looks for. All six have incremental
/// shapes ([`demaq_xquery::AggOp`] — `avg` decomposes into a sum/count
/// pair); calls that [`demaq_xquery::recognize_aggregate`] rejects
/// (positional predicates, non-member-local guards, wrapped sources, …)
/// surface as rescan facts instead.
const AGG_NAMES: &[&str] = &["count", "sum", "min", "max", "exists", "avg"];

/// Every aggregate read in `body`: recognized incremental shapes (exactly
/// the ones `demaq_xquery::recognize_aggregate` — and hence the engine's
/// plan lowerer — accepts), plus bare-name aggregate calls whose argument
/// touches `qs:queue`/`qs:slice` in any other shape (rescans).
/// `own_queue` resolves argument-less `qs:queue()` for non-slicing rules.
pub fn extract_aggregate_reads(body: &Expr, own_queue: Option<&str>) -> Vec<AggregateReadFact> {
    let mut out = Vec::new();
    body.visit(&mut |e| {
        if let Some(spec) = demaq_xquery::recognize_aggregate(e) {
            let source = match &spec.source {
                demaq_xquery::AggSource::Queue(q) => AggReadSource::Queue(q.clone()),
                demaq_xquery::AggSource::Slice => AggReadSource::Slice,
            };
            out.push(AggregateReadFact {
                op: spec.op.name().to_string(),
                source,
                incremental: true,
            });
            return;
        }
        let Expr::FunctionCall { name, args } = e else {
            return;
        };
        let bare = name.prefix.is_none() || name.prefix.as_deref() == Some("fn");
        if !bare || !AGG_NAMES.contains(&name.local.as_str()) {
            return;
        }
        // Any queue/slice reference inside the argument marks the read.
        let mut source: Option<AggReadSource> = None;
        for a in args {
            a.visit(&mut |x| {
                if source.is_some() {
                    return;
                }
                if let Expr::FunctionCall { name, args } = x {
                    let qs = name.prefix.as_deref() == Some("qs");
                    let coll = (name.prefix.is_none() || name.prefix.as_deref() == Some("fn"))
                        && name.local == "collection";
                    match (qs, name.local.as_str(), args.as_slice()) {
                        (true, "queue", [Expr::StringLit(q)]) => {
                            source = Some(AggReadSource::Queue(q.clone()));
                        }
                        (true, "queue", []) => {
                            if let Some(own) = own_queue {
                                source = Some(AggReadSource::Queue(own.to_string()));
                            }
                        }
                        (true, "slice", _) => source = Some(AggReadSource::Slice),
                        _ if coll => {
                            if let Some(Expr::StringLit(q)) = args.first() {
                                source = Some(AggReadSource::Queue(q.clone()));
                            }
                        }
                        _ => {}
                    }
                }
            });
            if source.is_some() {
                break;
            }
        }
        if let Some(source) = source {
            out.push(AggregateReadFact {
                op: name.local.clone(),
                source,
                incremental: false,
            });
        }
    });
    out.sort();
    out.dedup();
    out
}

/// How an expression directly denotes a member sequence.
enum SourceRef {
    Slice,
    Queue(String),
    Dynamic,
}

/// Classify `e` when it *is* a queue/slice member-sequence source
/// (`qs:slice(…)`, `qs:queue("q")`, `qs:queue()`, `collection("q")`).
fn direct_source(e: &Expr, own_queue: Option<&str>) -> Option<SourceRef> {
    let Expr::FunctionCall { name, args } = e else {
        return None;
    };
    let qs = name.prefix.as_deref() == Some("qs");
    let bare = name.prefix.is_none() || name.prefix.as_deref() == Some("fn");
    match (qs, name.local.as_str(), args.as_slice()) {
        (true, "slice", _) => Some(SourceRef::Slice),
        (true, "queue", [Expr::StringLit(q)]) => Some(SourceRef::Queue(q.clone())),
        (true, "queue", []) => Some(match own_queue {
            Some(q) => SourceRef::Queue(q.to_string()),
            None => SourceRef::Dynamic,
        }),
        (true, "queue", _) => Some(SourceRef::Dynamic),
        _ if bare && name.local == "collection" => Some(match args.first() {
            Some(Expr::StringLit(q)) => SourceRef::Queue(q.clone()),
            _ => SourceRef::Dynamic,
        }),
        _ => None,
    }
}

fn is_last_call(e: &Expr) -> bool {
    matches!(e, Expr::FunctionCall { name, args }
        if (name.prefix.is_none() || name.prefix.as_deref() == Some("fn"))
            && name.local == "last"
            && args.is_empty())
}

/// Collect every raw member-scan shape in `body`, pruning recognized
/// aggregate shapes (answered from materialized cells; their guards are
/// member-local and contain no `qs:` reads) and `SOURCE[last()]` suffix
/// reads. `own_queue` resolves argument-less `qs:queue()` for queue
/// rules; `None` (slicing rules, property bindings) makes it dynamic.
pub fn extract_scan_reads(body: &Expr, own_queue: Option<&str>) -> ScanReads {
    let mut out = ScanReads::default();
    collect_scans(body, own_queue, &mut out);
    out.queues.sort();
    out.queues.dedup();
    out.suffix.sort();
    out.suffix.dedup();
    out
}

fn collect_scans(e: &Expr, own: Option<&str>, out: &mut ScanReads) {
    if demaq_xquery::recognize_aggregate(e).is_some() {
        return;
    }
    // `SOURCE[last()]` touches only the newest member: a bounded suffix.
    if let Expr::Filter { base, predicates } = e {
        if predicates.len() == 1 && is_last_call(&predicates[0]) {
            match direct_source(base, own) {
                Some(SourceRef::Slice) => {
                    out.suffix.push((None, 1));
                    return;
                }
                Some(SourceRef::Queue(q)) => {
                    out.suffix.push((Some(q), 1));
                    return;
                }
                _ => {}
            }
        }
    }
    if let Some(src) = direct_source(e, own) {
        match src {
            SourceRef::Slice => out.slice = true,
            SourceRef::Queue(q) => out.queues.push(q),
            SourceRef::Dynamic => out.dynamic = true,
        }
        // Fall through: a computed `collection(E)` argument may itself
        // contain reads.
    }
    e.for_each_child(|c| collect_scans(c, own, out));
}

/// Recursive walk tracking whether the current position is guarded by a
/// condition (if / where / for / quantifier / predicate).
fn walk(e: &Expr, guarded: bool, f: &mut RuleFacts) {
    match e {
        Expr::StringLit(_) | Expr::IntLit(_) | Expr::DoubleLit(_) => {}
        Expr::Var(_) | Expr::ContextItem => {}
        Expr::Sequence(es) => es.iter().for_each(|x| walk(x, guarded, f)),
        Expr::FunctionCall { name, args } => {
            let qs = name.prefix.as_deref() == Some("qs");
            let bare = name.prefix.is_none() || name.prefix.as_deref() == Some("fn");
            if qs && name.local == "property" {
                if let Some(Expr::StringLit(p)) = args.first() {
                    f.prop_reads.push(p.clone());
                }
            }
            if (qs && name.local == "queue") || (bare && name.local == "collection") {
                if let Some(Expr::StringLit(q)) = args.first() {
                    f.reads_queues.push(q.clone());
                }
            }
            args.iter().for_each(|a| walk(a, guarded, f));
        }
        Expr::Path { steps, .. } => steps.iter().for_each(|s| walk(s, guarded, f)),
        Expr::Step { predicates, .. } => predicates.iter().for_each(|p| walk(p, true, f)),
        Expr::Filter { base, predicates } => {
            walk(base, guarded, f);
            predicates.iter().for_each(|p| walk(p, true, f));
        }
        Expr::RelativePath { base, step, .. } => {
            walk(base, guarded, f);
            walk(step, guarded, f);
        }
        Expr::Or(a, b) | Expr::And(a, b) => {
            walk(a, guarded, f);
            walk(b, guarded, f);
        }
        Expr::Comparison { left, right, .. }
        | Expr::Arith { left, right, .. }
        | Expr::Set { left, right, .. } => {
            walk(left, guarded, f);
            walk(right, guarded, f);
        }
        Expr::Range(a, b) => {
            walk(a, guarded, f);
            walk(b, guarded, f);
        }
        Expr::Neg(a) => walk(a, guarded, f),
        Expr::If { cond, then, els } => {
            walk(cond, guarded, f);
            walk(then, true, f);
            if let Some(e) = els {
                walk(e, true, f);
            }
        }
        Expr::Flwor {
            clauses,
            where_,
            order,
            ret,
        } => {
            // A `for` over a possibly-empty source guards everything after
            // it (zero iterations = nothing happens).
            let mut g = guarded;
            for c in clauses {
                match c {
                    FlworClause::For { source, .. } => {
                        walk(source, g, f);
                        g = true;
                    }
                    FlworClause::Let { value, .. } => walk(value, g, f),
                }
            }
            if let Some(w) = where_ {
                walk(w, g, f);
                g = true;
            }
            order.iter().for_each(|o| walk(&o.key, g, f));
            walk(ret, g, f);
        }
        Expr::Quantified {
            bindings,
            satisfies,
            ..
        } => {
            bindings.iter().for_each(|(_, src)| walk(src, guarded, f));
            walk(satisfies, true, f);
        }
        Expr::DirectElement { attrs, content, .. } => {
            for (_, parts) in attrs {
                for p in parts {
                    if let AttrValuePart::Enclosed(x) = p {
                        walk(x, guarded, f);
                    }
                }
            }
            for c in content {
                match c {
                    DirContent::Text(_) => {}
                    DirContent::Enclosed(x) | DirContent::Expr(x) => walk(x, guarded, f),
                }
            }
        }
        Expr::ComputedElement { name, content } => {
            walk(name, guarded, f);
            walk(content, guarded, f);
        }
        Expr::ComputedAttribute { name, content } => {
            walk(name, guarded, f);
            walk(content, guarded, f);
        }
        Expr::ComputedText(x) | Expr::ComputedComment(x) | Expr::ComputedDocument(x) => {
            walk(x, guarded, f)
        }
        Expr::Enqueue {
            message,
            queue,
            props,
        } => {
            f.enqueues.push(EnqueueSite {
                queue: queue.local.clone(),
                conditional: guarded,
                with_props: props
                    .iter()
                    .map(|(n, v)| {
                        let lit = match v {
                            Expr::StringLit(s) => Some(s.clone()),
                            _ => None,
                        };
                        (n.clone(), lit)
                    })
                    .collect(),
            });
            walk(message, guarded, f);
            props.iter().for_each(|(_, v)| walk(v, guarded, f));
        }
        Expr::Reset { slicing, key } => {
            match slicing {
                Some(s) => f.named_resets.push(s.local.clone()),
                None => f.bare_resets += 1,
            }
            if let Some(k) = key {
                walk(k, guarded, f);
            }
        }
        Expr::Cast { expr, .. } | Expr::InstanceOf { expr, .. } => walk(expr, guarded, f),
    }
}

/// If the body is `if (cond) then …`, the element names `cond` requires to
/// exist (`//name`, `/name`, possibly under `and`/`or`). A message whose
/// payload contains none of them can skip the rule without full
/// evaluation — the engine's trigger pre-filter and the analysis facts
/// both use this one extraction.
pub fn extract_trigger_elements(body: &Expr) -> Option<Vec<String>> {
    let Expr::If { cond, .. } = body else {
        return None;
    };
    let mut names = Vec::new();
    if collect_required_elements(cond, &mut names) && !names.is_empty() {
        Some(names)
    } else {
        None
    }
}

/// Returns true when `e`'s truth definitely requires one of the collected
/// elements. Conservative: bail out (false) on anything not understood.
fn collect_required_elements(e: &Expr, out: &mut Vec<String>) -> bool {
    match e {
        Expr::Path { root: true, steps } => {
            // The first named child/descendant step.
            for s in steps {
                if let Expr::Step { axis, test, .. } = s {
                    if matches!(
                        axis,
                        Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
                    ) {
                        if let NodeTest::Name(q) = test {
                            out.push(q.local.clone());
                            return true;
                        }
                    }
                }
            }
            false
        }
        // `a and b`: either side's requirement suffices (the left if
        // extractable, else the right).
        Expr::And(a, b) => collect_required_elements(a, out) || collect_required_elements(b, out),
        // `a or b`: both sides must be extractable (union of requirements).
        Expr::Or(a, b) => {
            let mut left = Vec::new();
            let mut right = Vec::new();
            if collect_required_elements(a, &mut left) && collect_required_elements(b, &mut right) {
                out.extend(left);
                out.extend(right);
                true
            } else {
                false
            }
        }
        _ => false,
    }
}
