//! # demaq-analysis
//!
//! Whole-application static analysis for Demaq (paper Sec. 4): because the
//! entire application — queues, properties, slicings, and the complete
//! rule set — is declarative, it can be analyzed *as a whole* before a
//! single message arrives. This crate builds the queue/rule message-flow
//! graph from an [`AppSpec`] plus per-rule [`RuleFacts`] (read/write sets,
//! enqueue sites, constant-folded conditions via `demaq-xquery`'s plan
//! lowerer) and emits structured [`Diagnostic`]s with stable lint codes:
//!
//! | code | slug | default |
//! |------|------|---------|
//! | DQ001 | unknown-enqueue-target | deny |
//! | DQ002 | enqueue-into-incoming-gateway | deny |
//! | DQ003 | unreachable-queue | warn |
//! | DQ004 | dead-rule | warn |
//! | DQ005 | unguarded-flow-cycle | warn |
//! | DQ006 | property-read-never-written | warn |
//! | DQ007 | error-queue-cycle | deny |
//! | DQ008 | slicing-key-misuse | warn |
//! | DQ009 | dead-end-lineage | warn |
//! | DQ010 | cross-shard-hot-edge | warn |
//! | DQ011 | unbounded-aggregate-rescan | warn |
//! | DQ012 | unbounded-retention | warn |
//! | DQ013 | retention-narrowed | info |
//!
//! The same flow graph yields a queue → shard
//! [`placement::Placement`] the sharded runtime routes enqueues with,
//! and — via the [`liveness`] message-lifetime pass — a
//! [`RetentionPlan`] that lets the store's GC drop or summarize member
//! payloads the application is provably done with.

pub mod extract;
pub mod facts;
pub mod graph;
pub mod liveness;
pub mod placement;

pub use extract::extract_qdl_programs;
pub use facts::{
    extract_aggregate_reads, extract_scan_reads, extract_trigger_elements, AggReadSource,
    AggregateReadFact, EnqueueSite, RuleFacts, ScanReads,
};
pub use graph::{error_route_edges, strongly_connected, ErrorEdge, FlowEdge, FlowGraph};
pub use liveness::{retention_plan, ReadShape, RetentionPlan, SlicePlan};
pub use placement::{compute_placement, cross_shard_edges, stable_hash, Placement, QueuePlacement};

use demaq_qdl::{AppSpec, PropKind, QueueKind};
use demaq_xml::schema::Schema;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Properties the engine itself writes on every message; reading them
/// never needs an application-level writer.
const SYSTEM_PROPS: &[&str] = &[
    "creatingRule",
    "createdAt",
    "Sender",
    "connection",
    "errorPath",
    "parentMsg",
    "rootMsg",
];

/// What to do about a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suppressed entirely.
    Allow,
    /// Reported as advice (e.g. "the analysis narrowed retention");
    /// never affects exit codes or deployment.
    Info,
    /// Reported, deployment proceeds.
    Warn,
    /// Reported, deployment (or `demaq-lint`) fails.
    Deny,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// Stable lint codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// DQ001: `do enqueue` into a queue that is not declared.
    UnknownEnqueueTarget,
    /// DQ002: `do enqueue` into an incoming gateway.
    EnqueueIntoIncomingGateway,
    /// DQ003: a queue nothing produces into, reads, or processes.
    UnreachableQueue,
    /// DQ004: a rule that can never fire.
    DeadRule,
    /// DQ005: a message-flow cycle with no condition on any edge.
    UnguardedFlowCycle,
    /// DQ006: a property read that no binding or enqueue ever writes.
    PropertyReadNeverWritten,
    /// DQ007: error routing that loops back into the failing path.
    ErrorQueueCycle,
    /// DQ008: slicing key that can never form slices / misused reset.
    SlicingKeyMisuse,
    /// DQ009: rule enqueues into a queue whose messages can never reach
    /// an outgoing gateway or error queue (the causal chain dead-ends
    /// unobserved).
    DeadEndLineage,
    /// DQ010: a rule's enqueue target is placed on a different shard than
    /// its trigger queue under the computed placement, so the hot chain
    /// hops shards.
    CrossShardHotEdge,
    /// DQ011: an aggregate read over a queue in a shape the incremental
    /// maintenance pass cannot answer from a materialized cell, where no
    /// rule processes the queue to bound its retention — every evaluation
    /// rescans a queue that only grows.
    UnboundedAggregateRescan,
    /// DQ012: a slicing whose members are provably never purgeable — no
    /// rule ever resets it, and the liveness analysis cannot narrow its
    /// retention (its rules scan full slice contents, or a member queue
    /// is read as a queue elsewhere), so the store grows without bound.
    UnboundedRetention,
    /// DQ013: the liveness analysis downgraded this slicing to
    /// `AggregateOnly` — processed member payloads are folded into
    /// persisted accumulators and purged. Add an explicit `do reset` (or
    /// a raw slice read) if full history was intended.
    RetentionNarrowed,
}

impl LintCode {
    pub const ALL: [LintCode; 13] = [
        LintCode::UnknownEnqueueTarget,
        LintCode::EnqueueIntoIncomingGateway,
        LintCode::UnreachableQueue,
        LintCode::DeadRule,
        LintCode::UnguardedFlowCycle,
        LintCode::PropertyReadNeverWritten,
        LintCode::ErrorQueueCycle,
        LintCode::SlicingKeyMisuse,
        LintCode::DeadEndLineage,
        LintCode::CrossShardHotEdge,
        LintCode::UnboundedAggregateRescan,
        LintCode::UnboundedRetention,
        LintCode::RetentionNarrowed,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            LintCode::UnknownEnqueueTarget => "DQ001",
            LintCode::EnqueueIntoIncomingGateway => "DQ002",
            LintCode::UnreachableQueue => "DQ003",
            LintCode::DeadRule => "DQ004",
            LintCode::UnguardedFlowCycle => "DQ005",
            LintCode::PropertyReadNeverWritten => "DQ006",
            LintCode::ErrorQueueCycle => "DQ007",
            LintCode::SlicingKeyMisuse => "DQ008",
            LintCode::DeadEndLineage => "DQ009",
            LintCode::CrossShardHotEdge => "DQ010",
            LintCode::UnboundedAggregateRescan => "DQ011",
            LintCode::UnboundedRetention => "DQ012",
            LintCode::RetentionNarrowed => "DQ013",
        }
    }

    pub fn slug(&self) -> &'static str {
        match self {
            LintCode::UnknownEnqueueTarget => "unknown-enqueue-target",
            LintCode::EnqueueIntoIncomingGateway => "enqueue-into-incoming-gateway",
            LintCode::UnreachableQueue => "unreachable-queue",
            LintCode::DeadRule => "dead-rule",
            LintCode::UnguardedFlowCycle => "unguarded-flow-cycle",
            LintCode::PropertyReadNeverWritten => "property-read-never-written",
            LintCode::ErrorQueueCycle => "error-queue-cycle",
            LintCode::SlicingKeyMisuse => "slicing-key-misuse",
            LintCode::DeadEndLineage => "dead-end-lineage",
            LintCode::CrossShardHotEdge => "cross-shard-hot-edge",
            LintCode::UnboundedAggregateRescan => "unbounded-aggregate-rescan",
            LintCode::UnboundedRetention => "unbounded-retention",
            LintCode::RetentionNarrowed => "retention-narrowed",
        }
    }

    pub fn default_severity(&self) -> Severity {
        match self {
            LintCode::UnknownEnqueueTarget
            | LintCode::EnqueueIntoIncomingGateway
            | LintCode::ErrorQueueCycle => Severity::Deny,
            LintCode::RetentionNarrowed => Severity::Info,
            _ => Severity::Warn,
        }
    }

    /// Parse `"DQ001"` or a slug.
    pub fn parse(s: &str) -> Option<LintCode> {
        Self::ALL
            .iter()
            .copied()
            .find(|c| c.as_str().eq_ignore_ascii_case(s) || c.slug() == s)
    }

    /// One-paragraph explanation of what the lint detects and why it
    /// matters — the text behind `demaq-lint --explain`.
    pub fn description(&self) -> &'static str {
        match self {
            LintCode::UnknownEnqueueTarget => {
                "A `do enqueue` targets a queue the application never declares. The \
                 enqueue would fail at runtime on every firing; almost always a typo \
                 or a missing `create queue`."
            }
            LintCode::EnqueueIntoIncomingGateway => {
                "A rule (or an echo timer's target) enqueues into an incoming-gateway \
                 queue. Incoming gateways are fed exclusively by their network \
                 endpoint; locally produced messages there would masquerade as \
                 external input."
            }
            LintCode::UnreachableQueue => {
                "A declared queue that nothing enqueues into, no gateway feeds, no \
                 rule processes, and no expression reads. It can only ever stay \
                 empty — dead configuration."
            }
            LintCode::DeadRule => {
                "A rule whose condition is provably always false (e.g. a constant \
                 `false()` guard), so its body can never execute."
            }
            LintCode::UnguardedFlowCycle => {
                "Rules form a message-flow cycle in which every edge enqueues \
                 unconditionally. One message entering the cycle reproduces forever \
                 — unbounded work and store growth."
            }
            LintCode::PropertyReadNeverWritten => {
                "An expression reads a message property that no binding computes and \
                 no `with <prop> value` ever sets. The read yields empty on every \
                 message; usually a renamed or forgotten property."
            }
            LintCode::ErrorQueueCycle => {
                "Error routing loops back into the path that failed: a failing \
                 message would bounce between queues forever instead of reaching a \
                 terminal handler."
            }
            LintCode::SlicingKeyMisuse => {
                "A slicing whose key property is never written by any binding (no \
                 message can ever join a slice), or a `do reset` that cannot name a \
                 valid slicing."
            }
            LintCode::DeadEndLineage => {
                "Messages are enqueued into a queue from which no rule, gateway, or \
                 error route can ever make them externally observable — the causal \
                 chain dead-ends and the work is silently lost."
            }
            LintCode::CrossShardHotEdge => {
                "Under the computed shard placement, a rule's enqueue target lives \
                 on a different shard than its trigger queue, so the hottest rule \
                 chain pays a cross-shard forward on every message."
            }
            LintCode::UnboundedAggregateRescan => {
                "An aggregate read over a queue in a shape the incremental \
                 maintenance pass cannot answer from a materialized cell, where no \
                 rule processes that queue to bound its retention: every evaluation \
                 rescans a queue that only grows."
            }
            LintCode::UnboundedRetention => {
                "A slicing whose members are provably never purgeable: no rule ever \
                 resets it, and the liveness analysis cannot narrow its retention \
                 because its rules scan full slice contents, a member queue is read \
                 as a queue elsewhere, or a dynamically-computed queue read forces \
                 full retention. The store grows without bound."
            }
            LintCode::RetentionNarrowed => {
                "The liveness analysis proved every read of this slicing is an \
                 incrementally-maintained aggregate, so retention is narrowed: \
                 processed member payloads are folded into persisted accumulator \
                 cells and purged by GC. Advisory — add an explicit `do reset` (or \
                 a raw slice read) if full history was intended."
            }
        }
    }

    /// A minimal self-contained program that triggers the lint — the
    /// example behind `demaq-lint --explain`.
    pub fn example(&self) -> &'static str {
        match self {
            LintCode::UnknownEnqueueTarget => {
                "create queue inbox kind basic mode persistent\n\
                 create rule fwd for inbox\n\
                \x20 if (//order) then do enqueue <fwd/> into billing  (: undeclared :)"
            }
            LintCode::EnqueueIntoIncomingGateway => {
                "create queue inbox kind incomingGateway mode persistent endpoint \"urn:in\"\n\
                 create queue work kind basic mode persistent\n\
                 create rule bounce for work\n\
                \x20 if (//retry) then do enqueue <retry/> into inbox"
            }
            LintCode::UnreachableQueue => {
                "create queue inbox kind basic mode persistent\n\
                 create queue outbox kind basic mode persistent\n\
                 create queue orphan kind basic mode persistent  (: nothing touches it :)\n\
                 create rule fwd for inbox\n\
                \x20 if (//order) then do enqueue <fwd/> into outbox"
            }
            LintCode::DeadRule => {
                "create queue inbox kind basic mode persistent\n\
                 create rule never for inbox\n\
                \x20 if (false()) then do enqueue <x/> into inbox"
            }
            LintCode::UnguardedFlowCycle => {
                "create queue a kind basic mode persistent\n\
                 create queue b kind basic mode persistent\n\
                 create rule ab for a do enqueue <m/> into b\n\
                 create rule ba for b do enqueue <m/> into a"
            }
            LintCode::PropertyReadNeverWritten => {
                "create queue inbox kind basic mode persistent\n\
                 create queue outbox kind basic mode persistent\n\
                 create property customer as xs:string fixed\n\
                 create rule route for inbox\n\
                \x20 if (qs:property(\"customer\") = \"c1\") then\n\
                \x20   do enqueue <vip/> into outbox"
            }
            LintCode::ErrorQueueCycle => {
                "set errorqueue sink\n\
                 create queue work kind basic mode persistent errorqueue handler\n\
                 create queue handler kind basic mode persistent errorqueue work\n\
                 create queue sink kind basic mode persistent\n\
                 create rule w for work if (//x) then do enqueue <y/> into sink\n\
                 create rule h for handler if (//y) then do enqueue <z/> into sink"
            }
            LintCode::SlicingKeyMisuse => {
                "create queue inbox kind basic mode persistent\n\
                 create property customer as xs:integer fixed  (: no binding writes it :)\n\
                 create slicing perCustomer on customer"
            }
            LintCode::DeadEndLineage => {
                "create queue inbox kind basic mode persistent\n\
                 create queue ship kind outgoingGateway mode persistent endpoint \"urn:s\"\n\
                 create queue limbo kind basic mode persistent\n\
                 create rule send for inbox if (//o) then do enqueue <r/> into ship\n\
                 create rule stash for inbox if (//o) then do enqueue <c/> into limbo"
            }
            LintCode::CrossShardHotEdge => {
                "(: under `demaq-lint` the placement is computed for 2+ shards :)\n\
                 create queue hot kind basic mode persistent\n\
                 create queue far kind basic mode persistent\n\
                 create rule hop for hot do enqueue <m/> into far"
            }
            LintCode::UnboundedAggregateRescan => {
                "create queue audit kind basic mode persistent\n\
                 create queue inbox kind basic mode persistent\n\
                 create queue alerts kind basic mode persistent\n\
                 create rule watch for inbox\n\
                \x20 if (count(distinct-values(qs:queue(\"audit\")//n)) > 10) then\n\
                \x20   do enqueue <noisy/> into alerts"
            }
            LintCode::UnboundedRetention => {
                "create queue events kind basic mode persistent\n\
                 create queue outbox kind basic mode persistent\n\
                 create property device as xs:string fixed\n\
                \x20   queue events value //@device\n\
                 create slicing byDevice on device\n\
                 create rule dumpAll for byDevice  (: full scan, never reset :)\n\
                \x20 if (qs:message()/reading) then\n\
                \x20   do enqueue <dump>{qs:slice()}</dump> into outbox"
            }
            LintCode::RetentionNarrowed => {
                "create queue readings kind basic mode persistent\n\
                 create queue alerts kind basic mode persistent\n\
                 create property device as xs:string fixed\n\
                \x20   queue readings value //@device\n\
                 create slicing byDevice on device\n\
                 create rule alarm for byDevice  (: aggregate-only reads :)\n\
                \x20 if (count(qs:slice()) >= 5) then\n\
                \x20   do enqueue <alert/> into alerts"
            }
        }
    }
}

/// Per-application allow/warn/deny configuration.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    overrides: HashMap<LintCode, Severity>,
}

impl LintConfig {
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Override one code's severity.
    pub fn set(&mut self, code: LintCode, severity: Severity) -> &mut Self {
        self.overrides.insert(code, severity);
        self
    }

    /// Effective severity for a code.
    pub fn severity(&self, code: LintCode) -> Severity {
        self.overrides
            .get(&code)
            .copied()
            .unwrap_or_else(|| code.default_severity())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: LintCode,
    pub severity: Severity,
    /// What the finding is about, e.g. `rule fork` or `queue billing`.
    pub subject: String,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} {}] {}: {}",
            self.severity.as_str(),
            self.code.as_str(),
            self.code.slug(),
            self.subject,
            self.message
        )
    }
}

/// One edge of the aggregate dependency graph: an aggregate node (in a
/// rule body or property binding) and the queue or slicing it reads.
/// The engine's incremental maintenance pass answers the `incremental`
/// edges from materialized cells validated on the store's lifetime tokens;
/// the rest rescan on every evaluation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AggregateDep {
    /// Where the aggregate sits: `rule NAME` or `property NAME`.
    pub site: String,
    /// Aggregate function name (`count`, `sum`, …).
    pub op: String,
    /// What it reads: `queue NAME` or `slicing NAME`.
    pub source: String,
    /// True when the incremental pass maintains this aggregate.
    pub incremental: bool,
}

/// The analyzer's output: diagnostics, the flow graph, and what the
/// runtime derives from them.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub diagnostics: Vec<Diagnostic>,
    pub graph: FlowGraph,
    /// Aggregate reads found in rule bodies and property bindings, with
    /// the queue/slicing each depends on (sorted, deduplicated).
    pub aggregate_deps: Vec<AggregateDep>,
    /// The message-lifetime pass's per-queue/per-slicing retention plan
    /// (see [`liveness`]); the engine's GC narrows retention from it.
    pub retention: RetentionPlan,
}

impl Analysis {
    /// The highest severity among the diagnostics.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    pub fn has_deny(&self) -> bool {
        self.max_severity() == Some(Severity::Deny)
    }

    /// Render for humans, one diagnostic per line.
    pub fn render_human(&self) -> String {
        if self.diagnostics.is_empty() {
            return "no diagnostics\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let denies = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count();
        out.push_str(&format!(
            "{} diagnostic(s), {} deny\n",
            self.diagnostics.len(),
            denies
        ));
        out
    }

    /// Render as a JSON document (hand-rolled; the build is offline and
    /// dependency-free).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":{},\"slug\":{},\"severity\":{},\"subject\":{},\"message\":{}}}",
                json_str(d.code.as_str()),
                json_str(d.code.slug()),
                json_str(d.severity.as_str()),
                json_str(&d.subject),
                json_str(&d.message)
            ));
        }
        let count = |sev: Severity| {
            self.diagnostics
                .iter()
                .filter(|d| d.severity == sev)
                .count()
        };
        out.push_str(&format!(
            "],\"summary\":{{\"total\":{},\"info\":{},\"warn\":{},\"deny\":{}}}}}",
            self.diagnostics.len(),
            count(Severity::Info),
            count(Severity::Warn),
            count(Severity::Deny)
        ));
        out
    }
}

/// JSON string literal with escaping (shared by the renderers and the
/// `demaq-lint` CLI; the build is offline and dependency-free).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Analyze an application from its raw parsed spec (facts derived with
/// [`RuleFacts::from_rule`]; the `demaq-lint` / test path).
pub fn analyze_spec(spec: &AppSpec, config: &LintConfig) -> Analysis {
    let facts: Vec<RuleFacts> = spec
        .rules
        .iter()
        .map(|r| RuleFacts::from_rule(r, spec))
        .collect();
    analyze(spec, &facts, config)
}

/// Analyze an application from a spec plus per-rule facts (the deploy-time
/// path: facts come from the compiled rules' read/write sets).
pub fn analyze(spec: &AppSpec, rules: &[RuleFacts], config: &LintConfig) -> Analysis {
    let graph = FlowGraph::build(spec, rules);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut emit = |code: LintCode, subject: String, message: String| {
        let severity = config.severity(code);
        if severity != Severity::Allow {
            diags.push(Diagnostic {
                code,
                severity,
                subject,
                message,
            });
        }
    };

    // Pre-parse declared schemas (parse failures are the compiler's
    // concern, not the analyzer's).
    let schemas: HashMap<&str, Schema> = spec
        .schemas
        .iter()
        .filter_map(|(n, src)| Schema::parse(src).ok().map(|s| (n.as_str(), s)))
        .collect();

    // Properties written somewhere: a binding supplies a value, or an
    // enqueue sets it via `with`.
    let mut written_props: HashSet<&str> = SYSTEM_PROPS.iter().copied().collect();
    for p in &spec.properties {
        if !p.bindings.is_empty() || p.kind == PropKind::Explicit {
            // Explicit properties may also be supplied by the sender at
            // the gateway; treat them as externally writable.
            written_props.insert(p.name.as_str());
        }
    }
    for r in rules {
        for n in r.with_prop_names() {
            written_props.insert(n);
        }
    }

    // ---- DQ001 / DQ002: enqueue targets -----------------------------------
    for r in rules {
        let mut seen: HashSet<(&str, bool)> = HashSet::new();
        for s in &r.enqueues {
            match spec.queue(&s.queue) {
                None => {
                    if seen.insert((s.queue.as_str(), false)) {
                        emit(
                            LintCode::UnknownEnqueueTarget,
                            format!("rule {}", r.name),
                            format!("enqueues into undeclared queue `{}`", s.queue),
                        );
                    }
                }
                Some(q) if q.kind == QueueKind::IncomingGateway => {
                    if seen.insert((s.queue.as_str(), true)) {
                        emit(
                            LintCode::EnqueueIntoIncomingGateway,
                            format!("rule {}", r.name),
                            format!(
                                "enqueues into incoming gateway `{}`; gateway queues only \
                                 receive messages from remote endpoints",
                                s.queue
                            ),
                        );
                    }
                }
                Some(q) if q.kind == QueueKind::Echo => {
                    for (p, lit) in &s.with_props {
                        if p != "target" {
                            continue;
                        }
                        if let Some(t) = lit.as_deref() {
                            if spec.queue(t).map(|d| d.kind) == Some(QueueKind::IncomingGateway) {
                                emit(
                                    LintCode::EnqueueIntoIncomingGateway,
                                    format!("rule {}", r.name),
                                    format!(
                                        "arms a timer on `{}` whose target `{t}` is an \
                                         incoming gateway",
                                        s.queue
                                    ),
                                );
                            }
                        }
                    }
                }
                Some(_) => {}
            }
        }
    }

    // ---- DQ003: unreachable queues ----------------------------------------
    let produced: HashSet<usize> = graph.produced_into();
    let error_edges = error_route_edges(spec, rules);
    let error_targets: HashSet<&str> = spec
        .queues
        .iter()
        .filter_map(|q| q.error_queue.as_deref())
        .chain(rules.iter().filter_map(|r| r.error_queue.as_deref()))
        .chain(spec.system_error_queue.as_deref())
        .collect();
    let read_queues: HashSet<&str> = rules
        .iter()
        .flat_map(|r| r.reads_queues.iter().map(|q| q.as_str()))
        .collect();
    let bound_queues: HashSet<&str> = spec
        .properties
        .iter()
        .flat_map(|p| p.bindings.iter())
        .flat_map(|b| b.queues.iter().map(|q| q.as_str()))
        .collect();
    let ruled_queues: HashSet<&str> = rules
        .iter()
        .filter(|r| !r.on_slicing)
        .map(|r| r.target.as_str())
        .collect();
    for q in &spec.queues {
        if q.kind != QueueKind::Basic {
            continue; // gateways and echo queues face the outside world
        }
        let idx = graph.index(&q.name);
        let reachable = idx.is_some_and(|i| produced.contains(&i))
            || error_targets.contains(q.name.as_str())
            || read_queues.contains(q.name.as_str())
            || bound_queues.contains(q.name.as_str())
            || ruled_queues.contains(q.name.as_str());
        if !reachable {
            emit(
                LintCode::UnreachableQueue,
                format!("queue {}", q.name),
                "nothing produces into, reads, or processes this queue: no rule enqueues \
                 here, no error route targets it, no rule or property references it"
                    .to_string(),
            );
        }
    }

    // ---- DQ004: dead rules ------------------------------------------------
    for r in rules {
        if r.never_fires {
            emit(
                LintCode::DeadRule,
                format!("rule {}", r.name),
                "the body constant-folds to a no-op (its condition can never hold)".to_string(),
            );
            continue;
        }
        if r.on_slicing {
            continue;
        }
        let (Some(trigger), Some(queue)) = (&r.trigger_elements, spec.queue(&r.target)) else {
            continue;
        };
        let Some(schema) = queue.schema.as_deref().and_then(|s| schemas.get(s)) else {
            continue;
        };
        let vocab: HashSet<&str> = schema
            .elements
            .keys()
            .map(|k| k.as_str())
            .chain(schema.root.as_deref())
            .collect();
        if !trigger.iter().any(|t| vocab.contains(t.as_str())) {
            emit(
                LintCode::DeadRule,
                format!("rule {}", r.name),
                format!(
                    "its trigger requires element(s) {} but schema `{}` of queue `{}` \
                     declares none of them; the rule can never match",
                    trigger
                        .iter()
                        .map(|t| format!("`{t}`"))
                        .collect::<Vec<_>>()
                        .join(", "),
                    queue.schema.as_deref().unwrap_or(""),
                    r.target
                ),
            );
        }
    }

    // ---- DQ005: unguarded flow cycles -------------------------------------
    for scc in graph.unguarded_cycles() {
        let names: Vec<&str> = scc.iter().map(|&i| graph.queues[i].as_str()).collect();
        let in_cycle: HashSet<usize> = scc.iter().copied().collect();
        let mut rules_on_cycle: BTreeSet<&str> = BTreeSet::new();
        for e in &graph.edges {
            if !e.conditional && in_cycle.contains(&e.from) && in_cycle.contains(&e.to) {
                rules_on_cycle.insert(e.rule.as_str());
            }
        }
        emit(
            LintCode::UnguardedFlowCycle,
            format!("cycle {}", names.join(" -> ")),
            format!(
                "every edge of this message-flow cycle enqueues unconditionally \
                 (rule(s) {}); once entered it loops forever",
                rules_on_cycle
                    .iter()
                    .map(|r| format!("`{r}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    }

    // ---- DQ006: property read never written --------------------------------
    let mut readers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for r in rules {
        for p in &r.prop_reads {
            readers
                .entry(p.as_str())
                .or_default()
                .insert(r.name.as_str());
        }
    }
    for (prop, by) in readers {
        if written_props.contains(prop) {
            continue;
        }
        let who = by
            .iter()
            .map(|r| format!("`{r}`"))
            .collect::<Vec<_>>()
            .join(", ");
        let detail = if spec.property(prop).is_some() {
            "no binding supplies a value and no enqueue sets it"
        } else {
            "it is not declared and no enqueue sets it"
        };
        emit(
            LintCode::PropertyReadNeverWritten,
            format!("property {prop}"),
            format!("read by rule(s) {who} but never written: {detail}"),
        );
    }

    // ---- DQ007: error-queue routing cycles ---------------------------------
    {
        let mut adj = vec![Vec::new(); graph.queues.len()];
        for e in &error_edges {
            if let (Some(a), Some(b)) = (graph.index(&e.from), graph.index(&e.to)) {
                adj[a].push(b);
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        for scc in strongly_connected(graph.queues.len(), &adj) {
            let cyclic = scc.len() > 1 || adj[scc[0]].contains(&scc[0]);
            if !cyclic {
                continue;
            }
            let names: Vec<&str> = scc.iter().map(|&i| graph.queues[i].as_str()).collect();
            emit(
                LintCode::ErrorQueueCycle,
                format!("queue {}", names[0]),
                format!(
                    "error routing loops through {}: a failure inside the cycle re-enters \
                     it and can ping-pong forever (Sec. 3.6 resolution rule > queue > system)",
                    names
                        .iter()
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(" -> ")
                ),
            );
        }
    }

    // ---- DQ008: slicing-key misuse -----------------------------------------
    for s in &spec.slicings {
        let Some(prop) = spec.property(&s.property) else {
            continue; // undeclared key: validate's job
        };
        if prop.bindings.is_empty()
            && prop.kind != PropKind::Explicit
            && !rules
                .iter()
                .any(|r| r.with_prop_names().any(|n| n == s.property))
        {
            emit(
                LintCode::SlicingKeyMisuse,
                format!("slicing {}", s.name),
                format!(
                    "key property `{}` is never written on any queue (no binding, never \
                     set at enqueue): slices can never form",
                    s.property
                ),
            );
        }
    }
    for r in rules {
        for t in &r.named_resets {
            if spec.slicing(t).is_none() {
                emit(
                    LintCode::SlicingKeyMisuse,
                    format!("rule {}", r.name),
                    format!("`do reset {t}` names an undeclared slicing"),
                );
            }
        }
        if r.bare_resets > 0 && !r.on_slicing {
            emit(
                LintCode::SlicingKeyMisuse,
                format!("rule {}", r.name),
                format!(
                    "bare `do reset` in a rule on queue `{}`: reset needs a slicing \
                     context (name one: `do reset S key …`)",
                    r.target
                ),
            );
        }
    }

    // ---- DQ009: dead-end lineage -------------------------------------------
    // Provenance-aware flow check: in an application that talks to the
    // outside world (an outgoing gateway) or routes failures (error
    // queues), every causal chain should be able to terminate somewhere
    // observable — a gateway, an error queue, or a queue some rule reads
    // back. A queue that rules enqueue into but from which no flow or
    // error route reaches such a terminal collects messages whose lineage
    // dead-ends unobserved. Self-contained pipelines (no gateways, no
    // error routing) are exempt: their terminal queues *are* the output.
    {
        let has_outgoing = spec
            .queues
            .iter()
            .any(|q| q.kind == QueueKind::OutgoingGateway);
        if has_outgoing || !error_targets.is_empty() {
            let n = graph.queues.len();
            // Reverse adjacency over flow edges plus error-routing edges:
            // lineage continues through both rule enqueues and failures.
            let mut radj = vec![Vec::new(); n];
            for e in &graph.edges {
                radj[e.to].push(e.from);
            }
            for e in &error_edges {
                if let (Some(a), Some(b)) = (graph.index(&e.from), graph.index(&e.to)) {
                    radj[b].push(a);
                }
            }
            let mut reaches = vec![false; n];
            let mut stack: Vec<usize> = Vec::new();
            for (i, name) in graph.queues.iter().enumerate() {
                let terminal = spec.queue(name).map(|q| q.kind) == Some(QueueKind::OutgoingGateway)
                    || error_targets.contains(name.as_str())
                    || read_queues.contains(name.as_str());
                if terminal {
                    reaches[i] = true;
                    stack.push(i);
                }
            }
            // Echo queues armed with a non-literal `target` hop somewhere
            // the analysis cannot resolve; give them the benefit of the
            // doubt rather than report a false dead end.
            for r in rules {
                for s in &r.enqueues {
                    if spec.queue(&s.queue).map(|q| q.kind) != Some(QueueKind::Echo) {
                        continue;
                    }
                    let opaque_target = s.with_props.iter().any(|(p, lit)| {
                        p == "target" && lit.as_deref().and_then(|t| graph.index(t)).is_none()
                    });
                    if opaque_target {
                        if let Some(i) = graph.index(&s.queue) {
                            if !reaches[i] {
                                reaches[i] = true;
                                stack.push(i);
                            }
                        }
                    }
                }
            }
            while let Some(v) = stack.pop() {
                for &u in &radj[v] {
                    if !reaches[u] {
                        reaches[u] = true;
                        stack.push(u);
                    }
                }
            }
            // One diagnostic per dead-end queue, naming its producers.
            let mut producers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
            for r in rules {
                for s in &r.enqueues {
                    let Some(q) = spec.queue(&s.queue) else {
                        continue; // DQ001's job
                    };
                    if q.kind == QueueKind::IncomingGateway {
                        continue; // DQ002's job
                    }
                    if graph.index(&s.queue).is_some_and(|i| !reaches[i]) {
                        producers
                            .entry(s.queue.as_str())
                            .or_default()
                            .insert(r.name.as_str());
                    }
                }
            }
            for (queue, by) in producers {
                let who = by
                    .iter()
                    .map(|r| format!("`{r}`"))
                    .collect::<Vec<_>>()
                    .join(", ");
                emit(
                    LintCode::DeadEndLineage,
                    format!("queue {queue}"),
                    format!(
                        "rule(s) {who} enqueue here, but no flow or error route leads from \
                         `{queue}` to an outgoing gateway, an error queue, or a queue a rule \
                         reads: the causal chain dead-ends unobserved"
                    ),
                );
            }
        }
    }

    // ---- DQ010: cross-shard hot edges --------------------------------------
    // Nominal 2-shard placement: a flow edge that hops shards at N=2 hops
    // at every N>1, so placement regressions surface at deploy time even
    // when today's deployment is single-shard.
    {
        let placement = placement::compute_placement(spec, rules, &graph, 2);
        for e in placement::cross_shard_edges(spec, rules, &graph, &placement) {
            emit(
                LintCode::CrossShardHotEdge,
                format!("rule {}", e.rule),
                e.message,
            );
        }
    }

    // ---- aggregate dependency graph ----------------------------------------
    // Every aggregate node (rule bodies and property binding values) with
    // the queue/slicing it reads; consumed by DQ011 below and exposed on
    // the Analysis for tooling.
    let mut aggregate_deps: Vec<AggregateDep> = Vec::new();
    for r in rules {
        for a in &r.aggregate_reads {
            let source = match &a.source {
                AggReadSource::Queue(q) => format!("queue {q}"),
                // qs:slice() outside a slicing rule is a runtime error,
                // not a dependency.
                AggReadSource::Slice if r.on_slicing => format!("slicing {}", r.target),
                AggReadSource::Slice => continue,
            };
            aggregate_deps.push(AggregateDep {
                site: format!("rule {}", r.name),
                op: a.op.clone(),
                source,
                incremental: a.incremental,
            });
        }
    }
    for p in &spec.properties {
        for b in &p.bindings {
            for a in extract_aggregate_reads(&b.value, None) {
                let AggReadSource::Queue(q) = &a.source else {
                    continue;
                };
                aggregate_deps.push(AggregateDep {
                    site: format!("property {}", p.name),
                    op: a.op.clone(),
                    source: format!("queue {q}"),
                    incremental: a.incremental,
                });
            }
        }
    }
    aggregate_deps.sort();
    aggregate_deps.dedup();

    // ---- DQ011: unbounded aggregate rescans --------------------------------
    // A rescan-shaped aggregate over a queue no rule processes: nothing
    // drains the queue, so retention GC never bounds it, and every
    // evaluation pays O(N) over a membership that only grows. Slice reads
    // are bounded by the slice lifetime (reset), incremental shapes by
    // the materialized cell.
    for r in rules {
        for a in &r.aggregate_reads {
            if a.incremental {
                continue;
            }
            let AggReadSource::Queue(q) = &a.source else {
                continue;
            };
            if spec.queue(q).is_none() {
                continue; // unknown queue is DQ001's job
            }
            if ruled_queues.contains(q.as_str()) {
                continue; // a rule drains it; retention bounds the scan
            }
            emit(
                LintCode::UnboundedAggregateRescan,
                format!("rule {}", r.name),
                format!(
                    "`{}` over queue `{q}` is not in a shape the incremental \
                     aggregate pass maintains, and no rule processes `{q}` to \
                     bound its retention: every evaluation rescans a queue that \
                     only grows",
                    a.op
                ),
            );
        }
    }

    // ---- DQ012 / DQ013: message-lifetime (retention) verdicts --------------
    // The liveness pass classifies every queue/slicing read shape and
    // decides which slicings the engine may narrow. A slicing that is
    // never reset *and* cannot be narrowed retains its members forever
    // (DQ012); one the analysis downgraded to aggregate summaries gets
    // an informational note so authors who meant full history notice
    // (DQ013).
    let retention = liveness::retention_plan(spec, rules);
    for (name, plan) in &retention.slicings {
        if !plan.has_reset && !plan.narrowable {
            let why = if plan.shape == ReadShape::FullScan {
                "its rules scan full slice contents".to_string()
            } else if retention.dynamic_reads {
                "a dynamically-targeted queue read forces full retention everywhere".to_string()
            } else {
                let read_elsewhere: Vec<String> = plan
                    .member_queues
                    .iter()
                    .filter(|q| retention.queue_shape(q) != ReadShape::Unread)
                    .map(|q| format!("`{q}`"))
                    .collect();
                format!(
                    "member queue(s) {} are read as queues elsewhere",
                    read_elsewhere.join(", ")
                )
            };
            emit(
                LintCode::UnboundedRetention,
                format!("slicing {name}"),
                format!(
                    "members are provably never purgeable: no rule resets this slicing, \
                     and retention cannot be narrowed because {why}; the store grows \
                     without bound"
                ),
            );
        }
        if plan.narrowable && plan.shape == ReadShape::AggregateOnly {
            let suggestion = if plan.has_reset {
                ""
            } else {
                "; add an explicit `do reset` if full history was intended"
            };
            emit(
                LintCode::RetentionNarrowed,
                format!("slicing {name}"),
                format!(
                    "all slice reads are incrementally-maintained aggregates: processed \
                     member payloads are folded into persisted accumulators and purged \
                     by retention GC{suggestion}"
                ),
            );
        }
    }

    diags.sort_by(|a, b| (a.code, &a.subject, &a.message).cmp(&(b.code, &b.subject, &b.message)));
    diags.dedup();

    Analysis {
        diagnostics: diags,
        graph,
        aggregate_deps,
        retention,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_qdl::parse_program;

    fn run(src: &str) -> Analysis {
        let spec = parse_program(src).expect("parse");
        analyze_spec(&spec, &LintConfig::new())
    }

    fn codes(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_pipeline_has_no_diagnostics() {
        let a = run(r#"
            create queue inbox kind basic mode persistent
            create queue outbox kind basic mode persistent
            create rule fwd for inbox
              if (//order) then do enqueue <fwd/> into outbox
        "#);
        assert!(a.diagnostics.is_empty(), "got: {:?}", a.diagnostics);
    }

    #[test]
    fn unknown_enqueue_target_is_dq001_deny() {
        let a = run(r#"
            create queue inbox kind basic mode persistent
            create rule fwd for inbox
              if (//order) then do enqueue <fwd/> into nowhere
        "#);
        assert_eq!(codes(&a), ["DQ001"]);
        assert!(a.has_deny());
    }

    #[test]
    fn unguarded_self_loop_is_dq005() {
        let a = run(r#"
            create queue spin kind basic mode persistent
            create rule again for spin
              do enqueue <again/> into spin
        "#);
        assert_eq!(codes(&a), ["DQ005"]);
    }

    #[test]
    fn guarded_cycle_is_clean() {
        let a = run(r#"
            create queue a kind basic mode persistent
            create queue b kind basic mode persistent
            create rule ab for a if (//go) then do enqueue <x/> into b
            create rule ba for b do enqueue <x/> into a
        "#);
        assert!(a.diagnostics.is_empty(), "got: {:?}", a.diagnostics);
    }

    #[test]
    fn allow_suppresses_and_deny_escalates() {
        let src = r#"
            create queue spin kind basic mode persistent
            create rule again for spin
              do enqueue <again/> into spin
        "#;
        let spec = parse_program(src).unwrap();
        let mut cfg = LintConfig::new();
        cfg.set(LintCode::UnguardedFlowCycle, Severity::Allow);
        assert!(analyze_spec(&spec, &cfg).diagnostics.is_empty());
        let mut cfg = LintConfig::new();
        cfg.set(LintCode::UnguardedFlowCycle, Severity::Deny);
        assert!(analyze_spec(&spec, &cfg).has_deny());
    }

    #[test]
    fn dead_end_lineage_needs_an_observable_world() {
        // With an outgoing gateway in the app, a rule-fed queue that can
        // never reach a gateway, error queue, or read queue is DQ009…
        let a = run(r#"
            create queue inbox kind basic mode persistent
            create queue ship kind outgoingGateway mode persistent endpoint "urn:ship"
            create queue limbo kind basic mode persistent
            create rule send for inbox
              if (//order) then do enqueue <req/> into ship
            create rule stash for inbox
              if (//order) then do enqueue <copy/> into limbo
        "#);
        assert_eq!(codes(&a), ["DQ009"], "{}", a.render_human());
        assert_eq!(a.diagnostics[0].subject, "queue limbo");

        // …but a queue some rule reads back is a legitimate terminal…
        let a = run(r#"
            create queue inbox kind basic mode persistent
            create queue ship kind outgoingGateway mode persistent endpoint "urn:ship"
            create queue audit kind basic mode persistent
            create rule send for inbox
              if (//order and not(qs:queue("audit")[/copy])) then
                do enqueue <req/> into ship
            create rule stash for inbox
              if (//order) then do enqueue <copy/> into audit
        "#);
        assert!(a.diagnostics.is_empty(), "got: {:?}", a.diagnostics);

        // …and a self-contained pipeline (no gateways, no error routing)
        // is exempt: its terminal queues are the output.
        let a = run(r#"
            create queue inbox kind basic mode persistent
            create queue outbox kind basic mode persistent
            create rule fwd for inbox
              if (//order) then do enqueue <fwd/> into outbox
        "#);
        assert!(a.diagnostics.is_empty(), "got: {:?}", a.diagnostics);
    }

    #[test]
    fn unbounded_aggregate_rescan_is_dq011() {
        // `distinct-values` wraps the source, so the incremental pass
        // cannot maintain a cell for it, and nothing processes `audit`:
        // retention is unbounded and every evaluation rescans.
        let a = run(r#"
            create queue inbox kind basic mode persistent
            create queue audit kind basic mode persistent
            create queue outbox kind basic mode persistent
            create rule stash for inbox
              if (//order) then do enqueue <copy/> into audit
            create rule watch for inbox
              if (count(distinct-values(qs:queue("audit")//n)) > 2) then
                do enqueue <hot/> into outbox
        "#);
        assert_eq!(codes(&a), ["DQ011"], "{}", a.render_human());
        assert_eq!(a.diagnostics[0].subject, "rule watch");

        // The same read in an incremental shape is maintained by the
        // materialized-cell pass: no warning.
        let a = run(r#"
            create queue inbox kind basic mode persistent
            create queue audit kind basic mode persistent
            create queue outbox kind basic mode persistent
            create rule stash for inbox
              if (//order) then do enqueue <copy/> into audit
            create rule watch for inbox
              if (count(qs:queue("audit")//n) > 2) then do enqueue <hot/> into outbox
        "#);
        assert!(a.diagnostics.is_empty(), "got: {:?}", a.diagnostics);

        // A rescan over a queue some rule processes is bounded by
        // retention GC: no warning.
        let a = run(r#"
            create queue inbox kind basic mode persistent
            create queue outbox kind basic mode persistent
            create rule fwd for inbox
              if (count(distinct-values(qs:queue("inbox")//n)) > 2) then
                do enqueue <hot/> into outbox
        "#);
        assert!(a.diagnostics.is_empty(), "got: {:?}", a.diagnostics);
    }

    #[test]
    fn aggregate_deps_cover_rules_and_property_bindings() {
        let a = run(r#"
            create queue intake kind basic mode persistent
            create queue done kind basic mode persistent
            create property lane as xs:integer inherited
            create property depth as xs:integer fixed
              queue done value count(qs:queue("intake"))
            create slicing lanes on lane
            create rule enrich for intake
              if (//job and avg(qs:queue("done")//n) < 5) then
                do enqueue <done/> into done with lane value 1
            create rule drain for lanes
              if (count(qs:slice()) > 3) then do reset
        "#);
        let deps: Vec<(&str, &str, &str, bool)> = a
            .aggregate_deps
            .iter()
            .map(|d| {
                (
                    d.site.as_str(),
                    d.op.as_str(),
                    d.source.as_str(),
                    d.incremental,
                )
            })
            .collect();
        assert_eq!(
            deps,
            [
                ("property depth", "count", "queue intake", true),
                ("rule drain", "count", "slicing lanes", true),
                ("rule enrich", "avg", "queue done", true),
            ],
            "got: {:?}",
            a.aggregate_deps
        );
        // `avg` decomposes into a sum/count cell pair now, so the `done`
        // read is maintained incrementally: no DQ011. The `lanes`
        // slicing has a reset and its member queues are read as queues
        // (aggregate cells over `intake`/`done`), so neither DQ012 nor
        // DQ013 applies either.
        assert!(a.diagnostics.is_empty(), "{}", a.render_human());
    }

    #[test]
    fn json_rendering_carries_summary() {
        let a = run(r#"
            create queue inbox kind basic mode persistent
            create rule fwd for inbox
              if (//order) then do enqueue <fwd/> into nowhere
        "#);
        let json = a.render_json();
        assert!(json.starts_with("{\"diagnostics\":["));
        assert!(json.contains("\"code\":\"DQ001\""));
        assert!(json.ends_with("\"summary\":{\"total\":1,\"info\":0,\"warn\":0,\"deny\":1}}"));
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn explain_examples_parse_and_trigger_their_own_code() {
        for code in LintCode::ALL {
            assert!(!code.description().is_empty());
            let spec = parse_program(code.example())
                .unwrap_or_else(|e| panic!("{} example must parse: {e}", code.as_str()));
            // DQ010 needs a multi-shard placement context the plain
            // analyzer does not set up — its example is illustrative only.
            if code == LintCode::CrossShardHotEdge {
                continue;
            }
            let a = analyze_spec(&spec, &LintConfig::new());
            assert!(
                a.diagnostics.iter().any(|d| d.code == code),
                "{} example must trigger itself, got:\n{}",
                code.as_str(),
                a.render_human()
            );
        }
    }
}
