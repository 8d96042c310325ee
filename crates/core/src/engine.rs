//! The Demaq server: execution model, error routing, time, and gateways.
//!
//! Implements the paper's Sec. 3.1 execution model: an iterative cycle
//! with detached coupling. Each unprocessed message is processed exactly
//! once; processing evaluates all rules pertaining to its queue (including
//! slicing rules) into a pending action list that executes in the same
//! store transaction. Many processing transactions may run concurrently
//! ([`Server::process_all_parallel`]) under queue- or slice-granularity
//! locking (Sec. 4.3).

use crate::aggregates::{AggRegistry, CellMap, Fold, Scope};
use crate::app::{lock_order, CompiledApp, CompiledQueue, CompiledSlicing, LockPlan};
use crate::cache::DocCache;
use crate::compiler::CompiledRule;
use crate::errors::{error_message, kind};
use crate::gateway::GatewayManager;
use crate::host::{
    atomic_to_prop, prop_to_atomic, AggregateReader, QsHost, QueueReader, SliceReader, SliceSlot,
};
use crate::lineage::{self, Lineage};
use crate::outbox::{Effect, Outbox};
use crate::properties::{compute_properties, lineage_prop, system, PropError};
use crate::scheduler::Scheduler;
use crate::shard::{Forwarded, ShardLink};
use demaq_net::{Clock, Envelope, Network, TimerWheel};
use demaq_obs::{Counter, Gauge, Histogram, Obs, TraceCtx, TraceEvent, TraceFilter};
use demaq_qdl::{parse_program, AppSpec, QueueKind};
use demaq_store::store::SyncPolicy;
use demaq_store::types::prop;
use demaq_store::{
    DurableTarget, LockGranularity, LockKey, LockMode, MemberRead, MessageMeta, MessageStore, MsgId,
    Name, PayloadBytes, PropValue, Props, QueueMode, StoreError, StoreOptions, StoredMessage, TxnId,
};
use demaq_xml::{parse as parse_xml, Document, NodeRef};
use demaq_xquery::{
    AggAcc, AggId, AggOp, AggSource, AggregateSpec, Atomic, Contribution, DynamicContext,
    Error as XqError, EvalCounts, Item, PlanEvaluator, Sequence, Update,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Engine error.
#[derive(Debug)]
pub enum EngineError {
    Compile(String),
    Store(StoreError),
    Xml(String),
    Query(XqError),
    Config(String),
    /// Deploy-time static analysis found deny-severity diagnostics and
    /// the builder runs with [`StrictAnalysis::Deny`].
    Analysis(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Compile(m) => write!(f, "compile error: {m}"),
            EngineError::Store(e) => write!(f, "store error: {e}"),
            EngineError::Xml(m) => write!(f, "XML error: {m}"),
            EngineError::Query(e) => write!(f, "query error: {e}"),
            EngineError::Config(m) => write!(f, "configuration error: {m}"),
            EngineError::Analysis(m) => write!(f, "analysis rejected the application: {m}"),
        }
    }
}
impl std::error::Error for EngineError {}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}
impl From<XqError> for EngineError {
    fn from(e: XqError) -> Self {
        EngineError::Query(e)
    }
}

use crate::Result;

/// Counters exposed for tests, examples, and benchmarks — a thin snapshot
/// view over the [`demaq_obs::Registry`] (see [`Server::metrics`] for the
/// full per-queue/labeled series and histograms).
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    pub processed: u64,
    pub enqueued: u64,
    pub errors_routed: u64,
    pub rules_evaluated: u64,
    pub rules_skipped_by_filter: u64,
    pub deadlock_retries: u64,
    pub timers_fired: u64,
    pub gc_purged: u64,
    /// Rule bodies lowered to pre-resolved plans (process-wide).
    pub plans_lowered: u64,
    /// Existence tests that stopped at the first matching node
    /// (process-wide).
    pub ebv_short_circuits: u64,
    /// Distinct names in the global symbol table (process-wide).
    pub interned_symbols: u64,
}

impl ServerStats {
    /// Snapshot of `obs`'s registry: one server's, or the one every shard
    /// of a [`crate::shard::ShardedServer`] shares.
    pub(crate) fn of(obs: &Obs) -> ServerStats {
        sync_xquery_metrics(obs);
        let counter = |name| obs.registry.counter_total(name);
        ServerStats {
            processed: counter("demaq_engine_processed_total"),
            enqueued: counter("demaq_engine_enqueued_total"),
            errors_routed: counter("demaq_engine_errors_routed_total"),
            rules_evaluated: counter("demaq_engine_rules_evaluated_total"),
            rules_skipped_by_filter: counter("demaq_engine_rules_skipped_total"),
            deadlock_retries: counter("demaq_engine_deadlock_retries_total"),
            timers_fired: counter("demaq_engine_timers_fired_total"),
            gc_purged: counter("demaq_engine_gc_purged_total"),
            plans_lowered: demaq_xquery::plan::plans_lowered_total(),
            ebv_short_circuits: demaq_xquery::plan::ebv_short_circuits_total(),
            interned_symbols: demaq_xml::sym::interned_count(),
        }
    }
}

/// All metrics registered in `obs` in Prometheus text exposition format.
pub(crate) fn metrics_text(obs: &Obs) -> String {
    sync_xquery_metrics(obs);
    obs.registry.render_text()
}

/// Mirror the process-global lowered-plan counters into `obs`'s registry
/// so they appear in the text exposition. Counters only move forward, so
/// the delta-add converges even when several servers share one registry.
fn sync_xquery_metrics(obs: &Obs) {
    let r = &obs.registry;
    for (name, global) in [
        (
            "demaq_xquery_plans_lowered_total",
            demaq_xquery::plan::plans_lowered_total(),
        ),
        (
            "demaq_xquery_ebv_short_circuits_total",
            demaq_xquery::plan::ebv_short_circuits_total(),
        ),
        (
            "demaq_core_prop_const_hits_total",
            crate::properties::prop_const_hits_total(),
        ),
    ] {
        let c = r.counter(name);
        let seen = c.get();
        if global > seen {
            c.add(global - seen);
        }
    }
    r.gauge("demaq_xquery_interned_symbols")
        .set(demaq_xml::sym::interned_count() as i64);
}

/// Registry handles for the hot engine counters, resolved once at build so
/// per-message paths are plain atomic adds. Per-queue series
/// (`demaq_engine_processed_total{queue=..}`) are looked up per event —
/// one read-locked map probe per processed message.
struct EngineMetrics {
    rules_evaluated: Counter,
    rules_skipped: Counter,
    deadlock_retries: Counter,
    requeues: Counter,
    timers_fired: Counter,
    errors_routed: Counter,
    error_route_cycles: Counter,
    gc_purged: Counter,
    /// Slice members folded into their base and released for purge by the
    /// retention-narrowing sweep.
    retention_released: Counter,
    /// The rule-eval span, and its three stages: lock, evaluate the
    /// rules, execute their actions.
    rule_eval_ns: Histogram,
    lock_ns: Histogram,
    evaluate_ns: Histogram,
    execute_ns: Histogram,
    txn_commit_ns: Histogram,
    /// Rule evaluators' work counts ([`EvalCounts`]), added once per
    /// evaluator: one per message for its queue's rules.
    path_steps: Counter,
    shared_evals: Counter,
    shared_reuses: Counter,
    scheduler_depth: Gauge,
    /// `demaq_engine_durability_barriers_total{reason=…}`, indexed by
    /// [`BarrierReason`].
    barriers: [Counter; 4],
    /// Per-queue throughput counters, resolved once at build time (the
    /// queue set is fixed by the compiled application) so the hot path
    /// never re-derives a labeled series key.
    per_queue: HashMap<String, QueueCounters>,
    /// Per-rule attribution handles, keyed by rule name.
    per_rule: HashMap<String, RuleMetrics>,
}

/// When a message's rule-eval span finished locking and evaluating.
#[derive(Default)]
struct Seams {
    locked: Option<Instant>,
    evaluated: Option<Instant>,
}

struct QueueCounters {
    processed: Counter,
    enqueued: Counter,
}

/// Per-rule attribution handles, resolved once at build (the rule set is
/// fixed by the compiled application): evaluation wall time, firings, and
/// messages produced. Exposed as
/// `demaq_engine_rule_time_ns{rule=…}` / `…_rule_fires_total{rule=…}` /
/// `…_rule_produced_total{rule=…}` and snapshotted by
/// [`Server::rule_profiles`].
struct RuleMetrics {
    time_ns: Histogram,
    fires: Counter,
    produced: Counter,
}

/// Snapshot of one rule's wall-time attribution (from
/// [`Server::rule_profiles`]). Quantiles come from the log2 histogram
/// backing `demaq_engine_rule_time_ns{rule=…}`.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleProfile {
    /// Rule name as declared.
    pub rule: String,
    /// Times the rule body was evaluated.
    pub fires: u64,
    /// Messages its `do enqueue` actions produced.
    pub messages_produced: u64,
    /// Median evaluation time (ns).
    pub eval_ns_p50: u64,
    /// 99th-percentile evaluation time (ns).
    pub eval_ns_p99: u64,
    /// Mean evaluation time (ns).
    pub eval_ns_mean: f64,
    /// Total evaluation time (ns).
    pub eval_ns_total: u64,
}

impl EngineMetrics {
    fn new<'q>(
        obs: &Obs,
        queues: impl Iterator<Item = &'q str>,
        rules: impl Iterator<Item = &'q str>,
    ) -> EngineMetrics {
        let r = &obs.registry;
        let per_queue = queues
            .map(|q| {
                (
                    q.to_string(),
                    QueueCounters {
                        processed: r.counter_with("demaq_engine_processed_total", &[("queue", q)]),
                        enqueued: r.counter_with("demaq_engine_enqueued_total", &[("queue", q)]),
                    },
                )
            })
            .collect();
        let per_rule = rules
            .map(|name| {
                (
                    name.to_string(),
                    RuleMetrics {
                        time_ns: r.histogram_with("demaq_engine_rule_time_ns", &[("rule", name)]),
                        fires: r.counter_with("demaq_engine_rule_fires_total", &[("rule", name)]),
                        produced: r
                            .counter_with("demaq_engine_rule_produced_total", &[("rule", name)]),
                    },
                )
            })
            .collect();
        EngineMetrics {
            rules_evaluated: r.counter("demaq_engine_rules_evaluated_total"),
            rules_skipped: r.counter("demaq_engine_rules_skipped_total"),
            deadlock_retries: r.counter("demaq_engine_deadlock_retries_total"),
            requeues: r.counter("demaq_engine_requeues_total"),
            timers_fired: r.counter("demaq_engine_timers_fired_total"),
            errors_routed: r.counter("demaq_engine_errors_routed_total"),
            error_route_cycles: r.counter("demaq_core_error_route_cycles_total"),
            gc_purged: r.counter("demaq_engine_gc_purged_total"),
            retention_released: r.counter("demaq_engine_retention_released_total"),
            rule_eval_ns: r.histogram("demaq_engine_rule_eval_ns"),
            lock_ns: r.histogram("demaq_engine_lock_ns"),
            evaluate_ns: r.histogram("demaq_engine_evaluate_ns"),
            execute_ns: r.histogram("demaq_engine_execute_ns"),
            txn_commit_ns: r.histogram("demaq_engine_txn_commit_ns"),
            path_steps: r.counter("demaq_xquery_path_steps_total"),
            shared_evals: r.counter("demaq_xquery_shared_evals_total"),
            shared_reuses: r.counter("demaq_xquery_shared_reuses_total"),
            scheduler_depth: r.gauge("demaq_engine_scheduler_depth"),
            barriers: BarrierReason::ALL.map(|reason| {
                r.counter_with(
                    "demaq_engine_durability_barriers_total",
                    &[("reason", reason.label())],
                )
            }),
            per_queue,
            per_rule,
        }
    }

    /// Record one message's rule-eval span, which started at `started`,
    /// and its stages. A stage the span did not reach takes no time.
    fn record_rule_eval_span(&self, started: Instant, seams: Seams) {
        let end = Instant::now();
        let locked = seams.locked.unwrap_or(end);
        let evaluated = seams.evaluated.unwrap_or(end);
        self.rule_eval_ns.record(end - started);
        self.lock_ns.record(locked - started);
        self.evaluate_ns.record(evaluated - locked);
        self.execute_ns.record(end - evaluated);
    }

    /// Attribute one rule evaluation: wall time + firing count.
    fn record_rule_eval(&self, rule: &str, elapsed: std::time::Duration) {
        if let Some(rm) = self.per_rule.get(rule) {
            rm.time_ns.record(elapsed);
            rm.fires.inc();
        }
    }

    /// Add what one evaluator did.
    fn record_eval_counts(&self, counts: EvalCounts) {
        self.path_steps.add(counts.path_steps);
        self.shared_evals.add(counts.shared_evals);
        self.shared_reuses.add(counts.shared_reuses);
    }

    /// Attribute one produced message to the rule that enqueued it.
    fn record_rule_produced(&self, rule: &str) {
        if let Some(rm) = self.per_rule.get(rule) {
            rm.produced.inc();
        }
    }

    fn inc_processed(&self, obs: &Obs, queue: &str) {
        match self.per_queue.get(queue) {
            Some(c) => c.processed.inc(),
            None => obs
                .registry
                .counter_with("demaq_engine_processed_total", &[("queue", queue)])
                .inc(),
        }
    }

    fn inc_enqueued(&self, obs: &Obs, queue: &str) {
        match self.per_queue.get(queue) {
            Some(c) => c.enqueued.inc(),
            None => obs
                .registry
                .counter_with("demaq_engine_enqueued_total", &[("queue", queue)])
                .inc(),
        }
    }
}

/// Why a durability barrier ran: the `reason` label of
/// `demaq_engine_durability_barriers_total`.
#[derive(Debug, Clone, Copy)]
enum BarrierReason {
    /// A worker found nothing to do.
    Idle,
    /// [`BARRIER_BACKLOG`] effects were held or ingests unsynced, or
    /// [`BARRIER_AGE`] commits were unsynced while one was.
    Backlog,
    /// An external enqueue waited for the disk to acknowledge; its sync
    /// covered the deferred commits before it.
    Ack,
    /// Before GC, checkpoint, or drop.
    Maintenance,
}

impl BarrierReason {
    const ALL: [BarrierReason; 4] = [
        BarrierReason::Idle,
        BarrierReason::Backlog,
        BarrierReason::Ack,
        BarrierReason::Maintenance,
    ];

    fn label(self) -> &'static str {
        match self {
            BarrierReason::Idle => "idle",
            BarrierReason::Backlog => "backlog",
            BarrierReason::Ack => "ack",
            BarrierReason::Maintenance => "maintenance",
        }
    }
}

/// Held effects, or unsynced ingests, at which a busy worker runs a
/// durability barrier. An ingest is a deferred commit whose input lives
/// only in memory (a gateway delivery, a timer echo, a landed forward, a
/// routed transport error): a crash that loses it loses the input. So a
/// held forward or send waits behind at most 31 other held effects, a
/// crash loses at most 32 ingests, and either waits at most
/// [`BARRIER_AGE`] commits or until its worker idles, acks or runs
/// maintenance. Any other commit processes a durable message and waits
/// for the next barrier: a crash before it leaves the message
/// unprocessed, and recovery redoes it.
const BARRIER_BACKLOG: usize = 32;

/// Unsynced commits at which a busy worker runs a barrier while any
/// effect is held or any ingest unsynced.
const BARRIER_AGE: u64 = 8 * BARRIER_BACKLOG as u64;

/// How a non-rule enqueue entered the server: who, if anyone, is being
/// answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ingress {
    /// `enqueue_external*`: returning the id *is* the acknowledgement, so
    /// the commit waits for the disk. The queue must be homed here — the
    /// sharded front door routes before picking a shard.
    Acked,
    /// Gateway ingest, timer echo, error routing, a landed cross-shard
    /// forward: nobody is answered, the commit is deferred, and a target
    /// homed on another shard is forwarded there.
    Internal,
}

/// What to do with deploy-time analysis diagnostics (the whole-application
/// pass of `demaq-analysis`, paper Sec. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrictAnalysis {
    /// Skip reporting entirely (the analysis still runs: the engine's
    /// lock-order derivation needs its flow graph).
    Off,
    /// Record diagnostics as trace events and
    /// `demaq_core_analysis_diagnostics_total{severity=…}` counters;
    /// deployment proceeds. The default.
    Warn,
    /// Additionally refuse to deploy when any diagnostic has deny
    /// severity.
    Deny,
}

/// Payload parked on an echo-queue timer.
#[derive(Debug, Clone, PartialEq)]
struct TimerJob {
    target: String,
    payload: String,
    props: Vec<(Name, PropValue)>,
}
impl Eq for TimerJob {}

/// Builder for [`Server`].
#[derive(Clone)]
pub struct ServerBuilder {
    pub(crate) program: Option<String>,
    pub(crate) spec: Option<AppSpec>,
    pub(crate) dir: Option<PathBuf>,
    pub(crate) in_memory: bool,
    sync: SyncPolicy,
    lock_granularity: LockGranularity,
    pub(crate) seed: u64,
    pub(crate) clock: Option<Clock>,
    pub(crate) network: Option<Arc<Network>>,
    wsdl_files: HashMap<String, String>,
    collections: HashMap<String, Vec<Arc<Document>>>,
    pub(crate) server_addr: String,
    pub(crate) obs: Option<Arc<Obs>>,
    doc_cache_budget: usize,
    strict_analysis: StrictAnalysis,
    /// Base added to freshly allocated message ids (shard `i` of a
    /// [`crate::shard::ShardedServer`] gets `i << 48`, so ids are unique
    /// across shards without coordination).
    pub(crate) msg_id_base: u64,
    /// Link back to the shard router when this server is one shard of a
    /// [`crate::shard::ShardedServer`]. `None` builds a standalone server:
    /// the one entry of its own single-shard directory.
    pub(crate) shard_link: Option<ShardLink>,
    /// When `Some`, only the named incoming-gateway queues register network
    /// listeners (each gateway listens on exactly one shard).
    pub(crate) incoming_gateways: Option<HashSet<String>>,
    /// The application compiled once for every shard of a
    /// [`crate::shard::ShardedServer`]; `None` compiles the program here.
    pub(crate) compiled: Option<Arc<CompiledApp>>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            program: None,
            spec: None,
            dir: None,
            in_memory: false,
            sync: SyncPolicy::Always,
            lock_granularity: LockGranularity::Slice,
            seed: 7,
            clock: None,
            network: None,
            wsdl_files: HashMap::new(),
            collections: HashMap::new(),
            server_addr: "demaq://node".into(),
            obs: None,
            doc_cache_budget: 64 << 20,
            strict_analysis: StrictAnalysis::Warn,
            msg_id_base: 0,
            shard_link: None,
            incoming_gateways: None,
            compiled: None,
        }
    }
}

impl ServerBuilder {
    /// QDL/QML source of the application.
    pub fn program(mut self, src: &str) -> Self {
        self.program = Some(src.to_string());
        self
    }

    /// Pre-parsed application.
    pub fn spec(mut self, spec: AppSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Store directory (persistent across restarts).
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Use a throwaway temp directory (examples, tests).
    pub fn in_memory(mut self) -> Self {
        self.in_memory = true;
        self
    }

    /// Commit durability policy.
    pub fn sync_policy(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Lock granularity (paper Sec. 4.3; benchmark E3).
    pub fn lock_granularity(mut self, g: LockGranularity) -> Self {
        self.lock_granularity = g;
        self
    }

    /// RNG seed for the network failure injection.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Use an existing clock (sharing time with other servers).
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Use an existing network (multi-node scenarios).
    pub fn network(mut self, net: Arc<Network>) -> Self {
        self.network = Some(net);
        self
    }

    /// Provide the content of a WSDL file referenced by an `interface`
    /// clause.
    pub fn wsdl_file(mut self, name: &str, content: &str) -> Self {
        self.wsdl_files
            .insert(name.to_string(), content.to_string());
        self
    }

    /// Register master data reachable via `fn:collection(name)`.
    pub fn collection(mut self, name: &str, docs: Vec<Arc<Document>>) -> Self {
        self.collections.insert(name.to_string(), docs);
        self
    }

    /// This node's transport address.
    pub fn server_addr(mut self, addr: &str) -> Self {
        self.server_addr = addr.to_string();
        self
    }

    /// Use an existing observability context (sharing one registry across
    /// several servers, or sizing the trace ring with
    /// [`Obs::with_trace_capacity`]). Defaults to a fresh [`Obs::new`].
    pub fn obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Byte budget of the sharded parsed-document cache. 0 disables it
    /// (every access re-parses). Defaults to 64 MiB.
    pub fn doc_cache_budget(mut self, bytes: usize) -> Self {
        self.doc_cache_budget = bytes;
        self
    }

    /// What to do with deploy-time analysis diagnostics. Defaults to
    /// [`StrictAnalysis::Warn`].
    pub fn strict_analysis(mut self, mode: StrictAnalysis) -> Self {
        self.strict_analysis = mode;
        self
    }

    /// Partition the application across `n` engine shards, each with its
    /// own store (private WAL, slice index, document cache) and worker
    /// pool. Queue placement is derived from the flow graph so hot rule
    /// chains stay shard-local; `shards(1)` degrades to a single server
    /// behaviorally identical to [`Self::build`].
    ///
    /// With [`Self::in_memory`] every shard gets its own throwaway store
    /// directory.
    pub fn shards(self, n: usize) -> crate::shard::ShardedServerBuilder {
        crate::shard::ShardedServerBuilder::new(self, n)
    }

    /// Parse and compile the application.
    pub(crate) fn compile(&self) -> Result<CompiledApp> {
        let spec = match (&self.spec, &self.program) {
            (Some(s), _) => s.clone(),
            (None, Some(p)) => parse_program(p).map_err(|e| EngineError::Compile(e.to_string()))?,
            (None, None) => return Err(EngineError::Config("no program provided".into())),
        };
        CompiledApp::compile(spec, &self.wsdl_files).map_err(|e| EngineError::Compile(e.to_string()))
    }

    /// Resolve the observability context, clock and network the server
    /// runs with, and pin them in the builder so that every clone of it —
    /// every shard of a [`crate::shard::ShardedServer`] — shares them.
    /// The clock is the explicit one, else the supplied network's (time
    /// must be shared, or fast-forwarding would desynchronize delivery),
    /// else a fresh virtual clock.
    pub(crate) fn pin_environment(&mut self) -> (Arc<Obs>, Clock, Arc<Network>) {
        let obs = self.obs.get_or_insert_with(Obs::new);
        let clock = match (&self.clock, &self.network) {
            (Some(c), _) => c.clone(),
            (None, Some(net)) => net.clock().clone(),
            (None, None) => Clock::default(),
        };
        self.clock = Some(clock.clone());
        let seed = self.seed;
        let net = self
            .network
            .get_or_insert_with(|| Arc::new(Network::new(clock.clone(), seed)));
        (Arc::clone(obs), clock, Arc::clone(net))
    }

    /// Compile the application and open the store.
    pub fn build(mut self) -> Result<Server> {
        let app = match &self.compiled {
            Some(app) => Arc::clone(app),
            None => Arc::new(self.compile()?),
        };

        if self.strict_analysis == StrictAnalysis::Deny && app.analysis.has_deny() {
            let msgs: Vec<String> = app
                .analysis
                .diagnostics
                .iter()
                .filter(|d| d.severity == demaq_analysis::Severity::Deny)
                .map(|d| d.to_string())
                .collect();
            return Err(EngineError::Analysis(msgs.join("; ")));
        }

        let mut temp_root = None;
        let dir = match (self.dir.take(), self.in_memory) {
            (Some(d), _) => d,
            (None, true) => temp_root.insert(TempRoot::new("demaq")).0.clone(),
            (None, false) => {
                return Err(EngineError::Config(
                    "choose a store directory with .dir(..) or .in_memory()".into(),
                ))
            }
        };
        let (obs, clock, net) = self.pin_environment();
        if self.strict_analysis != StrictAnalysis::Off {
            for d in &app.analysis.diagnostics {
                obs.registry
                    .counter_with(
                        "demaq_core_analysis_diagnostics_total",
                        &[("severity", d.severity.as_str())],
                    )
                    .inc();
                obs.tracer.event("analysis.diagnostic", None, &d.subject, &d.message);
            }
        }
        let mut opts = StoreOptions::new(dir);
        opts.sync = self.sync;
        opts.lock_granularity = self.lock_granularity;
        opts.msg_id_base = self.msg_id_base;
        opts.obs = Some(Arc::clone(&obs));
        let store = Arc::new(MessageStore::open(opts)?);

        // Declare queues (idempotent against recovered state).
        for (name, q) in &app.queues {
            let mode = if q.decl.persistent {
                QueueMode::Persistent
            } else {
                QueueMode::Transient
            };
            store.create_queue(name, mode, q.decl.priority)?;
        }

        net.attach_obs(&obs);
        let gateways = GatewayManager::with_incoming_filter(
            &app,
            Arc::clone(&net),
            self.server_addr,
            Arc::clone(&obs),
            self.incoming_gateways.as_ref(),
        );
        let timers = TimerWheel::new();
        timers.attach_fire_counter(obs.registry.counter("demaq_net_timer_fired_total"));
        let metrics = EngineMetrics::new(
            &obs,
            app.queues.keys().map(String::as_str),
            app.queues
                .values()
                .flat_map(|q| q.rules.iter())
                .chain(app.slicings.values().flat_map(|s| s.rules.iter()))
                .map(|r| &*r.name),
        );

        let narrow = narrow_plans(&app);
        let agg = Arc::new(AggRegistry::new(&app.aggregates, 4096, &obs));
        let shard = self.shard_link.unwrap_or_else(|| ShardLink::standalone(&obs));
        let doc_cache = Arc::new(DocCache::new(16, self.doc_cache_budget, &obs));
        let slice_seq = Arc::new(CellMap::new(
            4096,
            &obs,
            [
                "demaq_core_slice_seq_hits_total",
                "demaq_core_slice_seq_appends_total",
                "demaq_core_slice_seq_rebuilds_total",
            ],
        ));
        let readers = Readers::new(ReadHandle {
            store: Arc::clone(&store),
            cache: Arc::clone(&doc_cache),
            slice_seq: Arc::clone(&slice_seq),
            agg: Arc::clone(&agg),
        });
        let server = Server {
            app,
            store,
            net,
            clock,
            timers,
            gateways,
            scheduler: shard.router.scheduler(shard.shard),
            collections: Arc::new(self.collections),
            metrics,
            doc_cache,
            slice_seq,
            agg,
            readers,
            narrow,
            outbox: Outbox::new(&obs),
            pipelined: self.sync == SyncPolicy::Always,
            unsynced_ingests: AtomicUsize::new(0),
            obs,
            shard,
            _temp_root: temp_root,
        };
        // Recovery: re-schedule surviving unprocessed messages.
        for (msg, queue, prio) in server.store.unprocessed() {
            server.sched_push(msg, &queue, prio);
        }
        Ok(server)
    }
}

/// The throwaway store directory behind `.in_memory()`, removed on drop.
/// Owners declare it as their *last* field: fields drop in declaration
/// order, so every store handle has closed its WAL files before
/// the tree goes away.
pub(crate) struct TempRoot(pub(crate) PathBuf);

impl TempRoot {
    /// A fresh `<prefix>-<pid>-<n>` path under the system temp directory
    /// (the store creates it).
    pub(crate) fn new(prefix: &str) -> TempRoot {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempRoot(std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id())))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How the GC sweep may narrow one slicing's retained history, lowered at
/// build time from the liveness analysis's [`demaq_analysis::SlicePlan`].
/// Only provably narrowable slicings get an entry; everything else keeps
/// the paper's full retain-until-reset behavior.
#[derive(Debug)]
enum NarrowMode {
    /// All reads are recognized aggregates: fold processed members into
    /// the slice's base cells (one per aggregate shape its rules read),
    /// then release them.
    Aggregate(Vec<AggId>),
    /// All reads are `[last()]`-style suffixes: release processed members
    /// beyond the proven horizon of `k` newest.
    Suffix(usize),
}

/// Lower the analysis retention plan into per-slicing narrow modes. For
/// aggregate-only slicings the folded shapes are the ones the slicing's
/// lowered rule plans read — so the base cells the sweep writes are
/// exactly the cells reads will consult.
fn narrow_plans(app: &CompiledApp) -> HashMap<String, NarrowMode> {
    use demaq_analysis::ReadShape;
    let mut plans = HashMap::new();
    for (name, plan) in &app.analysis.retention.slicings {
        if !plan.narrowable {
            continue;
        }
        let mode = match plan.shape {
            // An unread slice may still be the application's *output* —
            // retained precisely so an external consumer can inspect it
            // (rules never reading it proves nothing about the outside).
            // Only read shapes that pin down what the contents are *for*
            // justify dropping them.
            ReadShape::Unread => continue,
            ReadShape::BoundedSuffix(k) => NarrowMode::Suffix(k),
            // Analysis may see aggregate reads the recognizer cannot fold
            // here — then the slice stays fully retained.
            ReadShape::AggregateOnly => match app.slice_aggregates.get(name) {
                Some(ids) if !ids.is_empty() => NarrowMode::Aggregate(ids.clone()),
                _ => continue,
            },
            // Narrowable excludes FullScan by construction.
            ReadShape::FullScan => continue,
        };
        plans.insert(name.clone(), mode);
    }
    plans
}

/// A running Demaq node.
pub struct Server {
    app: Arc<CompiledApp>,
    store: Arc<MessageStore>,
    net: Arc<Network>,
    clock: Clock,
    timers: TimerWheel<TimerJob>,
    gateways: GatewayManager,
    /// Owned by the routing directory, so a forward can wake it.
    scheduler: Arc<Scheduler>,
    collections: Arc<HashMap<String, Vec<Arc<Document>>>>,
    obs: Arc<Obs>,
    metrics: EngineMetrics,
    /// Sharded LRU over parsed message documents, shared with the
    /// `qs:queue()` reader closures (see [`crate::cache`]).
    doc_cache: Arc<DocCache>,
    /// Materialized slice member sequences, validated on the store's
    /// lifetime tokens.
    slice_seq: Arc<CellMap<Sequence>>,
    /// Materialized aggregate cells, validated on the same tokens.
    agg: Arc<AggRegistry>,
    /// The rule host's readers over committed state, built once.
    readers: Readers,
    /// Per-slicing retention narrowing derived from the liveness
    /// analysis; a slicing without an entry retains full history.
    narrow: HashMap<String, NarrowMode>,
    /// Forwards and gateway sends waiting for their producing commit to
    /// become durable (see [`crate::outbox`]). Always empty unless
    /// `pipelined`.
    outbox: Outbox,
    /// [`SyncPolicy::Always`]: engine-side commits are deferred — a worker
    /// does not wait for its own fsync — and everything that leaves the
    /// process goes through the outbox. Under `Batch` nothing waits for
    /// the disk in the first place, so nothing is deferred or held.
    pipelined: bool,
    /// Ingests since the last barrier: deferred commits whose input lives
    /// only in memory (see [`BARRIER_BACKLOG`]).
    unsynced_ingests: AtomicUsize,
    /// This server's entry in its routing directory: one shard of a
    /// [`crate::shard::ShardedServer`], or the only entry of its own.
    shard: ShardLink,
    /// Set for a standalone `.in_memory()` server. Must stay the last
    /// field (see [`TempRoot`]).
    _temp_root: Option<TempRoot>,
}

impl Server {
    /// Start building a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// The compiled application.
    pub fn app(&self) -> &CompiledApp {
        &self.app
    }

    /// The underlying store (inspection, checkpoints).
    pub fn store(&self) -> &Arc<MessageStore> {
        &self.store
    }

    /// How many slice member sequences are materialized (tests/diagnostics).
    pub fn cached_slice_sequences(&self) -> usize {
        self.slice_seq.len()
    }

    /// The simulated network.
    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// The engine clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Statistics snapshot — a thin view over the metric registry
    /// (per-queue counters summed across their labels).
    pub fn stats(&self) -> ServerStats {
        ServerStats::of(&self.obs)
    }

    /// The observability context (registry + tracer) of this server.
    pub fn metrics(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// All registered metrics in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        metrics_text(&self.obs)
    }

    /// The most recent `n` trace events, oldest first.
    pub fn trace_tail(&self, n: usize) -> Vec<TraceEvent> {
        self.obs.tracer.tail(n)
    }

    /// The most recent `n` trace events matching `filter` (by queue,
    /// message id, or causal tree), oldest first.
    pub fn trace_tail_filtered(&self, n: usize, filter: &TraceFilter) -> Vec<TraceEvent> {
        self.obs.tracer.tail_filtered(n, filter)
    }

    /// Full causal chain of one message: its own lineage record, all
    /// ancestors up to the root, and all descendants breadth-first. Read
    /// from this server's store, which reads each edge from its message's
    /// enqueue, so it answers for exactly the messages the store retains,
    /// before and after a restart alike. On one shard of a
    /// [`crate::ShardedServer`] the chain ends where it leaves this
    /// shard's store; [`crate::ShardedServer::lineage`] follows it across.
    /// Costs one pass over the retained messages.
    pub fn lineage(&self, msg: MsgId) -> Lineage {
        lineage::walk(&self.app, &[&*self.store], msg)
    }

    /// Per-rule wall-time attribution: evaluation-time quantiles, firing
    /// counts, and messages produced, one entry per declared rule, sorted
    /// by total evaluation time descending.
    pub fn rule_profiles(&self) -> Vec<RuleProfile> {
        let mut out: Vec<RuleProfile> = self
            .metrics
            .per_rule
            .iter()
            .map(|(name, rm)| RuleProfile {
                rule: name.clone(),
                fires: rm.fires.get(),
                messages_produced: rm.produced.get(),
                eval_ns_p50: rm.time_ns.p50(),
                eval_ns_p99: rm.time_ns.p99(),
                eval_ns_mean: rm.time_ns.mean_ns(),
                eval_ns_total: rm.time_ns.sum_ns(),
            })
            .collect();
        out.sort_by(|a, b| b.eval_ns_total.cmp(&a.eval_ns_total).then(a.rule.cmp(&b.rule)));
        out
    }

    // ---- message ingestion ----------------------------------------------------

    /// Enqueue an external message (as if received out-of-band). Validates
    /// against the queue schema. Returning the id is the acknowledgement:
    /// under [`SyncPolicy::Always`] the message is on disk.
    pub fn enqueue_external(&self, queue: &str, xml: &str) -> Result<MsgId> {
        self.enqueue_external_with_props(queue, xml, &[])
    }

    /// Enqueue with explicit property values.
    pub fn enqueue_external_with_props(
        &self,
        queue: &str,
        xml: &str,
        explicit: &[(String, Atomic)],
    ) -> Result<MsgId> {
        self.enqueue_with(queue, xml, explicit, None, Vec::new(), Ingress::Acked, None)?
            .ok_or_else(|| Self::remote_home_error(queue))
    }

    fn remote_home_error(queue: &str) -> EngineError {
        EngineError::Config(format!(
            "queue `{queue}` is homed on another shard for this message's \
             slicing key; enqueue through the ShardedServer"
        ))
    }

    /// Shared non-rule enqueue path (external API, timer echo, error
    /// routing): parse, then [`Self::enqueue_doc`].
    #[allow(clippy::too_many_arguments)]
    fn enqueue_with(
        &self,
        queue: &str,
        xml: &str,
        explicit: &[(String, Atomic)],
        trigger_props: Option<&[(Name, PropValue)]>,
        system_props: Vec<(Name, PropValue)>,
        ingress: Ingress,
        processed: Option<MsgId>,
    ) -> Result<Option<MsgId>> {
        let doc = parse_xml(xml).map_err(|e| EngineError::Xml(e.to_string()))?;
        self.enqueue_doc(queue, xml, doc, explicit, trigger_props, system_props, ingress, processed)
    }

    /// [`Self::enqueue_with`] for a payload the caller already parsed.
    /// `processed` names a message the enqueue's transaction marks
    /// processed: a failed message and its error commit together.
    ///
    /// Returns `Ok(None)` when the target queue is homed on another shard
    /// of a [`crate::shard::ShardedServer`] and the ingress is
    /// [`Ingress::Internal`]: the fully prepared message (payload +
    /// computed properties) is handed to that shard's mailbox and
    /// committed there, as an effect of the transaction that marks
    /// `processed`, if any. For [`Ingress::Acked`] a remote-homed target
    /// is an error.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_doc(
        &self,
        queue: &str,
        xml: &str,
        doc: Arc<Document>,
        explicit: &[(String, Atomic)],
        trigger_props: Option<&[(Name, PropValue)]>,
        mut system_props: Vec<(Name, PropValue)>,
        ingress: Ingress,
        processed: Option<MsgId>,
    ) -> Result<Option<MsgId>> {
        let cq = self
            .app
            .queues
            .get(queue)
            .ok_or_else(|| EngineError::Config(format!("unknown queue `{queue}`")))?;
        if let Some(schema) = &cq.schema {
            let violations = schema.validate(&doc.root());
            if !violations.is_empty() {
                return Err(EngineError::Xml(format!(
                    "schema violation on `{queue}`: {}",
                    violations[0]
                )));
            }
        }
        let now = self.clock.now();
        if !system_props.iter().any(|(n, _)| &**n == system::CREATED_AT) {
            system_props.push((system::name(system::CREATED_AT), PropValue::DateTime(now)));
        }
        let props = compute_properties(
            &self.app,
            queue,
            &doc.root(),
            explicit,
            trigger_props,
            system_props,
            now,
        )
        .map_err(|e| EngineError::Compile(e.to_string()))?;

        if let Some(dest) = self.shard.remote_destination(queue, &props) {
            if ingress == Ingress::Acked {
                return Err(Self::remote_home_error(queue));
            }
            // The forward is an effect of the commit that marks the failed
            // message processed. Whatever else caused it (a fired echo)
            // was committed before now: the end of the log covers it.
            let after = match processed {
                Some(msg) => self.mark_processed_standalone(msg)?,
                None => self.pipelined.then(|| self.store.log_end()),
            };
            self.emit(
                after,
                Effect::Forward(Forwarded {
                    dest,
                    queue: Arc::clone(&cq.name),
                    xml: xml.into(),
                    doc,
                    props,
                    enqueued_at: now,
                }),
            )?;
            return Ok(None);
        }
        self.enqueue_prepared(queue, xml.into(), Some(doc), props, now, ingress, processed)
            .map(Some)
    }

    /// Commit a message whose payload and properties are already fully
    /// prepared (properties computed, schema validated) into the local
    /// store, then run every post-commit effect. This is the landing half
    /// of [`Self::enqueue_doc`] and of a cross-shard forward — properties
    /// are deterministic in the trigger and payload, so the destination
    /// shard commits exactly what local execution would have. The
    /// transaction also marks `processed`, if given, processed.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_prepared(
        &self,
        queue: &str,
        payload: PayloadBytes,
        doc: Option<Arc<Document>>,
        props: Props,
        enqueued_at: i64,
        ingress: Ingress,
        processed: Option<MsgId>,
    ) -> Result<MsgId> {
        let cq = self
            .app
            .queues
            .get(queue)
            .ok_or_else(|| EngineError::Config(format!("unknown queue `{queue}`")))?;

        // Causal provenance rides on the system properties: a gateway hop,
        // timer echo, error or cross-shard forward names its parent (and
        // causal root) there, and the store reads the lineage edge from
        // the enqueue itself.
        let parent = lineage_prop(&props, system::PARENT_MSG);
        let root = lineage_prop(&props, system::ROOT_MSG).or(parent);

        let txn = self.store.begin();
        let result = (|| -> Result<(MsgId, Option<DurableTarget>)> {
            let id = self
                .store
                .enqueue(txn, queue, payload, Arc::clone(&props), enqueued_at)?;
            self.add_slice_memberships(txn, id, &props)?;
            if let Some(msg) = processed {
                self.store.mark_processed(txn, msg)?;
            }
            let after = match ingress {
                Ingress::Acked => {
                    self.store.commit(txn)?;
                    None
                }
                Ingress::Internal => self.commit_txn(txn)?,
            };
            Ok((id, after))
        })();
        match result {
            Ok((id, after)) => {
                self.metrics.inc_enqueued(&self.obs, queue);
                self.obs.tracer.event_ctx(
                    "msg.enqueue",
                    Some(id.0),
                    queue,
                    lineage::hop(cq.decl.kind, &props),
                    TraceCtx::new(Some(root.unwrap_or(id.0)), parent),
                );
                if let Some(doc) = doc {
                    let aggregates = self.app.contribution_ids(queue, &props);
                    self.keep_contributions(id, &aggregates, &doc);
                    self.doc_cache.insert(id, doc);
                }
                self.sched_push(id, &cq.name, cq.decl.priority);
                self.metrics
                    .scheduler_depth
                    .set(self.scheduler.len() as i64);
                self.post_commit_queue_effects(queue, id, after)?;
                match ingress {
                    // The acknowledgement's sync was a barrier: it covered
                    // every deferred commit before it. Release what waited
                    // on those.
                    Ingress::Acked if self.pipelined => {
                        self.release(BarrierReason::Ack, self.store.durable(), 0)?;
                    }
                    Ingress::Acked => {}
                    Ingress::Internal => self.bound_backlog(processed.is_none())?,
                }
                Ok(id)
            }
            Err(e) => {
                self.store.abort(txn);
                Err(e)
            }
        }
    }

    /// Land a message forwarded from another shard: commit it into the
    /// local store with the properties computed on the trigger's shard.
    /// Borrows the forward so a failed ingest can be retried.
    pub(crate) fn ingest_forwarded(&self, f: &crate::shard::Forwarded) -> Result<MsgId> {
        self.enqueue_prepared(
            &f.queue,
            f.xml.clone(),
            Some(Arc::clone(&f.doc)),
            Arc::clone(&f.props),
            f.enqueued_at,
            Ingress::Internal,
            None,
        )
    }

    // ---- the commit pipeline ----------------------------------------------------

    /// Commit an engine-side transaction. Pipelined, the worker does not
    /// wait for its own fsync: the commit is deferred and `Some(target)`
    /// says what anything leaving the process must wait for. Otherwise
    /// (`Batch`) the store's own commit runs — which does not wait either
    /// — and `None` says effects go out at once, as they always have.
    fn commit_txn(&self, txn: TxnId) -> std::result::Result<Option<DurableTarget>, StoreError> {
        if self.pipelined {
            self.store.commit_deferred(txn).map(Some)
        } else {
            self.store.commit(txn).map(|()| None)
        }
    }

    /// Let `effect` out of the process: at once when nothing has to be
    /// waited for (`after` is `None`), else once the durable watermark
    /// covers `after`.
    fn emit(&self, after: Option<DurableTarget>, effect: Effect) -> Result<()> {
        if let Effect::Forward(_) = &effect {
            self.shard.router.announce();
        }
        match after {
            Some(after) => {
                self.outbox.hold(after, effect);
                Ok(())
            }
            None => self.perform(effect),
        }
    }

    fn perform(&self, effect: Effect) -> Result<()> {
        match effect {
            Effect::Forward(f) => {
                self.shard.router.publish(f);
                Ok(())
            }
            Effect::Send(msg) => match self.gateways.send(&msg.queue, &msg) {
                Ok(()) => Ok(()),
                Err(e) => {
                    let creating_rule = match msg.prop(system::CREATING_RULE) {
                        Some(PropValue::Str(r)) => Some(r.as_str()),
                        _ => None,
                    };
                    self.route_transport_error(&msg.queue, &msg.payload, creating_rule, &e)
                }
            },
        }
    }

    /// The durability barrier: one WAL sync that covers every commit so
    /// far, then release of every held forward and gateway send it covers.
    /// Returns whether anything was released (released effects can mean
    /// new work: a delivery to pump, a transport error routed to a queue).
    ///
    /// Runs by itself wherever a worker finds nothing to do (before it
    /// parks, and before [`Self::step`], [`Self::pump_environment`],
    /// [`Self::run_until_idle`] and [`Self::process_all_parallel`] report
    /// an idle server), whenever `BARRIER_BACKLOG` (32) held effects or
    /// ingests, or 256 unsynced commits, call for one, and before GC,
    /// checkpoint and drop. Public for drivers that interpose between
    /// [`Self::step`]s and want one sooner. A no-op under
    /// [`SyncPolicy::Batch`].
    pub fn durability_barrier(&self) -> Result<bool> {
        self.barrier(BarrierReason::Idle)
    }

    fn barrier(&self, reason: BarrierReason) -> Result<bool> {
        self.unsynced_ingests.store(0, Ordering::Relaxed);
        if !self.pipelined || (self.store.unsynced_commits() == 0 && self.outbox.is_empty()) {
            return Ok(false);
        }
        let (durable, batch) = self.store.barrier()?;
        self.release(reason, durable, batch)
    }

    /// Count a barrier and perform every held effect `durable` covers;
    /// `batch` is how many commits the covering sync made durable.
    fn release(&self, reason: BarrierReason, durable: DurableTarget, batch: u64) -> Result<bool> {
        self.metrics.barriers[reason as usize].inc();
        let due = self.outbox.release(durable);
        let released = !due.is_empty();
        // Perform every released effect even if one fails to route its
        // transport error: they are out of the outbox and nothing else
        // will.
        let mut first_error = None;
        for effect in due {
            if self.obs.tracer.is_enabled() {
                let (kind, queue, producer) = effect.describe();
                self.obs.tracer.event(
                    "msg.released",
                    producer,
                    queue,
                    &format!("{kind} reason={} batch={batch}", reason.label()),
                );
            }
            if let Err(e) = self.perform(effect) {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(released),
        }
    }

    /// After a deferred commit (`ingest`: one whose input lives only in
    /// memory): run a barrier once [`BARRIER_BACKLOG`] effects are held or
    /// ingests unsynced, or [`BARRIER_AGE`] commits are unsynced while any
    /// is.
    fn bound_backlog(&self, ingest: bool) -> Result<()> {
        if !self.pipelined {
            return Ok(());
        }
        let held = self.outbox.len();
        let ingests = self.unsynced_ingests.fetch_add(ingest as usize, Ordering::Relaxed)
            + ingest as usize;
        if held.max(ingests) >= BARRIER_BACKLOG
            || (held + ingests > 0 && self.store.unsynced_commits() >= BARRIER_AGE)
        {
            self.barrier(BarrierReason::Backlog)?;
        }
        Ok(())
    }

    /// Insert into the scheduler, keeping the router's pending count
    /// (drain-termination proof, see [`crate::shard::ShardRouter`]) in
    /// step with every accepted insertion. All scheduling goes through
    /// here or [`Self::sched_requeue`].
    fn sched_push(&self, msg: MsgId, queue: &Name, priority: i32) {
        let queue = Arc::clone(queue);
        self.shard
            .router
            .note_scheduled(|| self.scheduler.push(msg, queue, priority));
    }

    /// [`Self::sched_push`] for deadlock-retry requeues.
    fn sched_requeue(&self, msg: MsgId, queue: &Name, priority: i32) {
        let queue = Arc::clone(queue);
        self.shard
            .router
            .note_scheduled(|| self.scheduler.requeue(msg, queue, priority));
    }

    /// Register slice memberships for a freshly enqueued message: for every
    /// slicing whose key property the message carries.
    fn add_slice_memberships(
        &self,
        txn: TxnId,
        msg: MsgId,
        props: &[(Name, PropValue)],
    ) -> Result<()> {
        for (pname, value) in props {
            for s in self.app.slicings_by_property.get(&**pname).into_iter().flatten() {
                self.store.slice_add(txn, Arc::clone(s), value.clone(), msg)?;
            }
        }
        Ok(())
    }

    // ---- processing loop -------------------------------------------------------

    /// Process a single scheduled message, if any. Returns whether work was
    /// done. With nothing scheduled, the durability barrier runs (see
    /// [`Self::durability_barrier`]) — releasing held effects counts as
    /// work.
    pub fn step(&self) -> Result<bool> {
        Ok(self.process_next()? || self.barrier(BarrierReason::Idle)?)
    }

    /// [`Self::step`] without the idle barrier: `Ok(false)` when nothing
    /// was scheduled, else the outcome of processing one message. The
    /// message leaves the router's pending count only once it is fully
    /// dealt with, after its products were counted.
    pub(crate) fn process_next(&self) -> Result<bool> {
        let Some((msg, queue)) = self.scheduler.pop() else {
            return Ok(false);
        };
        self.metrics
            .scheduler_depth
            .set(self.scheduler.len() as i64);
        let outcome = self.try_process(msg, &queue);
        self.shard.router.note_done();
        outcome.map(|()| true)
    }

    /// Drive everything to quiescence: process messages, pump the network,
    /// fire timers, retry reliable sends — fast-forwarding the virtual
    /// clock when idle. Returns the number of messages processed.
    pub fn run_until_idle(&self) -> Result<u64> {
        crate::shard::quiesce(std::slice::from_ref(self), &self.shard.router)
    }

    /// Deliver due envelopes, drain gateway inboxes, fire due timers, tick
    /// reliable channels. Returns whether anything happened. With
    /// [`Self::step`] and [`Self::next_event_at`] this is everything
    /// [`Self::run_until_idle`] is made of, for callers that need to
    /// interpose between steps. If nothing is schedulable afterwards the
    /// durability barrier runs, as in [`Self::step`].
    pub fn pump_environment(&self) -> Result<bool> {
        let pumped = self.pump()?;
        Ok(pumped | (self.scheduler.is_empty() && self.barrier(BarrierReason::Idle)?))
    }

    /// [`Self::pump_environment`] without the idle barrier.
    pub(crate) fn pump(&self) -> Result<bool> {
        let mut progressed = false;
        if self.net.pump() > 0 {
            progressed = true;
        }
        // Incoming gateway deliveries become messages.
        for (queue, env) in self.gateways.take_inbox() {
            progressed = true;
            self.ingest_envelope(&queue, env)?;
        }
        // Reliable retransmissions and exhausted sends.
        let failures = self.gateways.tick();
        for (queue, env, err) in failures {
            progressed = true;
            self.route_transport_error(&queue, &env.body, env.header("creatingRule"), &err)?;
        }
        // Echo-queue timers.
        let now = self.clock.now();
        for firing in self.timers.due(now) {
            progressed = true;
            self.metrics.timers_fired.inc();
            let job = firing.payload;
            self.obs
                .tracer
                .event("timer.fire", None, &job.target, "echo timeout");
            // The echoed message keeps the original's causal chain: the
            // provenance system properties ride on the parked job's props
            // and re-enter as engine-owned system properties here.
            let sys: Vec<(Name, PropValue)> = job
                .props
                .iter()
                .filter(|(n, _)| [system::PARENT_MSG, system::ROOT_MSG].contains(&&**n))
                .cloned()
                .collect();
            self.enqueue_with(
                &job.target,
                &job.payload,
                &[],
                Some(&job.props),
                sys,
                Ingress::Internal,
                None,
            )?;
        }
        Ok(progressed)
    }

    fn ingest_envelope(&self, queue: &str, env: Envelope) -> Result<()> {
        let mut system_props = vec![
            (system::name(system::SENDER), PropValue::Str(env.from.clone())),
            (
                system::name(system::CREATED_AT),
                PropValue::DateTime(self.clock.now()),
            ),
        ];
        if let Some(conn) = env.conn {
            system_props.push((
                system::name(system::CONNECTION),
                PropValue::Int(conn.0 as i64),
            ));
        }
        // Provenance survives the gateway hop: the sending node stamps the
        // envelope with its message's parent/root ids, and they re-enter
        // here as system properties (so the lineage edge is logged with
        // the ingest on this side too).
        if let Some(p) = env
            .header(system::PARENT_MSG)
            .and_then(|s| s.parse::<i64>().ok())
        {
            system_props.push((system::name(system::PARENT_MSG), PropValue::Int(p)));
            let root = env
                .header(system::ROOT_MSG)
                .and_then(|s| s.parse::<i64>().ok())
                .unwrap_or(p);
            system_props.push((system::name(system::ROOT_MSG), PropValue::Int(root)));
        }
        // The one parse of an inbound message: the document it yields is
        // validated, feeds property computation, and fills the document
        // cache when the enqueue commits.
        let doc = match parse_xml(&env.body) {
            Ok(doc) => doc,
            Err(e) => {
                // Not well-formed: a message-related error (paper Sec. 3.6).
                return self.route_error(
                    kind::MALFORMED,
                    &e.to_string(),
                    None,
                    queue,
                    None,
                    Some(&env.body),
                );
            }
        };
        self.doc_cache.note_parse();
        match self.enqueue_doc(
            queue,
            &env.body,
            doc,
            &[],
            None,
            system_props,
            Ingress::Internal,
            None,
        ) {
            Ok(_) => Ok(()),
            Err(EngineError::Xml(detail)) => {
                // Schema violations on a gateway: message-related error.
                self.route_error(kind::SCHEMA, &detail, None, queue, None, Some(&env.body))
            }
            Err(other) => Err(other),
        }
    }

    // ---- the heart: processing one message ---------------------------------------

    fn try_process(&self, msg_id: MsgId, queue: &Name) -> Result<()> {
        // Metadata and document travel separately: a doc-cache hit means
        // the payload is never fetched (or cloned) from the store at all,
        // and the metadata is a refcount on the queue name and one on the
        // properties.
        let meta = self.store.message_meta(msg_id)?;
        let cached = self.doc_for(msg_id)?;
        let cq = self
            .app
            .queues
            .get(&**queue)
            .ok_or_else(|| EngineError::Config(format!("unknown queue `{queue}`")))?;

        // The slices the message belongs to: one per slicing keyed by a
        // property it carries.
        let mut slices: Vec<MsgSlice> = Vec::new();
        for (key, (pname, _)) in meta.props.iter().enumerate() {
            for sname in self.app.slicings_by_property.get(&**pname).into_iter().flatten() {
                let slicing = &self.app.slicings[&**sname];
                slices.push(MsgSlice { slicing, key });
            }
        }

        let txn = self.store.begin();
        let eval_started = Instant::now();
        let mut seams = Seams::default();
        let result = self.evaluate_and_execute(txn, &meta, &cached, cq, &slices, &mut seams);
        self.metrics.record_rule_eval_span(eval_started, seams);
        match result {
            Ok((new_messages, forwards)) => {
                self.store.mark_processed(txn, msg_id)?;
                let commit_started = Instant::now();
                let after = self.commit_txn(txn)?;
                self.metrics.txn_commit_ns.record(commit_started.elapsed());
                self.metrics.inc_processed(&self.obs, queue);
                let ctx = TraceCtx::new(
                    Some(match meta.prop(system::ROOT_MSG) {
                        Some(PropValue::Int(r)) => *r as u64,
                        _ => msg_id.0,
                    }),
                    match meta.prop(system::PARENT_MSG) {
                        Some(PropValue::Int(p)) => Some(*p as u64),
                        _ => None,
                    },
                );
                self.obs
                    .tracer
                    .event_ctx("msg.processed", Some(msg_id.0), queue, "", ctx);
                // Post-commit: cache the new documents (deferring this past
                // commit keeps aborted messages out of the cache), schedule
                // new work at once, gateway/echo side effects. What leaves
                // this store waits for `after` to be durable.
                for nm in new_messages {
                    self.keep_contributions(nm.id, &nm.aggregates, &nm.doc);
                    self.doc_cache.insert(nm.id, nm.doc);
                    let prio = self
                        .app
                        .queues
                        .get(&*nm.queue)
                        .map(|q| q.decl.priority)
                        .unwrap_or(0);
                    self.sched_push(nm.id, &nm.queue, prio);
                    self.post_commit_queue_effects(&nm.queue, nm.id, after)?;
                }
                // Cross-shard enqueues publish only now, after the trigger's
                // transaction committed — a deadlock retry re-runs the rules
                // and would otherwise forward twice. Per-rule production is
                // attributed here, on the shard where the rule fired.
                for f in forwards {
                    if let Some(PropValue::Str(rule)) = prop(&f.props, system::CREATING_RULE) {
                        self.metrics.record_rule_produced(rule);
                    }
                    self.emit(after, Effect::Forward(f))?;
                }
                self.bound_backlog(false)
            }
            Err(ProcessingError::Store(StoreError::Deadlock | StoreError::LockTimeout)) => {
                // The one retry path: put the message back at the front of
                // its priority class. It runs again as a fresh transaction
                // once a worker pops it.
                self.store.abort(txn);
                self.metrics.requeues.inc();
                self.metrics.deadlock_retries.inc();
                self.obs
                    .tracer
                    .event("msg.retry", Some(msg_id.0), queue, "deadlock victim");
                self.sched_requeue(msg_id, queue, cq.decl.priority);
                Ok(())
            }
            Err(ProcessingError::Store(e)) => {
                self.store.abort(txn);
                Err(EngineError::Store(e))
            }
            Err(ProcessingError::Rule {
                rule,
                error_kind,
                detail,
            }) => {
                // Application-level failure (Sec. 3.6): the whole
                // transaction aborts — the enqueues of sibling rules go
                // with it — and one new transaction marks the message
                // processed and enqueues its error message.
                self.store.abort(txn);
                // Resolve the failing rule against the rules that actually
                // ran — this queue's, then the fired slicing rules. A global
                // name scan would pick nondeterministically among duplicate
                // rule names on other queues and divert the error.
                let rule_ref = cq
                    .rules
                    .iter()
                    .chain(slices.iter().flat_map(|s| &s.slicing.rules))
                    .find(|r| *r.name == *rule);
                let payload = self.store.payload(msg_id).ok();
                self.route_error_resolved(
                    &error_kind,
                    &detail,
                    Some(&rule),
                    rule_ref,
                    queue,
                    Some(msg_id),
                    payload.as_deref(),
                    true,
                )?;
                Ok(())
            }
        }
    }

    /// Evaluate all rules and execute the pending updates inside `txn`.
    /// Returns the new (msg, queue) pairs enqueued.
    fn evaluate_and_execute(
        &self,
        txn: TxnId,
        meta: &MessageMeta,
        doc: &Arc<Document>,
        cq: &CompiledQueue,
        slices: &[MsgSlice<'_>],
        seams: &mut Seams,
    ) -> std::result::Result<(Vec<NewMessage>, Vec<Forwarded>), ProcessingError> {
        // ---- locking (paper Sec. 4.3) -------------------------------------
        self.acquire_locks(txn, meta, cq, slices)?;
        seams.locked = Some(Instant::now());

        // ---- rule evaluation (snapshot) ------------------------------------
        // One host serves the queue's rules and every slicing rule.
        let mut updates: Vec<(&Name, Update)> = Vec::new();
        let has_rules = !cq.rules.is_empty() || slices.iter().any(|s| !s.slicing.rules.is_empty());
        if has_rules {
            let msg_root = doc.root();
            let host = self.rule_host(meta, &msg_root);
            let dctx = DynamicContext::new(Arc::clone(&host) as _);
            self.eval_queue_rules(&dctx, doc, cq, &mut updates)?;

            // Slicing rules, each in its slice: the host swaps the slice in.
            // Member documents load lazily on first `qs:slice()` touch — a
            // body whose aggregate reads are answered by the registry never
            // materializes them.
            for s in slices {
                let cs = s.slicing;
                for rule in &cs.rules {
                    self.metrics.rules_evaluated.inc();
                    host.slice.enter(Arc::clone(&cs.name), s.key);
                    let mut ev = PlanEvaluator::new(&dctx);
                    let started = Instant::now();
                    let evaluated = ev.eval_with_context(&rule.plan, msg_root.clone());
                    self.metrics.record_rule_eval(&rule.name, started.elapsed());
                    self.metrics.record_eval_counts(ev.counts);
                    evaluated.map_err(|e| ProcessingError::rule(&rule.name, e))?;
                    // Bare `do reset` in a slicing rule targets this slice.
                    for u in ev.updates {
                        let u = match u {
                            Update::Reset {
                                slicing: None,
                                key: None,
                            } => Update::Reset {
                                slicing: Some((*cs.name).into()),
                                key: Some(prop_to_atomic(s.key_in(meta))),
                            },
                            other => other,
                        };
                        updates.push((&rule.name, u));
                    }
                }
            }
        }

        // ---- action execution ------------------------------------------------
        seams.evaluated = Some(Instant::now());
        let mut new_messages = Vec::new();
        let mut forwards = Vec::new();
        for (rule_name, update) in updates {
            let failed = |error_kind: String, detail: String| ProcessingError::Rule {
                rule: rule_name.to_string(),
                error_kind,
                detail,
            };
            match update {
                Update::Enqueue {
                    queue: target,
                    message,
                    props,
                } => {
                    let outcome = self
                        .execute_enqueue(txn, meta, rule_name, &target.local, message, props)
                        .map_err(|e| match e {
                            ExecError::Store(s) => ProcessingError::Store(s),
                            ExecError::App { kind: k, detail } => failed(k, detail),
                        })?;
                    match outcome {
                        EnqueueOutcome::Local(nm) => new_messages.push(nm),
                        EnqueueOutcome::Remote(f) => forwards.push(f),
                    }
                }
                Update::Reset { slicing, key } => {
                    let Some(slicing) = slicing else {
                        return Err(failed(
                            kind::APPLICATION.into(),
                            "do reset without parameters is only valid in rules on slicings".into(),
                        ));
                    };
                    let Some(key) = key else {
                        return Err(failed(
                            kind::APPLICATION.into(),
                            "do reset needs a key".into(),
                        ));
                    };
                    let slicing: Name = match self.app.slicings.get(&slicing.local) {
                        Some(cs) => Arc::clone(&cs.name),
                        None => slicing.local.as_str().into(),
                    };
                    self.store
                        .slice_reset(txn, slicing, atomic_to_prop(key))
                        .map_err(ProcessingError::Store)?;
                }
                other => {
                    // XQUF tree updates cannot touch the append-only store.
                    return Err(failed(
                        kind::APPLICATION.into(),
                        format!(
                            "tree update {other:?} is not applicable: stored messages are immutable"
                        ),
                    ));
                }
            }
        }
        Ok((new_messages, forwards))
    }

    /// Acquire the message's locks in the global order: queue locks by
    /// rank, then slices by slicing name, then the message. The queue
    /// locks are the queue's compiled [`LockPlan`], merged with what its
    /// slicings' rules add (usually nothing, and then nothing is merged);
    /// under slice granularity the message's slice keys and its own lock
    /// follow, borrowed from its properties and moved into the lock table.
    fn acquire_locks<'a>(
        &self,
        txn: TxnId,
        meta: &MessageMeta,
        cq: &'a CompiledQueue,
        slices: &[MsgSlice<'a>],
    ) -> std::result::Result<(), ProcessingError> {
        let lock = |key, mode| {
            self.store
                .locks
                .acquire(txn, key, mode)
                .map_err(ProcessingError::Store)
        };
        let by_slice = self.store.lock_granularity() == LockGranularity::Slice;
        let plan = |p: &'a LockPlan| {
            if by_slice {
                p.reads.as_slice()
            } else {
                p.queues.as_slice()
            }
        };
        let own = plan(&cq.locks);
        let mut added = slices.iter().map(|s| plan(&s.slicing.locks)).filter(|l| !l.is_empty());
        let merged;
        let queue_locks = match added.next() {
            None => own,
            Some(first) => {
                let all = own.iter().chain(first).chain(added.flatten()).cloned().collect();
                merged = lock_order(all, &self.app.lock_ranks);
                merged.as_slice()
            }
        };
        for (q, mode) in queue_locks {
            lock(LockKey::Queue(Arc::clone(q)), *mode)?;
        }
        if by_slice {
            // A message is in one slice per slicing at most: slicing-name
            // order is the slice-key order.
            let mut after = None;
            while let Some(s) = slices
                .iter()
                .filter(|s| after.is_none_or(|rank| s.slicing.lock_rank > rank))
                .min_by_key(|s| s.slicing.lock_rank)
            {
                after = Some(s.slicing.lock_rank);
                let key = LockKey::Slice(Arc::clone(&s.slicing.name), s.key_in(meta).clone());
                lock(key, LockMode::Exclusive)?;
            }
            lock(LockKey::Message(meta.id), LockMode::Exclusive)?;
        }
        Ok(())
    }

    /// Evaluate the queue's rules in program order with one evaluator, so
    /// each shared subexpression is computed at most once for the message
    /// and its time is charged to the first rule that reads it. A rule
    /// the trigger pre-filter skips pays nothing. The first failing rule
    /// stops evaluation and names itself for error routing.
    fn eval_queue_rules<'r>(
        &self,
        dctx: &DynamicContext,
        doc: &Arc<Document>,
        cq: &'r CompiledQueue,
        updates: &mut Vec<(&'r Name, Update)>,
    ) -> std::result::Result<(), ProcessingError> {
        if cq.rules.is_empty() {
            return Ok(());
        }
        let msg_root = doc.root();
        let mut ev = PlanEvaluator::with_shared(dctx, &cq.shared);
        let mut evaluated = Ok(());
        for rule in &cq.rules {
            // Trigger pre-filter: symbol probes of the document's name
            // table (integers, no strings).
            let triggered = rule
                .trigger_syms
                .as_ref()
                .is_none_or(|syms| syms.iter().any(|&s| doc.has_element(s)));
            if !triggered {
                self.metrics.rules_skipped.inc();
                continue;
            }
            self.metrics.rules_evaluated.inc();
            let started = Instant::now();
            let value = ev.eval_with_context(&rule.plan, msg_root.clone());
            self.metrics.record_rule_eval(&rule.name, started.elapsed());
            if let Err(e) = value {
                evaluated = Err(ProcessingError::rule(&rule.name, e));
                break;
            }
            updates.extend(ev.updates.drain(..).map(|u| (&rule.name, u)));
        }
        self.metrics.record_eval_counts(ev.counts);
        evaluated
    }

    /// The one host a message's rules evaluate under: the message, its
    /// shared properties and queue name, and the server's readers.
    fn rule_host(&self, meta: &MessageMeta, msg_root: &NodeRef) -> Arc<QsHost> {
        Arc::new(QsHost {
            message: msg_root.clone(),
            properties: Arc::clone(&meta.props),
            queue_name: Arc::clone(&meta.queue),
            queue_reader: Arc::clone(&self.readers.queue),
            slice_reader: Arc::clone(&self.readers.slice),
            agg_reader: Some(Arc::clone(&self.readers.aggregate)),
            collections: Arc::clone(&self.collections),
            now_ms: self.clock.now(),
            slice: SliceSlot::default(),
        })
    }

    /// Committed-state reader closing over the shared caches — what the
    /// host closures (queue reader, slice loader, aggregate reader) own.
    fn read_handle(&self) -> ReadHandle {
        ReadHandle {
            store: Arc::clone(&self.store),
            cache: Arc::clone(&self.doc_cache),
            slice_seq: Arc::clone(&self.slice_seq),
            agg: Arc::clone(&self.agg),
        }
    }

    /// Execute a single `do enqueue` action inside `txn`.
    fn execute_enqueue(
        &self,
        txn: TxnId,
        trigger: &MessageMeta,
        rule_name: &Name,
        target: &str,
        message: Arc<Document>,
        explicit_props: Vec<(String, Atomic)>,
    ) -> std::result::Result<EnqueueOutcome, ExecError> {
        let cq = self.app.queues.get(target).ok_or_else(|| ExecError::App {
            kind: kind::APPLICATION.into(),
            detail: format!("enqueue into undeclared queue `{target}`"),
        })?;
        // Schema check (message-related error class).
        if let Some(schema) = &cq.schema {
            let violations = schema.validate(&message.root());
            if !violations.is_empty() {
                return Err(ExecError::App {
                    kind: kind::SCHEMA.into(),
                    detail: format!("target `{target}`: {}", violations[0]),
                });
            }
        }
        // WSDL interface check for outgoing gateways.
        if let Some(iface) = &cq.interface {
            if let Some(root) = message.document_element() {
                if let Err(e) = iface.validate_outgoing(&root) {
                    return Err(ExecError::App {
                        kind: e.kind_element().into(),
                        detail: e.to_string(),
                    });
                }
            }
        }
        let now = self.clock.now();
        // Causal provenance: the trigger is the parent; the root is the
        // trigger's root (or the trigger itself when it started the
        // cascade). Riding on system properties keeps the chain intact
        // across gateway hops and timer echoes.
        let root = match trigger.prop(system::ROOT_MSG) {
            Some(PropValue::Int(r)) => *r as u64,
            _ => trigger.id.0,
        };
        let system_props = vec![
            (system::name(system::CREATED_AT), PropValue::DateTime(now)),
            (
                system::name(system::CREATING_RULE),
                PropValue::Str(rule_name.to_string()),
            ),
            (
                system::name(system::PARENT_MSG),
                PropValue::Int(trigger.id.0 as i64),
            ),
            (system::name(system::ROOT_MSG), PropValue::Int(root as i64)),
        ];
        let props = compute_properties(
            &self.app,
            target,
            &message.root(),
            &explicit_props,
            Some(&trigger.props),
            system_props,
            now,
        )
        .map_err(|e: PropError| ExecError::App {
            kind: kind::PROPERTY.into(),
            detail: e.0,
        })?;
        // Cross-shard target: hand the fully prepared message (payload +
        // properties, including the provenance system props above) to the
        // owning shard instead of the local store. The caller publishes the
        // forward only after its own transaction commits, so an aborted or
        // retried trigger never double-delivers.
        if let Some(dest) = self.shard.remote_destination(target, &props) {
            return Ok(EnqueueOutcome::Remote(Forwarded {
                dest,
                queue: Arc::clone(&cq.name),
                xml: message.root().to_xml().into(),
                doc: message,
                props,
                enqueued_at: now,
            }));
        }
        let payload = message.root().to_xml();
        let id = self
            .store
            .enqueue(txn, target, payload.into(), Arc::clone(&props), now)
            .map_err(ExecError::Store)?;
        self.add_slice_memberships(txn, id, &props)
            .map_err(|e| match e {
                EngineError::Store(s) => ExecError::Store(s),
                other => ExecError::App {
                    kind: kind::APPLICATION.into(),
                    detail: other.to_string(),
                },
            })?;
        self.metrics.inc_enqueued(&self.obs, target);
        self.metrics.record_rule_produced(rule_name);
        self.obs.tracer.event_ctx(
            "msg.enqueue",
            Some(id.0),
            target,
            rule_name,
            TraceCtx::new(Some(root), Some(trigger.id.0)),
        );
        // The parsed document rides along so try_process can cache it (and
        // keep its aggregate contributions) once the transaction commits —
        // doing so here would leak state of aborted transactions.
        let aggregates = self.app.contribution_ids(target, &props);
        Ok(EnqueueOutcome::Local(NewMessage {
            id,
            queue: Arc::clone(&cq.name),
            doc: message,
            aggregates,
        }))
    }

    /// Keep a freshly committed message's contributions to `aggregates`,
    /// computed from the document its enqueue parsed. Runs before the
    /// message is scheduled, so nothing can have purged it yet.
    fn keep_contributions(&self, id: MsgId, aggregates: &[AggId], doc: &Arc<Document>) {
        if aggregates.is_empty() {
            return;
        }
        let root = doc.root();
        let contributions = aggregates
            .iter()
            .map(|&a| (a, self.app.aggregates.get(a).contribution(&root)))
            .collect();
        self.agg.put_contributions(id, contributions);
    }

    /// Post-commit side effects of a message landing in `queue`: outgoing
    /// gateway sends (once `after`, the landing commit's target, is
    /// durable) and echo-queue timer registration (local, so at once).
    fn post_commit_queue_effects(
        &self,
        queue: &str,
        msg_id: MsgId,
        after: Option<DurableTarget>,
    ) -> Result<()> {
        let Some(cq) = self.app.queues.get(queue) else {
            return Ok(());
        };
        match cq.decl.kind {
            QueueKind::OutgoingGateway => {
                // The send carries the message itself (a refcount on its
                // payload), so a release after GC still has it.
                let msg = self.store.message(msg_id)?;
                self.emit(after, Effect::Send(msg))?;
            }
            QueueKind::Echo => {
                let stored = self.store.message(msg_id)?;
                let delay_ms = match stored.prop("delay") {
                    Some(PropValue::Duration(ms)) => Some(*ms),
                    Some(PropValue::Int(ms)) => Some(*ms),
                    Some(PropValue::Str(s)) => {
                        demaq_xquery::value::parse_duration(s).or_else(|| s.parse().ok())
                    }
                    _ => None,
                };
                let target = match stored.prop("target") {
                    Some(PropValue::Str(t)) => Some(t.clone()),
                    _ => None,
                };
                match (delay_ms, target) {
                    (Some(d), Some(t)) if self.app.queues.contains_key(&t) => {
                        // The echoed message inherits the original's
                        // properties minus the timer controls.
                        let props: Vec<(Name, PropValue)> = stored
                            .props
                            .iter()
                            .filter(|(n, _)| !["delay", "target"].contains(&&**n))
                            .cloned()
                            .collect();
                        self.timers.schedule(
                            self.clock.now() + d.max(0),
                            TimerJob {
                                target: t,
                                payload: stored.payload.to_string(),
                                props,
                            },
                        );
                    }
                    (d, t) => {
                        let detail = format!(
                            "echo queue `{queue}` needs `delay` and a valid `target` property \
                             (got delay={d:?}, target={t:?})"
                        );
                        self.route_error(
                            kind::TIMER,
                            &detail,
                            None,
                            queue,
                            Some(msg_id),
                            Some(&stored.payload),
                        )?;
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    // ---- error routing -----------------------------------------------------------

    /// Transport failures route through the error queue of the *rule that
    /// created the message* (the paper's Fig. 10: network errors from the
    /// confirmation sent by `confirmOrder` land in `crmErrors`), falling
    /// back to the gateway queue's and the system error queue.
    fn route_transport_error(
        &self,
        gateway_queue: &str,
        payload: &str,
        creating_rule: Option<&str>,
        err: &demaq_net::TransportError,
    ) -> Result<()> {
        self.route_error(
            err.kind_element(),
            &err.to_string(),
            creating_rule,
            gateway_queue,
            None,
            Some(payload),
        )
    }

    /// Build an `<error>` message and enqueue it into the resolved error
    /// queue (rule > queue > system levels, Sec. 3.6). Errors without a
    /// reachable error queue are counted and dropped.
    fn route_error(
        &self,
        error_kind: &str,
        detail: &str,
        rule: Option<&str>,
        queue: &str,
        msg_id: Option<MsgId>,
        payload: Option<&str>,
    ) -> Result<()> {
        // Fallback resolution by global name scan, for paths where only the
        // creating rule's *name* survives (transport failures, timers).
        let rule_ref = rule.and_then(|r| {
            self.app
                .queues
                .values()
                .flat_map(|cq| cq.rules.iter())
                .chain(self.app.slicings.values().flat_map(|s| s.rules.iter()))
                .find(|cr| *cr.name == *r)
        });
        self.route_error_resolved(error_kind, detail, rule, rule_ref, queue, msg_id, payload, false)
    }

    /// Like [`Server::route_error`] but with the failing rule already
    /// resolved by the caller — `try_process` resolves against the rules
    /// that actually ran for the message, so a duplicate rule name on
    /// another queue cannot divert the error from its declared
    /// `errorqueue` (rule > queue > system precedence, Sec. 3.6). With
    /// `mark`, the failed message `msg_id` is marked processed in the
    /// error's own transaction.
    #[allow(clippy::too_many_arguments)]
    fn route_error_resolved(
        &self,
        error_kind: &str,
        detail: &str,
        rule: Option<&str>,
        rule_ref: Option<&CompiledRule>,
        queue: &str,
        msg_id: Option<MsgId>,
        payload: Option<&str>,
        mark: bool,
    ) -> Result<()> {
        let processed = msg_id.filter(|_| mark);
        // Queues this error's routing has already visited (threaded
        // through the `errorPath` system property of error messages).
        // Routing back into one of them would ping-pong forever — the
        // runtime backstop for what the analyzer reports as DQ007.
        let failed_meta = msg_id.and_then(|id| self.store.message_meta(id).ok());
        let mut path: Vec<String> = failed_meta
            .as_ref()
            .and_then(|meta| match meta.prop(system::ERROR_PATH) {
                Some(PropValue::Str(s)) => {
                    Some(s.split(',').map(str::to_string).collect())
                }
                _ => None,
            })
            .unwrap_or_default();
        if !path.iter().any(|q| q == queue) {
            path.push(queue.to_string());
        }

        let resolved = self.app.error_queue_for(rule_ref, queue).map(str::to_string);
        let eq = match resolved {
            Some(eq) if path.contains(&eq) => {
                // Cycle: drop to the system error queue unless that is
                // itself on the path already.
                self.metrics.error_route_cycles.inc();
                self.obs
                    .tracer
                    .event("error.route_cycle", msg_id.map(|m| m.0), &eq, detail);
                self.app
                    .spec
                    .system_error_queue
                    .clone()
                    .filter(|sys| !path.iter().any(|p| p == sys))
            }
            other => other,
        };
        let Some(eq) = eq else {
            self.metrics.errors_routed.inc();
            self.obs
                .tracer
                .event("error.drop", msg_id.map(|m| m.0), queue, detail);
            if let Some(msg) = processed {
                self.mark_processed_standalone(msg)?;
            }
            return Ok(());
        };
        let doc = error_message(error_kind, detail, rule, queue, msg_id, payload);
        let xml = doc.root().to_xml();
        self.metrics.errors_routed.inc();
        self.obs
            .tracer
            .event("error.route", msg_id.map(|m| m.0), &eq, detail);
        // The error enqueue's transaction also marks the failed message
        // processed, if asked to; failures here are fatal (the paper's
        // "masking higher level failures" resort would be a persistent
        // error queue, which this is). When the failing message is known,
        // the error message joins its causal tree, and the failing rule is
        // its creating rule.
        let mut sys = vec![(system::name(system::ERROR_PATH), PropValue::Str(path.join(",")))];
        if let Some(rule) = rule {
            sys.push((system::name(system::CREATING_RULE), PropValue::Str(rule.into())));
        }
        if let Some(id) = msg_id {
            sys.push((system::name(system::PARENT_MSG), PropValue::Int(id.0 as i64)));
            let root = failed_meta
                .as_ref()
                .and_then(|m| match m.prop(system::ROOT_MSG) {
                    Some(PropValue::Int(r)) => Some(*r),
                    _ => None,
                })
                .unwrap_or(id.0 as i64);
            sys.push((system::name(system::ROOT_MSG), PropValue::Int(root)));
        }
        self.enqueue_with(&eq, &xml, &[], None, sys, Ingress::Internal, processed)?;
        Ok(())
    }

    /// Mark `msg` processed in a transaction of its own; returns what an
    /// effect of it must wait for (see [`Self::commit_txn`]).
    fn mark_processed_standalone(&self, msg: MsgId) -> Result<Option<DurableTarget>> {
        let txn = self.store.begin();
        match self
            .store
            .mark_processed(txn, msg)
            .and_then(|_| self.commit_txn(txn))
        {
            Ok(after) => Ok(after),
            Err(e) => {
                self.store.abort(txn);
                Err(e.into())
            }
        }
    }

    // ---- parallel processing (benchmark E3) ----------------------------------------

    /// Process everything schedulable using `threads` workers, until
    /// nothing is pending — including messages enqueued while the drain
    /// runs. Network/timer pumping is not performed inside; call
    /// [`Server::run_until_idle`] afterwards for gateway scenarios. On one
    /// shard of a [`crate::shard::ShardedServer`] it returns only once the
    /// whole fleet has drained, which one shard's workers cannot do alone:
    /// drain a fleet through its `ShardedServer`.
    pub fn process_all_parallel(&self, threads: usize) -> Result<u64> {
        crate::shard::drain(std::slice::from_ref(self), &self.shard.router, threads)
    }

    // ---- inspection & maintenance -----------------------------------------------------

    /// Payload strings of all retained messages of a queue (tests/examples).
    pub fn queue_bodies(&self, queue: &str) -> Result<Vec<String>> {
        Ok(self
            .store
            .queue_messages(queue)?
            .into_iter()
            .map(|m| m.payload.to_string())
            .collect())
    }

    /// All retained messages of a queue.
    pub fn queue_messages(&self, queue: &str) -> Result<Vec<StoredMessage>> {
        Ok(self.store.queue_messages(queue)?)
    }

    /// Run the retention GC (paper Sec. 2.3.3) — also invoked by
    /// [`Server::maintenance`]. A durability barrier runs first, so
    /// nothing is purged (or, in `maintenance`, checkpointed) that a held
    /// effect still waits on. When the liveness analysis proved some
    /// slicings narrowable, a narrowing sweep runs first: it folds
    /// processed members into their slices' base cells and releases their
    /// membership, so the collection pass right after can purge them.
    pub fn gc(&self) -> Result<usize> {
        self.barrier(BarrierReason::Maintenance)?;
        self.narrow_retention();
        let purged = self.store.gc_collect()?;
        self.metrics.gc_purged.add(purged.len() as u64);
        if !purged.is_empty() {
            // Drop the purged documents and the member sequences pinning
            // them. A purged member can only sit in a cell whose token a
            // reset or release already moved, so dropping every cell the
            // store no longer resumes releases them all.
            self.doc_cache.remove_many(&purged);
            let mut ids = Vec::new();
            self.slice_seq.retain_slices(|s, k, token, len| {
                ids.clear();
                self.store.slice_read(s, k, Some((token, len)), &mut ids).resumed
            });
            self.agg.forget(&purged);
        }
        Ok(purged.len())
    }

    /// The retention-narrowing sweep (ISSUE 10). Per narrowable slicing
    /// and key: read one consistent `(members, token, base)` view, pick
    /// the processed members the proven read shape no longer needs, fold
    /// them into the base cells (aggregate-only mode), and release them
    /// under a `(token, len)` CAS — a concurrent arrival or reset between
    /// read and release aborts that slice's release harmlessly; the next
    /// sweep retries. Releases are memory-only (Sec. 4.1: purge decisions are
    /// re-derived after a crash, never logged); checkpoints carry the
    /// base, so released history survives restarts once a cut captured
    /// it. Any fold, decode, or encode error skips the slice — it stays
    /// fully retained, which is always safe.
    fn narrow_retention(&self) -> usize {
        let mut released = 0;
        for (slicing, mode) in &self.narrow {
            for key in self.store.slice_keys(slicing) {
                released += self.narrow_slice(slicing, &key, mode).unwrap_or(0);
            }
        }
        if released > 0 {
            self.metrics.retention_released.add(released as u64);
        }
        released
    }

    /// Narrow one slice; `None` means an error made this slice skip the
    /// sweep (nothing released, nothing changed).
    fn narrow_slice(&self, slicing: &str, key: &PropValue, mode: &NarrowMode) -> Option<usize> {
        let (members, token, base) = self.store.slice_narrow_view(slicing, key);
        if token == 0 {
            return Some(0);
        }
        let victims: Vec<MsgId> = match mode {
            NarrowMode::Aggregate(_) => {
                members.iter().filter(|(_, p)| *p).map(|(m, _)| *m).collect()
            }
            NarrowMode::Suffix(k) => {
                // The newest `k` members stay regardless of processed
                // state — they are the proven read horizon.
                let cut = members.len().saturating_sub(*k);
                members[..cut].iter().filter(|(_, p)| *p).map(|(m, _)| *m).collect()
            }
        };
        if victims.is_empty() {
            return Some(0);
        }
        let cells: Vec<(String, Vec<u8>)> = match mode {
            // No aggregate reads exist over a suffix shape; carry the base
            // unchanged (empty unless a past mode change left cells).
            NarrowMode::Suffix(_) => base,
            NarrowMode::Aggregate(aggregates) => {
                let handle = self.read_handle();
                let mut cells = Vec::with_capacity(aggregates.len());
                for &id in aggregates {
                    let spec = self.app.aggregates.get(id);
                    let sig = spec.stable_sig();
                    let mut acc = match base.iter().find(|(s, _)| *s == sig) {
                        Some((_, bytes)) => AggAcc::decode(bytes)?,
                        None => AggAcc::new(spec.op),
                    };
                    // Fold before purge: every victim is still readable.
                    for &m in &victims {
                        handle.absorb_member(id, spec, m, &mut acc).ok()?;
                    }
                    cells.push((sig, acc.encode()?));
                }
                cells
            }
        };
        let expected = (token, members.len());
        if self.store.retention_release(slicing, key, expected, &victims, cells) {
            Some(victims.len())
        } else {
            Some(0)
        }
    }

    /// Background maintenance: GC + checkpoint ("physical cleanup is
    /// decoupled from message processing … for example in times of low
    /// system load", Sec. 2.3.3).
    pub fn maintenance(&self) -> Result<usize> {
        let purged = self.gc()?;
        self.store.checkpoint()?;
        Ok(purged)
    }

    /// Advance the virtual clock manually (tests).
    pub fn advance_time(&self, ms: i64) {
        self.clock.advance(ms);
    }

    /// Parsed document of a message, through the sharded cache. A hit
    /// never touches the store; a miss reads only the payload (no props
    /// clone) and fills the cache.
    fn doc_for(&self, id: MsgId) -> Result<Arc<Document>> {
        if let Some(hit) = self.doc_cache.get(id) {
            return Ok(hit);
        }
        let payload = self.store.payload(id)?;
        let doc = parse_xml(&payload).map_err(|e| EngineError::Xml(e.to_string()))?;
        self.doc_cache.note_parse();
        self.doc_cache.insert(id, Arc::clone(&doc));
        Ok(doc)
    }

    // ---- shard-runtime hooks (crate-internal) ---------------------------------

    /// Earliest pending environment event (virtual-clock fast-forward
    /// target).
    pub fn next_event_at(&self) -> Option<i64> {
        [
            self.timers.next_due(),
            self.net.next_due(),
            self.gateways.next_retry_at(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    pub(crate) fn sched(&self) -> &Scheduler {
        &self.scheduler
    }

    /// This server's entry (mailbox index) in its routing directory.
    pub(crate) fn shard_index(&self) -> usize {
        self.shard.shard
    }
}

impl Drop for Server {
    /// A clean shutdown runs the barrier one last time — before the store
    /// closes — so no deferred commit is left to the page cache and no
    /// held effect is dropped. Errors have nobody left to go to.
    fn drop(&mut self) {
        let _ = self.barrier(BarrierReason::Maintenance);
    }
}

/// A message created by `do enqueue` inside a processing transaction. Its
/// parsed document is carried to the post-commit hook, which inserts it
/// into the document cache (and computes its contributions to
/// `aggregates`) only once the transaction committed.
struct NewMessage {
    id: MsgId,
    queue: Name,
    doc: Arc<Document>,
    aggregates: Vec<AggId>,
}

/// Where a rule-produced enqueue landed: the local store (the common,
/// fast path) or another shard's mailbox (published after commit).
enum EnqueueOutcome {
    Local(NewMessage),
    Remote(Forwarded),
}

/// One slice a message being processed belongs to: its slicing and the
/// position of the slice key in the message's properties.
struct MsgSlice<'a> {
    slicing: &'a CompiledSlicing,
    key: usize,
}

impl MsgSlice<'_> {
    /// The slice key, borrowed from the message's properties.
    fn key_in<'m>(&self, meta: &'m MessageMeta) -> &'m PropValue {
        &meta.props[self.key].1
    }
}

/// The rule host's readers over committed state. They capture only
/// shared handles, so one set serves every message of a server.
struct Readers {
    queue: QueueReader,
    slice: SliceReader,
    aggregate: AggregateReader,
}

impl Readers {
    fn new(handle: ReadHandle) -> Readers {
        let (queues, slices) = (handle.clone(), handle.clone());
        Readers {
            queue: Arc::new(move |qname: &str| queues.queue_docs(qname)),
            slice: Arc::new(move |slicing: &str, key: &PropValue| {
                slices.slice_member_docs(slicing, key)
            }),
            aggregate: Arc::new(move |id, spec, slice_ctx| {
                handle.aggregate_read(id, spec, slice_ctx)
            }),
        }
    }
}

/// Committed-state reader: owns what the host closures need without
/// borrowing the server. Payloads resolve through the shared document
/// cache, member sequences and recognized aggregate reads through cells
/// folded over slice memberships — so `qs:queue()` over a stable queue
/// parses each message at most once, and an aggregate hit touches no
/// member document at all.
#[derive(Clone)]
struct ReadHandle {
    store: Arc<MessageStore>,
    cache: Arc<DocCache>,
    slice_seq: Arc<CellMap<Sequence>>,
    agg: Arc<AggRegistry>,
}

impl ReadHandle {
    fn queue_docs(&self, qname: &str) -> std::result::Result<Sequence, XqError> {
        let ids = self
            .store
            .queue_message_ids(qname)
            .map_err(|e| XqError::dynamic(format!("qs:queue(\"{qname}\"): {e}")))?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            match self.doc_root(id)? {
                Some(root) => out.push(Item::Node(root)),
                None => continue,
            }
        }
        Ok(out.into())
    }

    /// Root of one stored message through the document cache. `Ok(None)`
    /// means the message was GC'd between the id scan and this read: it
    /// drops out, equivalent to having taken the snapshot later.
    fn doc_root(&self, id: MsgId) -> std::result::Result<Option<NodeRef>, XqError> {
        if let Some(hit) = self.cache.get(id) {
            return Ok(Some(hit.root()));
        }
        let payload = match self.store.payload(id) {
            Ok(p) => p,
            Err(StoreError::NotFound(_)) => return Ok(None),
            Err(e) => return Err(XqError::dynamic(format!("stored message {id}: {e}"))),
        };
        let doc = parse_xml(&payload)
            .map_err(|e| XqError::dynamic(format!("stored message {id}: {e}")))?;
        self.cache.note_parse();
        self.cache.insert(id, Arc::clone(&doc));
        Ok(Some(doc.root()))
    }

    /// Parsed document roots of a slice's current members, through the
    /// slice's member-sequence cell. Like [`Self::aggregate_read`], one
    /// store read hands out the membership past the cell's `(token, len)`:
    /// nothing (reuse the cell outright), the appended members (parse and
    /// append only those — the N-arrivals join goes from O(N²) to O(N)
    /// parse work), or every member for a rebuild.
    fn slice_member_docs(
        &self,
        slicing: &str,
        key: &PropValue,
    ) -> std::result::Result<Sequence, XqError> {
        let scope = Scope::Slice(slicing, key);
        let cell = self.slice_seq.get(scope);
        let since = cell.as_ref().map(|f| (f.token, f.len));
        let mut ids = Vec::new();
        let read = self.store.slice_read(slicing, key, since, &mut ids);
        let (mut items, extended) = match cell {
            Some(f) if read.resumed => {
                if ids.is_empty() {
                    self.slice_seq.note_hit();
                    return Ok(f.value);
                }
                (f.value.into_vec(), true)
            }
            _ => (Vec::with_capacity(ids.len()), false),
        };
        for id in ids {
            if let Some(root) = self.doc_root(id)? {
                items.push(Item::Node(root));
            }
        }
        let value = Sequence::from(items);
        let fold = Fold {
            token: read.token,
            len: read.len,
            value: value.clone(),
        };
        self.slice_seq.put(scope, fold, extended);
        Ok(value)
    }

    /// Answer a recognized aggregate read from the cell registry;
    /// `slice_ctx` carries the firing rule's `(slicing, key)` for
    /// `qs:slice()` sources. `None` declines: the plan's embedded fallback
    /// then runs the reference rescan — which also reproduces the exact
    /// reference error for unknown queues, missing slice context, or a
    /// fold that errored (errored folds are never cached).
    ///
    /// One store read under one state lock returns the membership past the
    /// cell's `(token, len)`: nothing (a hit), the appended members (a
    /// delta), or all members plus the released base (a rebuild). Folds
    /// absorb kept contributions, so no member document is touched.
    fn aggregate_read(
        &self,
        id: AggId,
        spec: &AggregateSpec,
        slice_ctx: Option<(&str, &PropValue)>,
    ) -> Option<std::result::Result<Sequence, XqError>> {
        if !self.agg.owns(id, spec) {
            return None;
        }
        let cells = self.agg.cells(id);
        let scope = match (&spec.source, slice_ctx) {
            (AggSource::Queue(q), _) => Scope::Queue(q),
            (AggSource::Slice, Some((s, k))) => Scope::Slice(s, k),
            (AggSource::Slice, None) => return None,
        };
        // Membership-only fast path: step-free `count`/`exists` are pure
        // functions of the membership length (plus released members).
        if spec.membership_only() {
            let n = match scope {
                Scope::Queue(q) => self.store.queue_len(q).ok()?,
                Scope::Slice(s, k) => {
                    let (len, released) = self.store.slice_len(s, k);
                    len + released as usize
                }
            };
            cells.note_hit();
            return Some(Ok(match spec.op {
                AggOp::Exists => Sequence::bool(n > 0),
                _ => Sequence::int(n as i64),
            }));
        }
        let cell = cells.get(scope);
        let since = cell.as_ref().map(|f| (f.token, f.len));
        let mut ids = Vec::new();
        let read = match scope {
            Scope::Queue(q) => self.store.queue_read(q, since, &mut ids).ok()?,
            Scope::Slice(s, k) => self.store.slice_read(s, k, since, &mut ids),
        };
        let (mut acc, extended) = match cell {
            Some(f) if read.resumed => {
                if ids.is_empty() {
                    cells.note_hit();
                    return Some(Ok(f.value.result()));
                }
                (f.value, true)
            }
            _ => match rebuild_seed(spec, &read) {
                Ok(acc) => (acc, false),
                Err(e) => return Some(Err(e)),
            },
        };
        // With released history in play, declining to the fallback rescan
        // is no longer sound: the rescan only sees surviving members, not
        // the folded-out history. Errors must surface instead; without it,
        // a load or fold error declines (never cached) and the fallback
        // reproduces the identical outcome.
        for &m in &ids {
            if let Err(e) = self.absorb_member(id, spec, m, &mut acc) {
                return (read.base_members > 0).then_some(Err(e));
            }
        }
        let result = acc.result();
        let fold = Fold {
            token: read.token,
            len: read.len,
            value: acc,
        };
        cells.put(scope, fold, extended);
        Some(Ok(result))
    }

    /// Fold member `m`'s contribution to aggregate `id` into `acc`: the one
    /// kept since its enqueue — or, for a member enqueued without its
    /// document at hand (a cross-shard ingest) or before a restart, one
    /// computed from the member loaded through the document cache. Such
    /// loads are rare (1.7 % of folds on `slice_state`, all in the drain
    /// after a reopen; none on `durable_sharded`), so the result is not
    /// kept. A member purged since the membership read drops out, as if
    /// the read had come later.
    fn absorb_member(
        &self,
        id: AggId,
        spec: &AggregateSpec,
        m: MsgId,
        acc: &mut AggAcc,
    ) -> std::result::Result<(), XqError> {
        if spec.membership_only() {
            return acc.absorb(&Contribution::Count(1));
        }
        if let Some(absorbed) = self.agg.absorb(m, id, acc) {
            return absorbed;
        }
        match self.doc_root(m)? {
            Some(root) => acc.absorb(&spec.contribution(&root)),
            None => Ok(()),
        }
    }
}

/// The accumulator a rebuild starts from: the released base cell of this
/// shape, or an empty one when nothing was released. The base is keyed by
/// the shape's persisted signature — formatted here, on a rebuild of a
/// narrowed slice, and nowhere on the read path otherwise.
fn rebuild_seed(spec: &AggregateSpec, read: &MemberRead) -> std::result::Result<AggAcc, XqError> {
    if read.base_members == 0 {
        return Ok(AggAcc::new(spec.op));
    }
    let sig = spec.stable_sig();
    let cell = read.base.iter().flatten().find(|(s, _)| *s == sig);
    match cell {
        Some((_, bytes)) => AggAcc::decode(bytes).ok_or_else(|| {
            XqError::dynamic(format!("aggregate base cell of slice is unreadable ({sig})"))
        }),
        // Released history exists but no cell matches this read — the
        // rescan would silently ignore it.
        None => Err(XqError::dynamic(format!(
            "aggregate base cell missing for released slice history ({sig})"
        ))),
    }
}

/// Internal error classification during processing.
enum ProcessingError {
    Store(StoreError),
    Rule {
        rule: String,
        error_kind: String,
        detail: String,
    },
}

impl ProcessingError {
    fn rule(name: &str, e: XqError) -> ProcessingError {
        ProcessingError::Rule {
            rule: name.to_string(),
            error_kind: kind::APPLICATION.to_string(),
            detail: e.to_string(),
        }
    }
}

enum ExecError {
    Store(StoreError),
    App { kind: String, detail: String },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_store_directory_is_removed_on_drop() {
        let server = Server::builder()
            .program(
                "create queue inbox kind basic mode persistent\n\
                 create queue outbox kind basic mode persistent\n\
                 create rule copy for inbox if (//m) then do enqueue <seen/> into outbox",
            )
            .in_memory()
            .build()
            .unwrap();
        server.enqueue_external("inbox", "<m/>").unwrap();
        assert_eq!(server.run_until_idle().unwrap(), 2);
        let dir = server.store().dir().clone();
        assert!(dir.join("wal-000000.log").exists(), "no store under {dir:?}");
        drop(server);
        assert!(!dir.exists(), "{dir:?} outlived its in-memory server");
    }
}
