//! Compiled application model.
//!
//! The [`CompiledApp`] is the deployed form of a QDL/QML program: schemas
//! and WSDL interfaces are parsed, rules are grouped per target and
//! rewritten by the [`crate::compiler`], and cross-reference maps
//! (property → slicings, queue → properties) are precomputed for the hot
//! path.

use crate::compiler::{self, CompiledRule};
use demaq_analysis::{Analysis, LintConfig, RuleFacts};
use demaq_net::WsdlInterface;
use demaq_qdl::{AppSpec, PropertyDecl, QueueDecl, QueueKind, RuleDecl, SlicingDecl};
use demaq_xml::schema::Schema;
use demaq_store::PropValue;
use demaq_xquery::{AggCatalog, AggId, AggSource, Plan};
use std::collections::HashMap;
use std::sync::Arc;

/// A queue with its compiled artifacts.
pub struct CompiledQueue {
    pub decl: QueueDecl,
    /// Parsed schema, when declared.
    pub schema: Option<Schema>,
    /// Parsed WSDL interface, for outgoing gateways with `interface`.
    pub interface: Option<WsdlInterface>,
    /// Rules attached directly to this queue, in program order.
    pub rules: Vec<CompiledRule>,
    /// The subexpressions its rules share, lowered once (see
    /// [`compiler::compile_rules`]); their plans' `Plan::Shared(i)` reads
    /// entry `i`.
    pub shared: Arc<[Plan]>,
}

/// A slicing with its rules.
pub struct CompiledSlicing {
    pub decl: SlicingDecl,
    pub rules: Vec<CompiledRule>,
}

/// The deployed application.
pub struct CompiledApp {
    pub spec: AppSpec,
    pub queues: HashMap<String, CompiledQueue>,
    pub slicings: HashMap<String, CompiledSlicing>,
    /// property name -> declaration
    pub properties: HashMap<String, PropertyDecl>,
    /// property name -> slicing names keyed by it
    pub slicings_by_property: HashMap<String, Vec<String>>,
    /// Whole-application static analysis (flow graph, diagnostics,
    /// lock-order derivation), computed once at deploy time.
    pub analysis: Analysis,
    /// Every property `value` binding, lowered once at deploy time:
    /// `prop name -> queue name -> plan`. `value false`, `value 3`, … fold
    /// to [`Plan::Const`].
    pub prop_bindings: HashMap<String, HashMap<String, Plan>>,
    /// queue name -> global lock-acquisition rank (position in
    /// [`Analysis::lock_order`]; flow sources rank first). Every
    /// transaction acquires queue locks in ascending rank, which turns
    /// deadlock detect-and-retry into deadlock avoidance for
    /// cross-enqueueing rules.
    pub lock_ranks: HashMap<String, u32>,
    /// The analyzer's per-rule facts (shard placement reuses them).
    pub facts: Vec<RuleFacts>,
    /// Every distinct recognized aggregate shape, numbered; the ids ride
    /// in the lowered plans' `AggregateRead`s.
    pub aggregates: AggCatalog,
    /// slicing -> the `qs:slice()` aggregates its rules read (the
    /// narrowing sweep keeps one base cell per shape).
    pub slice_aggregates: HashMap<String, Vec<AggId>>,
    /// slicing -> the ones among them folding member contributions
    /// (everything but a step-free `count`/`exists`).
    slice_contributions: HashMap<String, Vec<AggId>>,
    /// queue -> the contribution-folding `qs:queue("…")` aggregates over
    /// it, read by any rule.
    queue_contributions: HashMap<String, Vec<AggId>>,
}

/// The analyzer's view of a compiled rule: identity fields plus the
/// compiler's read/write sets and trigger filter.
fn rule_facts(rule: &CompiledRule) -> RuleFacts {
    RuleFacts::from_parts(
        &rule.name,
        &rule.target,
        rule.on_slicing,
        rule.error_queue.clone(),
        rule.reads_queues.clone(),
        rule.writes_queues.clone(),
        rule.trigger_elements.clone(),
        &rule.body,
    )
}

/// Error while compiling an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "application compilation failed: {}", self.0)
    }
}
impl std::error::Error for CompileError {}

impl CompiledApp {
    /// Compile a validated [`AppSpec`]. `wsdl_files` resolves `interface`
    /// clause file names to WSDL content (the simulation's stand-in for
    /// reading WSDL from disk/URL).
    pub fn compile(
        spec: AppSpec,
        wsdl_files: &HashMap<String, String>,
    ) -> Result<CompiledApp, CompileError> {
        let violations = demaq_qdl::validate(&spec);
        if !violations.is_empty() {
            let msgs: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            return Err(CompileError(msgs.join("; ")));
        }

        let mut schemas = HashMap::new();
        for (name, src) in &spec.schemas {
            let schema =
                Schema::parse(src).map_err(|e| CompileError(format!("schema `{name}`: {e}")))?;
            schemas.insert(name.clone(), schema);
        }

        let mut queues = HashMap::new();
        for q in &spec.queues {
            let schema = match &q.schema {
                Some(s) => Some(schemas.get(s).cloned().ok_or_else(|| {
                    CompileError(format!("queue `{}`: unknown schema `{s}`", q.name))
                })?),
                None => None,
            };
            let interface = match &q.interface {
                Some((file, port)) => {
                    let content = wsdl_files.get(file).ok_or_else(|| {
                        CompileError(format!(
                            "queue `{}`: interface file `{file}` not provided (register it via ServerBuilder::wsdl_file)",
                            q.name
                        ))
                    })?;
                    Some(
                        WsdlInterface::parse(content, port)
                            .map_err(|e| CompileError(format!("queue `{}`: {e}", q.name)))?,
                    )
                }
                None => None,
            };
            queues.insert(
                q.name.clone(),
                CompiledQueue {
                    decl: q.clone(),
                    schema,
                    interface,
                    rules: Vec::new(),
                    shared: Arc::new([]),
                },
            );
        }

        let mut slicings = HashMap::new();
        let mut slicings_by_property: HashMap<String, Vec<String>> = HashMap::new();
        for s in &spec.slicings {
            slicings.insert(
                s.name.clone(),
                CompiledSlicing {
                    decl: s.clone(),
                    rules: Vec::new(),
                },
            );
            slicings_by_property
                .entry(s.property.clone())
                .or_default()
                .push(s.name.clone());
        }

        let properties: HashMap<String, PropertyDecl> = spec
            .properties
            .iter()
            .map(|p| (p.name.clone(), p.clone()))
            .collect();

        // Every plan is lowered into one catalog, so an aggregate id means
        // the same shape wherever a host meets it.
        let mut aggregates = AggCatalog::default();

        // Lower property bindings once at deploy time; a queue named by
        // several bindings of one property takes the first.
        let mut prop_bindings: HashMap<String, HashMap<String, Plan>> = HashMap::new();
        for p in &spec.properties {
            let per_queue = prop_bindings.entry(p.name.clone()).or_default();
            for b in &p.bindings {
                let (plan, _) = demaq_xquery::lower_in(&b.value, &mut aggregates);
                for q in &b.queues {
                    per_queue.entry(q.clone()).or_insert_with(|| plan.clone());
                }
            }
        }

        // Compile each target's rules together, in program order.
        let rules_for = |target: &str| -> Vec<&RuleDecl> {
            spec.rules.iter().filter(|r| r.target == target).collect()
        };
        for q in &spec.queues {
            let cq = queues.get_mut(&q.name).expect("declared");
            (cq.rules, cq.shared) =
                compiler::compile_rules(&rules_for(&q.name), &spec, false, &mut aggregates);
        }
        for s in &spec.slicings {
            let cs = slicings.get_mut(&s.name).expect("declared");
            cs.rules = compiler::compile_rules(&rules_for(&s.name), &spec, true, &mut aggregates).0;
        }

        // Which aggregates each membership feeds: a slicing's rules read
        // `qs:slice()` shapes over its slices; any rule may read a
        // `qs:queue("q")` shape over q.
        let mut slice_aggregates: HashMap<String, Vec<AggId>> = HashMap::new();
        let mut queue_contributions: HashMap<String, Vec<AggId>> = HashMap::new();
        let all_rules = queues
            .values()
            .flat_map(|q| q.rules.iter())
            .chain(slicings.values().flat_map(|s| s.rules.iter()));
        for rule in all_rules {
            for &id in &rule.aggregates {
                let spec = aggregates.get(id);
                let ids = match &spec.source {
                    AggSource::Slice if rule.on_slicing => {
                        slice_aggregates.entry(rule.target.clone()).or_default()
                    }
                    AggSource::Queue(q) if !spec.membership_only() => {
                        queue_contributions.entry(q.clone()).or_default()
                    }
                    _ => continue,
                };
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
        let slice_contributions = slice_aggregates
            .iter()
            .map(|(s, ids)| {
                let mut folded = ids.clone();
                folded.retain(|&id| !aggregates.get(id).membership_only());
                (s.clone(), folded)
            })
            .filter(|(_, ids)| !ids.is_empty())
            .collect();

        // Whole-application analysis over the compiled rules' read/write
        // sets (paper Sec. 4): diagnostics plus the flow-derived global
        // lock-acquisition order. The builder decides what to do with the
        // diagnostics (strict_analysis); ranks feed lock acquisition.
        let facts: Vec<RuleFacts> = queues
            .values()
            .flat_map(|q| q.rules.iter())
            .chain(slicings.values().flat_map(|s| s.rules.iter()))
            .map(rule_facts)
            .collect();
        let analysis = demaq_analysis::analyze(&spec, &facts, &LintConfig::default());
        let lock_ranks = analysis
            .lock_order
            .iter()
            .enumerate()
            .map(|(i, q)| (q.clone(), i as u32))
            .collect();

        Ok(CompiledApp {
            spec,
            queues,
            slicings,
            properties,
            slicings_by_property,
            prop_bindings,
            analysis,
            lock_ranks,
            facts,
            aggregates,
            slice_aggregates,
            slice_contributions,
            queue_contributions,
        })
    }

    /// The aggregates a message entering `queue` with `props` contributes
    /// to: the contribution-folding shapes over its queue and over every
    /// slicing it joins (one entry per shape).
    pub fn contribution_ids(&self, queue: &str, props: &[(String, PropValue)]) -> Vec<AggId> {
        if self.slice_contributions.is_empty() && self.queue_contributions.is_empty() {
            return Vec::new();
        }
        let mut ids: Vec<AggId> = self.queue_contributions.get(queue).cloned().unwrap_or_default();
        for (pname, _) in props {
            for slicing in self.slicings_by_property.get(pname).into_iter().flatten() {
                for &id in self.slice_contributions.get(slicing).into_iter().flatten() {
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
        }
        ids
    }

    /// The queue kind (engine dispatch).
    pub fn queue_kind(&self, name: &str) -> Option<QueueKind> {
        self.queues.get(name).map(|q| q.decl.kind)
    }

    /// All slicing rules that pertain to a message carrying the given
    /// property names: rules of slicings keyed by any of those properties.
    pub fn slicing_rules_for<'a>(
        &'a self,
        prop_names: impl Iterator<Item = &'a str>,
    ) -> Vec<(&'a str, &'a CompiledSlicing)> {
        let mut out = Vec::new();
        for p in prop_names {
            if let Some(slicing_names) = self.slicings_by_property.get(p) {
                for sname in slicing_names {
                    if let Some(s) = self.slicings.get(sname) {
                        out.push((sname.as_str(), s));
                    }
                }
            }
        }
        out
    }

    /// Resolve the error queue for a failure in `rule` (possibly None) on
    /// `queue`: rule-level, then queue-level, then system-level
    /// (paper Sec. 3.6's levels).
    pub fn error_queue_for<'a>(
        &'a self,
        rule: Option<&'a CompiledRule>,
        queue: &str,
    ) -> Option<&'a str> {
        if let Some(r) = rule {
            if let Some(eq) = &r.error_queue {
                return Some(eq);
            }
        }
        if let Some(q) = self.queues.get(queue) {
            if let Some(eq) = &q.decl.error_queue {
                return Some(eq);
            }
        }
        self.spec.system_error_queue.as_deref()
    }
}
