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
use demaq_qdl::{AppSpec, PropertyDecl, QueueDecl, RuleDecl, SlicingDecl};
use demaq_store::{LockMode, Name, PropValue};
use demaq_xml::schema::Schema;
use demaq_xquery::{AggCatalog, AggId, AggSource, Plan};
use std::collections::HashMap;
use std::sync::Arc;

/// The queue locks a queue's or slicing's rules need under
/// [`LockGranularity::Queue`](demaq_store::LockGranularity::Queue)
/// (paper Sec. 4.3), compiled at deploy: the queue itself (for a queue's
/// plan) and the queues the rules write, exclusive; the queues they read,
/// shared. Sorted by name, the global acquisition order
/// ([`LockKey`](demaq_store::LockKey)'s), one entry per queue. Slice
/// granularity locks only the message's slices and reads no plan.
pub type LockPlan = Vec<(Name, LockMode)>;

fn lock_plan(own: Option<&Name>, rules: &[CompiledRule]) -> LockPlan {
    let intern = |q: &String| -> Name { q.as_str().into() };
    let writes = rules
        .iter()
        .flat_map(|r| &r.writes_queues)
        .map(|q| (intern(q), LockMode::Exclusive));
    let reads = rules
        .iter()
        .flat_map(|r| &r.reads_queues)
        .map(|q| (intern(q), LockMode::Shared));
    let own = own.map(|q| (Arc::clone(q), LockMode::Exclusive));
    lock_order(own.into_iter().chain(writes).chain(reads).collect())
}

/// Queue locks in the global acquisition order, [`LockKey`]'s: by name,
/// one entry per queue, exclusive if any entry for it is.
///
/// [`LockKey`]: demaq_store::LockKey
pub(crate) fn lock_order(mut locks: LockPlan) -> LockPlan {
    locks.sort_by(|(a, am), (b, bm)| {
        (a, *am == LockMode::Shared).cmp(&(b, *bm == LockMode::Shared))
    });
    locks.dedup_by(|later, first| later.0 == first.0);
    locks
}

/// A queue with its compiled artifacts.
pub struct CompiledQueue {
    /// The queue's name, interned.
    pub name: Name,
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
    /// The static part of its messages' lock plans.
    pub locks: LockPlan,
}

/// A slicing with its rules.
pub struct CompiledSlicing {
    /// The slicing's name, interned.
    pub name: Name,
    pub decl: SlicingDecl,
    pub rules: Vec<CompiledRule>,
    /// What its rules add to the lock plan of a message in one of its
    /// slices.
    pub locks: LockPlan,
}

/// The deployed application.
pub struct CompiledApp {
    pub spec: AppSpec,
    pub queues: HashMap<String, CompiledQueue>,
    pub slicings: HashMap<String, CompiledSlicing>,
    /// property name -> declaration
    pub properties: HashMap<String, PropertyDecl>,
    /// The name of each of `spec.properties`, interned (same order).
    pub property_names: Vec<Name>,
    /// property name -> slicing names keyed by it
    pub slicings_by_property: HashMap<String, Vec<Name>>,
    /// Whole-application static analysis (flow graph, diagnostics),
    /// computed once at deploy time.
    pub analysis: Analysis,
    /// Every property `value` binding, lowered once at deploy time:
    /// `prop name -> queue name -> plan`. `value false`, `value 3`, … fold
    /// to [`Plan::Const`].
    pub prop_bindings: HashMap<String, HashMap<String, Plan>>,
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
                    name: q.name.as_str().into(),
                    decl: q.clone(),
                    schema,
                    interface,
                    rules: Vec::new(),
                    shared: Arc::new([]),
                    locks: LockPlan::default(),
                },
            );
        }

        let mut slicings = HashMap::new();
        let mut slicings_by_property: HashMap<String, Vec<Name>> = HashMap::new();
        for s in &spec.slicings {
            let name: Name = s.name.as_str().into();
            slicings.insert(
                s.name.clone(),
                CompiledSlicing {
                    name: Arc::clone(&name),
                    decl: s.clone(),
                    rules: Vec::new(),
                    locks: LockPlan::default(),
                },
            );
            slicings_by_property
                .entry(s.property.clone())
                .or_default()
                .push(name);
        }

        let properties: HashMap<String, PropertyDecl> = spec
            .properties
            .iter()
            .map(|p| (p.name.clone(), p.clone()))
            .collect();
        let property_names = spec
            .properties
            .iter()
            .map(|p| p.name.as_str().into())
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
        // sets (paper Sec. 4). The builder decides what to do with the
        // diagnostics (strict_analysis).
        let facts: Vec<RuleFacts> = queues
            .values()
            .flat_map(|q| q.rules.iter())
            .chain(slicings.values().flat_map(|s| s.rules.iter()))
            .map(rule_facts)
            .collect();
        let analysis = demaq_analysis::analyze(&spec, &facts, &LintConfig::default());
        for cq in queues.values_mut() {
            cq.locks = lock_plan(Some(&cq.name), &cq.rules);
        }
        for cs in slicings.values_mut() {
            cs.locks = lock_plan(None, &cs.rules);
        }

        Ok(CompiledApp {
            spec,
            queues,
            slicings,
            properties,
            property_names,
            slicings_by_property,
            prop_bindings,
            analysis,
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
    pub fn contribution_ids(&self, queue: &str, props: &[(Name, PropValue)]) -> Vec<AggId> {
        if self.slice_contributions.is_empty() && self.queue_contributions.is_empty() {
            return Vec::new();
        }
        let mut ids: Vec<AggId> = self
            .queue_contributions
            .get(queue)
            .cloned()
            .unwrap_or_default();
        for (pname, _) in props {
            for slicing in self
                .slicings_by_property
                .get(&**pname)
                .into_iter()
                .flatten()
            {
                for &id in self
                    .slice_contributions
                    .get(&**slicing)
                    .into_iter()
                    .flatten()
                {
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
        }
        ids
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

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_qdl::parse_program;
    use LockMode::{Exclusive, Shared};

    #[test]
    fn lock_plans_are_compiled_in_name_order_one_entry_per_queue() {
        let src = r#"
            create queue c kind basic mode persistent
            create queue b kind basic mode persistent
            create queue a kind basic mode persistent
            create queue log kind basic mode persistent
            create property p as xs:string queue a value /m/@p
            create slicing s on p
            create rule r1 for a if (count(qs:queue("c")) > 0) then do enqueue <x/> into b
            create rule r2 for a if (//m) then (do enqueue <y/> into b, do enqueue <z/> into c)
            create rule r3 for s if (count(qs:queue("log")) > 9) then do enqueue <w/> into log
            create rule r4 for s if (count(qs:queue("b")) > 9) then do enqueue <v/> into c
        "#;
        let app = CompiledApp::compile(parse_program(src).unwrap(), &HashMap::new()).unwrap();
        let plan = |locks: &[(Name, LockMode)]| -> Vec<(String, LockMode)> {
            locks.iter().map(|(q, m)| (q.to_string(), *m)).collect()
        };
        let owned = |v: &[(&str, LockMode)]| -> Vec<(String, LockMode)> {
            v.iter().map(|(q, m)| (q.to_string(), *m)).collect()
        };
        let ascending = |v: &[(Name, LockMode)]| v.windows(2).all(|w| w[0].0 < w[1].0);

        let a = &app.queues["a"].locks;
        // `c` is read by r1 and written by r2: taken once, exclusive.
        assert_eq!(
            plan(a),
            owned(&[("a", Exclusive), ("b", Exclusive), ("c", Exclusive)])
        );
        let s = &app.slicings["s"].locks;
        assert_eq!(
            plan(s),
            owned(&[("b", Shared), ("c", Exclusive), ("log", Exclusive)])
        );
        for plan in app
            .queues
            .values()
            .map(|q| &q.locks)
            .chain(app.slicings.values().map(|s| &s.locks))
        {
            assert!(ascending(plan), "{plan:?}");
        }
        // Merging a slicing's plan into a queue's keeps one ascending list
        // with one entry per queue, in its strongest mode.
        let merged = lock_order(a.iter().chain(s).cloned().collect());
        assert!(ascending(&merged));
        assert_eq!(
            plan(&merged),
            owned(&[
                ("a", Exclusive),
                ("b", Exclusive),
                ("c", Exclusive),
                ("log", Exclusive)
            ])
        );
    }
}
