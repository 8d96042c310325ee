//! The queue/rule message-flow graph.
//!
//! Nodes are the application's declared queues (sorted by name for
//! determinism). Edges are statically-known message flows:
//!
//! * a rule attached to queue `q` enqueues into `t` → edge `q → t`,
//!   labeled with the rule and whether the enqueue is guarded;
//! * a slicing rule enqueues into `t` → one edge per queue the slicing's
//!   key property can appear on (its bindings, plus any queue where an
//!   enqueue sets the property via `with`);
//! * an enqueue into an *echo* queue that sets `with target value "t"`
//!   with a string literal adds the timer hop `echo → t` (unconditional:
//!   the timer always fires).

use crate::facts::RuleFacts;
use demaq_qdl::{AppSpec, QueueKind};
use std::collections::{HashMap, HashSet};

/// One statically-known flow edge.
#[derive(Debug, Clone)]
pub struct FlowEdge {
    pub from: usize,
    pub to: usize,
    /// Rule that performs the enqueue (or, for timer hops, the rule that
    /// armed the timer).
    pub rule: String,
    /// True when the enqueue is guarded by a condition.
    pub conditional: bool,
    /// True for echo-queue timer hops (edge derived from `with target`).
    pub timer_hop: bool,
}

/// The application message-flow graph.
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    /// Declared queue names, sorted.
    pub queues: Vec<String>,
    pub edges: Vec<FlowEdge>,
}

impl FlowGraph {
    pub fn index(&self, name: &str) -> Option<usize> {
        self.queues.binary_search_by(|q| q.as_str().cmp(name)).ok()
    }

    /// Build the flow graph for an application.
    pub fn build(spec: &AppSpec, rules: &[RuleFacts]) -> FlowGraph {
        let mut queues: Vec<String> = spec.queues.iter().map(|q| q.name.clone()).collect();
        queues.sort();
        queues.dedup();
        let mut g = FlowGraph {
            queues,
            edges: Vec::new(),
        };

        // Property -> queues where some enqueue sets it via `with`.
        let mut with_set_on: HashMap<&str, Vec<&str>> = HashMap::new();
        for r in rules {
            for s in &r.enqueues {
                for (p, _) in &s.with_props {
                    with_set_on.entry(p.as_str()).or_default().push(&s.queue);
                }
            }
        }

        for r in rules {
            let sources = rule_source_queues(spec, r, &with_set_on);
            for s in &r.enqueues {
                let Some(to) = g.index(&s.queue) else {
                    continue; // undeclared target: DQ001's job, not an edge
                };
                for src in &sources {
                    if let Some(from) = g.index(src) {
                        g.edges.push(FlowEdge {
                            from,
                            to,
                            rule: r.name.clone(),
                            conditional: s.conditional,
                            timer_hop: false,
                        });
                    }
                }
                // Echo timer hop: `with target value "t"` on an enqueue
                // into an echo queue forwards to `t` when the timer fires.
                if spec.queue(&s.queue).map(|q| q.kind) == Some(QueueKind::Echo) {
                    for (p, lit) in &s.with_props {
                        if p == "target" {
                            if let Some(t) = lit.as_deref().and_then(|t| g.index(t)) {
                                g.edges.push(FlowEdge {
                                    from: to,
                                    to: t,
                                    rule: r.name.clone(),
                                    conditional: false,
                                    timer_hop: true,
                                });
                            }
                        }
                    }
                }
            }
        }
        g
    }

    /// Adjacency lists over an edge filter.
    fn adjacency(&self, keep: impl Fn(&FlowEdge) -> bool) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.queues.len()];
        for e in &self.edges {
            if keep(e) {
                adj[e.from].push(e.to);
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        adj
    }

    /// Strongly connected components of the subgraph of *unconditional*
    /// edges that contain a cycle (size > 1, or a self-loop).
    pub fn unguarded_cycles(&self) -> Vec<Vec<usize>> {
        let adj = self.adjacency(|e| !e.conditional);
        strongly_connected(self.queues.len(), &adj)
            .into_iter()
            .filter(|scc| scc.len() > 1 || adj[scc[0]].contains(&scc[0]))
            .collect()
    }

    /// Queue indexes with at least one inbound flow edge.
    pub fn produced_into(&self) -> HashSet<usize> {
        self.edges.iter().map(|e| e.to).collect()
    }
}

/// Queues a rule's trigger can originate from: its queue for queue rules;
/// for slicing rules, every queue where the slicing's key property can
/// appear (bindings plus `with`-set sites).
fn rule_source_queues(
    spec: &AppSpec,
    rule: &RuleFacts,
    with_set_on: &HashMap<&str, Vec<&str>>,
) -> Vec<String> {
    if !rule.on_slicing {
        return vec![rule.target.clone()];
    }
    let Some(slicing) = spec.slicing(&rule.target) else {
        return Vec::new();
    };
    let mut out: Vec<String> = Vec::new();
    if let Some(prop) = spec.property(&slicing.property) {
        for b in &prop.bindings {
            out.extend(b.queues.iter().cloned());
        }
    }
    if let Some(qs) = with_set_on.get(slicing.property.as_str()) {
        out.extend(qs.iter().map(|q| q.to_string()));
    }
    out.sort();
    out.dedup();
    out
}

/// One edge of the error-routing graph: a failure on `from` routes an
/// error message into `to` (`via` names the failing rule, or the queue
/// itself for schema/gateway/timer failures).
#[derive(Debug, Clone)]
pub struct ErrorEdge {
    pub from: String,
    pub to: String,
    pub via: String,
}

/// Build the error-routing graph. Only queues that *can fail* get outgoing
/// edges: queues with attached rules (directly or via a slicing whose key
/// property can appear there), queues with a declared schema, and
/// non-basic queues (gateway sends, incoming validation, echo timers can
/// all fail). Resolution follows paper Sec. 3.6: rule > queue > system.
pub fn error_route_edges(spec: &AppSpec, rules: &[RuleFacts]) -> Vec<ErrorEdge> {
    let mut with_set_on: HashMap<&str, Vec<&str>> = HashMap::new();
    for r in rules {
        for s in &r.enqueues {
            for (p, _) in &s.with_props {
                with_set_on.entry(p.as_str()).or_default().push(&s.queue);
            }
        }
    }

    let mut edges = Vec::new();
    let mut push = |from: &str, to: Option<&str>, via: &str| {
        if let Some(to) = to {
            if spec.queue(to).is_some() {
                edges.push(ErrorEdge {
                    from: from.to_string(),
                    to: to.to_string(),
                    via: via.to_string(),
                });
            }
        }
    };

    let system = spec.system_error_queue.as_deref();
    for r in rules {
        for q in rule_source_queues(spec, r, &with_set_on) {
            let queue_eq = spec.queue(&q).and_then(|d| d.error_queue.as_deref());
            let eq = r.error_queue.as_deref().or(queue_eq).or(system);
            push(&q, eq, &r.name);
        }
    }
    for q in &spec.queues {
        let can_fail_without_rules = q.schema.is_some() || q.kind != QueueKind::Basic;
        if can_fail_without_rules {
            let eq = q.error_queue.as_deref().or(system);
            push(&q.name, eq, &q.name);
        }
    }
    edges
}

/// Strongly connected components (Tarjan). Returned in reverse
/// topological order of the condensation; deterministic for a fixed node
/// order and adjacency.
pub fn strongly_connected(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct State<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        lowlink: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        out: Vec<Vec<usize>>,
    }
    fn strong(v: usize, st: &mut State) {
        st.index[v] = Some(st.next);
        st.lowlink[v] = st.next;
        st.next += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in st.adj[v].iter() {
            if st.index[w].is_none() {
                strong(w, st);
                st.lowlink[v] = st.lowlink[v].min(st.lowlink[w]);
            } else if st.on_stack[w] {
                st.lowlink[v] = st.lowlink[v].min(st.index[w].expect("visited"));
            }
        }
        if st.lowlink[v] == st.index[v].expect("set above") {
            let mut scc = Vec::new();
            loop {
                let w = st.stack.pop().expect("stack invariant");
                st.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            scc.sort_unstable();
            st.out.push(scc);
        }
    }
    let mut st = State {
        adj,
        index: vec![None; n],
        lowlink: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            strong(v, &mut st);
        }
    }
    st.out
}
