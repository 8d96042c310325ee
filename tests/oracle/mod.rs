//! The test-side oracle for what a server processes, shared by the
//! differential suites.
//!
//! The engine executes lowered [`Plan`]s only, answers recognized
//! aggregates from its cell registry, and lets GC narrow the retained
//! history of slicings the liveness analysis proved narrowable. The
//! oracle is the reference [`Evaluator`] (the dev-only
//! `demaq-xquery-reference` crate) rescanning full history: a
//! [`Harness`] steps one real server message by message, and before each
//! step puts every message still to be processed through both evaluators
//! under one test-built [`QsHost`] over the server's committed state —
//! with no aggregate registry, and with every slice member a narrowing GC
//! released put back, so `qs:slice()` means the whole slice lifetime.
//! Their pending-update lists (or error texts) must be identical, a rule
//! the trigger prefilter skips must have no effects under the reference,
//! and the same holds for the property `value` bindings of every message
//! entering a queue. As in the engine, a message's queue rules run in
//! program order on one [`PlanEvaluator`], so the queue's shared
//! subexpressions are computed once and then read from its memo; the
//! reference runs each body alone. The reference outcome then predicts
//! the step — the payloads enqueued, or the `<detail>` of the routed error
//! document, byte for byte.
//!
//! Narrowing is followed through [`Harness::gc`] and
//! [`Harness::maintenance`]: the slice members a collection drops are
//! kept here, with their payloads, until a reset ends their slice's
//! lifetime, and their count must equal the released-member count the
//! store keeps for that slice.

#![allow(dead_code)]

use demaq::host::{atomic_to_prop, ClockHost, QsHost, QueueReader, SliceReader, SliceSlot};
use demaq::Server;
use demaq_qdl::PropBinding;
use demaq_store::{MsgId, PropValue};
use demaq_xml::{Document, NodeRef};
use demaq_xquery::{
    eval_query, Atomic, DynamicContext, Error as XqError, Expr, Item, Plan, PlanEvaluator,
    Sequence, Update,
};
use demaq_xquery_reference::{render_updates as render, Evaluator};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Value and pending updates of one evaluation, or its error text.
type Evaluated = Result<(Sequence, Vec<Update>), String>;

fn reference(body: &Expr, dctx: &DynamicContext, root: &NodeRef) -> Evaluated {
    let mut ev = Evaluator::new(dctx);
    let value = ev
        .eval_with_context(body, root.clone())
        .map_err(|e| e.to_string())?;
    Ok((value, std::mem::take(&mut ev.updates)))
}

/// Run `plan` on `ev`; the updates of a failed evaluation are dropped.
fn lowered(ev: &mut PlanEvaluator, plan: &Plan, root: &NodeRef) -> Evaluated {
    let value = ev.eval_with_context(plan, root.clone());
    let updates = std::mem::take(&mut ev.updates);
    Ok((value.map_err(|e| e.to_string())?, updates))
}

fn parse_root(xml: &str) -> NodeRef {
    demaq_xml::parse(xml)
        .expect("stored payloads are well-formed")
        .root()
}

/// Slice members a narrowing GC released, with their payloads, by
/// `(slicing, key)`. Carried across a reopen with [`Harness::history`].
#[derive(Default)]
pub struct Released(HashMap<(String, String), (PropValue, BTreeMap<MsgId, String>)>);

impl Released {
    fn members(&self, slicing: &str, key: &PropValue) -> Option<&BTreeMap<MsgId, String>> {
        let slot = (slicing.to_string(), format!("{key:?}"));
        self.0.get(&slot).map(|(_, members)| members)
    }

    /// Released members across every slice.
    fn len(&self) -> usize {
        self.0.values().map(|(_, members)| members.len()).sum()
    }
}

pub struct Harness<'a> {
    name: String,
    server: &'a Server,
    collections: Arc<HashMap<String, Vec<Arc<Document>>>>,
    released: RefCell<Released>,
}

impl<'a> Harness<'a> {
    pub fn new(name: impl Into<String>, server: &'a Server) -> Harness<'a> {
        Harness {
            name: name.into(),
            server,
            collections: Arc::default(),
            released: RefCell::default(),
        }
    }

    /// The master data the server was built with.
    pub fn collections(mut self, collections: HashMap<String, Vec<Arc<Document>>>) -> Self {
        self.collections = Arc::new(collections);
        self
    }

    /// Continue from the released history of an earlier harness over the
    /// same store (a reopened server).
    pub fn with_history(self, released: Released) -> Self {
        self.released.replace(released);
        self
    }

    /// The released history, to carry over a reopen.
    pub fn history(self) -> Released {
        self.released.into_inner()
    }

    /// Slice members released so far and not yet reset.
    pub fn released(&self) -> usize {
        self.released.borrow().len()
    }

    /// A host over the server's committed state, as the engine builds one
    /// per message (minus the caches and the aggregate registry), with the
    /// slice's released members put back. `slice` names the slicing and
    /// the position of its key in the message's properties.
    fn rule_dctx(&self, id: MsgId, root: &NodeRef, slice: Option<(&str, usize)>) -> DynamicContext {
        let store = Arc::clone(self.server.store());
        let meta = store.message_meta(id).unwrap();
        let members = slice.map(|(slicing, at)| {
            let key = &meta.props[at].1;
            let mut members: BTreeMap<MsgId, String> = self
                .released
                .borrow()
                .members(slicing, key)
                .cloned()
                .unwrap_or_default();
            let (ids, _) = store.slice_members_versioned(slicing, key);
            for m in ids {
                members.insert(m, store.payload(m).unwrap().to_string());
            }
            let members: Sequence = members
                .values()
                .map(|xml| Item::Node(parse_root(xml)))
                .collect();
            members
        });
        let slice_reader: SliceReader = Arc::new(move |_: &str, _: &PropValue| {
            Ok(members.clone().expect("read only in a slice"))
        });
        let queue_reader: QueueReader = Arc::new(move |q: &str| {
            let msgs = store
                .queue_messages(q)
                .map_err(|e| XqError::dynamic(format!("qs:queue(\"{q}\"): {e}")))?;
            Ok(msgs
                .iter()
                .map(|m| Item::Node(parse_root(&m.payload)))
                .collect())
        });
        DynamicContext::new(Arc::new(QsHost {
            message: root.clone(),
            properties: meta.props,
            queue_name: meta.queue,
            queue_reader,
            slice_reader,
            agg_reader: None,
            collections: Arc::clone(&self.collections),
            now_ms: self.server.clock().now(),
            slice: slice.map_or_else(SliceSlot::default, |(s, at)| SliceSlot::at(s.into(), at)),
        }))
    }

    /// Run `body` under the host the plan ran under; its pending updates
    /// (or error text) and the plan's, `got`, must agree. Returns the
    /// reference's.
    fn both(
        &self,
        what: &str,
        body: &Expr,
        got: Evaluated,
        dctx: &DynamicContext,
        root: &NodeRef,
    ) -> Result<Vec<Update>, String> {
        let want = reference(body, dctx, root).map(|(_, ups)| ups);
        let got = got.map(|(_, ups)| ups);
        assert_eq!(
            got.as_deref().map(render),
            want.as_deref().map(render),
            "{}: {what}: plan diverged from the reference",
            self.name
        );
        want
    }

    /// Compare both evaluators on every `value` binding a message entering
    /// `queue` computes (no scenario overrides one explicitly or by
    /// inheritance). `Err` carries the `PropError` text of the first
    /// binding that raises under the reference.
    fn check_bindings(&self, queue: &str, root: &NodeRef) -> Result<(), String> {
        let app = self.server.app();
        let now_ms = self.server.clock().now();
        let dctx = DynamicContext::new(Arc::new(ClockHost { now_ms }));
        let bound =
            |(seq, _): (Sequence, _)| seq.iter().next().map(|i| atomic_to_prop(i.atomize()));
        let mut entered = Ok(());
        for prop in &app.spec.properties {
            let on_queue = |b: &&PropBinding| b.queues.iter().any(|q| q == queue);
            let Some(binding) = prop.bindings.iter().find(on_queue) else {
                continue;
            };
            let want = reference(&binding.value, &dctx, root).map(bound);
            let plan = &app.prop_bindings[&prop.name][queue];
            let got = lowered(&mut PlanEvaluator::new(&dctx), plan, root).map(bound);
            assert_eq!(
                got, want,
                "{}: `{}` on `{queue}` diverged",
                self.name, prop.name
            );
            if let (Ok(()), Err(e)) = (&entered, want) {
                entered = Err(format!("value expression failed: {e}"));
            }
        }
        entered
    }

    /// Put one unprocessed message through both evaluators: the queue's
    /// rules, then the rules of every slicing keyed by a property the
    /// message carries. Returns what the reference predicts for processing
    /// it — the payloads enqueued, or the routed error's detail text:
    /// evaluation stops at the first error, and actions execute only if
    /// there was none.
    fn check_message(&self, id: MsgId, queue: &str) -> Result<Vec<String>, String> {
        let app = self.server.app();
        let meta = self.server.store().message_meta(id).unwrap();
        let root = parse_root(&self.server.store().payload(id).unwrap());
        let names: HashSet<String> = root
            .descendants()
            .filter(|n| n.is_element())
            .filter_map(|n| n.name().map(|q| q.local.clone()))
            .collect();
        let cq = &app.queues[queue];
        let mut outcomes = Vec::new();
        let dctx = self.rule_dctx(id, &root, None);
        let mut ev = PlanEvaluator::with_shared(&dctx, &cq.shared);
        for rule in &cq.rules {
            let got = lowered(&mut ev, &rule.plan, &root);
            let outcome = self.both(&rule.name, &rule.body, got, &dctx, &root);
            // The string form of the prefilter; the engine probes symbols.
            // A skipped rule contributes nothing, so the prediction below
            // need not know which rules the engine skipped.
            if let Some(trigger) = &rule.trigger_elements {
                assert!(
                    trigger.iter().any(|n| names.contains(n))
                        || outcome.as_deref().map(render) == Ok(vec![]),
                    "{}: skipping `{}` for {id} is unsound",
                    self.name,
                    rule.name
                );
            }
            outcomes.push(outcome);
        }
        for (at, (pname, _)) in meta.props.iter().enumerate() {
            for sname in app.slicings_by_property.get(&**pname).into_iter().flatten() {
                let dctx = self.rule_dctx(id, &root, Some((sname, at)));
                for rule in &app.slicings[&**sname].rules {
                    let got = lowered(&mut PlanEvaluator::new(&dctx), &rule.plan, &root);
                    outcomes.push(self.both(&rule.name, &rule.body, got, &dctx, &root));
                }
            }
        }

        let updates = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
        let (mut payloads, mut entered) = (Vec::new(), Ok(()));
        for u in updates.iter().flatten() {
            if let Update::Enqueue {
                queue: target,
                message,
                ..
            } = u
            {
                let root = message.root();
                entered = entered.and(self.check_bindings(&target.local, &root));
                payloads.push(root.to_xml());
            }
        }
        entered.map(|()| payloads)
    }

    /// Payloads of every retained message, by id.
    fn snapshot(&self) -> BTreeMap<MsgId, String> {
        let queues = self.server.app().queues.keys();
        queues
            .flat_map(|q| self.server.queue_messages(q).unwrap())
            .map(|m| (m.id, m.payload.to_string()))
            .collect()
    }

    /// Process one message, if any is pending: the step must do exactly
    /// what the reference predicted for the message it picked.
    pub fn step(&self) -> bool {
        let store = self.server.store();
        let pending = store.unprocessed();
        let expected: Vec<_> = pending
            .iter()
            .map(|(id, q, _)| (*id, self.check_message(*id, q)))
            .collect();
        let before = self.snapshot();
        if !self.server.step().unwrap() {
            assert!(pending.is_empty(), "{}: unscheduled messages", self.name);
            return false;
        }
        let mut done = expected
            .into_iter()
            .filter(|(id, _)| store.message_meta(*id).unwrap().processed);
        let (Some((id, predicted)), None) = (done.next(), done.next()) else {
            panic!("{}: one step processes one message", self.name)
        };
        let created: Vec<String> = self
            .snapshot()
            .into_iter()
            .filter(|(id, _)| !before.contains_key(id))
            .map(|(_, xml)| xml)
            .collect();
        match predicted {
            Ok(payloads) => assert_eq!(created, payloads, "{}: effects of {id}", self.name),
            Err(detail) => {
                // Nothing but the error document (if an error queue
                // resolves), carrying the reference's text verbatim.
                assert!(
                    created.len() <= 1,
                    "{}: failed {id}: {created:?}",
                    self.name
                );
                for xml in &created {
                    let routed = eval_query("string(/error/detail)", &parse_root(xml));
                    assert_eq!(routed.unwrap().to_string(), detail, "{}: {id}", self.name);
                }
            }
        }
        self.sync_released();
        true
    }

    /// Enqueue one external message, then [`Self::run`].
    pub fn feed(&self, queue: &str, xml: &str) {
        self.enqueue(queue, xml, &[]);
        self.run();
    }

    /// Enqueue one external message with explicit property values, which
    /// must not override a `value` binding of `queue`. The same error
    /// must reach the caller as the reference's bindings raise.
    pub fn enqueue(&self, queue: &str, xml: &str, props: &[(String, Atomic)]) {
        let entering = self.check_bindings(queue, &parse_root(xml));
        match (
            self.server.enqueue_external_with_props(queue, xml, props),
            entering,
        ) {
            (Ok(_), Ok(())) => {}
            (Err(e), Err(detail)) => assert_eq!(
                e.to_string(),
                format!("compile error: property error: {detail}"),
                "{}: enqueue into `{queue}`",
                self.name
            ),
            (got, want) => panic!("{}: `{queue}`: {got:?} vs {want:?}", self.name),
        }
    }

    /// `Server::run_until_idle` with every step checked.
    pub fn run(&self) {
        let clock = self.server.clock();
        loop {
            let mut progressed = false;
            while self.step() {
                progressed = true;
            }
            if self.server.pump_environment().unwrap() || progressed {
                continue;
            }
            match self.server.next_event_at() {
                Some(t) => clock.set(t.max(clock.now())),
                None => break,
            }
        }
    }

    /// `Server::gc`, keeping the slice members it releases.
    pub fn gc(&self) -> usize {
        self.collecting(|| self.server.gc().unwrap())
    }

    /// `Server::maintenance`, keeping the slice members it releases.
    pub fn maintenance(&self) -> usize {
        self.collecting(|| self.server.maintenance().unwrap())
    }

    fn collecting(&self, collect: impl FnOnce() -> usize) -> usize {
        let store = self.server.store();
        let mut before = Vec::new();
        for slicing in self.server.app().slicings.keys() {
            for key in store.slice_keys(slicing) {
                let members: Vec<(MsgId, String)> = store
                    .slice_members(slicing, &key)
                    .into_iter()
                    .map(|m| (m, store.payload(m).unwrap().to_string()))
                    .collect();
                before.push((slicing.clone(), key, members));
            }
        }
        let purged = collect();
        {
            let mut released = self.released.borrow_mut();
            for (slicing, key, members) in before {
                let kept: HashSet<MsgId> =
                    store.slice_members(&slicing, &key).into_iter().collect();
                let slot = (slicing, format!("{key:?}"));
                let (_, gone) = released.0.entry(slot).or_insert((key, BTreeMap::new()));
                gone.extend(members.into_iter().filter(|(m, _)| !kept.contains(m)));
            }
        }
        self.sync_released();
        purged
    }

    /// Forget the released members of every slice whose lifetime a reset
    /// ended; for every other slice, the store must count exactly the
    /// members kept here as released.
    fn sync_released(&self) {
        let store = self.server.store();
        self.released
            .borrow_mut()
            .0
            .retain(|(slicing, _), (key, members)| {
                let (_, released) = store.slice_len(slicing, key);
                if released > 0 {
                    assert_eq!(
                        released,
                        members.len() as u64,
                        "{}: released members of {slicing} {key:?}",
                        self.name
                    );
                }
                released > 0
            });
    }
}
