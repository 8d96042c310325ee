//! Differential testing of the lowered execution plans against the
//! reference AST interpreter.
//!
//! The engine executes lowered [`Plan`]s only; the reference [`Evaluator`]
//! (the dev-only `demaq-xquery-reference` crate) is the oracle. Every
//! scenario runs on one real server, stepped message by message. Before
//! each step, every message still to
//! be processed goes through both evaluators under one test-built
//! [`QsHost`] over the server's committed state: their pending-update
//! lists (or error texts) must be identical, a rule the trigger prefilter
//! skips must have no effects under the reference, and the same holds for
//! the property `value` bindings of every message entering a queue. The
//! reference outcome then predicts the step — the payloads enqueued, or
//! the `<detail>` of the routed error document, byte for byte. Scenarios:
//! every paper listing in `tests/paper_listings.rs` (Figs. 5–10 /
//! Examples 3.1–3.5) plus error-raising rule bodies and bindings.

use demaq::compiler::merge_rules;
use demaq::engine::PlanMode;
use demaq::host::{atomic_to_prop, ClockHost, QsHost, QueueReader, SliceCtx};
use demaq::{Server, ServerBuilder};
use demaq_qdl::PropBinding;
use demaq_store::store::SyncPolicy;
use demaq_store::{MsgId, PropValue};
use demaq_xml::{Document, NodeRef};
use demaq_xquery::{
    eval_query, DynamicContext, Error as XqError, Expr, Item, Plan, PlanEvaluator, Sequence, Update,
};
use demaq_xquery_reference::{render_updates as render, Evaluator};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// One end-to-end scenario: a program, optional master data, and a feed of
/// `(queue, xml)` messages, each drained to quiescence before the next.
struct Scenario {
    name: &'static str,
    program: &'static str,
    collections: Vec<(&'static str, Vec<Arc<Document>>)>,
    feed: Vec<(&'static str, &'static str)>,
}

/// Value and pending updates of one evaluation, or its error text.
type Evaluated = Result<(Sequence, Vec<Update>), String>;

fn reference(body: &Expr, dctx: &DynamicContext, root: &NodeRef) -> Evaluated {
    let mut ev = Evaluator::new(dctx);
    let value = ev
        .eval_with_context(body, root.clone())
        .map_err(|e| e.to_string())?;
    Ok((value, std::mem::take(&mut ev.updates)))
}

fn lowered(plan: &Plan, dctx: &DynamicContext, root: &NodeRef) -> Evaluated {
    let mut ev = PlanEvaluator::new(dctx);
    let value = ev
        .eval_with_context(plan, root.clone())
        .map_err(|e| e.to_string())?;
    Ok((value, std::mem::take(&mut ev.updates)))
}

fn parse_root(xml: &str) -> NodeRef {
    demaq_xml::parse(xml)
        .expect("stored payloads are well-formed")
        .root()
}

struct Harness<'a> {
    name: &'static str,
    server: &'a Server,
    collections: Arc<HashMap<String, Vec<Arc<Document>>>>,
}

impl Harness<'_> {
    /// A host over the server's committed state, as the engine builds one
    /// per rule evaluation (minus the caches and the aggregate registry).
    fn rule_dctx(
        &self,
        id: MsgId,
        root: &NodeRef,
        slice: Option<(&str, &PropValue)>,
    ) -> DynamicContext {
        let store = Arc::clone(self.server.store());
        let meta = store.message_meta(id).unwrap();
        let slice = slice.map(|(slicing, key)| {
            let (ids, _) = store.slice_members_versioned(slicing, key);
            let members = ids
                .iter()
                .map(|m| Item::Node(parse_root(&store.payload(*m).unwrap())));
            SliceCtx::with_members(slicing.to_string(), key.clone(), members.collect())
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
            slice,
            agg_reader: None,
            collections: Arc::clone(&self.collections),
            now_ms: self.server.clock().now(),
        }))
    }

    /// Run `body` and `plan` under the same host; their pending updates
    /// (or error texts) must agree. Returns the reference's.
    fn both(
        &self,
        what: &str,
        (body, plan): (&Expr, &Plan),
        dctx: &DynamicContext,
        root: &NodeRef,
    ) -> Result<Vec<Update>, String> {
        let want = reference(body, dctx, root).map(|(_, ups)| ups);
        let got = lowered(plan, dctx, root).map(|(_, ups)| ups);
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
        let bound = |(seq, _): (Sequence, _)| seq.0.first().map(|i| atomic_to_prop(i.atomize()));
        let mut entered = Ok(());
        for prop in &app.spec.properties {
            let on_queue = |b: &&PropBinding| b.queues.iter().any(|q| q == queue);
            let Some(binding) = prop.bindings.iter().find(on_queue) else {
                continue;
            };
            let want = reference(&binding.value, &dctx, root).map(bound);
            let got = lowered(&app.prop_bindings[&prop.name][queue], &dctx, root).map(bound);
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
        for rule in &cq.rules {
            let outcome = self.both(&rule.name, (&rule.body, &rule.plan), &dctx, &root);
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
        // `PlanMode::Merged` runs the concatenation instead, to the same
        // effect as the rules one at a time.
        if let Some(plan) = &cq.merged_plan {
            let body = merge_rules(&cq.rules).expect("a merged plan has a merged body");
            self.both("<merged-plan>", (&body, plan), &dctx, &root).ok();
        }
        for (pname, key) in &meta.props {
            for sname in app.slicings_by_property.get(pname).into_iter().flatten() {
                let dctx = self.rule_dctx(id, &root, Some((sname, key)));
                for rule in &app.slicings[sname].rules {
                    outcomes.push(self.both(&rule.name, (&rule.body, &rule.plan), &dctx, &root));
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

    /// Payloads of every retained message, in id order. Nothing is purged
    /// during a scenario, so messages created since an earlier snapshot
    /// are the tail beyond its length.
    fn snapshot(&self) -> Vec<String> {
        let queues = self.server.app().queues.keys();
        let by_id: BTreeMap<MsgId, String> = queues
            .flat_map(|q| self.server.queue_messages(q).unwrap())
            .map(|m| (m.id, m.payload.to_string()))
            .collect();
        by_id.into_values().collect()
    }

    /// Process one message, if any is pending: the step must do exactly
    /// what the reference predicted for the message it picked.
    fn step(&self) -> bool {
        let store = self.server.store();
        let pending = store.unprocessed();
        let expected: Vec<_> = pending
            .iter()
            .map(|(id, q, _)| (*id, self.check_message(*id, q)))
            .collect();
        let before = self.snapshot().len();
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
        let created = self.snapshot().split_off(before);
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
        true
    }

    /// Enqueue one external message, then `Server::run_until_idle` with
    /// every step checked.
    fn feed(&self, queue: &str, xml: &str) {
        let entering = self.check_bindings(queue, &parse_root(xml));
        match (self.server.enqueue_external(queue, xml), entering) {
            (Ok(_), Ok(())) => {}
            (Err(e), Err(detail)) => assert_eq!(
                e.to_string(),
                format!("compile error: property error: {detail}"),
                "{}: enqueue into `{queue}`",
                self.name
            ),
            (got, want) => panic!("{}: `{queue}`: {got:?} vs {want:?}", self.name),
        }
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
}

/// Run the scenario under the oracle; returns the server for
/// scenario-specific assertions.
fn run(s: &Scenario, mode: PlanMode) -> Server {
    let mut b = ServerBuilder::default()
        .program(s.program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .plan_mode(mode);
    let mut collections = HashMap::new();
    for (name, docs) in &s.collections {
        b = b.collection(name, docs.clone());
        collections.insert(name.to_string(), docs.clone());
    }
    let server = b.build().unwrap();
    let h = Harness {
        name: s.name,
        server: &server,
        collections: Arc::new(collections),
    };
    for (queue, xml) in &s.feed {
        h.feed(queue, xml);
    }
    server
}

fn assert_equivalent(s: &Scenario) -> Server {
    run(s, PlanMode::RuleAtATime)
}

#[test]
fn example_3_1_fork_to_three_queues() {
    assert_equivalent(&Scenario {
        name: "fig5-fork",
        program: r#"
        create queue crm kind basic mode persistent
        create queue finance kind basic mode persistent
        create queue legal kind basic mode persistent
        create queue supplier kind basic mode persistent
        create rule newOfferRequest for crm
          if (//offerRequest) then
            let $customerInfo :=
              <requestCustomerInfo>
                {//requestID} {//customerID}
              </requestCustomerInfo>
            let $exportRestrictionInfo :=
              <requestRestrictionInfo>{//requestID} {//items}</requestRestrictionInfo>
            let $plantCapacityInfo :=
              <plantCapacityInfo>{//requestID} {//items}</plantCapacityInfo>
            return (do enqueue $customerInfo into finance,
                    do enqueue $exportRestrictionInfo into legal,
                    do enqueue $plantCapacityInfo into supplier
                      with Sender value "http://ws.chem.invalid/")
        "#,
        collections: vec![],
        feed: vec![(
            "crm",
            "<offerRequest><requestID>r1</requestID><customerID>c23</customerID>\
             <items><item>solvent</item></items></offerRequest>",
        )],
    });
}

#[test]
fn example_3_2_credit_rating() {
    assert_equivalent(&Scenario {
        name: "fig6-credit",
        program: r#"
        create queue crm kind basic mode persistent
        create queue finance kind basic mode persistent
        create queue invoices kind basic mode persistent
        create rule checkCreditRating for finance
          if (//requestCustomerInfo) then
            let $result :=
              <customerInfoResult> {//requestID} {//customerID}
                {let $invoices := qs:queue("invoices")
                 return
                   if ($invoices[//customerID = qs:message()//customerID])
                   then
                     <refuse/>
                   else
                     <accept/>}
              </customerInfoResult>
            return do enqueue $result into crm
        "#,
        collections: vec![],
        feed: vec![
            ("invoices", "<invoice><customerID>c23</customerID></invoice>"),
            (
                "finance",
                "<requestCustomerInfo><requestID>r1</requestID><customerID>c23</customerID></requestCustomerInfo>",
            ),
            (
                "finance",
                "<requestCustomerInfo><requestID>r2</requestID><customerID>c42</customerID></requestCustomerInfo>",
            ),
        ],
    });
}

#[test]
fn example_3_3_join_parallel_checks() {
    let pricelist =
        demaq_xml::parse("<pricelist><price currency='EUR'>95</price></pricelist>").unwrap();
    assert_equivalent(&Scenario {
        name: "fig7-join",
        program: r#"
        create queue crm kind basic mode persistent
        create queue customer kind basic mode persistent
        create property requestID as xs:string fixed
          queue crm, customer value //requestID
        create slicing requestMsgs on requestID
        create rule joinOrder for requestMsgs
          if (qs:slice()[/customerInfoResult] and
              qs:slice()[/restrictionsResult] and
              qs:slice()[/capacityResult] and
              not(qs:slice()[/offer or /refusal])) then
            if (qs:slice()[/customerInfoResult/accept] and
                not(qs:slice()[/restrictionsResult//restrictedItem])
                and qs:slice()[/capacityResult//accept]) then
              let $pricelist := collection("crm")[/pricelist]
              return
                do enqueue <offer>{//requestID}{$pricelist//price}</offer> into customer
            else
              do enqueue <refusal>{//requestID}</refusal> into customer
        "#,
        collections: vec![("crm", vec![pricelist])],
        feed: vec![
            (
                "crm",
                "<customerInfoResult><requestID>r1</requestID><accept/></customerInfoResult>",
            ),
            (
                "crm",
                "<restrictionsResult><requestID>r1</requestID></restrictionsResult>",
            ),
            (
                "crm",
                "<capacityResult><requestID>r1</requestID><accept/></capacityResult>",
            ),
            (
                "crm",
                "<customerInfoResult><requestID>r2</requestID><accept/></customerInfoResult>",
            ),
            (
                "crm",
                "<restrictionsResult><requestID>r2</requestID><restrictedItem>acid</restrictedItem></restrictionsResult>",
            ),
            (
                "crm",
                "<capacityResult><requestID>r2</requestID><accept/></capacityResult>",
            ),
        ],
    });
}

#[test]
fn fig_8_cleanup_request_reset() {
    assert_equivalent(&Scenario {
        name: "fig8-reset",
        program: r#"
        create queue crm kind basic mode persistent
        create queue customer kind basic mode persistent
        create property requestID as xs:string fixed
          queue crm, customer value //requestID
        create slicing requestMsgs on requestID
        create rule cleanupRequest for requestMsgs
          if (qs:slice()/offer or qs:slice()/refusal) then
            do reset
        "#,
        collections: vec![],
        feed: vec![
            (
                "crm",
                "<offerRequest><requestID>r1</requestID></offerRequest>",
            ),
            ("customer", "<offer><requestID>r1</requestID></offer>"),
        ],
    });
}

#[test]
fn example_3_4_payment_reminder() {
    assert_equivalent(&Scenario {
        name: "fig9-reminder",
        program: r#"
        create queue invoices kind basic mode persistent
        create queue finance kind basic mode persistent
        create queue customer kind basic mode persistent
        create queue echoQueue kind echo mode persistent
        create property messageRequestID as xs:string fixed
          queue invoices, finance value //requestID
        create slicing invoiceRetention on messageRequestID
        create rule resetPayedInvoices for invoiceRetention
          if (qs:slice()//timeoutNotification
              and qs:slice()[/paymentConfirmation]) then
            do reset
        create rule sendInvoice for invoices
          if (//invoice) then
            do enqueue <timeoutNotification>{//requestID}</timeoutNotification> into echoQueue
              with delay value "PT30S"
              with target value "finance"
        create rule checkPayment for finance
          if (//timeoutNotification) then
            let $mRID := string(qs:message()//requestID)
            let $payments := qs:queue("finance")[/paymentConfirmation]
            return
              if (not($payments[//requestID = $mRID])) then
                let $invoice := qs:queue("invoices")[//requestID = $mRID]
                let $reminder := <reminder>{$invoice//requestID}</reminder>
                return do enqueue $reminder into customer
              else ()
        "#,
        collections: vec![],
        feed: vec![("invoices", "<invoice><requestID>r1</requestID></invoice>")],
    });
}

/// Fig. 10's error routing without the network: a rule body that raises a
/// dynamic error mid-evaluation. The routed error document embeds the rule
/// name, error kind, and the evaluator's error message — so this asserts
/// the lowered plan reproduces error *messages* verbatim, not just
/// error-ness.
#[test]
fn dynamic_errors_route_identically() {
    let server = assert_equivalent(&Scenario {
        name: "error-div-zero",
        program: r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create queue errs kind basic mode persistent
        create rule explode for inbox errorqueue errs
          if (//m) then
            do enqueue <x>{1 div 0}</x> into outbox
        create rule undef for inbox errorqueue errs
          if (//u) then
            do enqueue <x>{$nowhere}</x> into outbox
        create rule typed for inbox errorqueue errs
          if (//t) then
            do enqueue <x>{"a" + 1}</x> into outbox
        "#,
        collections: vec![],
        feed: vec![("inbox", "<m/>"), ("inbox", "<u/>"), ("inbox", "<t/>")],
    });
    // `"a" + 1` is NaN, not an error, under both evaluators.
    assert_eq!(server.stats().errors_routed, 2);
    assert_eq!(server.queue_bodies("errs").unwrap().len(), 2);
}

/// FLWOR with order by, positional variables, quantifiers, and nested
/// scopes — the constructs whose variable accesses the lowering rewrites
/// into frame slots.
#[test]
fn flwor_order_by_and_quantifiers() {
    assert_equivalent(&Scenario {
        name: "flwor-slots",
        program: r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create rule sorted for inbox
          if (//item) then
            for $i at $p in //item
            let $k := $i/@n
            order by $k descending
            return do enqueue <o p="{$p}">{$i/text()}</o> into outbox
        create rule quant for inbox
          if (some $i in //item satisfies $i/@n > 1) then
            do enqueue <sawBig/> into outbox
        create rule all for inbox
          if (every $i in //item satisfies $i/@n >= 1) then
            do enqueue <allPositive/> into outbox
        "#,
        collections: vec![],
        feed: vec![(
            "inbox",
            "<items><item n='2'>b</item><item n='1'>a</item><item n='3'>c</item></items>",
        )],
    });
}

/// Trigger pre-filtering: skipping must be sound under the reference (the
/// harness checks the string form of the filter), and the engine's
/// symbol-set probe must in fact skip: `miss` twice, `hit` once.
#[test]
fn trigger_filter_parity() {
    let server = assert_equivalent(&Scenario {
        name: "trigger-filter",
        program: r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create rule hit for inbox
          if (//present) then do enqueue <hit/> into outbox
        create rule miss for inbox
          if (//absentElement) then do enqueue <miss/> into outbox
        "#,
        collections: vec![],
        feed: vec![
            ("inbox", "<wrap><present/></wrap>"),
            ("inbox", "<wrap><other/></wrap>"),
        ],
    });
    let stats = server.stats();
    assert_eq!(
        (stats.rules_evaluated, stats.rules_skipped_by_filter),
        (1, 3)
    );
}

/// Merged per-queue canonical plans (paper Sec. 4.4.1) must agree with the
/// reference interpreter running the same merged expression.
#[test]
fn merged_plan_mode_parity() {
    let server = run(
        &Scenario {
            name: "merged-plan",
            program: r#"
            create queue inbox kind basic mode persistent
            create queue outbox kind basic mode persistent
            create rule first for inbox
              if (//a) then do enqueue <fromA/> into outbox
            create rule second for inbox
              if (//b) then do enqueue <fromB/> into outbox
            "#,
            collections: vec![],
            feed: vec![("inbox", "<m><a/></m>"), ("inbox", "<m><b/><a/></m>")],
        },
        PlanMode::Merged,
    );
    assert!(server.app().queues["inbox"].merged_plan.is_some());
    assert_eq!(
        server.queue_bodies("outbox").unwrap(),
        ["<fromA/>", "<fromA/>", "<fromB/>"]
    );
}

/// A property `value` binding that raises: the text that reaches the
/// caller of an external enqueue, and the `<detail>` of the error document
/// routed for a rule's enqueue, are the reference evaluator's.
#[test]
fn property_binding_errors_route_identically() {
    let server = assert_equivalent(&Scenario {
        name: "binding-error",
        program: r#"
        create queue inbox kind basic mode persistent
        create queue ledger kind basic mode persistent
        create queue errs kind basic mode persistent
        create property amount as xs:integer fixed
          queue ledger value xs:integer(//total)
        create rule post for inbox errorqueue errs
          if (//order) then do enqueue <entry>{//total}</entry> into ledger
        "#,
        collections: vec![],
        feed: vec![
            ("inbox", "<order><total>12</total></order>"),
            ("inbox", "<order><total>twelve</total></order>"),
            ("ledger", "<entry><total>oops</total></entry>"),
        ],
    });
    let ledger = server.queue_messages("ledger").unwrap();
    assert_eq!(ledger.len(), 1, "only the numeric total posts");
    assert_eq!(ledger[0].prop("amount"), Some(&PropValue::Int(12)));
    let errs = server.queue_bodies("errs").unwrap();
    assert_eq!(errs.len(), 1);
    assert!(
        errs[0].starts_with("<error><propertyError/><detail>value expression failed: "),
        "{}",
        errs[0]
    );
}
