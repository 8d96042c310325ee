//! Differential testing of the lowered execution plans against the
//! reference AST interpreter, through the shared oracle in
//! `tests/oracle` (see its module doc for what each step checks).
//! Scenarios: every paper listing in `tests/paper_listings.rs` (Figs.
//! 5–10 / Examples 3.1–3.5), error-raising rule bodies and bindings, and
//! shared subexpressions (an error first raised in a later rule, a read
//! only a skipped rule makes, a repeat inside one rule).

mod oracle;

use demaq::{Server, ServerBuilder};
use demaq_store::store::SyncPolicy;
use demaq_store::PropValue;
use demaq_xml::Document;
use oracle::Harness;
use std::collections::HashMap;
use std::sync::Arc;

/// One end-to-end scenario: a program, optional master data, and a feed of
/// `(queue, xml)` messages, each drained to quiescence before the next.
struct Scenario {
    name: &'static str,
    program: &'static str,
    collections: Vec<(&'static str, Vec<Arc<Document>>)>,
    feed: Vec<(&'static str, &'static str)>,
}

/// Run the scenario under the oracle; returns the server for
/// scenario-specific assertions.
fn assert_equivalent(s: &Scenario) -> Server {
    let mut b = ServerBuilder::default()
        .program(s.program)
        .in_memory()
        .sync_policy(SyncPolicy::Batch);
    let mut collections = HashMap::new();
    for (name, docs) in &s.collections {
        b = b.collection(name, docs.clone());
        collections.insert(name.to_string(), docs.clone());
    }
    let server = b.build().unwrap();
    let h = Harness::new(s.name, &server).collections(collections);
    for (queue, xml) in &s.feed {
        h.feed(queue, xml);
    }
    drop(h);
    server
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

fn shared_counts(server: &Server) -> (u64, u64) {
    let counter = |name| server.metrics().registry.counter_total(name);
    (
        counter("demaq_xquery_shared_evals_total"),
        counter("demaq_xquery_shared_reuses_total"),
    )
}

/// A shared subexpression raises for the first time in the second rule,
/// which has an error queue of its own: the error routes there with the
/// reference's `<detail>`. Raised first in the first rule, it routes to the
/// queue's error queue instead.
#[test]
fn shared_errors_route_from_the_rule_that_reads_first() {
    let server = assert_equivalent(&Scenario {
        name: "shared-error",
        program: r#"
        create queue inbox kind basic mode persistent errorqueue errs
        create queue outbox kind basic mode persistent
        create queue errs kind basic mode persistent
        create queue secondErrs kind basic mode persistent
        create rule first for inbox
          if (//first) then do enqueue <a>{xs:integer(/m/v) + 1}</a> into outbox
        create rule second for inbox errorqueue secondErrs
          if (xs:integer(/m/v) + 1 > 0) then do enqueue <b/> into outbox
        "#,
        collections: vec![],
        feed: vec![
            ("inbox", "<m><first/><v>1</v></m>"),
            ("inbox", "<m><v>x</v></m>"),
            ("inbox", "<m><first/><v>y</v></m>"),
        ],
    });
    assert_eq!(server.app().queues["inbox"].shared.len(), 1);
    assert_eq!(server.queue_bodies("outbox").unwrap(), ["<a>2</a>", "<b/>"]);
    assert_eq!(server.queue_bodies("secondErrs").unwrap().len(), 1);
    assert_eq!(server.queue_bodies("errs").unwrap().len(), 1);
    // Messages 1 and 3 evaluate the entry in `first`, message 2 in
    // `second`; only message 1 reads it again. Failed evaluations are not
    // memoized and not counted.
    assert_eq!(shared_counts(&server), (1, 1));
}

/// A shared subexpression whose every reader the trigger pre-filter skips
/// is never evaluated.
#[test]
fn a_shared_read_in_skipped_rules_costs_nothing() {
    let server = assert_equivalent(&Scenario {
        name: "shared-skipped",
        program: r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create rule hit for inbox
          if (//present) then do enqueue <hit/> into outbox
        create rule miss for inbox
          if (//absentElement) then
            do enqueue <miss n="{count(/m/i)}" k="{count(/m/i)}"/> into outbox
        "#,
        collections: vec![],
        feed: vec![("inbox", "<m><present/><i/></m>")],
    });
    assert_eq!(server.app().queues["inbox"].shared.len(), 1);
    assert_eq!(server.queue_bodies("outbox").unwrap(), ["<hit/>"]);
    assert_eq!(shared_counts(&server), (0, 0));
}

/// A repeat inside one rule is shared, also where it sits inside a FLWOR
/// whose own variables it does not read.
#[test]
fn a_repeat_inside_one_rule_is_evaluated_once() {
    let server = assert_equivalent(&Scenario {
        name: "shared-single-rule",
        program: r#"
        create queue inbox kind basic mode persistent
        create queue outbox kind basic mode persistent
        create rule bulk for inbox
          if (count(/m/i[q > 6]) >= 2) then
            for $i in /m/i
            return do enqueue <o q="{$i/q}" of="{count(/m/i[q > 6])}"/> into outbox
        "#,
        collections: vec![],
        feed: vec![
            ("inbox", "<m><i><q>7</q></i><i><q>9</q></i></m>"),
            ("inbox", "<m><i><q>7</q></i><i><q>1</q></i></m>"),
        ],
    });
    assert_eq!(server.app().queues["inbox"].shared.len(), 1);
    assert_eq!(
        server.queue_bodies("outbox").unwrap(),
        [r#"<o q="7" of="2"/>"#, r#"<o q="9" of="2"/>"#]
    );
    // One evaluation per message; the first message reads it twice more.
    assert_eq!(shared_counts(&server), (2, 2));
}

/// Inside a predicate the focus is another document: a path equal to a
/// shared one is evaluated there, not read from the memo.
#[test]
fn a_shared_path_is_not_substituted_in_a_predicate() {
    let server = assert_equivalent(&Scenario {
        name: "shared-refocused",
        program: r#"
        create queue invoices kind basic mode persistent
        create queue finance kind basic mode persistent
        create queue out kind basic mode persistent
        create rule check for finance
          if (//customerID) then
            do enqueue <r c="{//customerID}" m="{string(//customerID)}"
              hits="{string-join(qs:queue('invoices')[//customerID = 'c1']//customerID, ',')}"/>
              into out
        "#,
        collections: vec![],
        feed: vec![
            ("invoices", "<invoice><customerID>c1</customerID></invoice>"),
            ("invoices", "<invoice><customerID>c2</customerID></invoice>"),
            ("finance", "<req><customerID>c2</customerID></req>"),
        ],
    });
    assert_eq!(server.app().queues["finance"].shared.len(), 1);
    assert_eq!(
        server.queue_bodies("out").unwrap(),
        [r#"<r c="c2" m="c2" hits="c1"/>"#]
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
