//! `rules_cpu`: ~1 KB purchase orders through six rules over three queues.
//! XML parsing and XQuery plan evaluation do most of the work, fsync does
//! none, and the documents of a segment fit the default document cache.

use super::{expect, Expected, Workload};
use crate::engine::{Engine, Input};
use crate::rng::Rng;
use demaq::Server;
use demaq_store::SyncPolicy;
use std::fmt::Write;
use std::path::Path;

pub const PROGRAM: &str = r#"
create schema priced-schema {
  root priced
  element priced { customer, tier, total, lines } attrs { id, region }
  element customer text
  element tier text
  element total text integer
  element lines text integer
}
create queue orders kind basic mode persistent
create queue priced kind basic mode persistent schema priced-schema
create queue shipping kind basic mode persistent
create queue invoices kind basic mode persistent
create queue alerts kind basic mode persistent
create queue ruleErrors kind basic mode persistent

create rule price for orders errorqueue ruleErrors
  if (/order/items/item) then
    let $total := sum(for $i in /order/items/item return $i/qty * $i/price)
    return do enqueue
      <priced id="{/order/@id}" region="{/order/@region}">
        <customer>{/order/customer/id/text()}</customer>
        {/order/customer/tier}
        <total>{$total}</total>
        <lines>{count(/order/items/item)}</lines>
      </priced> into priced

create rule bulk for orders
  if (count(/order/items/item[qty > 6]) >= 2) then
    do enqueue <bulk id="{/order/@id}" n="{count(/order/items/item[qty > 6])}"/> into alerts

create rule vip for orders
  if (/order/@region = "EU" and /order/customer/tier = "gold") then
    do enqueue <vip id="{/order/@id}" name="{upper-case(/order/customer/name)}"/> into alerts

create rule rush for orders
  if (//rush) then
    do enqueue <expedite id="{/order/@id}" by="{//rush/@by}"
                         sku="{string-join(/order/items/item/@sku, ' ')}"/> into shipping

create rule invoice for priced
  if (/priced/total > 0) then
    do enqueue
      <invoice id="{/priced/@id}" ref="{concat(/priced/@region, '-', substring(/priced/@id, 2))}">
        <amount>{/priced/total * 1}</amount>
        <perLine>{/priced/total idiv /priced/lines}</perLine>
      </invoice> into invoices

create rule ship for shipping
  if (/expedite) then
    do enqueue <shipment id="{/expedite/@id}" skus="{count(tokenize(/expedite/@sku, ' '))}"/>
      into invoices
"#;

/// Orders fed between two `maintenance()` calls. Calibrated on the
/// builder's host (2 shared cores) for a segment of about one second.
const SEGMENT_ORDERS: usize = 4000;

const REGIONS: [&str; 4] = ["EU", "US", "APAC", "LATAM"];
const TIERS: [&str; 3] = ["gold", "silver", "bronze"];
const DAYS: [&str; 5] = ["mon", "tue", "wed", "thu", "fri"];
const WORDS: [&str; 8] = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
];

/// The fields of one purchase order the rules look at.
#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    pub id: String,
    pub region: &'static str,
    pub customer: u64,
    /// `None` on the ~1 % of orders whose derived `<priced>` message the
    /// schema of queue `priced` rejects.
    pub tier: Option<&'static str>,
    /// `(sku, qty, price)` per line item.
    pub items: Vec<(u64, u64, u64)>,
    pub rush: Option<&'static str>,
}

impl Order {
    pub fn random(rng: &mut Rng, index: u64) -> Order {
        Order {
            id: format!("o{index}"),
            region: REGIONS[rng.below(4) as usize],
            customer: rng.below(5000),
            tier: (!rng.chance(0.01)).then(|| TIERS[rng.below(3) as usize]),
            items: (0..rng.range(4, 12))
                .map(|_| (rng.below(10_000), rng.range(1, 9), rng.range(1, 500)))
                .collect(),
            rush: rng.chance(0.10).then(|| DAYS[rng.below(5) as usize]),
        }
    }

    pub fn to_xml(&self, rng: &mut Rng) -> String {
        let mut x = String::with_capacity(1400);
        write!(
            x,
            "<order id=\"{}\" region=\"{}\" priority=\"{}\">",
            self.id,
            self.region,
            rng.below(4)
        )
        .unwrap();
        write!(
            x,
            "<customer><id>c{}</id><name>Customer {}</name>",
            self.customer, self.customer
        )
        .unwrap();
        if let Some(tier) = self.tier {
            write!(x, "<tier>{tier}</tier>").unwrap();
        }
        x.push_str("</customer><items>");
        for (sku, qty, price) in &self.items {
            write!(
                x,
                "<item sku=\"s{sku}\"><qty>{qty}</qty><price>{price}</price><desc>"
            )
            .unwrap();
            for w in 0..4 {
                if w > 0 {
                    x.push(' ');
                }
                x.push_str(WORDS[rng.below(8) as usize]);
            }
            x.push_str("</desc></item>");
        }
        x.push_str("</items>");
        if let Some(by) = self.rush {
            write!(x, "<rush by=\"{by}\"/>").unwrap();
        }
        x.push_str("<note>deliver to dock ");
        write!(x, "{}", rng.below(40)).unwrap();
        x.push_str(" between nine and five, call ahead</note></order>");
        x
    }

    /// What the six rules produce for this order, written from the rule
    /// texts and not from the engine.
    pub fn predict(&self, out: &mut Expected) {
        let id = &self.id;
        let total: u64 = self.items.iter().map(|(_, q, p)| q * p).sum();
        let lines = self.items.len() as u64;
        // A rule that fails aborts the message's whole transaction: the
        // other rules' enqueues are dropped and only the error is routed.
        let Some(tier) = self.tier else {
            return expect(out, "ruleErrors", format!("schemaViolation price {id}"));
        };
        expect(
            out,
            "priced",
            format!(
                "<priced id=\"{id}\" region=\"{}\"><customer>c{}</customer><tier>{tier}</tier>\
             <total>{total}</total><lines>{lines}</lines></priced>",
                self.region, self.customer
            ),
        );
        expect(
            out,
            "invoices",
            format!(
                "<invoice id=\"{id}\" ref=\"{}-{}\"><amount>{total}</amount>\
             <perLine>{}</perLine></invoice>",
                self.region,
                &id[1..],
                total / lines
            ),
        );
        let bulky = self.items.iter().filter(|(_, q, _)| *q > 6).count();
        if bulky >= 2 {
            expect(out, "alerts", format!("<bulk id=\"{id}\" n=\"{bulky}\"/>"));
        }
        if self.region == "EU" && tier == "gold" {
            expect(
                out,
                "alerts",
                format!("<vip id=\"{id}\" name=\"CUSTOMER {}\"/>", self.customer),
            );
        }
        if let Some(by) = self.rush {
            let skus: Vec<String> = self.items.iter().map(|(s, _, _)| format!("s{s}")).collect();
            expect(
                out,
                "shipping",
                format!(
                    "<expedite id=\"{id}\" by=\"{by}\" sku=\"{}\"/>",
                    skus.join(" ")
                ),
            );
            expect(
                out,
                "invoices",
                format!("<shipment id=\"{id}\" skus=\"{}\"/>", skus.len()),
            );
        }
    }
}

/// `<error><schemaViolation/>…<rule>price</rule>…<order id="o7" …` →
/// `schemaViolation price o7`: the error body embeds a store message id
/// the model cannot know.
pub fn normalize_error(body: &str) -> String {
    let between = |open: &str, close: &str| {
        let start = body.find(open)? + open.len();
        Some(&body[start..start + body[start..].find(close)?])
    };
    let kind = between("<error><", "/>").unwrap_or("?");
    let rule = between("<rule>", "</rule>").unwrap_or("?");
    let order = between("<order id=\"", "\"").unwrap_or("?");
    format!("{kind} {rule} {order}")
}

pub struct RulesCpu {
    rng: Rng,
    next_index: u64,
    segment: usize,
    expected: Expected,
}

impl RulesCpu {
    pub fn new(seed: u64, scale: usize) -> RulesCpu {
        RulesCpu {
            rng: Rng::new(seed, 1),
            next_index: 0,
            segment: SEGMENT_ORDERS / scale,
            expected: Expected::new(),
        }
    }
}

impl Workload for RulesCpu {
    fn name(&self) -> &'static str {
        "rules_cpu"
    }

    fn threads(&self) -> usize {
        1
    }

    fn program(&self) -> &'static str {
        PROGRAM
    }

    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::Batch
    }

    fn open_with(&self, dir: &Path, sync: SyncPolicy) -> demaq::Result<Engine> {
        Server::builder()
            .program(PROGRAM)
            .dir(dir)
            .sync_policy(sync)
            .build()
            .map(|s| Engine::Single(Box::new(s)))
    }

    fn segment_msgs(&self) -> usize {
        self.segment
    }

    /// The whole segment is fed before the drain: a deep scheduler backlog.
    fn burst(&self) -> usize {
        self.segment
    }

    fn next_inputs(&mut self, n: usize, _burst: usize) -> Vec<Input> {
        (0..n)
            .map(|_| {
                let order = Order::random(&mut self.rng, self.next_index);
                self.next_index += 1;
                order.predict(&mut self.expected);
                Input {
                    queue: "orders",
                    xml: order.to_xml(&mut self.rng),
                    props: Vec::new(),
                }
            })
            .collect()
    }

    fn checked_queues(&self) -> &'static [&'static str] {
        &["priced", "shipping", "invoices", "alerts", "ruleErrors"]
    }

    fn take_expected(&mut self) -> Expected {
        std::mem::take(&mut self.expected)
    }

    fn normalize(&self, queue: &str, body: String) -> String {
        if queue == "ruleErrors" {
            normalize_error(&body)
        } else {
            body
        }
    }

    fn corpus(&self) -> Vec<String> {
        let mut rng = Rng::new(0xC0, 1);
        (0..256)
            .map(|i| Order::random(&mut rng, i).to_xml(&mut rng))
            .collect()
    }

    fn probe_conditions(&self) -> &'static [&'static str] {
        &[
            "/order/items/item",
            "sum(for $i in /order/items/item return $i/qty * $i/price)",
            "count(/order/items/item[qty > 6]) >= 2",
            "/order/@region = \"EU\" and /order/customer/tier = \"gold\"",
            "//rush",
            "string-join(/order/items/item/@sku, ' ')",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(out: &Expected, queue: &str) -> Vec<String> {
        let mut v: Vec<String> = out
            .get(queue)
            .into_iter()
            .flatten()
            .map(|(b, n)| format!("{n}x {b}"))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn model_matches_a_hand_worked_order() {
        // 7·10 + 8·5 + 1·3 = 113 over 3 lines → 37 per line; two items
        // with qty > 6; EU + gold → vip; rush → expedite + shipment.
        let order = Order {
            id: "o7".into(),
            region: "EU",
            customer: 42,
            tier: Some("gold"),
            items: vec![(1, 7, 10), (2, 8, 5), (3, 1, 3)],
            rush: Some("fri"),
        };
        let mut out = Expected::new();
        order.predict(&mut out);
        assert_eq!(
            bodies(&out, "priced"),
            ["1x <priced id=\"o7\" region=\"EU\"><customer>c42</customer><tier>gold</tier><total>113</total><lines>3</lines></priced>"]
        );
        assert_eq!(
            bodies(&out, "invoices"),
            [
                "1x <invoice id=\"o7\" ref=\"EU-7\"><amount>113</amount><perLine>37</perLine></invoice>",
                "1x <shipment id=\"o7\" skus=\"3\"/>"
            ]
        );
        assert_eq!(
            bodies(&out, "alerts"),
            [
                "1x <bulk id=\"o7\" n=\"2\"/>",
                "1x <vip id=\"o7\" name=\"CUSTOMER 42\"/>"
            ]
        );
        assert_eq!(
            bodies(&out, "shipping"),
            ["1x <expedite id=\"o7\" by=\"fri\" sku=\"s1 s2 s3\"/>"]
        );
        assert!(bodies(&out, "ruleErrors").is_empty());
    }

    #[test]
    fn an_order_the_schema_rejects_yields_only_its_error() {
        let order = Order {
            id: "o8".into(),
            region: "EU",
            customer: 1,
            tier: None,
            items: vec![(1, 9, 9), (2, 9, 9)],
            rush: Some("mon"),
        };
        let mut out = Expected::new();
        order.predict(&mut out);
        assert_eq!(bodies(&out, "ruleErrors"), ["1x schemaViolation price o8"]);
        assert_eq!(out.len(), 1, "{out:?}");
        let body = "<error><schemaViolation/><detail>x</detail><rule>price</rule><queue>orders</queue>\
                    <messageID>m2</messageID><initialMessage><order id=\"o8\" region=\"EU\"></order></initialMessage></error>";
        assert_eq!(normalize_error(body), "schemaViolation price o8");
        assert_eq!(normalize_error("<weird/>"), "? ? ?");
    }

    #[test]
    fn generated_orders_have_the_documented_shape() {
        let mut rng = Rng::new(5, 1);
        let orders: Vec<Order> = (0..2000).map(|i| Order::random(&mut rng, i)).collect();
        assert!(orders.iter().all(|o| (4..=12).contains(&o.items.len())));
        let invalid = orders.iter().filter(|o| o.tier.is_none()).count();
        assert!((5..=45).contains(&invalid), "~1 % invalid, got {invalid}");
        let size: usize = orders
            .iter()
            .map(|o| o.to_xml(&mut rng).len())
            .sum::<usize>()
            / orders.len();
        assert!((800..=1300).contains(&size), "mean order size {size} B");
    }

    #[test]
    fn fifty_orders_through_the_engine_match_the_model() {
        super::super::tests::engine_agrees_with_model("rules_cpu", 50, 50);
        // 300 orders make an invalid one (1 %) all but certain.
        super::super::tests::engine_agrees_with_model("rules_cpu", 300, 300);
    }
}
