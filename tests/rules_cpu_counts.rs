//! Deterministic work counts for the `rules_cpu` benchmark workload.
//!
//! The program and the order generator are re-declared here (the benchmark
//! package exposes no library), and 200 orders from a fixed seed run
//! through one single-threaded server. Rule evaluation is counted in path
//! steps, one per (step, context node) pair of a full path evaluation,
//! which do not depend on the host: the test pins the count per order and
//! checks that two runs agree exactly.
//!
//! It also recomputes what the same messages cost when every rule runs
//! its own standalone plan (no shared subexpressions), the evaluation each
//! queue's rules got before they shared a table, and pins that too.
//!
//! A counting allocator (see `counting`) pins the heap allocations and
//! bytes of feeding the orders and of draining them, on the test's own
//! thread; a first run goes before the two compared.

mod counting;

use counting::{Allocs, Counting};
use demaq::Server;
use demaq_store::store::SyncPolicy;
use demaq_xquery::{lower, DynamicContext, PlanEvaluator};

#[global_allocator]
static ALLOC: Counting = Counting;

/// `demaq-benchmark/src/workloads/rules_cpu.rs`'s program, verbatim.
const PROGRAM: &str = r#"
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

const ORDERS: u64 = 200;
const SEED: u64 = 0x5EED_0032;

/// Path steps for the 200 orders with each queue's shared subexpressions:
/// 70.31 per order.
const SHARED_STEPS: u64 = 14_062;
/// The same with every rule on its own plan: 90.55 per order.
const UNSHARED_STEPS: u64 = 18_110;

/// Allocations and bytes feeding the 200 orders: 23.62 allocations per
/// order. Before properties, names, the rule host and the lock plan were
/// shared, 31.62 (6 323 allocations, 1 699 781 bytes); before lineage was
/// read from the enqueue, 1 646 998 bytes (a message's enqueue LSN costs
/// its map entry 16 bytes).
const ALLOCS_INGEST: Allocs = Allocs {
    count: 4_723,
    bytes: 1_648_694,
};
/// Allocations and bytes draining them: 128.18 per order, against 351.38
/// before rule evaluation allocated for its output only (70 276
/// allocations, 9 771 071 bytes): a sequence holds zero or one item
/// inline, nested constructors build one document, and `do enqueue` takes
/// a fresh construction as the message. Earlier it was 469.55 before
/// properties, names, the rule host and the lock plan were shared
/// (93 910 allocations, 10 989 340 bytes), and 354.86 before lineage was
/// read from the enqueue and a failed order's mark and error became one
/// transaction (70 971 allocations, 10 032 971 bytes).
const ALLOCS_PROCESSING: Allocs = Allocs {
    count: 25_636,
    bytes: 4_094_176,
};

/// splitmix64: a fixed, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One purchase order of the workload's shape: 4–11 items, ~1 % without
/// a tier (the `priced` schema rejects those), ~10 % rush.
fn order_xml(rng: &mut Rng, index: u64) -> String {
    const REGIONS: [&str; 4] = ["EU", "US", "APAC", "LATAM"];
    const TIERS: [&str; 3] = ["gold", "silver", "bronze"];
    const DAYS: [&str; 5] = ["mon", "tue", "wed", "thu", "fri"];
    let region = REGIONS[rng.below(4) as usize];
    let customer = rng.below(5000);
    let mut x = format!(
        "<order id=\"o{index}\" region=\"{region}\" priority=\"{}\">\
         <customer><id>c{customer}</id><name>Customer {customer}</name>",
        rng.below(4)
    );
    if rng.below(100) != 0 {
        x.push_str(&format!("<tier>{}</tier>", TIERS[rng.below(3) as usize]));
    }
    x.push_str("</customer><items>");
    for _ in 0..4 + rng.below(8) {
        x.push_str(&format!(
            "<item sku=\"s{}\"><qty>{}</qty><price>{}</price><desc>part</desc></item>",
            rng.below(10_000),
            1 + rng.below(8),
            1 + rng.below(499)
        ));
    }
    x.push_str("</items>");
    if rng.below(10) == 0 {
        x.push_str(&format!("<rush by=\"{}\"/>", DAYS[rng.below(5) as usize]));
    }
    x.push_str("<note>deliver to dock between nine and five</note></order>");
    x
}

/// Work counts of one run: path steps, shared evaluations, shared
/// reuses, path steps of standalone plans, and the allocations made
/// feeding the orders and draining them.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    steps: u64,
    shared_evals: u64,
    shared_reuses: u64,
    unshared_steps: u64,
    ingest: Allocs,
    processing: Allocs,
}

/// Feed the orders and drain.
fn run() -> Counts {
    let server = Server::builder()
        .program(PROGRAM)
        .in_memory()
        .sync_policy(SyncPolicy::Batch)
        .build()
        .unwrap();
    let mut rng = Rng(SEED);
    let orders: Vec<String> = (0..ORDERS).map(|i| order_xml(&mut rng, i)).collect();
    let ((), ingest) = Allocs::during(|| {
        for xml in &orders {
            server.enqueue_external("orders", xml).unwrap();
        }
    });
    let (_, processing) = Allocs::during(|| server.run_until_idle().unwrap());
    let counter = |name| server.metrics().registry.counter_total(name);

    // Every processed message again, each triggered rule on a plan of its
    // own, as the engine's pre-filter would pick them.
    let dctx = DynamicContext::default();
    let mut unshared = 0;
    for (queue, cq) in &server.app().queues {
        let plans: Vec<_> = cq.rules.iter().map(|r| lower(&r.body)).collect();
        for m in server.queue_messages(queue).unwrap() {
            assert!(m.processed);
            let doc = demaq_xml::parse(&m.payload).unwrap();
            for (rule, plan) in cq.rules.iter().zip(&plans) {
                let triggered = rule
                    .trigger_syms
                    .as_ref()
                    .is_none_or(|syms| syms.iter().any(|&s| doc.has_element(s)));
                if triggered {
                    let mut ev = PlanEvaluator::new(&dctx);
                    ev.eval_with_context(plan, doc.root()).unwrap();
                    unshared += ev.counts.path_steps;
                }
            }
        }
    }
    Counts {
        steps: counter("demaq_xquery_path_steps_total"),
        shared_evals: counter("demaq_xquery_shared_evals_total"),
        shared_reuses: counter("demaq_xquery_shared_reuses_total"),
        unshared_steps: unshared,
        ingest,
        processing,
    }
}

#[test]
fn rules_cpu_path_steps_per_order_are_pinned() {
    let counts = run();
    let steps = |c: &Counts| (c.steps, c.shared_evals, c.shared_reuses, c.unshared_steps);
    assert_eq!(steps(&run()), steps(&counts), "counts repeat exactly");
    let per_order = |n: u64| n as f64 / ORDERS as f64;
    println!(
        "path steps per order: shared {:.2}, standalone {:.2}; shared evals {}, reuses {}",
        per_order(counts.steps),
        per_order(counts.unshared_steps),
        counts.shared_evals,
        counts.shared_reuses,
    );
    assert!(counts.shared_reuses > 0);
    assert_eq!(
        (counts.steps, counts.unshared_steps),
        (SHARED_STEPS, UNSHARED_STEPS)
    );
}

#[test]
fn rules_cpu_allocations_per_order_are_pinned() {
    // A first run goes before the two compared: what the process sets up
    // once (its name pool, say) is charged to no order.
    run();
    let counts = run();
    assert_eq!(run(), counts, "counts repeat exactly");
    let (ingest, processing) = (counts.ingest, counts.processing);
    println!(
        "allocations per order: {:.2} ingest + {:.2} processing, {:.0} + {:.0} bytes",
        ingest.per(ORDERS).0,
        processing.per(ORDERS).0,
        ingest.per(ORDERS).1,
        processing.per(ORDERS).1,
    );
    assert_eq!((ingest, processing), (ALLOCS_INGEST, ALLOCS_PROCESSING));
}
