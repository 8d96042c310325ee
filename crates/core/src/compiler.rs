//! The rule compiler (paper Sec. 4.4.1).
//!
//! "On deployment of an application, the rule compiler is used to compile
//! the application's rule set into execution plans. … Rewriting includes
//! supplying default parameters to functions which depend on the current
//! queue (such as `qs:queue()`). Similar to conventional view merging,
//! fixed properties are inlined. … After rewriting, the rule bodies are
//! combined into a single query by concatenating all pending actions into
//! a single sequence."
//!
//! The stages are *compile* → *lower* → *share*. Compile rewrites each
//! body:
//! 1. **Default-parameter injection** — `qs:queue()` → `qs:queue("q")`
//!    where `q` is the rule's queue.
//! 2. **Fixed-property inlining** — `qs:property("p")` where `p` is a
//!    `fixed` property with a computed value on the rule's queue becomes
//!    the value expression applied to `qs:message()` (view merging); other
//!    property reads stay runtime lookups.
//! 3. **Static analysis** — the read set (queues named in `qs:queue(…)` /
//!    `collection(…)`) and write set (enqueue targets) are extracted for
//!    lock acquisition; the trigger's root-element filter (`//name` in the
//!    rule condition) is extracted so the engine can skip rules that cannot
//!    match (the "XML filtering" opportunity the paper cites).
//!
//! Lower and share happen together, per queue. Where the paper
//! concatenates a queue's bodies into one query, the bodies here stay
//! apart, so each rule keeps its trigger pre-filter, its error queue and
//! its profile, but they are lowered against one table of the
//! message-only subexpressions they share (`demaq_xquery::share`). The
//! engine evaluates every rule of a message with one evaluator, which
//! computes each table entry at most once per message.

use demaq_analysis::extract_trigger_elements;
use demaq_qdl::{AppSpec, PropKind, RuleDecl};
use demaq_store::Name;
use demaq_xml::sym::{self, Sym};
use demaq_xml::QName;
use demaq_xquery::{lower_in, lower_rules, AggCatalog, AggId, Expr, Plan};
use std::sync::Arc;

/// A compiled, rewritten rule.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    pub name: Name,
    /// Queue or slicing the rule is attached to.
    pub target: String,
    pub on_slicing: bool,
    pub error_queue: Option<String>,
    /// Rewritten body: what static analysis inspects, and what tests run
    /// through the reference `Evaluator` as the oracle for `plan`.
    pub body: Expr,
    /// The body lowered to a pre-resolved execution plan (interned name
    /// tests, slot-indexed variables, folded constants) — the only form
    /// the engine executes. On a queue its [`Plan::Shared`] nodes index
    /// the queue's table (`CompiledQueue::shared`).
    pub plan: Arc<Plan>,
    /// Catalog ids of the recognized aggregate reads in `plan`.
    pub aggregates: Vec<AggId>,
    /// Queues read via `qs:queue("…")` (lock read-set).
    pub reads_queues: Vec<String>,
    /// Queues written via `do enqueue … into …` (lock write-set).
    pub writes_queues: Vec<String>,
    /// Root-element names the trigger condition requires (`//name` or
    /// `/name` in the `if` condition); `None` = cannot pre-filter.
    pub trigger_elements: Option<Vec<String>>,
    /// Interned counterparts of `trigger_elements`, probed with
    /// `Document::has_element`.
    pub trigger_syms: Option<Vec<Sym>>,
}

/// Compile the rules of one target, in program order, in the context of
/// their application, numbering their aggregate reads in `catalog`. A
/// queue's rules are lowered against the table of subexpressions they
/// share, which is returned beside them. A slicing's rules each run in a
/// slice context of their own and share nothing: their table is empty.
pub fn compile_rules(
    rules: &[&RuleDecl],
    spec: &AppSpec,
    on_slicing: bool,
    catalog: &mut AggCatalog,
) -> (Vec<CompiledRule>, Arc<[Plan]>) {
    // The queue context for rewrites: rules on queues know their queue;
    // rules on slicings have no single queue (qs:queue() without an
    // argument is then an error caught at runtime).
    let bodies: Vec<Expr> = rules
        .iter()
        .map(|r| {
            let queue_ctx = (!on_slicing).then_some(r.target.as_str());
            rewrite_body(r.body.clone(), queue_ctx, spec)
        })
        .collect();
    let (plans, shared) = if on_slicing {
        let plans = bodies.iter().map(|b| lower_in(b, catalog)).collect();
        (plans, Vec::new())
    } else {
        lower_rules(&bodies, catalog)
    };
    let compiled = rules
        .iter()
        .zip(bodies)
        .zip(plans)
        .map(|((rule, body), (plan, aggregates))| {
            analyze_rule(rule, on_slicing, body, plan, aggregates)
        })
        .collect();
    (compiled, shared.into())
}

/// Extract what the engine needs besides the plan from one rewritten rule.
fn analyze_rule(
    rule: &RuleDecl,
    on_slicing: bool,
    body: Expr,
    plan: Plan,
    aggregates: Vec<AggId>,
) -> CompiledRule {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    body.visit(&mut |e| match e {
        Expr::FunctionCall { name, args }
            if name.prefix.as_deref() == Some("qs") && name.local == "queue" =>
        {
            if let Some(Expr::StringLit(q)) = args.first() {
                reads.push(q.clone());
            }
        }
        Expr::Enqueue { queue, .. } => writes.push(queue.local.clone()),
        _ => {}
    });
    reads.sort();
    reads.dedup();
    writes.sort();
    writes.dedup();

    let trigger_elements = extract_trigger_elements(&body);
    let trigger_syms = trigger_elements
        .as_ref()
        .map(|names| names.iter().map(|n| sym::intern(n)).collect());

    CompiledRule {
        name: rule.name.as_str().into(),
        target: rule.target.clone(),
        on_slicing,
        error_queue: rule.error_queue.clone(),
        body,
        plan: Arc::new(plan),
        aggregates,
        reads_queues: reads,
        writes_queues: writes,
        trigger_elements,
        trigger_syms,
    }
}

/// Apply the compiler rewrites to a rule body.
fn rewrite_body(body: Expr, queue_ctx: Option<&str>, spec: &AppSpec) -> Expr {
    body.rewrite(&|e| match e {
        // Rewrite 1: qs:queue() -> qs:queue("<current queue>").
        Expr::FunctionCall { name, args }
            if name.prefix.as_deref() == Some("qs") && name.local == "queue" && args.is_empty() =>
        {
            match queue_ctx {
                Some(q) => Expr::FunctionCall {
                    name,
                    args: vec![Expr::StringLit(q.to_string())],
                },
                None => Expr::FunctionCall { name, args },
            }
        }
        // Rewrite 2: qs:property("p") for a fixed property with a binding on
        // the current queue -> the binding's value expression evaluated
        // against qs:message() (view merging).
        Expr::FunctionCall { name, args }
            if name.prefix.as_deref() == Some("qs")
                && name.local == "property"
                && args.len() == 1 =>
        {
            if let (Some(queue), Some(Expr::StringLit(pname))) = (queue_ctx, args.first()) {
                if let Some(prop) = spec.property(pname) {
                    if prop.kind == PropKind::Fixed {
                        if let Some(binding) = prop
                            .bindings
                            .iter()
                            .find(|b| b.queues.iter().any(|q| q == queue))
                        {
                            return rebase_on_message(binding.value.clone());
                        }
                    }
                }
            }
            Expr::FunctionCall { name, args }
        }
        other => other,
    })
}

/// Wrap a property value expression so its paths are evaluated against the
/// triggering message regardless of the surrounding evaluation context:
/// `//orderID` becomes `qs:message()//orderID`.
fn rebase_on_message(value: Expr) -> Expr {
    match value {
        Expr::Path { root: true, steps } => {
            let msg = Expr::FunctionCall {
                name: QName::parse_lexical("qs:message").expect("static name"),
                args: vec![],
            };
            let mut new_steps = steps;
            new_steps.insert(
                0,
                Expr::Filter {
                    base: Box::new(msg),
                    predicates: vec![],
                },
            );
            // Re-rooting: evaluate the steps relative to the message node.
            Expr::Path {
                root: false,
                steps: new_steps,
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_qdl::parse_program;

    fn compile_all(src: &str) -> (Vec<CompiledRule>, Arc<[Plan]>) {
        let spec = parse_program(src).unwrap();
        let rules: Vec<&RuleDecl> = spec.rules.iter().collect();
        let on_slicing = spec.slicing(&rules[0].target).is_some();
        compile_rules(&rules, &spec, on_slicing, &mut AggCatalog::default())
    }

    fn compile_first(src: &str) -> CompiledRule {
        compile_all(src).0.remove(0)
    }

    #[test]
    fn qs_queue_default_argument_injected() {
        let r = compile_first(
            r#"
            create queue finance kind basic mode persistent
            create rule checkPayment for finance
              if (//timeoutNotification) then
                do enqueue <reminder>{ qs:queue()[/paymentConfirmation] }</reminder> into finance
            "#,
        );
        let mut saw = false;
        r.body.visit(&mut |e| {
            if let Expr::FunctionCall { name, args } = e {
                if name.local == "queue" {
                    assert_eq!(args.len(), 1, "default argument injected");
                    assert!(matches!(&args[0], Expr::StringLit(s) if s == "finance"));
                    saw = true;
                }
            }
        });
        assert!(saw);
        assert_eq!(r.reads_queues, ["finance"]);
        assert_eq!(r.writes_queues, ["finance"]);
    }

    #[test]
    fn fixed_property_inlined() {
        let r = compile_first(
            r#"
            create queue order kind basic mode persistent
            create property orderID as xs:string fixed
              queue order value //orderID
            create rule tag for order
              if (//order) then
                do enqueue <t>{ qs:property("orderID") }</t> into order
            "#,
        );
        // The property call is gone; the value expr (rooted at
        // qs:message()) took its place.
        let mut prop_calls = 0;
        let mut message_calls = 0;
        r.body.visit(&mut |e| {
            if let Expr::FunctionCall { name, .. } = e {
                match name.local.as_str() {
                    "property" => prop_calls += 1,
                    "message" => message_calls += 1,
                    _ => {}
                }
            }
        });
        assert_eq!(prop_calls, 0, "fixed property was inlined");
        assert!(
            message_calls >= 1,
            "inlined expression is rebased on qs:message()"
        );
    }

    #[test]
    fn non_fixed_property_not_inlined() {
        let r = compile_first(
            r#"
            create queue q kind basic mode persistent
            create property vip as xs:boolean inherited queue q value false
            create rule check for q
              if (qs:property("vip") = true()) then do enqueue <v/> into q
            "#,
        );
        let mut prop_calls = 0;
        r.body.visit(&mut |e| {
            if let Expr::FunctionCall { name, .. } = e {
                if name.local == "property" {
                    prop_calls += 1;
                }
            }
        });
        assert_eq!(prop_calls, 1, "inherited properties stay runtime lookups");
    }

    #[test]
    fn trigger_elements_extracted() {
        let r = compile_first(
            r#"
            create queue crm kind basic mode persistent
            create rule newOfferRequest for crm
              if (//offerRequest) then do enqueue <x/> into crm
            "#,
        );
        assert_eq!(r.trigger_elements, Some(vec!["offerRequest".into()]));
    }

    #[test]
    fn trigger_extraction_is_conservative() {
        let r = compile_first(
            r#"
            create queue crm kind basic mode persistent
            create rule complex for crm
              if (count(//a) > 3) then do enqueue <x/> into crm
            "#,
        );
        assert_eq!(
            r.trigger_elements, None,
            "function conditions are not pre-filtered"
        );
    }

    #[test]
    fn trigger_or_requires_both_sides() {
        let r = compile_first(
            r#"
            create queue crm kind basic mode persistent
            create rule either for crm
              if (//offer or //refusal) then do enqueue <x/> into crm
            "#,
        );
        let mut t = r.trigger_elements.unwrap();
        t.sort();
        assert_eq!(t, ["offer", "refusal"]);
    }

    fn shared_reads(plan: &Plan) -> usize {
        format!("{plan:?}").matches("Shared(").count()
    }

    #[test]
    fn a_queue_shares_message_paths_across_rules() {
        let (rules, shared) = compile_all(
            r#"
            create queue q kind basic mode persistent
            create queue eq kind basic mode persistent
            create rule a for q errorqueue eq
              if (//x) then do enqueue <a n="{count(/m/i[q > 6])}"/> into q
            create rule b for q
              if (count(/m/i[q > 6]) > 1) then do enqueue <b/> into q
            "#,
        );
        assert_eq!(shared.len(), 1, "{shared:?}");
        assert_eq!(shared_reads(&rules[0].plan), 1);
        assert_eq!(shared_reads(&rules[1].plan), 1);
        // Each rule keeps what the engine needs to treat it on its own.
        assert_eq!(rules[0].error_queue.as_deref(), Some("eq"));
        assert_eq!(rules[0].trigger_elements, Some(vec!["x".into()]));
    }

    #[test]
    fn slicing_rules_share_nothing() {
        let (rules, shared) = compile_all(
            r#"
            create queue q kind basic mode persistent
            create property k as xs:string fixed queue q value //k
            create slicing byK on k
            create rule a for byK
              if (count(/m/i) > 1) then do enqueue <a n="{count(/m/i)}"/> into q
            "#,
        );
        assert!(shared.is_empty());
        assert_eq!(shared_reads(&rules[0].plan), 0);
    }
}
