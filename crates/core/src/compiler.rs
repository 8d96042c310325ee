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
//! Implemented rewrites:
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
//! The per-queue rules can also be *merged* into one canonical plan — a
//! sequence concatenating every body (benchmark E6 measures merged vs.
//! rule-at-a-time evaluation).

use demaq_analysis::extract_trigger_elements;
use demaq_qdl::{AppSpec, PropKind, RuleDecl};
use demaq_xml::sym::{self, Sym};
use demaq_xml::QName;
use demaq_xquery::{lower_in, AggCatalog, AggId, Error as XqError, Expr, Plan};
use std::sync::Arc;

/// A compiled, rewritten rule.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    pub name: String,
    /// Queue or slicing the rule is attached to.
    pub target: String,
    pub on_slicing: bool,
    pub error_queue: Option<String>,
    /// Rewritten body: what static analysis inspects, and what tests run
    /// through the reference `Evaluator` as the oracle for `plan`.
    pub body: Expr,
    /// The body lowered to a pre-resolved execution plan (interned name
    /// tests, slot-indexed variables, folded constants) — the only form
    /// the engine executes.
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

/// Compile one rule in the context of its application, numbering its
/// aggregate reads in the application's `catalog`.
pub fn compile_rule(
    rule: &RuleDecl,
    spec: &AppSpec,
    on_slicing: bool,
    catalog: &mut AggCatalog,
) -> Result<CompiledRule, XqError> {
    // The queue context for rewrites: rules on queues know their queue;
    // rules on slicings have no single queue (qs:queue() without an
    // argument is then an error caught at runtime).
    let queue_ctx: Option<&str> = if on_slicing {
        None
    } else {
        Some(rule.target.as_str())
    };

    let body = rewrite_body(rule.body.clone(), queue_ctx, spec);

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
    let (plan, aggregates) = lower_in(&body, catalog);

    Ok(CompiledRule {
        name: rule.name.clone(),
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
    })
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

/// Merge several rule bodies into the canonical per-queue plan: a sequence
/// expression concatenating all pending actions (paper Sec. 4.4.1). The
/// engine evaluates this once per message instead of once per rule.
pub fn merge_rules(rules: &[CompiledRule]) -> Option<Expr> {
    if rules.is_empty() {
        return None;
    }
    // Rules with distinct error queues cannot be merged without losing
    // error routing; fall back to rule-at-a-time in that case.
    if rules.iter().any(|r| r.error_queue.is_some()) {
        return None;
    }
    Some(Expr::Sequence(
        rules.iter().map(|r| r.body.clone()).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_qdl::parse_program;

    fn compile_first(src: &str) -> CompiledRule {
        let spec = parse_program(src).unwrap();
        let rule = spec.rules[0].clone();
        let on_slicing = spec.slicing(&rule.target).is_some();
        compile_rule(&rule, &spec, on_slicing, &mut AggCatalog::default()).unwrap()
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

    #[test]
    fn merged_plan_concatenates_bodies() {
        let spec = parse_program(
            r#"
            create queue q kind basic mode persistent
            create rule a for q if (//x) then do enqueue <a/> into q
            create rule b for q if (//y) then do enqueue <b/> into q
            "#,
        )
        .unwrap();
        let rules: Vec<CompiledRule> = spec
            .rules
            .iter()
            .map(|r| compile_rule(r, &spec, false, &mut AggCatalog::default()).unwrap())
            .collect();
        let merged = merge_rules(&rules).unwrap();
        assert!(matches!(merged, Expr::Sequence(ref v) if v.len() == 2));
        assert!(merge_rules(&[]).is_none());
    }

    #[test]
    fn rules_with_error_queues_not_merged() {
        let spec = parse_program(
            r#"
            create queue q kind basic mode persistent
            create queue eq kind basic mode persistent
            create rule a for q errorqueue eq if (//x) then do enqueue <a/> into q
            "#,
        )
        .unwrap();
        let rules: Vec<CompiledRule> = spec
            .rules
            .iter()
            .map(|r| compile_rule(r, &spec, false, &mut AggCatalog::default()).unwrap())
            .collect();
        assert!(merge_rules(&rules).is_none());
    }
}
