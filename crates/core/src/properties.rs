//! Property computation at message creation (paper Sec. 2.2).
//!
//! "Properties are key/value pairs, with unique names and a typed, atomic
//! value. They are determined during message creation and remain fixed
//! over the message's lifetime." Sources, in the paper's order:
//!
//! * **Explicit** — `with p value e` on `do enqueue` (rejected for `fixed`
//!   properties),
//! * **System** — set by the engine (creating rule, creation timestamp,
//!   sender of incoming gateway messages, connection handle),
//! * **Inherited** — copied from the triggering message,
//! * **Computed** — the declaration's `queue … value Expr` binding
//!   evaluated against the new message body.

use crate::app::CompiledApp;
use crate::host::{atomic_to_prop, cast_prop, ClockHost};
use demaq_qdl::PropKind;
use demaq_store::{Name, PropValue, Props};
use demaq_xml::NodeRef;
use demaq_xquery::{Atomic, DynamicContext, Plan, PlanEvaluator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

/// Process-global count of property bindings answered from the deploy-time
/// constant fold instead of re-evaluation (mirrored into each server's
/// registry as `demaq_core_prop_const_hits_total`).
static PROP_CONST_HITS: AtomicU64 = AtomicU64::new(0);

/// Current reading of the constant-binding hit counter.
pub fn prop_const_hits_total() -> u64 {
    PROP_CONST_HITS.load(Ordering::Relaxed)
}

/// Property computation failure (routed to error queues as an
/// application-program-related error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropError(pub String);

impl std::fmt::Display for PropError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "property error: {}", self.0)
    }
}
impl std::error::Error for PropError {}

/// Names reserved for system properties.
pub mod system {
    /// The provenance names (the creating rule, the parent and root
    /// message ids), which the store reads lineage from. An error message
    /// carries the failing rule as its creating rule.
    pub use demaq_store::provenance::{CREATING_RULE, PARENT_MSG, ROOT_MSG};

    /// Creation timestamp (xs:dateTime, engine clock).
    pub const CREATED_AT: &str = "createdAt";
    /// Sender address (incoming gateway messages).
    pub const SENDER: &str = "Sender";
    /// Connection handle for synchronous exchanges.
    pub const CONNECTION: &str = "connection";
    /// Comma-joined queues an error message's routing has already
    /// visited; the engine uses it to break error-queue cycles at
    /// runtime (Sec. 3.6 backstop). Every error message carries it.
    pub const ERROR_PATH: &str = "errorPath";

    /// Every system property name.
    pub(crate) const ALL: [&str; 7] = [
        CREATING_RULE,
        CREATED_AT,
        SENDER,
        CONNECTION,
        ERROR_PATH,
        PARENT_MSG,
        ROOT_MSG,
    ];

    /// The interned form of a system property name: a refcount bump, not
    /// an allocation. `name` must be one of the constants above.
    pub(crate) fn name(name: &'static str) -> super::Name {
        static NAMES: super::LazyLock<[super::Name; 7]> =
            super::LazyLock::new(|| ALL.map(super::Name::from));
        let at = ALL.iter().position(|n| *n == name);
        NAMES[at.expect("a system property name")].clone()
    }
}

/// The message id a provenance system property ([`system::PARENT_MSG`],
/// [`system::ROOT_MSG`]) carries, if the message has one.
pub(crate) fn lineage_prop(props: &[(Name, PropValue)], name: &str) -> Option<u64> {
    match demaq_store::types::prop(props, name) {
        Some(PropValue::Int(id)) => Some(*id as u64),
        _ => None,
    }
}

/// Compute the full property list for a message entering `queue`, once:
/// the list is shared from then on (see [`Props`]). Names are the
/// application's interned ones.
///
/// * `explicit` — values from `with … value …` clauses,
/// * `trigger_props` — the triggering message's properties (inheritance
///   source; `None` for external messages),
/// * `system_props` — engine-provided system properties.
pub fn compute_properties(
    app: &CompiledApp,
    queue: &str,
    msg_root: &NodeRef,
    explicit: &[(String, Atomic)],
    trigger_props: Option<&[(Name, PropValue)]>,
    system_props: Vec<(Name, PropValue)>,
    now_ms: i64,
) -> Result<Props, PropError> {
    let mut out: Vec<(Name, PropValue)> = Vec::with_capacity(system_props.len() + 2);
    let set = |out: &mut Vec<(Name, PropValue)>, name: &Name, v: PropValue| {
        if let Some(slot) = out.iter_mut().find(|(n, _)| n == name) {
            slot.1 = v;
        } else {
            out.push((Arc::clone(name), v));
        }
    };

    // System properties first; explicit values may not override them.
    for (n, v) in system_props {
        set(&mut out, &n, v);
    }

    // Built on the first binding evaluated.
    let mut dctx = None;

    // Declared properties relevant to this queue, in declaration order.
    for (prop, name) in app.spec.properties.iter().zip(&app.property_names) {
        let bound = app
            .prop_bindings
            .get(&prop.name)
            .and_then(|per_queue| per_queue.get(queue));
        if bound.is_none() && prop.kind != PropKind::Inherited {
            continue;
        }
        let mut eval_bound = || -> Result<Option<PropValue>, PropError> {
            let Some(plan) = bound else { return Ok(None) };
            if plan.as_const().is_some() {
                PROP_CONST_HITS.fetch_add(1, Ordering::Relaxed);
            }
            let dctx =
                dctx.get_or_insert_with(|| DynamicContext::new(Arc::new(ClockHost { now_ms })));
            eval_binding(dctx, plan, msg_root)
        };
        let explicit_value = explicit
            .iter()
            .find(|(n, _)| *n == prop.name)
            .map(|(_, a)| a);
        if explicit_value.is_some() && prop.kind == PropKind::Fixed {
            return Err(PropError(format!(
                "property `{}` is fixed and may not be set explicitly",
                prop.name
            )));
        }
        let raw: Option<PropValue> = if let Some(a) = explicit_value {
            Some(atomic_to_prop(a.clone()))
        } else if prop.kind == PropKind::Inherited {
            // Inherit from the trigger; fall back to the binding default.
            let inherited = trigger_props
                .and_then(|tp| demaq_store::types::prop(tp, &prop.name))
                .cloned();
            match inherited {
                Some(v) => Some(v),
                None => eval_bound()?,
            }
        } else {
            // Fixed properties are always computed; an explicit-kind
            // property without an explicit value takes the binding as its
            // default.
            eval_bound()?
        };
        if let Some(v) = raw {
            let typed = cast_prop(v, &prop.ty)
                .map_err(|e| PropError(format!("property `{}`: {e}", prop.name)))?;
            set(&mut out, name, typed);
        }
    }

    // Undeclared explicit properties are allowed as ad-hoc values (the
    // paper's Example 3.1 sets `Sender` without a declaration), and win
    // over a same-named system default — except the engine-owned ones,
    // which no explicit value sets: lineage is read from the provenance
    // properties, so a forged one would corrupt it.
    let engine_owned = [
        system::CREATING_RULE,
        system::CREATED_AT,
        system::PARENT_MSG,
        system::ROOT_MSG,
    ];
    for (name, a) in explicit {
        if app.properties.contains_key(name) || engine_owned.contains(&name.as_str()) {
            continue;
        }
        let v = atomic_to_prop(a.clone());
        match out.iter_mut().find(|(n, _)| **n == **name) {
            Some(slot) => slot.1 = v,
            None => out.push((name.as_str().into(), v)),
        }
    }

    Ok(out.into())
}

fn eval_binding(
    dctx: &DynamicContext,
    value: &Plan,
    msg_root: &NodeRef,
) -> Result<Option<PropValue>, PropError> {
    let seq = PlanEvaluator::new(dctx)
        .eval_with_context(value, msg_root.clone())
        .map_err(|e| PropError(format!("value expression failed: {e}")))?;
    Ok(seq.0.first().map(|item| atomic_to_prop(item.atomize())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::CompiledApp;
    use demaq_qdl::parse_program;
    use std::collections::HashMap;

    fn app(src: &str) -> CompiledApp {
        CompiledApp::compile(parse_program(src).unwrap(), &HashMap::new()).unwrap()
    }

    const PROGRAM: &str = r#"
        create queue order kind basic mode persistent
        create queue confirmation kind basic mode persistent
        create property orderID as xs:string fixed
            queue order value //orderID
            queue confirmation value /confirmedOrder/ID
        create property isVIPorder as xs:boolean inherited
            queue order, confirmation value false
        create property amount as xs:integer
            queue order value //total
    "#;

    fn root(xml: &str) -> NodeRef {
        demaq_xml::parse(xml).unwrap().root()
    }

    #[test]
    fn computed_fixed_property() {
        let app = app(PROGRAM);
        let msg = root("<order><orderID>o-1</orderID><total>5</total></order>");
        let props = compute_properties(&app, "order", &msg, &[], None, vec![], 0).unwrap();
        assert!(props.contains(&("orderID".into(), PropValue::Str("o-1".into()))));
        assert!(props.contains(&("amount".into(), PropValue::Int(5))));
        assert!(props.contains(&("isVIPorder".into(), PropValue::Bool(false))));
    }

    #[test]
    fn per_queue_computed_values_differ() {
        let app = app(PROGRAM);
        let msg = root("<confirmedOrder><ID>c-9</ID></confirmedOrder>");
        let props = compute_properties(&app, "confirmation", &msg, &[], None, vec![], 0).unwrap();
        assert!(props.contains(&("orderID".into(), PropValue::Str("c-9".into()))));
    }

    #[test]
    fn fixed_rejects_explicit() {
        let app = app(PROGRAM);
        let msg = root("<order><orderID>o</orderID></order>");
        let explicit = vec![("orderID".to_string(), Atomic::Str("forged".into()))];
        let err = compute_properties(&app, "order", &msg, &explicit, None, vec![], 0).unwrap_err();
        assert!(err.0.contains("fixed"));
    }

    #[test]
    fn inherited_property_propagates() {
        let app = app(PROGRAM);
        let msg = root("<order><orderID>o</orderID></order>");
        let trigger = vec![("isVIPorder".into(), PropValue::Bool(true))];
        let props =
            compute_properties(&app, "order", &msg, &[], Some(&trigger), vec![], 0).unwrap();
        assert!(props.contains(&("isVIPorder".into(), PropValue::Bool(true))));
    }

    #[test]
    fn explicit_overrides_inheritance() {
        // Paper: "automatically propagated … if not explicitly set to a
        // different value".
        let app = app(PROGRAM);
        let msg = root("<order/>");
        let trigger = vec![("isVIPorder".into(), PropValue::Bool(true))];
        let explicit = vec![("isVIPorder".to_string(), Atomic::Bool(false))];
        let props =
            compute_properties(&app, "order", &msg, &explicit, Some(&trigger), vec![], 0).unwrap();
        assert!(props.contains(&("isVIPorder".into(), PropValue::Bool(false))));
    }

    #[test]
    fn missing_path_value_leaves_property_absent() {
        let app = app(PROGRAM);
        let msg = root("<order><nothing/></order>");
        let props = compute_properties(&app, "order", &msg, &[], None, vec![], 0).unwrap();
        assert!(!props.iter().any(|(n, _)| &**n == "orderID"));
    }

    #[test]
    fn type_cast_failure_is_an_error() {
        let app = app(PROGRAM);
        let msg = root("<order><total>not-a-number</total></order>");
        let err = compute_properties(&app, "order", &msg, &[], None, vec![], 0).unwrap_err();
        assert!(err.0.contains("amount"));
    }

    #[test]
    fn undeclared_explicit_properties_allowed() {
        let app = app(PROGRAM);
        let msg = root("<order/>");
        let explicit = vec![("Sender".to_string(), Atomic::Str("http://x/".into()))];
        let props = compute_properties(&app, "order", &msg, &explicit, None, vec![], 0).unwrap();
        assert!(props.contains(&("Sender".into(), PropValue::Str("http://x/".into()))));
    }

    #[test]
    fn constant_bindings_fold_at_deploy_time() {
        let app = app(PROGRAM);
        // `isVIPorder … value false` is a constant binding: folded once at
        // compile, reused per enqueue.
        let folded = app.prop_bindings["isVIPorder"]["order"].as_const();
        assert_eq!(folded.map(|seq| seq.to_string()).as_deref(), Some("false"));
        // Path-valued bindings are not constants.
        assert!(app.prop_bindings["orderID"]["order"].as_const().is_none());
        assert!(app.prop_bindings["amount"]["order"].as_const().is_none());
        let before = prop_const_hits_total();
        let msg = root("<order><orderID>o</orderID></order>");
        let props = compute_properties(&app, "order", &msg, &[], None, vec![], 0).unwrap();
        assert!(props.contains(&("isVIPorder".into(), PropValue::Bool(false))));
        assert!(
            prop_const_hits_total() > before,
            "constant binding must be served from the fold"
        );
    }

    #[test]
    fn system_properties_present() {
        let app = app(PROGRAM);
        let msg = root("<order/>");
        let sys = vec![
            (
                system::name(system::CREATING_RULE),
                PropValue::Str("r1".into()),
            ),
            (system::name(system::CREATED_AT), PropValue::DateTime(123)),
        ];
        let props = compute_properties(&app, "order", &msg, &[], None, sys, 0).unwrap();
        assert!(props.contains(&("creatingRule".into(), PropValue::Str("r1".into()))));
        assert!(props.contains(&("createdAt".into(), PropValue::DateTime(123))));
    }
}
