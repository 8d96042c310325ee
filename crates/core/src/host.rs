//! The `qs:` function library (paper Sec. 3.4/3.5.2), exposed to rule
//! bodies through the XQuery engine's host-function hook.
//!
//! One [`QsHost`] serves one message: the queue's rules and the rules of
//! every slicing the message belongs to evaluate under it. It shares the
//! message's properties and queue name, and readers that the engine
//! builds once per server; a slicing rule only swaps in its slice
//! ([`SliceSlot::enter`]) before it runs.

use demaq_store::{Name, PropValue, Props, SliceId};
use demaq_xml::{Document, NodeRef, QName};
use demaq_xquery::{
    cast, AggId, AggSource, AggregateSpec, Atomic, Error as XqError, HostFunctions, Item, Sequence,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Convert a stored property value to an XQuery atomic.
pub fn prop_to_atomic(v: &PropValue) -> Atomic {
    match v {
        PropValue::Str(s) => Atomic::Str(s.clone()),
        PropValue::Int(i) => Atomic::Int(*i),
        PropValue::Bool(b) => Atomic::Bool(*b),
        PropValue::Double(d) => Atomic::Double(*d),
        PropValue::DateTime(ms) => Atomic::DateTime(*ms),
        PropValue::Duration(ms) => Atomic::Duration(*ms),
    }
}

/// Convert an XQuery atomic to a stored property value.
pub fn atomic_to_prop(a: Atomic) -> PropValue {
    match a {
        Atomic::Str(s) | Atomic::Untyped(s) => PropValue::Str(s),
        Atomic::Int(i) => PropValue::Int(i),
        Atomic::Bool(b) => PropValue::Bool(b),
        Atomic::Decimal(d) | Atomic::Double(d) => PropValue::Double(d),
        Atomic::DateTime(ms) => PropValue::DateTime(ms),
        Atomic::Duration(ms) => PropValue::Duration(ms),
        Atomic::QName(q) => PropValue::Str(q.lexical()),
    }
}

/// Cast a property value to the `xs:` type a QDL declaration names, with
/// the XQuery cast a rule's `xs:` constructor uses, so the two agree on
/// every value. A string moves through without a copy.
pub fn cast_prop(v: PropValue, ty: &str) -> Result<PropValue, String> {
    let a = match v {
        PropValue::Str(s) => Atomic::Str(s),
        other => prop_to_atomic(&other),
    };
    cast(a, ty).map(atomic_to_prop).map_err(|e| e.msg)
}

/// Reader giving rule evaluation access to queue contents: returns the
/// document roots of all retained messages of a queue.
pub type QueueReader = Arc<dyn Fn(&str) -> Result<Sequence, XqError> + Send + Sync>;

/// Reader of a slice's member documents: the slice's handle to the
/// document roots of its current members.
pub type SliceReader = Arc<dyn Fn(SliceId) -> Result<Sequence, XqError> + Send + Sync>;

/// Answer a recognized aggregate read (its catalog id and shape) from a
/// materialized cell. The last argument carries the firing rule's slice
/// when the read is over `qs:slice()`. `None` declines — the evaluator
/// falls back to the reference rescan.
pub type AggregateReader = Arc<
    dyn Fn(AggId, &AggregateSpec, Option<SliceId>) -> Option<Result<Sequence, XqError>>
        + Send
        + Sync,
>;

/// The slice context of the rule being evaluated (paper Sec. 3.5.2):
/// empty for rules on queues. Member documents load lazily, at most once
/// per rule: a body that never touches `qs:slice()`, or whose aggregate
/// reads the incremental registry answers, never pays the O(N) load.
#[derive(Default)]
pub struct SliceSlot(Mutex<Option<ActiveSlice>>);

struct ActiveSlice {
    slice: SliceId,
    /// Position of the slice key in the host's properties.
    key: usize,
    members: Option<Result<Sequence, XqError>>,
}

impl SliceSlot {
    /// A slot already in the slice `slice`, keyed by the host's property
    /// at position `key`.
    pub fn at(slice: SliceId, key: usize) -> SliceSlot {
        let slot = SliceSlot::default();
        slot.enter(slice, key);
        slot
    }

    /// Switch to the slice `slice`, keyed by the host's property at
    /// position `key`, for the next rule; its members load afresh.
    pub fn enter(&self, slice: SliceId, key: usize) {
        *self.0.lock() = Some(ActiveSlice {
            slice,
            key,
            members: None,
        });
    }

    /// The active slice and the position of its key.
    fn get(&self) -> Option<(SliceId, usize)> {
        let active = self.0.lock();
        active.as_ref().map(|a| (a.slice, a.key))
    }
}

/// Host functions for one message's rule evaluation.
pub struct QsHost {
    /// Document root of the triggering message.
    pub message: NodeRef,
    /// Properties of the triggering message (system + declared), shared
    /// with the store.
    pub properties: Props,
    /// Name of the queue containing the triggering message.
    pub queue_name: Name,
    pub queue_reader: QueueReader,
    pub slice_reader: SliceReader,
    /// Incremental aggregate registry hook; `None` when the host has no
    /// engine behind it, so every aggregate read rescans its members.
    pub agg_reader: Option<AggregateReader>,
    /// Master data collections (paper Sec. 3.5.2's `collection("crm")`).
    pub collections: Arc<HashMap<String, Vec<Arc<Document>>>>,
    /// Engine clock reading for `fn:current-dateTime()`.
    pub now_ms: i64,
    pub slice: SliceSlot,
}

impl QsHost {
    /// The active slice's key value.
    fn slice_key(&self) -> Option<&PropValue> {
        let (_, key) = self.slice.get()?;
        Some(&self.properties[key].1)
    }

    /// Document roots of the active slice's members, loaded at most once
    /// per rule.
    fn slice_members(&self) -> Result<Sequence, XqError> {
        let mut active = self.slice.0.lock();
        let Some(a) = active.as_mut() else {
            return Err(XqError::dynamic(
                "qs:slice() is only available in rules on slicings (paper Sec. 3.5.2)",
            ));
        };
        a.members
            .get_or_insert_with(|| (self.slice_reader)(a.slice))
            .clone()
    }
}

impl HostFunctions for QsHost {
    fn call(&self, name: &QName, args: &[Sequence]) -> Option<Result<Sequence, XqError>> {
        if name.prefix.as_deref() != Some("qs") {
            return None;
        }
        let arity = args.len();
        Some(match (name.local.as_str(), arity) {
            ("message", 0) => Ok(Sequence::one(self.message.clone())),
            ("queue", 1) => {
                let qname = match args[0].string_value() {
                    Ok(s) => s,
                    Err(e) => return Some(Err(e)),
                };
                (self.queue_reader)(&qname)
            }
            ("queue", 0) => Err(XqError::dynamic(
                "qs:queue() without arguments is only valid in rules on queues \
                 (the compiler injects the queue name)",
            )),
            ("property", 1) => {
                let pname = match args[0].string_value() {
                    Ok(s) => s,
                    Err(e) => return Some(Err(e)),
                };
                match demaq_store::types::prop(&self.properties, &pname) {
                    Some(v) => Ok(Sequence::one(prop_to_atomic(v))),
                    None => Ok(Sequence::empty()),
                }
            }
            ("queuename", 0) => Ok(Sequence::str(self.queue_name.to_string())),
            ("slice", 0) => self.slice_members(),
            ("slicekey", 0) => match self.slice_key() {
                Some(key) => Ok(Sequence::one(prop_to_atomic(key))),
                None => Err(XqError::dynamic(
                    "qs:slicekey() is only available in rules on slicings (paper Sec. 3.5.2)",
                )),
            },
            (other, n) => Err(XqError::unknown_function(format!(
                "unknown function qs:{other}#{n}"
            ))),
        })
    }

    fn aggregate(&self, id: AggId, spec: &AggregateSpec) -> Option<Result<Sequence, XqError>> {
        let rd = self.agg_reader.as_ref()?;
        match &spec.source {
            AggSource::Queue(_) => rd(id, spec, None),
            // Outside a slice context, decline: the fallback reproduces the
            // reference "qs:slice() is only available…" error.
            AggSource::Slice => {
                let (slice, _) = self.slice.get()?;
                rd(id, spec, Some(slice))
            }
        }
    }

    fn collection(&self, name: &str) -> Result<Sequence, XqError> {
        match self.collections.get(name) {
            Some(docs) => Ok(docs.iter().map(|d| Item::Node(d.root())).collect()),
            None => Err(XqError::dynamic(format!(
                "no collection `{name}` registered"
            ))),
        }
    }

    fn current_date_time_ms(&self) -> i64 {
        self.now_ms
    }
}

/// Minimal host used when evaluating property value expressions (they may
/// call `current-dateTime()` but have no queue context).
pub struct ClockHost {
    pub now_ms: i64,
}

impl HostFunctions for ClockHost {
    fn call(&self, _name: &QName, _args: &[Sequence]) -> Option<Result<Sequence, XqError>> {
        None
    }

    fn current_date_time_ms(&self) -> i64 {
        self.now_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_store::slice::SliceIndex;

    #[test]
    fn prop_atomic_roundtrip() {
        let values = vec![
            PropValue::Str("x".into()),
            PropValue::Int(-7),
            PropValue::Bool(true),
            PropValue::Double(2.5),
            PropValue::DateTime(1000),
            PropValue::Duration(500),
        ];
        for v in values {
            assert_eq!(atomic_to_prop(prop_to_atomic(&v)), v);
        }
    }

    #[test]
    fn cast_prop_types() {
        use PropValue::*;
        assert_eq!(cast_prop(Str("42".into()), "xs:integer"), Ok(Int(42)));
        assert_eq!(cast_prop(Int(1), "xs:boolean"), Ok(Bool(true)));
        assert_eq!(
            cast_prop(Str("false".into()), "xs:boolean"),
            Ok(Bool(false))
        );
        assert_eq!(cast_prop(Int(3), "xs:string"), Ok(Str("3".into())));
        assert_eq!(
            cast_prop(Str("PT5S".into()), "xs:dayTimeDuration"),
            Ok(Duration(5000))
        );
        assert!(cast_prop(Str("zap".into()), "xs:integer").is_err());
        assert!(cast_prop(Str("x".into()), "xs:nosuch").is_err());
        // Where this table and the XQuery cast used to differ, both now
        // give the XQuery answer. Strings render values the XQuery way…
        assert_eq!(
            cast_prop(Double(f64::INFINITY), "xs:string"),
            Ok(Str("INF".into()))
        );
        assert_eq!(cast_prop(Double(-0.0), "xs:string"), Ok(Str("0".into())));
        assert_eq!(
            cast_prop(DateTime(86_400_000), "xs:string"),
            Ok(Str("1970-01-02T00:00:00Z".into()))
        );
        assert_eq!(
            cast_prop(Duration(5000), "xs:string"),
            Ok(Str("PT5S".into()))
        );
        // …numbers cast to booleans and booleans to numbers…
        assert_eq!(cast_prop(Double(2.5), "xs:boolean"), Ok(Bool(true)));
        assert_eq!(cast_prop(Bool(true), "xs:double"), Ok(Double(1.0)));
        // …only `NaN`, `INF` and `-INF` spell a special double, and no
        // decimal…
        assert!(cast_prop(Str("NaN".into()), "xs:double").is_ok_and(|v| v != v));
        assert_eq!(
            cast_prop(Str("INF".into()), "xs:double"),
            Ok(Double(f64::INFINITY))
        );
        for bad in ["nan", "inf", "infinity"] {
            assert!(cast_prop(Str(bad.into()), "xs:double").is_err(), "{bad}");
        }
        assert!(cast_prop(Str("INF".into()), "xs:decimal").is_err());
        // …an integer is no date or duration, and untypedAtomic is a type.
        assert!(cast_prop(Int(1000), "xs:dateTime").is_err());
        assert!(cast_prop(Int(5000), "xs:dayTimeDuration").is_err());
        assert_eq!(cast_prop(Int(7), "xs:untypedAtomic"), Ok(Str("7".into())));
        // Unchanged: text that is no number, and a date as a number, fail.
        assert!(cast_prop(Str("abc".into()), "xs:double").is_err());
        assert!(cast_prop(DateTime(1), "xs:decimal").is_err());
    }

    #[test]
    fn qs_functions_through_host() {
        use demaq_xquery::{lower, parse_expr, DynamicContext, PlanEvaluator};
        let msg = demaq_xml::parse("<order><id>9</id></order>").unwrap();
        let inv = demaq_xml::parse("<invoice>55</invoice>").unwrap();
        let inv2 = inv.clone();
        let member = msg.clone();
        let mut idx = SliceIndex::new();
        let orders = idx.resolve("orders", &PropValue::Str("o9".into()));
        let host = QsHost {
            message: msg.root(),
            properties: vec![("orderID".into(), PropValue::Str("o9".into()))].into(),
            queue_name: "crm".into(),
            queue_reader: Arc::new(move |q| {
                if q == "invoices" {
                    Ok(Sequence::one(inv2.root()))
                } else {
                    Ok(Sequence::empty())
                }
            }),
            slice_reader: Arc::new(move |slice| {
                assert_eq!(slice, orders);
                Ok(Sequence::one(member.root()))
            }),
            agg_reader: None,
            collections: Arc::new(HashMap::new()),
            now_ms: 86_400_000,
            slice: SliceSlot::at(orders, 0),
        };
        let dctx = DynamicContext::new(Arc::new(host));
        let eval = |q: &str| {
            let plan = lower(&parse_expr(q).unwrap());
            let mut ev = PlanEvaluator::new(&dctx);
            ev.eval_with_context(&plan, msg.root()).unwrap().to_string()
        };
        assert_eq!(eval("qs:message()//id"), "9");
        assert_eq!(eval("string(qs:queue('invoices'))"), "55");
        assert_eq!(eval("qs:property('orderID')"), "o9");
        assert_eq!(eval("qs:property('nope')"), "");
        assert_eq!(eval("qs:queuename()"), "crm");
        assert_eq!(eval("qs:slicekey()"), "o9");
        assert_eq!(eval("count(qs:slice())"), "1");
        assert_eq!(eval("string(current-dateTime())"), "1970-01-02T00:00:00Z");
    }

    #[test]
    fn slice_functions_error_without_slice_context() {
        use demaq_xquery::{lower, parse_expr, DynamicContext, PlanEvaluator};
        let msg = demaq_xml::parse("<m/>").unwrap();
        let host = QsHost {
            message: msg.root(),
            properties: Vec::new().into(),
            queue_name: "q".into(),
            queue_reader: Arc::new(|_| Ok(Sequence::empty())),
            slice_reader: Arc::new(|_| Ok(Sequence::empty())),
            agg_reader: None,
            collections: Arc::new(HashMap::new()),
            now_ms: 0,
            slice: SliceSlot::default(),
        };
        let dctx = DynamicContext::new(Arc::new(host));
        let mut ev = PlanEvaluator::new(&dctx);
        let plan = lower(&parse_expr("qs:slice()").unwrap());
        assert!(ev.eval_with_context(&plan, msg.root()).is_err());
    }

    #[test]
    fn one_host_serves_every_slice_and_loads_members_once_per_rule() {
        use demaq_xquery::{lower, parse_expr, DynamicContext, PlanEvaluator};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let msg = demaq_xml::parse("<m/>").unwrap();
        let loads = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&loads);
        let mut idx = SliceIndex::new();
        let by_dev = idx.resolve("byDev", &PropValue::Str("d1".into()));
        let by_grp = idx.resolve("byGrp", &PropValue::Int(7));
        let host = Arc::new(QsHost {
            message: msg.root(),
            properties: vec![
                ("dev".into(), PropValue::Str("d1".into())),
                ("grp".into(), PropValue::Int(7)),
            ]
            .into(),
            queue_name: "q".into(),
            queue_reader: Arc::new(|_| Ok(Sequence::empty())),
            slice_reader: Arc::new(move |slice| {
                counted.fetch_add(1, Ordering::Relaxed);
                Ok(Sequence::str(if slice == by_dev {
                    "byDev=d1"
                } else {
                    "byGrp=7"
                }))
            }),
            agg_reader: None,
            collections: Arc::new(HashMap::new()),
            now_ms: 0,
            slice: SliceSlot::default(),
        });
        let dctx = DynamicContext::new(Arc::clone(&host) as _);
        let eval = |q: &str| {
            let plan = lower(&parse_expr(q).unwrap());
            let mut ev = PlanEvaluator::new(&dctx);
            ev.eval_with_context(&plan, msg.root())
                .map(|s| s.to_string())
        };
        assert!(
            eval("qs:slicekey()").is_err(),
            "no slice before a slicing rule"
        );
        host.slice.enter(by_dev, 0);
        assert_eq!(
            eval("(qs:slice(), qs:slice(), qs:slicekey())").unwrap(),
            "byDev=d1 byDev=d1 d1"
        );
        assert_eq!(loads.load(Ordering::Relaxed), 1, "loaded once for the rule");
        host.slice.enter(by_grp, 1);
        assert_eq!(eval("(qs:slice(), qs:slicekey())").unwrap(), "byGrp=7 7");
        host.slice.enter(by_grp, 1);
        assert_eq!(eval("qs:slice()").unwrap(), "byGrp=7");
        assert_eq!(loads.load(Ordering::Relaxed), 3, "each rule loads afresh");
    }
}
