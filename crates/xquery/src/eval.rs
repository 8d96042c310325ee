//! Dynamic evaluation of expression trees.
//!
//! The evaluator is snapshot-semantic: it reads the XML tree(s) and the
//! dynamic context, never mutating them; updating expressions append to a
//! pending update list ([`Evaluator::updates`]) that the caller applies
//! afterwards — exactly the separation of rule evaluation from action
//! execution that the Demaq execution model prescribes (paper Sec. 3.1).

use crate::ast::*;
use crate::context::{DynamicContext, StaticContext};
use crate::error::{Error, Result};
use crate::functions;
use crate::update::Update;
use crate::value::{parse_date_time, parse_duration, Atomic, Item, Sequence};
use demaq_xml::{DocBuilder, Document, NodeId, NodeKind, NodeRef, QName};
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::sync::Arc;

/// The focus: context item, position, and size (XPath `.`/`position()`/
/// `last()`).
#[derive(Clone)]
pub struct Focus {
    pub item: Item,
    pub pos: usize,
    pub size: usize,
}

impl Focus {
    pub fn solo(item: impl Into<Item>) -> Focus {
        Focus {
            item: item.into(),
            pos: 1,
            size: 1,
        }
    }
}

/// Expression evaluator. Create one per query evaluation; collect
/// [`Evaluator::updates`] afterwards when evaluating updating expressions.
pub struct Evaluator<'a> {
    #[allow(dead_code)]
    sctx: &'a StaticContext,
    pub(crate) dctx: &'a DynamicContext,
    /// Lexically scoped variable bindings (FLWOR/quantifier vars).
    vars: Vec<(String, Sequence)>,
    /// Pending update list produced by updating expressions.
    pub updates: Vec<Update>,
    /// Recursion guard.
    depth: u32,
}

const MAX_DEPTH: u32 = 512;

impl<'a> Evaluator<'a> {
    pub fn new(sctx: &'a StaticContext, dctx: &'a DynamicContext) -> Self {
        Evaluator {
            sctx,
            dctx,
            vars: Vec::new(),
            updates: Vec::new(),
            depth: 0,
        }
    }

    /// Evaluate with `context` as the initial context item (the Demaq rule
    /// convention: "the default evaluation context ... is the document root
    /// of the triggering message", paper Sec. 3.4).
    pub fn eval_with_context(&mut self, expr: &Expr, context: NodeRef) -> Result<Sequence> {
        self.eval(expr, Some(&Focus::solo(context)))
    }

    /// Evaluate with no context item (absent focus).
    pub fn eval_no_context(&mut self, expr: &Expr) -> Result<Sequence> {
        self.eval(expr, None)
    }

    fn lookup_var(&self, name: &str) -> Result<Sequence> {
        for (n, v) in self.vars.iter().rev() {
            if n == name {
                return Ok(v.clone());
            }
        }
        self.dctx
            .variables
            .get(name)
            .cloned()
            .ok_or_else(|| Error::undefined_name(format!("undefined variable ${name}")))
    }

    fn context_item(focus: Option<&Focus>) -> Result<Item> {
        focus
            .map(|f| f.item.clone())
            .ok_or_else(|| Error::dynamic("context item is undefined here"))
    }

    /// Main dispatch.
    pub fn eval(&mut self, expr: &Expr, focus: Option<&Focus>) -> Result<Sequence> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(Error::dynamic("expression nesting too deep"));
        }
        let r = self.eval_inner(expr, focus);
        self.depth -= 1;
        r
    }

    fn eval_inner(&mut self, expr: &Expr, focus: Option<&Focus>) -> Result<Sequence> {
        match expr {
            Expr::StringLit(s) => Ok(Sequence::str(s.clone())),
            Expr::IntLit(i) => Ok(Sequence::int(*i)),
            Expr::DoubleLit(d) => Ok(Sequence::one(Atomic::Double(*d))),
            Expr::Var(name) => self.lookup_var(name),
            Expr::ContextItem => Ok(Sequence::one(Self::context_item(focus)?)),
            Expr::Sequence(es) => {
                let mut out = Sequence::empty();
                for e in es {
                    out = out.concat(self.eval(e, focus)?);
                }
                Ok(out)
            }
            Expr::FunctionCall { name, args } => self.call_function(name, args, focus),
            Expr::Path { root, steps } => self.eval_path(*root, steps, focus),
            Expr::Step {
                axis,
                test,
                predicates,
            } => {
                let ctx = Self::context_item(focus)?;
                let node = match ctx {
                    Item::Node(n) => n,
                    Item::Atomic(_) => {
                        return Err(Error::type_error("axis step on an atomic context item"))
                    }
                };
                let axis_result = axis_nodes(*axis, &node, test);
                self.apply_predicates(axis_result, predicates)
            }
            Expr::Filter { base, predicates } => {
                let seq = self.eval(base, focus)?;
                self.apply_predicates(seq, predicates)
            }
            Expr::RelativePath {
                base,
                step,
                descend,
            } => {
                let seq = self.eval(base, focus)?;
                let mut steps = Vec::new();
                if *descend {
                    steps.push(Expr::Step {
                        axis: Axis::DescendantOrSelf,
                        test: NodeTest::AnyKind,
                        predicates: vec![],
                    });
                }
                steps.push((**step).clone());
                self.eval_steps(seq, &steps)
            }
            Expr::Or(a, b) => {
                let l = self.eval(a, focus)?.effective_boolean()?;
                if l {
                    return Ok(Sequence::bool(true));
                }
                Ok(Sequence::bool(self.eval(b, focus)?.effective_boolean()?))
            }
            Expr::And(a, b) => {
                let l = self.eval(a, focus)?.effective_boolean()?;
                if !l {
                    return Ok(Sequence::bool(false));
                }
                Ok(Sequence::bool(self.eval(b, focus)?.effective_boolean()?))
            }
            Expr::Comparison { op, left, right } => self.eval_comparison(*op, left, right, focus),
            Expr::Arith { op, left, right } => self.eval_arith(*op, left, right, focus),
            Expr::Set { op, left, right } => self.eval_set(*op, left, right, focus),
            Expr::Range(a, b) => {
                let la = self.eval(a, focus)?;
                let lb = self.eval(b, focus)?;
                if la.is_empty() || lb.is_empty() {
                    return Ok(Sequence::empty());
                }
                let from = la.exactly_one()?.atomize().cast_integer()?;
                let to = lb.exactly_one()?.atomize().cast_integer()?;
                Ok((from..=to).map(|i| Item::Atomic(Atomic::Int(i))).collect())
            }
            Expr::Neg(e) => {
                let v = self.eval(e, focus)?;
                if v.is_empty() {
                    return Ok(Sequence::empty());
                }
                match v.exactly_one()?.atomize() {
                    Atomic::Int(i) => Ok(Sequence::int(-i)),
                    a => Ok(Sequence::one(Atomic::Double(-a.to_double()))),
                }
            }
            Expr::If { cond, then, els } => {
                if self.eval(cond, focus)?.effective_boolean()? {
                    self.eval(then, focus)
                } else {
                    match els {
                        Some(e) => self.eval(e, focus),
                        None => Ok(Sequence::empty()),
                    }
                }
            }
            Expr::Flwor {
                clauses,
                where_,
                order,
                ret,
            } => self.eval_flwor(clauses, where_.as_deref(), order, ret, focus),
            Expr::Quantified {
                every,
                bindings,
                satisfies,
            } => {
                let result = self.eval_quantified(*every, bindings, satisfies, focus)?;
                Ok(Sequence::bool(result))
            }
            Expr::DirectElement {
                name,
                attrs,
                content,
            } => {
                let node = self.construct_element(name.clone(), attrs, content, focus)?;
                Ok(Sequence::one(node))
            }
            Expr::ComputedElement { name, content } => {
                let n = self.eval(name, focus)?;
                let qn = QName::parse_lexical(&n.string_value()?)
                    .ok_or_else(|| Error::dynamic("invalid computed element name"))?;
                let seq = self.eval(content, focus)?;
                let node = assemble_element(&qn, &[], seq)?;
                Ok(Sequence::one(node))
            }
            Expr::ComputedAttribute { name, content } => {
                let n = self.eval(name, focus)?;
                let qn = QName::parse_lexical(&n.string_value()?)
                    .ok_or_else(|| Error::dynamic("invalid computed attribute name"))?;
                let v = self.eval(content, focus)?;
                let value = atomics_joined(&v);
                // Orphan attributes live under a holder element; the
                // constructor assembly recognizes and reattaches them.
                let mut b = DocBuilder::new();
                b.start("attr-holder").attr(qn, value).end();
                let doc = b.finish();
                let holder = doc.document_element().expect("holder");
                let attr = holder.attributes().next().expect("held attribute");
                Ok(Sequence::one(attr))
            }
            Expr::ComputedText(e) => {
                let v = self.eval(e, focus)?;
                if v.is_empty() {
                    return Ok(Sequence::empty());
                }
                let mut b = DocBuilder::new();
                b.text(atomics_joined(&v));
                let doc = b.finish();
                let t = doc.root().children().next();
                Ok(match t {
                    Some(n) => Sequence::one(n),
                    None => Sequence::empty(),
                })
            }
            Expr::ComputedComment(e) => {
                let v = self.eval(e, focus)?;
                let mut b = DocBuilder::new();
                b.comment(atomics_joined(&v));
                let doc = b.finish();
                let comment = doc.root().children().next().expect("comment child");
                Ok(Sequence::one(comment))
            }
            Expr::ComputedDocument(e) => {
                let seq = self.eval(e, focus)?;
                let mut b = DocBuilder::new();
                append_content(&mut b, &seq, &mut false)?;
                let doc = b.finish();
                Ok(Sequence::one(doc.root()))
            }
            Expr::Enqueue {
                message,
                queue,
                props,
            } => {
                let seq = self.eval(message, focus)?;
                let doc = sequence_to_document(&seq)?;
                let mut eprops = Vec::new();
                for (pname, pexpr) in props {
                    let v = self.eval(pexpr, focus)?;
                    let atom = match v.0.as_slice() {
                        [] => Atomic::Str(String::new()),
                        [item] => item.atomize(),
                        _ => {
                            return Err(Error::type_error(format!(
                                "property `{pname}` value must be a single item"
                            )))
                        }
                    };
                    eprops.push((pname.clone(), atom));
                }
                self.updates.push(Update::Enqueue {
                    queue: queue.clone(),
                    message: doc,
                    props: eprops,
                });
                Ok(Sequence::empty())
            }
            Expr::Reset { slicing, key } => {
                let key_atom = match key {
                    Some(k) => {
                        let v = self.eval(k, focus)?;
                        Some(v.exactly_one()?.atomize())
                    }
                    None => None,
                };
                self.updates.push(Update::Reset {
                    slicing: slicing.clone(),
                    key: key_atom,
                });
                Ok(Sequence::empty())
            }
            Expr::Insert {
                source,
                pos,
                target,
            } => {
                let content = self.eval_nodes(source, focus)?;
                let t = self.eval_single_node(target, focus)?;
                self.updates.push(Update::Insert {
                    target: t,
                    pos: *pos,
                    content,
                });
                Ok(Sequence::empty())
            }
            Expr::Delete { target } => {
                for t in self.eval_nodes(target, focus)? {
                    self.updates.push(Update::Delete { target: t });
                }
                Ok(Sequence::empty())
            }
            Expr::Replace {
                target,
                source,
                value_of,
            } => {
                let t = self.eval_single_node(target, focus)?;
                if *value_of {
                    let v = self.eval(source, focus)?;
                    self.updates.push(Update::ReplaceValue {
                        target: t,
                        value: atomics_joined(&v),
                    });
                } else {
                    let content = self.eval_nodes(source, focus)?;
                    self.updates.push(Update::Replace { target: t, content });
                }
                Ok(Sequence::empty())
            }
            Expr::Rename { target, name } => {
                let t = self.eval_single_node(target, focus)?;
                let n = self.eval(name, focus)?;
                let qn = QName::parse_lexical(&n.string_value()?)
                    .ok_or_else(|| Error::dynamic("invalid rename target name"))?;
                self.updates.push(Update::Rename {
                    target: t,
                    name: qn,
                });
                Ok(Sequence::empty())
            }
            Expr::Cast { expr, ty } => {
                let v = self.eval(expr, focus)?;
                if v.is_empty() {
                    return Ok(Sequence::empty());
                }
                let a = v.exactly_one()?.atomize();
                Ok(Sequence::one(cast_atomic(&a, ty)?))
            }
            Expr::InstanceOf { expr, ty } => {
                let v = self.eval(expr, focus)?;
                let matches = match v.0.as_slice() {
                    [Item::Atomic(a)] => a.type_name() == ty,
                    [Item::Node(_)] => ty == "node()" || ty == "item()",
                    _ => false,
                };
                Ok(Sequence::bool(matches))
            }
        }
    }

    // ---- function dispatch --------------------------------------------------

    fn call_function(
        &mut self,
        name: &QName,
        args: &[Expr],
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a, focus)?);
        }
        match name.prefix.as_deref() {
            None => functions::call_builtin(self.dctx, &name.local, argv, focus),
            Some("xs") => functions::call_constructor(&name.local, argv),
            Some(_) => match self.dctx.host.call(name, &argv) {
                Some(r) => r,
                None => Err(Error::unknown_function(format!(
                    "unknown function {}()",
                    name.lexical()
                ))),
            },
        }
    }

    // ---- paths ----------------------------------------------------------------

    fn eval_path(&mut self, root: bool, steps: &[Expr], focus: Option<&Focus>) -> Result<Sequence> {
        let start: Sequence = if root {
            let ctx = Self::context_item(focus)?;
            match ctx {
                Item::Node(n) => Sequence::one(n.doc.root()),
                Item::Atomic(_) => {
                    return Err(Error::type_error("`/` requires a node context item"))
                }
            }
        } else {
            match focus {
                Some(f) => Sequence::one(f.item.clone()),
                None => return Err(Error::dynamic("relative path with absent context item")),
            }
        };
        self.eval_steps(start, steps)
    }

    fn eval_steps(&mut self, mut current: Sequence, steps: &[Expr]) -> Result<Sequence> {
        for (idx, step) in steps.iter().enumerate() {
            let is_last = idx + 1 == steps.len();
            let size = current.len();
            let mut result = Sequence::empty();
            for (i, item) in current.0.iter().enumerate() {
                let f = Focus {
                    item: item.clone(),
                    pos: i + 1,
                    size,
                };
                let part = self.eval(step, Some(&f))?;
                result = result.concat(part);
            }
            let all_nodes = result.0.iter().all(|i| matches!(i, Item::Node(_)));
            if all_nodes {
                result = result.document_order_dedup()?;
            } else if !is_last {
                return Err(Error::type_error(
                    "intermediate path step produced atomic values",
                ));
            } else if result.0.iter().any(|i| matches!(i, Item::Node(_))) {
                return Err(Error::type_error("path step mixes nodes and atomic values"));
            }
            current = result;
        }
        Ok(current)
    }

    fn apply_predicates(&mut self, mut seq: Sequence, predicates: &[Expr]) -> Result<Sequence> {
        for pred in predicates {
            let size = seq.len();
            let mut kept = Vec::new();
            for (i, item) in seq.0.iter().enumerate() {
                let f = Focus {
                    item: item.clone(),
                    pos: i + 1,
                    size,
                };
                let v = self.eval(pred, Some(&f))?;
                // Numeric predicate = positional test.
                let keep = match v.0.as_slice() {
                    [Item::Atomic(a)] if a.is_numeric() => a.to_double() == (i + 1) as f64,
                    _ => v.effective_boolean()?,
                };
                if keep {
                    kept.push(item.clone());
                }
            }
            seq = Sequence(kept);
        }
        Ok(seq)
    }

    // ---- comparisons, arithmetic, sets -----------------------------------------

    fn eval_comparison(
        &mut self,
        op: CompOp,
        left: &Expr,
        right: &Expr,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        let l = self.eval(left, focus)?;
        let r = self.eval(right, focus)?;
        use CompOp::*;
        match op {
            GenEq | GenNe | GenLt | GenLe | GenGt | GenGe => {
                let la = l.atomized();
                let ra = r.atomized();
                for a in &la {
                    for b in &ra {
                        if let Some(ord) = a.value_cmp(b) {
                            let hit = match op {
                                GenEq => ord == Ordering::Equal,
                                GenNe => ord != Ordering::Equal,
                                GenLt => ord == Ordering::Less,
                                GenLe => ord != Ordering::Greater,
                                GenGt => ord == Ordering::Greater,
                                GenGe => ord != Ordering::Less,
                                _ => unreachable!(),
                            };
                            if hit {
                                return Ok(Sequence::bool(true));
                            }
                        } else if matches!(op, GenNe) {
                            // Incomparable values are "not equal".
                            return Ok(Sequence::bool(true));
                        }
                    }
                }
                Ok(Sequence::bool(false))
            }
            ValEq | ValNe | ValLt | ValLe | ValGt | ValGe => {
                if l.is_empty() || r.is_empty() {
                    return Ok(Sequence::empty());
                }
                let a = l.exactly_one()?.atomize();
                let b = r.exactly_one()?.atomize();
                let ord = a.value_cmp(&b).ok_or_else(|| {
                    Error::type_error(format!(
                        "cannot compare {} with {}",
                        a.type_name(),
                        b.type_name()
                    ))
                })?;
                let hit = match op {
                    ValEq => ord == Ordering::Equal,
                    ValNe => ord != Ordering::Equal,
                    ValLt => ord == Ordering::Less,
                    ValLe => ord != Ordering::Greater,
                    ValGt => ord == Ordering::Greater,
                    ValGe => ord != Ordering::Less,
                    _ => unreachable!(),
                };
                Ok(Sequence::bool(hit))
            }
            Is | Precedes | Follows => {
                if l.is_empty() || r.is_empty() {
                    return Ok(Sequence::empty());
                }
                let a = l
                    .exactly_one()?
                    .as_node()
                    .ok_or_else(|| Error::type_error("node comparison on atomic value"))?
                    .clone();
                let b = r
                    .exactly_one()?
                    .as_node()
                    .ok_or_else(|| Error::type_error("node comparison on atomic value"))?
                    .clone();
                let hit = match op {
                    Is => a.is_same_node(&b),
                    Precedes => a < b,
                    Follows => a > b,
                    _ => unreachable!(),
                };
                Ok(Sequence::bool(hit))
            }
        }
    }

    fn eval_arith(
        &mut self,
        op: ArithOp,
        left: &Expr,
        right: &Expr,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        let l = self.eval(left, focus)?;
        let r = self.eval(right, focus)?;
        if l.is_empty() || r.is_empty() {
            return Ok(Sequence::empty());
        }
        let a = l.exactly_one()?.atomize();
        let b = r.exactly_one()?.atomize();
        // Date/time arithmetic first.
        match (&a, op, &b) {
            (Atomic::DateTime(t), ArithOp::Add, Atomic::Duration(d))
            | (Atomic::Duration(d), ArithOp::Add, Atomic::DateTime(t)) => {
                return Ok(Sequence::one(Atomic::DateTime(t + d)));
            }
            (Atomic::DateTime(t), ArithOp::Sub, Atomic::Duration(d)) => {
                return Ok(Sequence::one(Atomic::DateTime(t - d)));
            }
            (Atomic::DateTime(t1), ArithOp::Sub, Atomic::DateTime(t2)) => {
                return Ok(Sequence::one(Atomic::Duration(t1 - t2)));
            }
            (Atomic::Duration(d1), ArithOp::Add, Atomic::Duration(d2)) => {
                return Ok(Sequence::one(Atomic::Duration(d1 + d2)));
            }
            (Atomic::Duration(d1), ArithOp::Sub, Atomic::Duration(d2)) => {
                return Ok(Sequence::one(Atomic::Duration(d1 - d2)));
            }
            (Atomic::Duration(d), ArithOp::Mul, n) | (n, ArithOp::Mul, Atomic::Duration(d))
                if n.is_numeric() =>
            {
                return Ok(Sequence::one(Atomic::Duration(
                    (*d as f64 * n.to_double()) as i64,
                )));
            }
            _ => {}
        }
        let both_int = matches!(a, Atomic::Int(_)) && matches!(b, Atomic::Int(_));
        let (x, y) = (a.to_double(), b.to_double());
        let result = match op {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
            ArithOp::Div => {
                if y == 0.0 && both_int {
                    return Err(Error::division_by_zero());
                }
                x / y
            }
            ArithOp::IDiv => {
                if y == 0.0 {
                    return Err(Error::division_by_zero());
                }
                return Ok(Sequence::int((x / y).trunc() as i64));
            }
            ArithOp::Mod => {
                if y == 0.0 {
                    return Err(Error::division_by_zero());
                }
                x % y
            }
        };
        if both_int && !matches!(op, ArithOp::Div) {
            Ok(Sequence::int(result as i64))
        } else {
            Ok(Sequence::one(Atomic::Double(result)))
        }
    }

    fn eval_set(
        &mut self,
        op: SetOp,
        left: &Expr,
        right: &Expr,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        let l = self.eval(left, focus)?;
        let r = self.eval(right, focus)?;
        let as_nodes = |s: &Sequence| -> Result<Vec<NodeRef>> {
            s.0.iter()
                .map(|i| {
                    i.as_node()
                        .cloned()
                        .ok_or_else(|| Error::type_error("set operand must be nodes"))
                })
                .collect()
        };
        let ln = as_nodes(&l)?;
        let rn = as_nodes(&r)?;
        // Membership by hashed node identity (doc_seq, id) — the naive
        // per-node scan made intersect/except O(n·m).
        let identity = |n: &NodeRef| (n.doc.doc_seq, n.id);
        let combined: Vec<NodeRef> = match op {
            SetOp::Union => ln.iter().chain(rn.iter()).cloned().collect(),
            SetOp::Intersect => {
                let rset: std::collections::HashSet<_> = rn.iter().map(identity).collect();
                ln.iter()
                    .filter(|n| rset.contains(&identity(n)))
                    .cloned()
                    .collect()
            }
            SetOp::Except => {
                let rset: std::collections::HashSet<_> = rn.iter().map(identity).collect();
                ln.iter()
                    .filter(|n| !rset.contains(&identity(n)))
                    .cloned()
                    .collect()
            }
        };
        Sequence(combined.into_iter().map(Item::Node).collect()).document_order_dedup()
    }

    // ---- FLWOR & quantifiers -----------------------------------------------------

    fn eval_flwor(
        &mut self,
        clauses: &[FlworClause],
        where_: Option<&Expr>,
        order: &[OrderSpec],
        ret: &Expr,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        let base_len = self.vars.len();
        if order.is_empty() {
            // No ordering: stream. `where` and `return` run at the leaf of
            // tuple generation, while the bindings are already on the stack
            // — no tuple is ever materialized.
            let mut out = Sequence::empty();
            self.stream_tuples(clauses, 0, focus, &mut |ev| {
                let passed = match where_ {
                    Some(w) => ev.eval(w, focus)?.effective_boolean()?,
                    None => true,
                };
                if passed {
                    out = std::mem::take(&mut out).concat(ev.eval(ret, focus)?);
                }
                Ok(())
            })?;
            debug_assert_eq!(self.vars.len(), base_len);
            return Ok(out);
        }

        // order by: `where` and the order keys also run at the leaf; only
        // surviving tuples snapshot their binding *values* (the names are
        // fixed by the clauses). The return clause then runs per tuple in
        // sorted order, so result and pending-update order match the
        // ordering semantics.
        let names = binding_names(clauses);
        let mut survivors: Vec<(Vec<Sequence>, Vec<Sequence>)> = Vec::new(); // (values, keys)
        self.stream_tuples(clauses, 0, focus, &mut |ev| {
            let passed = match where_ {
                Some(w) => ev.eval(w, focus)?.effective_boolean()?,
                None => true,
            };
            if passed {
                let mut keys = Vec::with_capacity(order.len());
                for spec in order {
                    keys.push(ev.eval(&spec.key, focus)?);
                }
                let values = ev.vars[ev.vars.len() - names.len()..]
                    .iter()
                    .map(|(_, v)| v.clone())
                    .collect();
                survivors.push((values, keys));
            }
            Ok(())
        })?;
        debug_assert_eq!(self.vars.len(), base_len);

        let flags: Vec<(bool, bool)> = order
            .iter()
            .map(|s| (s.descending, s.empty_greatest))
            .collect();
        survivors.sort_by(|(_, ka), (_, kb)| order_cmp(&flags, ka, kb));

        let mut out = Sequence::empty();
        for (values, _) in survivors {
            let n = values.len();
            for (name, v) in names.iter().zip(values) {
                self.vars.push((name.clone(), v));
            }
            let r = self.eval(ret, focus);
            self.vars.truncate(self.vars.len() - n);
            out = out.concat(r?);
        }
        Ok(out)
    }

    /// Depth-first tuple generation; `leaf` runs once per binding tuple
    /// with the bindings pushed on the variable stack.
    fn stream_tuples(
        &mut self,
        clauses: &[FlworClause],
        idx: usize,
        focus: Option<&Focus>,
        leaf: &mut dyn FnMut(&mut Self) -> Result<()>,
    ) -> Result<()> {
        if idx == clauses.len() {
            return leaf(self);
        }
        match &clauses[idx] {
            FlworClause::Let { var, value } => {
                let v = self.eval(value, focus)?;
                self.vars.push((var.clone(), v));
                let r = self.stream_tuples(clauses, idx + 1, focus, leaf);
                self.vars.pop();
                r
            }
            FlworClause::For { var, at, source } => {
                let src = self.eval(source, focus)?;
                for (i, item) in src.0.iter().enumerate() {
                    self.vars.push((var.clone(), Sequence::one(item.clone())));
                    let pushed_at = if let Some(atv) = at {
                        self.vars.push((atv.clone(), Sequence::int(i as i64 + 1)));
                        true
                    } else {
                        false
                    };
                    let r = self.stream_tuples(clauses, idx + 1, focus, leaf);
                    if pushed_at {
                        self.vars.pop();
                    }
                    self.vars.pop();
                    r?;
                }
                Ok(())
            }
        }
    }

    fn eval_quantified(
        &mut self,
        every: bool,
        bindings: &[(String, Expr)],
        satisfies: &Expr,
        focus: Option<&Focus>,
    ) -> Result<bool> {
        self.quantify(every, bindings, 0, satisfies, focus)
    }

    fn quantify(
        &mut self,
        every: bool,
        bindings: &[(String, Expr)],
        idx: usize,
        satisfies: &Expr,
        focus: Option<&Focus>,
    ) -> Result<bool> {
        if idx == bindings.len() {
            return self.eval(satisfies, focus)?.effective_boolean();
        }
        let (var, src_expr) = &bindings[idx];
        let src = self.eval(src_expr, focus)?;
        for item in src.0 {
            self.vars.push((var.clone(), Sequence::one(item)));
            let hit = self.quantify(every, bindings, idx + 1, satisfies, focus);
            self.vars.pop();
            let hit = hit?;
            if every && !hit {
                return Ok(false);
            }
            if !every && hit {
                return Ok(true);
            }
        }
        Ok(every)
    }

    // ---- constructors -----------------------------------------------------------

    fn construct_element(
        &mut self,
        name: QName,
        attrs: &[(QName, Vec<AttrValuePart>)],
        content: &[DirContent],
        focus: Option<&Focus>,
    ) -> Result<NodeRef> {
        let mut eattrs: Vec<(&QName, String)> = Vec::new();
        for (an, parts) in attrs {
            let mut value = String::new();
            for p in parts {
                match p {
                    AttrValuePart::Text(t) => value.push_str(t),
                    AttrValuePart::Enclosed(e) => {
                        let v = self.eval(e, focus)?;
                        push_atomics_joined(&mut value, &v);
                    }
                }
            }
            eattrs.push((an, value));
        }
        // Evaluate content into a flat sequence with XQuery content rules.
        let mut seq = Sequence::empty();
        for c in content {
            match c {
                DirContent::Text(t) => {
                    seq.0.push(Item::Node(text_node(t)));
                }
                DirContent::Enclosed(e) | DirContent::Expr(e) => {
                    let v = self.eval(e, focus)?;
                    seq = seq.concat(v);
                }
            }
        }
        assemble_element(&name, &eattrs, seq)
    }

    // ---- updating helpers ---------------------------------------------------------

    fn eval_nodes(&mut self, e: &Expr, focus: Option<&Focus>) -> Result<Vec<NodeRef>> {
        let v = self.eval(e, focus)?;
        v.0.into_iter()
            .map(|i| match i {
                Item::Node(n) => Ok(n),
                Item::Atomic(a) => Ok(text_node(&a.to_str())),
            })
            .collect()
    }

    fn eval_single_node(&mut self, e: &Expr, focus: Option<&Focus>) -> Result<NodeRef> {
        let v = self.eval(e, focus)?;
        match v.exactly_one()? {
            Item::Node(n) => Ok(n.clone()),
            Item::Atomic(_) => Err(Error::type_error("update target must be a node")),
        }
    }
}

/// Assemble an element node from a name, literal attributes, and a
/// content sequence following the XQuery constructor content rules:
/// adjacent atomics are joined with spaces into text nodes; attribute
/// items must precede other content and attach to the element; nodes
/// are deep-copied.
pub(crate) fn assemble_element(
    name: &QName,
    attrs: &[(&QName, String)],
    content: Sequence,
) -> Result<NodeRef> {
    let mut b = DocBuilder::new();
    b.start(name);
    for (an, av) in attrs {
        b.attr(*an, av);
    }
    let mut has_child = false;
    let mut after_atomic = false;
    for item in &content.0 {
        match item {
            Item::Atomic(a) => {
                append_atomic(&mut b, a, after_atomic);
                has_child = true;
            }
            Item::Node(n) => {
                if n.is_attribute() && has_child {
                    return Err(Error::type_error(
                        "attribute constructed after element content",
                    ));
                }
                b.copy_node(n);
                has_child |= !n.is_attribute();
            }
        }
        after_atomic = matches!(item, Item::Atomic(_));
    }
    b.end();
    let doc = b.finish();
    Ok(doc.document_element().expect("constructed element"))
}

/// Names introduced by the FLWOR clauses, in stack push order.
fn binding_names(clauses: &[FlworClause]) -> Vec<String> {
    let mut names = Vec::new();
    for c in clauses {
        match c {
            FlworClause::Let { var, .. } => names.push(var.clone()),
            FlworClause::For { var, at, .. } => {
                names.push(var.clone());
                if let Some(atv) = at {
                    names.push(atv.clone());
                }
            }
        }
    }
    names
}

/// Compare two evaluated order-key vectors; `flags[i]` is the i-th key's
/// `(descending, empty_greatest)` pair.
pub(crate) fn order_cmp(flags: &[(bool, bool)], ka: &[Sequence], kb: &[Sequence]) -> Ordering {
    for (i, &(descending, empty_greatest)) in flags.iter().enumerate() {
        let a = ka[i].0.first().map(Item::atomize);
        let b = kb[i].0.first().map(Item::atomize);
        let ord = match (&a, &b) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => {
                if empty_greatest {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (Some(_), None) => {
                if empty_greatest {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (Some(x), Some(y)) => x.value_cmp(y).unwrap_or(Ordering::Equal),
        };
        let ord = if descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Build a standalone text node (holder document).
pub(crate) fn text_node(t: &str) -> NodeRef {
    let mut b = DocBuilder::new();
    b.text(if t.is_empty() { " " } else { t });
    let doc = b.finish();
    doc.root().children().next().expect("text child")
}

/// Join the atomized items with single spaces (attribute/text content rule).
pub(crate) fn atomics_joined(seq: &Sequence) -> String {
    let mut out = String::new();
    push_atomics_joined(&mut out, seq);
    out
}

/// [`atomics_joined`], appended to `out`.
pub(crate) fn push_atomics_joined(out: &mut String, seq: &Sequence) {
    for (i, item) in seq.0.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match item {
            Item::Node(n) => out.push_str(&n.string_value()),
            Item::Atomic(Atomic::Str(s) | Atomic::Untyped(s)) => out.push_str(s),
            Item::Atomic(a) => out.push_str(&a.to_str()),
        }
    }
}

/// Convert an evaluated sequence into a standalone message document:
/// nodes are deep-copied (elements of documents unwrap), atomics become text.
pub fn sequence_to_document(seq: &Sequence) -> Result<Arc<Document>> {
    let mut b = DocBuilder::new();
    let mut after_atomic = false;
    for item in &seq.0 {
        match item {
            Item::Atomic(a) => append_atomic(&mut b, a, after_atomic),
            Item::Node(n) => {
                if n.is_attribute() {
                    return Err(Error::type_error(
                        "cannot enqueue a bare attribute node as a message",
                    ));
                }
                b.copy_node(n);
            }
        }
        after_atomic = matches!(item, Item::Atomic(_));
    }
    Ok(b.finish())
}

/// Append an atomic as constructor content: text, set off by one space
/// from an atomic right before it (the builder merges adjacent text).
fn append_atomic(b: &mut DocBuilder, a: &Atomic, after_atomic: bool) {
    if after_atomic {
        b.text(" ");
    }
    match a {
        Atomic::Str(s) | Atomic::Untyped(s) => b.text(s),
        other => b.text(other.to_str()),
    };
}

pub(crate) fn append_content(b: &mut DocBuilder, seq: &Sequence, has_child: &mut bool) -> Result<()> {
    for item in &seq.0 {
        match item {
            Item::Atomic(a) => {
                b.text(a.to_str());
                *has_child = true;
            }
            Item::Node(n) => {
                b.copy_node(n);
                *has_child = true;
            }
        }
    }
    Ok(())
}

/// Axis traversal with node test filtering.
pub(crate) fn axis_nodes(axis: Axis, node: &NodeRef, test: &NodeTest) -> Sequence {
    let mut out = Vec::new();
    let _ = for_each_on_axis(axis, &node.doc, node.id, |id| {
        let n = node.doc.node(id);
        if node_test_matches(axis, &n, test) {
            out.push(Item::Node(n));
        }
        ControlFlow::<()>::Continue(())
    });
    Sequence(out)
}

/// Visit the axis candidates (before node-test filtering) in the axis's
/// natural delivery order, until `f` breaks. Candidates are ids: a caller
/// pays for a [`NodeRef`] only for those it keeps.
pub(crate) fn for_each_on_axis<B>(
    axis: Axis,
    doc: &Document,
    id: NodeId,
    mut f: impl FnMut(NodeId) -> ControlFlow<B>,
) -> ControlFlow<B> {
    match axis {
        Axis::Child => doc.children(id).try_for_each(f),
        Axis::Descendant => doc.descendants(id).try_for_each(f),
        Axis::DescendantOrSelf => {
            f(id)?;
            doc.descendants(id).try_for_each(f)
        }
        Axis::Attribute => doc.attributes(id).try_for_each(f),
        Axis::SelfAxis => f(id),
        Axis::Parent => doc.parent(id).into_iter().try_for_each(f),
        Axis::Ancestor => doc.ancestors(id).try_for_each(f),
        Axis::AncestorOrSelf => {
            f(id)?;
            doc.ancestors(id).try_for_each(f)
        }
        Axis::FollowingSibling => doc.following_siblings(id).try_for_each(f),
        Axis::PrecedingSibling => doc.preceding_siblings(id).try_for_each(f),
    }
}

pub(crate) fn node_test_matches(axis: Axis, node: &NodeRef, test: &NodeTest) -> bool {
    // Namespace declarations are stored as attributes for serialization
    // fidelity but are not addressable via the attribute axis.
    if axis == Axis::Attribute {
        if let Some(q) = node.name() {
            if q.local == "xmlns" || q.local.starts_with("xmlns:") {
                return false;
            }
        }
    }
    match test {
        NodeTest::AnyKind => true,
        NodeTest::Text => node.is_text(),
        NodeTest::Comment => matches!(node.kind(), NodeKind::Comment(_)),
        NodeTest::Document => node.is_document(),
        NodeTest::AnyName => {
            if axis == Axis::Attribute {
                node.is_attribute()
            } else {
                node.is_element()
            }
        }
        NodeTest::Name(q) => {
            let principal_ok = if axis == Axis::Attribute {
                node.is_attribute()
            } else {
                node.is_element()
            };
            principal_ok && node.name().is_some_and(|n| q.matches(n))
        }
        NodeTest::Element(q) => {
            node.is_element()
                && q.as_ref()
                    .is_none_or(|q| node.name().is_some_and(|n| q.matches(n)))
        }
        NodeTest::Attribute(q) => {
            node.is_attribute()
                && q.as_ref()
                    .is_none_or(|q| node.name().is_some_and(|n| q.matches(n)))
        }
        NodeTest::Pi(target) => match node.kind() {
            NodeKind::Pi { target: t, .. } => target.as_ref().is_none_or(|x| x == t),
            _ => false,
        },
    }
}

pub(crate) fn cast_atomic(a: &Atomic, ty: &str) -> Result<Atomic> {
    match ty {
        "xs:string" | "string" => Ok(Atomic::Str(a.to_str())),
        "xs:boolean" | "boolean" => Ok(Atomic::Bool(a.cast_boolean()?)),
        "xs:integer" | "xs:int" | "xs:long" | "integer" => Ok(Atomic::Int(a.cast_integer()?)),
        "xs:double" | "double" => Ok(Atomic::Double(a.to_double())),
        "xs:decimal" | "decimal" => Ok(Atomic::Decimal(a.to_double())),
        "xs:dateTime" | "dateTime" => match a {
            Atomic::DateTime(ms) => Ok(Atomic::DateTime(*ms)),
            other => parse_date_time(&other.to_str())
                .map(Atomic::DateTime)
                .ok_or_else(|| {
                    Error::type_error(format!("cannot cast `{}` to xs:dateTime", other.to_str()))
                }),
        },
        "xs:dayTimeDuration" | "xs:duration" => match a {
            Atomic::Duration(ms) => Ok(Atomic::Duration(*ms)),
            other => parse_duration(&other.to_str())
                .map(Atomic::Duration)
                .ok_or_else(|| {
                    Error::type_error(format!(
                        "cannot cast `{}` to xs:dayTimeDuration",
                        other.to_str()
                    ))
                }),
        },
        "xs:untypedAtomic" => Ok(Atomic::Untyped(a.to_str())),
        other => Err(Error::type_error(format!(
            "unsupported cast target `{other}`"
        ))),
    }
}

/// Public casting entry point used by the Demaq property system (QDL
/// declares property types as `xs:` names).
pub fn cast_to_type(a: &Atomic, ty: &str) -> Result<Atomic> {
    cast_atomic(a, ty)
}
