//! The reference XQuery interpreter: a tree walk over the parsed [`Expr`],
//! variables looked up by name.
//!
//! The engine never runs it. It runs lowered plans on
//! [`demaq_xquery::PlanEvaluator`], and this crate is the oracle the
//! lowering is checked against: `differential_corpus` here,
//! `tests/differential_eval.rs` in the root suite, and E11's
//! reference-vs-lowered rows. Only `[dev-dependencies]` name it. Value,
//! constructor and cast semantics come from `demaq-xquery` itself, so a
//! disagreement points at the lowering or the plan evaluator.
//!
//! The evaluator is snapshot-semantic: it reads the XML tree(s) and the
//! dynamic context, never mutating them; updating expressions append to a
//! pending update list ([`Evaluator::updates`]) that the caller applies
//! afterwards — exactly the separation of rule evaluation from action
//! execution that the Demaq execution model prescribes (paper Sec. 3.1).

use demaq_xml::{NodeKind, NodeRef, QName};
use demaq_xquery::ast::*;
use demaq_xquery::{
    assemble_element, cast, computed_attribute, computed_comment, computed_document, computed_name,
    computed_text, enqueue_prop, for_each_on_axis, functions, instance_of, negate, order_cmp,
    push_atomics_joined, range, sequence_to_document, set_op, Atomic, DynamicContext, Error, Focus,
    Item, Result, Sequence, Update,
};
use std::cmp::Ordering;
use std::ops::ControlFlow;

/// Expression evaluator. Create one per query evaluation; collect
/// [`Evaluator::updates`] afterwards when evaluating updating expressions.
pub struct Evaluator<'a> {
    dctx: &'a DynamicContext,
    /// Lexically scoped variable bindings (FLWOR/quantifier vars).
    vars: Vec<(String, Sequence)>,
    /// Pending update list produced by updating expressions.
    pub updates: Vec<Update>,
    /// Recursion guard.
    depth: u32,
}

const MAX_DEPTH: u32 = 512;

impl<'a> Evaluator<'a> {
    pub fn new(dctx: &'a DynamicContext) -> Self {
        Evaluator {
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
            Expr::Set { op, left, right } => {
                let l = self.eval(left, focus)?;
                set_op(*op, &l, &self.eval(right, focus)?)
            }
            Expr::Range(a, b) => range(&self.eval(a, focus)?, &self.eval(b, focus)?),
            Expr::Neg(e) => negate(&self.eval(e, focus)?),
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
                let result = self.quantify(*every, bindings, 0, satisfies, focus)?;
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
                let qn = computed_name(&self.eval(name, focus)?, "computed element")?;
                let seq = self.eval(content, focus)?;
                Ok(Sequence::one(assemble_element(&qn, &[], seq)?))
            }
            Expr::ComputedAttribute { name, content } => {
                let qn = computed_name(&self.eval(name, focus)?, "computed attribute")?;
                Ok(Sequence::one(computed_attribute(
                    qn,
                    &self.eval(content, focus)?,
                )))
            }
            Expr::ComputedText(e) => Ok(computed_text(&self.eval(e, focus)?)),
            Expr::ComputedComment(e) => Ok(Sequence::one(computed_comment(&self.eval(e, focus)?))),
            Expr::ComputedDocument(e) => {
                Ok(Sequence::one(computed_document(&self.eval(e, focus)?)))
            }
            Expr::Enqueue {
                message,
                queue,
                props,
            } => {
                let message = sequence_to_document(&self.eval(message, focus)?)?;
                let mut eprops = Vec::with_capacity(props.len());
                for (pname, pexpr) in props {
                    eprops.push((
                        pname.clone(),
                        enqueue_prop(pname, &self.eval(pexpr, focus)?)?,
                    ));
                }
                self.updates.push(Update::Enqueue {
                    queue: queue.clone(),
                    message,
                    props: eprops,
                });
                Ok(Sequence::empty())
            }
            Expr::Reset { slicing, key } => {
                let key = match key {
                    Some(k) => Some(self.eval(k, focus)?.exactly_one()?.atomize()),
                    None => None,
                };
                self.updates.push(Update::Reset {
                    slicing: slicing.clone(),
                    key,
                });
                Ok(Sequence::empty())
            }
            Expr::Cast { expr, ty } => {
                let v = self.eval(expr, focus)?;
                if v.is_empty() {
                    return Ok(Sequence::empty());
                }
                let a = v.exactly_one()?.atomize();
                Ok(Sequence::one(cast(a, ty)?))
            }
            Expr::InstanceOf { expr, ty } => {
                Ok(Sequence::bool(instance_of(&self.eval(expr, focus)?, ty)))
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
            for (i, item) in current.iter().enumerate() {
                let f = Focus {
                    item: item.clone(),
                    pos: i + 1,
                    size,
                };
                let part = self.eval(step, Some(&f))?;
                result = result.concat(part);
            }
            let all_nodes = result.iter().all(|i| matches!(i, Item::Node(_)));
            if all_nodes {
                result = result.document_order_dedup()?;
            } else if !is_last {
                return Err(Error::type_error(
                    "intermediate path step produced atomic values",
                ));
            } else if result.iter().any(|i| matches!(i, Item::Node(_))) {
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
            for (i, item) in seq.iter().enumerate() {
                let f = Focus {
                    item: item.clone(),
                    pos: i + 1,
                    size,
                };
                let v = self.eval(pred, Some(&f))?;
                // Numeric predicate = positional test.
                let keep = match v.as_slice() {
                    [Item::Atomic(a)] if a.is_numeric() => a.to_double() == (i + 1) as f64,
                    _ => v.effective_boolean()?,
                };
                if keep {
                    kept.push(item.clone());
                }
            }
            seq = kept.into();
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
                for (i, item) in src.iter().enumerate() {
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
        for item in src {
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
                    seq = seq.concat(computed_text(&Sequence::str(t.clone())));
                }
                DirContent::Enclosed(e) | DirContent::Expr(e) => {
                    let v = self.eval(e, focus)?;
                    seq = seq.concat(v);
                }
            }
        }
        assemble_element(&name, &eattrs, seq)
    }
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

/// Axis traversal with node test filtering.
fn axis_nodes(axis: Axis, node: &NodeRef, test: &NodeTest) -> Sequence {
    let mut out = Vec::new();
    let _ = for_each_on_axis(axis, &node.doc, node.id, |id| {
        let n = node.doc.node(id);
        if node_test_matches(axis, &n, test) {
            out.push(Item::Node(n));
        }
        ControlFlow::<()>::Continue(())
    });
    out.into()
}

fn node_test_matches(axis: Axis, node: &NodeRef, test: &NodeTest) -> bool {
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

/// Comparable form of a pending update list, for holding two evaluators'
/// lists equal: messages by serialization, atomics by type and lexical
/// form. Document identities (which differ between two evaluations that
/// construct the same tree) never enter.
pub fn render_updates(updates: &[Update]) -> Vec<String> {
    let atom = |a: &Atomic| format!("{}:{}", a.type_name(), a.to_str());
    let one = |u: &Update| match u {
        Update::Enqueue {
            queue,
            message,
            props,
        } => {
            let props: Vec<String> = props
                .iter()
                .map(|(n, a)| format!("{n}={}", atom(a)))
                .collect();
            format!(
                "enqueue {} into {} with {props:?}",
                message.root().to_xml(),
                queue.lexical()
            )
        }
        Update::Reset { slicing, key } => format!(
            "reset {:?} key {:?}",
            slicing.as_ref().map(QName::lexical),
            key.as_ref().map(atom)
        ),
    };
    updates.iter().map(one).collect()
}
