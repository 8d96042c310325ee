//! Queue-level shared subexpressions (paper Sec. 4.4.1's canonical plan).
//!
//! All rules of a queue run against one message, and a message is
//! immutable. A subexpression that depends on nothing but that message has
//! one value per message, whichever rule reads it. Such a subexpression:
//!
//! * is evaluated with the rule's initial focus, the message root: it does
//!   not sit in a path step, a step predicate or a filter predicate;
//! * reads no variable bound outside itself;
//! * constructs no node (a constructor makes new node identities), updates
//!   nothing, and calls no host function other than `qs:message()` and
//!   `qs:property()` — so no store read (`qs:queue`, `qs:slice`,
//!   `collection`, and with them every recognized aggregate) and no
//!   `position()`/`last()`;
//! * walks the message (it holds a path or a `qs:` call) and is more than
//!   one node;
//! * is not a path in effective-boolean-value position, which lowers to
//!   [`Plan::Exists`](crate::Plan::Exists) and keeps its first-match stop.
//!
//! [`shared_subexpressions`] picks the maximal such subtrees that occur at
//! least twice across a queue's rule bodies (or within one body): a shared
//! `count(P)` does not also share `P` unless `P` occurs elsewhere.
//! [`lower_rules`](crate::plan::lower_rules) lowers each once into a table
//! and replaces every occurrence with [`Plan::Shared`](crate::Plan::Shared);
//! the evaluator fills the table lazily, once per message.

use crate::ast::{Expr, FlworClause};
use crate::plan::lowers_to_exists;
use demaq_xml::QName;

/// The table of subexpressions `bodies` share, largest first.
pub fn shared_subexpressions(bodies: &[Expr]) -> Vec<Expr> {
    let mut walk = Walk::default();
    for body in bodies {
        walk.walk(body, true);
    }
    walk.select()
}

/// What a walk learns about one subtree.
struct Facts {
    /// Node count.
    size: usize,
    /// No constructor, update, or call outside the allowed set.
    pure: bool,
    /// Holds a path or a `qs:` call.
    reads: bool,
    /// Lowest binding a variable inside resolves to, as a scope index + 1
    /// (0 for a variable bound nowhere); `usize::MAX` when there is none.
    /// The subtree is closed iff this exceeds the scope depth at its root.
    min_ref: usize,
}

impl Facts {
    fn add(&mut self, child: Facts) {
        self.size += child.size;
        self.pure &= child.pure;
        self.reads |= child.reads;
        self.min_ref = self.min_ref.min(child.min_ref);
    }
}

/// One shareable occurrence.
struct Occ<'e> {
    expr: &'e Expr,
    size: usize,
    /// The nearest enclosing shareable occurrence.
    parent: Option<usize>,
}

#[derive(Default)]
struct Walk<'e> {
    occ: Vec<Occ<'e>>,
    /// Variables bound around the current node, innermost last.
    scope: Vec<&'e str>,
}

impl<'e> Walk<'e> {
    /// Walk `e`; `focus` is whether it is evaluated with the initial focus.
    fn walk(&mut self, e: &'e Expr, focus: bool) -> Facts {
        let first = self.occ.len();
        let mut f = Facts {
            size: 1,
            pure: true,
            reads: false,
            min_ref: usize::MAX,
        };
        match e {
            Expr::Var(name) => {
                f.min_ref = self
                    .scope
                    .iter()
                    .rposition(|v| v == name)
                    .map_or(0, |p| p + 1);
            }
            Expr::Path { steps, .. } => {
                f.reads = true;
                steps.iter().for_each(|s| f.add(self.walk(s, false)));
            }
            Expr::Step { predicates, .. } => {
                predicates.iter().for_each(|p| f.add(self.walk(p, false)));
            }
            Expr::Filter { base, predicates } => {
                f.add(self.walk(base, focus));
                predicates.iter().for_each(|p| f.add(self.walk(p, false)));
            }
            Expr::RelativePath { base, step, .. } => {
                f.reads = true;
                f.add(self.walk(base, focus));
                f.add(self.walk(step, false));
            }
            Expr::If { cond, then, els } => {
                f.add(self.walk_ebv(cond, focus));
                f.add(self.walk(then, focus));
                if let Some(e) = els {
                    f.add(self.walk(e, focus));
                }
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                f.add(self.walk_ebv(a, focus));
                f.add(self.walk_ebv(b, focus));
            }
            Expr::Flwor {
                clauses,
                where_,
                order,
                ret,
            } => {
                let depth = self.scope.len();
                for c in clauses {
                    match c {
                        FlworClause::For { var, at, source } => {
                            f.add(self.walk(source, focus));
                            self.scope.push(var);
                            self.scope.extend(at.as_deref());
                        }
                        FlworClause::Let { var, value } => {
                            f.add(self.walk(value, focus));
                            self.scope.push(var);
                        }
                    }
                }
                if let Some(w) = where_ {
                    f.add(self.walk_ebv(w, focus));
                }
                order.iter().for_each(|o| f.add(self.walk(&o.key, focus)));
                f.add(self.walk(ret, focus));
                self.scope.truncate(depth);
            }
            Expr::Quantified {
                bindings,
                satisfies,
                ..
            } => {
                let depth = self.scope.len();
                for (var, source) in bindings {
                    f.add(self.walk(source, focus));
                    self.scope.push(var);
                }
                f.add(self.walk_ebv(satisfies, focus));
                self.scope.truncate(depth);
            }
            Expr::FunctionCall { name, args } => {
                f.pure = callable(name);
                f.reads = name.prefix.as_deref() == Some("qs");
                args.iter().for_each(|a| f.add(self.walk(a, focus)));
            }
            Expr::DirectElement { .. }
            | Expr::ComputedElement { .. }
            | Expr::ComputedAttribute { .. }
            | Expr::ComputedText(_)
            | Expr::ComputedComment(_)
            | Expr::ComputedDocument(_)
            | Expr::Enqueue { .. }
            | Expr::Reset { .. }
            | Expr::Insert { .. }
            | Expr::Delete { .. }
            | Expr::Replace { .. }
            | Expr::Rename { .. } => {
                f.pure = false;
                e.for_each_child(|c| f.add(self.walk(c, focus)));
            }
            _ => e.for_each_child(|c| f.add(self.walk(c, focus))),
        }
        let closed = f.min_ref > self.scope.len();
        if focus && f.pure && f.reads && closed && f.size > 1 {
            let at = self.occ.len();
            for o in &mut self.occ[first..] {
                o.parent.get_or_insert(at);
            }
            self.occ.push(Occ {
                expr: e,
                size: f.size,
                parent: None,
            });
        }
        f
    }

    /// Walk an operand consumed as an effective boolean value.
    fn walk_ebv(&mut self, e: &'e Expr, focus: bool) -> Facts {
        self.walk(e, focus && !lowers_to_exists(e))
    }

    /// Group the occurrences into classes of equal subtrees and pick,
    /// largest first, every class still read at least twice once the
    /// classes picked before it are replaced. Reads inside a picked
    /// subtree count once, in the one table entry that lowers it.
    fn select(self) -> Vec<Expr> {
        // class -> its occurrences (the first one is the representative).
        let mut classes: Vec<Vec<usize>> = Vec::new();
        let mut class_of = Vec::with_capacity(self.occ.len());
        for (i, o) in self.occ.iter().enumerate() {
            let same = |c: &Vec<usize>| {
                let rep = &self.occ[c[0]];
                rep.size == o.size && rep.expr == o.expr
            };
            match classes.iter().position(same) {
                Some(c) => {
                    classes[c].push(i);
                    class_of.push(c);
                }
                None => {
                    class_of.push(classes.len());
                    classes.push(vec![i]);
                }
            }
        }
        let mut order: Vec<usize> = (0..classes.len()).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(self.occ[classes[c][0]].size));

        let mut picked = vec![false; classes.len()];
        let mut table = Vec::new();
        for c in order {
            // An occurrence is lowered iff its nearest picked ancestor is
            // none (it sits in a rule body) or that class's representative
            // (it sits in the table entry).
            let lowered = |&i: &usize| {
                let mut up = self.occ[i].parent;
                while let Some(a) = up {
                    if picked[class_of[a]] {
                        return classes[class_of[a]][0] == a;
                    }
                    up = self.occ[a].parent;
                }
                true
            };
            if classes[c].iter().filter(|i| lowered(i)).count() >= 2 {
                picked[c] = true;
                table.push(self.occ[classes[c][0]].expr.clone());
            }
        }
        table
    }
}

/// Whether a call may sit in a shared subexpression: builtins other than
/// the focus-position and store-reading ones, `xs:` constructors, and the
/// two message-reading `qs:` functions.
fn callable(name: &QName) -> bool {
    match name.prefix.as_deref() {
        None => !matches!(
            name.local.as_str(),
            "position" | "last" | "collection" | "doc"
        ),
        Some("xs") => true,
        Some("qs") => matches!(name.local.as_str(), "message" | "property"),
        Some(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn shared(bodies: &[&str]) -> Vec<String> {
        let bodies: Vec<Expr> = bodies.iter().map(|b| parse_expr(b).unwrap()).collect();
        let mut table: Vec<String> = shared_subexpressions(&bodies)
            .iter()
            .map(|e| format!("{e:?}"))
            .collect();
        table.sort();
        table
    }

    fn debug(src: &str) -> String {
        format!("{:?}", parse_expr(src).unwrap())
    }

    #[test]
    fn repeats_across_rules_are_shared_once() {
        assert_eq!(
            shared(&["<a>{/o/@id}</a>", "<b n='{/o/@id}'/>"]),
            [debug("/o/@id")]
        );
        assert!(shared(&["<a>{/o/@id}</a>", "<b>{/o/@n}</b>"]).is_empty());
    }

    #[test]
    fn a_repeat_inside_one_rule_is_shared() {
        assert_eq!(
            shared(&["if (count(/o/i[q > 6]) >= 2) then <b n='{count(/o/i[q > 6])}'/> else ()"]),
            [debug("count(/o/i[q > 6])")]
        );
    }

    #[test]
    fn maximal_subtrees_only_unless_the_part_recurs() {
        // `count(P)` twice: `P` is not shared on its own…
        assert_eq!(
            shared(&["<a>{count(/o/i)}</a>", "<b>{count(/o/i)}</b>"]),
            [debug("count(/o/i)")]
        );
        // …unless it is read outside the shared whole as well.
        assert_eq!(
            shared(&[
                "<a>{count(/o/i)}</a>",
                "<b>{count(/o/i)}</b>",
                "<c>{/o/i}</c>"
            ]),
            [debug("count(/o/i)"), debug("/o/i")]
        );
    }

    #[test]
    fn focus_and_scope_dependent_subtrees_are_not_shared() {
        // Inside a predicate or a later step the focus is not the message.
        assert!(shared(&["/o/i[/o/k = 1]", "/o/i[/o/k = 2]"]).is_empty());
        // A variable bound outside the subtree.
        assert!(shared(&["for $i in /o/i return ($i/q, $i/q)"]).is_empty());
        // A FLWOR that binds its own variables is closed.
        assert_eq!(
            shared(&["(sum(for $i in /o/i return $i/q), sum(for $i in /o/i return $i/q))"]),
            [debug("sum(for $i in /o/i return $i/q)")]
        );
        // An external variable.
        assert!(shared(&["(/o/i[. = $x], /o/i[. = $x])"]).is_empty());
    }

    #[test]
    fn impure_and_trivial_subtrees_are_not_shared() {
        for body in [
            "(qs:queue('q')//a, qs:queue('q')//a)",
            "(collection('c')//a, collection('c')//a)",
            "(<x>{/o}</x>/y, <x>{/o}</x>/y)",
            "(/o/i[position() = 1], /o/i[position() = 1])",
            "(qs:message(), qs:message())",
            "(1 + 2, 1 + 2)",
        ] {
            assert!(shared(&[body]).is_empty(), "{body}");
        }
        assert_eq!(
            shared(&["(qs:property('p') + 1, qs:property('p') + 1)"]),
            [debug("qs:property('p') + 1")]
        );
    }

    #[test]
    fn existence_tests_stay_existence_tests() {
        // `/o/a` as a condition lowers to `Exists`; as a value it is read
        // once, so nothing is shared.
        assert!(shared(&["if (/o/a) then <x>{/o/a}</x> else ()"]).is_empty());
        // A predicated path has no existence form: its EBV read counts.
        assert_eq!(
            shared(&["if (/o/a[b]) then <x>{/o/a[b]}</x> else ()"]),
            [debug("/o/a[b]")]
        );
    }
}
