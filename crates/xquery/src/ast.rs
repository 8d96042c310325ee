//! Abstract syntax for the XQuery/QML expression language.

use demaq_xml::QName;

/// Path step axes (the subset needed by the paper's listings plus the
//  usual reverse axes for completeness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
    SelfAxis,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
}

impl Axis {
    /// True for axes that deliver nodes in reverse document order.
    pub fn is_reverse(&self) -> bool {
        matches!(
            self,
            Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf | Axis::PrecedingSibling
        )
    }
}

/// Node test within a step.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTest {
    /// Name test (`foo`, `p:foo`); `*` is represented by `AnyName`.
    Name(QName),
    AnyName,
    /// `node()`
    AnyKind,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `element()` / `element(name)`
    Element(Option<QName>),
    /// `attribute()` / `attribute(name)`
    Attribute(Option<QName>),
    /// `processing-instruction()` / `processing-instruction(target)`
    Pi(Option<String>),
    /// `document-node()`
    Document,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompOp {
    // General comparisons (existential over sequences)
    GenEq,
    GenNe,
    GenLt,
    GenLe,
    GenGt,
    GenGe,
    // Value comparisons (singleton)
    ValEq,
    ValNe,
    ValLt,
    ValLe,
    ValGt,
    ValGe,
    // Node comparisons
    Is,
    Precedes,
    Follows,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    Mod,
}

/// Set operators on node sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

/// A FLWOR binding clause.
#[derive(Debug, Clone, PartialEq)]
pub enum FlworClause {
    /// `for $v (at $pos)? in Expr`
    For {
        var: String,
        at: Option<String>,
        source: Expr,
    },
    /// `let $v := Expr`
    Let { var: String, value: Expr },
}

/// An `order by` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    pub key: Expr,
    pub descending: bool,
    /// `empty least` (default) vs `empty greatest`.
    pub empty_greatest: bool,
}

/// Content of a direct element constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum DirContent {
    /// Literal character data.
    Text(String),
    /// `{ expr }` enclosed expression.
    Enclosed(Expr),
    /// Nested constructor or other expression producing nodes.
    Expr(Expr),
}

/// Attribute value template piece.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValuePart {
    Text(String),
    Enclosed(Expr),
}

/// Target position for `do insert`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPos {
    Into,
    IntoAsFirst,
    IntoAsLast,
    Before,
    After,
}

/// The expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    // -- primaries ---------------------------------------------------------
    StringLit(String),
    IntLit(i64),
    DoubleLit(f64),
    /// `$name`
    Var(String),
    /// `.`
    ContextItem,
    /// `()` or `(e1, e2, ...)` — sequence construction.
    Sequence(Vec<Expr>),
    /// Function call `name(args...)`.
    FunctionCall {
        name: QName,
        args: Vec<Expr>,
    },

    // -- paths --------------------------------------------------------------
    /// Leading `/` or `//` rooted path; steps applied left to right.
    /// `root` true means start from the document node of the context item.
    Path {
        root: bool,
        steps: Vec<Expr>,
    },
    /// One axis step with predicates.
    Step {
        axis: Axis,
        test: NodeTest,
        predicates: Vec<Expr>,
    },
    /// Filter expression: primary with predicates (`$x[...]`, `(e)[...]`).
    Filter {
        base: Box<Expr>,
        predicates: Vec<Expr>,
    },
    /// `e1 / e2` where e2 is an arbitrary expression (dynamic path step).
    RelativePath {
        base: Box<Expr>,
        step: Box<Expr>,
        descend: bool,
    },

    // -- operators ----------------------------------------------------------
    Or(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Comparison {
        op: CompOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Set {
        op: SetOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// `a to b` integer range.
    Range(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),

    // -- control ------------------------------------------------------------
    /// `if (c) then t else e` — `else` optional in QML (defaults to `()`),
    /// per paper Sec. 3.3.
    If {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Option<Box<Expr>>,
    },
    Flwor {
        clauses: Vec<FlworClause>,
        where_: Option<Box<Expr>>,
        order: Vec<OrderSpec>,
        ret: Box<Expr>,
    },
    Quantified {
        every: bool,
        bindings: Vec<(String, Expr)>,
        satisfies: Box<Expr>,
    },

    // -- constructors ---------------------------------------------------------
    DirectElement {
        name: QName,
        attrs: Vec<(QName, Vec<AttrValuePart>)>,
        content: Vec<DirContent>,
    },
    ComputedElement {
        name: Box<Expr>,
        content: Box<Expr>,
    },
    ComputedAttribute {
        name: Box<Expr>,
        content: Box<Expr>,
    },
    ComputedText(Box<Expr>),
    ComputedComment(Box<Expr>),
    ComputedDocument(Box<Expr>),

    // -- updating expressions (QML extensions + XQUF subset) -----------------
    /// `do enqueue Expr into QName (with PName value Expr)*` (paper Sec 3.4).
    Enqueue {
        message: Box<Expr>,
        queue: QName,
        props: Vec<(String, Expr)>,
    },
    /// `do reset` / `do reset QName key Expr` (paper Sec 3.5.3).
    Reset {
        slicing: Option<QName>,
        key: Option<Box<Expr>>,
    },
    /// XQUF `do insert Source (into|before|after|...) Target`.
    Insert {
        source: Box<Expr>,
        pos: InsertPos,
        target: Box<Expr>,
    },
    /// XQUF `do delete Target`.
    Delete {
        target: Box<Expr>,
    },
    /// XQUF `do replace (value of)? Target with Source`.
    Replace {
        target: Box<Expr>,
        source: Box<Expr>,
        value_of: bool,
    },
    /// XQUF `do rename Target as NewName`.
    Rename {
        target: Box<Expr>,
        name: Box<Expr>,
    },

    // -- misc -----------------------------------------------------------------
    /// `expr cast as xs:type` (subset: the paper's atomic types).
    Cast {
        expr: Box<Expr>,
        ty: String,
    },
    /// `expr instance of` simplified: type name only.
    InstanceOf {
        expr: Box<Expr>,
        ty: String,
    },
}

impl Expr {
    /// True if this expression (conservatively) contains an updating
    /// expression. QML requires rule bodies to be updating expressions; the
    /// engine uses this to validate rules and to decide plan shapes.
    pub fn is_updating(&self) -> bool {
        match self {
            Expr::Enqueue { .. }
            | Expr::Reset { .. }
            | Expr::Insert { .. }
            | Expr::Delete { .. }
            | Expr::Replace { .. }
            | Expr::Rename { .. } => true,
            Expr::Sequence(es) => es.iter().any(Expr::is_updating),
            Expr::If { then, els, .. } => {
                then.is_updating() || els.as_ref().is_some_and(|e| e.is_updating())
            }
            Expr::Flwor { ret, .. } => ret.is_updating(),
            _ => false,
        }
    }

    /// Walk the expression tree, applying `f` to every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        self.for_each_child(|e| e.visit(f));
    }

    /// Apply `go` to each direct subexpression, in source order.
    pub fn for_each_child<'e>(&'e self, mut go: impl FnMut(&'e Expr)) {
        match self {
            Expr::Sequence(es) => es.iter().for_each(&mut go),
            Expr::FunctionCall { args, .. } => args.iter().for_each(&mut go),
            Expr::Path { steps, .. } => steps.iter().for_each(&mut go),
            Expr::Step { predicates, .. } => predicates.iter().for_each(&mut go),
            Expr::Filter { base, predicates } => {
                go(base);
                predicates.iter().for_each(&mut go);
            }
            Expr::RelativePath { base, step, .. } => {
                go(base);
                go(step);
            }
            Expr::Or(a, b) | Expr::And(a, b) | Expr::Range(a, b) => {
                go(a);
                go(b);
            }
            Expr::Comparison { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::Set { left, right, .. } => {
                go(left);
                go(right);
            }
            Expr::Neg(e)
            | Expr::ComputedText(e)
            | Expr::ComputedComment(e)
            | Expr::ComputedDocument(e) => go(e),
            Expr::If { cond, then, els } => {
                go(cond);
                go(then);
                if let Some(e) = els {
                    go(e);
                }
            }
            Expr::Flwor {
                clauses,
                where_,
                order,
                ret,
            } => {
                for c in clauses {
                    match c {
                        FlworClause::For { source, .. } => go(source),
                        FlworClause::Let { value, .. } => go(value),
                    }
                }
                if let Some(w) = where_ {
                    go(w);
                }
                for o in order {
                    go(&o.key);
                }
                go(ret);
            }
            Expr::Quantified {
                bindings,
                satisfies,
                ..
            } => {
                for (_, e) in bindings {
                    go(e);
                }
                go(satisfies);
            }
            Expr::DirectElement { attrs, content, .. } => {
                for (_, parts) in attrs {
                    for p in parts {
                        if let AttrValuePart::Enclosed(e) = p {
                            go(e);
                        }
                    }
                }
                for c in content {
                    match c {
                        DirContent::Enclosed(e) | DirContent::Expr(e) => go(e),
                        DirContent::Text(_) => {}
                    }
                }
            }
            Expr::ComputedElement { name, content } | Expr::ComputedAttribute { name, content } => {
                go(name);
                go(content);
            }
            Expr::Enqueue { message, props, .. } => {
                go(message);
                for (_, e) in props {
                    go(e);
                }
            }
            Expr::Reset { key, .. } => {
                if let Some(k) = key {
                    go(k);
                }
            }
            Expr::Insert { source, target, .. } => {
                go(source);
                go(target);
            }
            Expr::Delete { target } => go(target),
            Expr::Replace { target, source, .. } => {
                go(target);
                go(source);
            }
            Expr::Rename { target, name } => {
                go(target);
                go(name);
            }
            Expr::Cast { expr, .. } | Expr::InstanceOf { expr, .. } => go(expr),
            Expr::StringLit(_)
            | Expr::IntLit(_)
            | Expr::DoubleLit(_)
            | Expr::Var(_)
            | Expr::ContextItem => {}
        }
    }

    /// Transform the expression tree bottom-up with `f`. Used by the Demaq
    /// rule compiler for view-merging rewrites (fixed-property inlining,
    /// `qs:queue()` default-argument injection).
    pub fn rewrite(self, f: &impl Fn(Expr) -> Expr) -> Expr {
        let go = |e: Expr| e.rewrite(f);
        let gob = |e: Box<Expr>| Box::new(go(*e));
        let rewritten = match self {
            Expr::Sequence(es) => Expr::Sequence(es.into_iter().map(go).collect()),
            Expr::FunctionCall { name, args } => Expr::FunctionCall {
                name,
                args: args.into_iter().map(go).collect(),
            },
            Expr::Path { root, steps } => Expr::Path {
                root,
                steps: steps.into_iter().map(go).collect(),
            },
            Expr::Step {
                axis,
                test,
                predicates,
            } => Expr::Step {
                axis,
                test,
                predicates: predicates.into_iter().map(go).collect(),
            },
            Expr::Filter { base, predicates } => Expr::Filter {
                base: gob(base),
                predicates: predicates.into_iter().map(go).collect(),
            },
            Expr::RelativePath {
                base,
                step,
                descend,
            } => Expr::RelativePath {
                base: gob(base),
                step: gob(step),
                descend,
            },
            Expr::Or(a, b) => Expr::Or(gob(a), gob(b)),
            Expr::And(a, b) => Expr::And(gob(a), gob(b)),
            Expr::Range(a, b) => Expr::Range(gob(a), gob(b)),
            Expr::Comparison { op, left, right } => Expr::Comparison {
                op,
                left: gob(left),
                right: gob(right),
            },
            Expr::Arith { op, left, right } => Expr::Arith {
                op,
                left: gob(left),
                right: gob(right),
            },
            Expr::Set { op, left, right } => Expr::Set {
                op,
                left: gob(left),
                right: gob(right),
            },
            Expr::Neg(e) => Expr::Neg(gob(e)),
            Expr::If { cond, then, els } => Expr::If {
                cond: gob(cond),
                then: gob(then),
                els: els.map(gob),
            },
            Expr::Flwor {
                clauses,
                where_,
                order,
                ret,
            } => Expr::Flwor {
                clauses: clauses
                    .into_iter()
                    .map(|c| match c {
                        FlworClause::For { var, at, source } => FlworClause::For {
                            var,
                            at,
                            source: go(source),
                        },
                        FlworClause::Let { var, value } => FlworClause::Let {
                            var,
                            value: go(value),
                        },
                    })
                    .collect(),
                where_: where_.map(gob),
                order: order
                    .into_iter()
                    .map(|o| OrderSpec {
                        key: go(o.key),
                        ..o
                    })
                    .collect(),
                ret: gob(ret),
            },
            Expr::Quantified {
                every,
                bindings,
                satisfies,
            } => Expr::Quantified {
                every,
                bindings: bindings.into_iter().map(|(v, e)| (v, go(e))).collect(),
                satisfies: gob(satisfies),
            },
            Expr::DirectElement {
                name,
                attrs,
                content,
            } => Expr::DirectElement {
                name,
                attrs: attrs
                    .into_iter()
                    .map(|(n, parts)| {
                        (
                            n,
                            parts
                                .into_iter()
                                .map(|p| match p {
                                    AttrValuePart::Enclosed(e) => AttrValuePart::Enclosed(go(e)),
                                    t => t,
                                })
                                .collect(),
                        )
                    })
                    .collect(),
                content: content
                    .into_iter()
                    .map(|c| match c {
                        DirContent::Enclosed(e) => DirContent::Enclosed(go(e)),
                        DirContent::Expr(e) => DirContent::Expr(go(e)),
                        t => t,
                    })
                    .collect(),
            },
            Expr::ComputedElement { name, content } => Expr::ComputedElement {
                name: gob(name),
                content: gob(content),
            },
            Expr::ComputedAttribute { name, content } => Expr::ComputedAttribute {
                name: gob(name),
                content: gob(content),
            },
            Expr::ComputedText(e) => Expr::ComputedText(gob(e)),
            Expr::ComputedComment(e) => Expr::ComputedComment(gob(e)),
            Expr::ComputedDocument(e) => Expr::ComputedDocument(gob(e)),
            Expr::Enqueue {
                message,
                queue,
                props,
            } => Expr::Enqueue {
                message: gob(message),
                queue,
                props: props.into_iter().map(|(n, e)| (n, go(e))).collect(),
            },
            Expr::Reset { slicing, key } => Expr::Reset {
                slicing,
                key: key.map(gob),
            },
            Expr::Insert {
                source,
                pos,
                target,
            } => Expr::Insert {
                source: gob(source),
                pos,
                target: gob(target),
            },
            Expr::Delete { target } => Expr::Delete {
                target: gob(target),
            },
            Expr::Replace {
                target,
                source,
                value_of,
            } => Expr::Replace {
                target: gob(target),
                source: gob(source),
                value_of,
            },
            Expr::Rename { target, name } => Expr::Rename {
                target: gob(target),
                name: gob(name),
            },
            Expr::Cast { expr, ty } => Expr::Cast {
                expr: gob(expr),
                ty,
            },
            Expr::InstanceOf { expr, ty } => Expr::InstanceOf {
                expr: gob(expr),
                ty,
            },
            leaf @ (Expr::StringLit(_)
            | Expr::IntLit(_)
            | Expr::DoubleLit(_)
            | Expr::Var(_)
            | Expr::ContextItem) => leaf,
        };
        f(rewritten)
    }
}
