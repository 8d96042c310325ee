//! Recursive-descent parser for the XQuery/QML expression grammar.
//!
//! Follows XQuery 1.0 operator precedence. Direct element constructors are
//! parsed in raw character mode (see [`crate::lexer`]); everything else is
//! token-driven. The QML extensions (`do enqueue`, `do reset`) are parsed
//! as updating expressions; the XQUF tree updates (`do insert`,
//! `do delete`, `do replace`, `do rename`) are recognised only to be
//! refused, because stored messages are immutable.

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::{Lexer, Tok};
use demaq_xml::QName;

/// Parse a complete expression (must consume all input).
pub fn parse_expr(input: &str) -> Result<Expr> {
    let mut p = Parser {
        lx: Lexer::new(input),
        depth: 0,
    };
    let e = p.expr()?;
    match p.lx.peek()? {
        Tok::Eof => Ok(e),
        t => {
            let (line, col) = p.lx.line_col(p.lx.raw_pos());
            Err(Error::static_error(format!(
                "unexpected trailing token {t:?} at {line}:{col}"
            )))
        }
    }
}

/// Parse a single `ExprSingle` from the start of `input`, returning the
/// expression and the number of characters consumed. Used by the QDL
/// parser, which embeds expressions inside `create property … value Expr`
/// and `create rule … CondExpr` statements.
pub fn parse_expr_prefix(input: &str) -> Result<(Expr, usize)> {
    let mut p = Parser {
        lx: Lexer::new(input),
        depth: 0,
    };
    let e = p.expr_single()?;
    // Ensure the lookahead is not counted as consumed.
    let _ = p.lx.peek();
    Ok((e, p.lx.raw_pos()))
}

/// Reserved function-like names that are kind tests, not function calls.
const KIND_TESTS: &[&str] = &[
    "node",
    "text",
    "comment",
    "element",
    "attribute",
    "processing-instruction",
    "document-node",
];

/// Keywords that cannot start a path step when followed by their trigger
/// token (disambiguation is done with explicit lookahead in `expr_single`).
struct Parser {
    lx: Lexer,
    depth: u32,
}

/// Recursion guard: queries nested deeper than this are rejected instead of
/// overflowing the stack (rule programs are small; this is a safety net
/// against adversarial messages containing pathological queries).
const MAX_PARSE_DEPTH: u32 = 40;

impl Parser {
    fn err<T>(&mut self, msg: impl Into<String>) -> Result<T> {
        let (line, col) = self.lx.line_col(self.lx.raw_pos());
        Err(Error::static_error(format!(
            "{} (at {}:{})",
            msg.into(),
            line,
            col
        )))
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.lx.eat_sym(s) {
            Ok(())
        } else {
            let t = self.lx.peek()?;
            self.err(format!("expected `{s}`, found {t:?}"))
        }
    }

    fn expect_name(&mut self, s: &str) -> Result<()> {
        if self.lx.eat_name(s) {
            Ok(())
        } else {
            let t = self.lx.peek()?;
            self.err(format!("expected `{s}`, found {t:?}"))
        }
    }

    fn name_token(&mut self) -> Result<String> {
        match self.lx.next_tok()? {
            Tok::Name(n) => Ok(n),
            t => self.err(format!("expected a name, found {t:?}")),
        }
    }

    fn qname(&mut self) -> Result<QName> {
        let n = self.name_token()?;
        QName::parse_lexical(&n).ok_or_else(|| Error::static_error(format!("invalid QName `{n}`")))
    }

    fn var_name(&mut self) -> Result<String> {
        self.expect_sym("$")?;
        self.name_token()
    }

    // ---- top level ---------------------------------------------------------

    /// Expr ::= ExprSingle ("," ExprSingle)*
    pub fn expr(&mut self) -> Result<Expr> {
        let first = self.expr_single()?;
        if !self.lx.at_sym(",") {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.lx.eat_sym(",") {
            items.push(self.expr_single()?);
        }
        Ok(Expr::Sequence(items))
    }

    fn expr_single(&mut self) -> Result<Expr> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            self.depth -= 1;
            return Err(Error::static_error("expression nesting too deep"));
        }
        let r = self.expr_single_inner();
        self.depth -= 1;
        r
    }

    fn expr_single_inner(&mut self) -> Result<Expr> {
        if self.at_kw_then("for", "$") || self.at_kw_then("let", "$") {
            return self.flwor();
        }
        if self.at_kw_then("some", "$") || self.at_kw_then("every", "$") {
            return self.quantified();
        }
        if self.at_kw_then("if", "(") {
            return self.if_expr();
        }
        if self.at_do_keyword() {
            return self.updating_expr();
        }
        self.or_expr()
    }

    /// Lookahead: keyword name followed by a specific symbol.
    fn at_kw_then(&mut self, kw: &str, sym: &str) -> bool {
        if !self.lx.at_name(kw) {
            return false;
        }
        // Tentatively consume and restore via re-lexing: cheap because the
        // lexer's peek is positionless. We clone-position manually.
        let save = self.save();
        let _ = self.lx.next_tok();
        let hit = self.lx.at_sym(sym);
        self.restore(save);
        hit
    }

    fn at_do_keyword(&mut self) -> bool {
        if !self.lx.at_name("do") {
            return false;
        }
        let save = self.save();
        let _ = self.lx.next_tok();
        let hit = ["enqueue", "reset", "insert", "delete", "replace", "rename"]
            .iter()
            .any(|k| self.lx.at_name(k));
        self.restore(save);
        hit
    }

    fn save(&self) -> usize {
        self.lx.raw_pos()
    }

    fn restore(&mut self, pos: usize) {
        self.lx.clear_peek();
        self.lx.rewind(pos);
    }

    // ---- FLWOR --------------------------------------------------------------

    fn flwor(&mut self) -> Result<Expr> {
        let mut clauses = Vec::new();
        loop {
            if self.at_kw_then("for", "$") {
                self.expect_name("for")?;
                loop {
                    let var = self.var_name()?;
                    let at = if self.lx.eat_name("at") {
                        Some(self.var_name()?)
                    } else {
                        None
                    };
                    self.expect_name("in")?;
                    let source = self.expr_single()?;
                    clauses.push(FlworClause::For { var, at, source });
                    if !self.lx.eat_sym(",") {
                        break;
                    }
                }
            } else if self.at_kw_then("let", "$") {
                self.expect_name("let")?;
                loop {
                    let var = self.var_name()?;
                    self.expect_sym(":=")?;
                    let value = self.expr_single()?;
                    clauses.push(FlworClause::Let { var, value });
                    if !self.lx.eat_sym(",") {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        let where_ = if self.lx.eat_name("where") {
            Some(Box::new(self.expr_single()?))
        } else {
            None
        };
        let mut order = Vec::new();
        let stable = self.at_kw_then2("stable", "order");
        if stable {
            self.expect_name("stable")?;
        }
        if stable || self.at_kw_then2("order", "by") {
            self.expect_name("order")?;
            self.expect_name("by")?;
            loop {
                let key = self.expr_single()?;
                let descending = if self.lx.eat_name("descending") {
                    true
                } else {
                    self.lx.eat_name("ascending");
                    false
                };
                let mut empty_greatest = false;
                if self.lx.eat_name("empty") {
                    if self.lx.eat_name("greatest") {
                        empty_greatest = true;
                    } else {
                        self.expect_name("least")?;
                    }
                }
                order.push(OrderSpec {
                    key,
                    descending,
                    empty_greatest,
                });
                if !self.lx.eat_sym(",") {
                    break;
                }
            }
        }
        self.expect_name("return")?;
        let ret = Box::new(self.expr_single()?);
        Ok(Expr::Flwor {
            clauses,
            where_,
            order,
            ret,
        })
    }

    fn quantified(&mut self) -> Result<Expr> {
        let every = self.lx.eat_name("every");
        if !every {
            self.expect_name("some")?;
        }
        let mut bindings = Vec::new();
        loop {
            let var = self.var_name()?;
            self.expect_name("in")?;
            let source = self.expr_single()?;
            bindings.push((var, source));
            if !self.lx.eat_sym(",") {
                break;
            }
        }
        self.expect_name("satisfies")?;
        let satisfies = Box::new(self.expr_single()?);
        Ok(Expr::Quantified {
            every,
            bindings,
            satisfies,
        })
    }

    fn if_expr(&mut self) -> Result<Expr> {
        self.expect_name("if")?;
        self.expect_sym("(")?;
        let cond = Box::new(self.expr()?);
        self.expect_sym(")")?;
        self.expect_name("then")?;
        let then = Box::new(self.expr_single()?);
        // QML convenience (paper Sec 3.3): the else branch may be absent and
        // defaults to the empty sequence.
        let els = if self.lx.eat_name("else") {
            Some(Box::new(self.expr_single()?))
        } else {
            None
        };
        Ok(Expr::If { cond, then, els })
    }

    // ---- updating expressions ----------------------------------------------

    fn updating_expr(&mut self) -> Result<Expr> {
        self.expect_name("do")?;
        if self.lx.eat_name("enqueue") {
            let message = Box::new(self.expr_single()?);
            self.expect_name("into")?;
            let queue = self.qname()?;
            let mut props = Vec::new();
            while self.lx.eat_name("with") {
                let pname = self.name_token()?;
                self.expect_name("value")?;
                let pval = self.expr_single()?;
                props.push((pname, pval));
            }
            return Ok(Expr::Enqueue {
                message,
                queue,
                props,
            });
        }
        if self.lx.eat_name("reset") {
            // `do reset` | `do reset slicing key Expr`. The parameterless
            // form resets the current rule's slice (paper Sec. 3.5.3); a
            // slicing name is only recognized when followed by `key`, which
            // keeps `do reset` unambiguous inside QDL statement sequences.
            let has_params = match self.lx.peek()? {
                Tok::Name(n) if n != "key" => {
                    let save = self.save();
                    let _ = self.lx.next_tok();
                    let hit = self.lx.at_name("key");
                    self.restore(save);
                    hit
                }
                _ => false,
            };
            let (slicing, key) = if has_params {
                let s = self.qname()?;
                self.expect_name("key")?;
                let k = Box::new(self.expr_single()?);
                (Some(s), Some(k))
            } else {
                (None, None)
            };
            return Ok(Expr::Reset { slicing, key });
        }
        // What `at_do_keyword` lets through besides `enqueue` and `reset`
        // is one of the four XQUF tree updates. Each would change a stored
        // message, and stored messages are immutable.
        let form = match self.lx.next_tok()? {
            Tok::Name(n) if n == "replace" && self.lx.at_name("value") => "replace value of".into(),
            Tok::Name(n) => n,
            t => format!("{t:?}"),
        };
        self.err(format!(
            "`do {form}` is not supported: stored messages are immutable; \
             build the new message with an element constructor and `do enqueue` it"
        ))
    }

    // ---- operator precedence ladder ------------------------------------------

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.lx.eat_name("or") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.comparison_expr()?;
        while self.lx.eat_name("and") {
            let right = self.comparison_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn comparison_expr(&mut self) -> Result<Expr> {
        let left = self.range_expr()?;
        let op = match self.lx.peek()? {
            Tok::Sym("=") => Some(CompOp::GenEq),
            Tok::Sym("!=") => Some(CompOp::GenNe),
            Tok::Sym("<") => Some(CompOp::GenLt),
            Tok::Sym("<=") => Some(CompOp::GenLe),
            Tok::Sym(">") => Some(CompOp::GenGt),
            Tok::Sym(">=") => Some(CompOp::GenGe),
            Tok::Sym("<<") => Some(CompOp::Precedes),
            Tok::Sym(">>") => Some(CompOp::Follows),
            Tok::Name(n) => match n.as_str() {
                "eq" => Some(CompOp::ValEq),
                "ne" => Some(CompOp::ValNe),
                "lt" => Some(CompOp::ValLt),
                "le" => Some(CompOp::ValLe),
                "gt" => Some(CompOp::ValGt),
                "ge" => Some(CompOp::ValGe),
                "is" => Some(CompOp::Is),
                _ => None,
            },
            _ => None,
        };
        match op {
            None => Ok(left),
            Some(op) => {
                let _ = self.lx.next_tok();
                let right = self.range_expr()?;
                Ok(Expr::Comparison {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
        }
    }

    fn range_expr(&mut self) -> Result<Expr> {
        let left = self.additive_expr()?;
        if self.lx.eat_name("to") {
            let right = self.additive_expr()?;
            Ok(Expr::Range(Box::new(left), Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn additive_expr(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative_expr()?;
        loop {
            let op = if self.lx.eat_sym("+") {
                ArithOp::Add
            } else if self.lx.eat_sym("-") {
                ArithOp::Sub
            } else {
                return Ok(left);
            };
            let right = self.multiplicative_expr()?;
            left = Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn multiplicative_expr(&mut self) -> Result<Expr> {
        let mut left = self.union_expr()?;
        loop {
            let op = if self.lx.eat_sym("*") {
                ArithOp::Mul
            } else if self.lx.eat_name("div") {
                ArithOp::Div
            } else if self.lx.eat_name("idiv") {
                ArithOp::IDiv
            } else if self.lx.eat_name("mod") {
                ArithOp::Mod
            } else {
                return Ok(left);
            };
            let right = self.union_expr()?;
            left = Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn union_expr(&mut self) -> Result<Expr> {
        let mut left = self.intersect_expr()?;
        while self.lx.eat_sym("|") || self.lx.eat_name("union") {
            let right = self.intersect_expr()?;
            left = Expr::Set {
                op: SetOp::Union,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn intersect_expr(&mut self) -> Result<Expr> {
        let mut left = self.cast_expr()?;
        loop {
            let op = if self.lx.eat_name("intersect") {
                SetOp::Intersect
            } else if self.lx.eat_name("except") {
                SetOp::Except
            } else {
                return Ok(left);
            };
            let right = self.cast_expr()?;
            left = Expr::Set {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn cast_expr(&mut self) -> Result<Expr> {
        let e = self.unary_expr()?;
        if self.at_kw_then2("cast", "as") {
            self.expect_name("cast")?;
            self.expect_name("as")?;
            let ty = self.name_token()?;
            self.lx.eat_sym("?"); // optional occurrence indicator
            return Ok(Expr::Cast {
                expr: Box::new(e),
                ty,
            });
        }
        if self.at_kw_then2("instance", "of") {
            self.expect_name("instance")?;
            self.expect_name("of")?;
            let ty = self.name_token()?;
            self.lx.eat_sym("?");
            return Ok(Expr::InstanceOf {
                expr: Box::new(e),
                ty,
            });
        }
        Ok(e)
    }

    /// Lookahead: keyword name followed by another keyword name.
    fn at_kw_then2(&mut self, kw: &str, kw2: &str) -> bool {
        if !self.lx.at_name(kw) {
            return false;
        }
        let save = self.save();
        let _ = self.lx.next_tok();
        let hit = self.lx.at_name(kw2);
        self.restore(save);
        hit
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.lx.eat_sym("-") {
            let inner = self.unary_expr()?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        if self.lx.eat_sym("+") {
            return self.unary_expr();
        }
        self.path_expr()
    }

    // ---- paths ------------------------------------------------------------

    fn path_expr(&mut self) -> Result<Expr> {
        if self.lx.at_sym("//") {
            self.expect_sym("//")?;
            let mut steps = vec![Expr::Step {
                axis: Axis::DescendantOrSelf,
                test: NodeTest::AnyKind,
                predicates: vec![],
            }];
            self.relative_path_into(&mut steps)?;
            return Ok(Expr::Path { root: true, steps });
        }
        if self.lx.at_sym("/") {
            self.expect_sym("/")?;
            if self.at_step_start() {
                let mut steps = Vec::new();
                self.relative_path_into(&mut steps)?;
                return Ok(Expr::Path { root: true, steps });
            }
            return Ok(Expr::Path {
                root: true,
                steps: vec![],
            });
        }
        if self.at_step_start() {
            let mut steps = Vec::new();
            self.relative_path_into(&mut steps)?;
            if steps.len() == 1 {
                // A single primary-expression "step" needs no path wrapper.
                if !matches!(steps[0], Expr::Step { .. }) {
                    return Ok(steps.pop_unwrapped());
                }
            }
            return Ok(Expr::Path { root: false, steps });
        }
        let t = self.lx.peek()?;
        self.err(format!("expected an expression, found {t:?}"))
    }

    fn relative_path_into(&mut self, steps: &mut Vec<Expr>) -> Result<()> {
        loop {
            let step = self.step_expr()?;
            steps.push(step);
            if self.lx.eat_sym("//") {
                steps.push(Expr::Step {
                    axis: Axis::DescendantOrSelf,
                    test: NodeTest::AnyKind,
                    predicates: vec![],
                });
            } else if !self.lx.eat_sym("/") {
                return Ok(());
            }
        }
    }

    /// Could the next token begin a path step / primary expression?
    fn at_step_start(&mut self) -> bool {
        match self.lx.peek() {
            Ok(Tok::Name(_))
            | Ok(Tok::IntLit(_))
            | Ok(Tok::DoubleLit(_))
            | Ok(Tok::StringLit(_)) => true,
            Ok(Tok::Sym(s)) => matches!(s, "(" | "$" | "@" | "." | ".." | "*" | "<"),
            _ => false,
        }
    }

    fn step_expr(&mut self) -> Result<Expr> {
        // Reverse step `..`
        if self.lx.eat_sym("..") {
            let predicates = self.predicates()?;
            return Ok(Expr::Step {
                axis: Axis::Parent,
                test: NodeTest::AnyKind,
                predicates,
            });
        }
        // Attribute shorthand `@`
        if self.lx.eat_sym("@") {
            let test = self.node_test()?;
            let predicates = self.predicates()?;
            return Ok(Expr::Step {
                axis: Axis::Attribute,
                test,
                predicates,
            });
        }
        // Explicit axis `name::`
        if let Ok(Tok::Name(n)) = self.lx.peek() {
            if let Some(axis) = axis_from_name(&n) {
                let save = self.save();
                let _ = self.lx.next_tok();
                if self.lx.eat_sym("::") {
                    let test = self.node_test()?;
                    let predicates = self.predicates()?;
                    return Ok(Expr::Step {
                        axis,
                        test,
                        predicates,
                    });
                }
                self.restore(save);
            }
        }
        // Name test or kind test (not a function call or keyword-expression).
        match self.lx.peek()? {
            Tok::Sym("*") => {
                let _ = self.lx.next_tok();
                let predicates = self.predicates()?;
                return Ok(Expr::Step {
                    axis: Axis::Child,
                    test: NodeTest::AnyName,
                    predicates,
                });
            }
            Tok::Name(n) => {
                if KIND_TESTS.contains(&n.as_str()) && self.name_then_lparen() {
                    let test = self.node_test()?;
                    let predicates = self.predicates()?;
                    return Ok(Expr::Step {
                        axis: Axis::Child,
                        test,
                        predicates,
                    });
                }
                if !self.name_then_lparen() && !self.at_computed_constructor() {
                    // Plain child-axis name test.
                    let q = self.qname()?;
                    let predicates = self.predicates()?;
                    return Ok(Expr::Step {
                        axis: Axis::Child,
                        test: NodeTest::Name(q),
                        predicates,
                    });
                }
            }
            _ => {}
        }
        // Otherwise: a primary expression with optional predicates.
        let base = self.primary_expr()?;
        let predicates = self.predicates()?;
        if predicates.is_empty() {
            Ok(base)
        } else {
            Ok(Expr::Filter {
                base: Box::new(base),
                predicates,
            })
        }
    }

    fn name_then_lparen(&mut self) -> bool {
        let save = self.save();
        let is_name = matches!(self.lx.peek(), Ok(Tok::Name(_)));
        if !is_name {
            return false;
        }
        let _ = self.lx.next_tok();
        let hit = self.lx.at_sym("(");
        self.restore(save);
        hit
    }

    fn at_computed_constructor(&mut self) -> bool {
        let kw = match self.lx.peek() {
            Ok(Tok::Name(n)) => n,
            _ => return false,
        };
        match kw.as_str() {
            "element" | "attribute" => {
                // `element {expr} {content}` or `element name {content}`
                let save = self.save();
                let _ = self.lx.next_tok();
                let hit = self.lx.at_sym("{")
                    || (matches!(self.lx.peek(), Ok(Tok::Name(_))) && {
                        let _ = self.lx.next_tok();
                        self.lx.at_sym("{")
                    });
                self.restore(save);
                hit
            }
            "text" | "comment" | "document" => self.at_kw_then(&kw, "{"),
            _ => false,
        }
    }

    fn node_test(&mut self) -> Result<NodeTest> {
        match self.lx.peek()? {
            Tok::Sym("*") => {
                let _ = self.lx.next_tok();
                Ok(NodeTest::AnyName)
            }
            Tok::Name(n) => {
                if KIND_TESTS.contains(&n.as_str()) && self.name_then_lparen() {
                    let kind = self.name_token()?;
                    self.expect_sym("(")?;
                    let test = match kind.as_str() {
                        "node" => NodeTest::AnyKind,
                        "text" => NodeTest::Text,
                        "comment" => NodeTest::Comment,
                        "document-node" => NodeTest::Document,
                        "element" => {
                            if self.lx.at_sym(")") {
                                NodeTest::Element(None)
                            } else {
                                NodeTest::Element(Some(self.qname()?))
                            }
                        }
                        "attribute" => {
                            if self.lx.at_sym(")") {
                                NodeTest::Attribute(None)
                            } else {
                                NodeTest::Attribute(Some(self.qname()?))
                            }
                        }
                        "processing-instruction" => {
                            if self.lx.at_sym(")") {
                                NodeTest::Pi(None)
                            } else {
                                match self.lx.next_tok()? {
                                    Tok::StringLit(s) => NodeTest::Pi(Some(s)),
                                    Tok::Name(s) => NodeTest::Pi(Some(s)),
                                    t => return self.err(format!("bad PI target {t:?}")),
                                }
                            }
                        }
                        _ => unreachable!("KIND_TESTS covers all"),
                    };
                    self.expect_sym(")")?;
                    Ok(test)
                } else {
                    Ok(NodeTest::Name(self.qname()?))
                }
            }
            t => self.err(format!("expected a node test, found {t:?}")),
        }
    }

    fn predicates(&mut self) -> Result<Vec<Expr>> {
        let mut out = Vec::new();
        while self.lx.eat_sym("[") {
            out.push(self.expr()?);
            self.expect_sym("]")?;
        }
        Ok(out)
    }

    // ---- primaries --------------------------------------------------------

    fn primary_expr(&mut self) -> Result<Expr> {
        match self.lx.peek()? {
            Tok::StringLit(s) => {
                let _ = self.lx.next_tok();
                Ok(Expr::StringLit(s))
            }
            Tok::IntLit(i) => {
                let _ = self.lx.next_tok();
                Ok(Expr::IntLit(i))
            }
            Tok::DoubleLit(d) => {
                let _ = self.lx.next_tok();
                Ok(Expr::DoubleLit(d))
            }
            Tok::Sym("$") => {
                let name = self.var_name()?;
                Ok(Expr::Var(name))
            }
            Tok::Sym(".") => {
                let _ = self.lx.next_tok();
                Ok(Expr::ContextItem)
            }
            Tok::Sym("(") => {
                let _ = self.lx.next_tok();
                if self.lx.eat_sym(")") {
                    return Ok(Expr::Sequence(vec![]));
                }
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Sym("<") => self.direct_constructor(),
            Tok::Name(n) => {
                if self.at_computed_constructor() {
                    return self.computed_constructor();
                }
                if self.name_then_lparen() && !KIND_TESTS.contains(&n.as_str()) {
                    return self.function_call();
                }
                let t = self.lx.peek()?;
                self.err(format!("unexpected token {t:?} in expression"))
            }
            t => self.err(format!("unexpected token {t:?} in expression")),
        }
    }

    fn function_call(&mut self) -> Result<Expr> {
        let raw = self.name_token()?;
        // Normalize the default function namespace prefix.
        let normalized = raw.strip_prefix("fn:").unwrap_or(&raw).to_string();
        let name = QName::parse_lexical(&normalized)
            .ok_or_else(|| Error::static_error(format!("invalid function name `{raw}`")))?;
        self.expect_sym("(")?;
        let mut args = Vec::new();
        if !self.lx.at_sym(")") {
            loop {
                args.push(self.expr_single()?);
                if !self.lx.eat_sym(",") {
                    break;
                }
            }
        }
        self.expect_sym(")")?;
        Ok(Expr::FunctionCall { name, args })
    }

    fn computed_constructor(&mut self) -> Result<Expr> {
        let kw = self.name_token()?;
        match kw.as_str() {
            "element" | "attribute" => {
                let name: Expr = if self.lx.at_sym("{") {
                    self.expect_sym("{")?;
                    let e = self.expr()?;
                    self.expect_sym("}")?;
                    e
                } else {
                    Expr::StringLit(self.name_token()?)
                };
                self.expect_sym("{")?;
                let content = if self.lx.at_sym("}") {
                    Expr::Sequence(vec![])
                } else {
                    self.expr()?
                };
                self.expect_sym("}")?;
                if kw == "element" {
                    Ok(Expr::ComputedElement {
                        name: Box::new(name),
                        content: Box::new(content),
                    })
                } else {
                    Ok(Expr::ComputedAttribute {
                        name: Box::new(name),
                        content: Box::new(content),
                    })
                }
            }
            "text" | "comment" | "document" => {
                self.expect_sym("{")?;
                let content = if self.lx.at_sym("}") {
                    Expr::Sequence(vec![])
                } else {
                    self.expr()?
                };
                self.expect_sym("}")?;
                Ok(match kw.as_str() {
                    "text" => Expr::ComputedText(Box::new(content)),
                    "comment" => Expr::ComputedComment(Box::new(content)),
                    _ => Expr::ComputedDocument(Box::new(content)),
                })
            }
            other => self.err(format!("unknown computed constructor `{other}`")),
        }
    }

    // ---- direct element constructors (raw mode) -----------------------------

    fn direct_constructor(&mut self) -> Result<Expr> {
        self.expect_sym("<")?;
        self.lx.clear_peek();
        self.parse_element_tail()
    }

    /// Parse an element constructor, positioned just after `<`.
    fn parse_element_tail(&mut self) -> Result<Expr> {
        let name_s = self.lx.raw_name()?;
        let name = QName::parse_lexical(&name_s)
            .ok_or_else(|| Error::static_error(format!("invalid element name `{name_s}`")))?;
        let mut attrs = Vec::new();
        loop {
            self.lx.raw_skip_ws();
            match self.lx.raw_peek() {
                Some('/') | Some('>') => break,
                None => return self.err("unexpected end of constructor"),
                _ => {
                    let an_s = self.lx.raw_name()?;
                    let an = QName::parse_lexical(&an_s).ok_or_else(|| {
                        Error::static_error(format!("invalid attribute name `{an_s}`"))
                    })?;
                    self.lx.raw_skip_ws();
                    if !self.lx.raw_eat("=") {
                        return self.err("expected `=` in attribute");
                    }
                    self.lx.raw_skip_ws();
                    let parts = self.attr_value_template()?;
                    attrs.push((an, parts));
                }
            }
        }
        if self.lx.raw_eat("/>") {
            return Ok(Expr::DirectElement {
                name,
                attrs,
                content: vec![],
            });
        }
        if !self.lx.raw_eat(">") {
            return self.err("expected `>` in constructor");
        }
        let mut content: Vec<DirContent> = Vec::new();
        let mut text = String::new();
        macro_rules! flush_text {
            () => {
                if !text.is_empty() {
                    content.push(DirContent::Text(std::mem::take(&mut text)));
                }
            };
        }
        loop {
            if self.lx.raw_starts_with("</") {
                flush_text!();
                self.lx.raw_eat("</");
                let end = self.lx.raw_name()?;
                self.lx.raw_skip_ws();
                if !self.lx.raw_eat(">") {
                    return self.err("expected `>` in end tag");
                }
                if end != name_s {
                    return self.err(format!("mismatched end tag `</{end}>` for `<{name_s}>`"));
                }
                break;
            } else if self.lx.raw_starts_with("<!--") {
                flush_text!();
                self.lx.raw_eat("<!--");
                let mut c = String::new();
                while !self.lx.raw_starts_with("-->") {
                    match self.lx.raw_bump() {
                        Some(ch) => c.push(ch),
                        None => return self.err("unterminated comment in constructor"),
                    }
                }
                self.lx.raw_eat("-->");
                content.push(DirContent::Expr(Expr::ComputedComment(Box::new(
                    Expr::StringLit(c),
                ))));
            } else if self.lx.raw_starts_with("<![CDATA[") {
                self.lx.raw_eat("<![CDATA[");
                while !self.lx.raw_starts_with("]]>") {
                    match self.lx.raw_bump() {
                        Some(ch) => text.push(ch),
                        None => return self.err("unterminated CDATA in constructor"),
                    }
                }
                self.lx.raw_eat("]]>");
            } else if self.lx.raw_starts_with("<") {
                flush_text!();
                self.lx.raw_eat("<");
                let nested = self.parse_element_tail()?;
                content.push(DirContent::Expr(nested));
            } else if self.lx.raw_starts_with("{{") {
                self.lx.raw_eat("{{");
                text.push('{');
            } else if self.lx.raw_starts_with("}}") {
                self.lx.raw_eat("}}");
                text.push('}');
            } else if self.lx.raw_starts_with("{") {
                flush_text!();
                self.lx.raw_eat("{");
                // Token mode for the enclosed expression.
                let e = self.expr()?;
                self.expect_sym("}")?;
                self.lx.clear_peek();
                content.push(DirContent::Enclosed(e));
            } else if self.lx.raw_starts_with("&") {
                text.push_str(&self.char_reference()?);
            } else {
                match self.lx.raw_bump() {
                    Some(ch) => text.push(ch),
                    None => return self.err(format!("unterminated element `<{name_s}>`")),
                }
            }
        }
        // Boundary whitespace stripping (XQuery default boundary-space strip):
        // whitespace-only literal text between constructs is dropped.
        let content: Vec<DirContent> = content
            .into_iter()
            .filter(|c| !matches!(c, DirContent::Text(t) if t.trim().is_empty()))
            .collect();
        Ok(Expr::DirectElement {
            name,
            attrs,
            content,
        })
    }

    fn attr_value_template(&mut self) -> Result<Vec<AttrValuePart>> {
        let quote = match self.lx.raw_bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => return self.err("expected quoted attribute value"),
        };
        let mut parts = Vec::new();
        let mut text = String::new();
        loop {
            match self.lx.raw_peek() {
                None => return self.err("unterminated attribute value"),
                Some(q) if q == quote => {
                    self.lx.raw_bump();
                    if !text.is_empty() {
                        parts.push(AttrValuePart::Text(text));
                    }
                    return Ok(parts);
                }
                Some('{') => {
                    if self.lx.raw_starts_with("{{") {
                        self.lx.raw_eat("{{");
                        text.push('{');
                        continue;
                    }
                    if !text.is_empty() {
                        parts.push(AttrValuePart::Text(std::mem::take(&mut text)));
                    }
                    self.lx.raw_eat("{");
                    let e = self.expr()?;
                    self.expect_sym("}")?;
                    self.lx.clear_peek();
                    parts.push(AttrValuePart::Enclosed(e));
                }
                Some('}') => {
                    if self.lx.raw_starts_with("}}") {
                        self.lx.raw_eat("}}");
                        text.push('}');
                    } else {
                        return self.err("unescaped `}` in attribute value");
                    }
                }
                Some('&') => text.push_str(&self.char_reference()?),
                Some(c) => {
                    text.push(c);
                    self.lx.raw_bump();
                }
            }
        }
    }

    fn char_reference(&mut self) -> Result<String> {
        self.lx.raw_eat("&");
        if self.lx.raw_eat("#") {
            let hex = self.lx.raw_eat("x");
            let mut digits = String::new();
            while self.lx.raw_peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                digits.push(self.lx.raw_bump().unwrap());
            }
            if !self.lx.raw_eat(";") {
                return self.err("expected `;` in character reference");
            }
            let code = u32::from_str_radix(&digits, if hex { 16 } else { 10 })
                .ok()
                .and_then(char::from_u32);
            match code {
                Some(c) => Ok(c.to_string()),
                None => self.err("invalid character reference"),
            }
        } else {
            let name = self.lx.raw_name()?;
            if !self.lx.raw_eat(";") {
                return self.err("expected `;` in entity reference");
            }
            match name.as_str() {
                "amp" => Ok("&".into()),
                "lt" => Ok("<".into()),
                "gt" => Ok(">".into()),
                "apos" => Ok("'".into()),
                "quot" => Ok("\"".into()),
                other => self.err(format!("unknown entity `&{other};`")),
            }
        }
    }
}

fn axis_from_name(n: &str) -> Option<Axis> {
    Some(match n {
        "child" => Axis::Child,
        "descendant" => Axis::Descendant,
        "descendant-or-self" => Axis::DescendantOrSelf,
        "attribute" => Axis::Attribute,
        "self" => Axis::SelfAxis,
        "parent" => Axis::Parent,
        "ancestor" => Axis::Ancestor,
        "ancestor-or-self" => Axis::AncestorOrSelf,
        "following-sibling" => Axis::FollowingSibling,
        "preceding-sibling" => Axis::PrecedingSibling,
        _ => return None,
    })
}

/// Small helper: take ownership of the single element of a Vec.
trait PopUnwrapped {
    fn pop_unwrapped(&mut self) -> Expr;
}
impl PopUnwrapped for Vec<Expr> {
    fn pop_unwrapped(&mut self) -> Expr {
        debug_assert_eq!(self.len(), 1);
        self.pop().expect("non-empty")
    }
}
