//! Statement-level parser for Demaq programs.
//!
//! QDL statements are keyword-driven; embedded expressions (property
//! values, rule bodies) are handed to the XQuery parser via
//! [`demaq_xquery::parse_expr_prefix`], which consumes exactly one
//! `ExprSingle` and reports how much input it used.

use crate::ast::*;
use demaq_xquery::ast::{Axis, NodeTest};
use demaq_xquery::{parse_expr_prefix, Expr};
use std::fmt;

/// Parse error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QdlError {
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for QdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QDL error at line {}: {}", self.line, self.msg)
    }
}
impl std::error::Error for QdlError {}

struct Scanner<'a> {
    src: &'a str,
    chars: Vec<char>,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(src: &'a str) -> Scanner<'a> {
        Scanner {
            src,
            chars: src.chars().collect(),
            pos: 0,
        }
    }

    fn line(&self) -> u32 {
        1 + self.chars[..self.pos.min(self.chars.len())]
            .iter()
            .filter(|&&c| c == '\n')
            .count() as u32
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, QdlError> {
        Err(QdlError {
            line: self.line(),
            msg: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
        loop {
            while matches!(self.chars.get(self.pos), Some(' ' | '\t' | '\r' | '\n')) {
                self.pos += 1;
            }
            // XQuery-style comments are allowed between statements too.
            if self.chars.get(self.pos) == Some(&'(') && self.chars.get(self.pos + 1) == Some(&':')
            {
                let mut depth = 1;
                self.pos += 2;
                while depth > 0 && self.pos < self.chars.len() {
                    if self.chars.get(self.pos) == Some(&'(')
                        && self.chars.get(self.pos + 1) == Some(&':')
                    {
                        depth += 1;
                        self.pos += 2;
                    } else if self.chars.get(self.pos) == Some(&':')
                        && self.chars.get(self.pos + 1) == Some(&')')
                    {
                        depth -= 1;
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                    }
                }
            } else {
                return;
            }
        }
    }

    fn at_eof(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.chars.len()
    }

    /// Peek the next bare word without consuming.
    fn peek_word(&mut self) -> Option<String> {
        self.skip_ws();
        let mut end = self.pos;
        while let Some(&c) = self.chars.get(end) {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                end += 1;
            } else {
                break;
            }
        }
        if end == self.pos {
            None
        } else {
            Some(self.chars[self.pos..end].iter().collect())
        }
    }

    /// Consume the next bare word.
    fn word(&mut self) -> Result<String, QdlError> {
        match self.peek_word() {
            Some(w) => {
                self.pos += w.chars().count();
                Ok(w)
            }
            None => self.err("expected a word"),
        }
    }

    /// Consume a word or a quoted string.
    fn word_or_string(&mut self) -> Result<String, QdlError> {
        self.skip_ws();
        match self.chars.get(self.pos) {
            Some(&q @ ('"' | '\'')) => {
                self.pos += 1;
                let start = self.pos;
                while let Some(&c) = self.chars.get(self.pos) {
                    if c == q {
                        let s: String = self.chars[start..self.pos].iter().collect();
                        self.pos += 1;
                        return Ok(s);
                    }
                    self.pos += 1;
                }
                self.err("unterminated string")
            }
            _ => self.word(),
        }
    }

    fn eat_word(&mut self, w: &str) -> bool {
        if self.peek_word().as_deref() == Some(w) {
            self.pos += w.chars().count();
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, w: &str) -> Result<(), QdlError> {
        if self.eat_word(w) {
            Ok(())
        } else {
            let got = self.peek_word().unwrap_or_else(|| "<end>".into());
            self.err(format!("expected `{w}`, found `{got}`"))
        }
    }

    fn eat_char(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.chars.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Byte offset corresponding to the current char position.
    fn byte_pos(&self) -> usize {
        self.chars[..self.pos].iter().map(|c| c.len_utf8()).sum()
    }

    /// Parse one embedded `ExprSingle` starting here.
    fn embedded_expr(&mut self) -> Result<(Expr, String), QdlError> {
        self.skip_ws();
        let rest = &self.src[self.byte_pos()..];
        match parse_expr_prefix(rest) {
            Ok((expr, consumed_chars)) => {
                let src: String = self.chars[self.pos..self.pos + consumed_chars]
                    .iter()
                    .collect();
                self.pos += consumed_chars;
                Ok((expr, src.trim().to_string()))
            }
            Err(e) => self.err(format!("invalid expression: {e}")),
        }
    }
}

/// Interpret a bare `true`/`false` name-test path as a boolean literal —
/// the paper writes `value false` for a boolean property default, which in
/// strict XQuery would be a child-element test.
fn normalize_value_expr(expr: Expr) -> Expr {
    if let Expr::Path { root: false, steps } = &expr {
        if let [Expr::Step {
            axis: Axis::Child,
            test: NodeTest::Name(q),
            predicates,
        }] = steps.as_slice()
        {
            if predicates.is_empty() {
                match q.local.as_str() {
                    "true" => {
                        return Expr::FunctionCall {
                            name: "true".into(),
                            args: vec![],
                        }
                    }
                    "false" => {
                        return Expr::FunctionCall {
                            name: "false".into(),
                            args: vec![],
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    expr
}

/// Parse a full Demaq program into an [`AppSpec`]. Performs syntax-level
/// checks only; call [`crate::validate()`] for semantic validation.
pub fn parse_program(src: &str) -> Result<AppSpec, QdlError> {
    let mut sc = Scanner::new(src);
    let mut app = AppSpec::default();
    while !sc.at_eof() {
        let kw = sc.word()?;
        match kw.as_str() {
            "create" => {
                let what = sc.word()?;
                match what.as_str() {
                    "queue" => app.queues.push(parse_queue(&mut sc)?),
                    "property" => app.properties.push(parse_property(&mut sc)?),
                    "slicing" => app.slicings.push(parse_slicing(&mut sc)?),
                    "rule" => app.rules.push(parse_rule(&mut sc)?),
                    "schema" => {
                        let (name, body) = parse_schema(&mut sc)?;
                        app.schemas.push((name, body));
                    }
                    other => return sc.err(format!("cannot create `{other}`")),
                }
            }
            "set" => {
                sc.expect_word("errorqueue")?;
                let q = sc.word()?;
                app.system_error_queue = Some(q);
            }
            other => return sc.err(format!("expected a statement, found `{other}`")),
        }
    }
    Ok(app)
}

fn parse_queue(sc: &mut Scanner) -> Result<QueueDecl, QdlError> {
    let name = sc.word()?;
    let mut decl = QueueDecl {
        name,
        kind: QueueKind::Basic,
        persistent: true,
        priority: 0,
        schema: None,
        error_queue: None,
        interface: None,
        extensions: Vec::new(),
        endpoint: None,
    };
    let mut saw_kind = false;
    let mut saw_mode = false;
    while let Some(w) = sc.peek_word() {
        match w.as_str() {
            "kind" => {
                sc.expect_word("kind")?;
                let k = sc.word()?;
                decl.kind = match k.as_str() {
                    "basic" => QueueKind::Basic,
                    "incomingGateway" => QueueKind::IncomingGateway,
                    "outgoingGateway" => QueueKind::OutgoingGateway,
                    "echo" => QueueKind::Echo,
                    other => return sc.err(format!("unknown queue kind `{other}`")),
                };
                saw_kind = true;
            }
            "mode" => {
                sc.expect_word("mode")?;
                let m = sc.word()?;
                decl.persistent = match m.as_str() {
                    "persistent" => true,
                    "transient" => false,
                    other => return sc.err(format!("unknown queue mode `{other}`")),
                };
                saw_mode = true;
            }
            "priority" => {
                sc.expect_word("priority")?;
                let p = sc.word()?;
                decl.priority = p.parse().map_err(|_| QdlError {
                    line: sc.line(),
                    msg: format!("bad priority `{p}`"),
                })?;
            }
            "schema" => {
                sc.expect_word("schema")?;
                decl.schema = Some(sc.word()?);
            }
            "errorqueue" => {
                sc.expect_word("errorqueue")?;
                decl.error_queue = Some(sc.word()?);
            }
            "interface" => {
                sc.expect_word("interface")?;
                let file = sc.word_or_string()?;
                sc.expect_word("port")?;
                let port = sc.word()?;
                decl.interface = Some((file, port));
            }
            "using" => {
                sc.expect_word("using")?;
                let ext = sc.word()?;
                sc.expect_word("policy")?;
                let policy = sc.word_or_string()?;
                decl.extensions.push((ext, policy));
            }
            "endpoint" => {
                sc.expect_word("endpoint")?;
                decl.endpoint = Some(sc.word_or_string()?);
            }
            _ => break,
        }
    }
    if !saw_kind {
        return sc.err(format!("queue `{}` is missing a `kind` clause", decl.name));
    }
    if !saw_mode {
        return sc.err(format!("queue `{}` is missing a `mode` clause", decl.name));
    }
    Ok(decl)
}

fn parse_property(sc: &mut Scanner) -> Result<PropertyDecl, QdlError> {
    let name = sc.word()?;
    sc.expect_word("as")?;
    let ty = sc.word()?;
    if !ty.starts_with("xs:") {
        return sc.err(format!("property type must be an xs: type, got `{ty}`"));
    }
    let kind = if sc.eat_word("inherited") {
        PropKind::Inherited
    } else if sc.eat_word("fixed") {
        PropKind::Fixed
    } else {
        PropKind::Explicit
    };
    let mut bindings = Vec::new();
    while sc.peek_word().as_deref() == Some("queue") {
        sc.expect_word("queue")?;
        let mut queues = vec![sc.word()?];
        while sc.eat_char(',') {
            queues.push(sc.word()?);
        }
        sc.expect_word("value")?;
        let (expr, src) = sc.embedded_expr()?;
        bindings.push(PropBinding {
            queues,
            value: normalize_value_expr(expr),
            value_src: src,
        });
    }
    Ok(PropertyDecl {
        name,
        ty,
        kind,
        bindings,
    })
}

fn parse_slicing(sc: &mut Scanner) -> Result<SlicingDecl, QdlError> {
    let name = sc.word()?;
    sc.expect_word("on")?;
    let property = sc.word()?;
    Ok(SlicingDecl { name, property })
}

fn parse_rule(sc: &mut Scanner) -> Result<RuleDecl, QdlError> {
    let name = sc.word()?;
    sc.expect_word("for")?;
    let target = sc.word()?;
    let error_queue = if sc.eat_word("errorqueue") {
        Some(sc.word()?)
    } else {
        None
    };
    let (body, body_src) = sc.embedded_expr().map_err(|e| QdlError {
        msg: format!("rule `{name}`: {}", e.msg),
        ..e
    })?;
    if !body.is_updating() {
        return sc.err(format!(
            "rule `{name}` body must be an updating expression (use `do enqueue` / `do reset`)"
        ));
    }
    Ok(RuleDecl {
        name,
        target,
        error_queue,
        body,
        body_src,
    })
}

fn parse_schema(sc: &mut Scanner) -> Result<(String, String), QdlError> {
    let name = sc.word()?;
    sc.skip_ws();
    if !sc.eat_char('{') {
        return sc.err("expected `{` after schema name");
    }
    let start = sc.pos;
    let mut depth = 1;
    while depth > 0 {
        match sc.chars.get(sc.pos) {
            Some('{') => depth += 1,
            Some('}') => depth -= 1,
            None => return sc.err("unterminated schema body"),
            _ => {}
        }
        sc.pos += 1;
    }
    let body: String = sc.chars[start..sc.pos - 1].iter().collect();
    Ok((name, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_queue_examples() {
        // Sec. 2.1.1 and 2.1.2 verbatim (plus the endpoint extension).
        let app = parse_program(
            r#"
            create queue finance kind basic mode persistent
            create queue supplier kind outgoingGateway mode persistent
                interface supplier.wsdl port CapacityRequestPort
                using WS-ReliableMessaging policy wsrmpol.xml
                using WS-Security policy wssecpol.xml
                endpoint "http://ws.chem.invalid/"
            create queue echoQueue kind echo mode persistent
            "#,
        )
        .unwrap();
        assert_eq!(app.queues.len(), 3);
        let fin = app.queue("finance").unwrap();
        assert_eq!(fin.kind, QueueKind::Basic);
        assert!(fin.persistent);
        let sup = app.queue("supplier").unwrap();
        assert_eq!(sup.kind, QueueKind::OutgoingGateway);
        assert_eq!(sup.interface.as_ref().unwrap().1, "CapacityRequestPort");
        assert_eq!(sup.extensions.len(), 2);
        assert_eq!(sup.endpoint.as_deref(), Some("http://ws.chem.invalid/"));
        assert_eq!(app.queue("echoQueue").unwrap().kind, QueueKind::Echo);
    }

    #[test]
    fn paper_property_examples() {
        // Sec. 2.2 verbatim.
        let app = parse_program(
            r#"
            create property isVIPorder as xs:boolean inherited
                queue crm, finance, legal, customer value false
            create property orderID as xs:string fixed
                queue order value //orderID
                queue confirmation value /confirmedOrder/ID
            "#,
        )
        .unwrap();
        let vip = app.property("isVIPorder").unwrap();
        assert_eq!(vip.kind, PropKind::Inherited);
        assert_eq!(
            vip.bindings[0].queues,
            ["crm", "finance", "legal", "customer"]
        );
        // `value false` normalizes to a boolean literal call.
        assert!(
            matches!(&vip.bindings[0].value, Expr::FunctionCall { name, .. } if name.local == "false")
        );
        let oid = app.property("orderID").unwrap();
        assert_eq!(oid.kind, PropKind::Fixed);
        assert_eq!(oid.bindings.len(), 2);
        assert_eq!(oid.bindings[1].queues, ["confirmation"]);
    }

    #[test]
    fn paper_slicing_example() {
        let app = parse_program("create slicing orders on orderID").unwrap();
        assert_eq!(app.slicings[0].name, "orders");
        assert_eq!(app.slicings[0].property, "orderID");
    }

    #[test]
    fn rule_with_body_and_following_statement() {
        let app = parse_program(
            r#"
            create queue crm kind basic mode persistent
            create rule newOfferRequest for crm
              if (//offerRequest) then
                do enqueue <requestCustomerInfo>{//requestID}</requestCustomerInfo> into finance
            create queue finance kind basic mode persistent
            "#,
        )
        .unwrap();
        assert_eq!(app.rules.len(), 1);
        assert_eq!(app.rules[0].name, "newOfferRequest");
        assert_eq!(app.rules[0].target, "crm");
        assert_eq!(
            app.queues.len(),
            2,
            "statement after the rule body is parsed"
        );
    }

    #[test]
    fn rule_with_errorqueue() {
        let app = parse_program(
            r#"
            create rule confirmOrder for crm errorqueue crmErrors
              if (//customerOrder) then do enqueue <confirmation/> into customer
            "#,
        )
        .unwrap();
        assert_eq!(app.rules[0].error_queue.as_deref(), Some("crmErrors"));
    }

    #[test]
    fn non_updating_rule_rejected() {
        let err = parse_program("create rule r for q 1 + 1").unwrap_err();
        assert!(err.msg.contains("updating"));
    }

    #[test]
    fn system_errorqueue_and_schema() {
        let app = parse_program(
            r#"
            set errorqueue sysErrors
            create schema order-schema {
                root order
                element order any
            }
            create queue orders kind basic mode persistent schema order-schema
            "#,
        )
        .unwrap();
        assert_eq!(app.system_error_queue.as_deref(), Some("sysErrors"));
        assert_eq!(app.schemas.len(), 1);
        assert!(app.schemas[0].1.contains("root order"));
        assert_eq!(
            app.queue("orders").unwrap().schema.as_deref(),
            Some("order-schema")
        );
    }

    #[test]
    fn comments_between_statements() {
        let app =
            parse_program("(: a comment :) create queue q kind basic mode transient (: tail :)")
                .unwrap();
        assert!(!app.queue("q").unwrap().persistent);
    }

    #[test]
    fn missing_clauses_rejected() {
        assert!(parse_program("create queue q kind basic").is_err());
        assert!(parse_program("create queue q mode persistent").is_err());
        assert!(parse_program("create queue q kind bogus mode persistent").is_err());
        assert!(parse_program("create property p as string").is_err()); // not xs:
        assert!(parse_program("create bogus x").is_err());
        assert!(parse_program("drop queue q").is_err());
    }

    #[test]
    fn queue_priority() {
        let app = parse_program("create queue hot kind basic mode transient priority 9").unwrap();
        assert_eq!(app.queue("hot").unwrap().priority, 9);
        let app = parse_program("create queue cold kind basic mode transient priority -3").unwrap();
        assert_eq!(app.queue("cold").unwrap().priority, -3);
    }

    #[test]
    fn error_reports_line() {
        let err = parse_program("create queue q kind basic mode persistent\nbogus").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
