//! Hand-rolled lexer for the XQuery/QML grammar.
//!
//! The lexer is deliberately parser-driven: `peek()` never commits input, so
//! the parser can drop the lookahead and switch to raw character scanning
//! when it recognizes a direct element constructor (`<name …>…</name>`),
//! whose interior follows XML rather than XQuery token rules.

use crate::error::{Error, Result};

/// A single token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Eof,
    /// A (possibly prefixed) name: `foo`, `qs:queue`, `xs:string`.
    Name(String),
    StringLit(String),
    IntLit(i64),
    DoubleLit(f64),
    /// Punctuation / operators, e.g. `(`, `:=`, `//`, `<=`.
    Sym(&'static str),
}

/// Lexer over a query string.
pub struct Lexer {
    chars: Vec<char>,
    /// Index of the next unconsumed character.
    pos: usize,
    /// Cached lookahead token and the position just past it.
    peeked: Option<(Tok, usize)>,
}

impl Lexer {
    pub fn new(input: &str) -> Lexer {
        Lexer {
            chars: input.chars().collect(),
            pos: 0,
            peeked: None,
        }
    }

    /// Current raw position (used for error reporting and constructor mode).
    pub fn raw_pos(&self) -> usize {
        self.pos
    }

    /// 1-based line/column of a raw position, for error messages.
    pub fn line_col(&self, pos: usize) -> (u32, u32) {
        let (mut line, mut col) = (1u32, 1u32);
        for &c in self.chars.iter().take(pos.min(self.chars.len())) {
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        let (line, col) = self.line_col(self.pos);
        Err(Error::static_error(format!(
            "{} (at {}:{})",
            msg.into(),
            line,
            col
        )))
    }

    /// Drop any cached lookahead (before raw-mode scanning).
    pub fn clear_peek(&mut self) {
        self.peeked = None;
    }

    /// Reposition the scanner (used by the parser's speculative lookahead).
    pub fn rewind(&mut self, pos: usize) {
        self.pos = pos;
        self.peeked = None;
    }

    // ---- raw character interface (direct constructors) --------------------

    pub fn raw_peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    pub fn raw_bump(&mut self) -> Option<char> {
        debug_assert!(self.peeked.is_none(), "raw scan with live lookahead");
        let c = self.raw_peek()?;
        self.pos += 1;
        Some(c)
    }

    pub fn raw_eat(&mut self, s: &str) -> bool {
        let sc: Vec<char> = s.chars().collect();
        if self.chars[self.pos.min(self.chars.len())..].starts_with(&sc) {
            self.pos += sc.len();
            self.peeked = None;
            true
        } else {
            false
        }
    }

    pub fn raw_starts_with(&self, s: &str) -> bool {
        let sc: Vec<char> = s.chars().collect();
        self.chars[self.pos.min(self.chars.len())..].starts_with(&sc)
    }

    /// Skip XML-ish whitespace in raw mode.
    pub fn raw_skip_ws(&mut self) {
        while matches!(self.raw_peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.pos += 1;
        }
    }

    /// Read an XML name in raw mode.
    pub fn raw_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(c) = self.raw_peek() {
            let ok = if self.pos == start {
                c.is_alphabetic() || c == '_'
            } else {
                c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
            };
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected an XML name");
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    // ---- token interface ---------------------------------------------------

    /// Skip whitespace and (nested) `(: … :)` comments.
    fn skip_trivia(&self, mut at: usize) -> Result<usize> {
        loop {
            while matches!(self.chars.get(at), Some(' ' | '\t' | '\r' | '\n')) {
                at += 1;
            }
            if self.chars.get(at) == Some(&'(') && self.chars.get(at + 1) == Some(&':') {
                let mut depth = 1;
                at += 2;
                while depth > 0 {
                    match (self.chars.get(at), self.chars.get(at + 1)) {
                        (Some('('), Some(':')) => {
                            depth += 1;
                            at += 2;
                        }
                        (Some(':'), Some(')')) => {
                            depth -= 1;
                            at += 2;
                        }
                        (Some(_), _) => at += 1,
                        (None, _) => return self.err("unterminated comment"),
                    }
                }
            } else {
                return Ok(at);
            }
        }
    }

    /// Look at the next token without consuming input.
    pub fn peek(&mut self) -> Result<Tok> {
        if let Some((t, _)) = &self.peeked {
            return Ok(t.clone());
        }
        let (tok, end) = self.lex_from(self.pos)?;
        self.peeked = Some((tok.clone(), end));
        Ok(tok)
    }

    /// Consume and return the next token.
    pub fn next_tok(&mut self) -> Result<Tok> {
        if let Some((t, end)) = self.peeked.take() {
            self.pos = end;
            return Ok(t);
        }
        let (tok, end) = self.lex_from(self.pos)?;
        self.pos = end;
        Ok(tok)
    }

    /// True when the next token is the given symbol.
    pub fn at_sym(&mut self, s: &str) -> bool {
        matches!(self.peek(), Ok(Tok::Sym(x)) if x == s)
    }

    /// True when the next token is the given (keyword) name.
    pub fn at_name(&mut self, s: &str) -> bool {
        matches!(self.peek(), Ok(Tok::Name(x)) if x == s)
    }

    /// Consume the next token if it is the given symbol.
    pub fn eat_sym(&mut self, s: &str) -> bool {
        if self.at_sym(s) {
            let _ = self.next_tok();
            true
        } else {
            false
        }
    }

    /// Consume the next token if it is the given name.
    pub fn eat_name(&mut self, s: &str) -> bool {
        if self.at_name(s) {
            let _ = self.next_tok();
            true
        } else {
            false
        }
    }

    fn lex_from(&self, start: usize) -> Result<(Tok, usize)> {
        let mut lexer_view = LexView {
            chars: &self.chars,
            pos: start,
        };
        // We need trivia skipping that can error; reuse self.skip_trivia.
        let at = self.skip_trivia(start)?;
        lexer_view.pos = at;
        lexer_view.lex()
    }
}

struct LexView<'a> {
    chars: &'a [char],
    pos: usize,
}

impl<'a> LexView<'a> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(Error::static_error(msg.into()))
    }

    fn lex(&mut self) -> Result<(Tok, usize)> {
        let Some(c) = self.peek() else {
            return Ok((Tok::Eof, self.pos));
        };
        match c {
            '"' | '\'' => self.lex_string(c),
            c if c.is_ascii_digit() => self.lex_number(),
            '.' if self.peek_at(1).is_some_and(|d| d.is_ascii_digit()) => self.lex_number(),
            c if c.is_alphabetic() || c == '_' => self.lex_name(),
            _ => self.lex_symbol(),
        }
    }

    fn lex_string(&mut self, quote: char) -> Result<(Tok, usize)> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string literal"),
                Some(q) if q == quote => {
                    // Doubled quote is an escape.
                    if self.peek_at(1) == Some(quote) {
                        out.push(quote);
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        return Ok((Tok::StringLit(out), self.pos));
                    }
                }
                Some(ch) => {
                    out.push(ch);
                    self.pos += 1;
                }
            }
        }
    }

    fn lex_number(&mut self) -> Result<(Tok, usize)> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_double = false;
        if self.peek() == Some('.') && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            is_double = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        } else if self.peek() == Some('.') && !self.peek_at(1).is_some_and(|c| c.is_alphabetic()) {
            // `1.` form
            is_double = true;
            self.pos += 1;
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            let mut look = self.pos + 1;
            if matches!(self.chars.get(look), Some('+' | '-')) {
                look += 1;
            }
            if self.chars.get(look).is_some_and(|c| c.is_ascii_digit()) {
                is_double = true;
                self.pos = look;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if is_double {
            match text.parse::<f64>() {
                Ok(d) => Ok((Tok::DoubleLit(d), self.pos)),
                Err(_) => self.err(format!("invalid number `{text}`")),
            }
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok((Tok::IntLit(i), self.pos)),
                Err(_) => self.err(format!("integer literal `{text}` out of range")),
            }
        }
    }

    fn lex_name(&mut self) -> Result<(Tok, usize)> {
        let start = self.pos;
        let mut seen_colon = false;
        while let Some(c) = self.peek() {
            let ok = if self.pos == start {
                c.is_alphabetic() || c == '_'
            } else if c == ':' {
                // A name may contain exactly one ':' forming a QName, and
                // only when followed by a name start char. This keeps `a :=`
                // and `q:name` both lexing correctly.
                !seen_colon
                    && self
                        .peek_at(1)
                        .is_some_and(|d| d.is_alphabetic() || d == '_')
            } else {
                c.is_alphanumeric() || matches!(c, '_' | '-' | '.')
            };
            if !ok {
                break;
            }
            if c == ':' {
                seen_colon = true;
            }
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        Ok((Tok::Name(text), self.pos))
    }

    fn lex_symbol(&mut self) -> Result<(Tok, usize)> {
        const TWO: &[&str] = &["//", "::", ":=", "!=", "<=", ">=", "<<", ">>", "..", "||"];
        const ONE: &[&str] = &[
            "(", ")", "[", "]", "{", "}", ",", ";", "$", "@", "/", "=", "<", ">", "+", "-", "*",
            "|", ".", "?",
        ];
        let c0 = self.peek().unwrap();
        let c1 = self.peek_at(1);
        if let Some(c1) = c1 {
            let two: String = [c0, c1].iter().collect();
            if let Some(&s) = TWO.iter().find(|&&s| s == two) {
                self.pos += 2;
                return Ok((Tok::Sym(s), self.pos));
            }
        }
        let one = c0.to_string();
        if let Some(&s) = ONE.iter().find(|&&s| s == one) {
            self.pos += 1;
            return Ok((Tok::Sym(s), self.pos));
        }
        self.err(format!("unexpected character `{c0}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_tokens(s: &str) -> Vec<Tok> {
        let mut lx = Lexer::new(s);
        let mut out = Vec::new();
        loop {
            let t = lx.next_tok().unwrap();
            if t == Tok::Eof {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn basic_tokens() {
        let toks = all_tokens(r#"let $x := 3.5 + count(//item) return "done""#);
        assert_eq!(
            toks,
            vec![
                Tok::Name("let".into()),
                Tok::Sym("$"),
                Tok::Name("x".into()),
                Tok::Sym(":="),
                Tok::DoubleLit(3.5),
                Tok::Sym("+"),
                Tok::Name("count".into()),
                Tok::Sym("("),
                Tok::Sym("//"),
                Tok::Name("item".into()),
                Tok::Sym(")"),
                Tok::Name("return".into()),
                Tok::StringLit("done".into()),
            ]
        );
    }

    #[test]
    fn qnames_and_assignment() {
        let toks = all_tokens("qs:queue xs:string a:=1");
        assert_eq!(
            toks,
            vec![
                Tok::Name("qs:queue".into()),
                Tok::Name("xs:string".into()),
                Tok::Name("a".into()),
                Tok::Sym(":="),
                Tok::IntLit(1),
            ]
        );
    }

    #[test]
    fn comments_skipped_and_nested() {
        let toks = all_tokens("1 (: outer (: inner :) still :) 2");
        assert_eq!(toks, vec![Tok::IntLit(1), Tok::IntLit(2)]);
    }

    #[test]
    fn string_escapes() {
        let toks = all_tokens(r#""he said ""hi""" 'it''s'"#);
        assert_eq!(
            toks,
            vec![
                Tok::StringLit("he said \"hi\"".into()),
                Tok::StringLit("it's".into())
            ]
        );
    }

    #[test]
    fn dots_and_ranges() {
        assert_eq!(
            all_tokens(". .. 1 to 3"),
            vec![
                Tok::Sym("."),
                Tok::Sym(".."),
                Tok::IntLit(1),
                Tok::Name("to".into()),
                Tok::IntLit(3)
            ]
        );
    }

    #[test]
    fn hyphenated_names() {
        // XQuery treats `a-b` as one QName; subtraction needs spaces.
        assert_eq!(
            all_tokens("starts-with"),
            vec![Tok::Name("starts-with".into())]
        );
        assert_eq!(
            all_tokens("a - b"),
            vec![Tok::Name("a".into()), Tok::Sym("-"), Tok::Name("b".into())]
        );
    }

    #[test]
    fn peek_does_not_consume() {
        let mut lx = Lexer::new("foo bar");
        assert_eq!(lx.peek().unwrap(), Tok::Name("foo".into()));
        assert_eq!(lx.peek().unwrap(), Tok::Name("foo".into()));
        assert_eq!(lx.next_tok().unwrap(), Tok::Name("foo".into()));
        assert_eq!(lx.next_tok().unwrap(), Tok::Name("bar".into()));
    }

    #[test]
    fn raw_mode_after_clear() {
        let mut lx = Lexer::new("<a>text</a>");
        assert_eq!(lx.next_tok().unwrap(), Tok::Sym("<"));
        lx.clear_peek();
        assert_eq!(lx.raw_name().unwrap(), "a");
        assert!(lx.raw_eat(">"));
        assert_eq!(lx.raw_bump(), Some('t'));
    }

    #[test]
    fn unterminated_string_errors() {
        let mut lx = Lexer::new("\"abc");
        assert!(lx.next_tok().is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(
            all_tokens("42 4.25 1e3 2.5E-2"),
            vec![
                Tok::IntLit(42),
                Tok::DoubleLit(4.25),
                Tok::DoubleLit(1000.0),
                Tok::DoubleLit(0.025),
            ]
        );
    }
}
