//! A namespace-aware, well-formedness-checking XML parser.
//!
//! Supports the constructs Demaq messages need: elements, attributes,
//! character data, CDATA sections, comments, processing instructions, the
//! XML declaration, predefined and numeric character references, and
//! namespace declarations (`xmlns`, `xmlns:p`). DTDs are rejected (messages
//! from untrusted peers must not trigger entity expansion).
//!
//! One forward pass: delimiters are found by byte scans, each run of
//! character data is copied with one `push_str`, names are slices of the
//! input, and open elements sit on an explicit stack, so neither input size
//! nor nesting depth costs more than linear time and heap. Line and column
//! are computed only when an error is built.

use crate::builder::DocBuilder;
use crate::qname::split_lexical;
use crate::sym;
use crate::tree::{Document, MAX_TAG_PAYLOAD};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Error produced while parsing XML, with 1-based line/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at {}:{}: {}",
            self.line, self.col, self.msg
        )
    }
}
impl std::error::Error for ParseError {}

/// Parse a complete XML document (exactly one root element).
pub fn parse(input: &str) -> Result<Arc<Document>, ParseError> {
    Parser::new(input).parse_document(false)
}

/// Parse an XML fragment: zero or more top-level elements/text nodes.
/// Used for message payload snippets in tests and the QML constructors.
pub fn parse_fragment(input: &str) -> Result<Arc<Document>, ParseError> {
    Parser::new(input).parse_document(true)
}

const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";

/// Namespace ids key the parser's name index; they are not URIs' identity
/// (two declarations of one URI get two ids, which only costs a second
/// name-table entry for the same pooled name).
const NS_NONE: u32 = 0;
const NS_XML: u32 = 1;
/// "Id" of `xmlns`/`xmlns:p` attributes, which are kept under their
/// lexical name and never resolved.
const NS_DECLARATION: u32 = u32::MAX;

/// Where a scan stops. Every class also stops at the bytes XML's `Char`
/// production excludes (see [`STOPS`]).
const IN_TEXT: u8 = 1; // `<` `&` `]`
const IN_QUOT: u8 = 2; // `"` `<` `&`
const IN_APOS: u8 = 4; // `'` `<` `&`
const IN_COMMENT: u8 = 8; // `-`
const IN_CDATA: u8 = 16; // `]`
const IN_PI: u8 = 32; // `?`

/// Per byte, the scan classes it ends. C0 controls other than TAB/LF/CR
/// are not XML characters, and 0xEF leads U+FFFE and U+FFFF (as well as
/// legal characters, which [`Parser::scan`] steps over); both end every
/// scan.
static STOPS: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        if b != 0x09 && b != 0x0A && b != 0x0D {
            t[b] = 0xFF;
        }
        b += 1;
    }
    t[0xEF] = 0xFF;
    t[b'<' as usize] |= IN_TEXT | IN_QUOT | IN_APOS;
    t[b'&' as usize] |= IN_TEXT | IN_QUOT | IN_APOS;
    t[b']' as usize] |= IN_TEXT | IN_CDATA;
    t[b'"' as usize] |= IN_QUOT;
    t[b'\'' as usize] |= IN_APOS;
    t[b'-' as usize] |= IN_COMMENT;
    t[b'?' as usize] |= IN_PI;
    t
};

const NAME_START: u8 = 1;
const NAME_CHAR: u8 = 2;

/// Per ASCII byte, whether it may start or continue a name (`:` counts as
/// a name character here and is dealt with when the name is resolved).
/// Bytes of multi-byte characters are 0: those go through `char`.
static NAMES: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut b = 0;
    while b < 0x80 {
        let c = b as u8;
        if c.is_ascii_alphabetic() || c == b'_' || c == b':' {
            t[b] = NAME_START | NAME_CHAR;
        } else if c.is_ascii_digit() || c == b'-' || c == b'.' {
            t[b] = NAME_CHAR;
        }
        b += 1;
    }
    t
};

/// XML 1.0 `Char`.
fn is_xml_char(c: u32) -> bool {
    matches!(c, 0x9 | 0xA | 0xD | 0x20..=0xD7FF | 0xE000..=0xFFFD | 0x1_0000..=0x10_FFFF)
}

fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

const RECENT_SLOTS: usize = 32;
/// Up to this many distinct names, finding one is a scan of [`Known`]s.
const LINEAR_NAMES: usize = 24;

/// One distinct `(lexical name, namespace id)` pair of the parse; its
/// position in [`Parser::known`] is its name-table index.
struct Known<'a> {
    lexical: &'a str,
    ns_id: u32,
    /// The last element that carried the name as an attribute, for
    /// duplicate detection without comparing names pairwise. No element
    /// has id 0.
    attr_owner: u32,
}

/// An element whose end tag is still to come.
struct Open<'a> {
    /// Lexical name, for the end-tag match.
    name: &'a str,
    /// Length of [`Parser::ns`] before this element's declarations.
    ns_mark: usize,
}

/// One in-scope `xmlns` declaration.
struct NsBinding<'a> {
    /// `""` for the default namespace.
    prefix: &'a str,
    /// The URI, as a range of the builder's text buffer (it is the
    /// declaring attribute's value).
    uri: std::ops::Range<usize>,
    id: u32,
}

/// One attribute of the tag being read, until its name can be resolved
/// (declarations later in the same tag are in scope for it).
struct RawAttr<'a> {
    name: &'a str,
    node: u32,
    value: std::ops::Range<usize>,
    /// Input position after the closing quote.
    end_pos: usize,
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    b: DocBuilder,
    open: Vec<Open<'a>>,
    ns: Vec<NsBinding<'a>>,
    next_ns_id: u32,
    known: Vec<Known<'a>>,
    /// Index of `known` by pair, kept once it has more than
    /// [`LINEAR_NAMES`] entries.
    by_pair: HashMap<(&'a str, u32), u32>,
    /// The pairs looked up last with their index, direct-mapped by
    /// [`sym::slot_of`] the lexical name: a repeated tag skips the search.
    recent: [(&'a str, u32, u32); RECENT_SLOTS],
    attrs: Vec<RawAttr<'a>>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            src: input,
            pos: 0,
            b: DocBuilder::with_capacity(input.len() / 12 + 2, input.len() / 2),
            open: Vec::new(),
            ns: Vec::new(),
            next_ns_id: NS_XML + 1,
            known: Vec::with_capacity(LINEAR_NAMES.min(input.len() / 32)),
            by_pair: HashMap::new(),
            recent: [("", 0, 0); RECENT_SLOTS],
            attrs: Vec::new(),
        }
    }

    /// Build an error at byte offset `pos`; columns count bytes.
    fn err_at<T>(&self, pos: usize, msg: impl Into<String>) -> Result<T, ParseError> {
        let before = &self.src.as_bytes()[..pos];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        Err(ParseError {
            line: line as u32,
            col: (pos - line_start + 1) as u32,
            msg: msg.into(),
        })
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        self.err_at(self.pos, msg)
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        let hit = self.starts_with(s);
        if hit {
            self.pos += s.len();
        }
        hit
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            self.err(format!("expected `{s}`"))
        }
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(is_ws) {
            self.pos += 1;
        }
    }

    /// Advance to the next byte that ends a `class` scan (or to the end of
    /// input), rejecting non-XML characters on the way.
    fn scan(&mut self, class: u8) -> Result<(), ParseError> {
        let bytes = self.bytes();
        loop {
            let rest = &bytes[self.pos..];
            let run = rest.iter().position(|&b| STOPS[b as usize] & class != 0);
            self.pos += run.unwrap_or(rest.len());
            match bytes.get(self.pos) {
                Some(0xEF) => {
                    let c = self.src[self.pos..].chars().next().expect("char at 0xEF");
                    if !is_xml_char(c as u32) {
                        return self.not_a_char(c);
                    }
                    self.pos += 3;
                }
                Some(&b) if b < 0x20 => return self.not_a_char(b as char),
                _ => return Ok(()),
            }
        }
    }

    fn not_a_char<T>(&self, c: char) -> Result<T, ParseError> {
        self.err(format!(
            "character U+{:04X} is not allowed in XML",
            c as u32
        ))
    }

    /// Scan to `delim` (whose first byte ends a `class` scan), returning the
    /// text before it and stepping past it.
    fn until(&mut self, class: u8, delim: &str, eof: &str) -> Result<&'a str, ParseError> {
        let start = self.pos;
        loop {
            self.scan(class)?;
            if self.starts_with(delim) {
                let text = &self.src[start..self.pos];
                self.pos += delim.len();
                return Ok(text);
            }
            if self.peek().is_none() {
                return self.err(eof);
            }
            self.pos += 1;
        }
    }

    fn parse_document(mut self, fragment: bool) -> Result<Arc<Document>, ParseError> {
        // Bounds every node id, text offset, name index and PI target
        // length the builder packs into 29 or 32 bits.
        if self.src.len() > MAX_TAG_PAYLOAD as usize {
            return self.err_at(0, "document exceeds 512 MiB");
        }
        // Optional XML declaration: `<?xml` then whitespace or `?>`;
        // anything longer (`<?xml-stylesheet`) is an ordinary PI.
        let after_xml = self.bytes().get(5..).unwrap_or_default();
        if self.starts_with("<?xml")
            && (after_xml.first().copied().is_some_and(is_ws) || after_xml.starts_with(b"?>"))
        {
            self.until(IN_PI, "?>", "expected `?>` before end of input")?;
        }
        let mut saw_root = false;
        loop {
            let bytes = self.bytes();
            if let Some(open) = self.open.last() {
                // Element content.
                match bytes.get(self.pos..).unwrap_or_default() {
                    [b'<', b'/', ..] => self.end_tag()?,
                    [b'<', b'!', b'-', b'-', ..] => self.comment()?,
                    [b'<', b'!', b'[', b'C', b'D', b'A', b'T', b'A', b'[', ..] => {
                        self.pos += "<![CDATA[".len();
                        let text = self.until(IN_CDATA, "]]>", "unterminated CDATA section")?;
                        self.b.text(text);
                    }
                    [b'<', b'?', ..] => self.pi()?,
                    [b'<', ..] => self.start_tag()?,
                    [] => {
                        let msg = format!("unexpected end of input inside `<{}>`", open.name);
                        return self.err(msg);
                    }
                    _ => self.char_data()?,
                }
                continue;
            }
            // Top level: comments and PIs are kept, whitespace is skipped
            // (in a fragment it is text).
            if !fragment {
                self.skip_ws();
            }
            match bytes.get(self.pos..).unwrap_or_default() {
                [b'<', b'!', b'-', b'-', ..] => self.comment()?,
                [b'<', b'!', b'D', b'O', b'C', b'T', b'Y', b'P', b'E', ..] => {
                    return self.err("DOCTYPE declarations are not accepted");
                }
                [b'<', b'?', ..] => self.pi()?,
                [b'<', ..] => {
                    if !fragment && saw_root {
                        return self.err("content after document element");
                    }
                    self.start_tag()?;
                    saw_root = true;
                }
                [] => break,
                _ if fragment => self.char_data()?,
                [c, ..] => return self.err(format!("unexpected character `{}`", *c as char)),
            }
        }
        if !fragment && !saw_root {
            return self.err("no document element");
        }
        Ok(self.b.finish())
    }

    /// `<name attr="v" ...>` or `<name .../>`, at the `<`.
    fn start_tag(&mut self) -> Result<(), ParseError> {
        self.pos += 1;
        let name = self.name()?;
        let element = self.b.start_idx(0);
        self.attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') => break,
                None => return self.err("unexpected end of input in tag"),
                _ => {
                    let name = self.name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let node = self.b.attr_idx(0);
                    let start = self.b.text_len();
                    self.attr_value()?;
                    self.attrs.push(RawAttr {
                        name,
                        node,
                        value: start..self.b.text_len(),
                        end_pos: self.pos,
                    });
                }
            }
        }
        // Namespace declarations on this tag come into scope first: they
        // apply to its own name and to all of its attributes.
        let ns_mark = self.ns.len();
        let attrs = std::mem::take(&mut self.attrs);
        for a in &attrs {
            let prefix = match a.name.strip_prefix("xmlns") {
                Some("") => "",
                Some(p) if p.starts_with(':') => &p[1..],
                _ => continue,
            };
            if prefix.is_empty() && a.name != "xmlns" {
                return self.err("empty namespace prefix declaration");
            }
            let id = if a.value.is_empty() {
                NS_NONE
            } else {
                self.next_ns_id += 1;
                self.next_ns_id
            };
            self.ns.push(NsBinding {
                prefix,
                uri: a.value.clone(),
                id,
            });
        }
        let idx = self.resolve(name, true)?;
        self.b.set_name_idx(element, idx);
        for a in &attrs {
            let idx = if a.name == "xmlns" || a.name.starts_with("xmlns:") {
                // Namespace declarations are not attribute nodes in XDM,
                // but keep them for serialization fidelity.
                self.name_idx(a.name, NS_DECLARATION, |_| {
                    sym::intern_qname(None, None, a.name)
                })
            } else {
                self.resolve(a.name, false)?
            };
            let owner = &mut self.known[idx as usize].attr_owner;
            if *owner == element {
                return self.err_at(a.end_pos, format!("duplicate attribute `{}`", a.name));
            }
            *owner = element;
            self.b.set_name_idx(a.node, idx);
        }
        self.attrs = attrs;

        let self_closing = self.eat("/");
        self.expect(">")?;
        if self_closing {
            self.b.end();
            self.ns.truncate(ns_mark);
        } else {
            self.open.push(Open { name, ns_mark });
        }
        Ok(())
    }

    /// `</name>`, at the `<`.
    fn end_tag(&mut self) -> Result<(), ParseError> {
        let open = self.open.pop().expect("end tag inside an element");
        let rest = &self.bytes()[self.pos + 2..];
        if rest.starts_with(open.name.as_bytes()) && rest.get(open.name.len()) == Some(&b'>') {
            self.pos += 2 + open.name.len() + 1;
        } else {
            // Whitespace before the `>`, or not this element's end tag.
            self.pos += 2;
            let end_name = self.name()?;
            self.skip_ws();
            self.expect(">")?;
            if end_name != open.name {
                return self.err(format!(
                    "mismatched end tag `</{end_name}>`, expected `</{}>`",
                    open.name
                ));
            }
        }
        self.b.end();
        self.ns.truncate(open.ns_mark);
        Ok(())
    }

    /// Name-table index for a lexical name under a namespace id; `pooled`
    /// supplies the name the first time the pair is seen.
    fn name_idx(
        &mut self,
        lexical: &'a str,
        ns_id: u32,
        pooled: impl FnOnce(&DocBuilder) -> &'static sym::Name,
    ) -> u32 {
        let slot = sym::slot_of(lexical, RECENT_SLOTS);
        let (cached, cached_ns, idx) = self.recent[slot];
        if cached_ns == ns_id && cached == lexical {
            return idx;
        }
        let found = if self.known.len() <= LINEAR_NAMES {
            let same = |k: &Known| k.ns_id == ns_id && k.lexical == lexical;
            self.known.iter().position(same).map(|i| i as u32)
        } else {
            self.by_pair.get(&(lexical, ns_id)).copied()
        };
        let idx = found.unwrap_or_else(|| {
            let idx = self.b.push_name(pooled(&self.b));
            self.known.push(Known {
                lexical,
                ns_id,
                attr_owner: 0,
            });
            if self.known.len() > LINEAR_NAMES {
                if self.by_pair.is_empty() {
                    let all = self.known.iter().zip(0..);
                    self.by_pair = all.map(|(k, i)| ((k.lexical, k.ns_id), i)).collect();
                } else {
                    self.by_pair.insert((lexical, ns_id), idx);
                }
            }
            idx
        });
        self.recent[slot] = (lexical, ns_id, idx);
        idx
    }

    /// Resolve an element (`use_default`) or attribute name against the
    /// namespace declarations in scope.
    fn resolve(&mut self, lexical: &'a str, use_default: bool) -> Result<u32, ParseError> {
        let Some((prefix, local)) = split_lexical(lexical) else {
            return self.err(format!("invalid QName `{lexical}`"));
        };
        let (ns_id, uri) = match prefix {
            Some(p) => match self.lookup_ns(p) {
                Some(bound) => bound,
                None => return self.err(format!("undeclared namespace prefix `{p}`")),
            },
            None if use_default => self.lookup_ns("").unwrap_or((NS_NONE, 0..0)),
            None => (NS_NONE, 0..0),
        };
        Ok(self.name_idx(lexical, ns_id, |b| {
            let ns = match ns_id {
                NS_NONE => None,
                NS_XML => Some(XML_NS),
                _ => Some(b.text_slice(uri)),
            };
            sym::intern_qname(ns, prefix, local)
        }))
    }

    /// Innermost declaration of `prefix`: its namespace id and URI.
    fn lookup_ns(&self, prefix: &str) -> Option<(u32, std::ops::Range<usize>)> {
        match self.ns.iter().rev().find(|b| b.prefix == prefix) {
            Some(b) => Some((b.id, b.uri.clone())),
            None => (prefix == "xml").then_some((NS_XML, 0..0)),
        }
    }

    fn name(&mut self) -> Result<&'a str, ParseError> {
        let rest = &self.src[self.pos..];
        let bytes = rest.as_bytes();
        let mut len = match bytes.first() {
            Some(&b) if NAMES[b as usize] & NAME_START != 0 => 1,
            Some(b) if !b.is_ascii() => 0,
            _ => return self.err("expected a name"),
        };
        loop {
            // ASCII, the usual case, never reaches the `char` decoder.
            len += bytes[len..]
                .iter()
                .position(|&b| NAMES[b as usize] & NAME_CHAR == 0)
                .unwrap_or(bytes.len() - len);
            let Some(ch) = rest[len..].chars().next().filter(|c| !c.is_ascii()) else {
                break;
            };
            let ok = if len == 0 {
                ch.is_alphabetic()
            } else {
                ch.is_alphanumeric()
            };
            if !ok {
                break;
            }
            len += ch.len_utf8();
        }
        if len == 0 {
            return self.err("expected a name");
        }
        self.pos += len;
        Ok(&rest[..len])
    }

    /// A quoted attribute value, appended to the value of the node pushed
    /// last.
    fn attr_value(&mut self) -> Result<(), ParseError> {
        let (quote, class) = match self.peek() {
            Some(b'"') => (b'"', IN_QUOT),
            Some(b'\'') => (b'\'', IN_APOS),
            _ => return self.err("expected quoted attribute value"),
        };
        self.pos += 1;
        loop {
            let start = self.pos;
            self.scan(class)?;
            self.b.push_value(&self.src[start..self.pos]);
            match self.peek() {
                None => return self.err("unterminated attribute value"),
                Some(b'<') => return self.err("`<` not allowed in attribute value"),
                Some(b'&') => {
                    let c = self.reference()?;
                    self.b.push_value(c.encode_utf8(&mut [0; 4]));
                }
                Some(q) => {
                    debug_assert_eq!(q, quote);
                    self.pos += 1;
                    return Ok(());
                }
            }
        }
    }

    /// Character data up to the next `<` (or the end of input), as text of
    /// the open element.
    fn char_data(&mut self) -> Result<(), ParseError> {
        let mut start = self.pos;
        loop {
            self.scan(IN_TEXT)?;
            match self.peek() {
                Some(b']') if !self.starts_with("]]>") => self.pos += 1,
                Some(b']') => return self.err("`]]>` not allowed in character data"),
                stop => {
                    self.b.text(&self.src[start..self.pos]);
                    if stop != Some(b'&') {
                        return Ok(());
                    }
                    let c = self.reference()?;
                    self.b.text(c.encode_utf8(&mut [0; 4]));
                    start = self.pos;
                }
            }
        }
    }

    /// `&name;`, `&#N;` or `&#xH;`, at the `&`.
    fn reference(&mut self) -> Result<char, ParseError> {
        self.pos += 1;
        if self.eat("#") {
            let hex = self.eat("x");
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            let digits = &self.src[start..self.pos];
            self.expect(";")?;
            let code = u32::from_str_radix(digits, if hex { 16 } else { 10 })
                .ok()
                .filter(|&c| is_xml_char(c))
                .and_then(char::from_u32);
            match code {
                Some(c) => Ok(c),
                None => self.err("invalid character reference"),
            }
        } else {
            let name = self.name()?;
            self.expect(";")?;
            match name {
                "amp" => Ok('&'),
                "lt" => Ok('<'),
                "gt" => Ok('>'),
                "apos" => Ok('\''),
                "quot" => Ok('"'),
                other => self.err(format!("unknown entity `&{other};`")),
            }
        }
    }

    /// `<!-- ... -->`, at the `<`.
    fn comment(&mut self) -> Result<(), ParseError> {
        self.pos += "<!--".len();
        let start = self.pos;
        let mut double_dash = false;
        loop {
            self.scan(IN_COMMENT)?;
            match self.bytes().get(self.pos..).unwrap_or_default() {
                [] => return self.err("unterminated comment"),
                [b'-', b'-', b'>', ..] => break,
                // `--` inside the comment, unless its second `-` starts
                // the closing `-->`.
                [b'-', b'-', rest @ ..] => double_dash |= !rest.starts_with(b"->"),
                _ => {}
            }
            self.pos += 1;
        }
        if double_dash {
            return self.err("`--` not allowed inside comments");
        }
        self.b.comment(&self.src[start..self.pos]);
        self.pos += "-->".len();
        Ok(())
    }

    /// `<?target data?>`, at the `<`.
    fn pi(&mut self) -> Result<(), ParseError> {
        self.pos += 2;
        let target = self.name()?;
        if target.eq_ignore_ascii_case("xml") {
            return self.err("reserved PI target `xml`");
        }
        self.skip_ws();
        let data = self.until(IN_PI, "?>", "expected `?>` before end of input")?;
        self.b.pi(target, data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::serialize;

    fn roundtrip(s: &str) -> String {
        serialize(&parse(s).unwrap())
    }

    #[test]
    fn simple_roundtrip() {
        assert_eq!(
            roundtrip("<a><b x=\"1\">hi</b></a>"),
            "<a><b x=\"1\">hi</b></a>"
        );
    }

    #[test]
    fn self_closing_and_whitespace() {
        assert_eq!(roundtrip("<a>\n  <b/>\n</a>"), "<a>\n  <b/>\n</a>");
    }

    #[test]
    fn entities_decoded() {
        let doc = parse("<a>&lt;&amp;&gt;&#65;&#x42;</a>").unwrap();
        assert_eq!(doc.root().string_value(), "<&>AB");
    }

    #[test]
    fn entities_reencoded_on_serialize() {
        assert_eq!(roundtrip("<a>&lt;&amp;</a>"), "<a>&lt;&amp;</a>");
    }

    #[test]
    fn cdata_becomes_text() {
        let doc = parse("<a><![CDATA[<raw>&]]></a>").unwrap();
        assert_eq!(doc.root().string_value(), "<raw>&");
    }

    #[test]
    fn comments_and_pis_preserved() {
        assert_eq!(
            roundtrip("<a><!--note--><?t d?></a>"),
            "<a><!--note--><?t d?></a>"
        );
    }

    #[test]
    fn xml_decl_skipped() {
        let doc = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>").unwrap();
        assert_eq!(serialize(&doc), "<a/>");
    }

    #[test]
    fn xml_prefixed_pi_at_the_start_is_kept() {
        assert_eq!(
            roundtrip("<?xml-stylesheet href='a.xsl'?><a/>"),
            "<?xml-stylesheet href='a.xsl'?><a/>"
        );
    }

    #[test]
    fn xml_prefixed_pi_after_the_declaration_is_kept() {
        assert_eq!(
            roundtrip("<?xml version='1.0'?><?xml-stylesheet href='a.xsl'?><a/>"),
            "<?xml-stylesheet href='a.xsl'?><a/>"
        );
        assert_eq!(roundtrip("<?xml?><a/>"), "<a/>");
        let err = parse("<?xml version='1.0'?><?xml version='1.0'?><a/>").unwrap_err();
        assert_eq!(err.msg, "reserved PI target `xml`");
    }

    #[test]
    fn namespace_resolution() {
        let doc = parse(r#"<w:a xmlns:w="urn:w"><w:b/><c xmlns="urn:d"/></w:a>"#).unwrap();
        let a = doc.document_element().unwrap();
        assert_eq!(a.name().unwrap().ns.as_deref(), Some("urn:w"));
        let kids: Vec<_> = a.children().collect();
        assert_eq!(kids[0].name().unwrap().ns.as_deref(), Some("urn:w"));
        assert_eq!(kids[1].name().unwrap().ns.as_deref(), Some("urn:d"));
    }

    #[test]
    fn namespace_scopes_end_with_their_element() {
        let doc = parse(
            r#"<a xmlns="urn:1" xmlns:p="urn:p"><b xmlns="urn:2" p:x="1" y="2"><c/></b><d xmlns=""/><e xml:lang="en"/></a>"#,
        )
        .unwrap();
        let ns = |n: &crate::NodeRef| n.name().unwrap().ns.clone();
        let a = doc.document_element().unwrap();
        let kids: Vec<_> = a.children().collect();
        assert_eq!(ns(&a).as_deref(), Some("urn:1"));
        assert_eq!(ns(&kids[0]).as_deref(), Some("urn:2"));
        assert_eq!(
            ns(&kids[0].children().next().unwrap()).as_deref(),
            Some("urn:2")
        );
        assert_eq!(ns(&kids[1]), None);
        assert_eq!(ns(&kids[2]).as_deref(), Some("urn:1"));
        // Attributes: declarations stay unresolved, prefixed ones resolve,
        // unprefixed ones are in no namespace.
        let attrs: Vec<_> = kids[0].attributes().collect();
        assert_eq!(attrs[0].name().unwrap().local, "xmlns");
        assert_eq!(ns(&attrs[1]).as_deref(), Some("urn:p"));
        assert_eq!(ns(&attrs[2]), None);
        let lang = kids[2].attributes().next().unwrap();
        assert_eq!(ns(&lang).as_deref(), Some(XML_NS));
        assert!(parse(r#"<a><b xmlns:p="u"/><p:c/></a>"#).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("<a><b></a>").is_err()); // mismatched tags
        assert!(parse("<a x='1' x='2'/>").is_err()); // duplicate attr
        assert!(parse("<a>&bogus;</a>").is_err()); // unknown entity
        assert!(parse("<a>").is_err()); // unterminated
        assert!(parse("text only").is_err()); // no root element
        assert!(parse("<a/><b/>").is_err()); // two roots
        assert!(parse("<!DOCTYPE a><a/>").is_err()); // DTD rejected
        assert!(parse(r#"<p:a xmlns:q="u"/>"#).is_err()); // undeclared prefix
    }

    #[test]
    fn error_location() {
        let err = parse("<a>\n<b></c></a>").unwrap_err();
        assert_eq!(err.line, 2);
    }

    /// Messages and positions of the recursive parser this one replaced,
    /// recorded from it.
    #[test]
    fn error_messages_and_positions_are_stable() {
        for (input, line, col, msg) in [
            (
                "<a><b></a>",
                1,
                11,
                "mismatched end tag `</a>`, expected `</b>`",
            ),
            ("<a x='1' x='2'/>", 1, 15, "duplicate attribute `x`"),
            ("<a>&bogus;</a>", 1, 11, "unknown entity `&bogus;`"),
            ("<a>", 1, 4, "unexpected end of input inside `<a>`"),
            ("text only", 1, 1, "unexpected character `t`"),
            ("<a/><b/>", 1, 5, "content after document element"),
            (
                "<!DOCTYPE a><a/>",
                1,
                1,
                "DOCTYPE declarations are not accepted",
            ),
            (
                r#"<p:a xmlns:q="u"/>"#,
                1,
                17,
                "undeclared namespace prefix `p`",
            ),
            (
                "<a>\n<b></c></a>",
                2,
                8,
                "mismatched end tag `</c>`, expected `</b>`",
            ),
            ("", 1, 1, "no document element"),
            ("<a b=c/>", 1, 6, "expected quoted attribute value"),
            ("<a b='<'/>", 1, 7, "`<` not allowed in attribute value"),
            ("<a b='x", 1, 8, "unterminated attribute value"),
            ("<a b", 1, 5, "expected `=`"),
            ("<a ", 1, 4, "unexpected end of input in tag"),
            ("<a>]]></a>", 1, 4, "`]]>` not allowed in character data"),
            ("<a>&#xD800;</a>", 1, 12, "invalid character reference"),
            ("<a>&#1F;</a>", 1, 9, "invalid character reference"),
            ("<a>&#65</a>", 1, 8, "expected `;`"),
            ("<a>& b</a>", 1, 5, "expected a name"),
            (
                "<a><!-- x -- y --></a>",
                1,
                16,
                "`--` not allowed inside comments",
            ),
            ("<a><!-- x", 1, 10, "unterminated comment"),
            ("<a><![CDATA[x", 1, 14, "unterminated CDATA section"),
            ("<a><?xml d?></a>", 1, 9, "reserved PI target `xml`"),
            ("<a><?p d", 1, 9, "expected `?>` before end of input"),
            ("</a>", 1, 2, "expected a name"),
            (
                "<a xmlns:='u'/>",
                1,
                14,
                "empty namespace prefix declaration",
            ),
            ("<a:b:c/>", 1, 7, "invalid QName `a:b:c`"),
            (
                "<a>\n  <b>\nüx</c>",
                3,
                8,
                "mismatched end tag `</c>`, expected `</b>`",
            ),
            ("<a/>ü", 1, 5, "unexpected character `Ã`"),
        ] {
            let err = parse(input).unwrap_err();
            assert_eq!(
                (err.line, err.col, err.msg.as_str()),
                (line, col, msg),
                "{input:?}"
            );
        }
    }

    #[test]
    fn comment_dash_rules_match_the_first_closing_delimiter() {
        assert_eq!(roundtrip("<a><!--a---></a>"), "<a><!--a---></a>");
        assert!(parse("<a><!--a--b--></a>").is_err());
        assert!(parse("<a><!-- -- --></a>").is_err());
    }

    #[test]
    fn fragment_allows_multiple_roots_and_text() {
        let doc = parse_fragment("alpha<a/>beta<b/>").unwrap();
        assert_eq!(doc.root().children().count(), 4);
    }

    #[test]
    fn unicode_content() {
        let doc = parse("<a>grüße 漢字</a>").unwrap();
        assert_eq!(doc.root().string_value(), "grüße 漢字");
    }

    #[test]
    fn character_references_must_be_xml_chars() {
        for ok in [
            "&#9;",
            "&#10;",
            "&#13;",
            "&#x20;",
            "&#xD7FF;",
            "&#xE000;",
            "&#xFFFD;",
            "&#x10000;",
            "&#x10FFFF;",
        ] {
            assert!(parse(&format!("<a b='{ok}'>{ok}</a>")).is_ok(), "{ok}");
        }
        let bad = (0..0x20u32)
            .filter(|c| ![9, 10, 13].contains(c))
            .chain([0xFFFE, 0xFFFF, 0xD800, 0x11_0000]);
        for c in bad {
            for reference in [format!("&#{c};"), format!("&#x{c:X};")] {
                let err = parse(&format!("<a>{reference}</a>")).unwrap_err();
                assert_eq!(err.msg, "invalid character reference", "{reference}");
                assert!(
                    parse(&format!("<a b='{reference}'/>")).is_err(),
                    "{reference}"
                );
            }
        }
    }

    #[test]
    fn literal_non_xml_characters_are_rejected_everywhere() {
        for c in [
            '\u{0}', '\u{1}', '\u{8}', '\u{B}', '\u{C}', '\u{E}', '\u{1F}', '\u{FFFE}', '\u{FFFF}',
        ] {
            for doc in [
                format!("<a>x{c}</a>"),
                format!("<a b='x{c}'/>"),
                format!("<a b=\"{c}\"/>"),
                format!("<a><!--{c}--></a>"),
                format!("<a><![CDATA[{c}]]></a>"),
                format!("<a><?p {c}?></a>"),
            ] {
                let err = parse(&doc).unwrap_err();
                let want = format!("character U+{:04X} is not allowed in XML", c as u32);
                assert_eq!(err.msg, want, "{doc:?}");
            }
        }
        let err = parse("<a>\nxy\u{1}</a>").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
        // Neighbours of the rejected code points, and TAB/LF/CR, pass.
        let ok = "<a b='\t\n\r\u{7F}\u{85}'>\t\n\r \u{FFFD}\u{F000}\u{FFFD}\u{EFFF}</a>";
        assert!(parse(ok).is_ok());
    }
}
