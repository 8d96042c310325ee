//! The XQuery data model (XDM) subset: atomic values, items, sequences.

use crate::error::{Error, Result};
use demaq_xml::{NodeRef, QName};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Atomic value types. Covers the `xs:` types the Demaq paper uses
/// (`xs:string`, `xs:boolean`, `xs:integer`, plus decimal/double merged into
/// [`Atomic::Double`] with a distinct [`Atomic::Decimal`] tag kept for
/// faithful `instance of`-style behaviour), `xs:dateTime` and
/// `xs:dayTimeDuration` as milliseconds.
#[derive(Debug, Clone)]
pub enum Atomic {
    Str(String),
    Bool(bool),
    Int(i64),
    Decimal(f64),
    Double(f64),
    /// Milliseconds since the epoch of the engine's virtual clock.
    DateTime(i64),
    /// Milliseconds.
    Duration(i64),
    QName(QName),
    /// Untyped atomic data (from atomizing nodes).
    Untyped(String),
}

impl Atomic {
    /// The `xs:` type name (used in error messages and `qs:property` typing).
    pub fn type_name(&self) -> &'static str {
        match self {
            Atomic::Str(_) => "xs:string",
            Atomic::Bool(_) => "xs:boolean",
            Atomic::Int(_) => "xs:integer",
            Atomic::Decimal(_) => "xs:decimal",
            Atomic::Double(_) => "xs:double",
            Atomic::DateTime(_) => "xs:dateTime",
            Atomic::Duration(_) => "xs:dayTimeDuration",
            Atomic::QName(_) => "xs:QName",
            Atomic::Untyped(_) => "xs:untypedAtomic",
        }
    }

    /// Canonical string form (XPath `fn:string`).
    pub fn to_str(&self) -> String {
        match self {
            Atomic::Str(s) | Atomic::Untyped(s) => s.clone(),
            Atomic::Bool(b) => b.to_string(),
            Atomic::Int(i) => i.to_string(),
            Atomic::Decimal(d) | Atomic::Double(d) => format_double(*d),
            Atomic::DateTime(ms) => format_date_time(*ms),
            Atomic::Duration(ms) => format_duration(*ms),
            Atomic::QName(q) => q.lexical(),
        }
    }

    /// Numeric view (casting untyped/strings like XPath `fn:number`); NaN on
    /// failure.
    pub fn to_double(&self) -> f64 {
        match self {
            Atomic::Int(i) => *i as f64,
            Atomic::Decimal(d) | Atomic::Double(d) => *d,
            Atomic::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Atomic::Str(s) | Atomic::Untyped(s) => untyped_to_double(s),
            Atomic::DateTime(ms) | Atomic::Duration(ms) => *ms as f64,
            Atomic::QName(_) => f64::NAN,
        }
    }

    /// True if this is any numeric type.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            Atomic::Int(_) | Atomic::Decimal(_) | Atomic::Double(_)
        )
    }

    /// Cast to boolean following `xs:boolean` constructor rules.
    pub fn cast_boolean(&self) -> Result<bool> {
        match self {
            Atomic::Bool(b) => Ok(*b),
            Atomic::Int(i) => Ok(*i != 0),
            Atomic::Decimal(d) | Atomic::Double(d) => Ok(*d != 0.0 && !d.is_nan()),
            Atomic::Str(s) | Atomic::Untyped(s) => match s.trim() {
                "true" | "1" => Ok(true),
                "false" | "0" => Ok(false),
                other => Err(Error::type_error(format!(
                    "cannot cast `{other}` to xs:boolean"
                ))),
            },
            other => Err(Error::type_error(format!(
                "cannot cast {} to xs:boolean",
                other.type_name()
            ))),
        }
    }

    /// Cast to integer following `xs:integer` constructor rules.
    pub fn cast_integer(&self) -> Result<i64> {
        match self {
            Atomic::Int(i) => Ok(*i),
            Atomic::Decimal(d) | Atomic::Double(d) => {
                if d.is_finite() {
                    Ok(*d as i64)
                } else {
                    Err(Error::type_error(
                        "cannot cast non-finite number to xs:integer",
                    ))
                }
            }
            Atomic::Bool(b) => Ok(*b as i64),
            Atomic::Str(s) | Atomic::Untyped(s) => s
                .trim()
                .parse()
                .map_err(|_| Error::type_error(format!("cannot cast `{s}` to xs:integer"))),
            other => Err(Error::type_error(format!(
                "cannot cast {} to xs:integer",
                other.type_name()
            ))),
        }
    }

    /// Value comparison (`eq`-family). Returns `None` for incomparable types.
    pub fn value_cmp(&self, other: &Atomic) -> Option<Ordering> {
        use Atomic::*;
        match (self, other) {
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (DateTime(a), DateTime(b)) | (Duration(a), Duration(b)) => Some(a.cmp(b)),
            (QName(a), QName(b)) => Some(a.cmp(b)),
            (a, b) if a.is_numeric() && b.is_numeric() => a.to_double().partial_cmp(&b.to_double()),
            (Untyped(a), b) => untyped_cmp(a, b),
            (a, Untyped(b)) => untyped_cmp(b, a).map(Ordering::reverse),
            (Str(a), Str(b)) => Some(a.as_str().cmp(b.as_str())),
            _ => None,
        }
    }
}

/// Compare untyped data (a node's string value) with an atomic: the
/// untyped side is cast toward the typed one.
pub(crate) fn untyped_cmp(untyped: &str, other: &Atomic) -> Option<Ordering> {
    use Atomic::*;
    match other {
        b if b.is_numeric() => untyped_to_double(untyped).partial_cmp(&b.to_double()),
        Untyped(b) | Str(b) => Some(untyped.cmp(b.as_str())),
        Bool(b) => match untyped.trim() {
            "true" | "1" => Some(true.cmp(b)),
            "false" | "0" => Some(false.cmp(b)),
            _ => None,
        },
        DateTime(b) => parse_date_time(untyped).map(|v| v.cmp(b)),
        _ => None,
    }
}

/// An item atomized without copying: a node contributes its string value
/// (borrowed from the tree wherever [`NodeRef::string_value`] can) as
/// untyped data.
pub(crate) enum AtomView<'a> {
    Typed(&'a Atomic),
    Untyped(Cow<'a, str>),
}

impl AtomView<'_> {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            AtomView::Typed(a) => a.type_name(),
            AtomView::Untyped(_) => "xs:untypedAtomic",
        }
    }

    pub(crate) fn to_double(&self) -> f64 {
        match self {
            AtomView::Typed(a) => a.to_double(),
            AtomView::Untyped(s) => untyped_to_double(s),
        }
    }

    /// [`Atomic::value_cmp`] of the two atomized items.
    pub(crate) fn value_cmp(&self, other: &AtomView) -> Option<Ordering> {
        use AtomView::*;
        match (self, other) {
            (Typed(a), Typed(b)) => a.value_cmp(b),
            (Untyped(a), Typed(b)) => untyped_cmp(a, b),
            (Typed(a), Untyped(b)) => untyped_cmp(b, a).map(Ordering::reverse),
            (Untyped(a), Untyped(b)) => Some(a.cmp(b)),
        }
    }
}

/// The numeric view of untyped or string data; NaN when it is no number.
pub(crate) fn untyped_to_double(s: &str) -> f64 {
    s.trim().parse().unwrap_or(f64::NAN)
}

/// Render a double the XPath way: integers without a fraction.
pub fn format_double(d: f64) -> String {
    if d.is_nan() {
        "NaN".to_string()
    } else if d.is_infinite() {
        if d > 0.0 {
            "INF".to_string()
        } else {
            "-INF".to_string()
        }
    } else if d == d.trunc() && d.abs() < 1e15 {
        format!("{}", d as i64)
    } else {
        format!("{d}")
    }
}

/// Format epoch-milliseconds as an ISO-8601-ish dateTime (UTC).
pub fn format_date_time(ms: i64) -> String {
    // Civil-from-days algorithm (Howard Hinnant), UTC only.
    let secs = ms.div_euclid(1000);
    let millis = ms.rem_euclid(1000);
    let days = secs.div_euclid(86_400);
    let sod = secs.rem_euclid(86_400);
    let (h, m, s) = (sod / 3600, (sod % 3600) / 60, sod % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mth = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mth <= 2 { y + 1 } else { y };
    if millis == 0 {
        format!("{y:04}-{mth:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
    } else {
        format!("{y:04}-{mth:02}-{d:02}T{h:02}:{m:02}:{s:02}.{millis:03}Z")
    }
}

/// Parse an ISO-8601 dateTime (UTC / no offset) to epoch milliseconds.
pub fn parse_date_time(s: &str) -> Option<i64> {
    let s = s.trim().trim_end_matches('Z');
    let (date, time) = s.split_once('T')?;
    let mut dp = date.split('-');
    let (y, mth, d): (i64, i64, i64) = (
        dp.next()?.parse().ok()?,
        dp.next()?.parse().ok()?,
        dp.next()?.parse().ok()?,
    );
    if dp.next().is_some() || !(1..=12).contains(&mth) || !(1..=31).contains(&d) {
        return None;
    }
    let mut tp = time.split(':');
    let (h, m): (i64, i64) = (tp.next()?.parse().ok()?, tp.next()?.parse().ok()?);
    let sec_str = tp.next()?;
    if tp.next().is_some() {
        return None;
    }
    let (sec, millis) = match sec_str.split_once('.') {
        Some((s, f)) => {
            let frac: String = f.chars().chain("000".chars()).take(3).collect();
            (s.parse::<i64>().ok()?, frac.parse::<i64>().ok()?)
        }
        None => (sec_str.parse::<i64>().ok()?, 0),
    };
    // Days-from-civil (Howard Hinnant).
    let y2 = if mth <= 2 { y - 1 } else { y };
    let era = y2.div_euclid(400);
    let yoe = y2 - era * 400;
    let mp = if mth > 2 { mth - 3 } else { mth + 9 };
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe - 719_468;
    Some(((days * 86_400 + h * 3600 + m * 60 + sec) * 1000) + millis)
}

/// Format milliseconds as an `xs:dayTimeDuration` lexical form.
pub fn format_duration(ms: i64) -> String {
    let neg = ms < 0;
    let mut rest = ms.unsigned_abs();
    let millis = rest % 1000;
    rest /= 1000;
    let (d, h, m, s) = (
        rest / 86_400,
        (rest % 86_400) / 3600,
        (rest % 3600) / 60,
        rest % 60,
    );
    let mut out = String::new();
    if neg {
        out.push('-');
    }
    out.push('P');
    if d > 0 {
        out.push_str(&format!("{d}D"));
    }
    out.push('T');
    if h > 0 {
        out.push_str(&format!("{h}H"));
    }
    if m > 0 {
        out.push_str(&format!("{m}M"));
    }
    if millis > 0 {
        out.push_str(&format!("{s}.{millis:03}S"));
    } else if s > 0 || (d == 0 && h == 0 && m == 0) {
        out.push_str(&format!("{s}S"));
    } else if out.ends_with('T') {
        out.pop();
    }
    out
}

/// Parse an `xs:dayTimeDuration` (`PnDTnHnMn.nS`) to milliseconds.
pub fn parse_duration(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, s) = match s.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, s),
    };
    let s = s.strip_prefix('P')?;
    let (day_part, time_part) = match s.split_once('T') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let mut total: i64 = 0;
    if !day_part.is_empty() {
        let d = day_part.strip_suffix('D')?;
        total += d.parse::<i64>().ok()? * 86_400_000;
    }
    if let Some(mut t) = time_part {
        for (unit, factor) in [('H', 3_600_000i64), ('M', 60_000)] {
            if let Some(idx) = t.find(unit) {
                total += t[..idx].parse::<i64>().ok()? * factor;
                t = &t[idx + 1..];
            }
        }
        if let Some(idx) = t.find('S') {
            let secs: f64 = t[..idx].parse().ok()?;
            total += (secs * 1000.0).round() as i64;
            t = &t[idx + 1..];
        }
        if !t.is_empty() {
            return None;
        }
    }
    Some(if neg { -total } else { total })
}

/// A single XDM item: a node or an atomic value.
#[derive(Debug, Clone)]
pub enum Item {
    Node(NodeRef),
    Atomic(Atomic),
}

impl Item {
    /// Atomize: nodes become untyped atomics of their string value.
    pub fn atomize(&self) -> Atomic {
        match self {
            Item::Node(n) => Atomic::Untyped(n.string_value().into_owned()),
            Item::Atomic(a) => a.clone(),
        }
    }

    pub(crate) fn atom_view(&self) -> AtomView<'_> {
        match self {
            Item::Node(n) => AtomView::Untyped(n.string_value()),
            Item::Atomic(a) => AtomView::Typed(a),
        }
    }

    /// String value of this item.
    pub fn string_value(&self) -> String {
        match self {
            Item::Node(n) => n.string_value().into_owned(),
            Item::Atomic(a) => a.to_str(),
        }
    }

    /// Node accessor.
    pub fn as_node(&self) -> Option<&NodeRef> {
        match self {
            Item::Node(n) => Some(n),
            Item::Atomic(_) => None,
        }
    }
}

impl From<Atomic> for Item {
    fn from(a: Atomic) -> Self {
        Item::Atomic(a)
    }
}
impl From<NodeRef> for Item {
    fn from(n: NodeRef) -> Self {
        Item::Node(n)
    }
}

/// A (possibly empty) ordered sequence of items — the universal XQuery value.
#[derive(Debug, Clone, Default)]
pub struct Sequence(pub Vec<Item>);

impl Sequence {
    /// The empty sequence.
    pub fn empty() -> Self {
        Sequence(Vec::new())
    }

    /// A singleton sequence.
    pub fn one(item: impl Into<Item>) -> Self {
        Sequence(vec![item.into()])
    }

    /// A singleton boolean.
    pub fn bool(b: bool) -> Self {
        Sequence::one(Atomic::Bool(b))
    }

    /// A singleton integer.
    pub fn int(i: i64) -> Self {
        Sequence::one(Atomic::Int(i))
    }

    /// A singleton string.
    pub fn str(s: impl Into<String>) -> Self {
        Sequence::one(Atomic::Str(s.into()))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.0.iter()
    }

    /// Effective boolean value (XPath 2.0 `fn:boolean` rules).
    pub fn effective_boolean(&self) -> Result<bool> {
        match self.0.as_slice() {
            [] => Ok(false),
            [Item::Node(_), ..] => Ok(true),
            [Item::Atomic(a)] => Ok(match a {
                Atomic::Bool(b) => *b,
                Atomic::Str(s) | Atomic::Untyped(s) => !s.is_empty(),
                Atomic::Int(i) => *i != 0,
                Atomic::Decimal(d) | Atomic::Double(d) => *d != 0.0 && !d.is_nan(),
                other => {
                    return Err(Error::type_error(format!(
                        "no effective boolean value for {}",
                        other.type_name()
                    )))
                }
            }),
            _ => Err(Error::type_error(
                "effective boolean value of a multi-item atomic sequence",
            )),
        }
    }

    /// Atomize the whole sequence.
    pub fn atomized(&self) -> Vec<Atomic> {
        self.0.iter().map(Item::atomize).collect()
    }

    /// Exactly-one-item accessor.
    pub fn exactly_one(&self) -> Result<&Item> {
        match self.0.as_slice() {
            [x] => Ok(x),
            other => Err(Error::type_error(format!(
                "expected exactly one item, got {}",
                other.len()
            ))),
        }
    }

    /// The string value of a zero-or-one sequence ("" when empty).
    pub fn string_value(&self) -> Result<String> {
        match self.0.as_slice() {
            [] => Ok(String::new()),
            [x] => Ok(x.string_value()),
            other => Err(Error::type_error(format!(
                "fn:string expects at most one item, got {}",
                other.len()
            ))),
        }
    }

    /// Sort into document order and remove duplicate nodes. Errors if the
    /// sequence mixes nodes and atomics (path step results must be nodes).
    pub fn document_order_dedup(mut self) -> Result<Sequence> {
        if self.0.iter().any(|i| matches!(i, Item::Atomic(_))) {
            return Err(Error::type_error("path step result contains atomic values"));
        }
        // A step from one context node (and most from several) already
        // delivers strictly ascending document order.
        let ascending = self.0.windows(2).all(|w| match (&w[0], &w[1]) {
            (Item::Node(x), Item::Node(y)) => x < y,
            _ => false,
        });
        if ascending {
            return Ok(self);
        }
        self.0.sort_by(|a, b| match (a, b) {
            (Item::Node(x), Item::Node(y)) => x.cmp(y),
            _ => Ordering::Equal,
        });
        self.0.dedup_by(|a, b| match (a, b) {
            (Item::Node(x), Item::Node(y)) => x.is_same_node(y),
            _ => false,
        });
        Ok(self)
    }

    /// Concatenate two sequences.
    pub fn concat(mut self, other: Sequence) -> Sequence {
        self.0.extend(other.0);
        self
    }
}

impl fmt::Display for Sequence {
    /// Space-joined string values — handy for tests and examples.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(Item::string_value).collect();
        write!(f, "{}", parts.join(" "))
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        Sequence(iter.into_iter().collect())
    }
}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = std::vec::IntoIter<Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ebv_rules() {
        assert!(!Sequence::empty().effective_boolean().unwrap());
        assert!(Sequence::str("x").effective_boolean().unwrap());
        assert!(!Sequence::str("").effective_boolean().unwrap());
        assert!(Sequence::int(5).effective_boolean().unwrap());
        assert!(!Sequence::int(0).effective_boolean().unwrap());
        assert!(!Sequence::one(Atomic::Double(f64::NAN))
            .effective_boolean()
            .unwrap());
        let doc = demaq_xml::parse("<a/>").unwrap();
        assert!(Sequence::one(doc.root()).effective_boolean().unwrap());
        let multi = Sequence(vec![Atomic::Int(1).into(), Atomic::Int(2).into()]);
        assert!(multi.effective_boolean().is_err());
    }

    #[test]
    fn numeric_casts() {
        assert_eq!(Atomic::Str(" 42 ".into()).cast_integer().unwrap(), 42);
        assert!(Atomic::Str("x".into()).cast_integer().is_err());
        assert_eq!(Atomic::Untyped("3.5".into()).to_double(), 3.5);
        assert!(Atomic::Str("foo".into()).to_double().is_nan());
    }

    #[test]
    fn boolean_casts() {
        assert!(Atomic::Str("true".into()).cast_boolean().unwrap());
        assert!(!Atomic::Str("0".into()).cast_boolean().unwrap());
        assert!(Atomic::Str("yes".into()).cast_boolean().is_err());
    }

    #[test]
    fn value_cmp_promotion() {
        use Atomic::*;
        assert_eq!(Int(2).value_cmp(&Double(2.0)), Some(Ordering::Equal));
        assert_eq!(
            Untyped("10".into()).value_cmp(&Int(9)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Str("a".into()).value_cmp(&Untyped("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(Bool(true).value_cmp(&Bool(false)), Some(Ordering::Greater));
        assert_eq!(Str("a".into()).value_cmp(&Int(1)), None);
    }

    #[test]
    fn double_formatting() {
        assert_eq!(format_double(3.0), "3");
        assert_eq!(format_double(3.25), "3.25");
        assert_eq!(format_double(f64::NAN), "NaN");
        assert_eq!(format_double(-0.0), "0");
    }

    #[test]
    fn date_time_roundtrip() {
        for s in [
            "1970-01-01T00:00:00Z",
            "2026-07-05T12:34:56Z",
            "1969-12-31T23:59:59Z",
        ] {
            let ms = parse_date_time(s).unwrap();
            assert_eq!(format_date_time(ms), s, "roundtrip of {s}");
        }
        assert_eq!(parse_date_time("1970-01-01T00:00:00.250Z").unwrap(), 250);
        assert!(parse_date_time("not a date").is_none());
        assert!(parse_date_time("2026-13-01T00:00:00").is_none());
    }

    #[test]
    fn duration_roundtrip() {
        for (s, ms) in [
            ("PT0S", 0i64),
            ("PT5S", 5_000),
            ("PT1M", 60_000),
            ("PT2H", 7_200_000),
            ("P1DT2H3M4S", 93_784_000),
            ("-PT30S", -30_000),
        ] {
            assert_eq!(parse_duration(s), Some(ms), "parse {s}");
        }
        assert_eq!(format_duration(93_784_000), "P1DT2H3M4S");
        assert_eq!(parse_duration(&format_duration(12_345)), Some(12_345));
        assert!(parse_duration("5 seconds").is_none());
    }

    #[test]
    fn document_order_dedup_sorts_and_dedups() {
        let doc = demaq_xml::parse("<a><b/><c/></a>").unwrap();
        let kids: Vec<_> = doc.document_element().unwrap().children().collect();
        let seq = Sequence(vec![
            kids[1].clone().into(),
            kids[0].clone().into(),
            kids[1].clone().into(),
        ]);
        let sorted = seq.document_order_dedup().unwrap();
        assert_eq!(sorted.len(), 2);
        assert_eq!(sorted.0[0].as_node().unwrap().name().unwrap().local, "b");
    }
}
