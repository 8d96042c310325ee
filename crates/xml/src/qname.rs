//! Qualified XML names.
//!
//! Demaq's QDL requires "the names of structures are always qualified XML
//! names"; the paper then assumes a default namespace and omits prefixes.
//! We model a [`QName`] as an optional namespace URI plus a local part; the
//! original lexical prefix is retained for serialization fidelity.

use std::fmt;

/// A qualified XML name: `(namespace-uri?, local-name)` with an optional
/// remembered prefix.
///
/// Equality and hashing consider only the namespace URI and local part, as
/// required by the XML Namespaces recommendation — the prefix is merely a
/// lexical artifact.
#[derive(Debug, Clone, Default)]
pub struct QName {
    /// Namespace URI this name is bound to, if any.
    pub ns: Option<String>,
    /// Prefix under which the name was written, if any (serialization only).
    pub prefix: Option<String>,
    /// Local part of the name.
    pub local: String,
}

impl QName {
    /// A name in no namespace.
    pub fn local(local: impl Into<String>) -> Self {
        QName {
            ns: None,
            prefix: None,
            local: local.into(),
        }
    }

    /// A name in a namespace, without a remembered prefix.
    pub fn ns(ns: impl Into<String>, local: impl Into<String>) -> Self {
        QName {
            ns: Some(ns.into()),
            prefix: None,
            local: local.into(),
        }
    }

    /// A fully spelled-out name.
    pub fn full(
        ns: impl Into<String>,
        prefix: impl Into<String>,
        local: impl Into<String>,
    ) -> Self {
        QName {
            ns: Some(ns.into()),
            prefix: Some(prefix.into()),
            local: local.into(),
        }
    }

    /// The lexical form `prefix:local`, or just `local` when unprefixed.
    pub fn lexical(&self) -> String {
        match &self.prefix {
            Some(p) if !p.is_empty() => format!("{}:{}", p, self.local),
            _ => self.local.clone(),
        }
    }

    /// True if local part (and namespace, when `other` has one) match.
    /// Used for name tests where the query side is namespace-agnostic.
    pub fn matches(&self, other: &QName) -> bool {
        if self.local != other.local {
            return false;
        }
        match (&self.ns, &other.ns) {
            (Some(a), Some(b)) => a == b,
            // A namespace-less name test matches regardless of the node's
            // namespace: the paper's programs are written prefix-free under
            // an assumed default namespace.
            (None, _) | (_, None) => true,
        }
    }

    /// Parse a lexical QName (`p:local` or `local`). No namespace resolution
    /// is performed; the prefix is retained.
    pub fn parse_lexical(s: &str) -> Option<QName> {
        split_lexical(s).map(|(prefix, local)| QName {
            ns: None,
            prefix: prefix.map(str::to_string),
            local: local.to_string(),
        })
    }
}

impl PartialEq for QName {
    fn eq(&self, other: &Self) -> bool {
        self.local == other.local && self.ns == other.ns
    }
}
impl Eq for QName {}

impl std::hash::Hash for QName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ns.hash(state);
        self.local.hash(state);
    }
}

impl PartialOrd for QName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.ns, &self.local).cmp(&(&other.ns, &other.local))
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.lexical())
    }
}

impl From<&str> for QName {
    fn from(s: &str) -> Self {
        QName::parse_lexical(s).unwrap_or_else(|| QName::local(s))
    }
}

/// Split a lexical QName into prefix and local part: `None` for the empty
/// string, an empty prefix or local part, or more than one colon.
pub fn split_lexical(s: &str) -> Option<(Option<&str>, &str)> {
    match s.split_once(':') {
        Some((p, l)) if !p.is_empty() && !l.is_empty() && !l.contains(':') => Some((Some(p), l)),
        Some(_) => None,
        None => (!s.is_empty()).then_some((None, s)),
    }
}

/// Check that a string is a valid XML NCName (no colon).
pub fn is_ncname(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexical_roundtrip() {
        let q = QName::parse_lexical("ws:order").unwrap();
        assert_eq!(q.prefix.as_deref(), Some("ws"));
        assert_eq!(q.local, "order");
        assert_eq!(q.lexical(), "ws:order");
    }

    #[test]
    fn unprefixed() {
        let q = QName::parse_lexical("order").unwrap();
        assert_eq!(q.prefix, None);
        assert_eq!(q.lexical(), "order");
    }

    #[test]
    fn invalid_lexical_forms() {
        assert!(QName::parse_lexical("").is_none());
        assert!(QName::parse_lexical(":x").is_none());
        assert!(QName::parse_lexical("x:").is_none());
        assert!(QName::parse_lexical("a:b:c").is_none());
    }

    #[test]
    fn equality_ignores_prefix() {
        let a = QName::full("urn:x", "p", "n");
        let b = QName::full("urn:x", "q", "n");
        assert_eq!(a, b);
        let c = QName::ns("urn:y", "n");
        assert_ne!(a, c);
    }

    #[test]
    fn ns_agnostic_matching() {
        let node = QName::ns("urn:x", "order");
        let test = QName::local("order");
        assert!(test.matches(&node));
        assert!(node.matches(&test));
        assert!(!QName::local("other").matches(&node));
    }

    #[test]
    fn ncname_check() {
        assert!(is_ncname("foo"));
        assert!(is_ncname("_a-b.c1"));
        assert!(!is_ncname("1abc"));
        assert!(!is_ncname(""));
        assert!(!is_ncname("a b"));
    }
}
