//! Core identifier and value types shared across the store.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Globally unique message identifier, monotonically increasing — doubles
/// as the arrival order within the whole store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Log sequence number (byte offset in the WAL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// Queue durability mode (paper Sec. 2.1.1: `mode persistent | transient`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// Survives crashes: operations are WAL-logged.
    Persistent,
    /// In-memory only: lost on restart; no logging overhead.
    Transient,
}

/// A typed property value (paper Sec. 2.2: "key/value pairs, with unique
/// names and a typed, atomic value").
///
/// Mirrors the `xs:` atomic types the QDL can declare. The store is
/// independent of the XQuery crate, so this is a parallel (and stable,
/// serializable) representation; the engine converts to/from XQuery
/// atomics.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    Str(String),
    Int(i64),
    Bool(bool),
    Double(f64),
    /// Epoch milliseconds.
    DateTime(i64),
    /// Milliseconds.
    Duration(i64),
}

impl PropValue {
    /// Type tag used in serialization.
    pub fn tag(&self) -> u8 {
        match self {
            PropValue::Str(_) => 0,
            PropValue::Int(_) => 1,
            PropValue::Bool(_) => 2,
            PropValue::Double(_) => 3,
            PropValue::DateTime(_) => 4,
            PropValue::Duration(_) => 5,
        }
    }

    /// Canonical string rendering (the [`Display`](fmt::Display) form).
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Serialize as (tag, length-prefixed canonical string), formatting
    /// straight into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        out.push(self.tag());
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]);
        write!(out, "{self}").expect("writing to a Vec cannot fail");
        let len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Deserialize; advances `at`.
    pub fn decode(buf: &[u8], at: &mut usize) -> Option<PropValue> {
        let tag = *buf.get(*at)?;
        *at += 1;
        let len = u32::from_le_bytes(buf.get(*at..*at + 4)?.try_into().ok()?) as usize;
        *at += 4;
        let s = std::str::from_utf8(buf.get(*at..*at + len)?).ok()?;
        *at += len;
        PropValue::from_tagged(tag, s)
    }

    /// Rebuild a value from its type tag and canonical string.
    pub fn from_tagged(tag: u8, s: &str) -> Option<PropValue> {
        Some(match tag {
            0 => PropValue::Str(s.to_string()),
            1 => PropValue::Int(s.parse().ok()?),
            2 => PropValue::Bool(s.parse().ok()?),
            3 => PropValue::Double(s.parse().ok()?),
            4 => PropValue::DateTime(s.parse().ok()?),
            5 => PropValue::Duration(s.parse().ok()?),
            _ => return None,
        })
    }
}

impl Eq for PropValue {}

impl PartialOrd for PropValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PropValue {
    /// Total order usable as a slice key (B-tree index key, paper Sec. 4.3):
    /// type tag first, then value (doubles via IEEE total order).
    fn cmp(&self, other: &Self) -> Ordering {
        use PropValue::*;
        match (self, other) {
            (Str(a), Str(b)) => a.cmp(b),
            (Int(a), Int(b)) | (DateTime(a), DateTime(b)) | (Duration(a), Duration(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (a, b) => a.tag().cmp(&b.tag()),
        }
    }
}

impl std::hash::Hash for PropValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.tag().hash(state);
        match self {
            PropValue::Str(s) => s.hash(state),
            PropValue::Int(i) | PropValue::DateTime(i) | PropValue::Duration(i) => i.hash(state),
            PropValue::Bool(b) => b.hash(state),
            PropValue::Double(d) => d.to_bits().hash(state),
        }
    }
}

impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropValue::Str(s) => f.write_str(s),
            PropValue::Int(i) => write!(f, "{i}"),
            PropValue::Bool(b) => write!(f, "{b}"),
            PropValue::Double(d) => write!(f, "{d}"),
            PropValue::DateTime(ms) | PropValue::Duration(ms) => write!(f, "{ms}"),
        }
    }
}

/// One durable causal edge: `msg` was created (into `queue`) by `rule`
/// firing on `parent`; `root` names the causal tree the message belongs
/// to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageEdge {
    pub msg: MsgId,
    pub parent: MsgId,
    pub root: MsgId,
    pub rule: String,
    pub queue: String,
    /// WAL LSN of the lineage record; `None` when the created message is
    /// transient (nothing was logged).
    pub lsn: Option<Lsn>,
}

/// Refcounted, immutable, UTF-8-validated payload bytes.
///
/// One `PayloadBytes` buffer is shared — by refcount, never by copy — from
/// enqueue through the WAL record, the in-memory message map, the
/// checkpoint cut, and every read (`Store::payload`, `StoredMessage`).
/// Validation happens exactly once, when the buffer is created from a
/// `str`: at enqueue, or when recovery decodes a WAL record or snapshot.
/// Holding one is the proof the bytes are valid UTF-8, so the read path
/// never revalidates.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PayloadBytes(Arc<str>);

impl PayloadBytes {
    pub fn as_str(&self) -> &str {
        &self.0
    }

    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

impl From<String> for PayloadBytes {
    fn from(s: String) -> PayloadBytes {
        PayloadBytes(Arc::from(s))
    }
}

impl From<&str> for PayloadBytes {
    fn from(s: &str) -> PayloadBytes {
        PayloadBytes(Arc::from(s))
    }
}

impl Deref for PayloadBytes {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for PayloadBytes {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for PayloadBytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for PayloadBytes {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Debug for PayloadBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for PayloadBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A message as read from a queue.
#[derive(Debug, Clone)]
pub struct StoredMessage {
    pub id: MsgId,
    /// Name of the containing queue.
    pub queue: String,
    /// Serialized XML payload (shared, not copied, with the store).
    pub payload: PayloadBytes,
    /// Property values attached at creation.
    pub props: Vec<(String, PropValue)>,
    /// Has the rule engine finished processing this message?
    pub processed: bool,
    /// Creation timestamp (engine virtual clock, epoch ms).
    pub enqueued_at: i64,
}

impl StoredMessage {
    /// Look up a property by name.
    pub fn prop(&self, name: &str) -> Option<&PropValue> {
        self.props.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// A message's metadata without its payload — what rule evaluation needs
/// when the parsed document is already cached. Reading this never clones
/// the payload string.
#[derive(Debug, Clone)]
pub struct MessageMeta {
    pub id: MsgId,
    /// Name of the containing queue.
    pub queue: String,
    /// Property values attached at creation.
    pub props: Vec<(String, PropValue)>,
    /// Has the rule engine finished processing this message?
    pub processed: bool,
    /// Creation timestamp (engine virtual clock, epoch ms).
    pub enqueued_at: i64,
}

impl MessageMeta {
    /// Look up a property by name.
    pub fn prop(&self, name: &str) -> Option<&PropValue> {
        self.props.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prop_value_roundtrip() {
        let values = vec![
            PropValue::Str("hello".into()),
            PropValue::Int(-42),
            PropValue::Bool(true),
            PropValue::Double(3.25),
            PropValue::DateTime(1_700_000_000_000),
            PropValue::Duration(-500),
        ];
        let mut buf = Vec::new();
        for v in &values {
            v.encode(&mut buf);
        }
        let mut at = 0;
        for v in &values {
            let got = PropValue::decode(&buf, &mut at).unwrap();
            assert_eq!(&got, v);
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn prop_value_ordering() {
        assert!(PropValue::Int(1) < PropValue::Int(2));
        assert!(PropValue::Str("a".into()) < PropValue::Str("b".into()));
        assert!(PropValue::Double(1.5) < PropValue::Double(2.0));
        // Cross-type: ordered by tag, stable.
        assert!(PropValue::Str("z".into()) < PropValue::Int(0));
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut at = 0;
        assert!(PropValue::decode(&[9, 0, 0, 0, 0], &mut at).is_none());
        let mut at = 0;
        assert!(PropValue::decode(&[1, 255, 255, 255, 255], &mut at).is_none());
    }
}
