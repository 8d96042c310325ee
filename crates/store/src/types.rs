//! Core identifier and value types shared across the store.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A fixed-seed hasher (FxHash's multiply-rotate) for the store's and the
/// engine's maps keyed by ids the process made itself. It is cheaper than
/// SipHash for an integer key, and with no per-map random seed a map's
/// layout, and with it the point where it grows, is the same on every
/// run: the allocation counts the tests pin rely on that. Maps keyed by
/// message content keep the standard, randomly seeded hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` on [`IdHasher`]; build one with `default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` on [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// A queue, slicing, property or rule name, interned once (when an
/// application is deployed, or when recovery reads it) and shared by
/// refcount from then on.
pub type Name = Arc<str>;

/// A message's properties (paper Sec. 2.2): attached once, when the
/// message is created, and never modified after, so the list is built
/// once and shared by refcount with the transaction buffer, the store's
/// message map, every metadata read and the rule host.
pub type Props = Arc<[(Name, PropValue)]>;

/// The value of the property `name` in `props`, if the message has it.
pub fn prop<'p>(props: &'p [(Name, PropValue)], name: &str) -> Option<&'p PropValue> {
    props.iter().find(|(n, _)| &**n == name).map(|(_, v)| v)
}

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

    /// Serialize in binary: the type tag, then Int and Duration as a
    /// zigzag varint, Double as 8 little-endian bytes, Bool as one byte and
    /// Str as a varint length and its UTF-8. DateTime is a zigzag varint
    /// of its distance from `epoch_ms`, so a timestamp close to a known
    /// one (a message's `enqueued_at`) takes a byte or two.
    pub fn encode_from(&self, epoch_ms: i64, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            PropValue::Str(s) => put_bytes(out, s.as_bytes()),
            PropValue::Int(v) | PropValue::Duration(v) => put_varint(out, zigzag(*v)),
            PropValue::DateTime(ms) => put_varint(out, zigzag(ms.wrapping_sub(epoch_ms))),
            PropValue::Double(d) => out.extend_from_slice(&d.to_le_bytes()),
            PropValue::Bool(b) => out.push(*b as u8),
        }
    }

    /// [`encode_from`](Self::encode_from) with DateTime relative to 0.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_from(0, out)
    }

    /// Deserialize what [`encode_from`](Self::encode_from) wrote with the
    /// same `epoch_ms`; advances `at`.
    pub fn decode_from(epoch_ms: i64, buf: &[u8], at: &mut usize) -> Option<PropValue> {
        let tag = get_u8(buf, at)?;
        Some(match tag {
            0 => PropValue::Str(get_str(buf, at)?.to_owned()),
            1 => PropValue::Int(unzigzag(get_varint(buf, at)?)),
            2 => PropValue::Bool(match get_u8(buf, at)? {
                0 => false,
                1 => true,
                _ => return None,
            }),
            3 => PropValue::Double(f64::from_le_bytes(get_bytes(buf, at, 8)?.try_into().ok()?)),
            4 => PropValue::DateTime(epoch_ms.wrapping_add(unzigzag(get_varint(buf, at)?))),
            5 => PropValue::Duration(unzigzag(get_varint(buf, at)?)),
            _ => return None,
        })
    }

    /// [`decode_from`](Self::decode_from) with DateTime relative to 0.
    pub fn decode(buf: &[u8], at: &mut usize) -> Option<PropValue> {
        PropValue::decode_from(0, buf, at)
    }
}

// The binary codec's primitives, shared by property values, WAL frames
// and snapshots. Every reader advances `at` and returns `None` rather than
// read or allocate past the end of `buf`.

/// Append `v` as a LEB128 varint: seven bits a byte, low bits first.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a varint. Only the shortest form is accepted: a trailing zero
/// group, or bits past the 64th, make it invalid.
pub(crate) fn get_varint(buf: &[u8], at: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = get_u8(buf, at)?;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            let shortest = b != 0 || shift == 0;
            return (shortest && (shift < 63 || b <= 1)).then_some(v);
        }
    }
    None
}

/// Map a signed value to an unsigned one with small magnitudes small:
/// 0, -1, 1, -2, … become 0, 1, 2, 3, ….
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

pub(crate) fn get_u8(buf: &[u8], at: &mut usize) -> Option<u8> {
    let b = *buf.get(*at)?;
    *at += 1;
    Some(b)
}

/// The next `n` bytes, if `buf` still holds them.
pub(crate) fn get_bytes<'a>(buf: &'a [u8], at: &mut usize, n: usize) -> Option<&'a [u8]> {
    let bytes = buf.get(*at..)?.get(..n)?;
    *at += n;
    Some(bytes)
}

/// Append a varint length and the bytes.
pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Read what [`put_bytes`] wrote, as UTF-8.
pub(crate) fn get_str<'a>(buf: &'a [u8], at: &mut usize) -> Option<&'a str> {
    let n = usize::try_from(get_varint(buf, at)?).ok()?;
    std::str::from_utf8(get_bytes(buf, at, n)?).ok()
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

/// The provenance system properties, which the store reads lineage from.
/// The engine stamps them on every message it creates for a cause (a rule
/// firing, a gateway ingest, a timer echo, an error); a message without
/// [`PARENT_MSG`](provenance::PARENT_MSG) is a root.
pub mod provenance {
    /// The rule whose firing created the message (a string).
    pub const CREATING_RULE: &str = "creatingRule";
    /// Id of the message whose processing caused this enqueue (an integer;
    /// absent on root messages).
    pub const PARENT_MSG: &str = "parentMsg";
    /// Id of the root message of this causal tree (an integer).
    pub const ROOT_MSG: &str = "rootMsg";
}

/// One causal edge: `msg` was created (into `queue`) by `rule` firing on
/// `parent`; `root` names the causal tree the message belongs to. Derived
/// from the message itself: its provenance properties, its queue, and the
/// frame that logged its enqueue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageEdge {
    pub msg: MsgId,
    pub parent: MsgId,
    pub root: MsgId,
    /// The creating rule; empty for a hop no rule made.
    pub rule: Name,
    pub queue: Name,
    /// LSN of the WAL frame that logged the message's enqueue; `None`
    /// when the message is transient (nothing was logged).
    pub lsn: Option<Lsn>,
}

/// Refcounted, immutable, UTF-8-validated payload bytes.
///
/// One `PayloadBytes` buffer is shared — by refcount, never by copy — from
/// enqueue through the WAL frame, the in-memory message map, the
/// checkpoint cut, and every read (`Store::payload`, `StoredMessage`).
/// Validation happens exactly once, when the buffer is created from a
/// `str`: at enqueue, or when recovery decodes a WAL frame or snapshot.
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
    pub queue: Name,
    /// Serialized XML payload (shared, not copied, with the store).
    pub payload: PayloadBytes,
    /// Property values attached at creation (shared with the store).
    pub props: Props,
    /// Has the rule engine finished processing this message?
    pub processed: bool,
    /// Creation timestamp (engine virtual clock, epoch ms).
    pub enqueued_at: i64,
}

impl StoredMessage {
    /// Look up a property by name.
    pub fn prop(&self, name: &str) -> Option<&PropValue> {
        prop(&self.props, name)
    }
}

/// A message's metadata without its payload — what rule evaluation needs
/// when the parsed document is already cached. Reading it copies nothing:
/// the queue name and the properties are refcount bumps.
#[derive(Debug, Clone)]
pub struct MessageMeta {
    pub id: MsgId,
    /// Name of the containing queue.
    pub queue: Name,
    /// Property values attached at creation (shared with the store).
    pub props: Props,
    /// Has the rule engine finished processing this message?
    pub processed: bool,
    /// Creation timestamp (engine virtual clock, epoch ms).
    pub enqueued_at: i64,
    /// The slices the message joined; `None` before the first (an empty
    /// `Arc` would count references on one shared static).
    pub slices: Option<crate::slice::SliceIds>,
}

impl MessageMeta {
    /// Look up a property by name.
    pub fn prop(&self, name: &str) -> Option<&PropValue> {
        prop(&self.props, name)
    }

    /// The handle of the slice of `slicing` the message joined.
    pub fn slice_of(&self, slicing: &str) -> Option<crate::slice::SliceId> {
        let joined = self.slices.as_deref().unwrap_or_default();
        joined
            .iter()
            .find(|(s, _)| **s == *slicing)
            .map(|&(_, id)| id)
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
        for bad in [
            &[9, 0][..],              // unknown tag
            &[1, 255, 255, 255, 255], // varint runs off the end
            &[2, 2],                  // a Bool is 0 or 1
            &[3, 0, 0, 0],            // a Double is 8 bytes
            &[0, 5, b'a'],            // string length past the end
            &[0, 1, 0xFF],            // not UTF-8
        ] {
            assert_eq!(PropValue::decode(bad, &mut 0), None, "{bad:?}");
        }
    }

    #[test]
    fn varints_are_shortest_form_and_64_bit() {
        for v in [0, 1, 127, 128, 300, u64::MAX >> 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut at = 0;
            assert_eq!(get_varint(&buf, &mut at), Some(v));
            assert_eq!(at, buf.len());
        }
        assert_eq!(get_varint(&[0x80, 0x00], &mut 0), None, "overlong zero");
        let bit_64_and_65 = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2];
        assert_eq!(get_varint(&bit_64_and_65, &mut 0), None, "65 bits");
        assert_eq!(get_varint(&[0xFF; 11], &mut 0), None, "11 bytes");
        for v in [0, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!((zigzag(-1), zigzag(1)), (1, 2));
    }

    /// A timestamp near its epoch costs one byte, however large it is.
    #[test]
    fn date_times_encode_relative_to_their_epoch() {
        let t = PropValue::DateTime(1_700_000_000_000);
        let mut buf = Vec::new();
        t.encode_from(1_700_000_000_000, &mut buf);
        assert_eq!(buf, [4, 0]);
        assert_eq!(
            PropValue::decode_from(1_700_000_000_000, &buf, &mut 0),
            Some(t.clone())
        );
        let far = PropValue::DateTime(i64::MIN);
        buf.clear();
        far.encode_from(i64::MAX, &mut buf);
        assert_eq!(PropValue::decode_from(i64::MAX, &buf, &mut 0), Some(far));
    }
}
