//! Checkpoint snapshots of the store's logical state.
//!
//! A checkpoint bounds recovery time: it captures queue definitions, every
//! persistent message *with its payload* and the LSN of the frame that
//! logged its enqueue (its lineage edge's LSN), and the slice index, then
//! switches to a fresh WAL segment. The snapshot is
//! self-contained — together with the WAL segments that post-date it, it is
//! the whole durable store. Transient queues are *not* captured — their
//! content is legitimately lost on restart (paper Sec. 2.1.1).
//!
//! Format: a 20-byte header (magic, CRC32 of the body, body length as a
//! `u64`), then a length-prefixed binary body whose counts and lengths are
//! `u32`; a property value is the length-prefixed bytes of
//! [`PropValue::encode`], the codec WAL frames use. A message's enqueue
//! LSN is a `u64`, 0 when nothing logged it (no frame starts at 0: a
//! segment starts with its header). The body is streamed in both
//! directions with a running CRC, so
//! neither writing nor reading a snapshot holds a second copy of its
//! payloads. Written to a temp file and atomically renamed.

use crate::error::{Result, StoreError};
use crate::slice::BaseCells;
use crate::types::{Lsn, MsgId, Name, PayloadBytes, PropValue, Props};
use crate::wal::crc32_update;
use std::fs;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Current format: payloads inline, each message with its enqueue LSN,
/// one member list per slice lifetime, property values in the binary codec
/// the WAL uses.
const MAGIC: &[u8; 8] = b"DEMAQCK5";
/// Earlier formats, each refused with what this store no longer reads.
const OLDER: [(&[u8; 8], &str); 4] = [
    (b"DEMAQCK1", "references payloads in heap.db"),
    (b"DEMAQCK2", "references payloads in heap.db"),
    (b"DEMAQCK3", "holds property values as decimal text"),
    (b"DEMAQCK4", "holds lineage edges apart from their messages"),
];
/// Magic, CRC of the body, body length.
const HEADER: usize = 20;

/// A persistent message as serialized into a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapMessage {
    pub id: MsgId,
    pub queue: Name,
    pub payload: PayloadBytes,
    pub processed: bool,
    pub enqueued_at: i64,
    pub props: Props,
    /// LSN of the WAL frame that logged the enqueue.
    pub lsn: Option<Lsn>,
}

/// Queue definition as serialized into a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapQueue {
    pub name: String,
    pub persistent: bool,
    pub priority: i32,
}

/// One slice as serialized into a snapshot: its current lifetime's
/// members and the narrowed-retention base released from it.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapSlice {
    pub slicing: String,
    pub key: PropValue,
    pub epoch: u64,
    pub members: Vec<MsgId>,
    pub base: BaseCells,
    pub base_members: u64,
}

/// A complete snapshot.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Snapshot {
    /// Index of the first WAL segment whose records post-date this snapshot.
    pub wal_index: u64,
    pub next_msg: u64,
    pub queues: Vec<SnapQueue>,
    pub messages: Vec<SnapMessage>,
    pub slices: Vec<SnapSlice>,
}

fn corrupt(m: &str) -> StoreError {
    StoreError::Corrupt(format!("snapshot: {m}"))
}

/// A count or length for a `u32` field of the body. One that does not fit
/// fails the checkpoint before it publishes anything, rather than being
/// truncated into a snapshot that cannot be read back.
fn len32(n: usize) -> Result<u32> {
    u32::try_from(n)
        .map_err(|_| StoreError::Invalid(format!("snapshot: length {n} exceeds a u32 field")))
}

fn header(crc: u32, len: u64) -> [u8; HEADER] {
    let mut h = [0; HEADER];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&crc.to_le_bytes());
    h[12..].copy_from_slice(&len.to_le_bytes());
    h
}

/// The body's destination: tracks its CRC and length as bytes go out.
struct Sink<W> {
    w: W,
    crc: u32,
    len: u64,
}

impl<W: Write> Sink<W> {
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.crc = crc32_update(self.crc, bytes);
        self.len += bytes.len() as u64;
        Ok(self.w.write_all(bytes)?)
    }

    fn u64(&mut self, v: u64) -> Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn count(&mut self, n: usize) -> Result<()> {
        self.put(&len32(n)?.to_le_bytes())
    }

    fn bytes(&mut self, b: &[u8]) -> Result<()> {
        self.count(b.len())?;
        self.put(b)
    }

    /// A property value: its [`PropValue::encode`] bytes, length-prefixed.
    fn prop(&mut self, v: &PropValue, scratch: &mut Vec<u8>) -> Result<()> {
        scratch.clear();
        v.encode(scratch);
        self.bytes(scratch)
    }
}

/// The body's source: tracks its CRC as bytes come in, and never reads
/// past the body length the header declared.
struct Source<R> {
    r: R,
    left: u64,
    crc: u32,
}

impl<R: Read> Source<R> {
    fn fill(&mut self, buf: &mut [u8]) -> Result<()> {
        if buf.len() as u64 > self.left {
            return Err(corrupt("truncated record"));
        }
        self.r.read_exact(buf)?;
        self.left -= buf.len() as u64;
        self.crc = crc32_update(self.crc, buf);
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0; N];
        self.fill(&mut a)?;
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32` count or length. Nothing is allocated from it up front: a
    /// corrupt count runs out of body instead.
    fn count(&mut self) -> Result<usize> {
        Ok(u32::from_le_bytes(self.array()?) as usize)
    }

    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.count()?;
        if n as u64 > self.left {
            return Err(corrupt("truncated record"));
        }
        let mut v = vec![0; n];
        self.fill(&mut v)?;
        Ok(v)
    }

    fn text(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| corrupt("invalid UTF-8"))
    }

    fn prop(&mut self) -> Result<PropValue> {
        let bytes = self.bytes()?;
        let mut at = 0;
        match PropValue::decode(&bytes, &mut at) {
            Some(v) if at == bytes.len() => Ok(v),
            _ => Err(corrupt("bad property value")),
        }
    }
}

impl Snapshot {
    /// Serialize to bytes: the header, then the body.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = vec![0; HEADER];
        let (crc, len) = self.encode_body(&mut out)?;
        out[..HEADER].copy_from_slice(&header(crc, len));
        Ok(out)
    }

    /// Stream the body into `w`, returning its CRC and length. Each payload
    /// is written straight from its resident handle.
    fn encode_body(&self, w: impl Write) -> Result<(u32, u64)> {
        let mut s = Sink { w, crc: 0, len: 0 };
        let mut scratch = Vec::new();
        s.u64(self.wal_index)?;
        s.u64(self.next_msg)?;
        s.count(self.queues.len())?;
        for q in &self.queues {
            s.bytes(q.name.as_bytes())?;
            s.put(&[q.persistent as u8])?;
            s.put(&q.priority.to_le_bytes())?;
        }
        s.count(self.messages.len())?;
        for m in &self.messages {
            s.u64(m.id.0)?;
            s.bytes(m.queue.as_bytes())?;
            s.bytes(m.payload.as_bytes())?;
            s.put(&[m.processed as u8])?;
            s.put(&m.enqueued_at.to_le_bytes())?;
            s.count(m.props.len())?;
            for (n, v) in m.props.iter() {
                s.bytes(n.as_bytes())?;
                s.prop(v, &mut scratch)?;
            }
            s.u64(m.lsn.map_or(0, |l| l.0))?;
        }
        s.count(self.slices.len())?;
        for slice in &self.slices {
            s.bytes(slice.slicing.as_bytes())?;
            s.prop(&slice.key, &mut scratch)?;
            s.u64(slice.epoch)?;
            s.count(slice.members.len())?;
            for m in &slice.members {
                s.u64(m.0)?;
            }
            s.count(slice.base.len())?;
            for (sig, cell) in &slice.base {
                s.bytes(sig.as_bytes())?;
                s.bytes(cell)?;
            }
            s.u64(slice.base_members)?;
        }
        Ok((s.crc, s.len))
    }

    /// Decode from bytes, verifying magic, length and CRC.
    pub fn decode(buf: &[u8]) -> Result<Snapshot> {
        Snapshot::decode_from(buf, buf.len() as u64)
    }

    /// Decode a `size`-byte snapshot from `r`. Payloads are validated as
    /// UTF-8 here, once. The CRC covers the body, so it is checked after
    /// the last byte; a snapshot that fails it is refused whole.
    fn decode_from(mut r: impl Read, size: u64) -> Result<Snapshot> {
        if size < HEADER as u64 {
            return Err(corrupt("bad magic"));
        }
        let mut head = [0; HEADER];
        r.read_exact(&mut head)?;
        let magic = &head[..8];
        if let Some((old, what)) = OLDER.iter().find(|(m, _)| &m[..] == magic) {
            return Err(corrupt(&format!(
                "{} {what}, which this store no longer reads",
                String::from_utf8_lossy(&old[..])
            )));
        }
        if magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let crc = u32::from_le_bytes(head[8..12].try_into().unwrap());
        let len = u64::from_le_bytes(head[12..].try_into().unwrap());
        if len > size - HEADER as u64 {
            return Err(corrupt("truncated body"));
        }
        let mut src = Source {
            r,
            left: len,
            crc: 0,
        };
        let snap = Snapshot::decode_body(&mut src)?;
        if src.left != 0 {
            return Err(corrupt("trailing bytes"));
        }
        if src.crc != crc {
            return Err(corrupt("CRC mismatch"));
        }
        Ok(snap)
    }

    fn decode_body(src: &mut Source<impl Read>) -> Result<Snapshot> {
        let mut snap = Snapshot {
            wal_index: src.u64()?,
            next_msg: src.u64()?,
            ..Default::default()
        };
        for _ in 0..src.count()? {
            snap.queues.push(SnapQueue {
                name: src.text()?,
                persistent: src.u8()? != 0,
                priority: i32::from_le_bytes(src.array()?),
            });
        }
        for _ in 0..src.count()? {
            let id = MsgId(src.u64()?);
            let queue = src.text()?.into();
            let payload = PayloadBytes::from(src.text()?);
            let processed = src.u8()? != 0;
            let enqueued_at = i64::from_le_bytes(src.array()?);
            let mut props = Vec::new();
            for _ in 0..src.count()? {
                props.push((src.text()?.into(), src.prop()?));
            }
            let lsn = src.u64()?;
            snap.messages.push(SnapMessage {
                id,
                queue,
                payload,
                processed,
                enqueued_at,
                props: props.into(),
                lsn: (lsn != 0).then_some(Lsn(lsn)),
            });
        }
        for _ in 0..src.count()? {
            let slicing = src.text()?;
            let key = src.prop()?;
            let epoch = src.u64()?;
            let mut members = Vec::new();
            for _ in 0..src.count()? {
                members.push(MsgId(src.u64()?));
            }
            let mut base = Vec::new();
            for _ in 0..src.count()? {
                base.push((src.text()?, src.bytes()?));
            }
            snap.slices.push(SnapSlice {
                slicing,
                key,
                epoch,
                members,
                base,
                base_members: src.u64()?,
            });
        }
        Ok(snap)
    }

    /// Write atomically (temp + fsync + rename). If anything fails, the
    /// temp file is removed and the published snapshot is untouched.
    pub fn write_to(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("tmp");
        if let Err(e) = self.write_file(&tmp) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Stream the body through a buffer behind a reserved header, then
    /// fill the header in and fsync.
    fn write_file(&self, path: &Path) -> Result<()> {
        let mut w = BufWriter::new(fs::File::create(path)?);
        w.write_all(&[0; HEADER])?;
        let (crc, len) = self.encode_body(&mut w)?;
        let mut f = w.into_inner().map_err(|e| e.into_error())?;
        f.seek(SeekFrom::Start(0))?;
        f.write_all(&header(crc, len))?;
        f.sync_data()?;
        Ok(())
    }

    /// Read a snapshot; `Ok(None)` when none exists yet.
    pub fn read_from(path: &Path) -> Result<Option<Snapshot>> {
        let file = match fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let size = file.metadata()?.len();
        Snapshot::decode_from(BufReader::new(file), size).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::crc32;
    use tempfile::TempDir;

    fn sample() -> Snapshot {
        Snapshot {
            wal_index: 3,
            next_msg: 101,
            queues: vec![
                SnapQueue {
                    name: "crm".into(),
                    persistent: true,
                    priority: 5,
                },
                SnapQueue {
                    name: "scratch".into(),
                    persistent: false,
                    priority: -1,
                },
            ],
            messages: vec![SnapMessage {
                id: MsgId(7),
                queue: "crm".into(),
                payload: "<order id='9'/>".into(),
                processed: true,
                enqueued_at: 777,
                props: vec![("orderID".into(), PropValue::Int(9))].into(),
                lsn: Some(Lsn(4242)),
            }],
            slices: vec![SnapSlice {
                slicing: "orders".into(),
                key: PropValue::Str("9".into()),
                epoch: 2,
                members: vec![MsgId(7), MsgId(5)],
                base: vec![("count".into(), vec![1, 2, 3]), ("sum|//v".into(), vec![9])],
                base_members: 14,
            }],
        }
    }

    /// Frame a hand-written body the way `encode` does.
    fn framed(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
        let mut bytes = magic.to_vec();
        bytes.extend_from_slice(&crc32(body).to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let decoded = Snapshot::decode(&snap.encode().unwrap()).unwrap();
        assert_eq!(decoded, snap);
    }

    /// A snapshot with an empty and a multi-byte UTF-8 payload, a message
    /// with an enqueue LSN and one without, and a base cell, byte for
    /// byte. Any change to these bytes is a change of the on-disk format,
    /// which needs a new magic.
    #[test]
    #[rustfmt::skip]
    fn golden_snapshot_format() {
        let body: Vec<u8> = [
            &[2, 0, 0, 0, 0, 0, 0, 0][..], // wal_index
            &[9, 0, 0, 0, 0, 0, 0, 0], // next_msg
            &[1, 0, 0, 0], // queue count
            &[1, 0, 0, 0, b'q', 1, 0xFE, 0xFF, 0xFF, 0xFF], // "q", persistent, priority -2
            &[2, 0, 0, 0], // message count
            &[7, 0, 0, 0, 0, 0, 0, 0], // id
            &[1, 0, 0, 0, b'q'], // queue
            &[0, 0, 0, 0], // empty payload
            &[0], // processed
            &[5, 0, 0, 0, 0, 0, 0, 0], // enqueued_at
            &[0, 0, 0, 0], // property count
            &[0, 0, 0, 0, 0, 0, 0, 0], // lsn None
            &[8, 0, 0, 0, 0, 0, 0, 0], // id
            &[1, 0, 0, 0, b'q'], // queue
            &[9, 0, 0, 0, b'<', b'a', b'>', 0xC3, 0xA9, b'<', b'/', b'a', b'>'], // "<a>é</a>"
            &[1], // processed
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF], // enqueued_at -1
            &[1, 0, 0, 0], // property count
            &[1, 0, 0, 0, b'k', 2, 0, 0, 0, 1, 6], // k = Int 3
            &[0x2A, 0, 0, 0, 0, 0, 0, 0], // lsn Some(42)
            &[1, 0, 0, 0], // slice count
            &[1, 0, 0, 0, b's'], // slicing
            &[3, 0, 0, 0, 0, 1, b'x'], // key Str "x"
            &[1, 0, 0, 0, 0, 0, 0, 0], // epoch
            &[1, 0, 0, 0], // member count
            &[8, 0, 0, 0, 0, 0, 0, 0], // member
            &[1, 0, 0, 0], // base cell count
            &[1, 0, 0, 0, b'c', 2, 0, 0, 0, 0xAB, 0xCD], // "c" -> [AB CD]
            &[3, 0, 0, 0, 0, 0, 0, 0], // base_members
        ]
        .concat();
        let bytes = framed(b"DEMAQCK5", &body);
        let snap = Snapshot {
            wal_index: 2,
            next_msg: 9,
            queues: vec![SnapQueue { name: "q".into(), persistent: true, priority: -2 }],
            messages: vec![
                SnapMessage {
                    id: MsgId(7),
                    queue: "q".into(),
                    payload: "".into(),
                    processed: false,
                    enqueued_at: 5,
                    props: Vec::new().into(),
                    lsn: None,
                },
                SnapMessage {
                    id: MsgId(8),
                    queue: "q".into(),
                    payload: "<a>é</a>".into(),
                    processed: true,
                    enqueued_at: -1,
                    props: vec![("k".into(), PropValue::Int(3))].into(),
                    lsn: Some(Lsn(42)),
                },
            ],
            slices: vec![SnapSlice {
                slicing: "s".into(),
                key: PropValue::Str("x".into()),
                epoch: 1,
                members: vec![MsgId(8)],
                base: vec![("c".into(), vec![0xAB, 0xCD])],
                base_members: 3,
            }],
        };
        assert_eq!(Snapshot::decode(&bytes).unwrap(), snap);
        assert_eq!(snap.encode().unwrap(), bytes, "snapshot bytes moved");
    }

    #[test]
    fn payloads_are_validated_at_decode() {
        let mut snap = sample();
        snap.messages[0].payload = "\u{1F600}".into();
        let mut bytes = snap.encode().unwrap();
        let at = bytes
            .windows(4)
            .position(|w| w == "\u{1F600}".as_bytes())
            .unwrap();
        bytes[at] = 0xFF;
        let (header, body) = bytes.split_at_mut(HEADER);
        header[8..12].copy_from_slice(&crc32(body).to_le_bytes());
        assert!(Snapshot::decode(&bytes).is_err(), "invalid UTF-8 accepted");
    }

    /// Every older format is refused as `Corrupt`, naming its magic and
    /// what this store no longer reads.
    #[test]
    fn older_formats_are_refused() {
        for (magic, what) in [
            (b"DEMAQCK1", "heap.db"),
            (b"DEMAQCK2", "heap.db"),
            (b"DEMAQCK3", "decimal text"),
            (b"DEMAQCK4", "lineage edges"),
        ] {
            let err = Snapshot::decode(&framed(magic, &[0; 40])).unwrap_err();
            let text = err.to_string();
            assert!(matches!(err, StoreError::Corrupt(_)), "{text}");
            assert!(text.contains(std::str::from_utf8(magic).unwrap()), "{text}");
            assert!(text.contains(what), "{text}");
        }
    }

    /// A body of 4 GiB or more keeps its true length in the header, and a
    /// count or length too large for its `u32` field fails the encode
    /// instead of wrapping. Both are checked on faked sizes.
    #[test]
    fn oversized_lengths_are_kept_or_refused() {
        let big = u32::MAX as u64 + 10;
        let head = header(0, big);
        assert_eq!(u64::from_le_bytes(head[12..].try_into().unwrap()), big);
        let err = Snapshot::decode(&head).unwrap_err();
        assert!(err.to_string().contains("truncated body"), "{err}");

        assert_eq!(len32(u32::MAX as usize).unwrap(), u32::MAX);
        let err = len32(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, StoreError::Invalid(_)), "{err}");
    }

    /// A corrupt count cannot make the decoder allocate past the body.
    #[test]
    fn corrupt_counts_run_out_of_body() {
        let mut body = vec![0; 24];
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // queue count
        body.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0x7F]); // first name length
        let err = Snapshot::decode(&framed(MAGIC, &body)).unwrap_err();
        assert!(err.to_string().contains("truncated record"), "{err}");
    }

    /// The file is streamed through a buffer and its header patched last;
    /// the result must be exactly what `encode` builds in memory, also for
    /// payloads larger than the write buffer.
    #[test]
    fn file_roundtrip() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("ckpt.snap");
        let mut snap = sample();
        snap.messages[0].payload = "<p>\u{e9}</p>".repeat(10_000).into();
        snap.write_to(&path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), snap.encode().unwrap());
        assert!(!path.with_extension("tmp").exists());
        let back = Snapshot::read_from(&path).unwrap().unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn missing_file_is_none() {
        let dir = TempDir::new().unwrap();
        assert!(Snapshot::read_from(&dir.path().join("nope"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample().encode().unwrap();
        bytes[HEADER + 4] ^= 0x55;
        assert!(Snapshot::decode(&bytes).is_err());
        let mut truncated = sample().encode().unwrap();
        truncated.truncate(truncated.len() - 3);
        assert!(Snapshot::decode(&truncated).is_err());
        assert!(Snapshot::decode(b"NOTMAGIC").is_err());
    }
}
