//! Checkpoint snapshots of the store's logical state.
//!
//! A checkpoint bounds recovery time: it captures queue definitions,
//! message metadata (payloads stay in the heap file, which is flushed
//! first), and the slice index, then switches to a fresh WAL segment.
//! Transient queues are *not* captured — their content is legitimately
//! lost on restart (paper Sec. 2.1.1).
//!
//! Format: custom length-prefixed binary with a magic header and a trailing
//! CRC; written to a temp file and atomically renamed.

use crate::error::{Result, StoreError};
use crate::pager::PageId;
use crate::slice::BaseCells;
use crate::types::{MsgId, PropValue};
use crate::wal::crc32;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Current format: per-slice narrowed-retention base (aggregate
/// accumulator cells + released-member count) follows the member list.
const MAGIC: &[u8; 8] = b"DEMAQCK2";
/// Previous format, still readable: slices carry no base fields.
const MAGIC_V1: &[u8; 8] = b"DEMAQCK1";

/// Message metadata as serialized into a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapMessage {
    pub id: MsgId,
    pub queue: String,
    /// Heap location (persistent queues only).
    pub rid_page: u32,
    pub rid_slot: u16,
    pub processed: bool,
    pub enqueued_at: i64,
    pub props: Vec<(String, PropValue)>,
}

/// Queue definition as serialized into a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapQueue {
    pub name: String,
    pub persistent: bool,
    pub priority: i32,
}

/// Causal lineage edge as serialized into a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapLineage {
    pub msg: MsgId,
    pub parent: MsgId,
    pub root: MsgId,
    pub rule: String,
    pub queue: String,
    /// WAL LSN of the original lineage record, if logged.
    pub lsn: Option<u64>,
}

/// One slice as serialized into a snapshot. Members carry the lifetime
/// (epoch) they were added in — the format predates dropping old
/// lifetimes at reset, so a snapshot may still list earlier ones, which
/// restore ignores.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapSlice {
    pub slicing: String,
    pub key: PropValue,
    pub epoch: u64,
    pub members: Vec<(MsgId, u64)>,
    pub base: BaseCells,
    pub base_members: u64,
}

/// A complete snapshot.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Snapshot {
    /// Index of the first WAL segment whose records post-date this snapshot.
    pub wal_index: u64,
    pub next_msg: u64,
    pub next_txn: u64,
    pub heap_free: Vec<PageId>,
    pub heap_live: u64,
    pub queues: Vec<SnapQueue>,
    pub messages: Vec<SnapMessage>,
    pub slices: Vec<SnapSlice>,
    pub lineage: Vec<SnapLineage>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], at: &mut usize) -> Option<String> {
    let len = u32::from_le_bytes(buf.get(*at..*at + 4)?.try_into().ok()?) as usize;
    *at += 4;
    let s = std::str::from_utf8(buf.get(*at..*at + len)?)
        .ok()?
        .to_string();
    *at += len;
    Some(s)
}

fn get_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(buf.get(*at..*at + 8)?.try_into().ok()?);
    *at += 8;
    Some(v)
}

fn get_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(buf.get(*at..*at + 4)?.try_into().ok()?);
    *at += 4;
    Some(v)
}

impl Snapshot {
    /// Serialize to bytes (magic + body + CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&self.wal_index.to_le_bytes());
        body.extend_from_slice(&self.next_msg.to_le_bytes());
        body.extend_from_slice(&self.next_txn.to_le_bytes());
        body.extend_from_slice(&self.heap_live.to_le_bytes());
        body.extend_from_slice(&(self.heap_free.len() as u32).to_le_bytes());
        for p in &self.heap_free {
            body.extend_from_slice(&p.0.to_le_bytes());
        }
        body.extend_from_slice(&(self.queues.len() as u32).to_le_bytes());
        for q in &self.queues {
            put_str(&mut body, &q.name);
            body.push(q.persistent as u8);
            body.extend_from_slice(&q.priority.to_le_bytes());
        }
        body.extend_from_slice(&(self.messages.len() as u32).to_le_bytes());
        for m in &self.messages {
            body.extend_from_slice(&m.id.0.to_le_bytes());
            put_str(&mut body, &m.queue);
            body.extend_from_slice(&m.rid_page.to_le_bytes());
            body.extend_from_slice(&m.rid_slot.to_le_bytes());
            body.push(m.processed as u8);
            body.extend_from_slice(&m.enqueued_at.to_le_bytes());
            body.extend_from_slice(&(m.props.len() as u32).to_le_bytes());
            for (n, v) in &m.props {
                put_str(&mut body, n);
                v.encode(&mut body);
            }
        }
        body.extend_from_slice(&(self.slices.len() as u32).to_le_bytes());
        for slice in &self.slices {
            put_str(&mut body, &slice.slicing);
            slice.key.encode(&mut body);
            body.extend_from_slice(&slice.epoch.to_le_bytes());
            body.extend_from_slice(&(slice.members.len() as u32).to_le_bytes());
            for (m, e) in &slice.members {
                body.extend_from_slice(&m.0.to_le_bytes());
                body.extend_from_slice(&e.to_le_bytes());
            }
            body.extend_from_slice(&(slice.base.len() as u32).to_le_bytes());
            for (sig, cell) in &slice.base {
                put_str(&mut body, sig);
                body.extend_from_slice(&(cell.len() as u32).to_le_bytes());
                body.extend_from_slice(cell);
            }
            body.extend_from_slice(&slice.base_members.to_le_bytes());
        }
        body.extend_from_slice(&(self.lineage.len() as u32).to_le_bytes());
        for l in &self.lineage {
            body.extend_from_slice(&l.msg.0.to_le_bytes());
            body.extend_from_slice(&l.parent.0.to_le_bytes());
            body.extend_from_slice(&l.root.0.to_le_bytes());
            put_str(&mut body, &l.rule);
            put_str(&mut body, &l.queue);
            body.push(l.lsn.is_some() as u8);
            body.extend_from_slice(&l.lsn.unwrap_or(0).to_le_bytes());
        }
        let mut out = Vec::with_capacity(body.len() + 16);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode from bytes, verifying magic and CRC.
    pub fn decode(buf: &[u8]) -> Result<Snapshot> {
        let corrupt = |m: &str| StoreError::Corrupt(format!("snapshot: {m}"));
        if buf.len() < 16 {
            return Err(corrupt("bad magic"));
        }
        let has_base = match &buf[..8] {
            m if m == MAGIC => true,
            m if m == MAGIC_V1 => false,
            _ => return Err(corrupt("bad magic")),
        };
        let crc = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        let len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let body = buf
            .get(16..16 + len)
            .ok_or_else(|| corrupt("truncated body"))?;
        if crc32(body) != crc {
            return Err(corrupt("CRC mismatch"));
        }
        let mut at = 0usize;
        let mut snap = Snapshot::default();
        (|| -> Option<()> {
            snap.wal_index = get_u64(body, &mut at)?;
            snap.next_msg = get_u64(body, &mut at)?;
            snap.next_txn = get_u64(body, &mut at)?;
            snap.heap_live = get_u64(body, &mut at)?;
            let nfree = get_u32(body, &mut at)? as usize;
            for _ in 0..nfree {
                snap.heap_free.push(PageId(get_u32(body, &mut at)?));
            }
            let nq = get_u32(body, &mut at)? as usize;
            for _ in 0..nq {
                let name = get_str(body, &mut at)?;
                let persistent = *body.get(at)? != 0;
                at += 1;
                let priority = i32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?);
                at += 4;
                snap.queues.push(SnapQueue {
                    name,
                    persistent,
                    priority,
                });
            }
            let nm = get_u32(body, &mut at)? as usize;
            for _ in 0..nm {
                let id = MsgId(get_u64(body, &mut at)?);
                let queue = get_str(body, &mut at)?;
                let rid_page = get_u32(body, &mut at)?;
                let rid_slot = u16::from_le_bytes(body.get(at..at + 2)?.try_into().ok()?);
                at += 2;
                let processed = *body.get(at)? != 0;
                at += 1;
                let enqueued_at = i64::from_le_bytes(body.get(at..at + 8)?.try_into().ok()?);
                at += 8;
                let np = get_u32(body, &mut at)? as usize;
                let mut props = Vec::with_capacity(np);
                for _ in 0..np {
                    let n = get_str(body, &mut at)?;
                    let v = PropValue::decode(body, &mut at)?;
                    props.push((n, v));
                }
                snap.messages.push(SnapMessage {
                    id,
                    queue,
                    rid_page,
                    rid_slot,
                    processed,
                    enqueued_at,
                    props,
                });
            }
            let ns = get_u32(body, &mut at)? as usize;
            for _ in 0..ns {
                let slicing = get_str(body, &mut at)?;
                let key = PropValue::decode(body, &mut at)?;
                let epoch = get_u64(body, &mut at)?;
                let nmem = get_u32(body, &mut at)? as usize;
                let mut members = Vec::with_capacity(nmem);
                for _ in 0..nmem {
                    let m = MsgId(get_u64(body, &mut at)?);
                    let e = get_u64(body, &mut at)?;
                    members.push((m, e));
                }
                let mut base = Vec::new();
                let mut base_members = 0u64;
                if has_base {
                    let nb = get_u32(body, &mut at)? as usize;
                    for _ in 0..nb {
                        let sig = get_str(body, &mut at)?;
                        let len = get_u32(body, &mut at)? as usize;
                        let cell = body.get(at..at + len)?.to_vec();
                        at += len;
                        base.push((sig, cell));
                    }
                    base_members = get_u64(body, &mut at)?;
                }
                snap.slices.push(SnapSlice {
                    slicing,
                    key,
                    epoch,
                    members,
                    base,
                    base_members,
                });
            }
            let nl = get_u32(body, &mut at)? as usize;
            for _ in 0..nl {
                let msg = MsgId(get_u64(body, &mut at)?);
                let parent = MsgId(get_u64(body, &mut at)?);
                let root = MsgId(get_u64(body, &mut at)?);
                let rule = get_str(body, &mut at)?;
                let queue = get_str(body, &mut at)?;
                let has_lsn = *body.get(at)? != 0;
                at += 1;
                let lsn = get_u64(body, &mut at)?;
                snap.lineage.push(SnapLineage {
                    msg,
                    parent,
                    root,
                    rule,
                    queue,
                    lsn: has_lsn.then_some(lsn),
                });
            }
            (at == body.len()).then_some(())
        })()
        .ok_or_else(|| corrupt("truncated record"))?;
        Ok(snap)
    }

    /// Write atomically (temp + rename + fsync).
    pub fn write_to(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read a snapshot; `Ok(None)` when none exists yet.
    pub fn read_from(path: &Path) -> Result<Option<Snapshot>> {
        match fs::read(path) {
            Ok(bytes) => Ok(Some(Snapshot::decode(&bytes)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::TempDir;

    fn sample() -> Snapshot {
        Snapshot {
            wal_index: 3,
            next_msg: 101,
            next_txn: 55,
            heap_free: vec![PageId(4), PageId(9)],
            heap_live: 42,
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
                rid_page: 2,
                rid_slot: 3,
                processed: true,
                enqueued_at: 777,
                props: vec![("orderID".into(), PropValue::Int(9))],
            }],
            slices: vec![SnapSlice {
                slicing: "orders".into(),
                key: PropValue::Str("9".into()),
                epoch: 2,
                members: vec![(MsgId(7), 2), (MsgId(5), 1)],
                base: vec![("count".into(), vec![1, 2, 3]), ("sum|//v".into(), vec![9])],
                base_members: 14,
            }],
            lineage: vec![
                SnapLineage {
                    msg: MsgId(7),
                    parent: MsgId(3),
                    root: MsgId(1),
                    rule: "forwardOrder".into(),
                    queue: "crm".into(),
                    lsn: Some(4242),
                },
                SnapLineage {
                    msg: MsgId(9),
                    parent: MsgId(7),
                    root: MsgId(1),
                    rule: "notify".into(),
                    queue: "scratch".into(),
                    lsn: None,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn file_roundtrip() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("ckpt.snap");
        sample().write_to(&path).unwrap();
        let back = Snapshot::read_from(&path).unwrap().unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn missing_file_is_none() {
        let dir = TempDir::new().unwrap();
        assert!(Snapshot::read_from(&dir.path().join("nope"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn decodes_v1_snapshots_without_base() {
        // A minimal DEMAQCK1 body, byte-for-byte the old format: slices
        // end at their member list.
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes()); // wal_index
        body.extend_from_slice(&2u64.to_le_bytes()); // next_msg
        body.extend_from_slice(&3u64.to_le_bytes()); // next_txn
        body.extend_from_slice(&0u64.to_le_bytes()); // heap_live
        body.extend_from_slice(&0u32.to_le_bytes()); // heap_free
        body.extend_from_slice(&0u32.to_le_bytes()); // queues
        body.extend_from_slice(&0u32.to_le_bytes()); // messages
        body.extend_from_slice(&1u32.to_le_bytes()); // slices
        put_str(&mut body, "orders");
        PropValue::Str("9".into()).encode(&mut body);
        body.extend_from_slice(&1u64.to_le_bytes()); // epoch
        body.extend_from_slice(&1u32.to_le_bytes()); // member count
        body.extend_from_slice(&7u64.to_le_bytes()); // msg id
        body.extend_from_slice(&1u64.to_le_bytes()); // member epoch
        body.extend_from_slice(&0u32.to_le_bytes()); // lineage
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V1);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        let snap = Snapshot::decode(&bytes).unwrap();
        let st = &snap.slices[0];
        assert_eq!(st.slicing, "orders");
        assert_eq!(st.members, vec![(MsgId(7), 1)]);
        assert!(st.base.is_empty());
        assert_eq!(st.base_members, 0);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample().encode();
        bytes[20] ^= 0x55;
        assert!(Snapshot::decode(&bytes).is_err());
        let mut truncated = sample().encode();
        truncated.truncate(truncated.len() - 3);
        assert!(Snapshot::decode(&truncated).is_err());
        assert!(Snapshot::decode(b"NOTMAGIC").is_err());
    }
}
