//! Write-ahead log: one logical redo frame per committed transaction, and
//! group commit.
//!
//! Demaq's append-only queues allow purely *logical* logging: every state
//! change is one of a handful of idempotent-by-replay operations, and
//! in-place updates never happen (paper Sec. 4.1: "our append-only approach
//! for message queues simplifies logging and recovery because there are
//! fewer in-place updates"). Deletions by the retention GC need *no*
//! logging at all — after a crash, the decision to delete is re-derivable
//! from slice membership ("frees the system from the need to fully log
//! message deletions").
//!
//! # Segment and frame format
//!
//! A segment starts with the 8-byte header `DEMAQWL3` ([`SEGMENT_MAGIC`]),
//! then holds one frame per committed transaction: `[len u32][crc32
//! u32][payload]`. Nothing reaches the log before commit, and
//! [`LogWriter::append_txn`] writes a transaction whole under one hold of
//! the append mutex, so a CRC-valid frame *is* a committed transaction:
//! there are no begin, commit or abort records, and recovery replays every
//! valid frame in log order.
//!
//! The payload is the op count, then the ops ([`TxnOp`]) in compact binary.
//! Lengths and counts are LEB128 varints; signed values are zigzag
//! varints; property values use [`PropValue::encode_from`], with a
//! DateTime written relative to its message's `enqueued_at`. No
//! transaction id is logged: nothing durable names a transaction.
//!
//! Each fact is logged once. A message's lineage is not a record of its
//! own: the store reads it from the enqueue, whose provenance properties
//! ([`provenance`]) name the parent, the root and the creating rule, and
//! whose frame's LSN is the edge's LSN.
//!
//! Ids and times are coded by distance:
//!
//! * **Message ids.** The first id of a frame is written in full; every
//!   later one — op ids, and the `parentMsg`/`rootMsg` property values,
//!   tagged `6` — as the zigzag distance from that first id. Ids are at
//!   most `i64::MAX`, so a distance never wraps; one that decodes to an id
//!   below zero or past `i64::MAX` makes the frame undecodable.
//! * **Enqueue times.** `enqueued_at` is the zigzag distance from the
//!   previous enqueue written to the segment (from 0 for the first). Times
//!   are at most [`MAX_TIME`] in magnitude, so the distance between two
//!   fits an `i64`; one that leaves that range makes the frame
//!   undecodable.
//!
//! Names — of queues, slicings, properties and rules, the last as
//! `creatingRule` property values tagged `7` — go through a per-segment
//! table. The first use of a name in a segment writes `0` and the name
//! inline, which gives it the next id; every later use writes `id + 1`.
//!
//! The name table and the last enqueue time are segment state. The writer
//! keeps both under the append mutex, so log order is definition order,
//! and adopts a frame's changes only once the frame is written: a failed
//! write leaves them as they were. [`LogWriter::open`] rebuilds them from
//! the scan when it reopens a segment, and [`read_log`] rebuilds them
//! frame by frame.
//!
//! A payload is never empty (it holds at least the op count), so a frame
//! header of `len == 0` can only be a zero-filled tail — the scan treats
//! it as end-of-log, never as a frame.
//!
//! # Tail semantics (the recovery boundary)
//!
//! [`read_log`] distinguishes two kinds of damage:
//!
//! * **Torn tail** — a truncated frame, a CRC mismatch, or a zero-length
//!   frame header. These are the expected signatures of a crash
//!   mid-`write`: the scan stops cleanly at the last valid frame and
//!   reports the discarded byte count ([`LogScan::discarded`], which
//!   excludes trailing zeros — journaling filesystems can legitimately
//!   recover a crashed file with its size extended but the data
//!   unwritten, i.e. a zero tail). The zero-frame check runs *before*
//!   the CRC check: `crc32` of an empty payload is 0, so an all-zero
//!   frame would otherwise read as CRC-valid and then fail decoding as
//!   hard corruption, turning an ordinary crash into a refused recovery.
//!   Everything before the tear is trusted. A segment header the crash
//!   kept from the disk — the file is empty, shorter than the header, or
//!   starts with eight zero bytes — is a torn tail of an empty segment.
//! * **Hard corruption** — a frame whose CRC verifies but whose payload
//!   does not decode, or a segment whose header is not [`SEGMENT_MAGIC`].
//!   A CRC-valid-but-undecodable frame cannot be produced by a torn write
//!   (the CRC covers the whole payload), so it means the file was damaged
//!   *in the middle* or written by a different/buggy encoder — recovery
//!   must not guess past it and [`read_log`] returns
//!   [`StoreError::Corrupt`]. The header check refuses the per-op records
//!   of older builds before any of their bytes is decoded.
//!
//! [`LogWriter::open`] truncates the file to the valid prefix before
//! appending. Without that truncation, post-crash appends would land
//! *after* the torn garbage and every later committed frame would be
//! unreachable to the next recovery scan (which stops at the tear).
//!
//! # Group commit
//!
//! Committers append their frames under the append mutex, then make them
//! durable through a leader/follower protocol ([`LogWriter::sync_to`]):
//! the first committer to arrive becomes the sync leader, optionally waits
//! a short batching window ([`GroupCommitCfg::max_wait`]) for more commits
//! to pile in, flushes, and issues a single `sync_data` covering every
//! follower's LSN — *outside* the append mutex, so appends continue while
//! the device syncs. Followers block on a condvar until some leader's sync
//! covers their commit LSN.
//!
//! A committer may also *not* wait: it keeps the durable target
//! [`LogWriter::append_txn`] returned and goes on, and a later
//! *barrier* ([`LogWriter::sync_now`]) covers every commit appended so
//! far with one sync. A barrier never sits in the batching window — the
//! commits it is for have all been appended already, so there is nothing
//! to wait for.
//!
//! A file's `sync_data` does not make its directory entry durable. The
//! first sync of a segment [`LogWriter::open`] created therefore also
//! syncs the store directory (`sync_dir`) before any commit it covers
//! counts as durable; otherwise a power cut could lose the whole segment.

use crate::error::{Result, StoreError};
use crate::txn::TxnOp;
use crate::types::{
    get_str, get_u8, get_varint, provenance, put_bytes, put_varint, unzigzag, zigzag, Lsn, MsgId,
    Name, PayloadBytes, PropValue,
};
use demaq_obs::{Counter, Histogram, Registry};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The first eight bytes of every segment: the frame format's name.
pub const SEGMENT_MAGIC: &[u8; 8] = b"DEMAQWL3";

/// The largest `enqueued_at` magnitude a frame holds. Within it, the
/// distance between any two times fits an `i64`, so the time coding never
/// wraps.
pub const MAX_TIME: i64 = (1 << 62) - 1;

const T_ENQUEUE: u8 = 1;
const T_PROCESSED: u8 = 2;
const T_SLICE_ADD: u8 = 3;
const T_SLICE_RESET: u8 = 4;

/// Property value tags of the frame coding, past [`PropValue::tag`]'s: a
/// message id coded as an id of the frame, and a string coded through the
/// name table.
const P_ID: u8 = 6;
const P_NAME: u8 = 7;

/// The write side's name table: the id of every name the segment defined.
type NameIds = HashMap<Name, u64>;

/// The per-frame id coding: the first id in full, every later one as its
/// zigzag distance from the first.
#[derive(Default)]
struct Ids(Option<i64>);

impl Ids {
    fn put(&mut self, out: &mut Vec<u8>, id: i64) {
        match self.0 {
            None => {
                put_varint(out, id as u64);
                self.0 = Some(id);
            }
            Some(base) => put_varint(out, zigzag(id - base)),
        }
    }

    /// The next id; `None` when it overflows or is negative.
    fn get(&mut self, buf: &[u8], at: &mut usize) -> Option<i64> {
        let v = get_varint(buf, at)?;
        let id = match self.0 {
            None => i64::try_from(v).ok()?,
            Some(base) => base.checked_add(unzigzag(v)).filter(|id| *id >= 0)?,
        };
        self.0.get_or_insert(id);
        Some(id)
    }
}

/// A message id as the frame coding holds it; ids past `i64::MAX` are
/// refused (the store allocates far below it).
fn id_of(msg: MsgId) -> Result<i64> {
    i64::try_from(msg.0)
        .map_err(|_| StoreError::Invalid(format!("message id {msg} does not fit a WAL frame")))
}

/// Whether `name = value` is a provenance id the frame codes as an id.
fn is_id_prop(name: &str, value: &PropValue) -> bool {
    matches!(value, PropValue::Int(v) if *v >= 0)
        && (name == provenance::PARENT_MSG || name == provenance::ROOT_MSG)
}

/// Encode one transaction as a frame payload into `out`, naming through
/// `names` and timing from `time`, the segment's last enqueue time.
/// Returns the names the payload defines, in id order after those of
/// `names`, and its own last enqueue time; the caller adopts both once the
/// frame is written.
fn encode_txn<'o>(
    out: &mut Vec<u8>,
    names: &NameIds,
    mut time: i64,
    ops: &[&'o TxnOp],
) -> Result<(Vec<&'o str>, i64)> {
    let mut new: Vec<&'o str> = Vec::new();
    let mut name = |out: &mut Vec<u8>, s: &'o str| {
        let id = names.get(s).copied().or_else(|| {
            let at = new.iter().position(|n| *n == s)?;
            Some((names.len() + at) as u64)
        });
        match id {
            Some(id) => put_varint(out, id + 1),
            None => {
                put_varint(out, 0);
                put_bytes(out, s.as_bytes());
                new.push(s);
            }
        }
    };
    let mut ids = Ids::default();
    put_varint(out, ops.len() as u64);
    for op in ops {
        match op {
            TxnOp::Enqueue {
                queue,
                msg,
                payload,
                props,
                enqueued_at,
            } => {
                if enqueued_at.unsigned_abs() > MAX_TIME as u64 {
                    return Err(StoreError::Invalid(format!(
                        "enqueue time {enqueued_at} does not fit a WAL frame"
                    )));
                }
                out.push(T_ENQUEUE);
                name(out, queue);
                ids.put(out, id_of(*msg)?);
                put_varint(out, zigzag(enqueued_at - time));
                time = *enqueued_at;
                put_bytes(out, payload.as_bytes());
                put_varint(out, props.len() as u64);
                for (prop, value) in props.iter() {
                    name(out, prop);
                    match value {
                        PropValue::Int(id) if is_id_prop(prop, value) => {
                            out.push(P_ID);
                            ids.put(out, *id);
                        }
                        PropValue::Str(rule) if **prop == *provenance::CREATING_RULE => {
                            out.push(P_NAME);
                            name(out, rule);
                        }
                        _ => value.encode_from(*enqueued_at, out),
                    }
                }
            }
            TxnOp::MarkProcessed { msg } => {
                out.push(T_PROCESSED);
                ids.put(out, id_of(*msg)?);
            }
            TxnOp::SliceAdd { slicing, key, msg } => {
                out.push(T_SLICE_ADD);
                name(out, slicing);
                key.encode(out);
                ids.put(out, id_of(*msg)?);
            }
            TxnOp::SliceReset { slicing, key } => {
                out.push(T_SLICE_RESET);
                name(out, slicing);
                key.encode(out);
            }
        }
    }
    Ok((new, time))
}

/// A count read from `buf`, as a capacity no larger than the bytes left:
/// every counted item takes at least one byte, so a corrupt count runs out
/// of frame instead of allocating.
fn get_count(buf: &[u8], at: &mut usize) -> Option<(u64, usize)> {
    let n = get_varint(buf, at)?;
    Some((n, n.min((buf.len() - *at) as u64) as usize))
}

/// Decode one frame payload, resolving names through `names` and timing
/// from `time`; appends the names the frame defines and advances `time`
/// to its last enqueue. A distance that leaves the range of ids or times
/// makes the frame undecodable.
fn decode_txn(buf: &[u8], names: &mut Vec<Name>, time: &mut i64) -> Option<Vec<TxnOp>> {
    let at = &mut 0;
    let mut name = |at: &mut usize| -> Option<Name> {
        match get_varint(buf, at)? {
            0 => {
                let s: Name = get_str(buf, at)?.into();
                names.push(Arc::clone(&s));
                Some(s)
            }
            id => names.get(usize::try_from(id - 1).ok()?).cloned(),
        }
    };
    let mut ids = Ids::default();
    let (n, cap) = get_count(buf, at)?;
    let mut ops = Vec::with_capacity(cap);
    for _ in 0..n {
        let tag = get_u8(buf, at)?;
        ops.push(match tag {
            T_ENQUEUE => {
                let queue = name(at)?;
                let msg = MsgId(ids.get(buf, at)? as u64);
                let enqueued_at = time
                    .checked_add(unzigzag(get_varint(buf, at)?))
                    .filter(|t| t.unsigned_abs() <= MAX_TIME as u64)?;
                *time = enqueued_at;
                let payload = PayloadBytes::from(get_str(buf, at)?);
                let (n, cap) = get_count(buf, at)?;
                let mut props = Vec::with_capacity(cap);
                for _ in 0..n {
                    let prop = name(at)?;
                    let value = match buf.get(*at) {
                        Some(&P_ID) => {
                            *at += 1;
                            PropValue::Int(ids.get(buf, at)?)
                        }
                        Some(&P_NAME) => {
                            *at += 1;
                            PropValue::Str(name(at)?.to_string())
                        }
                        _ => PropValue::decode_from(enqueued_at, buf, at)?,
                    };
                    props.push((prop, value));
                }
                TxnOp::Enqueue {
                    queue,
                    msg,
                    payload,
                    props: props.into(),
                    enqueued_at,
                }
            }
            T_PROCESSED => TxnOp::MarkProcessed {
                msg: MsgId(ids.get(buf, at)? as u64),
            },
            T_SLICE_ADD => TxnOp::SliceAdd {
                slicing: name(at)?,
                key: PropValue::decode(buf, at)?,
                msg: MsgId(ids.get(buf, at)? as u64),
            },
            T_SLICE_RESET => TxnOp::SliceReset {
                slicing: name(at)?,
                key: PropValue::decode(buf, at)?,
            },
            _ => return None,
        });
    }
    (*at == buf.len()).then_some(ops)
}

/// Append one framed payload to `out` in place: reserve the `[len][crc32]`
/// header, encode the payload behind it, fill the header. A payload the
/// encoder refuses, or too long for the `u32` length, is taken out again.
fn put_frame<R>(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>) -> Result<R>) -> Result<R> {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    let r = encode(out).and_then(|r| match u32::try_from(out.len() - start - 8) {
        Ok(_) => Ok(r),
        Err(_) => Err(StoreError::Invalid(format!(
            "a transaction of {} bytes does not fit a WAL frame",
            out.len() - start - 8
        ))),
    });
    if r.is_err() {
        out.truncate(start);
        return r;
    }
    let len = (out.len() - start - 8) as u32;
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    r
}

/// CRC32 (IEEE 802.3, reflected) — small standalone implementation to keep
/// the dependency set minimal. The checksum runs over every WAL byte on
/// the commit path, so it is computed slice-by-8: one round of eight
/// table lookups per eight input bytes, bytewise only for the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extend `crc`, the CRC32 of some prefix, over `bytes`: the result is the
/// CRC32 of the prefix followed by `bytes`, so a stream can be checksummed
/// in pieces. `crc32_update(0, b)` is `crc32(b)`.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Lookup tables for [`crc32`], built at compile time. Table 0 is the
/// classic byte-at-a-time table; entry `i` of table `n` is the register
/// after byte `i` followed by `n` zero bytes, which is what lets one round
/// consume eight bytes.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[n - 1][i];
            t[n][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        n += 1;
    }
    t
};

/// Group-commit tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitCfg {
    /// Stop the batching window early once this many commits are pending
    /// for the next sync. `<= 1` disables grouping entirely: every commit
    /// performs its own fsync while holding the append mutex (the
    /// fsync-per-commit baseline measured by bench E9).
    pub max_batch: usize,
    /// Cap on how long a sync leader waits for more committers to join its
    /// batch. The wait is *adaptive*: the leader only waits while fewer
    /// commits are pending than the previous batch delivered (recent
    /// concurrency predicts current concurrency), so a lone committer
    /// never waits at all, while N concurrent committers quickly converge
    /// on batches of N. Zero disables the window entirely — batching then
    /// only happens among commits that pile up during an in-flight fsync.
    ///
    /// Deliberately *not* tuned to chase maximal batches: measured on a
    /// single-core host, forcing the batch up to the full worker count
    /// (probing windows) reduced throughput — with every worker blocked
    /// in one big batch, nothing overlaps the device flush, whereas
    /// smaller batches hide the fsync behind the other workers' compute.
    pub max_wait: Duration,
}

impl Default for GroupCommitCfg {
    fn default() -> GroupCommitCfg {
        GroupCommitCfg {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
        }
    }
}

/// Registry handles for WAL metrics, attached once by the store.
struct WalObs {
    /// `demaq_store_group_commit_batch_size` — commits made durable per
    /// WAL sync (a value histogram, not nanoseconds).
    batch_size: Histogram,
    /// `demaq_store_wal_syncs_total` — fsyncs issued.
    syncs: Counter,
    /// `demaq_store_group_commit_waits_total` — commits that blocked on
    /// another committer's in-flight sync instead of issuing their own.
    sync_waits: Counter,
    /// `demaq_store_dir_syncs_total` — directory fsyncs (not counted in
    /// `demaq_store_wal_syncs_total`).
    dir_syncs: Counter,
}

/// The write side of the log.
pub struct LogWriter {
    inner: Mutex<WriterInner>,
    /// Cloned handle used for `sync_data` outside the append mutex.
    sync_handle: File,
    cfg: GroupCommitCfg,
    sync_state: Mutex<SyncState>,
    /// Durability waiters: followers blocked until a sync covers their
    /// commit LSN, notified once per completed sync (plus leadership
    /// handoff). Kept separate from [`LogWriter::window_cv`] so the
    /// per-commit registration in `append_txn` never wakes them —
    /// with one shared condvar every arriving commit woke every blocked
    /// follower just to recheck and sleep again, a storm of futex
    /// round-trips that was pure overhead on the commit path.
    sync_cv: Condvar,
    /// The batching-window leader (at most one), woken per new commit so
    /// its window can fill early.
    window_cv: Condvar,
    obs: OnceLock<WalObs>,
    /// The segment's directory while `open` created the segment and no
    /// sync has made its entry there durable yet.
    unsynced_dir: Mutex<Option<PathBuf>>,
}

struct WriterInner {
    file: BufWriter<File>,
    /// Next byte offset (== LSN of the next frame).
    offset: u64,
    /// Bytes written since open (stats for the recovery bench).
    bytes_logged: u64,
    /// Crash-injection failpoint (`DEMAQ_WAL_CRASH_AFTER_BYTES`): byte
    /// budget left before the writer tears a frame mid-write and aborts
    /// the process. Test-harness only; `None` in normal operation.
    crash_budget: Option<u64>,
    /// The frame of the append in progress, built in place; empty between
    /// appends, its allocation reused.
    frame: Vec<u8>,
    /// The segment's name table (see the module docs).
    names: NameIds,
    /// The `enqueued_at` of the last enqueue written to the segment (0
    /// before the first), which the next one is coded from.
    time: i64,
}

/// Frame-buffer capacity kept between appends: one huge transaction does
/// not pin its size for the life of the segment.
const FRAME_KEPT: usize = 1 << 20;

struct SyncState {
    /// Bytes `[0, durable)` of the file are known fsynced (the prefix found
    /// at open counts: every later sync covers it anyway).
    durable: u64,
    /// A leader is currently flushing/syncing.
    leader_active: bool,
    /// Commits appended since the last sync consumed the batch —
    /// the commits a crash right now could lose.
    pending_commits: u64,
    /// Size of the last batch a *waiting committer* led — the adaptive
    /// window's estimate of current commit concurrency. Barriers leave it
    /// alone: how many deferred commits one covers says nothing about how
    /// many committers arrive together.
    prev_batch: u64,
    /// A barrier is blocked behind the current leader: cut the batching
    /// window short.
    barrier_waiting: bool,
}

impl LogWriter {
    /// Open (or create) the log at `path`, truncating any torn tail so new
    /// appends are contiguous with the last valid frame, and rebuilding the
    /// segment's name table. A segment without a valid header gets one,
    /// buffered to go out with the first frame.
    pub fn open(path: &Path, cfg: GroupCommitCfg) -> Result<LogWriter> {
        // Scan before opening for append: find the valid prefix.
        let scan = read_log(path)?;
        // The directory to sync once, if this open creates the segment.
        let created = (!path.exists()).then(|| match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
            _ => PathBuf::from("."),
        });
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        if file.metadata()?.len() > scan.valid_len {
            // A torn tail from a previous crash: cut it off, or appends
            // would land beyond garbage the next recovery scan stops at.
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        let sync_handle = file.try_clone()?;
        let mut file = BufWriter::new(file);
        let mut offset = scan.valid_len;
        if offset == 0 {
            // No syscall: the header reaches the file with the first
            // frame. It counts as durable — a segment whose header never
            // made it to disk reads as empty, which it is.
            file.write_all(SEGMENT_MAGIC)?;
            offset = SEGMENT_MAGIC.len() as u64;
        }
        let crash_budget = std::env::var("DEMAQ_WAL_CRASH_AFTER_BYTES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        let names = scan.names.into_iter().zip(0..).collect();
        Ok(LogWriter {
            inner: Mutex::new(WriterInner {
                file,
                offset,
                bytes_logged: offset - scan.valid_len,
                crash_budget,
                frame: Vec::new(),
                names,
                time: scan.time,
            }),
            sync_handle,
            cfg,
            sync_state: Mutex::new(SyncState {
                durable: offset,
                leader_active: false,
                pending_commits: 0,
                prev_batch: 1,
                barrier_waiting: false,
            }),
            sync_cv: Condvar::new(),
            window_cv: Condvar::new(),
            obs: OnceLock::new(),
            unsynced_dir: Mutex::new(created),
        })
    }

    /// Resolve metric handles in `registry` (idempotent; first call wins).
    pub fn attach_obs(&self, registry: &Registry) {
        let _ = self.obs.set(WalObs {
            batch_size: registry.histogram("demaq_store_group_commit_batch_size"),
            syncs: registry.counter("demaq_store_wal_syncs_total"),
            sync_waits: registry.counter("demaq_store_group_commit_waits_total"),
            dir_syncs: registry.counter("demaq_store_dir_syncs_total"),
        });
    }

    /// Append one transaction as one frame under one hold of the append
    /// mutex, and register the commit with the group-commit coordinator.
    /// Returns the durable target (the commit is durable once a sync covers
    /// it, see [`LogWriter::sync_to`]) and the frame's LSN.
    pub fn append_txn(&self, ops: &[&TxnOp]) -> Result<(u64, Lsn)> {
        let mut inner = self.inner.lock();
        let lsn = Lsn(inner.offset);
        let WriterInner {
            frame, names, time, ..
        } = &mut *inner;
        let (new, last) = put_frame(frame, |out| encode_txn(out, names, *time, ops))?;
        self.write_frame(&mut inner)?;
        for name in new {
            let id = inner.names.len() as u64;
            inner.names.insert(name.into(), id);
        }
        inner.time = last;
        let target = inner.offset;
        drop(inner);
        self.sync_state.lock().pending_commits += 1;
        // Wake only a leader sitting in its batching window — durability
        // waiters on `sync_cv` don't care about new arrivals.
        self.window_cv.notify_one();
        Ok((target, lsn))
    }

    /// Write the frame built in `inner.frame` and empty the buffer.
    fn write_frame(&self, inner: &mut WriterInner) -> Result<()> {
        let WriterInner {
            file,
            offset,
            bytes_logged,
            crash_budget,
            frame,
            ..
        } = inner;
        if let Some(budget) = crash_budget {
            if frame.len() as u64 > *budget {
                // Failpoint: die like a power cut between two disk
                // writes. Nothing past the last fsync survives (buffered
                // and merely written frames are dropped), then a torn
                // prefix of this frame. The sync state stays locked until
                // the abort, so no in-flight sync can publish — and its
                // committer ack — bytes this truncation removes.
                let st = self.sync_state.lock();
                let mut file: &File = file.get_ref();
                let _ = file.set_len(st.durable);
                let _ = file.write_all(&frame[..*budget as usize]);
                std::process::abort();
            }
            *budget -= frame.len() as u64;
        }
        let written = file.write_all(frame);
        if written.is_ok() {
            *offset += frame.len() as u64;
            *bytes_logged += frame.len() as u64;
        }
        frame.clear();
        frame.shrink_to(FRAME_KEPT);
        Ok(written?)
    }

    /// Block until bytes `[0, target)` are fsynced — the leader/follower
    /// group-commit protocol. The first arriving committer becomes leader,
    /// waits up to [`GroupCommitCfg::max_wait`] for the batch to fill,
    /// then flushes (briefly under the append mutex) and fsyncs *outside*
    /// all locks; everyone whose target the sync covered is released.
    pub fn sync_to(&self, target: u64) -> Result<()> {
        self.sync_inner(target, true).map(drop)
    }

    /// `window`: whether a caller that becomes leader may wait for more
    /// committers (a committer waiting for its own commit) or not (a
    /// barrier). Returns the number of commits covered by the sync this
    /// call led, 0 when another sync had covered `target` already.
    fn sync_inner(&self, target: u64, window: bool) -> Result<u64> {
        let mut led = 0;
        let mut st = self.sync_state.lock();
        loop {
            if st.durable >= target {
                return Ok(led);
            }
            if st.leader_active {
                if let Some(obs) = self.obs.get() {
                    obs.sync_waits.inc();
                }
                if !window && !st.barrier_waiting {
                    st.barrier_waiting = true;
                    self.window_cv.notify_one();
                }
                self.sync_cv.wait(&mut st);
                continue;
            }
            st.leader_active = true;
            if window && self.cfg.max_wait > Duration::ZERO {
                // Adaptive window: gather as many commits as the previous
                // batch had (capped by max_batch / max_wait). prev_batch=1
                // (no recent concurrency) skips the wait entirely.
                let target = st.prev_batch.clamp(1, self.cfg.max_batch as u64);
                if st.pending_commits < target {
                    let deadline = Instant::now() + self.cfg.max_wait;
                    while st.pending_commits < target && !st.barrier_waiting {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        if self.window_cv.wait_for(&mut st, deadline - now).timed_out() {
                            break;
                        }
                    }
                }
            }
            let batch = st.pending_commits;
            st.pending_commits = 0;
            if window {
                st.prev_batch = batch.max(1);
            }
            drop(st);

            let result = (|| -> Result<u64> {
                let covered = {
                    let mut inner = self.inner.lock();
                    inner.file.flush()?;
                    inner.offset
                };
                // The expensive part happens with no lock held: appends
                // and other committers keep running.
                self.sync_handle.sync_data()?;
                self.sync_new_entry()?;
                Ok(covered)
            })();

            st = self.sync_state.lock();
            st.leader_active = false;
            st.barrier_waiting = false;
            match result {
                Ok(covered) => {
                    st.durable = st.durable.max(covered);
                    if let Some(obs) = self.obs.get() {
                        obs.syncs.inc();
                        if batch > 0 {
                            obs.batch_size.record_ns(batch);
                        }
                    }
                    led = batch;
                    self.sync_cv.notify_all();
                    // Loop: `covered >= target` always holds here (we
                    // appended before calling), so this returns.
                }
                Err(e) => {
                    // The batch is still unsynced; let a follower take
                    // over leadership and retry.
                    st.pending_commits += batch;
                    self.sync_cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Flush and fsync while holding the append mutex — the serialized
    /// fsync-per-commit baseline ([`GroupCommitCfg::max_batch`] `<= 1`).
    pub fn sync_each(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.file.flush()?;
        inner.file.get_ref().sync_data()?;
        self.sync_new_entry()?;
        let covered = inner.offset;
        drop(inner);
        let mut st = self.sync_state.lock();
        st.durable = st.durable.max(covered);
        let batch = std::mem::take(&mut st.pending_commits);
        drop(st);
        if let Some(obs) = self.obs.get() {
            obs.syncs.inc();
            obs.batch_size.record_ns(batch.max(1));
        }
        self.sync_cv.notify_all();
        Ok(())
    }

    /// Sync the directory after the first sync of a segment `open` created:
    /// the segment's entry is durable before any commit in it is.
    fn sync_new_entry(&self) -> Result<()> {
        let mut dir = self.unsynced_dir.lock();
        if let Some(d) = dir.as_deref() {
            sync_dir(d)?;
            *dir = None;
            if let Some(obs) = self.obs.get() {
                obs.dir_syncs.inc();
            }
        }
        Ok(())
    }

    /// The segment's directory entry was made durable by someone else's
    /// directory sync (the checkpoint's, after the snapshot rename): its
    /// first sync no longer needs one of its own.
    pub(crate) fn note_dir_synced(&self) {
        *self.unsynced_dir.lock() = None;
    }

    /// Durability barrier: make everything appended so far durable
    /// (deferred commits, checkpoints, explicit `sync()` under the batch
    /// policy). Cooperates with in-flight group syncs but never waits in
    /// the batching window. Returns the number of commits covered by the
    /// sync this call led (0 when everything was durable already or
    /// another leader's sync covered it).
    pub fn sync_now(&self) -> Result<u64> {
        let end = self.inner.lock().offset;
        self.sync_inner(end, false)
    }

    /// Commits appended that no sync has covered yet.
    pub fn pending_commits(&self) -> u64 {
        self.sync_state.lock().pending_commits
    }

    /// Bytes `[0, durable_offset)` are known fsynced.
    pub fn durable_offset(&self) -> u64 {
        self.sync_state.lock().durable
    }

    /// Total bytes appended since open (benchmark metric E4).
    pub fn bytes_logged(&self) -> u64 {
        self.inner.lock().bytes_logged
    }

    /// Current end-of-log LSN.
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.inner.lock().offset)
    }
}

/// Result of scanning a log segment: its committed transactions, the
/// coding state its valid frames leave (name table, last enqueue time), and
/// where the valid prefix ends (for tail truncation and discard
/// reporting).
#[derive(Debug, Default)]
pub struct LogScan {
    /// One entry per valid frame: its LSN and the transaction's ops.
    pub txns: Vec<(Lsn, Vec<TxnOp>)>,
    /// The segment's names, by id, as the valid frames defined them.
    pub names: Vec<Name>,
    /// The `enqueued_at` of the last enqueue of the valid frames, 0 when
    /// they hold none.
    pub time: i64,
    /// Byte length of the valid prefix — the offset right after the last
    /// valid frame, 0 when the segment has no valid header.
    /// [`LogWriter::open`] truncates the file here.
    pub valid_len: u64,
    /// Trailing bytes discarded as a torn tail — the suffix after
    /// `valid_len` up to the last non-zero byte. A zero-filled tail does
    /// not count; zero for a clean file.
    pub discarded: u64,
}

/// Read every committed transaction from a log segment.
///
/// A truncated frame or CRC mismatch is a *torn tail*: the scan stops
/// cleanly and reports the discarded suffix length. So is a missing
/// header: an empty file, one shorter than the header, or one starting
/// with eight zero bytes scans as an empty segment. A frame whose CRC
/// verifies but whose payload does not decode is *hard corruption* (a torn
/// write cannot produce it) and yields [`StoreError::Corrupt`], as does
/// any header other than [`SEGMENT_MAGIC`] — see the module docs for why
/// the two are treated differently.
pub fn read_log(path: &Path) -> Result<LogScan> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LogScan::default()),
        Err(e) => return Err(e.into()),
    };
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    let mut scan = LogScan::default();
    match buf.get(..SEGMENT_MAGIC.len()) {
        Some(head) if head == SEGMENT_MAGIC => {}
        Some(head) if head.iter().any(|&b| b != 0) => {
            return Err(StoreError::Corrupt(format!(
                "{}: not a {} WAL segment (header {head:02x?}); segments of \
                 an older log format cannot be recovered",
                path.display(),
                String::from_utf8_lossy(SEGMENT_MAGIC),
            )))
        }
        // Empty, short or zeroed: the header never reached the disk.
        _ => {
            scan.discarded = torn_bytes(&buf, 0);
            return Ok(scan);
        }
    }
    let mut at = SEGMENT_MAGIC.len();
    while at + 8 <= buf.len() {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().unwrap());
        if len == 0 {
            // A frame payload is never empty, so this is a zero-filled
            // tail (a tear that never got past the header, or a
            // filesystem that recovered the crashed file's size without
            // its data): end of log. Checked before the CRC — crc32 of
            // an empty payload is 0, so an all-zero frame would
            // otherwise read as CRC-valid and then fail decoding as
            // hard corruption, refusing recovery after an ordinary
            // crash.
            break;
        }
        if at + 8 + len > buf.len() {
            break; // torn tail: truncated frame
        }
        let payload = &buf[at + 8..at + 8 + len];
        if crc32(payload) != crc {
            break; // torn tail: CRC mismatch
        }
        match decode_txn(payload, &mut scan.names, &mut scan.time) {
            Some(ops) => scan.txns.push((Lsn(at as u64), ops)),
            None => {
                return Err(StoreError::Corrupt(format!(
                    "undecodable transaction frame at offset {at} of {} \
                     (CRC valid — not a torn write)",
                    path.display()
                )))
            }
        }
        at += 8 + len;
    }
    scan.valid_len = at as u64;
    scan.discarded = torn_bytes(&buf, at);
    Ok(scan)
}

/// The torn bytes after a valid prefix of `at` bytes: the suffix *minus*
/// trailing zeros, since a zero-filled tail is an ordinary crash signature
/// (see the module docs), not damage worth reporting.
fn torn_bytes(buf: &[u8], at: usize) -> u64 {
    let tail_end = buf.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
    tail_end.saturating_sub(at) as u64
}

/// Fsync a directory, making the entries created or renamed in it durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Seek, SeekFrom};
    use tempfile::TempDir;

    fn writer(path: &Path) -> LogWriter {
        LogWriter::open(path, GroupCommitCfg::default()).unwrap()
    }

    fn processed(msg: u64) -> TxnOp {
        TxnOp::MarkProcessed { msg: MsgId(msg) }
    }

    /// Append `ops` as one transaction; its durable target and LSN.
    fn commit(w: &LogWriter, ops: &[TxnOp]) -> (u64, Lsn) {
        w.append_txn(&ops.iter().collect::<Vec<_>>()).unwrap()
    }

    fn txns(path: &Path) -> Vec<Vec<TxnOp>> {
        let scan = read_log(path).unwrap();
        scan.txns.into_iter().map(|(_, ops)| ops).collect()
    }

    /// Frame `payload` as the writer does, with the bit-at-a-time CRC.
    fn frame(file: &mut Vec<u8>, payload: &[u8]) {
        file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        file.extend_from_slice(&crc32_bytewise(payload).to_le_bytes());
        file.extend_from_slice(payload);
    }

    /// Two transactions with their exact frame payloads. The first holds
    /// one op of every kind, one property of every value type and the
    /// three provenance properties, and uses names both first and again:
    /// `s` names a property, then a slicing. The second reuses names the
    /// first defined, codes its time from the first's, and holds a
    /// provenance property that is no id. Any change to these bytes is a
    /// change of the on-disk format, which needs a new segment header.
    #[rustfmt::skip]
    fn golden() -> Vec<(Vec<TxnOp>, Vec<u8>)> {
        vec![
            (
                vec![
                    TxnOp::Enqueue {
                        queue: "q".into(),
                        msg: MsgId(10),
                        payload: "<a/>".into(),
                        props: vec![
                            ("s".into(), PropValue::Str("x".into())),
                            ("i".into(), PropValue::Int(-42)),
                            ("b".into(), PropValue::Bool(true)),
                            ("d".into(), PropValue::Double(0.1)),
                            ("t".into(), PropValue::DateTime(1_700_000_000_123)),
                            ("u".into(), PropValue::Duration(-500)),
                            ("parentMsg".into(), PropValue::Int(3)),
                            ("rootMsg".into(), PropValue::Int(1)),
                            ("creatingRule".into(), PropValue::Str("r".into())),
                        ]
                        .into(),
                        enqueued_at: 1_700_000_000_000,
                    },
                    processed(9),
                    TxnOp::SliceAdd { slicing: "s".into(), key: PropValue::Int(5), msg: MsgId(10) },
                    TxnOp::SliceReset { slicing: "s".into(), key: PropValue::Str("k".into()) },
                ],
                [
                    &[4][..], // op count
                    &[1], // enqueue
                    &[0, 1, b'q'], // queue: new name 0
                    &[10], // msg: the frame's first id, in full
                    &[0x80, 0xA0, 0xAB, 0xFE, 0xF9, 0x62], // enqueued_at: zigzag distance from 0
                    &[4, b'<', b'a', b'/', b'>'], // payload
                    &[9], // property count
                    &[0, 1, b's', 0, 1, b'x'], // new name 1, Str
                    &[0, 1, b'i', 1, 83], // new name 2, Int -42
                    &[0, 1, b'b', 2, 1], // new name 3, Bool
                    &[0, 1, b'd', 3, 0x9A, 0x99, 0x99, 0x99, 0x99, 0x99, 0xB9, 0x3F], // new name 4, Double
                    &[0, 1, b't', 4, 0xF6, 0x01], // new name 5, DateTime enqueued_at + 123
                    &[0, 1, b'u', 5, 0xE7, 0x07], // new name 6, Duration -500
                    &[0, 9], b"parentMsg", &[6, 13], // new name 7, id 10 - 7
                    &[0, 7], b"rootMsg", &[6, 17], // new name 8, id 10 - 9
                    &[0, 12], b"creatingRule", &[7, 0, 1, b'r'], // new name 9, name: new name 10
                    &[2, 1], // mark processed, id 10 - 1
                    &[3, 2, 1, 10, 0], // slice add: name 1, key Int 5, id 10 + 0
                    &[4, 2, 0, 1, b'k'], // slice reset: name 1, key Str
                ]
                .concat(),
            ),
            (
                vec![
                    TxnOp::Enqueue {
                        queue: "q".into(),
                        msg: MsgId(12),
                        payload: "".into(),
                        props: vec![
                            ("t".into(), PropValue::DateTime(1_700_000_000_248)),
                            ("creatingRule".into(), PropValue::Str("r".into())),
                            ("parentMsg".into(), PropValue::Int(10)),
                            ("rootMsg".into(), PropValue::Int(-1)),
                        ]
                        .into(),
                        enqueued_at: 1_700_000_000_250,
                    },
                    processed(11),
                ],
                vec![
                    2, // op count
                    1, 1, 12, // enqueue: name 0, msg in full
                    0xF4, 0x03, // enqueued_at: the previous enqueue's + 250
                    0, // empty payload
                    4, // property count
                    6, 4, 3, // name 5, DateTime enqueued_at - 2
                    10, 7, 11, // name 9, name 10
                    8, 6, 3, // name 7, id 12 - 2
                    9, 1, 1, // name 8, Int -1: no id
                    2, 1, // mark processed, id 12 - 1
                ],
            ),
        ]
    }

    /// The golden transactions frame, write and read back byte for byte.
    #[test]
    fn golden_wal_format() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        let mut file = SEGMENT_MAGIC.to_vec();
        for (ops, payload) in golden() {
            let lsn = Lsn(file.len() as u64);
            frame(&mut file, &payload);
            assert_eq!(commit(&w, &ops), (file.len() as u64, lsn));
        }
        w.sync_now().unwrap();
        drop(w);
        assert_eq!(std::fs::read(&path).unwrap(), file, "framed bytes moved");
        let scan = read_log(&path).unwrap();
        let read: Vec<Vec<TxnOp>> = scan.txns.into_iter().map(|(_, ops)| ops).collect();
        let ops: Vec<Vec<TxnOp>> = golden().into_iter().map(|(ops, _)| ops).collect();
        assert_eq!((read, scan.discarded), (ops, 0));
        assert_eq!(scan.time, 1_700_000_000_250);
        let names: Vec<&str> = scan.names.iter().map(|n| &**n).collect();
        let provenance = ["parentMsg", "rootMsg", "creatingRule"];
        assert_eq!(names[..7], ["q", "s", "i", "b", "d", "t", "u"]);
        assert_eq!((&names[7..10], names[10]), (&provenance[..], "r"));
    }

    /// Segments of older formats are refused whole, not decoded, and the
    /// writer leaves them untouched: one of the per-op records logged
    /// before the frame format (the old golden `Begin`, `MarkProcessed`
    /// and `Commit` bytes), and a `DEMAQWL2` segment, whose frames logged
    /// lineage apart from enqueues and ids in full.
    #[test]
    #[rustfmt::skip]
    fn older_format_segments_are_refused() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let mut per_op = Vec::new();
        frame(&mut per_op, &[1, 1, 0, 0, 0, 0, 0, 0, 0]);
        frame(&mut per_op, &[5, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]);
        frame(&mut per_op, &[2, 1, 0, 0, 0, 0, 0, 0, 0]);
        let mut wl2 = b"DEMAQWL2".to_vec();
        frame(&mut wl2, &[2, 2, 9, 5, 11, 10, 3, 0, 1, b'r', 0, 1, b'q']);
        for file in [per_op, wl2] {
            std::fs::write(&path, &file).unwrap();
            match read_log(&path) {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains("DEMAQWL3"), "{msg}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
            assert!(LogWriter::open(&path, GroupCommitCfg::default()).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), file, "a refused segment was modified");
        }
    }

    /// A distance that leaves the range of ids or times is corruption: it
    /// is refused, never wrapped.
    #[test]
    #[rustfmt::skip]
    fn distances_out_of_range_are_refused() {
        const MAX: [u8; 10] = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        // zigzag(i64::MAX).
        const FAR: [u8; 10] = [0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        // An enqueue of id 0 whose time is `delta` from the previous one.
        let at = |delta: &[u8]| [&[1, 1, 0, 1, b'q', 0][..], delta, &[0, 0]].concat();
        let frames = [
            // A first id past i64::MAX.
            [&[1, 2][..], &MAX].concat(),
            // An id below zero: 0, then 0 - 1.
            vec![2, 2, 0, 2, 1],
            // An id past i64::MAX: 1, then 1 + i64::MAX.
            [&[2, 2, 1, 2][..], &FAR].concat(),
            // A provenance id below zero.
            vec![1, 1, 0, 1, b'q', 0, 0, 0, 1, 0, 1, b'p', 6, 1],
            // A time past MAX_TIME: 0 + i64::MAX.
            at(&FAR),
        ];
        for payload in frames {
            assert_eq!(decode_txn(&payload, &mut Vec::new(), &mut 0), None, "{payload:?}");
        }
        // From MAX_TIME, + i64::MAX overflows and + MAX_TIME leaves the
        // range; from -MAX_TIME, + MAX_TIME is 0.
        let max_time = [0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert_eq!(decode_txn(&at(&FAR), &mut Vec::new(), &mut { MAX_TIME }), None);
        assert_eq!(decode_txn(&at(&max_time), &mut Vec::new(), &mut { MAX_TIME }), None);
        let mut time = -MAX_TIME;
        assert!(decode_txn(&at(&max_time), &mut Vec::new(), &mut time).is_some());
        assert_eq!(time, 0);
        // The writer refuses what it could not read back, and writes
        // nothing for it.
        let dir = TempDir::new().unwrap();
        let w = writer(&dir.path().join("wal.log"));
        let enqueue = |msg: u64, enqueued_at: i64| TxnOp::Enqueue {
            queue: "q".into(),
            msg: MsgId(msg),
            payload: "".into(),
            props: Vec::new().into(),
            enqueued_at,
        };
        for op in [enqueue(1 << 63, 0), enqueue(1, MAX_TIME + 1), enqueue(1, i64::MIN)] {
            assert!(matches!(w.append_txn(&[&op]), Err(StoreError::Invalid(_))), "{op:?}");
        }
        assert_eq!(w.end_lsn(), Lsn(SEGMENT_MAGIC.len() as u64));
        // The extremes it accepts read back.
        let extremes = vec![enqueue(i64::MAX as u64, MAX_TIME), enqueue(0, -MAX_TIME)];
        commit(&w, &extremes);
        w.sync_now().unwrap();
        assert_eq!(txns(&dir.path().join("wal.log")), [extremes]);
    }

    /// A crash before the header reached the disk leaves an empty, short
    /// or zeroed header: an empty segment, which the writer can reuse.
    #[test]
    fn missing_header_reads_as_an_empty_segment() {
        let dir = TempDir::new().unwrap();
        for (i, (bytes, torn)) in [(&b""[..], 0), (b"DEMAQ", 5), (&[0; 4096], 0)]
            .into_iter()
            .enumerate()
        {
            let path = dir.path().join(format!("wal-{i}.log"));
            std::fs::write(&path, bytes).unwrap();
            let scan = read_log(&path).unwrap();
            assert!(scan.txns.is_empty());
            assert_eq!((scan.valid_len, scan.discarded), (0, torn), "{bytes:?}");
            let w = writer(&path);
            commit(&w, &[processed(1)]);
            w.sync_now().unwrap();
            drop(w);
            assert_eq!(txns(&path), vec![vec![processed(1)]]);
            assert!(std::fs::read(&path).unwrap().starts_with(SEGMENT_MAGIC));
        }
    }

    /// Opening a segment and appending nothing writes nothing and syncs
    /// nothing: the header waits for the first frame.
    #[test]
    fn the_header_goes_out_with_the_first_frame() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert_eq!(w.sync_now().unwrap(), 0);
        assert_eq!(w.durable_offset(), w.end_lsn().0);
        let (target, lsn) = commit(&w, &[processed(1)]);
        assert_eq!(lsn, Lsn(SEGMENT_MAGIC.len() as u64));
        w.sync_to(target).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), target);
    }

    #[test]
    fn torn_tail_is_ignored_and_reported() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        for (ops, _) in golden() {
            commit(&w, &ops);
        }
        w.sync_now().unwrap();
        let clean_len = w.end_lsn().0;
        drop(w);
        // Garbage at the append offset (inside the preallocated zeros),
        // simulating a torn write where the writer actually writes.
        let mut f = OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(clean_len)).unwrap();
        f.write_all(&[200, 1, 0, 0, 77, 77]).unwrap();
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.txns.len(), golden().len());
        assert_eq!(scan.valid_len, clean_len);
        // Only the torn bytes count — the zero padding after them doesn't.
        assert_eq!(scan.discarded, 6);
    }

    /// A zero-filled tail — what a journaling filesystem can leave behind
    /// when it recovers a crashed file's size but not its data — must scan
    /// as an ordinary torn tail with nothing discarded, not as hard
    /// corruption. (An all-zero frame header is `len == 0, crc == 0`, and
    /// crc32 of the empty payload *is* 0: without the explicit zero-length
    /// check the scan would call it CRC-valid, fail to decode it, and
    /// refuse recovery after an ordinary crash.)
    #[test]
    fn zero_filled_tail_is_a_clean_tail() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        commit(&w, &[processed(1)]);
        w.sync_now().unwrap();
        let clean_len = w.end_lsn().0;
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0u8; 4096]).unwrap();
        drop(f);
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.txns.len(), 1);
        assert_eq!(scan.valid_len, clean_len);
        assert_eq!(scan.discarded, 0, "a zero tail must not read as torn");
    }

    /// The torn-tail regression: frames appended *after* reopening over a
    /// torn tail must be readable. The old `LogWriter::open` started at
    /// `metadata().len()`, placing them beyond the garbage where the scan
    /// never reaches. The reopened writer also names through the table
    /// the scan rebuilt: the name is not defined twice.
    #[test]
    fn reopen_over_torn_tail_keeps_later_appends_readable() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let reset = |n: i64| TxnOp::SliceReset {
            slicing: "s".into(),
            key: PropValue::Int(n),
        };
        let clean_len;
        {
            let w = writer(&path);
            commit(&w, &[reset(1)]);
            w.sync_now().unwrap();
            clean_len = w.end_lsn().0;
        }
        // Crash mid-frame: half a frame of garbage at the append offset.
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(clean_len)).unwrap();
            f.write_all(&[90, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        // Reopen appends a fresh committed frame…
        {
            let w = writer(&path);
            commit(&w, &[reset(2)]);
            w.sync_now().unwrap();
        }
        // …and recovery must see it.
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.names, [Name::from("s")]);
        let read: Vec<Vec<TxnOp>> = scan.txns.into_iter().map(|(_, ops)| ops).collect();
        assert_eq!(
            read,
            vec![vec![reset(1)], vec![reset(2)]],
            "the post-reopen commit is lost behind the torn tail"
        );
    }

    #[test]
    fn corrupted_crc_stops_scan() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        for (ops, _) in golden() {
            commit(&w, &ops);
        }
        w.sync_now().unwrap();
        let clean_len = w.end_lsn().0;
        drop(w);
        // Flip a byte in the middle of the valid prefix: scan stops at
        // the damaged frame and reports the damaged suffix (up to where
        // the real frames end — the zero padding beyond is not damage).
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = (clean_len / 2) as usize;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_log(&path).unwrap();
        assert!(scan.txns.len() < golden().len());
        assert_eq!(
            scan.valid_len + scan.discarded,
            clean_len,
            "discarded must account for the whole damaged suffix"
        );
        assert!(scan.discarded > 0);
    }

    /// The recovery boundary: CRC-valid but undecodable is *hard
    /// corruption* (a torn write can't produce it), not a clean tail.
    #[test]
    fn crc_valid_undecodable_frame_is_hard_corruption() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        commit(&w, &[processed(1)]);
        w.sync_now().unwrap();
        let clean_len = w.end_lsn().0;
        drop(w);
        // A frame with a bogus op tag but a *correct* CRC, at the append
        // offset where a real (buggy) writer would put it.
        let mut bad = Vec::new();
        frame(&mut bad, &[1, 0xEE, 1, 2, 3]);
        let mut f = OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(clean_len)).unwrap();
        f.write_all(&bad).unwrap();
        drop(f);
        match read_log(&path) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("undecodable"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// Counts and lengths as large as a varint holds run out of frame:
    /// nothing is allocated from them up front.
    #[test]
    #[rustfmt::skip]
    fn huge_counts_and_lengths_run_out_of_frame() {
        const MAX: [u8; 10] = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let ops_count = [&MAX[..], &[2, 1]].concat();
        let props_count = [&[1, 1, 0, 1, b'q', 1, 0, 0][..], &MAX].concat();
        let payload_len = [&[1, 1, 0, 1, b'q', 1, 0][..], &MAX, b"xy"].concat();
        let name_len = [&[1, 3, 0][..], &MAX].concat();
        for payload in [ops_count, props_count, payload_len, name_len] {
            assert_eq!(decode_txn(&payload, &mut Vec::new(), &mut 0), None, "{payload:?}");
        }
        assert_eq!(decode_txn(&[1, 2, 1, 9], &mut Vec::new(), &mut 0), None, "trailing byte");
        assert_eq!(decode_txn(&[1, 4, 1, 1, 2], &mut Vec::new(), &mut 0), None, "undefined name");
    }

    #[test]
    fn lsn_monotonic_and_reopen_appends() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let l1;
        {
            let w = writer(&path);
            l1 = commit(&w, &[processed(1)]).1;
            w.sync_now().unwrap();
        }
        let w = writer(&path);
        let l2 = commit(&w, &[processed(2)]).1;
        assert!(l2 > l1);
        w.sync_now().unwrap();
        let lsns: Vec<Lsn> = read_log(&path).unwrap().txns.iter().map(|t| t.0).collect();
        assert_eq!(lsns, [l1, l2]);
    }

    /// CRC-32 one bit at a time, straight from the reflected IEEE
    /// polynomial — the reference the table-driven [`crc32`] must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        // Standard test vector: CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let data: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(167) ^ 0x5A) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(&data), "split {split}");
        }
    }

    #[test]
    fn concurrent_group_commits_all_become_durable() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = std::sync::Arc::new(writer(&path));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let w = std::sync::Arc::clone(&w);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        let (target, _) = commit(&w, &[processed(t * 1000 + i)]);
                        w.sync_to(target).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(w);
        assert_eq!(txns(&path).len(), 200);
    }

    #[test]
    fn sync_to_past_lsn_returns_without_new_sync() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        let (target, _) = w.append_txn(&[]).unwrap();
        w.sync_to(target).unwrap();
        // Already durable: must not block or error.
        w.sync_to(target).unwrap();
        w.sync_to(0).unwrap();
    }

    /// A barrier has nothing to wait for: even when the adaptive window
    /// expects a large batch, a lone `sync_now` syncs at once — and leaves
    /// the window's concurrency estimate alone.
    #[test]
    fn barrier_never_waits_in_the_batching_window() {
        let dir = TempDir::new().unwrap();
        let cfg = GroupCommitCfg {
            max_batch: 64,
            max_wait: Duration::from_secs(5),
        };
        let w = LogWriter::open(&dir.path().join("wal.log"), cfg).unwrap();
        // One waiting committer finds eight commits pending: the window
        // now expects batches of eight.
        let mut target = 0;
        for _ in 0..8 {
            target = w.append_txn(&[]).unwrap().0;
        }
        w.sync_to(target).unwrap();
        assert_eq!(w.sync_state.lock().prev_batch, 8);

        w.append_txn(&[]).unwrap();
        w.append_txn(&[]).unwrap();
        assert_eq!(w.pending_commits(), 2);
        let started = Instant::now();
        assert_eq!(w.sync_now().unwrap(), 2, "the barrier's own sync covers both");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "barrier slept in the batching window: {:?}",
            started.elapsed()
        );
        assert_eq!(w.pending_commits(), 0);
        assert_eq!(w.durable_offset(), w.end_lsn().0);
        assert_eq!(w.sync_state.lock().prev_batch, 8);
        // Nothing new: no sync to lead.
        assert_eq!(w.sync_now().unwrap(), 0);
    }
}
