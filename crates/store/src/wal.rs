//! Write-ahead log with logical redo records and group commit.
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
//! Record framing: `[len u32][crc32 u32][payload]`. A record payload is
//! never empty (encoding always emits at least the tag byte), so a frame
//! header of `len == 0` can only be a zero-filled tail — the scan treats
//! it as end-of-log, never as a record.
//!
//! # Tail semantics (the recovery boundary)
//!
//! [`read_log`] distinguishes two kinds of damage:
//!
//! * **Torn tail** — a truncated frame, a CRC mismatch, or a zero-length
//!   frame header. These are the expected signatures of a crash
//!   mid-`write`: the scan stops cleanly at the last valid record and
//!   reports the discarded byte count ([`LogScan::discarded`], which
//!   excludes trailing zeros — journaling filesystems can legitimately
//!   recover a crashed file with its size extended but the data
//!   unwritten, i.e. a zero tail). The zero-frame check runs *before*
//!   the CRC check: `crc32` of an empty payload is 0, so an all-zero
//!   frame would otherwise read as CRC-valid and then fail decoding as
//!   hard corruption, turning an ordinary crash into a refused recovery.
//!   Everything before the tear is trusted.
//! * **Hard corruption** — a frame whose CRC verifies but whose payload
//!   does not decode. A CRC-valid-but-undecodable record cannot be
//!   produced by a torn write (the CRC covers the whole payload), so it
//!   means the file was damaged *in the middle* or written by a
//!   different/buggy encoder — recovery must not guess past it and
//!   [`read_log`] returns [`StoreError::Corrupt`].
//!
//! [`LogWriter::open`] truncates the file to the valid prefix before
//! appending. Without that truncation, post-crash appends would land
//! *after* the torn garbage and every later committed record would be
//! unreachable to the next recovery scan (which stops at the tear).
//!
//! # Group commit
//!
//! Committers append their records under the append mutex, then make them
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
//! syncs the store directory ([`sync_dir`]) before any commit it covers
//! counts as durable; otherwise a power cut could lose the whole segment.

use crate::error::{Result, StoreError};
use crate::txn::TxnOp;
use crate::types::{Lsn, MsgId, PayloadBytes, PropValue, TxnId};
use demaq_obs::{Counter, Histogram, Registry};
use parking_lot::{Condvar, Mutex};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    Begin {
        txn: TxnId,
    },
    Commit {
        txn: TxnId,
    },
    Abort {
        txn: TxnId,
    },
    /// One buffered operation of a transaction — exactly what the
    /// transaction held in its [`TxnOp`] list, logged as is.
    Op {
        txn: TxnId,
        op: TxnOp,
    },
    /// Fuzzy checkpoint marker: state as of this LSN lives in the named
    /// snapshot file.
    Checkpoint {
        snapshot: String,
    },
}

const T_BEGIN: u8 = 1;
const T_COMMIT: u8 = 2;
const T_ABORT: u8 = 3;
const T_ENQUEUE: u8 = 4;
const T_PROCESSED: u8 = 5;
const T_SLICE_ADD: u8 = 6;
const T_SLICE_RESET: u8 = 7;
const T_CHECKPOINT: u8 = 8;
const T_LINEAGE: u8 = 9;

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

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(buf.get(*at..*at + 8)?.try_into().ok()?);
    *at += 8;
    Some(v)
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_i64(buf: &[u8], at: &mut usize) -> Option<i64> {
    let v = i64::from_le_bytes(buf.get(*at..*at + 8)?.try_into().ok()?);
    *at += 8;
    Some(v)
}

/// The tag and owning transaction that open every record but a checkpoint.
fn put_head(out: &mut Vec<u8>, tag: u8, txn: TxnId) {
    out.push(tag);
    put_u64(out, txn.0);
}

/// Serialize one buffered op as the payload of its record.
fn put_op(out: &mut Vec<u8>, txn: TxnId, op: &TxnOp) {
    match op {
        TxnOp::Enqueue {
            queue,
            msg,
            payload,
            props,
            enqueued_at,
        } => {
            put_head(out, T_ENQUEUE, txn);
            put_str(out, queue);
            put_u64(out, msg.0);
            put_i64(out, *enqueued_at);
            put_str(out, payload);
            out.extend_from_slice(&(props.len() as u32).to_le_bytes());
            for (name, value) in props {
                put_str(out, name);
                value.encode(out);
            }
        }
        TxnOp::MarkProcessed { msg } => {
            put_head(out, T_PROCESSED, txn);
            put_u64(out, msg.0);
        }
        TxnOp::SliceAdd { slicing, key, msg } => {
            put_head(out, T_SLICE_ADD, txn);
            put_str(out, slicing);
            key.encode(out);
            put_u64(out, msg.0);
        }
        TxnOp::SliceReset { slicing, key } => {
            put_head(out, T_SLICE_RESET, txn);
            put_str(out, slicing);
            key.encode(out);
        }
        TxnOp::Lineage {
            msg,
            parent,
            root,
            rule,
            queue,
        } => {
            put_head(out, T_LINEAGE, txn);
            put_u64(out, msg.0);
            put_u64(out, parent.0);
            put_u64(out, root.0);
            put_str(out, rule);
            put_str(out, queue);
        }
    }
}

/// Deserialize the fields of an op record whose tag and transaction have
/// been read.
fn get_op(tag: u8, buf: &[u8], at: &mut usize) -> Option<TxnOp> {
    Some(match tag {
        T_ENQUEUE => {
            let queue = get_str(buf, at)?;
            let msg = MsgId(get_u64(buf, at)?);
            let enqueued_at = get_i64(buf, at)?;
            // `get_str` validated UTF-8; the handle carries the proof.
            let payload = PayloadBytes::from(get_str(buf, at)?);
            let n = u32::from_le_bytes(buf.get(*at..*at + 4)?.try_into().ok()?) as usize;
            *at += 4;
            let mut props = Vec::with_capacity(n.min(buf.len()));
            for _ in 0..n {
                let name = get_str(buf, at)?;
                let value = PropValue::decode(buf, at)?;
                props.push((name, value));
            }
            TxnOp::Enqueue {
                queue,
                msg,
                payload,
                props,
                enqueued_at,
            }
        }
        T_PROCESSED => TxnOp::MarkProcessed {
            msg: MsgId(get_u64(buf, at)?),
        },
        T_SLICE_ADD => TxnOp::SliceAdd {
            slicing: get_str(buf, at)?,
            key: PropValue::decode(buf, at)?,
            msg: MsgId(get_u64(buf, at)?),
        },
        T_SLICE_RESET => TxnOp::SliceReset {
            slicing: get_str(buf, at)?,
            key: PropValue::decode(buf, at)?,
        },
        T_LINEAGE => TxnOp::Lineage {
            msg: MsgId(get_u64(buf, at)?),
            parent: MsgId(get_u64(buf, at)?),
            root: MsgId(get_u64(buf, at)?),
            rule: get_str(buf, at)?,
            queue: get_str(buf, at)?,
        },
        _ => return None,
    })
}

/// Append one framed record to `out` in place: reserve the
/// `[len][crc32]` header, encode the payload behind it, fill the header.
fn put_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    encode(out);
    let payload = &out[start + 8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

impl LogRecord {
    /// Serialize the record payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Begin { txn } => put_head(out, T_BEGIN, *txn),
            LogRecord::Commit { txn } => put_head(out, T_COMMIT, *txn),
            LogRecord::Abort { txn } => put_head(out, T_ABORT, *txn),
            LogRecord::Op { txn, op } => put_op(out, *txn, op),
            LogRecord::Checkpoint { snapshot } => {
                out.push(T_CHECKPOINT);
                put_str(out, snapshot);
            }
        }
    }

    /// Deserialize a record payload.
    pub fn decode(buf: &[u8]) -> Option<LogRecord> {
        let mut at = 1usize;
        let tag = *buf.first()?;
        let rec = if tag == T_CHECKPOINT {
            LogRecord::Checkpoint {
                snapshot: get_str(buf, &mut at)?,
            }
        } else {
            let txn = TxnId(get_u64(buf, &mut at)?);
            match tag {
                T_BEGIN => LogRecord::Begin { txn },
                T_COMMIT => LogRecord::Commit { txn },
                T_ABORT => LogRecord::Abort { txn },
                _ => LogRecord::Op {
                    txn,
                    op: get_op(tag, buf, &mut at)?,
                },
            }
        };
        if at != buf.len() {
            return None;
        }
        Some(rec)
    }

    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Op { txn, .. } => Some(*txn),
            LogRecord::Checkpoint { .. } => None,
        }
    }
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
    /// Next byte offset (== LSN of the next record).
    offset: u64,
    /// Bytes written since open (stats for the recovery bench).
    bytes_logged: u64,
    /// Crash-injection failpoint (`DEMAQ_WAL_CRASH_AFTER_BYTES`): byte
    /// budget left before the writer tears a record mid-write and aborts
    /// the process. Test-harness only; `None` in normal operation.
    crash_budget: Option<u64>,
    /// The frames of the append in progress, built in place; empty between
    /// appends, its allocation reused.
    frames: Vec<u8>,
}

/// Frame-buffer capacity kept between appends: one huge transaction does
/// not pin its size for the life of the segment.
const FRAMES_KEPT: usize = 1 << 20;

struct SyncState {
    /// Bytes `[0, durable)` of the file are known fsynced (the prefix found
    /// at open counts: every later sync covers it anyway).
    durable: u64,
    /// A leader is currently flushing/syncing.
    leader_active: bool,
    /// Commit records appended since the last sync consumed the batch —
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
    /// appends are contiguous with the last valid record.
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
        let crash_budget = std::env::var("DEMAQ_WAL_CRASH_AFTER_BYTES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        Ok(LogWriter {
            inner: Mutex::new(WriterInner {
                file: BufWriter::new(file),
                offset: scan.valid_len,
                bytes_logged: 0,
                crash_budget,
                frames: Vec::new(),
            }),
            sync_handle,
            cfg,
            sync_state: Mutex::new(SyncState {
                durable: scan.valid_len,
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

    /// Append a record; returns its LSN. Does not sync.
    pub fn append(&self, rec: &LogRecord) -> Result<Lsn> {
        let mut inner = self.inner.lock();
        let lsn = Lsn(inner.offset);
        put_frame(&mut inner.frames, |out| rec.encode_into(out));
        self.write_frames(&mut inner)?;
        Ok(lsn)
    }

    /// Append one transaction — `Begin`, a record per op, `Commit` — under
    /// one hold of the append mutex, and register the commit with the
    /// group-commit coordinator. Returns the durable target (the commit is
    /// durable once a sync covers it, see [`LogWriter::sync_to`]) and the
    /// LSN of each lineage op's record.
    pub fn append_txn(&self, txn: TxnId, ops: &[&TxnOp]) -> Result<(u64, Vec<(MsgId, Lsn)>)> {
        let mut lineage = Vec::new();
        let mut inner = self.inner.lock();
        let base = inner.offset;
        let frames = &mut inner.frames;
        put_frame(frames, |out| put_head(out, T_BEGIN, txn));
        for op in ops {
            if let TxnOp::Lineage { msg, .. } = op {
                lineage.push((*msg, Lsn(base + frames.len() as u64)));
            }
            put_frame(frames, |out| put_op(out, txn, op));
        }
        put_frame(frames, |out| put_head(out, T_COMMIT, txn));
        self.write_frames(&mut inner)?;
        let target = inner.offset;
        drop(inner);
        self.sync_state.lock().pending_commits += 1;
        // Wake only a leader sitting in its batching window — durability
        // waiters on `sync_cv` don't care about new arrivals.
        self.window_cv.notify_one();
        Ok((target, lineage))
    }

    /// Write the frames built in `inner.frames` and empty the buffer.
    fn write_frames(&self, inner: &mut WriterInner) -> Result<()> {
        let WriterInner {
            file,
            offset,
            bytes_logged,
            crash_budget,
            frames,
        } = inner;
        if let Some(budget) = crash_budget {
            // The budget is spent record by record, as if each were its
            // own disk write.
            let mut at = 0;
            while at < frames.len() {
                let header = frames[at..at + 4].try_into().expect("4-byte slice");
                let len = 8 + u32::from_le_bytes(header) as usize;
                if len as u64 > *budget {
                    // Failpoint: die like a power cut between two disk
                    // writes. Nothing past the last fsync survives
                    // (buffered and merely written records are dropped),
                    // then a torn prefix of this record. The sync state
                    // stays locked until the abort, so no in-flight sync
                    // can publish — and its committer ack — bytes this
                    // truncation removes.
                    let st = self.sync_state.lock();
                    let mut file: &File = file.get_ref();
                    let _ = file.set_len(st.durable);
                    let _ = file.write_all(&frames[at..at + *budget as usize]);
                    std::process::abort();
                }
                *budget -= len as u64;
                at += len;
            }
        }
        let written = file.write_all(frames);
        if written.is_ok() {
            *offset += frames.len() as u64;
            *bytes_logged += frames.len() as u64;
        }
        frames.clear();
        frames.shrink_to(FRAMES_KEPT);
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

    /// Commit records appended that no sync has covered yet.
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

/// Result of scanning a log file: the valid records plus where the valid
/// prefix ends (for tail truncation and discard reporting).
#[derive(Debug, Default)]
pub struct LogScan {
    pub records: Vec<(Lsn, LogRecord)>,
    /// Byte length of the valid prefix — the offset right after the last
    /// valid record. [`LogWriter::open`] truncates the file here.
    pub valid_len: u64,
    /// Trailing bytes discarded as a torn tail — the suffix after
    /// `valid_len` up to the last non-zero byte. A zero-filled tail does
    /// not count; zero for a clean file.
    pub discarded: u64,
}

/// Read every valid record from a log file.
///
/// A truncated frame or CRC mismatch is a *torn tail*: the scan stops
/// cleanly and reports the discarded suffix length. A frame whose CRC
/// verifies but whose payload does not decode is *hard corruption* (a torn
/// write cannot produce it) and yields [`StoreError::Corrupt`] — see the
/// module docs for why the two are treated differently.
pub fn read_log(path: &Path) -> Result<LogScan> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LogScan::default()),
        Err(e) => return Err(e.into()),
    };
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    let mut out = Vec::new();
    let mut at = 0usize;
    while at + 8 <= buf.len() {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().unwrap());
        if len == 0 {
            // A record payload is never empty, so this is a zero-filled
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
        match LogRecord::decode(payload) {
            Some(rec) => out.push((Lsn(at as u64), rec)),
            None => {
                return Err(StoreError::Corrupt(format!(
                    "undecodable log record at offset {at} (CRC valid — not a torn write)"
                )))
            }
        }
        at += 8 + len;
    }
    // Torn bytes are the suffix after the valid prefix *minus* trailing
    // zeros: a zero-filled tail is an ordinary crash signature (see the
    // module docs), not damage worth reporting.
    let tail_end = buf
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |p| p + 1)
        .max(at);
    Ok(LogScan {
        records: out,
        valid_len: at as u64,
        discarded: (tail_end - at) as u64,
    })
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

    fn op(op: TxnOp) -> LogRecord {
        LogRecord::Op { txn: TxnId(1), op }
    }

    /// One record of every kind — transaction 1's `Begin`, ops and
    /// `Commit`, then an `Abort` and a checkpoint marker — each with its
    /// exact payload bytes, and one property of every value type among
    /// them. Segments written by older builds must recover unchanged, so
    /// these bytes may never move.
    #[rustfmt::skip]
    fn golden() -> Vec<(LogRecord, Vec<u8>)> {
        vec![
            (LogRecord::Begin { txn: TxnId(1) }, vec![1, 1, 0, 0, 0, 0, 0, 0, 0]),
            (
                op(TxnOp::Enqueue {
                    queue: "q".into(),
                    msg: MsgId(10),
                    payload: "<a/>".into(),
                    props: vec![
                        ("s".into(), PropValue::Str("x".into())),
                        ("i".into(), PropValue::Int(-42)),
                        ("b".into(), PropValue::Bool(true)),
                        ("d".into(), PropValue::Double(0.1)),
                        ("t".into(), PropValue::DateTime(1_700_000_000_000)),
                        ("u".into(), PropValue::Duration(-500)),
                    ],
                    enqueued_at: 7,
                }),
                vec![
                    4,
                    1, 0, 0, 0, 0, 0, 0, 0, // txn
                    1, 0, 0, 0, b'q', // queue
                    10, 0, 0, 0, 0, 0, 0, 0, // msg
                    7, 0, 0, 0, 0, 0, 0, 0, // enqueued_at
                    4, 0, 0, 0, b'<', b'a', b'/', b'>', // payload
                    6, 0, 0, 0, // property count
                    1, 0, 0, 0, b's', 0, 1, 0, 0, 0, b'x',
                    1, 0, 0, 0, b'i', 1, 3, 0, 0, 0, b'-', b'4', b'2',
                    1, 0, 0, 0, b'b', 2, 4, 0, 0, 0, b't', b'r', b'u', b'e',
                    1, 0, 0, 0, b'd', 3, 3, 0, 0, 0, b'0', b'.', b'1',
                    1, 0, 0, 0, b't', 4, 13, 0, 0, 0,
                    b'1', b'7', b'0', b'0', b'0', b'0', b'0', b'0', b'0', b'0', b'0', b'0', b'0',
                    1, 0, 0, 0, b'u', 5, 4, 0, 0, 0, b'-', b'5', b'0', b'0',
                ],
            ),
            (
                op(TxnOp::MarkProcessed { msg: MsgId(9) }),
                vec![5, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0],
            ),
            (
                op(TxnOp::SliceAdd { slicing: "s".into(), key: PropValue::Int(5), msg: MsgId(10) }),
                vec![
                    6,
                    1, 0, 0, 0, 0, 0, 0, 0, // txn
                    1, 0, 0, 0, b's', // slicing
                    1, 1, 0, 0, 0, b'5', // key
                    10, 0, 0, 0, 0, 0, 0, 0, // msg
                ],
            ),
            (
                op(TxnOp::SliceReset { slicing: "s".into(), key: PropValue::Str("k".into()) }),
                vec![
                    7,
                    1, 0, 0, 0, 0, 0, 0, 0, // txn
                    1, 0, 0, 0, b's', // slicing
                    0, 1, 0, 0, 0, b'k', // key
                ],
            ),
            (
                op(TxnOp::Lineage {
                    msg: MsgId(11),
                    parent: MsgId(10),
                    root: MsgId(3),
                    rule: "r".into(),
                    queue: "q".into(),
                }),
                vec![
                    9,
                    1, 0, 0, 0, 0, 0, 0, 0, // txn
                    11, 0, 0, 0, 0, 0, 0, 0, // msg
                    10, 0, 0, 0, 0, 0, 0, 0, // parent
                    3, 0, 0, 0, 0, 0, 0, 0, // root
                    1, 0, 0, 0, b'r', // rule
                    1, 0, 0, 0, b'q', // queue
                ],
            ),
            (LogRecord::Commit { txn: TxnId(1) }, vec![2, 1, 0, 0, 0, 0, 0, 0, 0]),
            (LogRecord::Abort { txn: TxnId(2) }, vec![3, 2, 0, 0, 0, 0, 0, 0, 0]),
            (LogRecord::Checkpoint { snapshot: "c".into() }, vec![8, 1, 0, 0, 0, b'c']),
        ]
    }

    fn sample_records() -> Vec<LogRecord> {
        golden().into_iter().map(|(rec, _)| rec).collect()
    }

    #[test]
    fn torn_tail_is_ignored_and_reported() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        for rec in sample_records() {
            w.append(&rec).unwrap();
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
        assert_eq!(scan.records.len(), sample_records().len());
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
        w.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        w.append(&LogRecord::Commit { txn: TxnId(1) }).unwrap();
        w.sync_now().unwrap();
        let clean_len = w.end_lsn().0;
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0u8; 4096]).unwrap();
        drop(f);
        let scan = read_log(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len, clean_len);
        assert_eq!(scan.discarded, 0, "a zero tail must not read as torn");
    }

    /// The torn-tail regression: records appended *after* reopening over a
    /// torn tail must be readable. The old `LogWriter::open` started at
    /// `metadata().len()`, placing them beyond the garbage where the scan
    /// never reaches.
    #[test]
    fn reopen_over_torn_tail_keeps_later_appends_readable() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let clean_len;
        {
            let w = writer(&path);
            w.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
            w.append(&LogRecord::Commit { txn: TxnId(1) }).unwrap();
            w.sync_now().unwrap();
            clean_len = w.end_lsn().0;
        }
        // Crash mid-record: half a frame of garbage at the append offset.
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(clean_len)).unwrap();
            f.write_all(&[90, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        // Reopen appends a fresh committed record…
        {
            let w = writer(&path);
            w.append(&LogRecord::Begin { txn: TxnId(2) }).unwrap();
            w.append(&LogRecord::Commit { txn: TxnId(2) }).unwrap();
            w.sync_now().unwrap();
        }
        // …and recovery must see it.
        let recs: Vec<LogRecord> = read_log(&path)
            .unwrap()
            .records
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(
            recs,
            vec![
                LogRecord::Begin { txn: TxnId(1) },
                LogRecord::Commit { txn: TxnId(1) },
                LogRecord::Begin { txn: TxnId(2) },
                LogRecord::Commit { txn: TxnId(2) },
            ],
            "the post-reopen commit is lost behind the torn tail"
        );
    }

    #[test]
    fn corrupted_crc_stops_scan() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        w.sync_now().unwrap();
        let clean_len = w.end_lsn().0;
        drop(w);
        // Flip a byte in the middle of the valid prefix: scan stops at
        // the damaged record and reports the damaged suffix (up to where
        // the real records end — the zero padding beyond is not damage).
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = (clean_len / 2) as usize;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_log(&path).unwrap();
        assert!(scan.records.len() < sample_records().len());
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
    fn crc_valid_undecodable_record_is_hard_corruption() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        w.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        w.sync_now().unwrap();
        let clean_len = w.end_lsn().0;
        drop(w);
        // A frame with a bogus record tag but a *correct* CRC, at the
        // append offset where a real (buggy) writer would put it.
        let payload = [0xEEu8, 1, 2, 3];
        let mut f = OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(clean_len)).unwrap();
        f.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        f.write_all(&crc32(&payload).to_le_bytes()).unwrap();
        f.write_all(&payload).unwrap();
        drop(f);
        match read_log(&path) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("undecodable"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn lsn_monotonic_and_reopen_appends() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let l1;
        {
            let w = writer(&path);
            l1 = w.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
            w.sync_now().unwrap();
        }
        let w = writer(&path);
        let l2 = w.append(&LogRecord::Commit { txn: TxnId(1) }).unwrap();
        assert!(l2 > l1);
        w.sync_now().unwrap();
        assert_eq!(read_log(&path).unwrap().records.len(), 2);
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

    /// The golden bytes encode, decode, frame and read back exactly — the
    /// transaction through `append_txn`, the rest one record at a time.
    #[test]
    fn golden_wal_format() {
        let golden = golden();
        let mut file = Vec::new();
        let (mut lineage_lsn, mut commit_end) = (None, 0);
        for (rec, bytes) in &golden {
            assert_eq!(&rec.encode(), bytes, "{rec:?}");
            assert_eq!(LogRecord::decode(bytes).as_ref(), Some(rec));
            if let LogRecord::Op {
                op: TxnOp::Lineage { msg, .. },
                ..
            } = rec
            {
                lineage_lsn = Some((*msg, Lsn(file.len() as u64)));
            }
            file.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            file.extend_from_slice(&crc32_bytewise(bytes).to_le_bytes());
            file.extend_from_slice(bytes);
            if let LogRecord::Commit { .. } = rec {
                commit_end = file.len() as u64;
            }
        }
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        let ops: Vec<&TxnOp> = golden
            .iter()
            .filter_map(|(rec, _)| match rec {
                LogRecord::Op { op, .. } => Some(op),
                _ => None,
            })
            .collect();
        let (target, lineage) = w.append_txn(TxnId(1), &ops).unwrap();
        assert_eq!((target, lineage), (commit_end, Vec::from_iter(lineage_lsn)));
        for (rec, _) in &golden[golden.len() - 2..] {
            w.append(rec).unwrap();
        }
        w.sync_now().unwrap();
        drop(w);
        assert_eq!(std::fs::read(&path).unwrap(), file, "framed bytes moved");
        let scan = read_log(&path).unwrap();
        let read: Vec<LogRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!((read, scan.discarded), (sample_records(), 0));
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
                        let (target, _) = w.append_txn(TxnId(t * 1000 + i), &[]).unwrap();
                        w.sync_to(target).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(w);
        let commits = read_log(&path)
            .unwrap()
            .records
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Commit { .. }))
            .count();
        assert_eq!(commits, 200);
    }

    #[test]
    fn sync_to_past_lsn_returns_without_new_sync() {
        let dir = TempDir::new().unwrap();
        let path = dir.path().join("wal.log");
        let w = writer(&path);
        let (target, _) = w.append_txn(TxnId(1), &[]).unwrap();
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
        for t in 0..8 {
            target = w.append_txn(TxnId(t), &[]).unwrap().0;
        }
        w.sync_to(target).unwrap();
        assert_eq!(w.sync_state.lock().prev_batch, 8);

        w.append_txn(TxnId(8), &[]).unwrap();
        w.append_txn(TxnId(9), &[]).unwrap();
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
