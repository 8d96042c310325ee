//! Crash recovery: snapshot load + committed-transaction redo.
//!
//! Steps (paper Sec. 4.1 — recoverable queues on an append-only store):
//!
//! 1. Load the latest checkpoint snapshot (if any). It is self-contained:
//!    every persistent message comes with its payload, and it names the
//!    first WAL segment whose frames post-date it.
//! 2. Replay the surviving WAL segments in one pass, in log order. A
//!    transaction reaches the log only at commit, as one frame, so every
//!    valid frame is a committed transaction; uncommitted work never
//!    reached the log, which is the whole of undo in a deferred-write
//!    store.
//! 3. The caller then runs the retention GC, which re-derives any deletions
//!    the crash forgot — deletions are never logged.

use crate::checkpoint::Snapshot;
use crate::error::Result;
use crate::store::{ensure_queue, Logical};
use crate::txn::TxnOp;
use crate::wal::read_log;
use demaq_obs::Obs;
use std::path::Path;

/// Outcome of recovery.
pub struct Recovered {
    pub logical: Logical,
    pub next_msg: u64,
    /// Index of the WAL segment to continue appending to.
    pub wal_index: u64,
}

/// List wal segment indexes present in `dir`, ascending.
fn wal_segments(dir: &Path) -> Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix("wal-") {
            if let Some(idx) = rest.strip_suffix(".log") {
                if let Ok(i) = idx.parse::<u64>() {
                    out.push(i);
                }
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Run recovery against the files in `dir`. Torn WAL tails are surfaced
/// through `obs` (a `wal.torn_tail` trace event and the
/// `demaq_store_wal_torn_bytes_total` counter) rather than dropped
/// silently.
pub fn recover(dir: &Path, obs: &Obs) -> Result<Recovered> {
    let mut snap = Snapshot::read_from(&dir.join("ckpt.snap"))?.unwrap_or_default();

    let mut logical = Logical::default();
    logical.slices.lookups = Some(obs.registry.counter("demaq_store_slice_lookups_total"));
    let mut next_msg = snap.next_msg.max(1);

    // Rebuild from the snapshot.
    for q in &snap.queues {
        let qs = ensure_queue(&mut logical.queues, &q.name);
        qs.info.mode = if q.persistent {
            crate::types::QueueMode::Persistent
        } else {
            crate::types::QueueMode::Transient
        };
        qs.info.priority = q.priority;
    }
    snap.messages.sort_by_key(|m| m.id);
    // Each payload was copied out of the snapshot file (and validated as
    // UTF-8) once, at decode; the handle now serves every runtime read.
    obs.registry
        .counter("demaq_store_payload_copies_total")
        .add(snap.messages.len() as u64);
    for m in snap.messages {
        logical.insert_message(m.id, &m.queue, m.payload, m.props, m.enqueued_at, m.lsn);
        if m.processed {
            logical.mark_processed(m.id);
        }
    }
    for s in snap.slices {
        logical.slices.restore_slice(
            &s.slicing,
            s.key,
            s.epoch,
            s.members,
            s.base,
            s.base_members,
        );
    }
    logical.record_all_slices();

    // Replay WAL segments at or after the snapshot's index.
    let mut wal_index = snap.wal_index;
    for seg in wal_segments(dir)? {
        if seg < snap.wal_index {
            continue;
        }
        wal_index = wal_index.max(seg);
        let seg_name = format!("wal-{seg:06}.log");
        let scan = read_log(&dir.join(&seg_name))?;
        if scan.discarded > 0 {
            obs.registry
                .counter("demaq_store_wal_torn_bytes_total")
                .add(scan.discarded);
            obs.tracer.event(
                "wal.torn_tail",
                None,
                "",
                &format!(
                    "{seg_name}: discarded {} trailing byte(s) after valid prefix of {}",
                    scan.discarded, scan.valid_len
                ),
            );
        }
        for (lsn, ops) in scan.txns {
            for op in ops {
                match op {
                    TxnOp::Enqueue {
                        queue,
                        msg,
                        payload,
                        props,
                        enqueued_at,
                    } => {
                        next_msg = next_msg.max(msg.0 + 1);
                        if logical.has_message(msg) {
                            continue; // already captured by the snapshot
                        }
                        // Take the decoded frame's payload handle. The
                        // surviving WAL segment keeps the bytes durable
                        // until the next checkpoint writes them into its
                        // snapshot. The frame's LSN is the lineage edge's.
                        let lsn = Some(lsn);
                        logical.insert_message(msg, &queue, payload, props, enqueued_at, lsn);
                    }
                    TxnOp::MarkProcessed { msg } => logical.mark_processed(msg),
                    TxnOp::SliceAdd { slicing, key, msg } => {
                        if logical.has_message(msg) {
                            logical.slices.add(&slicing, &key, msg);
                            logical.record_slices(msg);
                        }
                    }
                    TxnOp::SliceReset { slicing, key, .. } => {
                        let id = logical.slices.resolve(&slicing, &key);
                        logical.slices.reset(id);
                    }
                }
            }
        }
    }
    Ok(Recovered {
        logical,
        next_msg,
        wal_index,
    })
}
