//! # demaq-store
//!
//! A transactional, append-only XML **message store** — the substitute for
//! the Natix native XML data store with recoverable queue extensions that
//! the Demaq paper builds on (Sec. 4.1).
//!
//! Architecture:
//!
//! * **Write-ahead log** ([`wal`]): one CRC frame of logical redo ops
//!   (enqueue, mark processed, slice adds and resets) per committed
//!   transaction, compactly encoded, with group commit and a configurable
//!   sync policy (per-commit fsync or batched). Lineage is read from the
//!   enqueues themselves, so it has no record of its own.
//! * **Transactions** ([`txn`]): deferred-write transactions under strict
//!   two-phase locking at queue or slice granularity (Sec. 4.3's
//!   "locking just the affected slices"). Locks are taken in one global
//!   key order, so deadlocks cannot form and none are detected.
//! * **Queues & slices** ([`store`], [`slice`](mod@slice)): append-only message
//!   queues ("messages are never modified after they have been created"),
//!   the slice index (a B-tree keyed by slice key, Sec. 4.3), slice
//!   lifetimes (resets), and retention-by-slice-membership GC
//!   (Sec. 2.3.3) that never needs to analyze the log to delete.
//! * **Checkpoint + recovery** ([`checkpoint`], `recovery`): snapshots
//!   of the logical state plus committed-transaction redo. A snapshot is
//!   self-contained: it carries every persistent payload, so payload bytes
//!   have one owner — the resident [`PayloadBytes`], made durable by the
//!   WAL until a checkpoint writes it into the snapshot.

pub mod checkpoint;
pub mod error;
pub mod lock;
pub(crate) mod recovery;
pub mod slice;
pub mod store;
pub mod txn;
pub mod types;
pub mod wal;

pub use error::{Result, StoreError};
pub use lock::{LockGranularity, LockKey, LockMode};
pub use slice::{MemberRead, SliceId, SliceIds};
pub use store::{DurableTarget, MessageStore, QueueInfo, StoreOptions, SyncPolicy};
pub use types::{
    provenance, IdHasher, IdMap, IdSet, LineageEdge, Lsn, MessageMeta, MsgId, Name, PayloadBytes,
    PropValue, Props, QueueMode, StoredMessage, TxnId,
};
