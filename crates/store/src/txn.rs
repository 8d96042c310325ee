//! Transaction buffers: deferred-write transactions.
//!
//! A Demaq message-processing transaction evaluates rules against a
//! snapshot and only then executes the pending actions (paper Sec. 3.1).
//! The store mirrors that: writes buffer in a [`TxnBuf`] and apply at
//! commit, under locks acquired during the transaction (strict 2PL). An
//! abort simply discards the buffer.

use crate::slice::SliceId;
use crate::types::{MsgId, Name, PayloadBytes, PropValue, Props, TxnId};

/// A buffered write operation — and, logged as is, one op of the
/// transaction's WAL frame (see `wal`).
#[derive(Debug, Clone, PartialEq)]
pub enum TxnOp {
    /// A message entered a queue.
    Enqueue {
        queue: Name,
        msg: MsgId,
        /// Shared payload handle — the WAL frame is encoded from it and
        /// the message map takes it over at apply; never copied.
        payload: PayloadBytes,
        /// Shared with the message's readers from here on.
        props: Props,
        enqueued_at: i64,
    },
    /// The rule engine finished processing a message.
    MarkProcessed { msg: MsgId },
    /// A message joined a slice (slicing name + key).
    SliceAdd {
        slicing: Name,
        key: PropValue,
        msg: MsgId,
    },
    /// A slice began a new lifetime; `at` is its handle when the caller
    /// had one. Handles are process-local: the frame logs only the name.
    SliceReset {
        slicing: Name,
        key: PropValue,
        at: Option<SliceId>,
    },
}

/// State of an open transaction.
#[derive(Debug)]
pub struct TxnBuf {
    pub id: TxnId,
    pub ops: Vec<TxnOp>,
}

impl TxnBuf {
    pub fn new(id: TxnId) -> TxnBuf {
        TxnBuf {
            id,
            ops: Vec::new(),
        }
    }
}
