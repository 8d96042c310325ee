//! Pending update lists with Demaq's two queue actions.
//!
//! Updating expressions never mutate anything during evaluation. They append
//! [`Update`] records to the evaluator's pending list; the caller applies
//! them afterwards — the paper's snapshot semantics ("pending update list of
//! update primitives that are applied after the entire statement has been
//! evaluated", Sec. 3.2).
//!
//! A rule has exactly two effects: [`Update::Enqueue`] and [`Update::Reset`].
//! Stored messages are immutable (the store is append-only, Sec. 4.1), so
//! the XQUF tree updates (`do insert`, `do delete`, `do replace`,
//! `do rename`) are parse errors; a rule derives a changed message with an
//! element constructor and `do enqueue`.

use crate::value::Atomic;
use demaq_xml::{Document, QName};
use std::sync::Arc;

/// One pending update primitive.
#[derive(Debug, Clone)]
pub enum Update {
    /// `do enqueue <msg> into <queue> with p value v ...` — the central
    /// Demaq action (paper Sec. 3.4).
    Enqueue {
        queue: QName,
        message: Arc<Document>,
        /// Explicit property values supplied via `with ... value ...`.
        props: Vec<(String, Atomic)>,
    },
    /// `do reset [slicing key k]` — begin a new slice lifetime
    /// (paper Sec. 3.5.3).
    Reset {
        slicing: Option<QName>,
        key: Option<Atomic>,
    },
}
