//! Store error types.

use std::fmt;

/// Errors raised by the message store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file-system failure.
    Io(std::io::Error),
    /// Log or checkpoint corruption detected during recovery.
    Corrupt(String),
    /// Lock acquisition timed out.
    LockTimeout,
    /// Use of an unknown queue / slicing / message id.
    NotFound(String),
    /// Constraint violation (duplicate queue, bad state transition, …).
    Invalid(String),
    /// The transaction has already committed or aborted.
    TxnClosed,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::LockTimeout => write!(f, "lock wait timeout"),
            StoreError::NotFound(m) => write!(f, "not found: {m}"),
            StoreError::Invalid(m) => write!(f, "invalid operation: {m}"),
            StoreError::TxnClosed => write!(f, "transaction already finished"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

pub type Result<T> = std::result::Result<T, StoreError>;
