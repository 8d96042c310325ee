//! Error types for the XQuery engine, loosely mirroring the W3C error-code
//! families (`XPST` static, `XPDY`/`XPTY` dynamic/type, `FO` function).
//! Demaq routes these as *application-program-related errors* to error
//! queues (paper Sec. 3.6).

use std::fmt;

/// Error category, mapped onto the W3C code families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Static (parse/name-resolution) error — `XPST`.
    Static,
    /// Dynamic type error — `XPTY`/`FORG`.
    Type,
    /// Other dynamic evaluation error — `XPDY`/`FO*`.
    Dynamic,
}

/// An XQuery error with category, code-ish label, and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    pub kind: ErrorKind,
    pub code: &'static str,
    pub msg: String,
}

impl Error {
    pub fn static_error(msg: impl Into<String>) -> Error {
        Error {
            kind: ErrorKind::Static,
            code: "XPST0003",
            msg: msg.into(),
        }
    }

    pub fn undefined_name(msg: impl Into<String>) -> Error {
        Error {
            kind: ErrorKind::Static,
            code: "XPST0008",
            msg: msg.into(),
        }
    }

    pub fn unknown_function(msg: impl Into<String>) -> Error {
        Error {
            kind: ErrorKind::Static,
            code: "XPST0017",
            msg: msg.into(),
        }
    }

    pub fn type_error(msg: impl Into<String>) -> Error {
        Error {
            kind: ErrorKind::Type,
            code: "XPTY0004",
            msg: msg.into(),
        }
    }

    pub fn dynamic(msg: impl Into<String>) -> Error {
        Error {
            kind: ErrorKind::Dynamic,
            code: "XPDY0002",
            msg: msg.into(),
        }
    }

    pub fn arity(name: &str, expected: &str, got: usize) -> Error {
        Error {
            kind: ErrorKind::Static,
            code: "XPST0017",
            msg: format!("function {name} expects {expected} argument(s), got {got}"),
        }
    }

    pub fn division_by_zero() -> Error {
        Error {
            kind: ErrorKind::Dynamic,
            code: "FOAR0001",
            msg: "division by zero".into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.msg)
    }
}
impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;
