//! # demaq-qdl
//!
//! Parser for Demaq application programs: the **Queue Definition Language**
//! (QDL, paper Sec. 2) and the rule-definition statements of the **Queue
//! Manipulation Language** (QML, Sec. 3.3). A program is a sequence of
//! statements:
//!
//! ```text
//! create queue finance kind basic mode persistent
//! create queue supplier kind outgoingGateway mode persistent
//!     interface supplier.wsdl port CapacityRequestPort
//!     using WS-ReliableMessaging policy wsrmpol.xml
//!     endpoint "http://ws.chem.invalid/"
//! create queue echoQueue kind echo mode persistent
//! create property orderID as xs:string fixed
//!     queue order value //orderID
//!     queue confirmation value /confirmedOrder/ID
//! create slicing orders on orderID
//! create rule newOfferRequest for crm
//!     if (//offerRequest) then … QML body (an updating expression) …
//! set errorqueue systemErrors
//! create schema order-schema { root order … }
//! ```
//!
//! `endpoint` (gateway address binding), `priority`, `set errorqueue`, and
//! inline `create schema { … }` are reproduction extensions — the paper
//! names these capabilities (priorities in Sec. 2.1.1, error-queue levels
//! in Sec. 3.6, queue schemas in Sec. 2.1.1) without fixing their concrete
//! syntax. Rule bodies are parsed by `demaq-xquery` and must be updating
//! expressions built from `do enqueue` / `do reset`; the XQUF tree updates
//! (`do insert`, `do delete`, `do replace`, `do rename`) are parse errors,
//! because stored messages are immutable.

pub mod ast;
pub mod parser;
pub mod validate;

pub use ast::{
    AppSpec, PropBinding, PropKind, PropertyDecl, QueueDecl, QueueKind, RuleDecl, SlicingDecl,
};
pub use parser::{parse_program, QdlError};
pub use validate::validate;
