//! # demaq-xml
//!
//! XML infoset substrate for the Demaq reproduction.
//!
//! Messages in Demaq are XML documents. This crate provides:
//!
//! * an immutable document tree ([`Document`], [`NodeRef`]) stored flat in
//!   document order, with total document order and node identity —
//!   immutability matches Demaq's append-only message model and makes
//!   trees freely shareable across the engine's worker threads,
//! * a namespace-aware, single-pass XML parser ([`parse`]) and serializer,
//! * a programmatic [`builder::DocBuilder`],
//! * a structural "schema-lite" validator ([`schema::Schema`]) used for the
//!   optional `schema` clause of `create queue`.

pub mod builder;
pub mod parser;
pub mod qname;
pub mod schema;
pub mod serializer;
pub mod sym;
pub mod tree;

pub use builder::{DocBuilder, IntoName};
pub use parser::{parse, parse_fragment, ParseError};
pub use qname::QName;
pub use serializer::{serialize, serialize_pretty};
pub use sym::Sym;
pub use tree::{Document, NodeId, NodeKind, NodeRef};

/// Result alias for XML parsing.
pub type Result<T> = std::result::Result<T, ParseError>;
