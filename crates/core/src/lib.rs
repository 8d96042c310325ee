//! # demaq — declarative XML message processing
//!
//! Reproduction of *"Demaq: A Foundation for Declarative XML Message
//! Processing"* (Böhm, Kanne, Moerkotte — CIDR 2007).
//!
//! A Demaq application is a set of XML message queues plus declarative
//! rules for message flow between them. This crate is the engine: it
//! compiles a QDL/QML program (parsed by `demaq-qdl`), hosts the queues on
//! the transactional append-only message store (`demaq-store`), evaluates
//! rules with the XQuery engine (`demaq-xquery`), and connects gateway
//! queues to the simulated transport (`demaq-net`).
//!
//! ```no_run
//! use demaq::Server;
//!
//! let program = r#"
//!     create queue inbox kind basic mode persistent
//!     create queue outbox kind basic mode persistent
//!     create rule fwd for inbox
//!       if (//order) then do enqueue <ack>{//order/id}</ack> into outbox
//! "#;
//! let mut server = Server::builder().program(program).in_memory().build().unwrap();
//! server.enqueue_external("inbox", "<order><id>7</id></order>").unwrap();
//! server.run_until_idle().unwrap();
//! assert_eq!(server.queue_bodies("outbox").unwrap(), ["<ack><id>7</id></ack>"]);
//! ```
//!
//! ## Execution model (paper Sec. 3.1)
//!
//! Each unprocessed message is processed exactly once, in an order chosen
//! by the [`scheduler`] (queue priority, then arrival). Processing one
//! message evaluates *all* rules pertaining to its queue — including rules
//! attached to slicings whose property is defined on that queue — and
//! yields a pending action list that is executed in the same store
//! transaction, giving snapshot semantics. Errors route to error queues as
//! XML messages (Sec. 3.6).

pub mod aggregates;
pub mod app;
pub mod cache;
pub mod compiler;
pub mod engine;
pub mod errors;
pub mod gateway;
pub mod host;
pub(crate) mod lineage;
pub(crate) mod outbox;
pub mod properties;
pub mod scheduler;
pub mod shard;

pub use app::CompiledApp;
pub use demaq_analysis as analysis;
pub use demaq_obs::TraceFilter;
pub use engine::{EngineError, RuleProfile, Server, ServerBuilder, ServerStats, StrictAnalysis};
pub use lineage::{Lineage, LineageRecord};
pub use shard::{ShardedServer, ShardedServerBuilder};

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
