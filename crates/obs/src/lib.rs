//! `demaq-obs` — zero-dependency observability for the Demaq engine.
//!
//! Three pillars, all built on `std` atomics only:
//!
//! * [`Registry`] — named counters and gauges with label support
//!   (`queue="orders"`), plus named [`Histogram`]s, rendered to Prometheus
//!   text exposition format by [`Registry::render_text`].
//! * [`Histogram`] — fixed-bucket log2 latency histograms
//!   ([`Histogram::record_ns`]) with `p50`/`p90`/`p99` accessors.
//! * [`Tracer`] — a bounded ring buffer of [`TraceEvent`]s
//!   ([`Tracer::event`]) with span timing ([`Tracer::span`]) for rule
//!   evaluation and transactions.
//!
//! Metric naming scheme: `demaq_<subsystem>_<name>`, `_total` suffix for
//! counters, `_ns` suffix for nanosecond histograms (see DESIGN.md,
//! "Observability").
//!
//! Overhead: counter increments are one atomic add after a read-locked
//! hash lookup; hot paths should hold on to the returned [`Counter`] /
//! [`Histogram`] handles, which are `Arc`s into the registry and bypass
//! the lookup entirely.

mod histogram;
mod registry;
mod tracer;

pub use histogram::Histogram;
pub use registry::{Counter, Gauge, Registry};
pub use tracer::{Span, TraceCtx, TraceEvent, TraceFilter, Tracer};

use std::sync::Arc;

/// Bundle of one registry + one tracer, shared across a server and its
/// store, network, and gateways.
pub struct Obs {
    pub registry: Registry,
    pub tracer: Tracer,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("trace_capacity", &self.tracer.capacity())
            .finish_non_exhaustive()
    }
}

impl Obs {
    /// A fresh observability context with the default trace capacity.
    pub fn new() -> Arc<Obs> {
        Obs::with_trace_capacity(4096)
    }

    /// A fresh context with a custom trace ring size.
    pub fn with_trace_capacity(capacity: usize) -> Arc<Obs> {
        let obs = Arc::new(Obs {
            registry: Registry::new(),
            tracer: Tracer::new(capacity),
        });
        obs.tracer
            .attach_overwrite_counter(obs.registry.counter("demaq_obs_trace_overwrites_total"));
        obs
    }
}
