//! Bounded ring-buffer event tracer with span timing.
//!
//! Writers claim a slot with one atomic `fetch_add` and only lock that
//! slot's own mutex (lock-free between writers of different slots); the
//! ring overwrites the oldest events once full. [`Tracer::tail`]
//! reassembles the most recent events in order.
//!
//! Events optionally carry a *trace context*: a `trace_id` naming the
//! causal tree the event belongs to (the engine uses the root message id
//! of a processing cascade) and a `parent_span` naming the event's direct
//! cause (the parent message id). [`Tracer::tail_filtered`] selects the
//! recent events of one queue, one message, or one trace.

use crate::registry::Counter;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Trace context attached to an event: which causal tree it belongs to
/// and what directly caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Causal-tree identifier (engine: root message id of the cascade).
    pub trace_id: Option<u64>,
    /// Direct cause (engine: parent message id).
    pub parent_span: Option<u64>,
}

impl TraceCtx {
    /// The empty context (no causal information).
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: None,
        parent_span: None,
    };

    pub fn new(trace_id: Option<u64>, parent_span: Option<u64>) -> TraceCtx {
        TraceCtx {
            trace_id,
            parent_span,
        }
    }
}

/// One traced engine event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (monotonic; survives ring wraparound).
    pub seq: u64,
    /// Event kind, e.g. `"rule.eval"`, `"txn.commit"`, `"gateway.send"`.
    pub kind: &'static str,
    /// The message involved, if any.
    pub msg_id: Option<u64>,
    /// The queue involved, if any (empty string otherwise).
    pub queue: String,
    /// Free-form detail (rule name, error text, …).
    pub detail: String,
    /// Span duration in nanoseconds for timed events.
    pub dur_ns: Option<u64>,
    /// Causal tree this event belongs to, if known.
    pub trace_id: Option<u64>,
    /// Direct cause of this event, if known.
    pub parent_span: Option<u64>,
}

impl TraceEvent {
    /// One-line rendering for logs and example output.
    pub fn render(&self) -> String {
        let mut out = format!("#{:<6} {:<18}", self.seq, self.kind);
        if !self.queue.is_empty() {
            out.push_str(&format!(" queue={}", self.queue));
        }
        if let Some(m) = self.msg_id {
            out.push_str(&format!(" msg={m}"));
        }
        if let Some(t) = self.trace_id {
            out.push_str(&format!(" trace={t}"));
        }
        if let Some(p) = self.parent_span {
            out.push_str(&format!(" parent={p}"));
        }
        if let Some(d) = self.dur_ns {
            out.push_str(&format!(" dur={d}ns"));
        }
        if !self.detail.is_empty() {
            out.push_str(&format!(" {}", self.detail));
        }
        out
    }
}

/// The ring-buffer tracer.
pub struct Tracer {
    slots: Vec<Mutex<Option<TraceEvent>>>,
    next: AtomicU64,
    enabled: AtomicBool,
    /// Counts ring-slot overwrites (event loss under burst load); attached
    /// by the owning `Obs` so the loss is visible in the exposition as
    /// `demaq_obs_trace_overwrites_total`.
    overwrites: OnceLock<Counter>,
    /// Synchronous observer of every recorded event (see
    /// [`Tracer::attach_tap`]).
    tap: OnceLock<Tap>,
}

type Tap = Box<dyn Fn(&TraceEvent) + Send + Sync>;

impl Tracer {
    /// A tracer retaining the last `capacity` events (min 16).
    pub fn new(capacity: usize) -> Tracer {
        let capacity = capacity.max(16);
        Tracer {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            overwrites: OnceLock::new(),
            tap: OnceLock::new(),
        }
    }

    /// Attach the counter incremented whenever a recorded event evicts an
    /// older one from the ring. Only the first attach wins.
    pub fn attach_overwrite_counter(&self, c: Counter) {
        let _ = self.overwrites.set(c);
    }

    /// Attach an observer called with every event as it is recorded, on
    /// the recording thread, before the traced operation goes on — what a
    /// log that must not lag behind the engine (a crash harness) reads
    /// instead of polling the ring. The tap must not record events itself.
    /// Only the first attach wins.
    pub fn attach_tap(&self, tap: impl Fn(&TraceEvent) + Send + Sync + 'static) {
        let _ = self.tap.set(Box::new(tap));
    }

    /// Turn tracing off/on (events are dropped while disabled; counters
    /// and histograms are unaffected).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record an instantaneous event with no trace context.
    pub fn event(&self, kind: &'static str, msg_id: Option<u64>, queue: &str, detail: &str) {
        self.record(kind, msg_id, queue, detail, None, TraceCtx::NONE);
    }

    /// Record an instantaneous event carrying a trace context.
    pub fn event_ctx(
        &self,
        kind: &'static str,
        msg_id: Option<u64>,
        queue: &str,
        detail: &str,
        ctx: TraceCtx,
    ) {
        self.record(kind, msg_id, queue, detail, None, ctx);
    }

    /// Start a timed span; the returned guard records the event (with
    /// duration) when dropped or [`Span::finish`]ed.
    pub fn span<'t>(
        &'t self,
        kind: &'static str,
        msg_id: Option<u64>,
        queue: &str,
        detail: &str,
    ) -> Span<'t> {
        Span {
            tracer: self,
            kind,
            msg_id,
            queue: queue.to_string(),
            detail: detail.to_string(),
            start: Instant::now(),
            done: false,
            ctx: TraceCtx::NONE,
        }
    }

    fn record(
        &self,
        kind: &'static str,
        msg_id: Option<u64>,
        queue: &str,
        detail: &str,
        dur_ns: Option<u64>,
        ctx: TraceCtx,
    ) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        let mut guard = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner());
        let recorded = match &mut *guard {
            // Reuse the overwritten event's string buffers: once the ring
            // has wrapped, recording allocates only when a queue/detail
            // outgrows the slot's existing capacity.
            Some(ev) => {
                if let Some(c) = self.overwrites.get() {
                    c.inc();
                }
                ev.seq = seq;
                ev.kind = kind;
                ev.msg_id = msg_id;
                ev.queue.clear();
                ev.queue.push_str(queue);
                ev.detail.clear();
                ev.detail.push_str(detail);
                ev.dur_ns = dur_ns;
                ev.trace_id = ctx.trace_id;
                ev.parent_span = ctx.parent_span;
                &*ev
            }
            slot @ None => &*slot.insert(TraceEvent {
                seq,
                kind,
                msg_id,
                queue: queue.to_string(),
                detail: detail.to_string(),
                dur_ns,
                trace_id: ctx.trace_id,
                parent_span: ctx.parent_span,
            }),
        };
        if let Some(tap) = self.tap.get() {
            tap(recorded);
        }
    }

    /// Total events ever recorded (including ones the ring has dropped).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        self.tail_filtered(n, &TraceFilter::default())
    }

    /// The most recent `n` events matching `filter`, oldest first. All
    /// filter fields are conjunctive; `msg_id` matches an event whose
    /// `msg_id` *or* `parent_span` names the message, so a message's
    /// causes and effects both surface.
    pub fn tail_filtered(&self, n: usize, filter: &TraceFilter) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .filter(|ev| filter.matches(ev))
            .collect();
        events.sort_by_key(|e| e.seq);
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        events
    }
}

/// Selection predicate for [`Tracer::tail_filtered`]; unset fields match
/// everything.
#[derive(Debug, Clone, Default)]
pub struct TraceFilter {
    /// Only events on this queue.
    pub queue: Option<String>,
    /// Only events whose `msg_id` or `parent_span` is this message.
    pub msg_id: Option<u64>,
    /// Only events in this causal tree.
    pub trace_id: Option<u64>,
}

impl TraceFilter {
    fn matches(&self, ev: &TraceEvent) -> bool {
        if let Some(q) = &self.queue {
            if ev.queue != *q {
                return false;
            }
        }
        if let Some(m) = self.msg_id {
            if ev.msg_id != Some(m) && ev.parent_span != Some(m) {
                return false;
            }
        }
        if let Some(t) = self.trace_id {
            if ev.trace_id != Some(t) {
                return false;
            }
        }
        true
    }
}

/// Timed span guard from [`Tracer::span`].
pub struct Span<'t> {
    tracer: &'t Tracer,
    kind: &'static str,
    msg_id: Option<u64>,
    queue: String,
    detail: String,
    start: Instant,
    done: bool,
    ctx: TraceCtx,
}

impl<'t> Span<'t> {
    /// Replace the detail before the span records (e.g. outcome).
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }

    /// Attach a trace context to the event this span will record.
    pub fn set_ctx(&mut self, ctx: TraceCtx) {
        self.ctx = ctx;
    }

    /// End the span now and record the event.
    pub fn finish(mut self) {
        self.record_now();
    }

    fn record_now(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let dur = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.tracer.record(
            self.kind,
            self.msg_id,
            &self.queue,
            &self.detail,
            Some(dur),
            self.ctx,
        );
    }
}

impl<'t> Drop for Span<'t> {
    fn drop(&mut self) {
        self.record_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_returns_recent_in_order() {
        let t = Tracer::new(64);
        for i in 0..10u64 {
            t.event("step", Some(i), "q", "");
        }
        let tail = t.tail(3);
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [7, 8, 9]);
        assert_eq!(tail[2].msg_id, Some(9));
    }

    #[test]
    fn tap_sees_every_event_as_recorded_even_after_wraparound() {
        let t = Tracer::new(16);
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&seen);
        t.attach_tap(move |ev| sink.lock().unwrap().push((ev.seq, ev.kind, ev.msg_id)));
        for i in 0..40u64 {
            t.event("e", Some(i), "q", "");
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 40, "the ring dropped 24 of these");
        assert_eq!(seen[39], (39, "e", Some(39)));
        t.set_enabled(false);
        t.event("off", None, "", "");
        assert_eq!(seen.len(), 40);
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let t = Tracer::new(16); // minimum capacity
        for i in 0..100u64 {
            t.event("e", Some(i), "", "");
        }
        assert_eq!(t.recorded(), 100);
        let tail = t.tail(1000);
        assert_eq!(tail.len(), 16, "ring holds capacity events");
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (84..100).collect::<Vec<_>>());
    }

    #[test]
    fn span_records_duration() {
        let t = Tracer::new(16);
        {
            let mut s = t.span("txn.commit", Some(1), "orders", "");
            s.set_detail("ok");
        }
        let tail = t.tail(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].kind, "txn.commit");
        assert_eq!(tail[0].detail, "ok");
        assert!(tail[0].dur_ns.is_some());
    }

    #[test]
    fn disabled_drops_events() {
        let t = Tracer::new(16);
        t.set_enabled(false);
        t.event("e", None, "", "");
        assert_eq!(t.tail(10).len(), 0);
        t.set_enabled(true);
        t.event("e", None, "", "");
        assert_eq!(t.tail(10).len(), 1);
    }

    #[test]
    fn concurrent_writers_never_lose_the_ring() {
        use std::sync::Arc;
        let t = Arc::new(Tracer::new(128));
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..500u64 {
                        t.event("w", Some(w * 1000 + i), "q", "");
                    }
                });
            }
        });
        assert_eq!(t.recorded(), 2000);
        let tail = t.tail(10_000);
        assert_eq!(tail.len(), 128);
        // Sequence numbers are unique.
        let mut seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 128);
    }

    #[test]
    fn racing_writers_tail_is_deterministically_seq_ordered() {
        // Regression: `tail` must order by the monotonic sequence number,
        // never by wall-clock or slot position — two threads racing into
        // adjacent slots at the same tick must come back in claim order,
        // and repeated `tail` calls over an unchanged ring must agree.
        use std::sync::Arc;
        let t = Arc::new(Tracer::new(64));
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        t.event("race", Some(w * 10_000 + i), "q", "");
                    }
                });
            }
        });
        let a = t.tail(64);
        let b = t.tail(64);
        assert_eq!(a, b, "tail over an unchanged ring must be deterministic");
        let seqs: Vec<u64> = a.iter().map(|e| e.seq).collect();
        assert!(
            seqs.windows(2).all(|w| w[0] + 1 == w[1]),
            "tail must be contiguous ascending seqs: {seqs:?}"
        );
        assert_eq!(*seqs.last().unwrap(), t.recorded() - 1);
    }

    #[test]
    fn overwrite_counter_counts_ring_loss() {
        let t = Tracer::new(16);
        let c = {
            let r = crate::Registry::new();
            r.counter("demaq_obs_trace_overwrites_total")
        };
        t.attach_overwrite_counter(c.clone());
        for i in 0..40u64 {
            t.event("e", Some(i), "", "");
        }
        // 40 events into 16 slots: 24 overwrites.
        assert_eq!(c.get(), 24);
    }

    #[test]
    fn trace_ctx_roundtrips_and_filters() {
        let t = Tracer::new(64);
        t.event_ctx("a", Some(1), "q1", "", TraceCtx::new(Some(1), None));
        t.event_ctx("b", Some(2), "q2", "", TraceCtx::new(Some(1), Some(1)));
        t.event_ctx("c", Some(3), "q2", "", TraceCtx::new(Some(3), None));
        {
            let mut s = t.span("d", Some(4), "q3", "");
            s.set_ctx(TraceCtx::new(Some(1), Some(2)));
        }

        let by_trace = t.tail_filtered(
            10,
            &TraceFilter {
                trace_id: Some(1),
                ..Default::default()
            },
        );
        let kinds: Vec<&str> = by_trace.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["a", "b", "d"]);
        assert_eq!(by_trace[2].parent_span, Some(2));

        let by_queue = t.tail_filtered(
            10,
            &TraceFilter {
                queue: Some("q2".into()),
                ..Default::default()
            },
        );
        assert_eq!(by_queue.len(), 2);

        // msg filter surfaces both the message's own events and events it
        // caused (parent_span hits).
        let by_msg = t.tail_filtered(
            10,
            &TraceFilter {
                msg_id: Some(2),
                ..Default::default()
            },
        );
        let kinds: Vec<&str> = by_msg.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["b", "d"]);
    }
}
