//! Sharded engine runtime: N independent engine shards behind one routing
//! directory (ROADMAP item 2; benchmark E13).
//!
//! The paper's slice-granularity locking (Sec. 5) already treats slices as
//! independent units of work, and Gray's "Queues Are Databases" argues the
//! queue *is* the database — so the store scales out the way a partitioned
//! database does. Each shard is a full [`Server`] with a private store
//! (own WAL, commit pipeline, slice index, document cache) and worker
//! pool; a [`Placement`] computed from the application's flow graph maps
//! `(queue, slicing-key-hash)` to a shard at enqueue time, so hot rule
//! chains stay shard-local and independent WAL pipelines overlap their
//! fsync waits.
//!
//! Cross-shard enqueues produced by rule firings are published to the
//! destination shard's mailbox only after the producing transaction
//! commits (a deadlock retry re-runs the rules and must not deliver
//! twice) — and, when commits do not wait for their own fsync, only once
//! the producer's WAL has made that commit durable (the destination is a
//! different WAL; see `crate::outbox`). The message travels with its
//! computed properties, which carry
//! the causal `parentMsg`/`rootMsg` system properties, so lineage chains
//! survive the hop exactly as they do across gateway hops.
//!
//! There is one runtime: a standalone [`Server`] is the only entry of its
//! own single-shard directory, and it drains through the same two loops
//! (`drain`, `quiesce`) as a fleet. A 1-shard [`ShardedServer`]
//! is therefore today's single server: the placement maps every queue to
//! shard 0, the routing check never fires, and message ids start at the
//! same base.

use crate::engine::{metrics_text, EngineError, Server, ServerBuilder, ServerStats};
use crate::host::{atomic_to_prop, cast_prop};
use crate::lineage::{self, Lineage};
use crate::properties::compute_properties;
use crate::scheduler::Scheduler;
use crate::Result;
use demaq_analysis::{compute_placement, Placement};
use demaq_net::Clock;
use demaq_obs::{Counter, Obs, TraceEvent};
use demaq_qdl::QueueKind;
use demaq_store::{MsgId, Name, PayloadBytes, PropValue, Props, StoreError, StoredMessage};
use demaq_xml::{parse as parse_xml, Document};
use demaq_xquery::Atomic;
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Process-stable hash of a slicing-key value: FNV-1a over the value's
/// type tag, the length of its canonical text as a little-endian `u32`,
/// and that text, so every shard — and every process of a future
/// distributed deployment — agrees on `hash % shards`. The bytes are the
/// routing function's own, independent of any storage codec: a change of
/// log format never moves a key to another shard.
pub(crate) fn key_hash(v: &PropValue) -> u64 {
    use std::fmt::Write;
    // The text is rendered twice, into a counter and into the hash, so
    // that no buffer is allocated.
    struct Len(u32);
    impl Write for Len {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len() as u32;
            Ok(())
        }
    }
    let mut len = Len(0);
    write!(len, "{v}").expect("counting cannot fail");
    let mut h = Fnv::new();
    h.bytes(&[v.tag()]);
    h.bytes(&len.0.to_le_bytes());
    write!(h, "{v}").expect("hashing cannot fail");
    h.0
}

/// FNV-1a, fed in pieces: the same function as
/// [`demaq_analysis::stable_hash`] over the concatenation.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// A fully prepared message in flight between shards: payload plus the
/// properties computed on the producing shard (property computation is
/// deterministic in the trigger and payload, so the destination commits
/// exactly what local execution would have), and the parsed document,
/// which the destination caches as a local enqueue does.
pub(crate) struct Forwarded {
    pub(crate) dest: usize,
    pub(crate) queue: Name,
    pub(crate) xml: PayloadBytes,
    pub(crate) doc: Arc<Document>,
    pub(crate) props: Props,
    pub(crate) enqueued_at: i64,
}

/// Shared state of one deployment: the routing directory and the
/// cross-shard mailboxes. A standalone server has its own, with one entry.
///
/// ## Drain-termination accounting
///
/// Draining terminates on a *single* conserved counter, `pending`: the
/// number of undrained messages anywhere in the fleet — queued in a
/// scheduler, claimed by a worker, held in a shard's durable outbox, or
/// published in a mailbox. It is exact at every moment, on every path
/// (recovery, enqueues, [`Server::step`], both loops), and nothing ever
/// resets it, so enqueues may run concurrently with a drain: the drain
/// takes them in.
/// Scanning separate per-state counters (schedulers, active workers,
/// in-flight forwards) is unsound no matter the read order: a message can
/// migrate from a state a drainer already read as zero into one it read
/// earlier, so every per-state snapshot can be zero while work survives.
/// One counter has no such window. Every handoff counts the destination
/// before releasing the source: a scheduler insertion is counted before
/// the message can be popped, a product at scheduler insertion / forward
/// announcement *before* its producer's decrement, an ingested forward at
/// scheduler insertion before [`Self::settle`], so `pending` never dips to
/// zero while work exists — and a single atomic read of zero is a sound
/// termination proof.
pub(crate) struct ShardRouter {
    placement: Placement,
    mailboxes: Vec<Mutex<VecDeque<Forwarded>>>,
    /// Each shard's scheduler, which its workers park on: a forward wakes
    /// its destination's.
    schedulers: Vec<Arc<Scheduler>>,
    /// Undrained messages fleet-wide (see struct docs).
    pending: AtomicUsize,
    forwards_total: Counter,
    ingest_errors: Counter,
}

impl ShardRouter {
    fn new(placement: Placement, obs: &Obs) -> ShardRouter {
        let shards = placement.shards;
        ShardRouter {
            placement,
            mailboxes: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            schedulers: (0..shards).map(|_| Arc::new(Scheduler::new())).collect(),
            pending: AtomicUsize::new(0),
            forwards_total: obs.registry.counter("demaq_engine_shard_forwards_total"),
            ingest_errors: obs
                .registry
                .counter("demaq_engine_shard_ingest_errors_total"),
        }
    }

    /// A forward exists from the moment its producer commits, well before
    /// it is published: count it then. A drainer must never observe
    /// `pending == 0` while a forward waits in its shard's outbox for the
    /// producer's commit to become durable, or is mid-publish. The
    /// producing worker's own decrement comes later still, so the count
    /// also never drops while the message is only in the mailbox.
    pub(crate) fn announce(&self) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.forwards_total.inc();
    }

    /// Hand an announced forward to its destination's mailbox, and wake
    /// the destination's worker if it is parked.
    pub(crate) fn publish(&self, f: Forwarded) {
        let dest = f.dest;
        self.mailboxes[dest].lock().push_back(f);
        self.schedulers[dest].wake_parked();
    }

    /// The scheduler of `shard`.
    pub(crate) fn scheduler(&self, shard: usize) -> Arc<Scheduler> {
        Arc::clone(&self.schedulers[shard])
    }

    /// Insert a message into some shard's scheduler (`insert` reports
    /// whether it was accepted). Counted *before* the insertion: once in
    /// the scheduler a worker may pop, process and release it at once. A
    /// rejected duplicate takes its count back.
    pub(crate) fn note_scheduled(&self, insert: impl FnOnce() -> bool) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        if !insert() {
            self.release_one();
        }
    }

    /// A claimed message is fully dealt with (processed, errored out, or
    /// abandoned); its products were already counted.
    pub(crate) fn note_done(&self) {
        self.release_one();
    }

    fn take(&self, shard: usize) -> Option<Forwarded> {
        self.mailboxes[shard].lock().pop_front()
    }

    /// Mark one taken forward as fully ingested (scheduled on the
    /// destination, which counted it again) or abandoned. Called only
    /// after the ingest committed (or permanently failed), so successful
    /// work is visible in the destination's scheduler count before this
    /// decrement.
    fn settle(&self) {
        self.release_one();
    }

    fn mailbox_empty(&self, shard: usize) -> bool {
        self.mailboxes[shard].lock().is_empty()
    }

    fn release_one(&self) {
        let before = self.pending.fetch_sub(1, Ordering::SeqCst);
        debug_assert_ne!(before, 0, "pending count released below zero");
    }

    /// Whether nothing is pending anywhere in the fleet.
    fn drained(&self) -> bool {
        self.pending.load(Ordering::SeqCst) == 0
    }
}

/// One shard's handle to the router (stored in its [`Server`]).
#[derive(Clone)]
pub(crate) struct ShardLink {
    pub(crate) shard: usize,
    pub(crate) router: Arc<ShardRouter>,
}

impl ShardLink {
    /// The only entry of a standalone server's own directory.
    pub(crate) fn standalone(obs: &Obs) -> ShardLink {
        ShardLink {
            shard: 0,
            router: Arc::new(ShardRouter::new(Placement::single(), obs)),
        }
    }

    /// `Some(dest)` when a message with these properties entering `queue`
    /// is homed on a *different* shard than this one.
    pub(crate) fn remote_destination(
        &self,
        queue: &str,
        props: &[(Name, PropValue)],
    ) -> Option<usize> {
        let p = &self.router.placement;
        if p.shards <= 1 {
            return None;
        }
        let key = p
            .key_property(queue)
            .and_then(|kp| demaq_store::types::prop(props, kp))
            .map(key_hash);
        let dest = p.route(queue, key);
        (dest != self.shard).then_some(dest)
    }
}

/// Builder for [`ShardedServer`] — obtained from
/// [`ServerBuilder::shards`]; every other knob is inherited from the base
/// builder and applied uniformly to each shard.
pub struct ShardedServerBuilder {
    base: ServerBuilder,
    shards: usize,
}

impl ShardedServerBuilder {
    pub(crate) fn new(base: ServerBuilder, shards: usize) -> ShardedServerBuilder {
        ShardedServerBuilder {
            base,
            shards: shards.max(1),
        }
    }

    /// Compile the application once, derive the placement from its flow
    /// graph, and open one store per shard (subdirectories `shard-0` …
    /// `shard-N-1` of the configured directory, or with `.in_memory()` a
    /// throwaway directory each).
    pub fn build(self) -> Result<ShardedServer> {
        let shards = self.shards;
        let mut base = self.base;

        // Compile once: every shard runs the same application, and the
        // placement reads the same facts and flow graph.
        let app = Arc::new(base.compile()?);
        let placement = compute_placement(&app.spec, &app.facts, &app.analysis.graph, shards);
        base.compiled = Some(Arc::clone(&app));

        // Shared infrastructure: one metric registry + trace ring, one
        // clock, one simulated network — so a sharded deployment reads
        // exactly like a single server from the outside.
        let (obs, clock, _) = base.pin_environment();

        // Home every incoming gateway on exactly one shard: two shards
        // listening on the same transport address would both claim
        // deliveries.
        let mut incoming_homes: Vec<HashSet<String>> = vec![HashSet::new(); shards];
        for q in &app.spec.queues {
            if q.kind == QueueKind::IncomingGateway {
                incoming_homes[placement.route(&q.name, None)].insert(q.name.clone());
            }
        }

        let router = Arc::new(ShardRouter::new(placement.clone(), &obs));
        let server_addr = base.server_addr.clone();
        let mut servers = Vec::with_capacity(shards);
        for (i, homes) in incoming_homes.into_iter().enumerate() {
            let mut b = base.clone();
            // Each shard needs its own WAL segments and snapshot.
            b.dir = base.dir.as_ref().map(|root| root.join(format!("shard-{i}")));
            // Shard-unique id spaces without coordination; shard 0 keeps
            // base 0 so a 1-shard deployment allocates the same ids as a
            // plain server.
            b.msg_id_base = (i as u64) << 48;
            b.shard_link = Some(ShardLink {
                shard: i,
                router: Arc::clone(&router),
            });
            b.incoming_gateways = Some(homes);
            if i > 0 {
                // Reliable-messaging ack receivers register under the
                // server address; secondary shards need distinct ones.
                b.server_addr = format!("{server_addr}/shard{i}");
            }
            servers.push(b.build()?);
        }
        Ok(ShardedServer {
            shards: servers,
            router,
            clock,
            obs,
            placement,
        })
    }
}

/// N engine shards behind one routing directory. The public surface
/// mirrors [`Server`]: external enqueues route to the owning shard,
/// inspection and lineage merge across shards, metrics and traces come
/// from the shared observability context.
pub struct ShardedServer {
    shards: Vec<Server>,
    router: Arc<ShardRouter>,
    clock: Clock,
    obs: Arc<Obs>,
    placement: Placement,
}

impl ShardedServer {
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard (tests, inspection).
    pub fn shard(&self, i: usize) -> &Server {
        &self.shards[i]
    }

    /// The computed routing directory.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Enqueue an external message on its owning shard.
    pub fn enqueue_external(&self, queue: &str, xml: &str) -> Result<MsgId> {
        let dest = self.external_destination(queue, xml, &[])?;
        self.shards[dest].enqueue_external(queue, xml)
    }

    /// Enqueue with explicit property values on the owning shard. When the
    /// slicing key arrives as an explicit property this routes without
    /// parsing the payload.
    pub fn enqueue_external_with_props(
        &self,
        queue: &str,
        xml: &str,
        explicit: &[(String, Atomic)],
    ) -> Result<MsgId> {
        let dest = self.external_destination(queue, xml, explicit)?;
        self.shards[dest].enqueue_external_with_props(queue, xml, explicit)
    }

    /// The shard a fresh external message is homed on. Must agree with the
    /// engine-side routing check, so explicit key values go through the
    /// same `xs:` cast that property computation applies.
    fn external_destination(
        &self,
        queue: &str,
        xml: &str,
        explicit: &[(String, Atomic)],
    ) -> Result<usize> {
        if self.placement.shards <= 1 {
            return Ok(0);
        }
        let Some(kp) = self.placement.key_property(queue) else {
            return Ok(self.placement.route(queue, None));
        };
        let app = self.shards[0].app();
        if let Some((_, a)) = explicit.iter().find(|(n, _)| n == kp) {
            let raw = atomic_to_prop(a.clone());
            let v = match app.spec.properties.iter().find(|p| p.name == kp) {
                Some(pd) => cast_prop(raw, &pd.ty).map_err(EngineError::Compile)?,
                None => raw,
            };
            return Ok(self.placement.route(queue, Some(key_hash(&v))));
        }
        // Key not explicit: compute the full property set on a throwaway
        // parse (the destination shard recomputes it on the real enqueue;
        // properties are deterministic in payload + explicit values).
        let doc = parse_xml(xml).map_err(|e| EngineError::Xml(e.to_string()))?;
        let props = compute_properties(
            app,
            queue,
            &doc.root(),
            explicit,
            None,
            Vec::new(),
            self.clock.now(),
        )
        .map_err(|e| EngineError::Compile(e.to_string()))?;
        let key = demaq_store::types::prop(&props, kp).map(key_hash);
        Ok(self.placement.route(queue, key))
    }

    /// Drive everything to quiescence single-threaded: drain mailboxes,
    /// process messages, pump each shard's network machinery —
    /// fast-forwarding the shared virtual clock when idle. Returns the
    /// number of messages processed.
    pub fn run_until_idle(&self) -> Result<u64> {
        quiesce(&self.shards, &self.router)
    }

    /// Process everything schedulable with `threads_per_shard` workers
    /// pinned to each shard, until nothing is pending fleet-wide (see
    /// `drain`). Network/timer pumping is not performed inside; call
    /// [`Self::run_until_idle`] afterwards for gateway scenarios.
    pub fn process_all_parallel(&self, threads_per_shard: usize) -> Result<u64> {
        drain(&self.shards, &self.router, threads_per_shard)
    }

    /// Payload strings of all retained messages of a queue, merged across
    /// shards (shard order, arrival order within a shard).
    pub fn queue_bodies(&self, queue: &str) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.queue_bodies(queue)?);
        }
        Ok(out)
    }

    /// All retained messages of a queue, merged across shards.
    pub fn queue_messages(&self, queue: &str) -> Result<Vec<StoredMessage>> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.queue_messages(queue)?);
        }
        Ok(out)
    }

    /// Causal lineage of a message across the fleet, as
    /// [`Server::lineage`] gives it for one store: each message is read
    /// from the store of the shard that allocated its id (`id >> 48`), and
    /// descendants are collected from every shard, so chains that hop
    /// shards resolve from any of their messages.
    pub fn lineage(&self, msg: MsgId) -> Lineage {
        let stores: Vec<_> = self.shards.iter().map(|s| &**s.store()).collect();
        lineage::walk(self.shards[0].app(), &stores, msg)
    }

    /// Statistics over the shared metric registry (covers all shards).
    pub fn stats(&self) -> ServerStats {
        ServerStats::of(&self.obs)
    }

    /// Prometheus-style rendering of the shared registry.
    pub fn metrics_text(&self) -> String {
        metrics_text(&self.obs)
    }

    /// The shared observability context.
    pub fn metrics(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// Tail of the shared trace ring.
    pub fn trace_tail(&self, n: usize) -> Vec<TraceEvent> {
        self.obs.tracer.tail(n)
    }

    /// Run retention GC on every shard; returns total messages purged.
    pub fn gc(&self) -> Result<usize> {
        let mut purged = 0;
        for s in &self.shards {
            purged += s.gc()?;
        }
        Ok(purged)
    }

    /// GC + checkpoint on every shard.
    pub fn maintenance(&self) -> Result<usize> {
        let mut purged = 0;
        for s in &self.shards {
            purged += s.maintenance()?;
        }
        Ok(purged)
    }

    /// Advance the shared virtual clock.
    pub fn advance_time(&self, ms: i64) {
        self.clock.advance(ms);
    }
}

/// The one drain loop, for a fleet and for a standalone server alike:
/// process everything schedulable on `shards` with `workers_per_shard`
/// workers pinned to each, until the router's pending count (see
/// [`ShardRouter`]) reaches zero. A message may hop shards arbitrarily
/// often before that, and messages enqueued while the drain runs are
/// drained too, up to the first moment nothing is pending. A forward whose
/// ingest fails permanently on its destination shard is abandoned
/// *loudly*: the fleet still drains everything else, and the first such
/// error is returned.
pub(crate) fn drain(
    shards: &[Server],
    router: &ShardRouter,
    workers_per_shard: usize,
) -> Result<u64> {
    let drain = Drain {
        shards,
        router,
        processed: AtomicU64::new(0),
        failure: Mutex::new(None),
        ended: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        for s in shards {
            for _ in 0..workers_per_shard.max(1) {
                let drain = &drain;
                scope.spawn(move || drain.work(s));
            }
        }
    });
    match drain.failure.into_inner() {
        Some(e) => Err(e),
        None => Ok(drain.processed.into_inner()),
    }
}

/// What the workers of one [`drain`] share.
struct Drain<'a> {
    shards: &'a [Server],
    router: &'a ShardRouter,
    processed: AtomicU64,
    failure: Mutex<Option<EngineError>>,
    /// Set when the first worker leaves. Its read of `pending == 0` ends
    /// the drain for every worker: an enqueue may land on its shard right
    /// after, and a peer must not wait for work nobody is left to do.
    ended: AtomicBool,
}

impl Drain<'_> {
    /// One pinned worker: land forwards, process its shard's scheduler,
    /// park when idle until the fleet has drained.
    fn work(&self, s: &Server) {
        let _leave = Leave(self);
        let me = s.shard_index();
        loop {
            // Land forwarded messages first so cross-shard work is
            // scheduled before the idle check below can observe a drained
            // fleet.
            while let Some(f) = self.router.take(me) {
                if let Err(e) = land_forward(s, self.router, &f) {
                    self.failure.lock().get_or_insert(e);
                }
            }
            match s.process_next() {
                Ok(false) => {}
                outcome => {
                    if outcome.is_ok() {
                        self.processed.fetch_add(1, Ordering::Relaxed);
                    }
                    if self.router.drained() {
                        self.wake_all();
                    }
                    continue;
                }
            }
            if !self.router.mailbox_empty(me) {
                continue;
            }
            // Nothing to do: the durability barrier, before parking or
            // leaving. Forwards it releases are already counted in
            // `pending`, so the fleet cannot terminate under them.
            match s.durability_barrier() {
                Ok(false) => {}
                Ok(true) => continue,
                Err(e) => {
                    self.failure.lock().get_or_insert(e);
                }
            }
            if self.ended.load(Ordering::SeqCst) || self.router.drained() {
                return;
            }
            // Park until a push, requeue or forward signals new work; the
            // timeout is a backstop re-checking termination.
            s.sched()
                .park(Duration::from_millis(2), || !self.router.mailbox_empty(me));
        }
    }

    /// Wake parked workers on every shard so they observe termination
    /// without waiting out the park timeout.
    fn wake_all(&self) {
        self.shards.iter().for_each(|t| t.sched().wake_all());
    }
}

/// A worker leaving ends the drain — also when it leaves by panicking, so
/// its peers stop and the panic reaches the caller.
struct Leave<'a, 'b>(&'a Drain<'b>);

impl Drop for Leave<'_, '_> {
    fn drop(&mut self) {
        self.0.ended.store(true, Ordering::SeqCst);
        self.0.wake_all();
    }
}

/// The one run-until-idle loop, for a fleet and for a standalone server
/// alike: land forwards, process messages and pump each shard's network
/// machinery single-threaded, fast-forwarding the shared virtual clock
/// when idle. Returns the number of messages processed.
pub(crate) fn quiesce(shards: &[Server], router: &ShardRouter) -> Result<u64> {
    let clock = shards[0].clock();
    let mut processed = 0u64;
    loop {
        let mut progressed = false;
        for s in shards {
            while let Some(f) = router.take(s.shard_index()) {
                land_forward(s, router, &f)?;
                progressed = true;
            }
            while s.process_next()? {
                processed += 1;
                progressed = true;
            }
            progressed |= s.pump()?;
        }
        if progressed {
            continue;
        }
        // Nothing to do anywhere: the durability barrier on every shard —
        // only now, after a whole round without progress, so arrivals that
        // overlap share one sync. What it releases is the next round's work.
        for s in shards {
            progressed |= s.durability_barrier()?;
        }
        if progressed {
            continue;
        }
        // Idle: fast-forward a virtual clock to the next event.
        if !clock.is_virtual() {
            break;
        }
        match shards.iter().filter_map(Server::next_event_at).min() {
            Some(t) if t > clock.now() => clock.set(t),
            Some(_) => {}
            None => break,
        }
    }
    Ok(processed)
}

/// Ingest one forwarded message on its destination shard, then settle it.
/// The producing transaction already committed on the source shard, so
/// this must not silently drop: lock conflicts (the only failures that are
/// both transient and safely retryable — they abort before anything
/// commits) are retried with backoff; any other error is counted and
/// returned, and the forward is abandoned with its pending count released
/// so the fleet still drains.
fn land_forward(s: &Server, router: &ShardRouter, f: &Forwarded) -> Result<()> {
    let mut result = s.ingest_forwarded(f);
    for attempt in 0..3u32 {
        match &result {
            Err(EngineError::Store(StoreError::Deadlock))
            | Err(EngineError::Store(StoreError::LockTimeout)) => {
                std::thread::sleep(Duration::from_micros(100 << attempt));
                result = s.ingest_forwarded(f);
            }
            _ => break,
        }
    }
    if result.is_err() {
        router.ingest_errors.inc();
    }
    router.settle();
    result.map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A worker parked with a long timeout returns as soon as a forward
    /// is published to its shard, not when the timeout runs out.
    #[test]
    fn a_forward_wakes_its_parked_destination() {
        let router = Arc::new(ShardRouter::new(Placement::single(), &Obs::new()));
        let sched = router.scheduler(0);
        let publisher = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                router.publish(Forwarded {
                    dest: 0,
                    queue: "q".into(),
                    xml: "<m/>".into(),
                    doc: parse_xml("<m/>").unwrap(),
                    props: Vec::new().into(),
                    enqueued_at: 0,
                });
            })
        };
        let started = Instant::now();
        while router.mailbox_empty(0) {
            sched.park(Duration::from_secs(30), || !router.mailbox_empty(0));
        }
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(10), "{waited:?}");
        publisher.join().unwrap();
        assert!(router.take(0).is_some());
    }

    /// A key's shard must not move between builds: a deployment's stores
    /// hold the messages routed to them.
    #[test]
    fn key_hashes_are_pinned() {
        assert_eq!(key_hash(&PropValue::Int(5)), 0x07fd_46f1_b8fa_bb58);
        assert_eq!(key_hash(&PropValue::Str("k".into())), 0xcb36_30cf_ac4e_2def);
        assert_eq!(
            key_hash(&PropValue::DateTime(1_700_000_000_000)),
            0x83e9_48f0_d012_cc9a
        );
    }
}
