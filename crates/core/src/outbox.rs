//! The durable outbox: everything that leaves the process waits here for
//! the disk.
//!
//! Under [`SyncPolicy::Always`](demaq_store::SyncPolicy) a worker does not
//! wait for its own fsync: it commits with
//! [`MessageStore::commit_deferred`](demaq_store::MessageStore::commit_deferred)
//! and goes on to its next message. That is safe for everything that stays
//! inside the store's single redo-only WAL — but a cross-shard forward
//! lands in a *different* WAL and a gateway send leaves the process, and
//! neither may precede the durability of the commit that produced it (a
//! crash would replay the producer and emit the effect a second time, or
//! leave the effect behind with its cause gone). Such effects are held
//! here, ordered by their commit's durable target, and released by the
//! engine's durability barrier once the store's durable watermark covers
//! them. Its length paces a busy worker's barrier: one runs once 32
//! effects are held, so an effect waits behind at most 31 others, 256
//! commits, or until its worker idles, acks or runs maintenance. The
//! engine paces commits that ingest what lives only in memory (gateway
//! deliveries, timer echoes, landed forwards) the same way. Any other
//! commit does not hasten a sync: a crash may lose it, and recovery
//! redoes it from its still-unprocessed input.
//!
//! The outbox is memory-only: a crash between the covering sync and the
//! release loses the effect, exactly as a crash right after an immediate
//! send did before. Making the held record itself durable (ROADMAP 4a's
//! WAL-backed forward) plugs in here.

use crate::properties::{lineage_prop, system};
use crate::shard::Forwarded;
use demaq_obs::{Gauge, Histogram, Obs};
use demaq_store::{DurableTarget, StoredMessage};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Instant;

/// An effect visible outside this server's store.
pub(crate) enum Effect {
    /// Hand a prepared message to another shard (already counted in the
    /// router's pending total).
    Forward(Forwarded),
    /// Send a committed outgoing-gateway message.
    Send(StoredMessage),
}

impl Effect {
    /// `"forward"` or `"send"`, the queue the effect is headed for, and the
    /// message whose commit produced it: the trigger of a forward (its
    /// product's `parentMsg`), the gateway message of a send.
    pub(crate) fn describe(&self) -> (&'static str, &str, Option<u64>) {
        match self {
            Effect::Forward(f) => (
                "forward",
                &f.queue,
                lineage_prop(&f.props, system::PARENT_MSG),
            ),
            Effect::Send(msg) => ("send", &msg.queue, Some(msg.id.0)),
        }
    }
}

/// One effect waiting for its producing commit to become durable.
struct Held {
    effect: Effect,
    since: Instant,
}

#[derive(Default)]
struct Waiting {
    /// Keyed by (durable target, arrival number): release order is commit
    /// order, arrival order within one commit.
    held: BTreeMap<(DurableTarget, u64), Held>,
    arrivals: u64,
}

pub(crate) struct Outbox {
    waiting: Mutex<Waiting>,
    /// `demaq_engine_outbox_depth` — moved by deltas, so the shards of one
    /// deployment (one registry) add up.
    depth: Gauge,
    /// `demaq_engine_outbox_hold_ns` — commit to release.
    hold_ns: Histogram,
}

impl Outbox {
    pub(crate) fn new(obs: &Obs) -> Outbox {
        Outbox {
            waiting: Mutex::new(Waiting::default()),
            depth: obs.registry.gauge("demaq_engine_outbox_depth"),
            hold_ns: obs.registry.histogram("demaq_engine_outbox_hold_ns"),
        }
    }

    /// Hold `effect` until `after` is durable.
    pub(crate) fn hold(&self, after: DurableTarget, effect: Effect) {
        let mut w = self.waiting.lock();
        let arrival = w.arrivals;
        w.arrivals += 1;
        w.held.insert(
            (after, arrival),
            Held {
                effect,
                since: Instant::now(),
            },
        );
        self.depth.add(1);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.waiting.lock().held.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.waiting.lock().held.len()
    }

    /// Take every effect whose commit `durable` covers, in release order.
    /// The caller performs them with the outbox unlocked (performing one
    /// may commit, and so hold, again).
    pub(crate) fn release(&self, durable: DurableTarget) -> Vec<Effect> {
        let mut w = self.waiting.lock();
        let later = w.held.split_off(&(durable, u64::MAX));
        let due = std::mem::replace(&mut w.held, later);
        drop(w);
        self.depth.add(-(due.len() as i64));
        due.into_values()
            .map(|h| {
                self.hold_ns.record(h.since.elapsed());
                h.effect
            })
            .collect()
    }
}
