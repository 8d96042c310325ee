//! The durable outbox: everything that leaves the process waits here for
//! the disk.
//!
//! A deferred commit is safe for everything that stays inside the store's
//! single redo-only WAL. But a cross-shard forward lands in a *different*
//! WAL and a gateway send leaves the process, and neither may precede the
//! durability of the commit that produced it: a crash would replay the
//! producer and emit the effect a second time, or leave the effect behind
//! with its cause gone. Such effects are held here, ordered by their
//! commit's durable target, and released by the engine's durability
//! barrier once the store's durable watermark covers them. The server's
//! [`Policy`] lives under the same mutex: it decides whether an effect is
//! held at all, and when the next barrier runs (see [`crate::durability`]).
//!
//! The outbox is memory-only: a crash between the covering sync and the
//! release loses the effect, exactly as a crash right after an immediate
//! send did before. Making the held record itself durable (ROADMAP 4a's
//! WAL-backed forward) plugs in here.

use crate::durability::{BarrierReason, Mark, Policy};
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
    policy: Policy,
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
    pub(crate) fn new(obs: &Obs, policy: Policy) -> Outbox {
        Outbox {
            waiting: Mutex::new(Waiting {
                policy,
                ..Waiting::default()
            }),
            depth: obs.registry.gauge("demaq_engine_outbox_depth"),
            hold_ns: obs.registry.histogram("demaq_engine_outbox_hold_ns"),
        }
    }

    /// Hold `effect` until `after` is durable, if the policy holds
    /// effects; else hand it back to go out at once.
    pub(crate) fn hold(&self, after: DurableTarget, effect: Effect) -> Option<Effect> {
        let mut w = self.waiting.lock();
        if !w.policy.hold() {
            return Some(effect);
        }
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
        None
    }

    /// Report an event to the policy: the barrier it asks for, with what
    /// the barrier will cover.
    pub(crate) fn decide(
        &self,
        event: impl FnOnce(&mut Policy) -> Option<BarrierReason>,
    ) -> Option<(BarrierReason, Mark)> {
        let mut w = self.waiting.lock();
        let reason = event(&mut w.policy)?;
        Some((reason, w.policy.mark()))
    }

    /// A barrier's sync covered `covered` and made `durable` the
    /// watermark: take every effect it covers, in release order. The
    /// caller performs them with the outbox unlocked (performing one may
    /// commit, and so hold, again).
    pub(crate) fn release(&self, durable: DurableTarget, covered: Mark) -> Vec<Effect> {
        let mut w = self.waiting.lock();
        let later = w.held.split_off(&(durable, u64::MAX));
        let due = std::mem::replace(&mut w.held, later);
        w.policy.synced(covered, due.len());
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
