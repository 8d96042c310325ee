//! The durability policy: when a server syncs its WAL, and what waits for
//! the sync.
//!
//! A commit must be durable before anything outside the log depends on it
//! (Gray, "Queues Are Databases"). Every engine commit is deferred
//! ([`MessageStore::commit_deferred`](demaq_store::MessageStore::commit_deferred));
//! a forward to another shard's WAL, a gateway send and the answer to an
//! acknowledged enqueue wait for a durability barrier, one WAL sync that
//! covers every commit so far. [`Policy`] alone decides when one runs. It
//! does no I/O, reads no clock and holds no atomics: the engine reports
//! events to it under the outbox mutex and runs the barrier it asks for.
//! This module's tests check its guarantees over every reachable state:
//!
//! - no effect is released before its commit is durable;
//! - at most 32 ingests are unsynced (an ingest is a commit whose input
//!   lives only in memory: a crash that loses it loses the input);
//! - a held effect waits behind at most 31 others or 256 commits;
//! - an acknowledged commit is durable when its enqueue returns;
//! - every sync has exactly one reason.
//!
//! Under [`SyncPolicy::Batch`] nothing waits for the disk: the policy
//! never holds an effect and never asks for a barrier.

use demaq_store::store::SyncPolicy;

/// Held effects, or unsynced ingests, at which a barrier runs.
const BACKLOG: u64 = 32;

/// Unsynced commits at which a barrier runs while any effect is held or
/// any ingest unsynced.
const AGE: u64 = 8 * BACKLOG;

/// What a commit answers for, which decides what may wait on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommitKind {
    /// A rule transaction, or the processed-mark of a failed message: its
    /// input is a durable message, so recovery redoes a lost commit.
    Process,
    /// A gateway delivery, a timer echo, a landed forward or a routed
    /// transport error, committed here or handed to another shard: its
    /// input lives only in memory.
    Ingest,
    /// `enqueue_external*`: returning the id answers the caller, so the
    /// commit is durable first.
    Acked,
}

/// Why a durability barrier ran: the `reason` label of
/// `demaq_engine_durability_barriers_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BarrierReason {
    /// A worker found nothing to do.
    Idle,
    /// 32 effects were held or ingests unsynced, or 256 commits were
    /// unsynced while one was.
    Backlog,
    /// An acknowledged enqueue committed.
    Ack,
    /// Before GC, checkpoint, or drop.
    Maintenance,
}

impl BarrierReason {
    /// The labels, indexed by reason.
    pub(crate) const LABELS: [&'static str; 4] = ["idle", "backlog", "ack", "maintenance"];

    pub(crate) fn label(self) -> &'static str {
        Self::LABELS[self as usize]
    }
}

/// Commits and ingests reported so far. A barrier takes one when it is
/// decided and hands it back once its sync is done, so a commit reported
/// while the sync ran stays counted.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Mark {
    commits: u64,
    ingests: u64,
}

/// The durability policy of one server.
#[derive(Debug, Clone, Default)]
pub(crate) struct Policy {
    /// [`SyncPolicy::Always`].
    defer: bool,
    held: u64,
    reported: Mark,
    synced: Mark,
}

impl Policy {
    pub(crate) fn new(sync: SyncPolicy) -> Policy {
        let defer = sync == SyncPolicy::Always;
        Policy {
            defer,
            ..Policy::default()
        }
    }

    /// An effect of a commit is ready to leave the process: whether it
    /// waits for the commit's durability (and counts as held) or goes out
    /// at once.
    pub(crate) fn hold(&mut self) -> bool {
        self.held += self.defer as u64;
        self.defer
    }

    /// A commit, with its effects held, or the hand-off of an ingest to
    /// another shard.
    pub(crate) fn committed(&mut self, kind: CommitKind) -> Option<BarrierReason> {
        if !self.defer {
            return None;
        }
        self.reported.commits += 1;
        self.reported.ingests += (kind == CommitKind::Ingest) as u64;
        if kind == CommitKind::Acked {
            return Some(BarrierReason::Ack);
        }
        let (commits, ingests) = self.unsynced();
        let waiting = self.held + ingests > 0;
        let due = self.held >= BACKLOG || ingests >= BACKLOG || (waiting && commits >= AGE);
        due.then_some(BarrierReason::Backlog)
    }

    /// A worker found nothing to do.
    pub(crate) fn idle(&self) -> Option<BarrierReason> {
        self.pending().then_some(BarrierReason::Idle)
    }

    /// GC, checkpoint or drop is about to run.
    pub(crate) fn maintenance(&self) -> Option<BarrierReason> {
        self.pending().then_some(BarrierReason::Maintenance)
    }

    /// What a barrier decided now covers once its sync is done.
    pub(crate) fn mark(&self) -> Mark {
        self.reported
    }

    /// A barrier's sync covered `covered`, and `released` held effects
    /// went out.
    pub(crate) fn synced(&mut self, covered: Mark, released: usize) {
        self.synced.commits = self.synced.commits.max(covered.commits);
        self.synced.ingests = self.synced.ingests.max(covered.ingests);
        self.held -= released as u64;
    }

    /// Unsynced commits and ingests.
    fn unsynced(&self) -> (u64, u64) {
        (
            self.reported.commits - self.synced.commits,
            self.reported.ingests - self.synced.ingests,
        )
    }

    fn pending(&self) -> bool {
        self.held > 0 || self.unsynced().0 > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// An engine event, as the engine reports it: a commit appends to the
    /// log, holds its effects, then asks the policy.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        Commit(CommitKind, u64),
        Idle,
        Maintenance,
    }

    /// Every event, with up to two effects per processing commit and one
    /// per ingest or acknowledged enqueue (a send of a gateway-bound
    /// enqueue, a forward of a remote-homed one).
    const EVENTS: [Event; 9] = [
        Event::Commit(CommitKind::Process, 0),
        Event::Commit(CommitKind::Process, 1),
        Event::Commit(CommitKind::Process, 2),
        Event::Commit(CommitKind::Ingest, 0),
        Event::Commit(CommitKind::Ingest, 1),
        Event::Commit(CommitKind::Acked, 0),
        Event::Commit(CommitKind::Acked, 1),
        Event::Idle,
        Event::Maintenance,
    ];

    /// A policy and the log it drives. A sync makes every commit so far
    /// durable and releases every held effect; counts are relative to the
    /// last sync, so the state space is finite below a cap on `unsynced`.
    #[derive(Debug, Clone)]
    struct Model {
        policy: Policy,
        /// Commits appended since the last sync.
        unsynced: u64,
        /// Ingests among them.
        ingests: u64,
        /// Effects waiting for a sync (all of them of unsynced commits).
        held: u64,
    }

    impl Model {
        fn new(sync: SyncPolicy) -> Model {
            Model {
                policy: Policy::new(sync),
                unsynced: 0,
                ingests: 0,
                held: 0,
            }
        }

        /// The state with the policy's counters rebased on its last sync
        /// (what it decides depends on differences only), packed.
        fn key(&self) -> u128 {
            let p = &self.policy;
            let (commits, ingests) = p.unsynced();
            [
                p.defer as u64,
                p.held,
                commits,
                ingests,
                self.unsynced,
                self.ingests,
                self.held,
            ]
            .iter()
            .fold(0, |key, &field| key << 16 | u128::from(field.min(0xFFFF)))
        }

        /// Apply `event`; `Err` names the guarantee it broke.
        fn step(&mut self, event: Event) -> Result<(), &'static str> {
            let (reason, allowed) = match event {
                Event::Commit(kind, effects) => {
                    self.unsynced += 1;
                    self.ingests += (kind == CommitKind::Ingest) as u64;
                    for _ in 0..effects {
                        if !self.policy.hold() {
                            return Err("an effect was released before its commit was durable");
                        }
                        self.held += 1;
                    }
                    let allowed = match kind {
                        CommitKind::Acked => BarrierReason::Ack,
                        _ => BarrierReason::Backlog,
                    };
                    (self.policy.committed(kind), allowed)
                }
                Event::Idle => (self.policy.idle(), BarrierReason::Idle),
                Event::Maintenance => (self.policy.maintenance(), BarrierReason::Maintenance),
            };
            if let Some(reason) = reason {
                if reason != allowed {
                    return Err("a sync ran for a reason its event does not give");
                }
                if self.unsynced == 0 && self.held == 0 {
                    return Err("a sync ran with nothing to cover");
                }
                let covered = self.policy.mark();
                let released = std::mem::take(&mut self.held);
                (self.unsynced, self.ingests) = (0, 0);
                self.policy.synced(covered, released as usize);
            }
            match event {
                Event::Commit(CommitKind::Acked, _) if self.unsynced > 0 => {
                    Err("an acknowledged commit was not durable when its enqueue returned")
                }
                Event::Idle | Event::Maintenance if self.unsynced + self.held > 0 => {
                    Err("an idle or maintenance barrier left commits unsynced or effects held")
                }
                _ if self.ingests >= BACKLOG => Err("32 ingests were unsynced after an event"),
                _ if self.held >= BACKLOG => Err("a held effect waited behind 32 others"),
                _ if self.held + self.ingests > 0 && self.unsynced >= AGE => {
                    Err("a held effect or an ingest waited 256 commits")
                }
                _ => Ok(()),
            }
        }
    }

    /// Breadth-first over every state reachable under `SyncPolicy::Always`
    /// whose unsynced tail is at most two ages long; every event is applied
    /// to every such state and checked. Held effects and ingests keep the
    /// tail under one age, so the cap only stops local-only tails from
    /// growing without end.
    #[test]
    fn every_reachable_state_keeps_the_guarantees() {
        let start = Model::new(SyncPolicy::Always);
        let mut seen = HashSet::from([start.key()]);
        let mut frontier = vec![start];
        let mut transitions = 0u64;
        while let Some(state) = frontier.pop() {
            for event in EVENTS {
                let mut next = state.clone();
                transitions += 1;
                if let Err(broken) = next.step(event) {
                    panic!("{broken}: {event:?} from {state:?}");
                }
                if next.unsynced <= 2 * AGE && seen.insert(next.key()) {
                    frontier.push(next);
                }
            }
        }
        // Held effects and ingests below 32 each and a tail below 256, plus
        // the local-only tails: the whole space, not a corner of it.
        assert!(seen.len() > 100_000, "{} states", seen.len());
        println!("{} states, {transitions} transitions", seen.len());
    }

    #[test]
    fn batch_never_holds_and_never_syncs() {
        let mut m = Model::new(SyncPolicy::Batch);
        for _ in 0..3 {
            for event in EVENTS {
                if let Event::Commit(kind, effects) = event {
                    for _ in 0..effects {
                        assert!(!m.policy.hold());
                    }
                    assert_eq!(m.policy.committed(kind), None);
                }
            }
        }
        assert_eq!(m.policy.idle(), None);
        assert_eq!(m.policy.maintenance(), None);
    }

    /// Two barriers decided before either syncs: the later mark covers the
    /// commits between them, and the earlier one, handed back second,
    /// takes nothing back.
    #[test]
    fn a_stale_mark_uncounts_nothing() {
        let mut p = Policy::new(SyncPolicy::Always);
        p.committed(CommitKind::Ingest);
        let first = p.mark();
        p.committed(CommitKind::Ingest);
        let second = p.mark();
        p.committed(CommitKind::Ingest);
        p.synced(second, 0);
        p.synced(first, 0);
        assert_eq!(p.unsynced(), (1, 1));
    }
}
