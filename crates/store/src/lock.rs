//! Two-phase lock manager with hierarchical granularities.
//!
//! The paper (Sec. 4.3) identifies slices as "a natural new granularity,
//! coarser than messages, but orthogonal to queues — by locking just the
//! affected slices, full serializability of the individual
//! message-processing transactions can be guaranteed without locking whole
//! queues". The engine picks a [`LockGranularity`]; benchmark E3 compares
//! them.
//!
//! Deadlocks are detected by cycle search in the wait-for graph; the
//! youngest transaction in the cycle is the victim.

use crate::error::{Result, StoreError};
use crate::slice::SliceId;
use crate::types::{IdMap, MsgId, Name, TxnId};
use demaq_obs::{Counter, Histogram, Registry};
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// What to lock when processing a message (engine configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockGranularity {
    /// Lock whole queues — simple, serializes all work per queue.
    Queue,
    /// Lock individual slices (plus per-message locks) — the paper's
    /// proposed optimization for concurrency.
    Slice,
}

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// Lockable resources. Names are interned and slices are locked by
/// handle, so building a key never allocates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LockKey {
    Queue(Name),
    Slice(SliceId),
    Message(MsgId),
}

/// The holders of one lock. Most locks have one, which lives inline: a
/// lock taken and released by one transaction allocates nothing here.
#[derive(Default)]
struct LockEntry {
    first: Option<(TxnId, LockMode)>,
    rest: Vec<(TxnId, LockMode)>,
}

impl LockEntry {
    fn holders(&self) -> impl Iterator<Item = &(TxnId, LockMode)> {
        self.first.iter().chain(&self.rest)
    }

    fn held_by(&self, txn: TxnId) -> Option<LockMode> {
        self.holders().find(|(t, _)| *t == txn).map(|&(_, m)| m)
    }

    fn len(&self) -> usize {
        self.first.iter().count() + self.rest.len()
    }

    fn is_empty(&self) -> bool {
        self.first.is_none() && self.rest.is_empty()
    }

    /// Record `txn` as a holder in `mode`, replacing its earlier mode.
    fn set(&mut self, txn: TxnId, mode: LockMode) {
        let mut holders = self.first.iter_mut().chain(&mut self.rest);
        if let Some(slot) = holders.find(|(t, _)| *t == txn) {
            slot.1 = mode;
        } else if self.first.is_none() {
            self.first = Some((txn, mode));
        } else {
            self.rest.push((txn, mode));
        }
    }

    fn remove(&mut self, txn: TxnId) {
        if self.first.is_some_and(|(t, _)| t == txn) {
            self.first = self.rest.pop();
        } else {
            self.rest.retain(|(t, _)| *t != txn);
        }
    }

    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        for &(holder, held) in self.holders() {
            if holder == txn {
                continue; // re-entrant; upgrade checked below
            }
            if mode == LockMode::Exclusive || held == LockMode::Exclusive {
                return false;
            }
        }
        true
    }
}

#[derive(Default)]
struct LockState {
    /// Keyed by declared queue names and ids the process made — never by
    /// message content — so the fixed-seed hasher.
    locks: IdMap<LockKey, LockEntry>,
    waits_for: IdMap<TxnId, HashSet<TxnId>>,
    /// Number of acquisitions that had to block on a conflict (benchmark
    /// E3's contention metric).
    blocked_acquisitions: u64,
}

impl LockState {
    /// Does adding edges `from -> tos` close a cycle through `from`?
    fn would_deadlock(&self, from: TxnId) -> bool {
        // DFS from each of `from`'s targets looking for `from`.
        let mut stack: Vec<TxnId> = self
            .waits_for
            .get(&from)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == from {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = self.waits_for.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

/// Registry handles for lock contention metrics
/// (`demaq_store_lock_*`).
struct LockMetrics {
    wait_ns: Histogram,
    conflicts: Counter,
    deadlocks: Counter,
    timeouts: Counter,
}

/// The lock manager.
pub struct LockManager {
    state: Mutex<LockState>,
    cv: Condvar,
    timeout: Duration,
    metrics: OnceLock<LockMetrics>,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(Duration::from_secs(5))
    }
}

impl LockManager {
    pub fn new(timeout: Duration) -> LockManager {
        LockManager {
            state: Mutex::new(LockState::default()),
            cv: Condvar::new(),
            timeout,
            metrics: OnceLock::new(),
        }
    }

    /// Register lock contention metrics in `registry`
    /// (`demaq_store_lock_wait_ns`, conflict/deadlock/timeout counters).
    /// First attachment wins; later calls are ignored.
    pub fn attach_obs(&self, registry: &Registry) {
        let _ = self.metrics.set(LockMetrics {
            wait_ns: registry.histogram("demaq_store_lock_wait_ns"),
            conflicts: registry.counter("demaq_store_lock_conflicts_total"),
            deadlocks: registry.counter("demaq_store_lock_deadlocks_total"),
            timeouts: registry.counter("demaq_store_lock_timeouts_total"),
        });
    }

    /// Acquire `key` in `mode` for `txn`, blocking if necessary. The key
    /// moves into the lock table; it is cloned only to wait.
    ///
    /// Errors with [`StoreError::Deadlock`] when this request would close a
    /// wait-for cycle, or [`StoreError::LockTimeout`] after the configured
    /// timeout.
    pub fn acquire(&self, txn: TxnId, key: LockKey, mode: LockMode) -> Result<()> {
        let mut state = self.state.lock();
        let mut waited_since: Option<Instant> = None;
        let mut key = key;
        let result = loop {
            let mut held_lock = match state.locks.entry(key) {
                Entry::Occupied(e) => e,
                Entry::Vacant(e) => {
                    // A lock nobody holds: take it without a second look.
                    e.insert(LockEntry::default()).set(txn, mode);
                    break Ok(());
                }
            };
            let entry = held_lock.get_mut();
            // Upgrade: sole holder may strengthen shared -> exclusive.
            if let Some(held) = entry.held_by(txn) {
                if held == LockMode::Exclusive || mode == LockMode::Shared {
                    break Ok(());
                }
                if entry.len() == 1 {
                    entry.set(txn, LockMode::Exclusive);
                    break Ok(());
                }
            } else if entry.compatible(txn, mode) {
                entry.set(txn, mode);
                break Ok(());
            }
            // Conflict: record wait-for edges and check for a cycle.
            let blockers: HashSet<TxnId> = entry
                .holders()
                .map(|&(h, _)| h)
                .filter(|&h| h != txn)
                .collect();
            // The key leaves the table's entry only for the retry.
            key = held_lock.key().clone();
            state.blocked_acquisitions += 1;
            if waited_since.is_none() {
                waited_since = Some(Instant::now());
                if let Some(m) = self.metrics.get() {
                    m.conflicts.inc();
                }
            }
            state.waits_for.insert(txn, blockers);
            if state.would_deadlock(txn) {
                state.waits_for.remove(&txn);
                break Err(StoreError::Deadlock);
            }
            let timed_out = self.cv.wait_for(&mut state, self.timeout).timed_out();
            state.waits_for.remove(&txn);
            if timed_out {
                break Err(StoreError::LockTimeout);
            }
        };
        drop(state);
        if let Some(m) = self.metrics.get() {
            if let Some(since) = waited_since {
                m.wait_ns
                    .record_ns(since.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            match &result {
                Err(StoreError::Deadlock) => m.deadlocks.inc(),
                Err(StoreError::LockTimeout) => m.timeouts.inc(),
                _ => {}
            }
        }
        result
    }

    /// Release every lock held by `txn` (strict 2PL: all at end).
    pub fn release_all(&self, txn: TxnId) {
        let mut state = self.state.lock();
        state.locks.retain(|_, entry| {
            entry.remove(txn);
            !entry.is_empty()
        });
        state.waits_for.remove(&txn);
        self.cv.notify_all();
    }

    /// Number of currently held locks (test/diagnostic).
    pub fn held_count(&self) -> usize {
        self.state.lock().locks.values().map(LockEntry::len).sum()
    }

    /// How many acquisitions had to block on a conflict since creation —
    /// the contention metric of benchmark E3 ("without locking whole
    /// queues", paper Sec. 4.3).
    pub fn blocked_acquisitions(&self) -> u64 {
        self.state.lock().blocked_acquisitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    fn qk(n: &str) -> LockKey {
        LockKey::Queue(n.into())
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::default();
        lm.acquire(t(1), qk("q"), LockMode::Shared).unwrap();
        lm.acquire(t(2), qk("q"), LockMode::Shared).unwrap();
        assert_eq!(lm.held_count(), 2);
        lm.release_all(t(1));
        lm.release_all(t(2));
        assert_eq!(lm.held_count(), 0);
    }

    #[test]
    fn exclusive_blocks_until_release() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(t(1), qk("q"), LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = std::thread::spawn(move || lm2.acquire(t(2), qk("q"), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(50));
        lm.release_all(t(1));
        h.join().unwrap().unwrap();
        lm.release_all(t(2));
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::default();
        lm.acquire(t(1), qk("q"), LockMode::Shared).unwrap();
        lm.acquire(t(1), qk("q"), LockMode::Shared).unwrap();
        lm.acquire(t(1), qk("q"), LockMode::Exclusive).unwrap(); // sole holder upgrade
        assert_eq!(lm.held_count(), 1);
        lm.release_all(t(1));
    }

    #[test]
    fn deadlock_detected() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        lm.acquire(t(1), qk("a"), LockMode::Exclusive).unwrap();
        lm.acquire(t(2), qk("b"), LockMode::Exclusive).unwrap();
        // t2 waits for a (held by t1) in a thread…
        let lm2 = Arc::clone(&lm);
        let h = std::thread::spawn(move || {
            let r = lm2.acquire(t(2), qk("a"), LockMode::Exclusive);
            lm2.release_all(t(2));
            r
        });
        std::thread::sleep(Duration::from_millis(100));
        // …then t1 requests b: cycle t1 -> t2 -> t1 must be detected on one
        // side or the other.
        let r1 = lm.acquire(t(1), qk("b"), LockMode::Exclusive);
        let deadlocked_here = matches!(r1, Err(StoreError::Deadlock));
        lm.release_all(t(1));
        let r2 = h.join().unwrap();
        assert!(
            deadlocked_here || matches!(r2, Err(StoreError::Deadlock)),
            "one of the two transactions must be chosen as victim: {r1:?} / {r2:?}"
        );
    }

    #[test]
    fn timeout_fires() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(t(1), qk("q"), LockMode::Exclusive).unwrap();
        let err = lm.acquire(t(2), qk("q"), LockMode::Shared).unwrap_err();
        assert!(matches!(err, StoreError::LockTimeout));
        lm.release_all(t(1));
    }

    #[test]
    fn slice_locks_are_independent() {
        let lm = LockManager::default();
        let mut idx = crate::slice::SliceIndex::new();
        let k1 = LockKey::Slice(idx.resolve("orders", &crate::PropValue::Str("23".into())));
        let k2 = LockKey::Slice(idx.resolve("orders", &crate::PropValue::Str("42".into())));
        lm.acquire(t(1), k1, LockMode::Exclusive).unwrap();
        // A different slice of the same slicing does not conflict.
        lm.acquire(t(2), k2, LockMode::Exclusive).unwrap();
        lm.release_all(t(1));
        lm.release_all(t(2));
    }

    #[test]
    fn message_locks() {
        let lm = LockManager::default();
        lm.acquire(t(1), LockKey::Message(MsgId(5)), LockMode::Exclusive)
            .unwrap();
        lm.acquire(t(2), LockKey::Message(MsgId(6)), LockMode::Exclusive)
            .unwrap();
        lm.release_all(t(1));
        lm.release_all(t(2));
    }
}
