//! Two-phase lock manager with hierarchical granularities.
//!
//! The paper (Sec. 4.3) identifies slices as "a natural new granularity,
//! coarser than messages, but orthogonal to queues — by locking just the
//! affected slices, full serializability of the individual
//! message-processing transactions can be guaranteed without locking whole
//! queues". The engine picks a [`LockGranularity`]; benchmark E3 compares
//! them.
//!
//! There is no deadlock detection. Every transaction requests all its
//! locks before it evaluates anything, each key once, in ascending
//! [`LockKey`] order, so no wait-for cycle can form. A wait that outlives
//! the configured timeout fails with [`StoreError::LockTimeout`].

use crate::error::{Result, StoreError};
use crate::slice::SliceId;
use crate::types::{IdMap, Name, TxnId};
use demaq_obs::{Counter, Histogram, Registry};
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::Entry;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// What to lock when processing a message (engine configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockGranularity {
    /// Lock whole queues — simple, serializes all work per queue.
    Queue,
    /// Lock only the message's slices — the paper's proposed optimization
    /// for concurrency.
    Slice,
}

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// Lockable resources. Names are interned and slices are locked by
/// handle, so building a key never allocates. The derived order is the
/// global acquisition order: queues by name, then slices by handle.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockKey {
    Queue(Name),
    Slice(SliceId),
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

    fn len(&self) -> usize {
        self.first.iter().count() + self.rest.len()
    }

    fn is_empty(&self) -> bool {
        self.first.is_none() && self.rest.is_empty()
    }

    fn add(&mut self, txn: TxnId, mode: LockMode) {
        if self.first.is_none() {
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

    /// Only shared locks coexist.
    fn compatible(&self, mode: LockMode) -> bool {
        self.holders()
            .all(|&(_, held)| mode == LockMode::Shared && held == LockMode::Shared)
    }
}

#[derive(Default)]
struct LockState {
    /// Keyed by declared queue names and ids the process made — never by
    /// message content — so the fixed-seed hasher.
    locks: IdMap<LockKey, LockEntry>,
}

/// Registry handles for lock metrics (`demaq_store_lock_*`).
struct LockMetrics {
    acquisitions: Counter,
    wait_ns: Histogram,
    conflicts: Counter,
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

    /// Register lock metrics in `registry` (`demaq_store_lock_wait_ns`,
    /// acquisition/conflict/timeout counters). First attachment wins;
    /// later calls are ignored.
    pub fn attach_obs(&self, registry: &Registry) {
        // No deadlock can form (see the module doc), so this series stays
        // at 0. It stays registered for the readers that name it.
        registry.counter("demaq_store_lock_deadlocks_total");
        let _ = self.metrics.set(LockMetrics {
            acquisitions: registry.counter("demaq_store_lock_acquisitions_total"),
            wait_ns: registry.histogram("demaq_store_lock_wait_ns"),
            conflicts: registry.counter("demaq_store_lock_conflicts_total"),
            timeouts: registry.counter("demaq_store_lock_timeouts_total"),
        });
    }

    /// Acquire `key` in `mode` for `txn`, blocking if necessary. The key
    /// moves into the lock table; it is cloned only to wait. A
    /// transaction requests each key once, in ascending [`LockKey`] order.
    ///
    /// Errors with [`StoreError::LockTimeout`] once it has waited the
    /// configured timeout, counted from its first conflict.
    pub fn acquire(&self, txn: TxnId, key: LockKey, mode: LockMode) -> Result<()> {
        let mut state = self.state.lock();
        let mut waited_since: Option<Instant> = None;
        let mut key = key;
        let result = loop {
            let mut held_lock = match state.locks.entry(key) {
                Entry::Occupied(e) => e,
                Entry::Vacant(e) => {
                    // A lock nobody holds: take it without a second look.
                    e.insert(LockEntry::default()).add(txn, mode);
                    break Ok(());
                }
            };
            if held_lock.get().compatible(mode) {
                held_lock.get_mut().add(txn, mode);
                break Ok(());
            }
            // Conflict: the key leaves the table's entry only to wait.
            key = held_lock.key().clone();
            let since = *waited_since.get_or_insert_with(|| {
                if let Some(m) = self.metrics.get() {
                    m.conflicts.inc();
                }
                Instant::now()
            });
            // Every release wakes every waiter, so a wake-up must not
            // restart the wait.
            let left = self.timeout.saturating_sub(since.elapsed());
            if left.is_zero() || self.cv.wait_for(&mut state, left).timed_out() {
                break Err(StoreError::LockTimeout);
            }
        };
        drop(state);
        if let Some(m) = self.metrics.get() {
            m.acquisitions.inc();
            if let Some(since) = waited_since {
                m.wait_ns
                    .record_ns(since.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            if result.is_err() {
                m.timeouts.inc();
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
        self.cv.notify_all();
    }

    /// Number of currently held locks (test/diagnostic).
    pub fn held_count(&self) -> usize {
        self.state.lock().locks.values().map(LockEntry::len).sum()
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
    fn timeout_fires() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(t(1), qk("q"), LockMode::Exclusive).unwrap();
        let err = lm.acquire(t(2), qk("q"), LockMode::Shared).unwrap_err();
        assert!(matches!(err, StoreError::LockTimeout));
        lm.release_all(t(1));
    }

    #[test]
    fn timeout_counts_from_the_first_conflict() {
        // Releases of an unrelated key wake the waiter every 5 ms; its
        // 50 ms timeout still fires, not after the churn ends.
        use std::sync::atomic::{AtomicBool, Ordering};
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(t(1), qk("held"), LockMode::Exclusive).unwrap();
        let done = AtomicBool::new(false);
        let waited = std::thread::scope(|s| {
            s.spawn(|| {
                let until = Instant::now() + Duration::from_secs(5);
                for n in 100.. {
                    if done.load(Ordering::Relaxed) || Instant::now() > until {
                        break;
                    }
                    lm.acquire(t(n), qk("other"), LockMode::Exclusive).unwrap();
                    lm.release_all(t(n));
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
            let started = Instant::now();
            let err = lm.acquire(t(2), qk("held"), LockMode::Exclusive);
            done.store(true, Ordering::Relaxed);
            assert!(matches!(err, Err(StoreError::LockTimeout)));
            started.elapsed()
        });
        assert!(waited < Duration::from_secs(2), "waited {waited:?}");
    }

    #[test]
    fn a_waiter_woken_by_unrelated_releases_counts_one_conflict() {
        let registry = Registry::new();
        let lm = LockManager::default();
        lm.attach_obs(&registry);
        let conflicts = || registry.counter_total("demaq_store_lock_conflicts_total");
        lm.acquire(t(1), qk("held"), LockMode::Exclusive).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| lm.acquire(t(2), qk("held"), LockMode::Exclusive));
            while conflicts() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Every release wakes the waiter, which finds "held" still
            // taken and waits again.
            for n in 100..105 {
                lm.acquire(t(n), qk("other"), LockMode::Exclusive).unwrap();
                lm.release_all(t(n));
                std::thread::sleep(Duration::from_millis(2));
            }
            lm.release_all(t(1));
            waiter.join().unwrap().unwrap();
        });
        assert_eq!(conflicts(), 1);
        lm.release_all(t(2));
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
    fn key_order_is_queues_by_name_then_slices() {
        let mut idx = crate::slice::SliceIndex::new();
        let s0 = LockKey::Slice(idx.resolve("a", &crate::PropValue::Str("1".into())));
        let s1 = LockKey::Slice(idx.resolve("a", &crate::PropValue::Str("0".into())));
        assert!(qk("a") < qk("b") && qk("b") < qk("ba"));
        assert!(qk("zz") < s0 && s0 < s1);
    }
}
