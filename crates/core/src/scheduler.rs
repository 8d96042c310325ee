//! The message scheduler (paper Sec. 3.1 / 4.4.2).
//!
//! "The scheduler maintains a list of all unprocessed messages and chooses
//! the next message to be handled, considering both their temporal
//! ordering and the priority of the containing queues. Thus, a message in
//! a high priority queue may be processed before another one stored in a
//! queue with a lower priority, even if it has been created more recently."

use demaq_store::{IdSet, MsgId, Name};
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Backlog slots kept once the backlog is gone: the pop that empties it
/// hands a burst's larger buffers back, so an idle engine does not keep them.
const IDLE_SLOTS: usize = 64;

/// One schedulable unit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WorkItem {
    priority: i32,
    /// Arrival order: lower sequence number first within a priority class.
    /// Assigned by the scheduler at push time — message ids are *not* a
    /// reliable arrival proxy (concurrent transactions commit out of id
    /// order, and requeued retries must be able to rejoin the front).
    seq: Reverse<i64>,
    msg: MsgId,
    queue: Name,
}

impl PartialOrd for WorkItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorkItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: highest priority first, then earliest arrival; message
        // id as the final tiebreak for a total order.
        (self.priority, &self.seq, Reverse(self.msg)).cmp(&(
            other.priority,
            &other.seq,
            Reverse(other.msg),
        ))
    }
}

/// Priority/arrival-order scheduler over unprocessed messages.
#[derive(Default)]
pub struct Scheduler {
    inner: Mutex<SchedState>,
    /// Signaled on push/requeue so idle workers can park instead of
    /// busy-spinning (see [`Scheduler::park`]).
    work_available: Condvar,
    /// Workers parked (or about to): who [`Scheduler::wake_parked`]
    /// signals, when there is anyone.
    parked: AtomicUsize,
}

#[derive(Default)]
struct SchedState {
    heap: BinaryHeap<WorkItem>,
    /// Guards against double-scheduling (e.g. recovery + runtime).
    queued: IdSet<MsgId>,
    /// Last arrival sequence handed out (counts up per push).
    last_back: i64,
    /// Last front-of-class sequence handed out (counts down per requeue,
    /// so retries run before messages that arrived after them).
    last_front: i64,
}

impl Scheduler {
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    /// Add an unprocessed message at the back of its priority class.
    /// Returns whether it was inserted (`false` = already scheduled). The
    /// engine passes the queue's interned name: a refcount, no copy.
    pub fn push(&self, msg: MsgId, queue: impl Into<Name>, priority: i32) -> bool {
        self.insert(msg, queue.into(), priority, 1)
    }

    /// Claim the next message to process.
    pub fn pop(&self) -> Option<(MsgId, Name)> {
        let mut st = self.inner.lock();
        let item = st.heap.pop()?;
        st.queued.remove(&item.msg);
        if st.heap.is_empty() && st.heap.capacity() > IDLE_SLOTS {
            st.heap.shrink_to(IDLE_SLOTS);
            st.queued.shrink_to(IDLE_SLOTS);
        }
        Some((item.msg, item.queue))
    }

    /// Put a message back (lock-timeout retry) — it rejoins
    /// the *front* of its priority class, keeping its place ahead of work
    /// that arrived later. Returns whether it was inserted.
    pub fn requeue(&self, msg: MsgId, queue: impl Into<Name>, priority: i32) -> bool {
        self.insert(msg, queue.into(), priority, -1)
    }

    /// Schedule `msg` unless it already is, at the back of its priority
    /// class (`step` 1) or at the front (`step` -1).
    fn insert(&self, msg: MsgId, queue: Name, priority: i32, step: i64) -> bool {
        let mut st = self.inner.lock();
        if !st.queued.insert(msg) {
            return false;
        }
        let last = if step > 0 {
            &mut st.last_back
        } else {
            &mut st.last_front
        };
        *last += step;
        let seq = Reverse(*last);
        st.heap.push(WorkItem {
            priority,
            seq,
            msg,
            queue,
        });
        self.work_available.notify_one();
        true
    }

    /// Park the calling worker until a push/requeue — or a
    /// [`Scheduler::wake_parked`] for work `elsewhere` reports — signals
    /// new work, or `timeout` elapses: the idle path of parallel
    /// processing, replacing a `yield_now` busy-spin. Returns immediately
    /// if work is already pending. The timeout is the caller's backstop
    /// for re-checking its own termination condition (all workers idle,
    /// nothing queued).
    pub fn park(&self, timeout: Duration, elsewhere: impl FnOnce() -> bool) {
        let mut st = self.inner.lock();
        // Counted before `elsewhere` is read, under the lock a waker takes
        // before it signals: work published after the read finds the count
        // and waits for the lock, which the wait below releases.
        self.parked.fetch_add(1, Ordering::SeqCst);
        if st.heap.is_empty() && !elsewhere() {
            self.work_available.wait_for(&mut st, timeout);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake the parked workers after publishing work they wait for
    /// outside the scheduler — and only then: with nobody parked this is
    /// one atomic read, no lock and no system call.
    pub fn wake_parked(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _st = self.inner.lock();
            self.work_available.notify_all();
        }
    }

    /// Wake every parked worker (used when processing may have drained, so
    /// parked workers observe termination without waiting out the timeout).
    pub fn wake_all(&self) {
        self.work_available.notify_all();
    }

    /// Pending count.
    pub fn len(&self) -> usize {
        self.inner.lock().heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_then_arrival() {
        let s = Scheduler::new();
        s.push(MsgId(1), "lo", 0);
        s.push(MsgId(2), "hi", 10);
        s.push(MsgId(3), "lo", 0);
        s.push(MsgId(4), "hi", 10);
        let order: Vec<MsgId> = std::iter::from_fn(|| s.pop().map(|(m, _)| m)).collect();
        // High-priority first (in arrival order), then low-priority.
        assert_eq!(order, [MsgId(2), MsgId(4), MsgId(1), MsgId(3)]);
    }

    #[test]
    fn fifo_within_queue() {
        let s = Scheduler::new();
        for i in 1..=5 {
            s.push(MsgId(i), "q", 0);
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop().map(|(m, _)| m.0)).collect();
        assert_eq!(order, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_drained_burst_hands_back_its_buffers() {
        let s = Scheduler::new();
        for i in 0..1000 {
            s.push(MsgId(i), "q", 0);
        }
        while s.pop().is_some() {}
        let st = s.inner.lock();
        assert!(
            st.heap.capacity() <= 2 * IDLE_SLOTS,
            "{}",
            st.heap.capacity()
        );
        assert!(
            st.queued.capacity() <= 2 * IDLE_SLOTS,
            "{}",
            st.queued.capacity()
        );
        drop(st);
        // A backlog that never outgrew the idle size keeps its buffer.
        for i in 0..10 {
            s.push(MsgId(i), "q", 0);
        }
        let cap = s.inner.lock().heap.capacity();
        while s.pop().is_some() {}
        assert_eq!(s.inner.lock().heap.capacity(), cap);
    }

    #[test]
    fn no_double_scheduling() {
        let s = Scheduler::new();
        s.push(MsgId(1), "q", 0);
        s.push(MsgId(1), "q", 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop().unwrap().0, MsgId(1));
        assert!(s.pop().is_none());
        // After popping it may be requeued (retry).
        s.requeue(MsgId(1), "q", 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn arrival_order_beats_id_order() {
        // Regression: ids are assigned at store.enqueue, but concurrent
        // transactions commit (and schedule) out of id order. FIFO within
        // a priority class must follow *push* order, not id order.
        let s = Scheduler::new();
        s.push(MsgId(10), "q", 0);
        s.push(MsgId(5), "q", 0);
        s.push(MsgId(7), "q", 0);
        let order: Vec<u64> = std::iter::from_fn(|| s.pop().map(|(m, _)| m.0)).collect();
        assert_eq!(order, [10, 5, 7]);
    }

    #[test]
    fn requeue_rejoins_front_of_priority_class() {
        let s = Scheduler::new();
        s.push(MsgId(1), "q", 0);
        s.push(MsgId(2), "q", 0);
        let (victim, _) = s.pop().unwrap();
        assert_eq!(victim, MsgId(1));
        s.push(MsgId(3), "q", 0);
        // The timed-out message retries before 2 and 3, which arrived later.
        s.requeue(victim, "q", 0);
        let order: Vec<u64> = std::iter::from_fn(|| s.pop().map(|(m, _)| m.0)).collect();
        assert_eq!(order, [1, 2, 3]);
        // But requeueing never overrides priority.
        s.push(MsgId(4), "lo", 0);
        s.requeue(MsgId(5), "lo", 0);
        s.push(MsgId(6), "hi", 9);
        let order: Vec<u64> = std::iter::from_fn(|| s.pop().map(|(m, _)| m.0)).collect();
        assert_eq!(order, [6, 5, 4]);
    }

    #[test]
    fn repeated_requeues_preserve_retry_order() {
        let s = Scheduler::new();
        // Two victims requeued in sequence: the later requeue runs first
        // (most recently preempted work resumes first), and both beat a
        // fresh arrival.
        s.requeue(MsgId(1), "q", 0);
        s.requeue(MsgId(2), "q", 0);
        s.push(MsgId(3), "q", 0);
        let order: Vec<u64> = std::iter::from_fn(|| s.pop().map(|(m, _)| m.0)).collect();
        assert_eq!(order, [2, 1, 3]);
    }

    #[test]
    fn park_wakes_on_push() {
        use std::sync::Arc;
        use std::time::Instant;
        let s = Arc::new(Scheduler::new());
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s2.push(MsgId(1), "q", 0);
        });
        let started = Instant::now();
        // Generous timeout: the push must wake us long before it.
        s.park(Duration::from_secs(10), || false);
        assert!(started.elapsed() < Duration::from_secs(5));
        t.join().unwrap();
        assert_eq!(s.pop().unwrap().0, MsgId(1));
    }

    #[test]
    fn park_returns_immediately_when_work_pending() {
        let s = Scheduler::new();
        s.push(MsgId(1), "q", 0);
        let started = std::time::Instant::now();
        s.park(Duration::from_secs(10), || false);
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn park_times_out_without_work() {
        let s = Scheduler::new();
        let started = std::time::Instant::now();
        s.park(Duration::from_millis(10), || false);
        assert!(started.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn negative_priorities_sort_last() {
        let s = Scheduler::new();
        s.push(MsgId(1), "bg", -5);
        s.push(MsgId(2), "fg", 0);
        assert_eq!(s.pop().unwrap().0, MsgId(2));
        assert_eq!(s.pop().unwrap().0, MsgId(1));
    }
}
