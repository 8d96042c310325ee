//! The message store facade: queues, transactions, checkpoints, GC.

use crate::checkpoint::{SnapMessage, SnapQueue, SnapSlice, Snapshot};
use crate::error::{Result, StoreError};
use crate::lock::{LockGranularity, LockManager};
use crate::recovery;
use crate::slice::{BaseCells, MemberRead, SliceId, SliceIds, SliceIndex};
use crate::txn::{TxnBuf, TxnOp};
use crate::types::{
    prop, provenance, IdMap, LineageEdge, Lsn, MsgId, Name, PayloadBytes, PropValue, Props,
    QueueMode, StoredMessage, TxnId,
};
use crate::wal::{GroupCommitCfg, LogWriter};
use demaq_obs::{Counter, Gauge, Histogram, Obs};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Commit durability policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every commit blocks until an fsync covers its WAL frame — full
    /// durability (acked ⇒ durable), matches the paper's persistent
    /// business-process queues. Concurrent committers share fsyncs through
    /// the group-commit coordinator (see `wal::LogWriter::sync_to`).
    Always,
    /// Buffer commits; fsync at checkpoints or explicit `sync()`. A crash
    /// may lose the unsynced window — [`MessageStore::unsynced_commits`]
    /// reports its size.
    Batch,
}

/// Where in the store's WAL sequence a commit becomes durable: the segment
/// it was logged to and the byte offset right after its commit record.
/// Targets are totally ordered and stay meaningful across the WAL rotation
/// at checkpoint — the cut syncs the old segment before switching, so
/// every target in an older segment than the durable watermark's is
/// durable. Compare against [`MessageStore::durable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DurableTarget {
    segment: u64,
    offset: u64,
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Directory holding the store: the latest checkpoint (`ckpt.snap`,
    /// which carries every persistent payload) and the WAL segments that
    /// post-date it (`wal-*.log`).
    pub dir: PathBuf,
    pub sync: SyncPolicy,
    pub lock_granularity: LockGranularity,
    pub lock_timeout: Duration,
    /// Group commit: cap on how many commits one WAL fsync may cover.
    /// `<= 1` reverts to one fsync per commit, serialized under the append
    /// mutex (the E9 baseline).
    pub group_commit_max_batch: usize,
    /// Group commit: how long a sync leader waits for more committers to
    /// join its batch before fsyncing.
    pub group_commit_max_wait: Duration,
    /// Lowest message id this store may assign (exclusive base). A sharded
    /// deployment gives each shard a disjoint id range (e.g. shard *i*
    /// starts at `i << 48`) so ids stay globally unique across stores and
    /// cross-shard lineage edges never collide. Recovery takes the max of
    /// this and the recovered counter.
    pub msg_id_base: u64,
    /// Observability context to register store metrics in
    /// (`demaq_store_*`). `None` keeps a private, unexported registry.
    pub obs: Option<Arc<Obs>>,
}

impl StoreOptions {
    pub fn new(dir: impl Into<PathBuf>) -> StoreOptions {
        let gc = GroupCommitCfg::default();
        StoreOptions {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            lock_granularity: LockGranularity::Slice,
            lock_timeout: Duration::from_secs(5),
            group_commit_max_batch: gc.max_batch,
            group_commit_max_wait: gc.max_wait,
            msg_id_base: 0,
            obs: None,
        }
    }

    fn group_commit_cfg(&self) -> GroupCommitCfg {
        GroupCommitCfg {
            max_batch: self.group_commit_max_batch,
            max_wait: self.group_commit_max_wait,
        }
    }
}

/// Static queue description.
#[derive(Debug, Clone)]
pub struct QueueInfo {
    pub name: String,
    pub mode: QueueMode,
    /// Scheduler priority (higher = sooner; paper Sec. 2.1.1 / 4.4.2).
    pub priority: i32,
}

#[derive(Debug, Clone)]
struct MsgMeta {
    queue: Name,
    /// Resident for the message's whole life: reads are refcount bumps,
    /// never byte copies or UTF-8 revalidation. The WAL frame makes it
    /// durable until a checkpoint writes it into the snapshot.
    payload: PayloadBytes,
    props: Props,
    processed: bool,
    enqueued_at: i64,
    /// LSN of the WAL frame that logged the enqueue; `None` for a
    /// transient message.
    lsn: Option<Lsn>,
    /// The slices the message joined, resolved when each applied.
    slices: Option<SliceIds>,
}

impl MsgMeta {
    /// The message's causal edge, read from its provenance properties;
    /// `None` for a root.
    fn edge(&self, msg: MsgId) -> Option<LineageEdge> {
        let id = |name| match prop(&self.props, name) {
            Some(&PropValue::Int(id)) => u64::try_from(id).ok().map(MsgId),
            _ => None,
        };
        let parent = id(provenance::PARENT_MSG)?;
        Some(LineageEdge {
            msg,
            parent,
            root: id(provenance::ROOT_MSG).unwrap_or(parent),
            rule: match prop(&self.props, provenance::CREATING_RULE) {
                Some(PropValue::Str(rule)) => rule.as_str().into(),
                _ => "".into(),
            },
            queue: self.queue.clone(),
            lsn: self.lsn,
        })
    }
}

pub(crate) struct QueueState {
    pub(crate) info: QueueInfo,
    /// The queue's name, interned: every message and enqueue op of the
    /// queue shares it.
    pub(crate) name: Name,
    /// All retained messages in arrival order (processed ones included —
    /// the append-only model keeps them until the GC purges).
    pub(crate) messages: Vec<MsgId>,
    /// Lifetime token on the slices' clock (0 before the first insert),
    /// moved as a slice's is by any change but an append.
    token: u64,
}

impl QueueState {
    fn new(name: &str, mode: QueueMode, priority: i32) -> QueueState {
        QueueState {
            info: QueueInfo {
                name: name.to_string(),
                mode,
                priority,
            },
            name: name.into(),
            messages: Vec::new(),
            token: 0,
        }
    }
}

/// The queue `name`, created persistent if no declaration made it.
pub(crate) fn ensure_queue<'a>(
    queues: &'a mut HashMap<String, QueueState>,
    name: &str,
) -> &'a mut QueueState {
    let new = || QueueState::new(name, QueueMode::Persistent, 0);
    queues.entry(name.to_string()).or_insert_with(new)
}

/// A slice's handle, members with processed flags, token and base.
pub type NarrowView = (SliceId, Vec<(MsgId, bool)>, u64, BaseCells);

/// The logical (in-memory, WAL-backed) state.
#[derive(Default)]
pub(crate) struct Logical {
    pub(crate) queues: HashMap<String, QueueState>,
    pub(crate) messages: IdMap<MsgId, MsgMetaSlot>,
    pub(crate) slices: SliceIndex,
}

// Newtype wrapper so recovery can construct metas without exposing fields
// publicly.
pub(crate) struct MsgMetaSlot(MsgMeta);

impl Logical {
    /// Insert an unprocessed message, enqueued at `enqueued_at` by the
    /// frame at `lsn` if one logged it.
    pub(crate) fn insert_message(
        &mut self,
        id: MsgId,
        queue: &str,
        payload: PayloadBytes,
        props: Props,
        enqueued_at: i64,
        lsn: Option<Lsn>,
    ) {
        // One hash of the name while the queue exists.
        let qstate = match self.queues.get_mut(queue) {
            Some(q) => q,
            None => ensure_queue(&mut self.queues, queue),
        };
        self.messages.insert(
            id,
            MsgMetaSlot(MsgMeta {
                // Every message of a queue shares the queue's name.
                queue: Arc::clone(&qstate.name),
                payload,
                props,
                processed: false,
                enqueued_at,
                lsn,
                slices: None,
            }),
        );
        let messages = &mut qstate.messages;
        // Queue order is id (arrival) order. Concurrent transactions may
        // commit out of id order, so insert at the sorted position — almost
        // always the tail.
        let appended = match messages.last() {
            Some(&last) if last > id => {
                let pos = messages.binary_search(&id).unwrap_or_else(|p| p);
                messages.insert(pos, id);
                false
            }
            _ => {
                messages.push(id);
                true
            }
        };
        // Anything but an append invalidates whole-queue aggregate folds.
        if !appended || qstate.token == 0 {
            qstate.token = self.slices.tick();
        }
    }

    /// Record on `msg` the slices it joined and has not recorded yet.
    pub(crate) fn record_slices(&mut self, msg: MsgId) {
        if let Some(MsgMetaSlot(meta)) = self.messages.get_mut(&msg) {
            self.slices.record(msg, &mut meta.slices);
        }
    }

    /// Record on every message the slices it is a member of.
    pub(crate) fn record_all_slices(&mut self) {
        for (&id, MsgMetaSlot(meta)) in self.messages.iter_mut() {
            self.slices.record(id, &mut meta.slices);
        }
    }

    pub(crate) fn mark_processed(&mut self, msg: MsgId) {
        if let Some(m) = self.messages.get_mut(&msg) {
            m.0.processed = true;
        }
    }

    pub(crate) fn has_message(&self, msg: MsgId) -> bool {
        self.messages.contains_key(&msg)
    }

    pub(crate) fn message_is_persistent(&self, msg: MsgId) -> Option<bool> {
        let meta = self.messages.get(&msg)?;
        Some(self.queue_is_persistent(&meta.0.queue))
    }

    /// Whether `queue` logs its messages (an undeclared one does).
    fn queue_is_persistent(&self, queue: &str) -> bool {
        self.queues
            .get(queue)
            .map(|q| q.info.mode == QueueMode::Persistent)
            .unwrap_or(true)
    }
}

/// The transactional XML message store.
pub struct MessageStore {
    opts: StoreOptions,
    /// The live WAL segment. `Arc` so committers can hold the writer they
    /// appended to across a checkpoint rotation (their durability wait
    /// stays valid against the old segment).
    wal: Mutex<Arc<LogWriter>>,
    wal_index: AtomicU64,
    /// Sequences Phase 1 (WAL append) of `commit` and the handoff of the
    /// logical-apply job to the batch queue as one atomic step, so WAL
    /// replay order always equals runtime apply order. Checkpoints take it
    /// (and drain the apply queue) so a commit can never be caught between
    /// its WAL frame and its in-memory effects while a snapshot is cut.
    /// Lock order: `maintenance` → `commit_order` → `state` → `wal`;
    /// `apply` is only held briefly and never while waiting for `state`.
    commit_order: Mutex<()>,
    /// Batch-apply coordinator state (see [`MessageStore::apply_wait`]).
    apply: Mutex<ApplyState>,
    apply_cv: Condvar,
    /// Serializes checkpoints against each other: an earlier cut
    /// published after a later one would name a WAL segment the later one
    /// already deleted. Never taken by committers (or by GC, whose effects
    /// all happen under `state`), so a checkpoint's slow write outside
    /// `state` blocks nobody.
    maintenance: Mutex<()>,
    /// Lock manager — the engine acquires queue/slice/message locks here.
    pub locks: LockManager,
    state: RwLock<Logical>,
    txns: Mutex<IdMap<TxnId, TxnBuf>>,
    next_msg: AtomicU64,
    next_txn: AtomicU64,
    obs: Arc<Obs>,
    metrics: StoreMetrics,
}

/// One committed transaction's logical-apply work, queued (in WAL order)
/// for the batch-apply leader.
struct ApplyJob {
    buf: TxnBuf,
    /// LSN of the frame Phase 1 appended, if it logged one.
    lsn: Option<Lsn>,
}

/// Shared state of the batch-apply coordinator (leader/follower, modeled
/// on the WAL group-commit protocol in `wal::LogWriter::sync_to`).
struct ApplyState {
    /// Jobs appended under `commit_order` — FIFO order is WAL order.
    jobs: VecDeque<ApplyJob>,
    /// Sequence number of the next job pushed (assigned under
    /// `commit_order`, so contiguous and in WAL order).
    next_seq: u64,
    /// Every job with `seq < applied_seq` has been applied.
    applied_seq: u64,
    /// A leader is currently applying a batch under the state lock.
    leader_active: bool,
    /// Persistence flag of enqueues that are WAL-logged but not yet
    /// applied — lets Phase-1 classification of a later transaction see
    /// messages whose apply job is still queued.
    pending_persistent: IdMap<MsgId, bool>,
}

impl ApplyState {
    fn new() -> ApplyState {
        ApplyState {
            jobs: VecDeque::new(),
            next_seq: 0,
            applied_seq: 0,
            leader_active: false,
            pending_persistent: IdMap::default(),
        }
    }
}

/// Registry handles for store metrics (`demaq_store_*`), resolved once at
/// open so the commit path never touches the registry maps.
struct StoreMetrics {
    wal_flush_ns: Histogram,
    commits: Counter,
    aborts: Counter,
    checkpoints: Counter,
    gc_runs: Counter,
    /// Processed messages still resident only because a slice retains
    /// them — the backlog bounded-retention narrowing tries to shrink.
    /// Refreshed on every GC pass.
    retained_backlog: Gauge,
    /// Total payload bytes resident in the message map. Refreshed on
    /// every GC pass (also available on demand via
    /// [`MessageStore::resident_payload_bytes`]).
    resident_bytes: Gauge,
    /// Batches applied by an apply leader (batched mode only).
    apply_batches: Counter,
    /// Jobs per applied batch (value histogram, not nanoseconds).
    apply_batch_size: Histogram,
    /// Commits that waited for another committer's in-flight batch apply.
    apply_waits: Counter,
    /// Payload reads served by sharing the resident buffer (refcount
    /// bump) — the zero-copy path.
    payload_shared_reads: Counter,
    /// Payloads actually byte-copied: into a snapshot at a checkpoint, and
    /// out of one (plus UTF-8 validation) at recovery. Stays at zero on a
    /// pure drain path — commits never copy.
    payload_copies: Counter,
    /// Directory fsyncs: the one after each snapshot rename here, plus the
    /// WAL's one per new segment (`demaq_store_dir_syncs_total`).
    dir_syncs: Counter,
}

impl StoreMetrics {
    fn new(obs: &Obs) -> StoreMetrics {
        let r = &obs.registry;
        StoreMetrics {
            wal_flush_ns: r.histogram("demaq_store_wal_flush_ns"),
            commits: r.counter("demaq_store_commits_total"),
            aborts: r.counter("demaq_store_aborts_total"),
            checkpoints: r.counter("demaq_store_checkpoints_total"),
            gc_runs: r.counter("demaq_store_gc_runs_total"),
            retained_backlog: r.gauge("demaq_store_retained_processed_backlog"),
            resident_bytes: r.gauge("demaq_store_resident_payload_bytes"),
            apply_batches: r.counter("demaq_store_apply_batches_total"),
            apply_batch_size: r.histogram("demaq_store_apply_batch_size"),
            apply_waits: r.counter("demaq_store_apply_waits_total"),
            payload_shared_reads: r.counter("demaq_store_payload_shared_reads_total"),
            payload_copies: r.counter("demaq_store_payload_copies_total"),
            dir_syncs: r.counter("demaq_store_dir_syncs_total"),
        }
    }
}

impl MessageStore {
    /// Open (or create) a store, running crash recovery if needed.
    pub fn open(opts: StoreOptions) -> Result<MessageStore> {
        std::fs::create_dir_all(&opts.dir)?;
        let obs = opts.obs.clone().unwrap_or_else(Obs::new);
        let rec = recovery::recover(&opts.dir, &obs)?;
        let wal_path = opts.dir.join(format!("wal-{:06}.log", rec.wal_index));
        let wal = Arc::new(LogWriter::open(&wal_path, opts.group_commit_cfg())?);
        wal.attach_obs(&obs.registry);
        let locks = LockManager::new(opts.lock_timeout);
        locks.attach_obs(&obs.registry);
        let store = MessageStore {
            locks,
            wal: Mutex::new(wal),
            wal_index: AtomicU64::new(rec.wal_index),
            commit_order: Mutex::new(()),
            apply: Mutex::new(ApplyState::new()),
            apply_cv: Condvar::new(),
            maintenance: Mutex::new(()),
            state: RwLock::new(rec.logical),
            txns: Mutex::new(IdMap::default()),
            next_msg: AtomicU64::new(rec.next_msg.max(opts.msg_id_base + 1)),
            // Nothing durable names a transaction: ids only have to be
            // unique within this process.
            next_txn: AtomicU64::new(1),
            metrics: StoreMetrics::new(&obs),
            obs,
            opts,
        };
        // Note: deletions dropped by a crash are *re-derived* by the next
        // `gc()` call (paper Sec. 4.1: deletions are never logged) — the
        // engine triggers GC as background maintenance rather than at open.
        Ok(store)
    }

    /// Declare a queue. Idempotent: recovery may have pre-created it; this
    /// updates mode/priority to the application definition.
    pub fn create_queue(&self, name: &str, mode: QueueMode, priority: i32) -> Result<()> {
        let mut state = self.state.write();
        match state.queues.get_mut(name) {
            Some(q) => {
                q.info.mode = mode;
                q.info.priority = priority;
            }
            None => {
                state
                    .queues
                    .insert(name.to_string(), QueueState::new(name, mode, priority));
            }
        }
        Ok(())
    }

    /// All queue names.
    pub fn queue_names(&self) -> Vec<String> {
        self.state.read().queues.keys().cloned().collect()
    }

    // ---- transactions ------------------------------------------------------

    /// Begin a transaction.
    pub fn begin(&self) -> TxnId {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        self.txns.lock().insert(id, TxnBuf::new(id));
        id
    }

    fn with_txn<R>(&self, txn: TxnId, f: impl FnOnce(&mut TxnBuf) -> R) -> Result<R> {
        let mut txns = self.txns.lock();
        let buf = txns.get_mut(&txn).ok_or(StoreError::TxnClosed)?;
        Ok(f(buf))
    }

    /// Buffer an enqueue; the message id is assigned immediately so the
    /// caller can attach slice memberships in the same transaction. The
    /// op takes the queue's interned name and the caller's properties as
    /// they are: shared, not copied.
    pub fn enqueue(
        &self,
        txn: TxnId,
        queue: &str,
        payload: PayloadBytes,
        props: impl Into<Props>,
        enqueued_at: i64,
    ) -> Result<MsgId> {
        let queue = match self.state.read().queues.get(queue) {
            Some(q) => Arc::clone(&q.name),
            None => return Err(StoreError::NotFound(format!("queue `{queue}`"))),
        };
        let msg = MsgId(self.next_msg.fetch_add(1, Ordering::Relaxed));
        let props = props.into();
        self.with_txn(txn, |buf| {
            buf.ops.push(TxnOp::Enqueue {
                queue,
                msg,
                payload,
                props,
                enqueued_at,
            });
        })?;
        Ok(msg)
    }

    /// Buffer a processed-mark.
    pub fn mark_processed(&self, txn: TxnId, msg: MsgId) -> Result<()> {
        self.with_txn(txn, |buf| buf.ops.push(TxnOp::MarkProcessed { msg }))
    }

    /// Buffer a slice membership.
    pub fn slice_add(
        &self,
        txn: TxnId,
        slicing: impl Into<Name>,
        key: PropValue,
        msg: MsgId,
    ) -> Result<()> {
        let slicing = slicing.into();
        self.with_txn(txn, |buf| {
            buf.ops.push(TxnOp::SliceAdd { slicing, key, msg })
        })
    }

    /// Buffer a slice reset.
    pub fn slice_reset(&self, txn: TxnId, slicing: impl Into<Name>, key: PropValue) -> Result<()> {
        self.slice_reset_at(txn, None, slicing.into(), key)
    }

    /// Buffer a reset of `(slicing, key)`, applied by its handle `at` when
    /// the caller holds one; the log names the slice either way.
    pub fn slice_reset_at(
        &self,
        txn: TxnId,
        at: Option<SliceId>,
        slicing: Name,
        key: PropValue,
    ) -> Result<()> {
        self.with_txn(txn, |buf| {
            buf.ops.push(TxnOp::SliceReset { slicing, key, at })
        })
    }

    /// Commit: WAL-log the persistent effects, apply all effects, release
    /// locks, wait for durability per [`SyncPolicy`]. Returning *is* the
    /// acknowledgement: under [`SyncPolicy::Always`] the transaction is on
    /// disk.
    ///
    /// This is [`commit_deferred`](Self::commit_deferred) followed by the
    /// durability wait (Phase 3), which happens outside all ordering
    /// locks: concurrent committers batch into a shared fsync via the
    /// group-commit coordinator.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        let logged = self.commit_apply(txn)?;
        if let (Some((wal, target)), SyncPolicy::Always) = (&logged, self.opts.sync) {
            let flush_started = Instant::now();
            if self.opts.group_commit_max_batch <= 1 {
                wal.sync_each()?;
            } else {
                wal.sync_to(target.offset)?;
            }
            self.metrics.wal_flush_ns.record(flush_started.elapsed());
        }
        self.metrics.commits.inc();
        Ok(())
    }

    /// The first half of [`commit`](Self::commit): WAL append, LSN-ordered
    /// apply, lock release — everything but the durability wait. The
    /// transaction's effects are visible when this returns; it is durable
    /// once [`durable`](Self::durable) reaches the returned target, which
    /// the next [`barrier`](Self::barrier) (or any later waiting commit)
    /// brings about.
    ///
    /// Early visibility is safe because the log is redo-only and there is
    /// one of it: any transaction that reads these effects commits *after*
    /// this one in the same WAL, so whatever sync makes the reader durable
    /// covers this transaction too. What must not happen before the target
    /// is durable is an effect *outside* this WAL — an answer to a caller,
    /// a message to another store or process; holding those back is the
    /// caller's job. A transaction that logged nothing (transient queues
    /// only) returns the current end of the log: everything it can have
    /// read precedes that.
    pub fn commit_deferred(&self, txn: TxnId) -> Result<DurableTarget> {
        let logged = self.commit_apply(txn)?;
        self.metrics.commits.inc();
        Ok(match logged {
            Some((_, target)) => target,
            None => self.log_end(),
        })
    }

    /// Phases 1 and 2 of a commit plus the lock release; returns the WAL
    /// segment the transaction was logged to and its durable target
    /// (`None` when it had no persistent effects).
    ///
    /// Phase 1 (WAL append) runs under the `commit_order` mutex, and the
    /// logical-apply job is pushed onto the apply queue *under the same
    /// mutex* — so queue order equals WAL order. Phase 2 happens through
    /// the batch-apply coordinator ([`apply_wait`](Self::apply_wait)): one
    /// leader applies every queued job under a single `state` lock
    /// acquisition. The order effects become visible is exactly the order
    /// of frames in the WAL — replay order equals runtime order.
    fn commit_apply(&self, txn: TxnId) -> Result<Option<(Arc<LogWriter>, DurableTarget)>> {
        let buf = self.txns.lock().remove(&txn).ok_or(StoreError::TxnClosed)?;
        let mut logged: Option<(Arc<LogWriter>, DurableTarget)> = None;
        let seq = {
            let _order = self.commit_order.lock();
            // Phase 1: write-ahead logging (persistent effects only).
            // Enqueue persistence is remembered for the batch queue so a
            // later transaction's classification can see messages whose
            // apply job is still pending.
            let state = self.state.read();
            let mut enqueue_flags: Vec<(MsgId, bool)> = Vec::new();
            let persistent_ops: Vec<&TxnOp> = {
                let apply = self.apply.lock();
                buf.ops
                    .iter()
                    .filter(|op| {
                        let persistent =
                            self.op_is_persistent(&state, &apply.pending_persistent, &buf, op);
                        if let TxnOp::Enqueue { msg, .. } = op {
                            enqueue_flags.push((*msg, persistent));
                        }
                        persistent
                    })
                    .collect()
            };
            drop(state);
            // The frame's LSN, which Phase 2 gives each logged enqueue.
            let mut lsn = None;
            if !persistent_ops.is_empty() {
                // Segment and index cannot change under us: the checkpoint
                // cut swaps them while holding `commit_order`.
                let (wal, segment) = self.current_wal();
                let (offset, frame) = wal.append_txn(&persistent_ops)?;
                lsn = Some(frame);
                logged = Some((wal, DurableTarget { segment, offset }));
            }
            // Phase 2 handoff: enqueue the apply job while still under
            // `commit_order` — FIFO position equals WAL position.
            let mut apply = self.apply.lock();
            let seq = apply.next_seq;
            apply.next_seq += 1;
            for (msg, persistent) in enqueue_flags {
                apply.pending_persistent.insert(msg, persistent);
            }
            apply.jobs.push_back(ApplyJob { buf, lsn });
            seq
        };
        // Phase 2: wait until a batch leader applied our job — possibly
        // becoming that leader ourselves.
        self.apply_wait(seq);
        // Early lock release (before any durability wait): safe because the
        // log is redo-only — see `commit_deferred`.
        self.locks.release_all(txn);
        Ok(logged)
    }

    /// Apply one committed transaction's effects to the logical state,
    /// consuming its job: payload handles, properties and names move into
    /// the state. Runs from the batch-apply leader, which holds the state
    /// write lock across a whole batch of jobs. Pushes the ids the job
    /// enqueued onto `enqueued`.
    fn apply_job(state: &mut Logical, job: ApplyJob, enqueued: &mut Vec<MsgId>) {
        let mut ops = job.buf.ops.into_iter().peekable();
        while let Some(op) = ops.next() {
            match op {
                TxnOp::Enqueue {
                    queue,
                    msg,
                    payload,
                    props,
                    enqueued_at,
                } => {
                    // The WAL frame already carries the bytes durably, and
                    // the in-memory state takes the enqueuer's buffer: the
                    // commit path is copy-free. A persistent enqueue was
                    // logged in the job's frame.
                    let lsn = job.lsn.filter(|_| state.queue_is_persistent(&queue));
                    state.insert_message(msg, &queue, payload, props, enqueued_at, lsn);
                    enqueued.push(msg);
                }
                TxnOp::MarkProcessed { msg } => state.mark_processed(msg),
                TxnOp::SliceAdd { slicing, key, msg } => {
                    state.slices.add(&slicing, &key, msg);
                    // The engine pushes a message's joins together: they
                    // are recorded once, at the last of the run.
                    if !matches!(ops.peek(), Some(TxnOp::SliceAdd { msg: m, .. }) if *m == msg) {
                        state.record_slices(msg);
                    }
                }
                TxnOp::SliceReset { slicing, key, at } => {
                    let id = at.unwrap_or_else(|| state.slices.resolve(&slicing, &key));
                    state.slices.reset(id);
                }
            }
        }
    }

    /// Block until the apply job with sequence `seq` has been applied —
    /// the batch-apply leader/follower protocol (the logical-apply
    /// analogue of `wal::LogWriter::sync_to`). The first committer to
    /// find no leader active drains the *whole* queue and applies it
    /// under one `state` write-lock acquisition; everyone else parks on
    /// the condvar until a leader's batch covers their job.
    fn apply_wait(&self, seq: u64) {
        let mut apply = self.apply.lock();
        loop {
            if apply.applied_seq > seq {
                return;
            }
            if apply.leader_active {
                self.metrics.apply_waits.inc();
                self.apply_cv.wait(&mut apply);
                continue;
            }
            apply.leader_active = true;
            let batch: Vec<ApplyJob> = apply.jobs.drain(..).collect();
            // Jobs are queued contiguously under `commit_order`, so the
            // drained batch covers every seq below `next_seq`.
            let batch_end = apply.next_seq;
            drop(apply);

            let batch_len = batch.len() as u64;
            let mut enqueued = Vec::new();
            {
                let mut state = self.state.write();
                for job in batch {
                    Self::apply_job(&mut state, job, &mut enqueued);
                }
            }

            apply = self.apply.lock();
            apply.leader_active = false;
            apply.applied_seq = apply.applied_seq.max(batch_end);
            for msg in &enqueued {
                apply.pending_persistent.remove(msg);
            }
            self.metrics.apply_batches.inc();
            self.metrics.apply_batch_size.record_ns(batch_len);
            self.apply_cv.notify_all();
            // Loop: our own job was in the drained batch (we only became
            // leader because it was unapplied), so the next iteration
            // returns.
        }
    }

    /// Apply every queued job (checkpoint preamble): after this returns,
    /// no commit sits between its WAL frame and its in-memory effects.
    /// Caller must hold `commit_order` so no new jobs can be queued.
    fn drain_applies(&self) {
        let last = self.apply.lock().next_seq.checked_sub(1);
        if let Some(last) = last {
            self.apply_wait(last);
        }
    }

    fn op_is_persistent(
        &self,
        state: &Logical,
        pending: &IdMap<MsgId, bool>,
        buf: &TxnBuf,
        op: &TxnOp,
    ) -> bool {
        let queue_persistent = |q: &str| state.queue_is_persistent(q);
        let msg_persistent = |m: MsgId| {
            // Already applied, WAL-logged but pending apply, or being
            // enqueued by this very txn.
            state
                .message_is_persistent(m)
                .or_else(|| pending.get(&m).copied())
                .unwrap_or_else(|| {
                    buf.ops.iter().any(|o| match o {
                        TxnOp::Enqueue { msg, queue, .. } => *msg == m && queue_persistent(queue),
                        _ => false,
                    })
                })
        };
        match op {
            TxnOp::Enqueue { queue, .. } => queue_persistent(queue),
            TxnOp::MarkProcessed { msg } => msg_persistent(*msg),
            TxnOp::SliceAdd { msg, .. } => msg_persistent(*msg),
            TxnOp::SliceReset { .. } => true,
        }
    }

    /// Abort: drop the buffer, release locks. Nothing was logged, so
    /// there is nothing to log.
    pub fn abort(&self, txn: TxnId) {
        self.txns.lock().remove(&txn);
        self.locks.release_all(txn);
        self.metrics.aborts.inc();
    }

    // ---- reads -----------------------------------------------------------------

    fn load(&self, state: &Logical, id: MsgId) -> Result<StoredMessage> {
        let meta = state
            .messages
            .get(&id)
            .ok_or_else(|| StoreError::NotFound(format!("message {id}")))?;
        self.metrics.payload_shared_reads.inc();
        Ok(StoredMessage {
            id,
            queue: meta.0.queue.clone(),
            // Refcount bump — no byte copy, no revalidation.
            payload: meta.0.payload.clone(),
            props: meta.0.props.clone(),
            processed: meta.0.processed,
            enqueued_at: meta.0.enqueued_at,
        })
    }

    /// Read one message.
    pub fn message(&self, id: MsgId) -> Result<StoredMessage> {
        let state = self.state.read();
        self.load(&state, id)
    }

    /// Read one message's metadata without its payload — the hot-path
    /// accessor for document-cache hits (no payload clone).
    pub fn message_meta(&self, id: MsgId) -> Result<crate::types::MessageMeta> {
        let state = self.state.read();
        let meta = state
            .messages
            .get(&id)
            .ok_or_else(|| StoreError::NotFound(format!("message {id}")))?;
        Ok(crate::types::MessageMeta {
            id,
            queue: meta.0.queue.clone(),
            props: meta.0.props.clone(),
            processed: meta.0.processed,
            enqueued_at: meta.0.enqueued_at,
            slices: meta.0.slices.clone(),
        })
    }

    /// Read one message's payload only (document-cache miss path). A
    /// refcount bump of the resident, already-validated buffer: UTF-8 is
    /// never revalidated — validation happened exactly once, at enqueue or
    /// recovery.
    pub fn payload(&self, id: MsgId) -> Result<PayloadBytes> {
        let state = self.state.read();
        let meta = state
            .messages
            .get(&id)
            .ok_or_else(|| StoreError::NotFound(format!("message {id}")))?;
        self.metrics.payload_shared_reads.inc();
        Ok(meta.0.payload.clone())
    }

    /// Ids of all retained messages of a queue in arrival order — lets
    /// callers resolve payloads through a cache instead of cloning all of
    /// them eagerly.
    pub fn queue_message_ids(&self, queue: &str) -> Result<Vec<MsgId>> {
        let state = self.state.read();
        let q = state
            .queues
            .get(queue)
            .ok_or_else(|| StoreError::NotFound(format!("queue `{queue}`")))?;
        Ok(q.messages.clone())
    }

    /// How many messages a queue retains — what a membership-only
    /// aggregate over it needs.
    pub fn queue_len(&self, queue: &str) -> Result<usize> {
        let state = self.state.read();
        let q = state
            .queues
            .get(queue)
            .ok_or_else(|| StoreError::NotFound(format!("queue `{queue}`")))?;
        Ok(q.messages.len())
    }

    /// One consistent read of a queue's membership for an aggregate fold
    /// that already covers `since = (token, len)` — the queue analogue of
    /// [`slice_read`](Self::slice_read): only the messages past `len` while
    /// the queue's token holds (it moves on purges and out-of-order
    /// inserts), else every retained message.
    pub fn queue_read(
        &self,
        queue: &str,
        since: Option<(u64, usize)>,
        ids: &mut Vec<MsgId>,
    ) -> Result<MemberRead> {
        let state = self.state.read();
        let q = state
            .queues
            .get(queue)
            .ok_or_else(|| StoreError::NotFound(format!("queue `{queue}`")))?;
        let (token, len) = (q.token, q.messages.len());
        let resumed = crate::slice::resume_at(since, token, len);
        ids.extend_from_slice(&q.messages[resumed.unwrap_or(0)..]);
        Ok(MemberRead {
            token,
            len,
            resumed: resumed.is_some(),
            base_members: 0,
            base: None,
        })
    }

    /// All retained messages of a queue in arrival order.
    pub fn queue_messages(&self, queue: &str) -> Result<Vec<StoredMessage>> {
        let state = self.state.read();
        let q = state
            .queues
            .get(queue)
            .ok_or_else(|| StoreError::NotFound(format!("queue `{queue}`")))?;
        q.messages.iter().map(|&id| self.load(&state, id)).collect()
    }

    /// Ids of unprocessed messages across all queues, with queue priority —
    /// the scheduler's worklist (recovered after a crash).
    pub fn unprocessed(&self) -> Vec<(MsgId, Name, i32)> {
        let state = self.state.read();
        let mut out: Vec<(MsgId, Name, i32)> = state
            .messages
            .iter()
            .filter(|(_, m)| !m.0.processed)
            .map(|(&id, m)| {
                let prio = state
                    .queues
                    .get(&*m.0.queue)
                    .map(|q| q.info.priority)
                    .unwrap_or(0);
                (id, m.0.queue.clone(), prio)
            })
            .collect();
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Visible members of one slice, in arrival order.
    pub fn slice_members(&self, slicing: &str, key: &PropValue) -> Vec<MsgId> {
        self.state.read().slices.members(slicing, key)
    }

    /// Visible members of one slice (id order) together with its lifetime
    /// token, read atomically under one state lock. The token moves on
    /// every change that is not an append (reset, GC purge, release,
    /// out-of-order commit); 0 means the slice is unknown.
    pub fn slice_members_versioned(&self, slicing: &str, key: &PropValue) -> (Vec<MsgId>, u64) {
        let state = self.state.read();
        let mut ids = Vec::new();
        let id = state.slices.find(slicing, key);
        let token = id.map_or(0, |id| state.slices.read_since(id, None, &mut ids).token);
        (ids, token)
    }

    /// The handle of the slice `(slicing, key)`, if it exists.
    pub fn slice_id(&self, slicing: &str, key: &PropValue) -> Option<SliceId> {
        self.state.read().slices.find(slicing, key)
    }

    /// The handle of a slice for a message that recorded none (see
    /// [`SliceIndex::resolve_pinned`]); created if missing.
    pub fn slice_handle(&self, slicing: &str, key: &PropValue) -> SliceId {
        self.state.write().slices.resolve_pinned(slicing, key)
    }

    /// `(current member count, released member count)` of one slice —
    /// what a membership-only aggregate (`count`, `exists`) needs; O(1).
    pub fn slice_len(&self, id: SliceId) -> (usize, u64) {
        self.state.read().slices.len(id)
    }

    /// One consistent read of a slice for state (an aggregate fold, a
    /// member sequence) that already covers `since = (token, len)`: while
    /// the slice's lifetime token holds, only the members past `len` are
    /// appended to `ids`; otherwise every current member (id order) plus
    /// the released base (member count + encoded aggregate cells) for a
    /// rebuild; see [`SliceIndex::read_since`].
    pub fn slice_read(
        &self,
        id: SliceId,
        since: Option<(u64, usize)>,
        ids: &mut Vec<MsgId>,
    ) -> MemberRead {
        self.state.read().slices.read_since(id, since, ids)
    }

    /// Handle, members (id order), lifetime token and released base of
    /// one slice, each member with its processed flag — the narrowing
    /// sweep picks its fold victims from this single consistent view.
    pub fn slice_narrow_view(&self, slicing: &str, key: &PropValue) -> Option<NarrowView> {
        let state = self.state.read();
        let (id, ids, token, base) = state.slices.narrow_view(slicing, key)?;
        let processed = |id| state.messages.get(&id).is_some_and(|m| m.0.processed);
        let flagged = ids.into_iter().map(|id| (id, processed(id))).collect();
        Some((id, flagged, token, base))
    }

    /// Fold `victims` out of a slice into its base: drop their membership
    /// (making them purgeable by the next GC) and install `cells` as the
    /// slice's released aggregate state. CAS semantics — fails (returning
    /// `false`, changing nothing) if the slice's `(token, len)` is no
    /// longer `expected`, so a concurrent arrival or reset between the
    /// caller's read and this write safely aborts the release.
    ///
    /// Memory-only by design (paper Sec. 4.1: purge decisions are
    /// re-derived, never logged): after a crash, replay rebuilds the
    /// pre-release membership and the narrowing sweep re-runs. The base
    /// *is* carried by checkpoints, so a release that a checkpoint has
    /// captured survives restarts even though its members are gone.
    pub fn retention_release(
        &self,
        id: SliceId,
        expected: (u64, usize),
        victims: &[MsgId],
        cells: BaseCells,
    ) -> bool {
        self.state
            .write()
            .slices
            .release(id, expected, victims, cells)
    }

    /// Keys of a slicing with visible members.
    pub fn slice_keys(&self, slicing: &str) -> Vec<PropValue> {
        self.state.read().slices.keys(slicing)
    }

    /// Is the message retained by any slice lifetime?
    pub fn is_retained(&self, msg: MsgId) -> bool {
        self.state.read().slices.is_retained(msg)
    }

    /// Count of messages currently stored (processed + unprocessed).
    pub fn message_count(&self) -> usize {
        self.state.read().messages.len()
    }

    /// Total payload bytes resident in the message map — the figure the
    /// E15 soak watches for a plateau under bounded retention.
    pub fn resident_payload_bytes(&self) -> u64 {
        self.state
            .read()
            .messages
            .values()
            .map(|m| m.0.payload.len() as u64)
            .sum()
    }

    /// Causal origin of one message, read from the message itself; `None`
    /// for roots (external ingests) and purged messages.
    pub fn lineage_of(&self, msg: MsgId) -> Option<LineageEdge> {
        self.state.read().messages.get(&msg)?.0.edge(msg)
    }

    /// The retained causal edges of the tree rooted at `root`, in no
    /// particular order. One pass over the retained messages under one
    /// read lock.
    pub fn lineage_tree(&self, root: MsgId) -> Vec<LineageEdge> {
        self.edges(|e| e.root == root)
    }

    /// Every retained causal edge, sorted by created-message id.
    pub fn lineage_edges(&self) -> Vec<LineageEdge> {
        let mut out = self.edges(|_| true);
        out.sort_by_key(|e| e.msg);
        out
    }

    /// The retained edges `keep` accepts.
    fn edges(&self, keep: impl Fn(&LineageEdge) -> bool) -> Vec<LineageEdge> {
        let state = self.state.read();
        let edges = state.messages.iter().filter_map(|(&id, m)| m.0.edge(id));
        edges.filter(keep).collect()
    }

    // ---- maintenance ----------------------------------------------------------

    /// Garbage-collect: purge processed messages not retained by any slice
    /// (paper Sec. 2.3.3). Deletions are *not* WAL-logged (Sec. 4.1) — after
    /// a crash the same decision is recomputed. Returns purge count.
    pub fn gc(&self) -> Result<usize> {
        self.gc_collect().map(|v| v.len())
    }

    /// Like [`gc`](Self::gc) but returns the purged message ids so callers
    /// can invalidate caches keyed by them (e.g. the engine's document
    /// cache).
    ///
    /// Every effect happens under the state lock, so a checkpoint cut sees
    /// a purge entirely or not at all; a published snapshot carries its
    /// own payloads, so no purge can invalidate it.
    pub fn gc_collect(&self) -> Result<Vec<MsgId>> {
        // Per-queue purge counts, for the labeled
        // `demaq_store_gc_purged_total{queue=...}` counters (resolved from
        // the registry after the state lock drops — GC is off the commit
        // path, so lazy resolution is fine).
        let mut purged_by_queue: Vec<(String, u64)> = Vec::new();
        let mut retained_backlog: u64 = 0;
        let mut resident_bytes: u64 = 0;
        let victims: Vec<MsgId> = {
            // Under the state lock: only the cheap logical removals
            // (maps, queue vectors, slice index).
            let mut guard = self.state.write();
            let state = &mut *guard;
            let victims: Vec<MsgId> = state
                .messages
                .iter()
                .filter(|(id, m)| m.0.processed && !state.slices.is_retained(**id))
                .map(|(&id, _)| id)
                .collect();
            let victim_set: std::collections::HashSet<MsgId> = victims.iter().copied().collect();
            for id in &victims {
                // Its lineage goes with it: queries answer for retained
                // messages only.
                state.messages.remove(id);
                state.slices.forget(*id);
            }
            // One pass per queue instead of one retain per victim — keeps
            // the in-lock work linear in the number of retained + purged
            // messages.
            if !victim_set.is_empty() {
                for (name, q) in state.queues.iter_mut() {
                    let before = q.messages.len();
                    q.messages.retain(|m| !victim_set.contains(m));
                    let removed = before - q.messages.len();
                    if removed != 0 {
                        purged_by_queue.push((name.clone(), removed as u64));
                        // Purges change queue membership: move the queue
                        // token, as `forget` above moved the slice tokens.
                        q.token = state.slices.tick();
                    }
                }
            }
            // Everything processed that survived this pass is retained by
            // a slice — that is exactly the backlog bounded-retention
            // narrowing exists to shrink. Resident bytes ride on the same
            // scan for the E15 soak gauge.
            for meta in state.messages.values() {
                if meta.0.processed {
                    retained_backlog += 1;
                }
                resident_bytes += meta.0.payload.len() as u64;
            }
            victims
        };
        self.metrics.gc_runs.inc();
        for (queue, n) in purged_by_queue {
            self.obs
                .registry
                .counter_with("demaq_store_gc_purged_total", &[("queue", &queue)])
                .add(n);
        }
        self.metrics.retained_backlog.set(retained_backlog as i64);
        self.metrics.resident_bytes.set(resident_bytes as i64);
        Ok(victims)
    }

    /// The live WAL segment and its index, read together.
    fn current_wal(&self) -> (Arc<LogWriter>, u64) {
        let wal = self.wal.lock();
        (Arc::clone(&wal), self.wal_index.load(Ordering::SeqCst))
    }

    /// Durability barrier: one sync that covers every commit logged so
    /// far — deferred ones, and the whole window under
    /// [`SyncPolicy::Batch`]. Returns the durable watermark and how many
    /// commits the sync this call led covered (0 when there was nothing
    /// left to sync).
    pub fn barrier(&self) -> Result<(DurableTarget, u64)> {
        let (wal, segment) = self.current_wal();
        let started = Instant::now();
        let batch = wal.sync_now()?;
        if batch > 0 {
            self.metrics.wal_flush_ns.record(started.elapsed());
        }
        let offset = wal.durable_offset();
        Ok((DurableTarget { segment, offset }, batch))
    }

    /// Force the WAL to disk (the batch boundary under
    /// [`SyncPolicy::Batch`]).
    pub fn sync(&self) -> Result<()> {
        self.barrier().map(drop)
    }

    /// The durable watermark: every commit whose target is at or below it
    /// is on disk.
    pub fn durable(&self) -> DurableTarget {
        let (wal, segment) = self.current_wal();
        DurableTarget {
            segment,
            offset: wal.durable_offset(),
        }
    }

    /// The current end of the log as a target: covers everything logged so
    /// far.
    pub fn log_end(&self) -> DurableTarget {
        let (wal, segment) = self.current_wal();
        DurableTarget {
            segment,
            offset: wal.end_lsn().0,
        }
    }

    /// Commits whose WAL frames are not yet known fsynced — the window a
    /// crash could lose: everything since the last `sync()`/`checkpoint()`
    /// under [`SyncPolicy::Batch`], the deferred commits since the last
    /// barrier under [`SyncPolicy::Always`] (zero when every commit
    /// waits).
    pub fn unsynced_commits(&self) -> u64 {
        self.wal.lock().pending_commits()
    }

    /// Take a checkpoint: cut a snapshot that carries every persistent
    /// payload, rotate the WAL, publish the snapshot, delete the old
    /// segments.
    ///
    /// The cut (everything that must see a consistent store) happens under
    /// the locks and clones only payload handles; the expensive part —
    /// serializing and fsyncing the snapshot file, deleting old segments —
    /// happens *after* they are released, so committers make progress
    /// while a large snapshot is still being written. Crash-safe because
    /// the previous snapshot and all WAL segments survive on disk until
    /// the new snapshot file has been durably published.
    pub fn checkpoint(&self) -> Result<()> {
        let _maint = self.maintenance.lock();
        let (snap, new_index) = self.checkpoint_cut()?;
        // Locks are released; only `maintenance` is still held.
        //
        // Test failpoint: stretch the out-of-lock write window so tests can
        // act inside it — commit, or copy the directory a crash would
        // leave (mirrors DEMAQ_WAL_CRASH_AFTER_BYTES in the WAL).
        if let Ok(ms) = std::env::var("DEMAQ_CKPT_SLOW_WRITE_MS") {
            if let Ok(ms) = ms.parse::<u64>() {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        snap.write_to(&self.opts.dir.join("ckpt.snap"))?;
        self.metrics.payload_copies.add(snap.messages.len() as u64);
        // The rename is durable only with the directory: until then a power
        // cut may bring back the old snapshot, which needs the old segments.
        // The same sync covers the entry of the segment the cut rotated to
        // (created before it, and still current: checkpoints serialize on
        // `maintenance`), so that segment's first sync skips its own. A
        // commit that synced the segment before now synced the directory
        // itself.
        crate::wal::sync_dir(&self.opts.dir)?;
        self.metrics.dir_syncs.inc();
        self.current_wal().0.note_dir_synced();
        // Old segments are now superfluous.
        for i in 0..new_index {
            let _ = std::fs::remove_file(self.opts.dir.join(format!("wal-{i:06}.log")));
        }
        self.metrics.checkpoints.inc();
        Ok(())
    }

    /// The in-lock half of [`checkpoint`](Self::checkpoint): cut a
    /// consistent snapshot and rotate the WAL, returning the snapshot for
    /// the caller to write outside the locks.
    fn checkpoint_cut(&self) -> Result<(Snapshot, u64)> {
        // Take the commit-order mutex first: without it a committer could
        // sit between Phase 1 (a frame in the old WAL segment) and Phase 2
        // (effects not yet in `state`) while we snapshot — the snapshot
        // would miss the txn and we'd delete the segment holding its only
        // trace. Lock order matches `commit`.
        let _order = self.commit_order.lock();
        // Flush the batched-apply queue: every WAL-logged txn must be in
        // `state` before we cut, for the same reason as above.
        self.drain_applies();
        // Writers (appliers, GC, retention release) are excluded for the
        // cut only; document reads and rule evaluation proceed.
        let state = self.state.read();
        let old_wal = Arc::clone(&self.wal.lock());
        old_wal.sync_now()?;
        let new_index = self.wal_index.load(Ordering::SeqCst) + 1;

        let mut snap = Snapshot {
            wal_index: new_index,
            next_msg: self.next_msg.load(Ordering::SeqCst),
            ..Default::default()
        };
        for (name, q) in &state.queues {
            let persistent = q.info.mode == QueueMode::Persistent;
            snap.queues.push(SnapQueue {
                name: name.clone(),
                persistent,
                priority: q.info.priority,
            });
            if !persistent {
                continue; // transient messages are deliberately omitted
            }
            for id in &q.messages {
                let meta = &state.messages[id].0;
                snap.messages.push(SnapMessage {
                    id: *id,
                    queue: meta.queue.clone(),
                    // A refcount bump; the bytes are copied once, when the
                    // snapshot is encoded outside the locks.
                    payload: meta.payload.clone(),
                    processed: meta.processed,
                    enqueued_at: meta.enqueued_at,
                    props: meta.props.clone(),
                    lsn: meta.lsn,
                });
            }
        }
        for (slicing, key, sstate) in state.slices.iter() {
            // Keep only memberships of persistent messages; epoch always.
            let members: Vec<MsgId> = sstate
                .members()
                .iter()
                .copied()
                .filter(|&m| state.message_is_persistent(m).unwrap_or(false))
                .collect();
            snap.slices.push(SnapSlice {
                slicing: slicing.to_string(),
                key: key.clone(),
                epoch: sstate.epoch,
                members,
                base: sstate.base.clone(),
                base_members: sstate.base_members,
            });
        }

        // Switch to the new WAL segment *before* publishing the snapshot:
        // if we crash in between, the old snapshot still covers both files.
        // Committers still waiting on the old segment's coordinator hold
        // their own `Arc` to it (and `sync_now` above already covered their
        // records), so the swap can't strand them.
        let new_wal_path = self.opts.dir.join(format!("wal-{new_index:06}.log"));
        {
            let new_wal = Arc::new(LogWriter::open(
                &new_wal_path,
                self.opts.group_commit_cfg(),
            )?);
            new_wal.attach_obs(&self.obs.registry);
            let mut wal = self.wal.lock();
            *wal = new_wal;
            self.wal_index.store(new_index, Ordering::SeqCst);
        }
        drop(state);
        Ok((snap, new_index))
    }

    /// Bytes appended to the current WAL segment (benchmark metric E4).
    pub fn wal_bytes_logged(&self) -> u64 {
        self.wal.lock().bytes_logged()
    }

    /// Configured lock granularity (engine reads this to decide what to
    /// lock per message-processing transaction).
    pub fn lock_granularity(&self) -> LockGranularity {
        self.opts.lock_granularity
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &PathBuf {
        &self.opts.dir
    }
}

impl Drop for MessageStore {
    /// A clean shutdown loses nothing: commits no sync has covered yet
    /// (deferred, or the `Batch` window) reach the disk here, instead of
    /// only reaching the page cache when the WAL's buffer drops. Errors
    /// have nobody left to go to; [`MessageStore::sync`] returns them.
    fn drop(&mut self) {
        let wal = self.wal.lock();
        if wal.pending_commits() > 0 {
            let _ = wal.sync_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::read_log;
    use tempfile::TempDir;

    /// The tentpole guarantee: the order of slice-membership effects at
    /// runtime (internal insertion order) is exactly the order of
    /// `SliceAdd` ops in the WAL, even under concurrent committers —
    /// Phase 1 (append) and Phase 2 (apply) are sequenced atomically by
    /// the commit-order mutex, so replay order equals runtime order.
    #[test]
    fn runtime_slice_order_matches_wal_order() {
        let dir = TempDir::new().unwrap();
        let mut opts = StoreOptions::new(dir.path());
        opts.sync = SyncPolicy::Batch;
        let store = Arc::new(MessageStore::open(opts).unwrap());
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        let key = PropValue::Str("k".into());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let store = Arc::clone(&store);
                let key = key.clone();
                s.spawn(move || {
                    for i in 0..40u64 {
                        let txn = store.begin();
                        let msg = store
                            .enqueue(txn, "q", format!("m-{t}-{i}").into(), Vec::new(), 0)
                            .unwrap();
                        store.slice_add(txn, "s", key.clone(), msg).unwrap();
                        store.commit(txn).unwrap();
                    }
                });
            }
        });
        store.sync().unwrap();

        // Internal insertion order (runtime apply order).
        let runtime_order: Vec<MsgId> = {
            let state = store.state.read();
            let (_, _, sstate) = state
                .slices
                .iter()
                .find(|(slicing, k, _)| *slicing == "s" && **k == key)
                .expect("slice exists");
            sstate.members().to_vec()
        };

        // WAL SliceAdd order: every frame is a committed transaction.
        let wal_path = dir.path().join("wal-000000.log");
        let wal_order: Vec<MsgId> = read_log(&wal_path)
            .unwrap()
            .txns
            .iter()
            .flat_map(|(_, ops)| ops)
            .filter_map(|op| match op {
                TxnOp::SliceAdd { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        assert_eq!(wal_order.len(), 320);
        assert_eq!(
            runtime_order, wal_order,
            "runtime slice insertion order diverged from WAL order"
        );
    }

    /// `unsynced_commits` counts only commits whose WAL frames are not
    /// yet fsynced: zero under `Always`, per-commit under `Batch`, reset
    /// by `sync()` and `checkpoint()`.
    #[test]
    fn unsynced_commits_accounting() {
        let commit_one = |store: &MessageStore| {
            let txn = store.begin();
            store.enqueue(txn, "q", "x".into(), Vec::new(), 0).unwrap();
            store.commit(txn).unwrap();
        };

        let dir = TempDir::new().unwrap();
        let mut opts = StoreOptions::new(dir.path().join("always"));
        opts.sync = SyncPolicy::Always;
        let store = MessageStore::open(opts).unwrap();
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        commit_one(&store);
        commit_one(&store);
        assert_eq!(store.unsynced_commits(), 0, "Always syncs every commit");

        let mut opts = StoreOptions::new(dir.path().join("batch"));
        opts.sync = SyncPolicy::Batch;
        let store = MessageStore::open(opts).unwrap();
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        commit_one(&store);
        commit_one(&store);
        commit_one(&store);
        assert_eq!(store.unsynced_commits(), 3);
        store.sync().unwrap();
        assert_eq!(store.unsynced_commits(), 0, "sync() resets the window");
        commit_one(&store);
        assert_eq!(store.unsynced_commits(), 1);
        store.checkpoint().unwrap();
        assert_eq!(
            store.unsynced_commits(),
            0,
            "checkpoint() resets the window"
        );
    }

    /// A deferred commit is visible at once and durable at the next
    /// barrier; its target stays comparable across the WAL rotation at
    /// checkpoint; a clean drop syncs what no barrier covered yet.
    #[test]
    fn deferred_commits_are_durable_after_barrier_rotation_and_drop() {
        let dir = TempDir::new().unwrap();
        let obs = Obs::new();
        let mut opts = StoreOptions::new(dir.path());
        opts.obs = Some(Arc::clone(&obs));
        let syncs = obs.registry.counter("demaq_store_wal_syncs_total");
        let store = MessageStore::open(opts.clone()).unwrap();
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        store.create_queue("t", QueueMode::Transient, 0).unwrap();
        let defer = |queue: &str, body: &str| {
            let txn = store.begin();
            let msg = store
                .enqueue(txn, queue, body.into(), Vec::new(), 0)
                .unwrap();
            (msg, store.commit_deferred(txn).unwrap())
        };

        let (a, ta) = defer("q", "a");
        let (_, tb) = defer("q", "b");
        assert!(ta < tb);
        assert_eq!(
            store.message(a).unwrap().payload,
            "a",
            "visible before durable"
        );
        assert_eq!(store.unsynced_commits(), 2);
        assert!(store.durable() < ta);
        assert_eq!(syncs.get(), 0, "nobody waited for the disk");
        // A transaction that logged nothing depends on what it may have
        // read: everything up to the end of the log.
        assert_eq!(defer("t", "transient").1, tb);

        let (durable, batch) = store.barrier().unwrap();
        assert!(durable >= tb);
        assert_eq!((batch, syncs.get(), store.unsynced_commits()), (2, 1, 0));
        assert_eq!(store.barrier().unwrap().1, 0, "nothing left to sync");
        assert_eq!(syncs.get(), 1);

        // Rotation: the cut syncs the old segment, so a target logged
        // there is covered by the new segment's (empty) watermark.
        let (_, tc) = defer("q", "c");
        store.checkpoint().unwrap();
        assert!(store.durable() >= tc);
        let (d, td) = defer("q", "d");
        assert!(td > tc && store.durable() < td);

        let before_drop = syncs.get();
        drop(store);
        assert_eq!(syncs.get(), before_drop + 1, "drop syncs the deferred tail");
        let store = MessageStore::open(opts).unwrap();
        assert_eq!(store.message(d).unwrap().payload, "d");
        assert_eq!(store.message_count(), 4);
        let quiet = syncs.get();
        drop(store);
        assert_eq!(syncs.get(), quiet, "nothing unsynced, nothing to do");
    }

    /// Directory syncs, counted apart from WAL syncs: one with the first
    /// sync of each segment the store creates (a fresh store's first, the
    /// one a checkpoint rotates to) and one after each snapshot rename.
    #[test]
    fn directory_syncs_follow_new_segments_and_snapshots() {
        let dir = TempDir::new().unwrap();
        let obs = Obs::new();
        let mut opts = StoreOptions::new(dir.path());
        opts.obs = Some(Arc::clone(&obs));
        let wal_syncs = obs.registry.counter("demaq_store_wal_syncs_total");
        let dir_syncs = obs.registry.counter("demaq_store_dir_syncs_total");
        let syncs = || (wal_syncs.get(), dir_syncs.get());
        let commit = |store: &MessageStore| {
            let txn = store.begin();
            store.enqueue(txn, "q", "m".into(), Vec::new(), 0).unwrap();
            store.commit(txn).unwrap();
        };
        let store = MessageStore::open(opts.clone()).unwrap();
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        store.barrier().unwrap();
        assert_eq!(syncs(), (0, 0), "opening and an empty barrier sync nothing");
        commit(&store);
        assert_eq!(syncs(), (1, 1), "a fresh store's first commit");
        commit(&store);
        assert_eq!(syncs(), (2, 1), "later syncs of the segment");
        store.checkpoint().unwrap();
        assert_eq!(syncs(), (2, 2), "a checkpoint: the snapshot rename");
        commit(&store);
        assert_eq!(
            syncs(),
            (3, 2),
            "the rotated-to segment's entry went out with the snapshot rename"
        );
        drop(store);
        let store = MessageStore::open(opts).unwrap();
        commit(&store);
        assert_eq!(syncs(), (4, 2), "a reopened segment's entry is durable");
    }

    /// Lineage is read from the enqueue: its provenance properties, its
    /// queue and the LSN of its frame. It survives plain recovery and a
    /// checkpoint (the snapshot's message entry), and dies with its
    /// message at GC.
    #[test]
    fn lineage_durability_and_gc() {
        let dir = TempDir::new().unwrap();
        let opts = StoreOptions::new(dir.path());
        let store = MessageStore::open(opts.clone()).unwrap();
        store.create_queue("in", QueueMode::Persistent, 0).unwrap();
        store.create_queue("out", QueueMode::Persistent, 0).unwrap();

        let txn = store.begin();
        let root = store
            .enqueue(txn, "in", "<a/>".into(), Vec::new(), 0)
            .unwrap();
        store.commit(txn).unwrap();

        let txn = store.begin();
        let provenance = vec![
            (
                provenance::CREATING_RULE.into(),
                PropValue::Str("fwd".into()),
            ),
            (provenance::PARENT_MSG.into(), PropValue::Int(root.0 as i64)),
            (provenance::ROOT_MSG.into(), PropValue::Int(root.0 as i64)),
        ];
        let child = store
            .enqueue(txn, "out", "<b/>".into(), provenance, 0)
            .unwrap();
        store.commit(txn).unwrap();

        let edge = store.lineage_of(child).expect("lineage recorded");
        assert_eq!(edge.parent, root);
        assert_eq!(edge.root, root);
        assert_eq!(&*edge.rule, "fwd");
        assert_eq!(&*edge.queue, "out");
        assert!(edge.lsn.is_some(), "persistent lineage carries its LSN");
        assert!(store.lineage_of(root).is_none(), "roots have no edge");
        assert_eq!(store.lineage_tree(root), vec![edge.clone()]);
        assert!(store.lineage_tree(child).is_empty(), "keyed by root only");

        // Plain recovery (WAL replay).
        drop(store);
        let store = MessageStore::open(opts.clone()).unwrap();
        assert_eq!(store.lineage_of(child).unwrap(), edge);
        assert_eq!(store.lineage_edges(), vec![edge.clone()]);

        // Checkpoint truncates the WAL; the snapshot's message entry must
        // carry the edge (and its original LSN) across the next recovery.
        store.checkpoint().unwrap();
        drop(store);
        let store = MessageStore::open(opts).unwrap();
        assert_eq!(store.lineage_of(child).unwrap(), edge);

        // GC: once the child is processed and unreferenced, its lineage
        // goes with it.
        let txn = store.begin();
        store.mark_processed(txn, child).unwrap();
        store.commit(txn).unwrap();
        store.gc().unwrap();
        assert!(store.lineage_of(child).is_none());
        assert!(store.lineage_tree(root).is_empty());
    }

    /// The fsync-per-commit baseline path (`group_commit_max_batch <= 1`)
    /// stays fully durable and recoverable.
    #[test]
    fn max_batch_one_baseline_commits_and_recovers() {
        let dir = TempDir::new().unwrap();
        let mut opts = StoreOptions::new(dir.path());
        opts.sync = SyncPolicy::Always;
        opts.group_commit_max_batch = 1;
        let store = MessageStore::open(opts.clone()).unwrap();
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        let txn = store.begin();
        let msg = store
            .enqueue(txn, "q", "base".into(), Vec::new(), 0)
            .unwrap();
        store.commit(txn).unwrap();
        drop(store);
        let store = MessageStore::open(opts).unwrap();
        assert_eq!(store.message(msg).unwrap().payload, "base");
    }

    #[test]
    fn queue_tokens_share_the_slice_clock_and_ignore_appends() {
        let mut state = Logical::default();
        let token = |state: &Logical| state.queues.get("q").map_or(0, |q| q.token);
        let insert = |state: &mut Logical, id| {
            state.insert_message(MsgId(id), "q", "<m/>".into(), Vec::new().into(), 0, None)
        };
        assert_eq!(token(&state), 0, "untouched queue is token 0");
        insert(&mut state, 2);
        let t1 = token(&state);
        assert_ne!(t1, 0, "the first insert stamps a token");
        insert(&mut state, 3);
        assert_eq!(token(&state), t1, "appends keep it");
        // A new slice advances the shared clock.
        state.slices.add("s", &PropValue::Int(1), MsgId(3));
        state.record_slices(MsgId(3));
        insert(&mut state, 1);
        assert!(token(&state) > t1 + 1, "an out-of-order insert moves it");
        let joined = state.messages[&MsgId(3)].0.slices.as_deref();
        assert_eq!(
            joined.map(<[_]>::len),
            Some(1),
            "the message records its slice"
        );
    }

    /// A GC purge moves the queue's token, so a fold stamped before the
    /// purge does not resume once appends have brought the queue back to
    /// the length it was stamped at.
    #[test]
    fn a_purge_moves_the_queue_token() {
        let dir = TempDir::new().unwrap();
        let store = MessageStore::open(StoreOptions::new(dir.path())).unwrap();
        store.create_queue("q", QueueMode::Persistent, 0).unwrap();
        let enqueue = |n: usize| -> Vec<MsgId> {
            let txn = store.begin();
            let ids = (0..n)
                .map(|_| {
                    store
                        .enqueue(txn, "q", "<m/>".into(), Vec::new(), 0)
                        .unwrap()
                })
                .collect();
            store.commit(txn).unwrap();
            ids
        };
        let read = |since, ids: &mut Vec<MsgId>| store.queue_read("q", since, ids).unwrap();
        let first = enqueue(3);
        let mut seen = Vec::new();
        let stamp = read(None, &mut seen);
        assert_eq!((stamp.len, &seen), (3, &first));
        // An append keeps the token: the fold resumes past it.
        let second = enqueue(1);
        let mut seen = Vec::new();
        let grown = read(Some((stamp.token, stamp.len)), &mut seen);
        assert!(grown.resumed && grown.token == stamp.token);
        assert_eq!((grown.len, seen), (4, second.clone()));
        // Purge two processed messages, then append two: same length.
        let txn = store.begin();
        for &id in &first[..2] {
            store.mark_processed(txn, id).unwrap();
        }
        store.commit(txn).unwrap();
        assert_eq!(store.gc().unwrap(), 2);
        let purged = read(None, &mut Vec::new());
        assert!(purged.token > grown.token, "a purge moves the token");
        let third = enqueue(2);
        let mut seen = Vec::new();
        let after = read(Some((grown.token, grown.len)), &mut seen);
        assert_eq!(after.len, grown.len);
        assert!(!after.resumed, "the stale fold rebuilds");
        let expected: Vec<MsgId> = [&first[2..], &second, &third].concat();
        assert_eq!(seen, expected, "a rebuild gets every retained message");
    }
}
