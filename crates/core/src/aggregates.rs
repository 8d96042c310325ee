//! Materialized aggregate cells (ISSUE 9's reactive aggregate registry)
//! and the per-member contributions they fold.
//!
//! Each cell holds the running [`AggAcc`] fold of one recognized aggregate
//! shape (numbered by its [`AggId`] in the application's catalog) over one
//! *scope* — the spec's queue or one `(slicing, key)` slice — together
//! with the store-side **lifetime token** and membership length it was
//! folded at. A read asks the store for the membership past the cell's
//! `(token, len)` under one state lock:
//!
//! * same token, same length → the cell is current: return its result,
//!   zero member access (a *hit*).
//! * same token, longer → only new members arrived since the fold: absorb
//!   just their contributions (a *delta* — per-read cost independent of
//!   the slice's size).
//! * anything else (reset, GC purge, release, out-of-order commit, cold)
//!   → refold from scratch (a *rebuild*).
//!
//! Tokens come from the store's clock, moved inside batched commit apply
//! by every change that is not an append — see
//! `demaq_store::slice::SliceIndex` — so a stale cell can never validate,
//! not even after a reset refilled the slice to the same length. Cells are
//! process-local and never persisted: after a crash the clock restarts
//! and every cell rebuilds from the recovered store, so recovery
//! correctness never depends on cached state. Abort safety is by
//! construction — folds only ever observe post-commit applied state.
//!
//! A **contribution** is what one member adds to one aggregate (a count,
//! or the selected values in node order; see
//! [`demaq_xquery::Contribution`]). Messages are immutable, so the engine
//! computes it once, after the enqueue commits, from the document the
//! enqueue parsed, and keeps it by message id until GC purges the
//! message. Folds read contributions, never documents; a member without
//! one (a doc-less cross-shard ingest, or anything after recovery) is
//! loaded through the document cache whenever a fold needs it — rare
//! enough that its contribution is not kept.

use demaq_obs::{Counter, Obs};
use demaq_store::{MsgId, PropValue};
use demaq_xquery::{AggAcc, AggCatalog, AggId, AggregateSpec, Contribution, Result as XqResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a cell aggregates over: the queue a `qs:queue("…")` shape names
/// (one per shape, so its cell needs no key), or one slice.
#[derive(Debug, Clone, Copy)]
pub enum AggScope<'a> {
    Queue(&'a str),
    Slice(&'a str, &'a PropValue),
}

/// A fold as the registry holds it: valid for the membership whose token
/// is `token`, covering its first `len` members.
#[derive(Debug, Clone)]
pub struct Fold {
    pub token: u64,
    pub len: usize,
    pub acc: AggAcc,
}

struct Cell {
    fold: Fold,
    last_used: u64,
}

/// The cells of one aggregate shape.
#[derive(Default)]
struct SpecCells {
    queue: Option<Cell>,
    /// slicing -> key -> cell; a lookup borrows both.
    slices: HashMap<String, HashMap<PropValue, Cell>>,
    count: usize,
}

impl SpecCells {
    fn get_mut(&mut self, scope: AggScope<'_>) -> Option<&mut Cell> {
        match scope {
            AggScope::Queue(_) => self.queue.as_mut(),
            AggScope::Slice(s, k) => self.slices.get_mut(s)?.get_mut(k),
        }
    }

    /// Drop the least recently used eighth of the cells.
    fn evict(&mut self) {
        let mut ticks: Vec<u64> = self
            .queue
            .iter()
            .chain(self.slices.values().flat_map(|keys| keys.values()))
            .map(|c| c.last_used)
            .collect();
        let cut = ticks.len() / 8;
        let (_, &mut threshold, _) = ticks.select_nth_unstable(cut);
        if self.queue.as_ref().is_some_and(|c| c.last_used <= threshold) {
            self.queue = None;
        }
        for keys in self.slices.values_mut() {
            keys.retain(|_, c| c.last_used > threshold);
        }
        self.slices.retain(|_, keys| !keys.is_empty());
        self.count = self.queue.iter().count() + self.slices.values().map(HashMap::len).sum::<usize>();
    }
}

/// Contributions of the members in one shard, by message id.
type ContribShard = HashMap<MsgId, Box<[(AggId, Contribution)]>>;

/// Registry of materialized aggregate cells (one slot per [`AggId`]) and
/// of member contributions (sharded by message id).
pub struct AggRegistry {
    /// The shapes `cells` is indexed by (see [`Self::owns`]).
    catalog: AggCatalog,
    cells: Box<[Mutex<SpecCells>]>,
    cap_per_spec: usize,
    contributions: Box<[Mutex<ContribShard>]>,
    contrib_mask: u64,
    tick: AtomicU64,
    hits: Counter,
    deltas: Counter,
    rebuilds: Counter,
    computed: Counter,
}

impl AggRegistry {
    /// A registry for the shapes of `catalog`, at most `cap_per_spec`
    /// cells each.
    pub fn new(catalog: &AggCatalog, cap_per_spec: usize, obs: &Obs) -> AggRegistry {
        let r = &obs.registry;
        let shards = 16;
        AggRegistry {
            catalog: catalog.clone(),
            cells: (0..catalog.len()).map(|_| Mutex::new(SpecCells::default())).collect(),
            cap_per_spec: cap_per_spec.max(8),
            contributions: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            contrib_mask: shards as u64 - 1,
            tick: AtomicU64::new(0),
            hits: r.counter("demaq_core_agg_hits_total"),
            deltas: r.counter("demaq_core_agg_deltas_total"),
            rebuilds: r.counter("demaq_core_agg_rebuilds_total"),
            computed: r.counter("demaq_core_agg_contributions_total"),
        }
    }

    /// Is `(id, spec)` a shape of this registry's application? Reads from
    /// a plan lowered into another catalog must decline: their `id` names
    /// another shape's cells and contributions here, or none at all.
    pub fn owns(&self, id: AggId, spec: &AggregateSpec) -> bool {
        self.catalog.owns(id, spec)
    }

    /// Count a read answered without touching any member: a current cell,
    /// or a membership-only `count`/`exists` answered from the length.
    pub fn note_hit(&self) {
        self.hits.inc();
    }

    /// The cell of `id` over `scope`, if any (refreshing its LRU stamp).
    pub fn fold(&self, id: AggId, scope: AggScope<'_>) -> Option<Fold> {
        let mut cells = self.cells[id as usize].lock();
        let cell = cells.get_mut(scope)?;
        cell.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        Some(cell.fold.clone())
    }

    /// Store a fold. `extended` marks the delta path (absorbed only new
    /// members) vs a rebuild in the metrics. Folds that errored must NOT
    /// be stored — the caller declines the read instead, so the fallback
    /// reproduces the reference error. Token 0 (no membership to validate
    /// against) is never stored.
    pub fn store(&self, id: AggId, scope: AggScope<'_>, fold: Fold, extended: bool) {
        if extended {
            self.deltas.inc();
        } else {
            self.rebuilds.inc();
        }
        if fold.token == 0 {
            return;
        }
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut cells = self.cells[id as usize].lock();
        if let Some(cell) = cells.get_mut(scope) {
            *cell = Cell { fold, last_used };
            return;
        }
        let cell = Cell { fold, last_used };
        match scope {
            AggScope::Queue(_) => cells.queue = Some(cell),
            AggScope::Slice(s, k) => {
                if !cells.slices.contains_key(s) {
                    cells.slices.insert(s.to_string(), HashMap::new());
                }
                cells.slices.get_mut(s).expect("present").insert(k.clone(), cell);
            }
        }
        cells.count += 1;
        if cells.count > self.cap_per_spec {
            cells.evict();
        }
    }

    fn contrib_shard(&self, msg: MsgId) -> &Mutex<ContribShard> {
        // Fibonacci hashing spreads the sequential MsgId space evenly.
        let h = msg.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.contributions[(h & self.contrib_mask) as usize]
    }

    /// Keep a freshly enqueued message's contributions. The message is
    /// not schedulable yet, so it cannot have been purged.
    pub fn put_contributions(&self, msg: MsgId, contributions: Vec<(AggId, Contribution)>) {
        if contributions.is_empty() {
            return;
        }
        self.computed.add(contributions.len() as u64);
        self.contrib_shard(msg)
            .lock()
            .insert(msg, contributions.into_boxed_slice());
    }

    /// Fold `msg`'s contribution to `id` into `acc`; `None` when none is
    /// kept (the caller loads the member instead).
    pub fn absorb(&self, msg: MsgId, id: AggId, acc: &mut AggAcc) -> Option<XqResult<()>> {
        let shard = self.contrib_shard(msg).lock();
        let (_, c) = shard.get(&msg)?.iter().find(|(i, _)| *i == id)?;
        Some(acc.absorb(c))
    }

    /// Drop the contributions of purged messages (GC hook). Their cells
    /// need nothing: the purge moved the store tokens they validate on.
    pub fn forget(&self, purged: &[MsgId]) {
        for &msg in purged {
            self.contrib_shard(msg).lock().remove(&msg);
        }
    }

    /// Cell count (tests/diagnostics).
    pub fn len(&self) -> usize {
        self.cells.iter().map(|c| c.lock().count).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_xquery::{AggOp, AggSource};
    use std::sync::Arc;

    fn obs() -> Arc<Obs> {
        Obs::new()
    }

    fn fold(token: u64, len: usize, n: i64) -> Fold {
        Fold {
            token,
            len,
            acc: AggAcc::Count(n),
        }
    }

    fn slice(key: &PropValue) -> AggScope<'_> {
        AggScope::Slice("s", key)
    }

    /// A catalog of `n` distinct shapes (`sum(qs:queue("q0"))`, …).
    fn catalog(n: usize) -> AggCatalog {
        let mut c = AggCatalog::default();
        for i in 0..n {
            c.intern(AggregateSpec {
                op: AggOp::Sum,
                source: AggSource::Queue(format!("q{i}")),
                steps: Vec::new(),
            });
        }
        c
    }

    #[test]
    fn only_the_catalogs_own_shapes_are_answered() {
        let o = obs();
        let mut cat = catalog(2);
        let reg = AggRegistry::new(&cat, 1024, &o);
        let (id, spec) = cat.intern(cat.get(1).clone());
        assert!(reg.owns(id, &spec), "the interned Arc is shared");
        assert!(!reg.owns(0, &spec), "another shape's id");
        assert!(!reg.owns(7, &spec), "out of range");
        let foreign = Arc::new(spec.as_ref().clone());
        assert!(!reg.owns(id, &foreign), "an equal shape from another catalog");
    }

    #[test]
    fn stored_fold_is_returned_per_scope() {
        let o = obs();
        let reg = AggRegistry::new(&catalog(2), 1024, &o);
        let (a, b) = (PropValue::Str("a".into()), PropValue::Str("b".into()));
        assert!(reg.fold(0, slice(&a)).is_none());
        reg.store(0, slice(&a), fold(7, 1, 1), false);
        reg.store(1, AggScope::Queue("q"), fold(3, 2, 2), true);
        let f = reg.fold(0, slice(&a)).expect("stored");
        assert_eq!((f.token, f.len), (7, 1));
        assert!(reg.fold(0, slice(&b)).is_none(), "keys are independent");
        assert!(reg.fold(1, slice(&a)).is_none(), "ids are independent");
        assert!(reg.fold(0, AggScope::Queue("q")).is_none());
        assert_eq!(reg.fold(1, AggScope::Queue("q")).unwrap().len, 2);
        assert_eq!(o.registry.counter_total("demaq_core_agg_rebuilds_total"), 1);
        assert_eq!(o.registry.counter_total("demaq_core_agg_deltas_total"), 1);
        // Overwrites replace in place.
        reg.store(0, slice(&a), fold(7, 4, 4), true);
        assert_eq!(reg.fold(0, slice(&a)).unwrap().len, 4);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn token_zero_never_caches() {
        let o = obs();
        let reg = AggRegistry::new(&catalog(1), 1024, &o);
        reg.store(0, AggScope::Queue("q"), fold(0, 1, 1), false);
        assert!(reg.is_empty(), "token-0 store is dropped");
    }

    #[test]
    fn lru_eviction_bounds_cells() {
        let o = obs();
        let reg = AggRegistry::new(&catalog(1), 8, &o);
        let keys: Vec<PropValue> = (0..20).map(PropValue::Int).collect();
        for k in &keys {
            reg.store(0, slice(k), fold(1, 1, 1), false);
            // Keep key 0 hot: it must survive every eviction.
            assert!(reg.fold(0, slice(&keys[0])).is_some());
        }
        assert!(reg.len() <= 8, "cap enforced, got {}", reg.len());
        assert!(reg.fold(0, slice(&keys[19])).is_some(), "newest survives");
    }

    #[test]
    fn contributions_fold_and_are_forgotten_at_purge() {
        let o = obs();
        let reg = AggRegistry::new(&catalog(2), 1024, &o);
        reg.put_contributions(MsgId(1), vec![(0, Contribution::Count(2)), (1, Contribution::Count(5))]);
        let mut acc = AggAcc::new(AggOp::Count);
        assert!(reg.absorb(MsgId(1), 1, &mut acc).unwrap().is_ok());
        assert!(reg.absorb(MsgId(2), 1, &mut acc).is_none(), "no contribution kept");
        assert_eq!(acc.result().to_string(), "5");
        reg.put_contributions(MsgId(2), vec![(1, Contribution::Count(1))]);
        reg.forget(&[MsgId(1)]);
        assert!(reg.absorb(MsgId(1), 0, &mut acc).is_none(), "purged");
        assert!(reg.absorb(MsgId(2), 1, &mut acc).is_some(), "others stay");
        assert_eq!(o.registry.counter_total("demaq_core_agg_contributions_total"), 3);
    }
}
