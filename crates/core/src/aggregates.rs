//! Cells folded over memberships ([`CellMap`]), the materialized
//! aggregate registry built on them, and the per-member contributions
//! aggregate cells fold.
//!
//! A cell holds a value folded over one *scope* — a queue or one slice,
//! by its handle — together with the store-side **lifetime token** and
//! membership length it was folded at. The engine keeps two
//! kinds: the running [`AggAcc`] of each recognized aggregate shape
//! (numbered by its [`AggId`] in the application's catalog), and the
//! materialized member sequence of each slice a rule reads. A read asks
//! the store for the membership past the cell's `(token, len)` under one
//! state lock:
//!
//! * same token, same length → the cell is current: return its value,
//!   zero member access (a *hit*).
//! * same token, longer → only new members arrived since the fold: fold
//!   just those (a *delta*, or *append* for member sequences — per-read
//!   cost independent of the slice's size).
//! * anything else (reset, GC purge, release, out-of-order commit, cold)
//!   → refold from scratch (a *rebuild*).
//!
//! Tokens come from the store's clock, moved by every change that is not
//! an append — see `demaq_store::slice::SliceIndex` — so a stale cell can
//! never validate, not even after a reset refilled the slice to the same
//! length, nor after the slice's handle went to another slice. Cells are
//! process-local and never persisted: after a crash the clock restarts and
//! every cell rebuilds from the recovered store, so recovery correctness
//! never depends on cached state. Abort safety is by construction — folds
//! only ever observe post-commit applied state.
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
use demaq_store::{IdMap, MsgId, SliceId};
use demaq_xquery::{AggAcc, AggCatalog, AggId, AggregateSpec, Contribution, Result as XqResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a cell is folded over: the queue a `qs:queue("…")` shape names
/// (one per shape, so its cell needs no key), or one slice.
#[derive(Debug, Clone, Copy)]
pub enum Scope<'a> {
    Queue(&'a str),
    Slice(SliceId),
}

/// A value folded over a membership: valid for the membership whose
/// token is `token`, covering its first `len` members.
#[derive(Debug, Clone)]
pub struct Fold<V> {
    pub token: u64,
    pub len: usize,
    pub value: V,
}

struct Cell<V> {
    fold: Fold<V>,
    last_used: u64,
}

/// The cells of one map.
struct Cells<V> {
    queue: Option<Cell<V>>,
    slices: IdMap<SliceId, Cell<V>>,
}

impl<V> Cells<V> {
    fn get_mut(&mut self, scope: Scope<'_>) -> Option<&mut Cell<V>> {
        match scope {
            Scope::Queue(_) => self.queue.as_mut(),
            Scope::Slice(id) => self.slices.get_mut(&id),
        }
    }

    fn count(&self) -> usize {
        self.queue.iter().count() + self.slices.len()
    }

    /// Drop the least recently used eighth of the cells.
    fn evict(&mut self) {
        let mut ticks: Vec<u64> = self
            .queue
            .iter()
            .chain(self.slices.values())
            .map(|c| c.last_used)
            .collect();
        let cut = ticks.len() / 8;
        let (_, &mut threshold, _) = ticks.select_nth_unstable(cut);
        if self
            .queue
            .as_ref()
            .is_some_and(|c| c.last_used <= threshold)
        {
            self.queue = None;
        }
        self.slices.retain(|_, c| c.last_used > threshold);
    }
}

/// Values folded over memberships, one cell per [`Scope`], validated on
/// the store's `(token, len)`; past `cap` cells the least recently used
/// eighth is evicted. Counts its reads as hits, deltas and rebuilds.
pub struct CellMap<V> {
    cells: Mutex<Cells<V>>,
    cap: usize,
    tick: AtomicU64,
    hits: Counter,
    deltas: Counter,
    rebuilds: Counter,
}

impl<V: Clone> CellMap<V> {
    /// A map of at most `cap` cells, counting its reads into the series
    /// named `[hits, deltas, rebuilds]`.
    pub fn new(cap: usize, obs: &Obs, counters: [&str; 3]) -> CellMap<V> {
        let r = &obs.registry;
        CellMap {
            cells: Mutex::new(Cells {
                queue: None,
                slices: IdMap::default(),
            }),
            cap: cap.max(8),
            tick: AtomicU64::new(0),
            hits: r.counter(counters[0]),
            deltas: r.counter(counters[1]),
            rebuilds: r.counter(counters[2]),
        }
    }

    /// Count a read answered from a current cell (or, for aggregates,
    /// from the membership length alone).
    pub fn note_hit(&self) {
        self.hits.inc();
    }

    /// The cell over `scope`, if any (refreshing its LRU stamp).
    pub fn get(&self, scope: Scope<'_>) -> Option<Fold<V>> {
        let mut cells = self.cells.lock();
        let cell = cells.get_mut(scope)?;
        cell.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        Some(cell.fold.clone())
    }

    /// Store a fold. `extended` marks the delta path (folded only new
    /// members) vs a rebuild in the metrics. Token 0 (no membership to
    /// validate against) is never stored.
    pub fn put(&self, scope: Scope<'_>, fold: Fold<V>, extended: bool) {
        if extended {
            self.deltas.inc();
        } else {
            self.rebuilds.inc();
        }
        if fold.token == 0 {
            return;
        }
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut cells = self.cells.lock();
        if let Some(cell) = cells.get_mut(scope) {
            *cell = Cell { fold, last_used };
            return;
        }
        let cell = Cell { fold, last_used };
        match scope {
            Scope::Queue(_) => cells.queue = Some(cell),
            Scope::Slice(id) => {
                cells.slices.insert(id, cell);
            }
        }
        if cells.count() > self.cap {
            cells.evict();
        }
    }

    /// Keep only the slice cells `keep(slice, token, len)` accepts.
    pub fn retain_slices(&self, mut keep: impl FnMut(SliceId, u64, usize) -> bool) {
        self.cells
            .lock()
            .slices
            .retain(|&id, c| keep(id, c.fold.token, c.fold.len));
    }

    /// Cell count (tests/diagnostics).
    pub fn len(&self) -> usize {
        self.cells.lock().count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Contributions of the members in one shard, by message id.
type ContribShard = IdMap<MsgId, Box<[(AggId, Contribution)]>>;

/// Registry of materialized aggregate cells (one map per [`AggId`]) and
/// of member contributions (sharded by message id).
pub struct AggRegistry {
    /// The shapes `cells` is indexed by (see [`Self::owns`]).
    catalog: AggCatalog,
    cells: Box<[CellMap<AggAcc>]>,
    contributions: Box<[Mutex<ContribShard>]>,
    contrib_mask: u64,
    computed: Counter,
}

impl AggRegistry {
    /// A registry for the shapes of `catalog`, at most `cap_per_spec`
    /// cells each.
    pub fn new(catalog: &AggCatalog, cap_per_spec: usize, obs: &Obs) -> AggRegistry {
        let shards = 16;
        let counters = [
            "demaq_core_agg_hits_total",
            "demaq_core_agg_deltas_total",
            "demaq_core_agg_rebuilds_total",
        ];
        // The maps share one series each (the registry hands out the same
        // counter per name); register them even for an empty catalog.
        for name in counters {
            obs.registry.counter(name);
        }
        AggRegistry {
            catalog: catalog.clone(),
            cells: (0..catalog.len())
                .map(|_| CellMap::new(cap_per_spec, obs, counters))
                .collect(),
            contributions: (0..shards).map(|_| Mutex::new(IdMap::default())).collect(),
            contrib_mask: shards as u64 - 1,
            computed: obs.registry.counter("demaq_core_agg_contributions_total"),
        }
    }

    /// Is `(id, spec)` a shape of this registry's application? Reads from
    /// a plan lowered into another catalog must decline: their `id` names
    /// another shape's cells and contributions here, or none at all.
    pub fn owns(&self, id: AggId, spec: &AggregateSpec) -> bool {
        self.catalog.owns(id, spec)
    }

    /// The cells of aggregate `id`. Folds that errored must NOT be
    /// stored — the caller declines the read instead, so the fallback
    /// reproduces the reference error.
    pub fn cells(&self, id: AggId) -> &CellMap<AggAcc> {
        &self.cells[id as usize]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_store::slice::SliceIndex;
    use demaq_store::PropValue;
    use demaq_xquery::{AggOp, AggSource, Item, Sequence};
    use std::sync::Arc;

    fn obs() -> Arc<Obs> {
        Obs::new()
    }

    fn fold(token: u64, len: usize, n: i64) -> Fold<AggAcc> {
        Fold {
            token,
            len,
            value: AggAcc::Count(n),
        }
    }

    /// Handles of `n` slices of a scratch index.
    fn handles(n: i64) -> Vec<Scope<'static>> {
        let mut idx = SliceIndex::new();
        (0..n)
            .map(|i| Scope::Slice(idx.resolve("s", &PropValue::Int(i))))
            .collect()
    }

    /// The scope of the slice `("s", key)` of `idx`.
    fn slice(idx: &SliceIndex, key: &PropValue) -> Scope<'static> {
        Scope::Slice(idx.find("s", key).expect("known slice"))
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

    const SEQ_COUNTERS: [&str; 3] = [
        "demaq_core_slice_seq_hits_total",
        "demaq_core_slice_seq_appends_total",
        "demaq_core_slice_seq_rebuilds_total",
    ];

    fn seq_of(ids: &[u64]) -> Sequence {
        ids.iter()
            .map(|i| Item::Node(demaq_xml::parse(&format!("<m id='{i}'/>")).unwrap().root()))
            .collect()
    }

    /// The member-sequence cell of `("s", key)` as the engine keeps it,
    /// refreshed against `idx`: returns `(cached items reused, ids read)`.
    fn refresh(seqs: &CellMap<Sequence>, idx: &SliceIndex, key: &PropValue) -> (usize, Vec<MsgId>) {
        let scope = slice(idx, key);
        let cell = seqs.get(scope);
        let Scope::Slice(id) = scope else {
            unreachable!()
        };
        let mut ids = Vec::new();
        let read = idx.read_since(id, cell.as_ref().map(|f| (f.token, f.len)), &mut ids);
        let (mut items, extended) = match cell {
            Some(f) if read.resumed => {
                if ids.is_empty() {
                    seqs.note_hit();
                    return (f.value.len(), ids);
                }
                (f.value.into_vec(), true)
            }
            _ => (Vec::new(), false),
        };
        let reused = items.len();
        items.extend(seq_of(&ids.iter().map(|m| m.0).collect::<Vec<_>>()));
        let value = Sequence::from(items);
        seqs.put(
            scope,
            Fold {
                token: read.token,
                len: read.len,
                value,
            },
            extended,
        );
        (reused, ids)
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
        assert!(
            !reg.owns(id, &foreign),
            "an equal shape from another catalog"
        );
    }

    #[test]
    fn stored_fold_is_returned_per_scope() {
        let o = obs();
        let reg = AggRegistry::new(&catalog(2), 1024, &o);
        let h = handles(2);
        let (a, b) = (h[0], h[1]);
        assert!(reg.cells(0).get(a).is_none());
        reg.cells(0).put(a, fold(7, 1, 1), false);
        reg.cells(1).put(Scope::Queue("q"), fold(3, 2, 2), true);
        let f = reg.cells(0).get(a).expect("stored");
        assert_eq!((f.token, f.len), (7, 1));
        assert!(reg.cells(0).get(b).is_none(), "keys are independent");
        assert!(reg.cells(1).get(a).is_none(), "ids are independent");
        assert!(reg.cells(0).get(Scope::Queue("q")).is_none());
        assert_eq!(reg.cells(1).get(Scope::Queue("q")).unwrap().len, 2);
        assert_eq!(o.registry.counter_total("demaq_core_agg_rebuilds_total"), 1);
        assert_eq!(o.registry.counter_total("demaq_core_agg_deltas_total"), 1);
        // Overwrites replace in place.
        reg.cells(0).put(a, fold(7, 4, 4), true);
        assert_eq!(reg.cells(0).get(a).unwrap().len, 4);
        assert_eq!(reg.cells(0).len() + reg.cells(1).len(), 2);
    }

    #[test]
    fn token_zero_never_caches() {
        let o = obs();
        let reg = AggRegistry::new(&catalog(1), 1024, &o);
        reg.cells(0).put(Scope::Queue("q"), fold(0, 1, 1), false);
        assert!(reg.cells(0).is_empty(), "token-0 store is dropped");
    }

    #[test]
    fn lru_eviction_bounds_cells() {
        let o = obs();
        let reg = AggRegistry::new(&catalog(1), 8, &o);
        let cells = reg.cells(0);
        let keys = handles(20);
        for k in &keys {
            cells.put(*k, fold(1, 1, 1), false);
            // Keep key 0 hot: it must survive every eviction.
            assert!(cells.get(keys[0]).is_some());
        }
        assert!(cells.len() <= 8, "cap enforced, got {}", cells.len());
        assert!(cells.get(keys[19]).is_some(), "newest survives");
    }

    #[test]
    fn member_sequences_hit_extend_and_rebuild() {
        let o = obs();
        let seqs = CellMap::new(4096, &o, SEQ_COUNTERS);
        let mut idx = SliceIndex::new();
        let key = PropValue::Str("k".into());
        idx.add("s", &key, MsgId(1));
        idx.add("s", &key, MsgId(2));
        assert_eq!(
            refresh(&seqs, &idx, &key),
            (0, vec![MsgId(1), MsgId(2)]),
            "cold"
        );
        assert_eq!(refresh(&seqs, &idx, &key), (2, vec![]), "unchanged: hit");
        idx.add("s", &key, MsgId(3));
        assert_eq!(
            refresh(&seqs, &idx, &key),
            (2, vec![MsgId(3)]),
            "append: extend"
        );
        // A reset refilled to the same length must not validate.
        idx.reset(idx.find("s", &key).unwrap());
        for m in 4..7 {
            idx.add("s", &key, MsgId(m));
        }
        let (reused, ids) = refresh(&seqs, &idx, &key);
        assert_eq!((reused, ids.len()), (0, 3), "new lifetime: rebuild");
        let seq = seqs.get(slice(&idx, &key)).unwrap().value;
        assert_eq!(seq.len(), 3);
        let counter = |n: &str| o.registry.counter_total(n);
        assert_eq!(
            SEQ_COUNTERS.map(counter),
            [1, 1, 2],
            "[hits, appends, rebuilds]"
        );
    }

    #[test]
    fn member_sequence_gc_drops_cells_the_store_no_longer_resumes() {
        let o = obs();
        let seqs = CellMap::new(64, &o, SEQ_COUNTERS);
        let mut idx = SliceIndex::new();
        let (k1, k2) = (PropValue::Str("a".into()), PropValue::Str("b".into()));
        idx.add("s", &k1, MsgId(1));
        idx.add("s", &k2, MsgId(2));
        refresh(&seqs, &idx, &k1);
        refresh(&seqs, &idx, &k2);
        // The reset releases message 1; a GC would purge it.
        idx.reset(idx.find("s", &k1).unwrap());
        seqs.retain_slices(|id, token, len| {
            idx.read_since(id, Some((token, len)), &mut Vec::new())
                .resumed
        });
        assert!(
            seqs.get(slice(&idx, &k1)).is_none(),
            "the cell pinning message 1 is gone"
        );
        assert_eq!(
            seqs.get(slice(&idx, &k2)).unwrap().value.len(),
            1,
            "current cells stay"
        );
        assert_eq!(seqs.len(), 1);
    }

    #[test]
    fn member_sequence_cap_evicts_lru() {
        let o = obs();
        let seqs = CellMap::new(8, &o, SEQ_COUNTERS);
        for (i, scope) in handles(20).into_iter().enumerate() {
            let value = seq_of(&[i as u64]);
            seqs.put(
                scope,
                Fold {
                    token: 1,
                    len: 1,
                    value,
                },
                false,
            );
        }
        assert!(seqs.len() <= 8, "cap enforced, got {}", seqs.len());
    }

    #[test]
    fn contributions_fold_and_are_forgotten_at_purge() {
        let o = obs();
        let reg = AggRegistry::new(&catalog(2), 1024, &o);
        reg.put_contributions(
            MsgId(1),
            vec![(0, Contribution::Count(2)), (1, Contribution::Count(5))],
        );
        let mut acc = AggAcc::new(AggOp::Count);
        assert!(reg.absorb(MsgId(1), 1, &mut acc).unwrap().is_ok());
        assert!(
            reg.absorb(MsgId(2), 1, &mut acc).is_none(),
            "no contribution kept"
        );
        assert_eq!(acc.result().to_string(), "5");
        reg.put_contributions(MsgId(2), vec![(1, Contribution::Count(1))]);
        reg.forget(&[MsgId(1)]);
        assert!(reg.absorb(MsgId(1), 0, &mut acc).is_none(), "purged");
        assert!(reg.absorb(MsgId(2), 1, &mut acc).is_some(), "others stay");
        assert_eq!(
            o.registry
                .counter_total("demaq_core_agg_contributions_total"),
            3
        );
    }
}
