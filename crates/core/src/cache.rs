//! The document cache: redundant-work elimination on the
//! rule-evaluation hot path (paper Sec. 4's "avoiding redundant work").
//!
//! [`DocCache`] is a **sharded, byte-budgeted LRU** over parsed message
//! documents, process-local and strictly derived from committed store
//! state. Shards are selected by a multiplicative hash of the [`MsgId`],
//! so concurrent workers in
//! [`crate::engine::Server::process_all_parallel`] rarely contend on the
//! same mutex. An entry is charged what it occupies: the document's
//! measured footprint ([`Document::heap_bytes`]) plus the slot around it.
//!
//! Snapshot safety: the cache is never consulted on trust — it is keyed
//! by the unique, never-reused `MsgId` of an immutable message, and GC
//! drops the entries of purged messages. Materialized slice member
//! sequences are cells of a [`crate::aggregates::CellMap`], validated on
//! the store's lifetime tokens like aggregate cells.

use demaq_obs::{Counter, Gauge, Obs};
use demaq_store::{IdMap, MsgId};
use demaq_xml::Document;
use parking_lot::Mutex;
use std::sync::Arc;

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// What an entry costs beyond its document: the slab slot, the map entry
/// pointing at it (key, index, control byte, load factor) and the `Arc`'s
/// two counters.
const SLOT_OVERHEAD_BYTES: usize = std::mem::size_of::<Slot>() + 24 + 16;

struct Slot {
    id: MsgId,
    /// `None` only while the slot sits on the free list.
    entry: Option<Arc<Document>>,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// One shard: a hash map into an intrusive doubly-linked LRU list held in
/// a slab, so get/insert/evict are all O(1).
struct DocShard {
    map: IdMap<MsgId, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used (eviction end).
    tail: usize,
    bytes: usize,
}

impl DocShard {
    fn new() -> DocShard {
        DocShard {
            map: IdMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (p, n) = (self.slots[i].prev, self.slots[i].next);
        if p != NIL {
            self.slots[p].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slots[n].prev = p;
        } else {
            self.tail = p;
        }
        self.slots[i].prev = NIL;
        self.slots[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Remove the LRU entry; returns its byte cost.
    fn evict_tail(&mut self) -> usize {
        let i = self.tail;
        self.unlink(i);
        let id = self.slots[i].id;
        self.map.remove(&id);
        let cost = self.slots[i].bytes;
        self.bytes -= cost;
        self.slots[i].entry = None;
        self.free.push(i);
        cost
    }

    fn remove(&mut self, id: MsgId) -> usize {
        match self.map.remove(&id) {
            Some(i) => {
                self.unlink(i);
                let cost = self.slots[i].bytes;
                self.bytes -= cost;
                self.slots[i].entry = None;
                self.free.push(i);
                cost
            }
            None => 0,
        }
    }
}

/// Sharded byte-budgeted LRU over parsed documents, keyed by [`MsgId`].
///
/// A byte budget of 0 disables the cache (every `get` misses, `insert`
/// keeps nothing).
pub struct DocCache {
    shards: Box<[Mutex<DocShard>]>,
    shard_mask: u64,
    shard_budget: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    parses: Counter,
    bytes: Gauge,
}

impl DocCache {
    pub fn new(shards: usize, byte_budget: usize, obs: &Obs) -> DocCache {
        let n = shards.max(1).next_power_of_two();
        let r = &obs.registry;
        DocCache {
            shards: (0..n).map(|_| Mutex::new(DocShard::new())).collect(),
            shard_mask: (n - 1) as u64,
            shard_budget: byte_budget / n,
            hits: r.counter("demaq_core_doc_cache_hits_total"),
            misses: r.counter("demaq_core_doc_cache_misses_total"),
            evictions: r.counter("demaq_core_doc_cache_evictions_total"),
            parses: r.counter("demaq_core_doc_parses_total"),
            bytes: r.gauge("demaq_core_doc_cache_bytes"),
        }
    }

    pub fn enabled(&self) -> bool {
        self.shard_budget > 0
    }

    fn shard(&self, id: MsgId) -> &Mutex<DocShard> {
        // Fibonacci hashing spreads the sequential MsgId space evenly.
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h & self.shard_mask) as usize]
    }

    /// Count one actual XML parse performed to fill this cache (the metric
    /// the E10 shape claim is asserted on).
    pub fn note_parse(&self) {
        self.parses.inc();
    }

    pub fn get(&self, id: MsgId) -> Option<Arc<Document>> {
        if !self.enabled() {
            self.misses.inc();
            return None;
        }
        let mut s = self.shard(id).lock();
        match s.map.get(&id).copied() {
            Some(i) => {
                s.touch(i);
                self.hits.inc();
                s.slots[i].entry.as_ref().map(Arc::clone)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert (or refresh) a parsed document.
    pub fn insert(&self, id: MsgId, doc: Arc<Document>) {
        if !self.enabled() {
            return;
        }
        let cost = SLOT_OVERHEAD_BYTES + doc.heap_bytes();
        let mut s = self.shard(id).lock();
        if let Some(&i) = s.map.get(&id) {
            let old = std::mem::replace(&mut s.slots[i].bytes, cost);
            s.slots[i].entry = Some(doc);
            s.bytes = s.bytes - old + cost;
            self.bytes.add(cost as i64 - old as i64);
            s.touch(i);
        } else {
            let slot = Slot {
                id,
                entry: Some(doc),
                bytes: cost,
                prev: NIL,
                next: NIL,
            };
            let i = match s.free.pop() {
                Some(i) => {
                    s.slots[i] = slot;
                    i
                }
                None => {
                    s.slots.push(slot);
                    s.slots.len() - 1
                }
            };
            s.map.insert(id, i);
            s.push_front(i);
            s.bytes += cost;
            self.bytes.add(cost as i64);
        }
        // LRU eviction down to the shard budget (an oversized entry evicts
        // itself: it is uncacheable, the caller keeps its own Arc).
        while s.bytes > self.shard_budget && s.tail != NIL {
            let freed = s.evict_tail();
            self.bytes.add(-(freed as i64));
            self.evictions.inc();
        }
    }

    /// Drop entries for purged messages (GC hook).
    pub fn remove_many(&self, ids: &[MsgId]) {
        for &id in ids {
            let freed = self.shard(id).lock().remove(id);
            if freed > 0 {
                self.bytes.add(-(freed as i64));
            }
        }
    }

    /// Current entry count across all shards (tests/diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current estimated bytes across all shards (tests/diagnostics).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_xml::parse as parse_xml;

    fn obs() -> Arc<Obs> {
        Obs::new()
    }

    fn doc(xml: &str) -> Arc<Document> {
        parse_xml(xml).unwrap()
    }

    #[test]
    fn doc_cache_hit_miss_and_touch() {
        let o = obs();
        let c = DocCache::new(4, 1 << 20, &o);
        assert!(c.get(MsgId(1)).is_none());
        c.insert(MsgId(1), doc("<a/>"));
        let e = c.get(MsgId(1)).expect("hit");
        assert_eq!(e.root().to_xml(), "<a/>");
        assert_eq!(
            o.registry.counter_total("demaq_core_doc_cache_hits_total"),
            1
        );
        assert_eq!(
            o.registry
                .counter_total("demaq_core_doc_cache_misses_total"),
            1
        );
    }

    #[test]
    fn doc_cache_byte_budget_evicts_lru() {
        let o = obs();
        // One shard so the LRU order is fully observable; a budget that
        // holds two entries but not three.
        let cost = SLOT_OVERHEAD_BYTES + doc("<a/>").heap_bytes();
        let c = DocCache::new(1, cost * 2 + cost / 2, &o);
        c.insert(MsgId(1), doc("<a/>"));
        c.insert(MsgId(2), doc("<b/>"));
        assert_eq!(c.bytes(), cost * 2);
        // Touch 1 so 2 is now least recently used.
        assert!(c.get(MsgId(1)).is_some());
        c.insert(MsgId(3), doc("<c/>"));
        assert!(c.get(MsgId(2)).is_none(), "LRU entry evicted");
        assert!(c.get(MsgId(1)).is_some());
        assert!(c.get(MsgId(3)).is_some());
        assert!(
            o.registry
                .counter_total("demaq_core_doc_cache_evictions_total")
                >= 1
        );
        assert_eq!(c.bytes(), cost * 2);
    }

    #[test]
    fn doc_cache_zero_budget_disables() {
        let o = obs();
        let c = DocCache::new(4, 0, &o);
        c.insert(MsgId(1), doc("<a/>"));
        assert!(c.get(MsgId(1)).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn doc_cache_remove_many() {
        let o = obs();
        let c = DocCache::new(4, 1 << 20, &o);
        for i in 0..10 {
            c.insert(MsgId(i), doc("<a/>"));
        }
        c.remove_many(&[MsgId(2), MsgId(5), MsgId(99)]);
        assert_eq!(c.len(), 8);
        assert!(c.get(MsgId(2)).is_none());
        assert!(c.get(MsgId(3)).is_some());
    }

    /// The model this cache charged before it measured: a fixed 160 bytes
    /// plus four times the serialized payload.
    fn old_model_cost(payload: &str) -> usize {
        160 + 4 * payload.len()
    }

    /// A budget sized against the old model must hold at least as many
    /// documents now: on messages shaped like the benchmark workloads',
    /// the measured charge never exceeds the old estimate.
    #[test]
    fn measured_cost_is_within_the_old_estimate() {
        let mut order = String::from(
            "<order id=\"o4711\" region=\"EU\" priority=\"2\"><customer><id>c1234</id>\
             <name>Customer 1234</name><tier>gold</tier></customer><items>",
        );
        for i in 0..8 {
            order.push_str(&format!(
                "<item sku=\"s{}\"><qty>{}</qty><price>{}</price>\
                 <desc>alpha bravo charlie delta</desc></item>",
                1000 + i * 37,
                1 + i,
                100 + i * 13
            ));
        }
        order.push_str(
            "</items><rush by=\"tue\"/><note>deliver to dock 17 between nine and five, \
             call ahead</note></order>",
        );
        let corpora = [
            order.as_str(),
            "<priced id=\"o4711\" region=\"EU\"><customer>c1234</customer><tier>gold</tier>\
             <total>10394</total><lines>8</lines></priced>",
            "<invoice id=\"o4711\" ref=\"EU-4711\"><amount>10394</amount>\
             <perLine>1299</perLine></invoice>",
            "<job n=\"0\" to=\"5\"/>",
            "<job n=\"4711\" to=\"17\"/>",
            "<done n=\"4711\"/>",
            "<reading dev=\"d1405\" grp=\"g13\" seq=\"52117\"><v>23</v><unit>celsius</unit>\
             </reading>",
        ];
        for xml in corpora {
            let cost = SLOT_OVERHEAD_BYTES + doc(xml).heap_bytes();
            assert!(
                cost <= old_model_cost(xml),
                "{cost} > {} for {xml}",
                old_model_cost(xml)
            );
        }
    }
}
