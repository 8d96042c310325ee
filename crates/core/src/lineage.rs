//! Causal lineage, answered from the store.
//!
//! Demaq's state *is* the message history (paper Sec. 2), so "where did
//! this message come from and what did it cause?" is a first-class query.
//! The store keeps one durable edge per rule-created message (a WAL
//! `Lineage` record, logged in the enqueue's own transaction and purged
//! with its message at GC); a query walks those edges and nothing else.
//! It therefore answers for exactly the messages the store retains, the
//! same before and after a restart, and the processing path does no
//! lineage work beyond logging the edge.

use demaq_store::{LineageEdge, MessageStore, MsgId};
use std::collections::{HashMap, HashSet, VecDeque};

/// One causal edge: `msg` was created by `rule` firing on `parent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageRecord {
    /// The created message.
    pub msg: u64,
    /// The message whose processing caused the enqueue; `None` for roots
    /// (external ingests and direct API enqueues).
    pub parent: Option<u64>,
    /// Root of the causal tree (`msg` itself for roots).
    pub root: u64,
    /// Rule whose firing produced the message, when known.
    pub rule: Option<String>,
    /// Queue the message was enqueued into.
    pub queue: String,
    /// LSN of the WAL frame holding the durable lineage op, when the
    /// target queue is persistent.
    pub lsn: Option<u64>,
}

impl From<LineageEdge> for LineageRecord {
    fn from(e: LineageEdge) -> LineageRecord {
        LineageRecord {
            msg: e.msg.0,
            parent: Some(e.parent.0),
            root: e.root.0,
            rule: (!e.rule.is_empty()).then(|| e.rule.to_string()),
            queue: e.queue.to_string(),
            lsn: e.lsn.map(|l| l.0),
        }
    }
}

/// Full causal chain of one message, as returned by
/// [`crate::Server::lineage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lineage {
    /// The queried message's own record (absent if the store does not
    /// retain it).
    pub target: Option<LineageRecord>,
    /// Ancestors, nearest first (parent, grandparent, …, root).
    pub ancestors: Vec<LineageRecord>,
    /// Descendants in breadth-first order from the target, siblings by
    /// ascending id.
    pub descendants: Vec<LineageRecord>,
}

/// The lineage of `msg` over the stores of one deployment, indexed by
/// shard. Ids are shard-strided (shard `i` allocates from `i << 48`), so a
/// message is read from store `id >> 48`; a single store is asked about
/// every id, which is what one shard of a fleet answering on its own
/// needs.
pub(crate) fn walk(stores: &[&MessageStore], msg: MsgId) -> Lineage {
    let mut lineage = Lineage {
        target: record(stores, msg),
        ancestors: Vec::new(),
        descendants: Vec::new(),
    };
    let Some(target) = &lineage.target else {
        return lineage;
    };

    // Up: one edge lookup per hop, stopping at the root or at the first
    // ancestor the stores no longer retain.
    let mut seen = HashSet::from([msg.0]);
    let mut cur = target.parent;
    while let Some(p) = cur.filter(|p| seen.insert(*p)) {
        let Some(rec) = record(stores, MsgId(p)) else {
            break;
        };
        cur = rec.parent;
        lineage.ancestors.push(rec);
    }

    // Down: every descendant shares the target's root, so one pass per
    // store over that tree's edges, then breadth-first from the target.
    let mut children: HashMap<u64, Vec<LineageRecord>> = HashMap::new();
    for store in stores {
        for e in store.lineage_tree(MsgId(target.root)) {
            children
                .entry(e.parent.0)
                .or_default()
                .push(LineageRecord::from(e));
        }
    }
    let mut frontier = VecDeque::from([msg.0]);
    while let Some(m) = frontier.pop_front() {
        // Taking the entry expands each parent once, cycles included.
        if let Some(mut kids) = children.remove(&m) {
            kids.sort_unstable_by_key(|r| r.msg);
            frontier.extend(kids.iter().map(|r| r.msg));
            lineage.descendants.extend(kids);
        }
    }
    lineage
}

/// The record of one message: its durable edge, or a root record when the
/// store retains the message but holds no edge for it.
fn record(stores: &[&MessageStore], id: MsgId) -> Option<LineageRecord> {
    let store = match stores {
        [only] => only,
        _ => stores.get(usize::try_from(id.0 >> 48).ok()?)?,
    };
    match store.lineage_of(id) {
        Some(e) => Some(e.into()),
        None => store.message_meta(id).ok().map(|meta| LineageRecord {
            msg: id.0,
            parent: None,
            root: id.0,
            rule: None,
            queue: meta.queue.to_string(),
            lsn: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demaq_store::{QueueMode, StoreOptions};

    fn open(dir: &std::path::Path, shard: u64) -> MessageStore {
        let mut opts = StoreOptions::new(dir);
        opts.msg_id_base = shard << 48;
        let store = MessageStore::open(opts).unwrap();
        for q in ["in", "mid", "a", "out"] {
            store.create_queue(q, QueueMode::Persistent, 0).unwrap();
        }
        store
    }

    /// Enqueue into `queue`, with an edge from `parent` when given.
    fn put(store: &MessageStore, queue: &str, edge: Option<(MsgId, MsgId, &str)>) -> MsgId {
        let txn = store.begin();
        let id = store
            .enqueue(txn, queue, "<m/>".into(), Vec::new(), 0)
            .unwrap();
        if let Some((parent, root, rule)) = edge {
            store
                .record_lineage(txn, id, parent, root, rule, queue)
                .unwrap();
        }
        store.commit(txn).unwrap();
        id
    }

    fn ids(recs: &[LineageRecord]) -> Vec<u64> {
        recs.iter().map(|r| r.msg).collect()
    }

    #[test]
    fn ancestor_and_descendant_walks() {
        let dir = tempfile::TempDir::new().unwrap();
        let store = open(dir.path(), 0);
        // root -> mid -> 8 siblings; the first sibling -> leaf. Enough
        // siblings that the store's map order is never sorted by chance.
        let root = put(&store, "in", None);
        let mid = put(&store, "mid", Some((root, root, "r1")));
        let kids: Vec<MsgId> = (0..8)
            .map(|_| put(&store, "a", Some((mid, root, "r2"))))
            .collect();
        let leaf = put(&store, "out", Some((kids[0], root, "r3")));
        let stores = [&store];

        let l = walk(&stores, kids[0]);
        assert_eq!(l.target.as_ref().unwrap().rule.as_deref(), Some("r2"));
        assert_eq!(ids(&l.ancestors), [mid.0, root.0]);
        assert_eq!(
            l.ancestors[1].queue, "in",
            "the root record names its queue"
        );
        assert_eq!(ids(&l.descendants), [leaf.0]);

        let l = walk(&stores, root);
        assert!(l.ancestors.is_empty());
        assert_eq!(l.target.as_ref().unwrap().parent, None);
        let mut want = vec![mid.0];
        want.extend(kids.iter().map(|k| k.0));
        want.push(leaf.0);
        assert_eq!(
            ids(&l.descendants),
            want,
            "breadth-first from the root, siblings by id"
        );
        assert!(l.descendants.iter().all(|r| r.root == root.0));
    }

    #[test]
    fn unknown_message_yields_empty_lineage() {
        let dir = tempfile::TempDir::new().unwrap();
        let store = open(dir.path(), 0);
        let l = walk(&[&store], MsgId(42));
        assert!(l.target.is_none());
        assert!(l.ancestors.is_empty());
        assert!(l.descendants.is_empty());
    }

    /// A chain that hops stores is walked through each id's home store,
    /// and one store alone answers for the ids it holds.
    #[test]
    fn walks_cross_stores_by_home_shard() {
        let dirs = [
            tempfile::TempDir::new().unwrap(),
            tempfile::TempDir::new().unwrap(),
        ];
        let s0 = open(dirs[0].path(), 0);
        let s1 = open(dirs[1].path(), 1);
        let root = put(&s0, "in", None);
        let mid = put(&s1, "mid", Some((root, root, "hop")));
        let leaf = put(&s0, "out", Some((mid, root, "back")));
        assert_eq!(mid.0 >> 48, 1);

        let fleet = [&s0, &s1];
        assert_eq!(ids(&walk(&fleet, leaf).ancestors), [mid.0, root.0]);
        assert_eq!(ids(&walk(&fleet, root).descendants), [mid.0, leaf.0]);

        let alone = walk(&[&s1], mid);
        assert_eq!(alone.target.unwrap().rule.as_deref(), Some("hop"));
        assert!(
            alone.ancestors.is_empty(),
            "the root lives in the other store"
        );
        assert!(
            walk(&fleet, MsgId(7 << 48)).target.is_none(),
            "no such shard"
        );
    }
}
