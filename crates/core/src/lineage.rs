//! Causal lineage, answered from the store.
//!
//! Demaq's state *is* the message history (paper Sec. 2), so "where did
//! this message come from and what did it cause?" is a first-class query.
//! There is no lineage record: the store reads each message's edge from
//! the message itself — the parent, the root and the creating rule from
//! its provenance system properties, the LSN from the WAL frame that
//! logged its enqueue — and the edge goes when GC purges the message. A
//! query walks those edges and nothing else. It therefore answers for
//! exactly the messages the store retains, the same before and after a
//! restart, and the processing path does no lineage work at all.
//!
//! A hop no rule made is labelled from the message and its queue:
//! `<error>` for an error message routed outside any rule, `<gateway>`
//! for an ingest into an incoming gateway, and `<echo>` for the rest —
//! an echo timer's re-enqueue.

use crate::app::CompiledApp;
use crate::properties::system;
use demaq_qdl::QueueKind;
use demaq_store::types::prop;
use demaq_store::{LineageEdge, MessageStore, MsgId, Name, PropValue};
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
    /// Rule whose firing produced the message, or the label of a hop no
    /// rule made (see the module docs).
    pub rule: Option<String>,
    /// Queue the message was enqueued into.
    pub queue: String,
    /// LSN of the WAL frame that logged the message's enqueue, when the
    /// queue is persistent.
    pub lsn: Option<u64>,
}

/// How a message entering a queue of `kind` with `props` came to be, as
/// lineage and the trace name it: its creating rule, or the label of a hop
/// no rule made (see the module docs); empty for a root.
pub(crate) fn hop(kind: QueueKind, props: &[(Name, PropValue)]) -> &str {
    if let Some(PropValue::Str(rule)) = prop(props, system::CREATING_RULE) {
        rule
    } else if prop(props, system::ERROR_PATH).is_some() {
        "<error>"
    } else if kind == QueueKind::IncomingGateway {
        "<gateway>"
    } else if prop(props, system::PARENT_MSG).is_some() {
        "<echo>"
    } else {
        ""
    }
}

/// The record of an edge `store` holds.
fn edge_record(app: &CompiledApp, store: &MessageStore, e: LineageEdge) -> LineageRecord {
    let rule = match &*e.rule {
        "" => {
            let kind = app
                .queues
                .get(&*e.queue)
                .map_or(QueueKind::Basic, |q| q.decl.kind);
            let meta = store.message_meta(e.msg).ok();
            meta.map(|meta| hop(kind, &meta.props).to_string())
        }
        rule => Some(rule.to_string()),
    };
    LineageRecord {
        msg: e.msg.0,
        parent: Some(e.parent.0),
        root: e.root.0,
        rule: rule.filter(|r| !r.is_empty()),
        queue: e.queue.to_string(),
        lsn: e.lsn.map(|l| l.0),
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

/// The lineage of `msg` over the stores of one deployment of `app`,
/// indexed by shard. Ids are shard-strided (shard `i` allocates from
/// `i << 48`), so a message is read from store `id >> 48`; a single store
/// is asked about every id, which is what one shard of a fleet answering
/// on its own needs.
pub(crate) fn walk(app: &CompiledApp, stores: &[&MessageStore], msg: MsgId) -> Lineage {
    let mut lineage = Lineage {
        target: record(app, stores, msg),
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
        let Some(rec) = record(app, stores, MsgId(p)) else {
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
                .push(edge_record(app, store, e));
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

/// The record of one message: its edge, or a root record when the store
/// retains the message but it has no parent.
fn record(app: &CompiledApp, stores: &[&MessageStore], id: MsgId) -> Option<LineageRecord> {
    let store = match stores {
        [only] => only,
        _ => stores.get(usize::try_from(id.0 >> 48).ok()?)?,
    };
    match store.lineage_of(id) {
        Some(e) => Some(edge_record(app, store, e)),
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

    fn app() -> CompiledApp {
        let program = ["in", "mid", "a", "out"]
            .map(|q| format!("create queue {q} kind basic mode persistent\n"))
            .concat();
        let spec = demaq_qdl::parse_program(&program).unwrap();
        CompiledApp::compile(spec, &HashMap::new()).unwrap()
    }

    fn open(dir: &std::path::Path, shard: u64) -> MessageStore {
        let mut opts = StoreOptions::new(dir);
        opts.msg_id_base = shard << 48;
        let store = MessageStore::open(opts).unwrap();
        for q in ["in", "mid", "a", "out"] {
            store.create_queue(q, QueueMode::Persistent, 0).unwrap();
        }
        store
    }

    /// Enqueue into `queue`, with the provenance of an edge from `parent`
    /// when given.
    fn put(store: &MessageStore, queue: &str, edge: Option<(MsgId, MsgId, &str)>) -> MsgId {
        let provenance = edge.map_or_else(Vec::new, |(parent, root, rule)| {
            vec![
                (system::CREATING_RULE.into(), PropValue::Str(rule.into())),
                (system::PARENT_MSG.into(), PropValue::Int(parent.0 as i64)),
                (system::ROOT_MSG.into(), PropValue::Int(root.0 as i64)),
            ]
        });
        let txn = store.begin();
        let id = store
            .enqueue(txn, queue, "<m/>".into(), provenance, 0)
            .unwrap();
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
        let (app, stores) = (app(), [&store]);

        let l = walk(&app, &stores, kids[0]);
        assert_eq!(l.target.as_ref().unwrap().rule.as_deref(), Some("r2"));
        assert_eq!(ids(&l.ancestors), [mid.0, root.0]);
        assert_eq!(
            l.ancestors[1].queue, "in",
            "the root record names its queue"
        );
        assert_eq!(ids(&l.descendants), [leaf.0]);

        let l = walk(&app, &stores, root);
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
        let l = walk(&app(), &[&store], MsgId(42));
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

        let (app, fleet) = (app(), [&s0, &s1]);
        assert_eq!(ids(&walk(&app, &fleet, leaf).ancestors), [mid.0, root.0]);
        assert_eq!(ids(&walk(&app, &fleet, root).descendants), [mid.0, leaf.0]);

        let alone = walk(&app, &[&s1], mid);
        assert_eq!(alone.target.unwrap().rule.as_deref(), Some("hop"));
        assert!(
            alone.ancestors.is_empty(),
            "the root lives in the other store"
        );
        assert!(
            walk(&app, &fleet, MsgId(7 << 48)).target.is_none(),
            "no such shard"
        );
    }
}
