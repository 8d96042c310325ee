//! The slice index: materialized "virtual queues" (paper Sec. 2.3, 4.3).
//!
//! A slicing partitions messages by a property value (the *slice key*);
//! each distinct key denotes one slice. The index is the paper's proposed
//! physical representation — "similar to the materialized views concept in
//! RDBMSs … a B-Tree indexed by the slice key" — as a table: a B-tree per
//! slicing (keys are message content, never hashed with `IdHasher`)
//! resolves a key to a [`SliceId`] once, when a membership applies; the
//! message records the handle, and every later read, reset, lock and
//! cached fold of the slice indexes the slab by it.
//!
//! Slices have *lifetimes* (Sec. 2.3.2): a reset begins a new one, and only
//! messages added in the current lifetime are visible — so a reset simply
//! drops the old lifetime's members (and their reverse-index rows). The
//! index never holds a member a read would have to filter out. Retention
//! (Sec. 2.3.3) couples physical deletion to membership: a message may be
//! purged only when it is processed and no slice of a current lifetime
//! contains it — a lookup in the reverse index, which holds exactly the
//! current-lifetime memberships.
//!
//! **Handle lifetime.** Handles are process-local, like tokens: the log
//! and the snapshot name slices, and recovery hands out handles afresh. A
//! slot is freed only when its slice is empty, in its first lifetime,
//! with nothing released and not pinned. An unprocessed member keeps it
//! non-empty, a reset or a release leaves a mark, and GC purges processed
//! messages only — so a message's handle stays its slice's until it is
//! processed. A reused slot gets a fresh token: what is keyed by the old
//! handle fails its `(token, len)` check and rebuilds. A pin, for a message
//! enqueued before its slicing was declared, lasts the process: pinned
//! slots are bounded by the backlog's keys at open, and a checkpoint leaves
//! the blank ones out.

use crate::types::{IdMap, MsgId, Name, PropValue};
use demaq_obs::Counter;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Persisted aggregate base cells of one slice: `(stable aggregate
/// signature, encoded accumulator)` pairs standing in for released
/// members.
pub type BaseCells = Vec<(String, Vec<u8>)>;

/// A slice's handle: its slot in the [`SliceIndex`]. Process-local (see
/// the module doc), so maps keyed by it use [`IdMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SliceId(u32);

/// The slices a message joined, as `(slicing, handle)` pairs recorded
/// when its memberships applied.
pub type SliceIds = Arc<[(Name, SliceId)]>;

/// State of one slice (one key of one slicing): its current lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SliceState {
    /// Current lifetime; bumped by resets.
    pub epoch: u64,
    /// Current-lifetime members in apply order.
    members: Vec<MsgId>,
    /// Some member was added after a larger id (concurrent commits apply
    /// out of id order): `members` may not be sorted, and readers that
    /// present id order sort a copy.
    out_of_order: bool,
    /// The largest id added since `members` was last empty (an upper bound
    /// once purges or releases removed members). An add is an append only
    /// when its id exceeds it — comparing with the last member alone would
    /// let 4 after the out-of-order 3 in 5, 3, 4 pass as one.
    max: Option<MsgId>,
    /// Lifetime token: the clock value of the slice's last change that was
    /// not an append of an id larger than every earlier one (`max`) —
    /// creation, reset, purge, release, an out-of-order add. While it is
    /// unchanged the membership only grew at the end, so state derived
    /// from the first `len` members is extended from `members[len..]`.
    /// Tokens come from one strictly increasing index-wide clock, so a
    /// token never recurs for a slice (not even across remove/recreate).
    /// Process-local — deliberately *not* checkpointed: the caches
    /// validating on it are process-local too and start empty after
    /// recovery.
    pub token: u64,
    /// Persisted aggregate accumulators standing in for released members:
    /// `(stable aggregate signature, encoded AggAcc)`. Installed by
    /// [`SliceIndex::release`] when the liveness analysis proved the slice
    /// is read only through these aggregates; carried in the checkpoint
    /// (unlike `token`) so recovery does not need the purged payloads.
    pub base: BaseCells,
    /// How many current-lifetime members have been folded into `base` and
    /// released. Membership-only aggregates (`count`, `exists`) answer
    /// `base_members + len`.
    pub base_members: u64,
    /// Found for a message that never joined it: never freed.
    pinned: bool,
}

impl SliceState {
    /// Current-lifetime members in apply order.
    pub fn members(&self) -> &[MsgId] {
        &self.members
    }

    /// Current-lifetime members in id (arrival) order.
    fn sorted_members(&self) -> Vec<MsgId> {
        let mut v = self.members.clone();
        if self.out_of_order {
            v.sort_unstable();
        }
        v
    }

    /// Empty, in its first lifetime, with nothing released: a slice that
    /// says no more than its absence.
    fn is_blank(&self) -> bool {
        self.members.is_empty() && self.epoch == 0 && self.base_members == 0 && self.base.is_empty()
    }

    /// Blank and not pinned: its slot may be freed.
    fn is_disposable(&self) -> bool {
        self.is_blank() && !self.pinned
    }
}

/// One consistent read of a membership for an aggregate fold (see
/// [`SliceIndex::read_since`]); the default is an unknown slice's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemberRead {
    /// Lifetime token (0: nothing to cache against — an unknown slice).
    pub token: u64,
    /// Current-lifetime member count.
    pub len: usize,
    /// The caller's fold still holds: the ids handed out are the members
    /// past its `len` (none if nothing arrived). Otherwise they are every
    /// member, for a rebuild.
    pub resumed: bool,
    /// Released members folded into the base.
    pub base_members: u64,
    /// The base cells — handed out only for a rebuild (`None` when the
    /// caller's fold is still valid, or there is no base).
    pub base: Option<BaseCells>,
}

/// Where a fold covering `since = (token, len)` resumes over a membership
/// whose token is `token` and which has `len` members: `Some(len)` while
/// the token holds (only appends happened since), `None` for a rebuild.
pub(crate) fn resume_at(since: Option<(u64, usize)>, token: u64, len: usize) -> Option<usize> {
    since.and_then(|(t, from)| (t == token && from <= len).then_some(from))
}

/// Fill `ids` for a fold that already covers `since` of the slice: only
/// the members past it when the token still holds, else every member in
/// id order (a rebuild, which also gets `base`).
fn read_members(
    state: &SliceState,
    since: Option<(u64, usize)>,
    ids: &mut Vec<MsgId>,
) -> MemberRead {
    let len = state.members.len();
    let resumed = resume_at(since, state.token, len);
    match resumed {
        Some(from) => ids.extend_from_slice(&state.members[from..]),
        None => {
            let start = ids.len();
            ids.extend_from_slice(&state.members);
            if state.out_of_order {
                ids[start..].sort_unstable();
            }
        }
    }
    MemberRead {
        token: state.token,
        len,
        resumed: resumed.is_some(),
        base_members: state.base_members,
        base: (resumed.is_none() && !state.base.is_empty()).then(|| state.base.clone()),
    }
}

/// The full slice index across all slicings.
#[derive(Default)]
pub struct SliceIndex {
    /// slicing -> key -> handle; keys ordered within a slicing, as in the
    /// B-tree the paper suggests. The one place a slice is found by name.
    ids: BTreeMap<Name, BTreeMap<PropValue, SliceId>>,
    /// The slices by handle, each with its name (for freeing the slot);
    /// `None` for a freed slot.
    slots: Vec<Option<(Name, PropValue, SliceState)>>,
    /// Freed slots, reused before the slab grows.
    free: Vec<SliceId>,
    /// Reverse index for retention checks and replay idempotency: message
    /// -> its *current-lifetime* memberships.
    by_msg: IdMap<MsgId, Vec<SliceId>>,
    /// Monotonic clock feeding tokens (the queues' too); never reused
    /// within a process lifetime, and never 0.
    clock: u64,
    /// `demaq_store_slice_lookups_total`: resolutions by name.
    pub(crate) lookups: Option<Counter>,
}

impl SliceIndex {
    pub fn new() -> SliceIndex {
        SliceIndex::default()
    }

    /// A fresh token: the next tick of the clock.
    pub(crate) fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The handle of the slice `(slicing, key)`, if it exists.
    pub fn find(&self, slicing: &str, key: &PropValue) -> Option<SliceId> {
        if let Some(lookups) = &self.lookups {
            lookups.inc();
        }
        self.ids.get(slicing)?.get(key).copied()
    }

    /// The handle of the slice `(slicing, key)`, created (with a fresh
    /// token) if missing.
    pub fn resolve(&mut self, slicing: &str, key: &PropValue) -> SliceId {
        if let Some(id) = self.find(slicing, key) {
            return id;
        }
        let slicing = match self.ids.get_key_value(slicing) {
            Some((name, _)) => Arc::clone(name),
            None => Name::from(slicing),
        };
        let state = SliceState {
            token: self.tick(),
            ..SliceState::default()
        };
        let next = u32::try_from(self.slots.len()).expect("fewer than 2^32 slices");
        let id = self.free.pop().unwrap_or(SliceId(next));
        if id.0 as usize == self.slots.len() {
            self.slots.push(None);
        }
        self.slots[id.0 as usize] = Some((Arc::clone(&slicing), key.clone(), state));
        self.ids.entry(slicing).or_default().insert(key.clone(), id);
        id
    }

    /// [`Self::resolve`] for a message that never joined the slice, which
    /// is pinned so the handle outlives the message's processing.
    pub fn resolve_pinned(&mut self, slicing: &str, key: &PropValue) -> SliceId {
        let id = self.resolve(slicing, key);
        self.state_mut(id).pinned = true;
        id
    }

    /// The slice behind a handle; `None` once its slot was freed.
    fn get(&self, id: SliceId) -> Option<&SliceState> {
        Some(&self.slots.get(id.0 as usize)?.as_ref()?.2)
    }

    fn state_mut(&mut self, id: SliceId) -> &mut SliceState {
        &mut self.slots[id.0 as usize].as_mut().expect("live handle").2
    }

    /// Add `msg` to the slice `(slicing, key)` in its current lifetime and
    /// return the slice's handle. A replayed add (the message is already a
    /// current member) changes nothing. Only an add that is not an append
    /// moves the token.
    pub fn add(&mut self, slicing: &str, key: &PropValue, msg: MsgId) -> SliceId {
        let id = self.resolve(slicing, key);
        if self.by_msg.get(&msg).is_some_and(|rows| rows.contains(&id)) {
            return id; // idempotent (log replay)
        }
        let state = self.get(id).expect("live handle");
        let append = state.members.is_empty() || Some(msg) > state.max;
        let token = (!append).then(|| self.tick());
        let state = self.state_mut(id);
        if state.members.is_empty() {
            state.out_of_order = false;
        }
        match token {
            None => state.max = Some(msg),
            Some(token) => {
                state.out_of_order = true;
                state.token = token;
            }
        }
        state.members.push(msg);
        self.by_msg.entry(msg).or_default().push(id);
        id
    }

    /// Begin a new lifetime for the slice. Returns the new epoch. The old
    /// lifetime's members leave the slice (and the reverse index); any
    /// narrowed-retention base belongs to the old lifetime and is
    /// discarded with it.
    pub fn reset(&mut self, id: SliceId) -> u64 {
        let token = self.tick();
        let state = self.state_mut(id);
        state.epoch += 1;
        state.token = token;
        state.out_of_order = false;
        state.base.clear();
        state.base_members = 0;
        let (epoch, old) = (state.epoch, std::mem::take(&mut state.members));
        for m in old {
            self.drop_row(m, id);
        }
        epoch
    }

    /// Remove one membership row of `msg` from the reverse index.
    fn drop_row(&mut self, msg: MsgId, id: SliceId) {
        if let Some(rows) = self.by_msg.get_mut(&msg) {
            if let Some(i) = rows.iter().position(|&r| r == id) {
                rows.swap_remove(i);
            }
            if rows.is_empty() {
                self.by_msg.remove(&msg);
            }
        }
    }

    /// Messages visible in the slice's current lifetime, in arrival order.
    pub fn members(&self, slicing: &str, key: &PropValue) -> Vec<MsgId> {
        self.find(slicing, key)
            .and_then(|id| self.get(id))
            .map_or_else(Vec::new, SliceState::sorted_members)
    }

    /// `(current member count, released member count)` — what a
    /// membership-only aggregate needs. O(1).
    pub fn len(&self, id: SliceId) -> (usize, u64) {
        self.get(id)
            .map_or((0, 0), |s| (s.members.len(), s.base_members))
    }

    /// One consistent read for state (an aggregate fold, a member
    /// sequence) that already covers `since = (token, len)`: while the
    /// slice's token is unchanged only the
    /// members past `len` are appended to `ids` (none at all when nothing
    /// arrived); otherwise every current member in id order plus the base
    /// cells, for a rebuild. Members past `len` always arrive in id order —
    /// an out-of-order add moves the token.
    pub fn read_since(
        &self,
        id: SliceId,
        since: Option<(u64, usize)>,
        ids: &mut Vec<MsgId>,
    ) -> MemberRead {
        self.get(id)
            .map_or_else(MemberRead::default, |s| read_members(s, since, ids))
    }

    /// The slice's handle, current members in arrival order, lifetime
    /// token and base cells, read together — the narrowing sweep's view.
    /// The sweep's compare-and-swap expects `(token, members.len())`.
    pub fn narrow_view(
        &self,
        slicing: &str,
        key: &PropValue,
    ) -> Option<(SliceId, Vec<MsgId>, u64, BaseCells)> {
        let id = self.find(slicing, key)?;
        let s = self.get(id)?;
        Some((id, s.sorted_members(), s.token, s.base.clone()))
    }

    /// Narrow retention for one slice: fold `victims` (current members
    /// whose payloads the caller has already absorbed into `cells`) out of
    /// the membership and install the accumulator cells as the slice's new
    /// base. Guarded by compare-and-swap on the slice's `(token, len)` —
    /// an arrival since the caller's fold changes the length, a reset,
    /// purge or release moves the token, and so does a freed slot's reuse
    /// — and the release is skipped (`false`) rather than applied over a
    /// membership the fold did not observe.
    pub fn release(
        &mut self,
        id: SliceId,
        expected: (u64, usize),
        victims: &[MsgId],
        cells: BaseCells,
    ) -> bool {
        let Some(state) = self.get(id) else {
            return false;
        };
        if (state.token, state.members.len()) != expected || victims.is_empty() {
            return false;
        }
        let token = self.tick();
        let state = self.state_mut(id);
        let mut sorted = victims.to_vec();
        sorted.sort_unstable();
        let before = state.members.len();
        state.members.retain(|m| sorted.binary_search(m).is_err());
        debug_assert_eq!(before - state.members.len(), victims.len());
        state.base_members += victims.len() as u64;
        state.base = cells;
        state.token = token;
        for &victim in victims {
            self.drop_row(victim, id);
        }
        true
    }

    /// All keys of one slicing that currently have visible members, in
    /// key order.
    pub fn keys(&self, slicing: &str) -> Vec<PropValue> {
        self.ids.get(slicing).map_or_else(Vec::new, |keys| {
            keys.iter()
                .filter(|(_, &id)| self.len(id).0 > 0)
                .map(|(k, _)| k.clone())
                .collect()
        })
    }

    /// Is `msg` still needed — i.e. a member of any slice in its *current*
    /// lifetime? (Paper Sec. 2.3.3: "a message is not physically removed
    /// from the message store as long as it is contained in at least one
    /// slice".)
    pub fn is_retained(&self, msg: MsgId) -> bool {
        self.by_msg.contains_key(&msg)
    }

    /// Record in `joined` (message `msg`'s) the slices it is a current
    /// member of and has not recorded yet, in one allocation.
    pub(crate) fn record(&self, msg: MsgId, joined: &mut Option<SliceIds>) {
        let rows = self.by_msg.get(&msg).map_or(&[][..], Vec::as_slice);
        let slot = |id: &SliceId| self.slots[id.0 as usize].as_ref().expect("live handle");
        let row = |id: &SliceId| (Arc::clone(&slot(id).0), *id);
        *joined = match joined.take() {
            None if rows.is_empty() => None,
            None => Some(rows.iter().map(row).collect()),
            Some(had) => {
                let new = rows.iter().filter(|id| !had.iter().any(|h| h.1 == **id));
                Some(had.iter().cloned().chain(new.map(row)).collect())
            }
        };
    }

    /// Drop every trace of a purged message. Only the slices it was a
    /// current member of are touched, and a slice it leaves disposable
    /// is dropped and its slot freed.
    pub fn forget(&mut self, msg: MsgId) {
        let Some(rows) = self.by_msg.remove(&msg) else {
            return;
        };
        let token = self.tick();
        for id in rows {
            let state = self.state_mut(id);
            if let Some(i) = state.members.iter().position(|&m| m == msg) {
                state.members.remove(i);
                // A GC purge invalidates the state folded over the slice.
                state.token = token;
            }
            // Never drop a slice carrying a narrowed-retention base: its
            // accumulators still answer aggregate reads for the
            // released members.
            if state.is_disposable() {
                self.free_slot(id);
            }
        }
    }

    /// Free a disposable slice's slot and forget its name.
    fn free_slot(&mut self, id: SliceId) {
        let (slicing, key, _) = self.slots[id.0 as usize].take().expect("live handle");
        if let Some(keys) = self.ids.get_mut(&slicing) {
            keys.remove(&key);
            if keys.is_empty() {
                self.ids.remove(&slicing);
            }
        }
        self.free.push(id);
    }

    /// Iterate all `(slicing, key, state)` for checkpointing, in slicing
    /// and key order; blank slices carry nothing and are left out.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropValue, &SliceState)> {
        self.ids.iter().flat_map(move |(s, keys)| {
            keys.iter()
                .filter_map(move |(k, &id)| Some((&**s, k, self.get(id)?)))
                .filter(|(_, _, state)| !state.is_blank())
        })
    }

    /// Restore one slice from a checkpoint: its current lifetime's
    /// members (in insertion order) and released base. Returns its handle.
    pub fn restore_slice(
        &mut self,
        slicing: &str,
        key: PropValue,
        epoch: u64,
        members: Vec<MsgId>,
        base: BaseCells,
        base_members: u64,
    ) -> SliceId {
        let id = self.resolve(slicing, &key);
        let token = self.tick();
        for &m in &members {
            self.by_msg.entry(m).or_default().push(id);
        }
        let state = self.state_mut(id);
        state.epoch = epoch;
        state.token = token;
        state.base = base;
        state.base_members = base_members;
        state.out_of_order = !members.is_sorted();
        state.max = members.iter().max().copied();
        state.members = members;
        id
    }

    /// Total number of slices tracked (diagnostics).
    pub fn slice_count(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> PropValue {
        PropValue::Str(s.into())
    }

    fn reset(idx: &mut SliceIndex, slicing: &str, key: &PropValue) {
        let id = idx.resolve(slicing, key);
        idx.reset(id);
    }

    fn read(idx: &SliceIndex, since: Option<(u64, usize)>) -> (MemberRead, Vec<MsgId>) {
        let mut ids = Vec::new();
        let r = idx.read_since(idx.find("s", &k("a")).unwrap(), since, &mut ids);
        (r, ids)
    }

    /// `(token, len)` of the slice `("s", key)`: what state folded over it
    /// validates on.
    fn stamp(idx: &SliceIndex, key: &str) -> (u64, usize) {
        idx.find("s", &k(key)).map_or((0, 0), |id| {
            let r = idx.read_since(id, None, &mut Vec::new());
            (r.token, r.len)
        })
    }

    #[test]
    fn membership_and_order() {
        let mut idx = SliceIndex::new();
        idx.add("orders", &k("23"), MsgId(5));
        idx.add("orders", &k("23"), MsgId(2));
        idx.add("orders", &k("42"), MsgId(3));
        assert_eq!(idx.members("orders", &k("23")), vec![MsgId(2), MsgId(5)]);
        assert_eq!(idx.members("orders", &k("42")), vec![MsgId(3)]);
        assert_eq!(idx.members("orders", &k("99")), Vec::<MsgId>::new());
    }

    #[test]
    fn reset_hides_old_lifetime() {
        let mut idx = SliceIndex::new();
        idx.add("domains", &k("example.org"), MsgId(1));
        idx.add("domains", &k("example.org"), MsgId(2));
        reset(&mut idx, "domains", &k("example.org"));
        assert!(idx.members("domains", &k("example.org")).is_empty());
        // New-owner messages appear in the new lifetime.
        idx.add("domains", &k("example.org"), MsgId(3));
        assert_eq!(idx.members("domains", &k("example.org")), vec![MsgId(3)]);
    }

    #[test]
    fn retention_follows_current_lifetime() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(1));
        assert!(idx.is_retained(MsgId(1)));
        reset(&mut idx, "s", &k("a"));
        assert!(!idx.is_retained(MsgId(1)), "reset releases retention");
        assert!(
            !idx.is_retained(MsgId(99)),
            "never-sliced message is unretained"
        );
    }

    #[test]
    fn multi_slice_retention() {
        // Paper's procurement example: the same message is retained by the
        // packaging, finance, and OR departments' slices independently.
        let mut idx = SliceIndex::new();
        idx.add("packaging", &k("o1"), MsgId(1));
        idx.add("finance", &k("o1"), MsgId(1));
        idx.add("monthly", &k("2026-07"), MsgId(1));
        reset(&mut idx, "packaging", &k("o1"));
        assert!(idx.is_retained(MsgId(1)));
        reset(&mut idx, "finance", &k("o1"));
        assert!(idx.is_retained(MsgId(1)));
        reset(&mut idx, "monthly", &k("2026-07"));
        assert!(!idx.is_retained(MsgId(1)), "all slices reset → purgeable");
    }

    #[test]
    fn forget_removes_everywhere() {
        let mut idx = SliceIndex::new();
        idx.add("a", &k("x"), MsgId(1));
        idx.add("b", &k("y"), MsgId(1));
        idx.forget(MsgId(1));
        assert!(idx.members("a", &k("x")).is_empty());
        assert!(idx.members("b", &k("y")).is_empty());
        assert!(!idx.is_retained(MsgId(1)));
        assert_eq!(
            idx.slice_count(),
            0,
            "emptied first-lifetime slices are dropped"
        );
    }

    #[test]
    fn forgetting_old_lifetime_members_after_reset_touches_nothing() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(1));
        idx.add("s", &k("a"), MsgId(2));
        idx.add("s", &k("b"), MsgId(3));
        reset(&mut idx, "s", &k("a"));
        idx.add("s", &k("a"), MsgId(4));
        let (sa, sb) = (stamp(&idx, "a"), stamp(&idx, "b"));
        // The old lifetime left the index at reset: purging its members
        // is a reverse-index miss, not a scan over every slice.
        idx.forget(MsgId(1));
        idx.forget(MsgId(2));
        assert_eq!(idx.members("s", &k("a")), vec![MsgId(4)]);
        assert_eq!((stamp(&idx, "a"), stamp(&idx, "b")), (sa, sb));
        assert_eq!(idx.slice_count(), 2, "the reset slice keeps its lifetime");
        // A current member's purge drops only the slice it emptied.
        idx.forget(MsgId(3));
        assert_eq!(idx.slice_count(), 1);
        assert!(idx.is_retained(MsgId(4)));
    }

    #[test]
    fn keys_lists_active_slices() {
        let mut idx = SliceIndex::new();
        idx.add("orders", &k("23"), MsgId(1));
        idx.add("orders", &k("42"), MsgId(2));
        idx.add("other", &k("zz"), MsgId(3));
        let keys = idx.keys("orders");
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&k("23")) && keys.contains(&k("42")));
        reset(&mut idx, "orders", &k("23"));
        assert_eq!(idx.keys("orders").len(), 1);
    }

    #[test]
    fn replayed_add_is_a_no_op() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(1));
        idx.add("s", &k("a"), MsgId(2));
        let before = stamp(&idx, "a");
        idx.add("s", &k("a"), MsgId(1)); // log replay duplicate
        assert_eq!(idx.members("s", &k("a")), vec![MsgId(1), MsgId(2)]);
        assert_eq!(stamp(&idx, "a"), before, "no-op add keeps token and length");
        // After a reset the same message may legitimately join the new
        // lifetime (replay of an add that followed the reset).
        reset(&mut idx, "s", &k("a"));
        idx.add("s", &k("a"), MsgId(1));
        assert_eq!(idx.members("s", &k("a")), vec![MsgId(1)]);
    }

    #[test]
    fn restoring_a_checkpoint_keeps_members_and_base() {
        // Members arrive in insertion order, which may not be id order.
        let mut idx = SliceIndex::new();
        idx.restore_slice(
            "s",
            k("a"),
            2,
            vec![MsgId(5), MsgId(3)],
            vec![("sig".into(), vec![7])],
            4,
        );
        assert_eq!(idx.members("s", &k("a")), vec![MsgId(3), MsgId(5)]);
        assert!(idx.is_retained(MsgId(3)) && idx.is_retained(MsgId(5)));
        assert_eq!(idx.len(idx.find("s", &k("a")).unwrap()), (2, 4));
        let (r, ids) = read(&idx, None);
        assert_ne!(r.token, 0, "a restored slice is cacheable");
        assert_eq!(ids, vec![MsgId(3), MsgId(5)], "rebuilds fold in id order");
        assert_eq!(r.base, Some(vec![("sig".to_string(), vec![7])]));
        // Forgetting a member that never joined is a no-op.
        idx.forget(MsgId(1));
        assert_eq!(idx.len(idx.find("s", &k("a")).unwrap()), (2, 4));
    }

    #[test]
    fn read_since_hands_out_only_the_appended_suffix() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(1));
        idx.add("s", &k("a"), MsgId(2));
        let (r, ids) = read(&idx, None);
        assert_eq!((r.len, ids), (2, vec![MsgId(1), MsgId(2)]));
        idx.add("s", &k("a"), MsgId(3));
        let (r2, ids) = read(&idx, Some((r.token, r.len)));
        assert_eq!((r2.token, r2.len, ids), (r.token, 3, vec![MsgId(3)]));
        let (_, ids) = read(&idx, Some((r2.token, r2.len)));
        assert!(ids.is_empty(), "nothing arrived: nothing to fold");
        // A freed slot is never cacheable.
        let zz = idx.add("s", &k("zz"), MsgId(9));
        idx.forget(MsgId(9));
        assert_eq!(idx.read_since(zz, None, &mut Vec::new()).token, 0);
    }

    #[test]
    fn reset_then_refill_to_the_same_length_moves_the_token() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(1));
        idx.add("s", &k("a"), MsgId(2));
        let (before, _) = read(&idx, None);
        reset(&mut idx, "s", &k("a"));
        idx.add("s", &k("a"), MsgId(3));
        idx.add("s", &k("a"), MsgId(4));
        let (after, ids) = read(&idx, Some((before.token, before.len)));
        assert_eq!(after.len, before.len);
        assert_ne!(after.token, before.token, "a stale fold must not validate");
        assert_eq!(ids, vec![MsgId(3), MsgId(4)], "rebuild gets every member");
    }

    #[test]
    fn out_of_order_adds_move_the_token_and_read_in_id_order() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(5));
        let (r, _) = read(&idx, None);
        idx.add("s", &k("a"), MsgId(3));
        let (r2, ids) = read(&idx, Some((r.token, r.len)));
        assert_ne!(r2.token, r.token);
        assert_eq!(ids, vec![MsgId(3), MsgId(5)]);
        // Later in-order appends extend again.
        idx.add("s", &k("a"), MsgId(9));
        let (r3, ids) = read(&idx, Some((r2.token, r2.len)));
        assert_eq!((r3.token, ids), (r2.token, vec![MsgId(9)]));
    }

    #[test]
    fn an_add_below_the_largest_id_moves_the_token_even_after_a_smaller_last() {
        // Apply order 5, 3, 4: 4 exceeds the last member (3) but not the
        // largest (5), so a fold over [3, 5] must rebuild, not extend by 4.
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(5));
        idx.add("s", &k("a"), MsgId(3));
        let (r, ids) = read(&idx, None);
        assert_eq!(ids, vec![MsgId(3), MsgId(5)]);
        idx.add("s", &k("a"), MsgId(4));
        let (r2, ids) = read(&idx, Some((r.token, r.len)));
        assert_ne!(r2.token, r.token, "the 4 is not an append");
        assert!(!r2.resumed);
        assert_eq!(
            ids,
            vec![MsgId(3), MsgId(4), MsgId(5)],
            "rebuild in id order"
        );
        // Once emptied, the slice appends from scratch again.
        idx.forget(MsgId(3));
        idx.forget(MsgId(4));
        idx.forget(MsgId(5));
        idx.add("s", &k("a"), MsgId(2));
        let (r3, _) = read(&idx, None);
        idx.add("s", &k("a"), MsgId(6));
        let (r4, ids) = read(&idx, Some((r3.token, r3.len)));
        assert_eq!((r4.token, ids), (r3.token, vec![MsgId(6)]));
    }

    #[test]
    fn adds_grow_len_and_reset_forget_release_move_the_token() {
        let mut idx = SliceIndex::new();
        assert_eq!(stamp(&idx, "a"), (0, 0), "unknown slice is token 0");
        idx.add("s", &k("a"), MsgId(1));
        let (t1, len1) = stamp(&idx, "a");
        assert_ne!(t1, 0, "clock never emits 0");
        idx.add("s", &k("a"), MsgId(2));
        assert_eq!(stamp(&idx, "a"), (t1, len1 + 1), "an add grows len");
        reset(&mut idx, "s", &k("a"));
        let (t2, _) = stamp(&idx, "a");
        assert!(t2 > t1, "reset moves the token");
        idx.add("s", &k("a"), MsgId(3));
        idx.add("s", &k("a"), MsgId(4));
        idx.forget(MsgId(3));
        let (t3, _) = stamp(&idx, "a");
        assert!(t3 > t2, "GC purge moves the token");
        assert!(idx.release(
            idx.find("s", &k("a")).unwrap(),
            (t3, 1),
            &[MsgId(4)],
            Vec::new()
        ));
        assert!(stamp(&idx, "a").0 > t3, "release moves the token");
    }

    #[test]
    fn forget_of_nonmember_changes_nothing() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(1));
        let before = stamp(&idx, "a");
        idx.forget(MsgId(99));
        assert_eq!(stamp(&idx, "a"), before);
    }

    #[test]
    fn token_never_recurs_across_recreate() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(1));
        let (t1, _) = stamp(&idx, "a");
        // Purge the only member: the epoch-0 empty slice entry is dropped.
        idx.forget(MsgId(1));
        assert_eq!(stamp(&idx, "a"), (0, 0), "slice entry gone");
        // Recreate the same (slicing, key): the token is fresh, not t1.
        idx.add("s", &k("a"), MsgId(2));
        assert!(stamp(&idx, "a").0 > t1);
    }

    #[test]
    fn release_folds_members_into_base() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(1));
        idx.add("s", &k("a"), MsgId(2));
        let (_, members, t, cells) = idx.narrow_view("s", &k("a")).unwrap();
        assert_eq!(members, vec![MsgId(1), MsgId(2)]);
        assert_eq!(
            (idx.len(idx.find("s", &k("a")).unwrap()).1, cells.len()),
            (0, 0)
        );
        let (before, _) = read(&idx, None);
        assert!(idx.release(
            idx.find("s", &k("a")).unwrap(),
            (t, 2),
            &[MsgId(1)],
            vec![("count".into(), vec![1])]
        ));
        let (_, members, t2, cells) = idx.narrow_view("s", &k("a")).unwrap();
        assert_eq!(members, vec![MsgId(2)]);
        assert!(t2 > t, "release moves the token");
        assert_eq!(idx.len(idx.find("s", &k("a")).unwrap()), (1, 1));
        assert_eq!(cells, vec![("count".to_string(), vec![1])]);
        assert!(!idx.is_retained(MsgId(1)), "released member is unretained");
        assert!(idx.is_retained(MsgId(2)));
        let (after, _) = read(&idx, Some((before.token, before.len)));
        assert_ne!(after.token, before.token, "release forces a rebuild");
        assert_eq!(after.base_members, 1);
    }

    #[test]
    fn release_cas_rejects_a_stale_view() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(1));
        let (_, _, t, _) = idx.narrow_view("s", &k("a")).unwrap();
        idx.add("s", &k("a"), MsgId(2)); // concurrent arrival since the fold
        assert!(!idx.release(
            idx.find("s", &k("a")).unwrap(),
            (t, 1),
            &[MsgId(1)],
            Vec::new()
        ));
        assert!(idx.is_retained(MsgId(1)), "an arrival changes the length");
        reset(&mut idx, "s", &k("a"));
        idx.add("s", &k("a"), MsgId(3));
        idx.add("s", &k("a"), MsgId(4));
        assert!(
            !idx.release(
                idx.find("s", &k("a")).unwrap(),
                (t, 2),
                &[MsgId(3)],
                Vec::new()
            ),
            "a reset refilled to the same length moves the token"
        );
        let zz = idx.add("s", &k("zz"), MsgId(9));
        idx.forget(MsgId(9));
        assert!(
            !idx.release(zz, (7, 0), &[MsgId(1)], Vec::new()),
            "freed slot"
        );
    }

    #[test]
    fn reset_discards_base_and_forget_keeps_based_slices() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(1));
        let (_, _, t, _) = idx.narrow_view("s", &k("a")).unwrap();
        assert!(idx.release(
            idx.find("s", &k("a")).unwrap(),
            (t, 1),
            &[MsgId(1)],
            vec![("sig".into(), vec![9])]
        ));
        // No members left, epoch 0 — but the base must survive slice GC:
        // its accumulators still answer reads.
        idx.forget(MsgId(1));
        idx.forget(MsgId(42));
        let (_, members, _, cells) = idx.narrow_view("s", &k("a")).unwrap();
        assert!(members.is_empty());
        assert_eq!(
            (idx.len(idx.find("s", &k("a")).unwrap()).1, cells.len()),
            (1, 1)
        );
        // Reset starts a new lifetime: the base goes with the old one.
        reset(&mut idx, "s", &k("a"));
        let (_, _, _, cells) = idx.narrow_view("s", &k("a")).unwrap();
        assert_eq!(
            (idx.len(idx.find("s", &k("a")).unwrap()).1, cells.len()),
            (0, 0)
        );
    }

    #[test]
    fn full_read_is_a_consistent_pair() {
        let mut idx = SliceIndex::new();
        idx.add("s", &k("a"), MsgId(5));
        idx.add("s", &k("a"), MsgId(2));
        let (r, members) = read(&idx, None);
        assert_eq!(members, vec![MsgId(2), MsgId(5)]);
        assert_eq!(members, idx.members("s", &k("a")));
        assert_eq!((r.token, r.len), stamp(&idx, "a"));
        assert_eq!(stamp(&idx, "zz"), (0, 0), "unknown slice");
    }

    #[test]
    fn a_recreated_slice_reuses_the_slot_under_a_fresh_token() {
        let mut idx = SliceIndex::new();
        let a = idx.add("s", &k("a"), MsgId(1));
        idx.add("s", &k("a"), MsgId(2));
        let old = stamp(&idx, "a");
        // A cell folded over the slice, keyed by its handle.
        let cell = Some(old);
        // GC purges both members: the first-lifetime slice is dropped.
        idx.forget(MsgId(1));
        idx.forget(MsgId(2));
        assert_eq!((idx.find("s", &k("a")), idx.slice_count()), (None, 0));
        // Another slice takes the freed slot, then "a" comes back in a
        // new one; neither resumes the old cell.
        let b = idx.add("s", &k("b"), MsgId(3));
        idx.add("s", &k("b"), MsgId(4));
        assert_eq!(b, a, "the slot is reused");
        let r = idx.read_since(b, cell, &mut Vec::new());
        assert!(!r.resumed && r.token > old.0, "the reused slot rebuilds");
        let a2 = idx.add("s", &k("a"), MsgId(5));
        idx.add("s", &k("a"), MsgId(6));
        assert_ne!(a2, a);
        let mut ids = Vec::new();
        let r = idx.read_since(a2, cell, &mut ids);
        assert_eq!(
            (r.resumed, r.len, ids),
            (false, 2, vec![MsgId(5), MsgId(6)])
        );
        assert!(r.token > old.0, "a recreated slice gets a new token");
    }

    #[test]
    fn slices_a_processing_message_can_hold_are_never_freed() {
        let mut idx = SliceIndex::new();
        // A slice a reset emptied is past its first lifetime.
        let a = idx.add("s", &k("a"), MsgId(1));
        idx.add("s", &k("a"), MsgId(2));
        idx.reset(a);
        idx.add("s", &k("a"), MsgId(3));
        idx.forget(MsgId(3));
        // One a release emptied carries its released members.
        let b = idx.add("s", &k("b"), MsgId(4));
        let (_, _, t, _) = idx.narrow_view("s", &k("b")).unwrap();
        assert!(idx.release(b, (t, 1), &[MsgId(4)], Vec::new()));
        idx.forget(MsgId(4));
        // One found for a message that never joined it is pinned.
        let c = idx.resolve_pinned("s", &k("c"));
        idx.add("s", &k("c"), MsgId(5));
        idx.forget(MsgId(5));
        // A slice holding an unprocessed member (6) keeps it.
        let d = idx.add("s", &k("d"), MsgId(6));
        idx.add("s", &k("d"), MsgId(7));
        idx.forget(MsgId(7));
        for (id, key) in [(a, "a"), (b, "b"), (c, "c"), (d, "d")] {
            assert_eq!(idx.find("s", &k(key)), Some(id), "{key} keeps its slot");
        }
        assert_eq!(idx.slice_count(), 4);
    }

    #[test]
    fn lookups_count_resolutions_by_name_only() {
        let obs = demaq_obs::Obs::new();
        let mut idx = SliceIndex::new();
        idx.lookups = Some(obs.registry.counter("demaq_store_slice_lookups_total"));
        let lookups = || {
            obs.registry
                .counter_total("demaq_store_slice_lookups_total")
        };
        let a = idx.add("s", &k("a"), MsgId(1));
        assert_eq!(lookups(), 1, "an add resolves once");
        let mut ids = Vec::new();
        idx.read_since(a, None, &mut ids);
        idx.len(a);
        idx.reset(a);
        assert_eq!(lookups(), 1, "handles find the slice");
        idx.members("s", &k("a"));
        assert_eq!(lookups(), 2, "a read by name resolves");
    }

    #[test]
    fn checkpoints_leave_blank_slices_out() {
        let mut idx = SliceIndex::new();
        // A pinned slice nobody joined, and one whose members were purged
        // while it was pinned: both blank, and never freed in-process.
        idx.resolve_pinned("s", &k("a"));
        idx.resolve_pinned("s", &k("b"));
        idx.add("s", &k("b"), MsgId(1));
        idx.forget(MsgId(1));
        idx.add("s", &k("c"), MsgId(2));
        let c = idx.add("t", &k("d"), MsgId(3));
        idx.reset(c);
        assert_eq!(idx.slice_count(), 4);
        let listed: Vec<_> = idx.iter().map(|(s, key, _)| (s, key.clone())).collect();
        assert_eq!(listed, vec![("s", k("c")), ("t", k("d"))]);
    }
}
