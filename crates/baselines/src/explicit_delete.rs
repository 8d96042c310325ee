//! Explicit message deletion — the manual-memory-management strawman of
//! paper Sec. 2.3.3.
//!
//! "One straightforward solution is to allow for explicit deletion by the
//! application program. This is the equivalent of manual memory management
//! … a chronic source of errors … In particular, the order in which the
//! three conditions for safe message deletion become true varies from
//! order to order. Thus, all modules would need to know about the message
//! retention policy of the other parts of the application."
//!
//! This baseline reproduces that design: each module registers the
//! messages it still needs; a message may be deleted only when *every*
//! module that ever claimed it has released it, and application code must
//! call `try_delete` at the right moments. Forgetting a release leaks the
//! message forever; releasing in the wrong order (deleting after the first
//! release) drops data other modules still need — both failure modes are
//! measurable, which is the point of benchmark E8.

use demaq_obs::{Counter, Gauge, Obs};
use std::collections::{HashMap, HashSet};

/// A module's name.
pub type Module = &'static str;

/// Registry handles (`demaq_baseline_explicit_*`).
struct DelMetrics {
    inserted: Counter,
    deleted: Counter,
    premature: Counter,
    live: Gauge,
}

/// Store of messages with per-module manual retention claims.
#[derive(Default)]
pub struct ExplicitDeleteStore {
    messages: HashMap<u64, String>,
    claims: HashMap<u64, HashSet<Module>>,
    next: u64,
    pub deleted: u64,
    /// Deletions attempted while another module still held a claim.
    pub premature_delete_attempts: u64,
    metrics: Option<DelMetrics>,
}

impl ExplicitDeleteStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Report into `obs` (`demaq_baseline_explicit_*` series). Replaces
    /// any previous attachment.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.metrics = Some(DelMetrics {
            inserted: obs
                .registry
                .counter("demaq_baseline_explicit_inserted_total"),
            deleted: obs
                .registry
                .counter("demaq_baseline_explicit_deleted_total"),
            premature: obs
                .registry
                .counter("demaq_baseline_explicit_premature_delete_attempts_total"),
            live: obs.registry.gauge("demaq_baseline_explicit_live"),
        });
    }

    /// Insert a message claimed by the given modules.
    pub fn insert(&mut self, payload: String, claimed_by: &[Module]) -> u64 {
        let id = self.next;
        self.next += 1;
        self.messages.insert(id, payload);
        self.claims.insert(id, claimed_by.iter().copied().collect());
        if let Some(m) = &self.metrics {
            m.inserted.inc();
            m.live.set(self.messages.len() as i64);
        }
        id
    }

    /// A module declares it no longer needs the message.
    pub fn release(&mut self, id: u64, module: Module) {
        if let Some(c) = self.claims.get_mut(&id) {
            c.remove(module);
        }
    }

    /// Application-driven deletion: succeeds only when no claims remain.
    /// (The application must remember to call this after the *last*
    /// release — the coordination burden the paper criticizes.)
    pub fn try_delete(&mut self, id: u64) -> bool {
        match self.claims.get(&id) {
            Some(c) if c.is_empty() => {
                self.claims.remove(&id);
                self.messages.remove(&id);
                self.deleted += 1;
                if let Some(m) = &self.metrics {
                    m.deleted.inc();
                    m.live.set(self.messages.len() as i64);
                }
                true
            }
            Some(_) => {
                self.premature_delete_attempts += 1;
                if let Some(m) = &self.metrics {
                    m.premature.inc();
                }
                false
            }
            None => false,
        }
    }

    /// Messages still alive.
    pub fn live(&self) -> usize {
        self.messages.len()
    }

    /// Messages with no remaining claims that nobody deleted — the "message
    /// leaks" of a module that released without attempting deletion.
    pub fn leaked(&self) -> usize {
        self.claims.values().filter(|c| c.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delete_requires_all_releases() {
        let mut s = ExplicitDeleteStore::new();
        let id = s.insert("<order/>".into(), &["packaging", "finance", "or"]);
        s.release(id, "packaging");
        assert!(!s.try_delete(id), "finance + OR still need it");
        s.release(id, "finance");
        assert!(!s.try_delete(id));
        s.release(id, "or");
        assert!(s.try_delete(id));
        assert_eq!(s.live(), 0);
        assert_eq!(s.premature_delete_attempts, 2);
    }

    #[test]
    fn obs_counters_track_lifecycle() {
        let obs = demaq_obs::Obs::new();
        let mut s = ExplicitDeleteStore::new();
        s.attach_obs(&obs);
        let id = s.insert("<m/>".into(), &["a", "b"]);
        s.release(id, "a");
        assert!(!s.try_delete(id));
        s.release(id, "b");
        assert!(s.try_delete(id));
        let r = &obs.registry;
        assert_eq!(r.counter("demaq_baseline_explicit_inserted_total").get(), 1);
        assert_eq!(r.counter("demaq_baseline_explicit_deleted_total").get(), 1);
        assert_eq!(
            r.counter("demaq_baseline_explicit_premature_delete_attempts_total")
                .get(),
            1
        );
        assert_eq!(r.gauge("demaq_baseline_explicit_live").get(), 0);
    }

    #[test]
    fn forgetting_the_delete_call_leaks() {
        let mut s = ExplicitDeleteStore::new();
        let id = s.insert("<order/>".into(), &["packaging"]);
        s.release(id, "packaging");
        // Nobody calls try_delete: the message leaks.
        assert_eq!(s.leaked(), 1);
        assert_eq!(s.live(), 1);
    }

    #[test]
    fn varying_release_order_needs_delete_everywhere() {
        // The paper: "the order in which the three conditions … become true
        // varies from order to order" — so every module must attempt the
        // delete, multiplying coordination calls.
        let mut s = ExplicitDeleteStore::new();
        let mut call_count = 0u32;
        for perm in [["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]] {
            let id = s.insert("<m/>".into(), &["a", "b", "c"]);
            for module in perm {
                s.release(id, module);
                // Defensive pattern: every module tries to delete.
                s.try_delete(id);
                call_count += 1;
            }
        }
        assert_eq!(
            s.live(),
            0,
            "defensive deletes eventually collect everything"
        );
        assert_eq!(
            call_count, 9,
            "3 delete attempts per message vs. 0 with slices"
        );
        assert_eq!(s.premature_delete_attempts, 6);
    }
}
