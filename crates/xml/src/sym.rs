//! Global name interning.
//!
//! Element, attribute, and variable names repeat endlessly across messages
//! and queries, yet the evaluator used to compare them as strings on every
//! name test. The interner maps each distinct name to a dense [`Sym`] id
//! once, so the hot path compares two `u32`s instead (the classic trick of
//! mature XQuery processors — BaseX and Saxon both intern QNames into a
//! global name pool).
//!
//! The table is process-global and append-only: symbols are never freed.
//! That is safe because the name universe of a deployed Demaq application
//! is finite (schema element names, rule-body name tests, variable names);
//! message *content* is never interned, only names. Reads take a shared
//! lock and one hash probe; the write path runs once per distinct name for
//! the process lifetime.
//!
//! A second pool, [`intern_qname`], holds whole qualified names under the
//! same contract. A [`Document`](crate::Document)'s name table is a list
//! of pointers into it, so a parsed message owns no name strings at all
//! and messages of one shape share theirs.

use crate::qname::QName;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned name: integer equality ⇔ string equality of the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

struct Interner {
    map: HashMap<Box<str>, u32>,
    names: Vec<Box<str>>,
}

static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();

fn table() -> &'static RwLock<Interner> {
    TABLE.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// Intern a name, returning its stable symbol.
pub fn intern(name: &str) -> Sym {
    if let Some(&id) = table().read().expect("interner lock").map.get(name) {
        return Sym(id);
    }
    let mut t = table().write().expect("interner lock");
    if let Some(&id) = t.map.get(name) {
        return Sym(id); // raced with another writer
    }
    let id = u32::try_from(t.names.len()).expect("interner capacity");
    let boxed: Box<str> = name.into();
    t.names.push(boxed.clone());
    t.map.insert(boxed, id);
    Sym(id)
}

/// A pooled qualified name together with the symbol of its local part.
#[derive(Debug)]
pub struct Name {
    pub qname: QName,
    pub sym: Sym,
}

/// `(namespace, prefix, local)`. The prefix is part of the key although
/// [`QName`] equality ignores it: serialization must reproduce it.
type NameKey<'a> = (Option<&'a str>, Option<&'a str>, &'a str);

static QNAMES: OnceLock<RwLock<HashMap<NameKey<'static>, &'static Name>>> = OnceLock::new();

const RECENT_SLOTS: usize = 64;

thread_local! {
    /// The unqualified names this thread pooled last, direct-mapped by
    /// [`slot_of`]: messages of one shape ask for the same few names over
    /// and over, and a hit here skips the lock and the hash.
    static RECENT: [Cell<Option<&'static Name>>; RECENT_SLOTS] =
        const { [const { Cell::new(None) }; RECENT_SLOTS] };
}

/// A cheap spread of short names over a small direct-mapped cache. It
/// only has to be fast: a collision costs a miss, never a wrong answer.
pub(crate) fn slot_of(name: &str, slots: usize) -> usize {
    let b = name.as_bytes();
    let at = |i: usize| b.get(i).copied().unwrap_or(0) as u32;
    let n = b.len();
    let sample = n as u32 ^ at(0) << 8 ^ at(n / 2) << 16 ^ at(n.saturating_sub(1)) << 24;
    (sample.wrapping_mul(0x9E37_79B1) >> 20) as usize % slots
}

/// Intern a qualified name. The result lives for the rest of the process;
/// a hit costs a shared lock and one hash probe and allocates nothing.
pub fn intern_qname(ns: Option<&str>, prefix: Option<&str>, local: &str) -> &'static Name {
    if ns.is_some() || prefix.is_some() {
        return intern_pooled(ns, prefix, local);
    }
    RECENT.with(|recent| {
        let slot = &recent[slot_of(local, RECENT_SLOTS)];
        match slot.get() {
            Some(name) if name.qname.local == local => name,
            _ => {
                let name = intern_pooled(None, None, local);
                slot.set(Some(name));
                name
            }
        }
    })
}

fn intern_pooled(ns: Option<&str>, prefix: Option<&str>, local: &str) -> &'static Name {
    let pool = QNAMES.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(&name) = pool
        .read()
        .expect("name pool lock")
        .get(&(ns, prefix, local))
    {
        return name;
    }
    let sym = intern(local);
    let mut pool = pool.write().expect("name pool lock");
    if let Some(&name) = pool.get(&(ns, prefix, local)) {
        return name; // raced with another writer
    }
    let name: &'static Name = Box::leak(Box::new(Name {
        qname: QName {
            ns: ns.map(str::to_string),
            prefix: prefix.map(str::to_string),
            local: local.to_string(),
        },
        sym,
    }));
    let q = &name.qname;
    pool.insert((q.ns.as_deref(), q.prefix.as_deref(), &q.local), name);
    name
}

/// The string a symbol was interned from.
pub fn resolve(sym: Sym) -> String {
    table().read().expect("interner lock").names[sym.0 as usize].to_string()
}

/// Number of distinct names interned so far (exposed as the
/// `demaq_xquery_interned_symbols` gauge).
pub fn interned_count() -> u64 {
    table().read().expect("interner lock").names.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolvable() {
        let a = intern("offerRequest");
        let b = intern("offerRequest");
        assert_eq!(a, b);
        assert_eq!(resolve(a), "offerRequest");
        let c = intern("customerID");
        assert_ne!(a, c);
    }

    #[test]
    fn qnames_are_pooled_by_namespace_prefix_and_local() {
        let a = intern_qname(Some("urn:pool"), Some("p"), "order");
        let b = intern_qname(Some("urn:pool"), Some("p"), "order");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.sym, intern("order"));
        assert_eq!(a.qname.lexical(), "p:order");
        // Equal as QNames, yet pooled apart: the prefix must survive.
        let c = intern_qname(Some("urn:pool"), Some("q"), "order");
        assert_eq!(a.qname, c.qname);
        assert!(!std::ptr::eq(a, c));
        assert!(!std::ptr::eq(a, intern_qname(None, None, "order")));
    }

    #[test]
    fn count_is_monotone() {
        let before = interned_count();
        intern("sym-count-test-unique-name");
        assert!(interned_count() > before);
        let again = interned_count();
        intern("sym-count-test-unique-name");
        assert_eq!(interned_count(), again);
    }
}
