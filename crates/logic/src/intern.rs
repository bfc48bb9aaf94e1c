//! Global symbol interner and hash-consed term arena.
//!
//! Every name that enters the logic — program variables, attribute
//! constants, uninterpreted function symbols, fresh and Skolem names —
//! is interned once into a [`Symbol`] (a `u32` index into an append-only
//! global store). Every [`Term`] is hash-consed into a
//! global arena of immutable nodes: structurally equal terms share one
//! id, so term equality is a `u32` compare, clones are `Copy`, and the
//! prover can memoize per-term work in dense arrays indexed by id.
//!
//! # Concurrency and determinism
//!
//! The checker proves obligations from worker threads, so both stores
//! are concurrent: lookups are lock-free (two atomic loads), misses take
//! a short-lived write lock. Because interning order depends on thread
//! scheduling, **ids are not stable across runs** — nothing that is
//! persisted or user-visible may depend on id order. Content, on the
//! other hand, is stable: each symbol carries a precomputed FNV-1a hash
//! of its name and each term a precomputed 128-bit structural digest, and
//! the `Hash` impls of [`Symbol`] and [`Term`] write exactly
//! those. Hashing a formula therefore yields the same fingerprint in
//! every process, which is what the engine's content-addressed verdict
//! cache requires.
//!
//! Allocations are leaked deliberately: symbols and term nodes live for
//! the process lifetime (they back `&'static` references), which is the
//! classic interner trade — the population is bounded by the distinct
//! names and distinct term shapes of the workload.

use crate::stable_hash::StableHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned name: variable, attribute, uninterpreted function symbol,
/// data-group / field / procedure name. Equality is an id compare; the
/// `Hash` impl writes the name's content hash, so hashes are stable
/// across processes even though ids are not.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Symbol(u32);

struct SymData {
    name: &'static str,
    /// FNV-1a of the name bytes, precomputed at intern time.
    fnv: u64,
}

const SYM_PAGE_BITS: usize = 10;
const SYM_PAGE: usize = 1 << SYM_PAGE_BITS;
const SYM_PAGES: usize = 1 << 12;
type SymPage = [AtomicPtr<SymData>; SYM_PAGE];

struct SymStore {
    pages: Box<[AtomicPtr<SymPage>]>,
    dedup: RwLock<HashMap<&'static str, u32>>,
}

fn sym_store() -> &'static SymStore {
    static STORE: OnceLock<SymStore> = OnceLock::new();
    STORE.get_or_init(|| SymStore {
        pages: (0..SYM_PAGES)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect(),
        dedup: RwLock::new(HashMap::new()),
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Symbol {
    /// Interns `name`, returning its symbol (idempotent).
    pub fn intern(name: &str) -> Symbol {
        let store = sym_store();
        if let Some(&id) = store.dedup.read().expect("interner poisoned").get(name) {
            return Symbol(id);
        }
        let mut dedup = store.dedup.write().expect("interner poisoned");
        if let Some(&id) = dedup.get(name) {
            return Symbol(id);
        }
        let id = dedup.len() as u32;
        assert!((id as usize) < SYM_PAGES * SYM_PAGE, "symbol store full");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let data = Box::into_raw(Box::new(SymData {
            name: leaked,
            fnv: fnv1a(leaked.as_bytes()),
        }));
        let page_idx = id as usize >> SYM_PAGE_BITS;
        let mut page = store.pages[page_idx].load(Ordering::Acquire);
        if page.is_null() {
            let fresh: Box<SymPage> =
                Box::new(std::array::from_fn(
                    |_| AtomicPtr::new(std::ptr::null_mut()),
                ));
            page = Box::into_raw(fresh);
            // Only one writer holds the dedup lock, so a plain store is
            // race-free against other writers; Release pairs with reader
            // Acquires.
            store.pages[page_idx].store(page, Ordering::Release);
        }
        (unsafe { &*page })[id as usize & (SYM_PAGE - 1)].store(data, Ordering::Release);
        dedup.insert(leaked, id);
        Symbol(id)
    }

    fn data(self) -> &'static SymData {
        let store = sym_store();
        let page = store.pages[self.0 as usize >> SYM_PAGE_BITS].load(Ordering::Acquire);
        debug_assert!(!page.is_null(), "symbol id from a foreign store");
        let slot = unsafe { &*page }[self.0 as usize & (SYM_PAGE - 1)].load(Ordering::Acquire);
        // A Symbol is only obtainable from `intern`, which stores the slot
        // before publishing the id; both allocations are never freed.
        unsafe { &*slot }
    }

    /// The interned name.
    pub fn as_str(self) -> &'static str {
        self.data().name
    }

    /// The raw id (dense, process-local; not stable across runs).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Content hash, not id: keeps every derived `Hash` over formulas
        // process-stable (ids vary with thread scheduling).
        state.write_u64(self.data().fnv);
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like the `String` it replaced, so debug output (e.g. the
        // prover's relation names) is unchanged.
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// The hash-consed term arena. One node per distinct term shape; nodes
/// are immutable and live for the process lifetime.
use crate::term::{Term, TermNode};

pub(crate) struct TermData {
    pub(crate) node: TermNode,
    /// 128-bit structural digest, precomputed from child digests.
    pub(crate) digest: u128,
    /// Tree size (`1 +` sum of child tree sizes), saturating.
    pub(crate) size: u32,
    /// Whether the term contains no variables (invariant under
    /// substitution).
    pub(crate) ground: bool,
}

const TERM_PAGE_BITS: usize = 12;
const TERM_PAGE: usize = 1 << TERM_PAGE_BITS;
const TERM_PAGES: usize = 1 << 16;
type TermPage = [AtomicPtr<TermData>; TERM_PAGE];

struct TermStore {
    pages: Box<[AtomicPtr<TermPage>]>,
    dedup: RwLock<HashMap<&'static TermNode, u32>>,
}

fn term_store() -> &'static TermStore {
    static STORE: OnceLock<TermStore> = OnceLock::new();
    STORE.get_or_init(|| TermStore {
        pages: (0..TERM_PAGES)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect(),
        dedup: RwLock::new(HashMap::new()),
    })
}

/// Interns a term node, returning the canonical [`Term`] id. Structurally
/// equal nodes always return the same id ("intern twice ⇒ same id").
pub(crate) fn intern_term(node: TermNode) -> Term {
    let store = term_store();
    if let Some(&id) = store.dedup.read().expect("term arena poisoned").get(&node) {
        return Term::from_id(id);
    }
    let mut dedup = store.dedup.write().expect("term arena poisoned");
    if let Some(&id) = dedup.get(&node) {
        return Term::from_id(id);
    }
    let id = dedup.len() as u32;
    assert!((id as usize) < TERM_PAGES * TERM_PAGE, "term arena full");
    let digest = {
        let mut h = StableHasher::new();
        node.hash(&mut h);
        h.finish128()
    };
    let (size, ground) = match &node {
        TermNode::Var(_) => (1u32, false),
        TermNode::Const(_) => (1, true),
        TermNode::App(_, args) => args.iter().fold((1u32, true), |(s, g), a| {
            let d = a.data();
            (s.saturating_add(d.size), g && d.ground)
        }),
    };
    let data = Box::into_raw(Box::new(TermData {
        node,
        digest,
        size,
        ground,
    }));
    let node_ref: &'static TermNode = unsafe { &(*data).node };
    let page_idx = id as usize >> TERM_PAGE_BITS;
    let mut page = store.pages[page_idx].load(Ordering::Acquire);
    if page.is_null() {
        let fresh: Box<TermPage> =
            Box::new(std::array::from_fn(
                |_| AtomicPtr::new(std::ptr::null_mut()),
            ));
        page = Box::into_raw(fresh);
        store.pages[page_idx].store(page, Ordering::Release);
    }
    (unsafe { &*page })[id as usize & (TERM_PAGE - 1)].store(data, Ordering::Release);
    dedup.insert(node_ref, id);
    Term::from_id(id)
}

pub(crate) fn term_data(id: u32) -> &'static TermData {
    let store = term_store();
    let page = store.pages[id as usize >> TERM_PAGE_BITS].load(Ordering::Acquire);
    debug_assert!(!page.is_null(), "term id from a foreign arena");
    let slot = unsafe { &*page }[id as usize & (TERM_PAGE - 1)].load(Ordering::Acquire);
    // A Term id is only obtainable from `intern_term`, which stores the
    // slot before publishing the id; allocations are never freed.
    unsafe { &*slot }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_distinct() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("alpha");
        let c = Symbol::intern("beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alpha");
        assert_eq!(a.to_string(), "alpha");
        assert_eq!(format!("{a:?}"), "\"alpha\"");
    }

    #[test]
    fn symbol_hash_is_content_based() {
        use crate::stable_hash::stable_hash128;
        let a = Symbol::intern("gamma");
        let b = Symbol::intern("gamma");
        assert_eq!(stable_hash128(&a), stable_hash128(&b));
        assert_ne!(stable_hash128(&a), stable_hash128(&Symbol::intern("delta")));
        // Locked values: the symbol digest must never drift silently —
        // it feeds every persisted fingerprint (cache format v4). These
        // are the published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let names: Vec<String> = (0..256).map(|i| format!("conc_{i}")).collect();
        let ids: Vec<Vec<Symbol>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| names.iter().map(|n| Symbol::intern(n)).collect()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for per_thread in &ids[1..] {
            assert_eq!(per_thread, &ids[0]);
        }
    }
}
