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
//! # Concurrency
//!
//! The checker proves obligations from worker threads, so every thread
//! shares both stores. Each store has two halves:
//!
//! * **Id → data** is lock-free: two acquire loads, the page and then the
//!   slot. Pages are allocated on first use and published by
//!   compare-exchange.
//! * **Value → id** (interning) is split into 64 shards, each with its
//!   own read-write lock, chosen by the value's hash. Every lookup, hit or
//!   miss, takes its shard's read lock; a miss re-checks under the
//!   shard's write lock, takes the next id from one atomic counter, and
//!   publishes the slot before the id enters the shard. Ids therefore stay
//!   dense — every id below the counter names a node — which the prover's
//!   paged term memo relies on. Two threads wait for each other only when
//!   they intern into the same shard at the same moment.
//!
//! A hit allocates nothing: an application is looked up by a borrowed
//! `(FnSym, &[Term])`, and its argument vector is allocated only when the
//! node is new.
//!
//! # Hashing
//!
//! The shard hashes are lookup keys, never persisted. Term nodes hash
//! with the unkeyed Fx hash ([`crate::fxhash`]) over ids the stores
//! assign: the variant tag, an uninterpreted function's symbol id, the
//! child term ids, and the symbol id of a variable or an attribute. No
//! program chooses an id. A payload the checked program does choose keeps
//! a per-process keyed hash (`RandomState`), so crafted input cannot pile
//! nodes into one shard or one bucket: the value of an integer literal,
//! and the text of a name in the symbol store.
//!
//! # Determinism
//!
//! Because interning order depends on thread scheduling, **ids are not
//! stable across runs** — nothing that is persisted or user-visible may
//! depend on id order. Content, on the other hand, is stable: each symbol
//! carries a precomputed FNV-1a hash of its name and each term a
//! precomputed 128-bit structural digest, and the `Hash` impls of
//! [`Symbol`] and [`Term`] write exactly those. Hashing a formula
//! therefore yields the same fingerprint in every process, which is what
//! the engine's content-addressed verdict cache requires.
//!
//! Allocations are leaked deliberately: symbols and term nodes live for
//! the process lifetime (they back `&'static` references), which is the
//! classic interner trade — the population is bounded by the distinct
//! names and distinct term shapes of the workload.

use crate::fxhash::FxHasher;
use crate::stable_hash::StableHasher;
use crate::term::{Cst, FnSym, Term, TermNode};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{OnceLock, RwLock};

const PAGE_BITS: usize = 12;
const PAGE: usize = 1 << PAGE_BITS;
type Page<T> = [AtomicPtr<T>; PAGE];

const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;

/// Hasher for keys that already are 64-bit hashes: passes them through.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("shard maps are keyed by u64 hashes only")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type ByHash<V> = HashMap<u64, V, BuildHasherDefault<PreHashed>>;

/// One shard's index from a value's hash to the ids interned under it.
#[derive(Default)]
struct ShardMap {
    /// The first id interned under each hash.
    first: ByHash<u32>,
    /// Later ids whose hash equals an earlier id's (rare).
    more: ByHash<Vec<u32>>,
}

impl ShardMap {
    fn find(&self, hash: u64, is: impl Fn(u32) -> bool) -> Option<u32> {
        let first = *self.first.get(&hash)?;
        if is(first) {
            return Some(first);
        }
        self.more.get(&hash)?.iter().copied().find(|&id| is(id))
    }

    fn insert(&mut self, hash: u64, id: u32) {
        match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(_) => self.more.entry(hash).or_default().push(id),
        }
    }
}

/// Aligned so that workers holding neighbouring shards do not share a
/// cache line.
#[repr(align(128))]
#[derive(Default)]
struct Shard(RwLock<ShardMap>);

/// An append-only, sharded intern table: dense `u32` ids resolving to
/// leaked values without a lock.
struct Arena<T: 'static> {
    pages: Box<[AtomicPtr<Page<T>>]>,
    len: AtomicU32,
    shards: Box<[Shard]>,
}

impl<T> Arena<T> {
    fn new(max_pages: usize) -> Arena<T> {
        Arena {
            pages: (0..max_pages)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            len: AtomicU32::new(0),
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    /// The shard of `hash`. Its bits 51..57 are used: the shard maps index
    /// buckets by the low bits and tag them with the top seven.
    fn shard(&self, hash: u64) -> &RwLock<ShardMap> {
        &self.shards[(hash >> 51) as usize & (SHARDS - 1)].0
    }

    /// The value of `id`, which must come from this arena's
    /// [`Arena::intern`]: that publishes the slot before it hands the id
    /// out.
    fn get(&self, id: u32) -> &T {
        let page = self.pages[id as usize >> PAGE_BITS].load(Ordering::Acquire);
        debug_assert!(!page.is_null(), "id from a foreign arena");
        // SAFETY: `publish` stored this page (Release, or AcqRel through
        // the compare-exchange) before it stored the id's slot, and the
        // caller holds an id that was handed out after that; pages are
        // never freed.
        let slot = unsafe { &*page }[id as usize & (PAGE - 1)].load(Ordering::Acquire);
        debug_assert!(!slot.is_null(), "id from a foreign arena");
        // SAFETY: the slot was stored (Release, paired with the Acquire
        // load above) before the id was handed out, and values are never
        // freed or mutated.
        unsafe { &*slot }
    }

    /// The id of the value `key` describes, made by `make` on a miss.
    /// `hash` must be a function of the value, and `is` must accept
    /// exactly the stored value equal to `key`.
    fn intern<K>(
        &self,
        hash: u64,
        key: K,
        is: impl Fn(&K, &T) -> bool,
        make: impl FnOnce(K) -> T,
    ) -> u32 {
        let shard = self.shard(hash);
        let is_key = |id: u32| is(&key, self.get(id));
        if let Some(id) = shard.read().expect("arena poisoned").find(hash, is_key) {
            return id;
        }
        let mut map = shard.write().expect("arena poisoned");
        if let Some(id) = map.find(hash, is_key) {
            return id;
        }
        let id = self.publish(make(key));
        map.insert(hash, id);
        id
    }

    /// Stores `value` under the next id. The caller holds the write lock
    /// of the value's shard, so no other thread can publish it too.
    fn publish(&self, value: T) -> u32 {
        // Relaxed: the counter only hands out distinct ids. The value
        // itself is published by the Release store into its slot below.
        let id = self.len.fetch_add(1, Ordering::Relaxed);
        assert!((id as usize) < self.pages.len() * PAGE, "arena full");
        let page_slot = &self.pages[id as usize >> PAGE_BITS];
        let mut page = page_slot.load(Ordering::Acquire);
        if page.is_null() {
            let fresh: *mut Page<T> = Box::into_raw(Box::new(std::array::from_fn(|_| {
                AtomicPtr::new(std::ptr::null_mut())
            })));
            // Threads publishing into different shards may race to create
            // the same page; the loser frees its copy.
            page = match page_slot.compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => fresh,
                Err(winner) => {
                    // SAFETY: `fresh` came from `Box::into_raw` above and
                    // was never shared: the compare-exchange failed.
                    drop(unsafe { Box::from_raw(fresh) });
                    winner
                }
            };
        }
        let value = Box::into_raw(Box::new(value));
        // SAFETY: `page` is non-null here, either loaded (Acquire) after
        // its publication or allocated by this thread, and never freed.
        (unsafe { &*page })[id as usize & (PAGE - 1)].store(value, Ordering::Release);
        id
    }

    #[cfg(test)]
    fn len(&self) -> u32 {
        self.len.load(Ordering::Acquire)
    }
}

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

struct SymStore {
    arena: Arena<SymData>,
    /// Keys the shard hash of a name, which the checked program chooses.
    names: RandomState,
}

fn sym_store() -> &'static SymStore {
    static STORE: OnceLock<SymStore> = OnceLock::new();
    STORE.get_or_init(|| SymStore {
        arena: Arena::new(1 << 10),
        names: RandomState::new(),
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
        let id = store.arena.intern(
            store.names.hash_one(name),
            name,
            |name, data| data.name == *name,
            |name| {
                let name: &'static str = Box::leak(name.to_owned().into_boxed_str());
                SymData {
                    name,
                    fnv: fnv1a(name.as_bytes()),
                }
            },
        );
        Symbol(id)
    }

    fn data(self) -> &'static SymData {
        sym_store().arena.get(self.0)
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

/// One node of the hash-consed term arena. Nodes are immutable and live
/// for the process lifetime.
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

impl TermData {
    fn new(node: TermNode) -> TermData {
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
        TermData {
            node,
            digest,
            size,
            ground,
        }
    }
}

struct TermStore {
    arena: Arena<TermData>,
    /// Keys the hash of an integer literal's value, which the checked
    /// program chooses.
    literals: RandomState,
}

fn term_store() -> &'static TermStore {
    static STORE: OnceLock<TermStore> = OnceLock::new();
    STORE.get_or_init(|| TermStore {
        arena: Arena::new(1 << 16),
        literals: RandomState::new(),
    })
}

/// A test's replacement for node hashes.
#[cfg(test)]
type HashHook = fn(u64) -> u64;

#[cfg(test)]
thread_local! {
    /// Replaces the calling thread's term hashes, to drive the path where
    /// distinct nodes share a hash.
    static TERM_HASH_HOOK: std::cell::Cell<Option<HashHook>> =
        const { std::cell::Cell::new(None) };
}

/// Finishes a node hash. The rotation moves the best-mixed high bits of
/// the last multiply to the bottom, where the shard maps index buckets.
fn finish_node_hash(h: FxHasher) -> u64 {
    let hash = h.finish().rotate_left(26);
    #[cfg(test)]
    if let Some(hook) = TERM_HASH_HOOK.get() {
        return hook(hash);
    }
    hash
}

/// Variant tags of the node hash: one word per node kind and function
/// symbol, so a leaf or an interpreted head costs one hash step.
fn fn_tag(sym: FnSym) -> u64 {
    match sym {
        FnSym::Select => 5,
        FnSym::Update => 6,
        FnSym::New => 7,
        FnSym::Succ => 8,
        FnSym::Add => 9,
        FnSym::Sub => 10,
        FnSym::Mul => 11,
        FnSym::Neg => 12,
        FnSym::Uninterp(_) => 13,
    }
}

impl TermStore {
    fn hash_leaf(&self, node: &TermNode) -> u64 {
        let mut h = FxHasher::default();
        match node {
            TermNode::Var(v) => {
                h.write_u64(0);
                h.write_u32(v.id());
            }
            TermNode::Const(Cst::Int(n)) => {
                h.write_u64(1);
                h.write_u64(self.literals.hash_one(n));
            }
            TermNode::Const(Cst::Bool(b)) => h.write_u64(2 | (u64::from(*b) << 8)),
            TermNode::Const(Cst::Null) => h.write_u64(3),
            TermNode::Const(Cst::Attr(a)) => {
                h.write_u64(4);
                h.write_u32(a.id());
            }
            TermNode::App(sym, args) => return hash_app(*sym, args),
        }
        finish_node_hash(h)
    }
}

fn hash_app(sym: FnSym, args: &[Term]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(fn_tag(sym) | (args.len() as u64) << 8);
    if let FnSym::Uninterp(name) = sym {
        h.write_u32(name.id());
    }
    for a in args {
        h.write_u32(a.id());
    }
    finish_node_hash(h)
}

/// Interns a variable or constant node, returning its canonical [`Term`].
pub(crate) fn intern_leaf(node: TermNode) -> Term {
    let store = term_store();
    let id = store.arena.intern(
        store.hash_leaf(&node),
        node,
        |node, data| data.node == *node,
        TermData::new,
    );
    Term::from_id(id)
}

/// Interns the application `sym(args…)`, returning its canonical
/// [`Term`]. Structurally equal nodes always return the same id. A hit
/// only borrows `args`; a miss converts them into the node's vector (a
/// `Vec` moves in without a copy).
pub(crate) fn intern_app<A>(sym: FnSym, args: A) -> Term
where
    A: AsRef<[Term]> + Into<Vec<Term>>,
{
    let store = term_store();
    let id = store.arena.intern(
        hash_app(sym, args.as_ref()),
        args,
        |args, data| {
            matches!(&data.node, TermNode::App(s, a) if *s == sym && a[..] == *args.as_ref())
        },
        |args| TermData::new(TermNode::App(sym, args.into())),
    );
    Term::from_id(id)
}

pub(crate) fn term_data(id: u32) -> &'static TermData {
    term_store().arena.get(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable_hash::stable_hash128;

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

    /// Runs `work(thread)` on four threads released together by a
    /// barrier and returns each thread's result, in thread order.
    fn on_four_threads<R: Send>(work: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let (work, start) = (&work, &start);
            (0..4)
                .map(|t| {
                    s.spawn(move || {
                        start.wait();
                        work(t)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        })
    }

    /// Visits `0..n` in a different order on each of four threads.
    fn order(thread: usize, n: usize) -> impl Iterator<Item = usize> {
        // Strides 1, 7, 11 and 13 are coprime to every `n` used here, so
        // each order is a permutation.
        let stride = [1, 7, 11, 13][thread];
        let start = thread * n / 4;
        (0..n).map(move |i| (start + i * stride) % n)
    }

    /// Interns node `[tag, children…]` into `arena`, hashed with the term
    /// arena's hash, or with only its low `hash_bits` bits if nonzero.
    fn intern_vec(arena: &Arena<Vec<u32>>, node: &[u32], hash_bits: u32) -> u32 {
        let mut h = FxHasher::default();
        for &x in node {
            h.write_u32(x);
        }
        let mut hash = finish_node_hash(h);
        if hash_bits > 0 {
            hash &= (1 << hash_bits) - 1;
        }
        arena.intern(
            hash,
            node,
            |node, data| data[..] == **node,
            |node| node.to_vec(),
        )
    }

    /// Four threads build the same DAG — 120 leaves and every ordered
    /// pair of them — in different orders in a fresh arena. They must get
    /// equal ids, the ids must be exactly `0..nodes` (three pages'
    /// worth, so threads race to publish pages), and every id must read
    /// back its own node. With `hash_bits` set, most distinct nodes share
    /// a hash.
    fn dag_interning_is_dense(hash_bits: u32) {
        const LEAVES: usize = 120;
        let arena: Arena<Vec<u32>> = Arena::new(4);
        let per_thread = on_four_threads(|t| {
            let mut leaf_ids = vec![0u32; LEAVES];
            for k in order(t, LEAVES) {
                leaf_ids[k] = intern_vec(&arena, &[0, k as u32], hash_bits);
            }
            let mut pair_ids = vec![0u32; LEAVES * LEAVES];
            for p in order(t, LEAVES * LEAVES) {
                let (a, b) = (leaf_ids[p / LEAVES], leaf_ids[p % LEAVES]);
                pair_ids[p] = intern_vec(&arena, &[1, a, b], hash_bits);
            }
            (leaf_ids, pair_ids)
        });
        for other in &per_thread[1..] {
            assert_eq!(other, &per_thread[0], "threads disagree on ids");
        }
        let (leaf_ids, pair_ids) = &per_thread[0];
        let nodes = LEAVES + LEAVES * LEAVES;
        assert!(nodes > 2 * PAGE);
        assert_eq!(
            arena.len() as usize,
            nodes,
            "an id was skipped or duplicated"
        );
        let mut seen = vec![false; nodes];
        for &id in leaf_ids.iter().chain(pair_ids) {
            assert!(!std::mem::replace(&mut seen[id as usize], true));
        }
        for (k, &id) in leaf_ids.iter().enumerate() {
            assert_eq!(arena.get(id), &vec![0, k as u32]);
        }
        for (p, &id) in pair_ids.iter().enumerate() {
            let (a, b) = (leaf_ids[p / LEAVES], leaf_ids[p % LEAVES]);
            assert_eq!(arena.get(id), &vec![1, a, b]);
        }
    }

    #[test]
    fn concurrent_arena_ids_agree_and_stay_dense() {
        dag_interning_is_dense(0);
    }

    #[test]
    fn concurrent_arena_ids_stay_dense_under_hash_collisions() {
        // 16 hashes for 14,520 nodes, all in shard 0.
        dag_interning_is_dense(4);
    }

    fn digest_of(node: &TermNode) -> u128 {
        let mut h = StableHasher::new();
        node.hash(&mut h);
        h.finish128()
    }

    #[test]
    fn concurrent_term_interning_agrees() {
        // Names unique to this test, so every node below is new here.
        const N: usize = 200;
        let before = term_store().arena.len();
        let per_thread = on_four_threads(|t| {
            let mut built = vec![Vec::new(); N];
            for i in order(t, N) {
                let x = Term::var(format!("ctia_x{i}"));
                let y = Term::var(format!("ctia_x{}", (i + 1) % N));
                let f = Term::attr(format!("ctia_f{}", i % 5));
                let read = Term::select(Term::store(), x, f);
                let write = Term::update(Term::store(), y, f, Term::add(read, Term::int(1)));
                let call = Term::uninterp("ctia_g", vec![read, Term::select(write, x, f)]);
                built[i] = vec![x, y, f, read, write, call];
            }
            built
        });
        for other in &per_thread[1..] {
            assert_eq!(other, &per_thread[0], "threads disagree on ids");
        }
        let after = term_store().arena.len();
        let mut distinct: Vec<u32> = per_thread[0].iter().flatten().map(|t| t.id()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        // x, the read, the write and the call are new for each i; y
        // repeats an x, and there are five attributes.
        assert_eq!(distinct.len(), 4 * N + 5);
        for &id in &distinct {
            assert!(id < after, "id {id} beyond the arena");
            let data = term_data(id);
            assert_eq!(data.digest, digest_of(&data.node), "id {id} digest");
        }
        assert!(distinct[0] >= before);
        for terms in &per_thread[0] {
            let [x, _, f, read, write, call] = terms[..] else {
                unreachable!()
            };
            assert_eq!(
                read.node(),
                &TermNode::App(FnSym::Select, vec![Term::store(), x, f])
            );
            assert!(matches!(write.node(), TermNode::App(FnSym::Update, a) if a[1] != x));
            assert!(matches!(call.node(), TermNode::App(FnSym::Uninterp(g), a)
                if g.as_str() == "ctia_g" && a[0] == read));
        }
    }

    #[test]
    fn terms_sharing_one_hash_stay_distinct() {
        // Every node this thread interns while hooked hashes to one value,
        // so each lookup walks the shard's same-hash list. All payloads are
        // unique to this test: no node exists under its real hash.
        TERM_HASH_HOOK.set(Some(|_| 0x5eed));
        let build = || {
            let (a, b) = (Term::var("tsoh_a"), Term::var("tsoh_b"));
            vec![
                a,
                b,
                Term::attr("tsoh_a"),
                Term::int(7_000_001),
                Term::int(7_000_002),
                Term::uninterp("tsoh_f", vec![a, b]),
                Term::uninterp("tsoh_f", vec![b, a]),
                Term::uninterp("tsoh_f", vec![a]),
                Term::uninterp("tsoh_g", vec![a, b]),
                Term::add(a, b),
                Term::sub(a, b),
            ]
        };
        let first = build();
        let again = build();
        TERM_HASH_HOOK.set(None);
        assert_eq!(first, again);
        let mut ids: Vec<u32> = first.iter().map(|t| t.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), first.len(), "colliding nodes were merged");
        let rendered: Vec<String> = first.iter().map(|t| t.to_string()).collect();
        assert_eq!(
            rendered,
            [
                "tsoh_a",
                "tsoh_b",
                "#tsoh_a",
                "7000001",
                "7000002",
                "tsoh_f(tsoh_a, tsoh_b)",
                "tsoh_f(tsoh_b, tsoh_a)",
                "tsoh_f(tsoh_a)",
                "tsoh_g(tsoh_a, tsoh_b)",
                "(tsoh_a + tsoh_b)",
                "(tsoh_a - tsoh_b)",
            ]
        );
        for t in &first {
            assert_eq!(t.data().digest, digest_of(t.node()));
        }
    }
}
