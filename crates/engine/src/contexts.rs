//! A pool of warm scope contexts, shared across engines.
//!
//! Building a [`ScopeContext`] asserts and saturates a scope's (sliced)
//! background axioms — by far the most expensive fixed cost of an
//! obligation. The pool pays it once per sliced background: obligations of
//! one batch with equal slices reuse the context, and so do later runs —
//! a resident process (`oolong serve`) keeps contexts warm between
//! requests, so a re-verification of an edited implementation pays only
//! for its own trail frame, not for background saturation.
//!
//! Keys are stable 128-bit hashes over everything a context's behaviour
//! depends on: the sliced background — the digest of the checker's whole
//! background and the keep mask, which together determine the kept
//! formulas in order — its activation phases, the prover budget, and the
//! search strategy (which has a single value). The digest is content, not
//! identity: checkers of equal backgrounds (an edited unit re-checked by a
//! resident engine) share contexts. A key may hold several contexts, one per
//! concurrent borrower: a checkout takes an idle context for the key, or
//! a fresh empty slot when every context for it is busy, so same-scope
//! obligations on different threads prove in parallel instead of queueing
//! (the paper's §4 modular soundness makes them independent). A context is
//! still only ever driven by one thread at a time. Eviction (LRU over
//! contexts, bounded capacity) merely drops the pool's reference — a
//! checked-out context survives until its borrower finishes.

use datagroups::SlicedBackground;
use oolong_logic::{Phase, StableHasher};
use oolong_prover::{Budget, ScopeContext, SearchStrategy};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of warm contexts a pool retains.
pub const DEFAULT_CONTEXT_CAPACITY: usize = 64;

/// The stable identity of a scope context: sliced background (as the
/// background's digest and the keep mask) + activation phases + budget +
/// strategy. Two obligations with equal keys can share a context. The
/// phase list is part of the identity because it determines what the
/// context pre-saturated: the same background under a different phase
/// assignment holds a different E-graph. No formula is hashed or cloned.
pub fn context_key(
    background: &SlicedBackground<'_>,
    phases: &[Phase],
    budget: &Budget,
    strategy: SearchStrategy,
) -> u128 {
    let mut hasher = StableHasher::new();
    background.digest().hash(&mut hasher);
    background.keep().hash(&mut hasher);
    // Byte-stable phase mask (see `fingerprint_vc`): one bool per axiom.
    let mask: Vec<bool> = phases.iter().map(|&p| p == Phase::GoalDirected).collect();
    mask.hash(&mut hasher);
    budget.hash(&mut hasher);
    strategy.hash(&mut hasher);
    hasher.finish128()
}

/// A slot holding one (lazily built) scope context.
pub type ContextSlot = Arc<Mutex<Option<ScopeContext>>>;

/// Usage counters for a [`ContextPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextPoolMetrics {
    /// Checkouts that found an idle slot for their key.
    pub hits: u64,
    /// Checkouts that created a fresh slot, because no slot for the key
    /// was retained or every one was busy.
    pub misses: u64,
    /// Slots dropped to respect the capacity bound.
    pub evictions: u64,
    /// Slots currently retained (contexts, not keys).
    pub size: usize,
}

/// A bounded, thread-safe LRU pool of scope contexts.
#[derive(Debug)]
pub struct ContextPool {
    capacity: usize,
    /// Every retained slot with its key, least recently used first.
    slots: Mutex<Vec<(u128, ContextSlot)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A slot is idle when the pool holds its only reference. Slots are
/// cloned only under the pool lock, so a slot found idle there cannot be
/// handed out twice.
fn idle(slot: &ContextSlot) -> bool {
    Arc::strong_count(slot) == 1
}

impl ContextPool {
    /// A pool retaining at most `capacity` contexts (at least one).
    pub fn with_capacity(capacity: usize) -> ContextPool {
        ContextPool {
            capacity: capacity.max(1),
            slots: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Checks out an idle slot for `key`, or a fresh empty one when every
    /// slot for the key is busy (or there is none). The caller locks the
    /// slot and builds the context into it if it is still `None`; the
    /// build happens outside the pool lock, so a slow saturation never
    /// blocks other checkouts. Dropping the returned `Arc` returns the
    /// slot. Contexts per key are thus bounded by concurrent borrowers.
    pub fn checkout(&self, key: u128) -> ContextSlot {
        let mut slots = self.slots.lock().expect("context pool lock poisoned");
        // A proof that panicked poisoned its slot: drop it rather than
        // hand a broken context to the next obligation.
        slots.retain(|(_, slot)| !slot.is_poisoned());
        if let Some(i) = slots.iter().rposition(|(k, slot)| *k == key && idle(slot)) {
            let entry = slots.remove(i);
            let slot = Arc::clone(&entry.1);
            slots.push(entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return slot;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let slot: ContextSlot = Arc::new(Mutex::new(None));
        slots.push((key, Arc::clone(&slot)));
        while slots.len() > self.capacity {
            // The least recently used idle slot goes first; with none idle,
            // the least recent busy one, which lives on with its borrower.
            let victim = slots.iter().position(|(_, slot)| idle(slot)).unwrap_or(0);
            slots.remove(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        slot
    }

    /// Current usage counters.
    pub fn metrics(&self) -> ContextPoolMetrics {
        ContextPoolMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            size: self.slots.lock().expect("context pool lock poisoned").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagroups::{Axiom, Background};
    use oolong_logic::{Formula, PatternPolicy, Term};

    fn background(formula: Formula) -> Background {
        Background::new(vec![Axiom {
            name: "fact".to_string(),
            formula,
            policy: PatternPolicy::eager(Vec::new()),
        }])
    }

    fn backgrounds() -> (Background, Background) {
        let a = background(Formula::eq(Term::var("a"), Term::var("b")));
        let b = background(Formula::eq(Term::var("a"), Term::var("c")));
        (a, b)
    }

    #[test]
    fn key_separates_background_phases_and_budget() {
        let (a, b) = backgrounds();
        let (all, none) = ([true], [false]);
        let eager = [Phase::Eager];
        let gated = [Phase::GoalDirected];
        let key = |bg: &Background, keep: &[bool], phases: &[Phase], budget: &Budget| {
            context_key(&bg.sliced(keep), phases, budget, SearchStrategy::Trail)
        };
        let base = key(&a, &all, &eager, &Budget::default());
        assert_eq!(base, key(&a, &all, &eager, &Budget::default()));
        assert_ne!(base, key(&b, &all, &eager, &Budget::default()));
        assert_ne!(base, key(&a, &none, &[], &Budget::default()));
        assert_ne!(base, key(&a, &all, &gated, &Budget::default()));
        assert_ne!(base, key(&a, &all, &eager, &Budget::tiny()));
    }

    #[test]
    fn busy_slot_is_never_handed_to_a_second_borrower() {
        let pool = ContextPool::with_capacity(4);
        let first = pool.checkout(1);
        let second = pool.checkout(1);
        assert!(!Arc::ptr_eq(&first, &second));
        let m = pool.metrics();
        assert_eq!((m.hits, m.misses, m.size), (0, 2, 2));
    }

    #[test]
    fn released_slot_is_reused_as_a_hit() {
        let pool = ContextPool::with_capacity(4);
        let first = Arc::as_ptr(&pool.checkout(1));
        let again = pool.checkout(1);
        assert_eq!(Arc::as_ptr(&again), first);
        let m = pool.metrics();
        assert_eq!((m.hits, m.misses, m.size), (1, 1, 1));
    }

    #[test]
    fn capacity_and_size_count_contexts_not_keys() {
        let pool = ContextPool::with_capacity(3);
        let held = [pool.checkout(1), pool.checkout(1), pool.checkout(2)];
        assert_eq!(pool.metrics().size, 3);
        // A fourth busy context exceeds the bound by one context, though
        // only two keys are in use.
        let fourth = pool.checkout(1);
        let m = pool.metrics();
        assert_eq!((m.size, m.evictions, m.misses), (3, 1, 4));
        drop((held, fourth));
    }

    #[test]
    fn eviction_drops_least_recently_used_idle_contexts_first() {
        let pool = ContextPool::with_capacity(2);
        let busy = pool.checkout(1); // least recent, but busy
        drop(pool.checkout(2)); // idle from here on
        let _three = pool.checkout(3); // evicts key 2, not the busy key 1
        assert_eq!(pool.metrics().evictions, 1);
        let busy1 = Arc::as_ptr(&busy);
        drop(busy);
        assert_eq!(Arc::as_ptr(&pool.checkout(1)), busy1);
        pool.checkout(2);
        let m = pool.metrics();
        assert_eq!((m.hits, m.misses), (1, 4)); // keys 1, 2, 3, and 2 again
    }

    #[test]
    fn poisoned_slot_is_dropped_at_checkout() {
        let pool = Arc::new(ContextPool::with_capacity(4));
        let borrower = Arc::clone(&pool);
        let panicked = std::thread::spawn(move || {
            let slot = borrower.checkout(1);
            let _guard = slot.lock().unwrap();
            panic!("proof panicked while holding its context");
        })
        .join();
        assert!(panicked.is_err());
        let slot = pool.checkout(1);
        assert!(!slot.is_poisoned());
        assert!(slot.lock().unwrap().is_none());
        let m = pool.metrics();
        assert_eq!((m.hits, m.misses, m.size), (0, 2, 1));
    }

    #[test]
    fn built_context_stays_warm() {
        let (a, _) = backgrounds();
        let pool = ContextPool::with_capacity(4);
        let key = context_key(
            &a.sliced(&[true]),
            &[Phase::Eager],
            &Budget::default(),
            SearchStrategy::Trail,
        );
        {
            let slot = pool.checkout(key);
            let mut guard = slot.lock().unwrap();
            let formulas: Vec<Formula> = a.formulas().cloned().collect();
            guard.get_or_insert_with(|| ScopeContext::new(&formulas, &[], &Budget::default()));
        }
        let slot = pool.checkout(key);
        assert!(slot.lock().unwrap().is_some());
    }
}
