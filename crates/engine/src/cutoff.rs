//! Early cutoff: skip VC generation for implementations whose scope and
//! body did not change.
//!
//! The paper's §4 modular-soundness result says an implementation's
//! verdict depends only on its scope's declarations and its own body. The
//! *cutoff key* hashes exactly those inputs at the source level, so the
//! engine can tell that an obligation is unchanged without generating,
//! slicing and fingerprinting its VC:
//!
//! * [`FINGERPRINT_VERSION`], so a recipe change also retires every key;
//! * every field of [`CheckOptions`], the budget included;
//! * whether the checker runs at the arrays language level — an array
//!   access in *any* body of the unit switches the whole scope's
//!   background, so this one bit is the part of a verdict that other
//!   implementations' bodies can reach;
//! * the canonical text ([`print_decl`]) of every non-`impl` declaration,
//!   in flattened order (the order `Scope::analyze` sees them in);
//! * the canonical text of the implementation itself.
//!
//! Canonical text is span-free, and since the pretty-printer is a tested
//! parser fixpoint, equal text means an equal AST: equal keys mean the
//! restriction check and VC generation see equal inputs, hence produce
//! the same fingerprint. A [`CutoffMap`] remembers the fingerprint each
//! key produced; a key whose fingerprint is still in the verdict store is
//! served without touching the checker. Debug builds recompute the full
//! fingerprint on every key hit and assert that it agrees.

use crate::fingerprint::{Fingerprint, FINGERPRINT_VERSION};
use datagroups::{CheckOptions, Checker};
use oolong_logic::StableHasher;
use oolong_syntax::pretty::print_decl;
use oolong_syntax::{Decl, Program};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// The cutoff key of every implementation `checker` checks, in
/// `checker.scope().impls()` order. `program` is the program the checker
/// was built from.
pub(crate) fn cutoff_keys(program: &Program, checker: &Checker) -> Vec<u128> {
    let CheckOptions {
        budget,
        naive,
        null_checks,
        force_arrays_level,
        strategy,
    } = checker.options();
    let mut scope = StableHasher::new();
    FINGERPRINT_VERSION.hash(&mut scope);
    budget.hash(&mut scope);
    naive.hash(&mut scope);
    null_checks.hash(&mut scope);
    force_arrays_level.hash(&mut scope);
    strategy.hash(&mut scope);
    checker.arrays_level().hash(&mut scope);
    let mut impls = Vec::new();
    for decl in flattened(program) {
        match decl {
            Decl::Impl(_) => impls.push(decl),
            _ => print_decl(decl).hash(&mut scope),
        }
    }
    debug_assert_eq!(impls.len(), checker.scope().impls().count());
    impls
        .into_iter()
        .map(|decl| {
            let mut key = scope.clone();
            print_decl(decl).hash(&mut key);
            key.finish128()
        })
        .collect()
}

/// The declarations of `program` with module structure erased, in source
/// order — the order `Scope::analyze` checks them in.
fn flattened(program: &Program) -> impl Iterator<Item = &Decl> {
    program.decls.iter().flat_map(|decl| match decl {
        Decl::Module(module) => module.decls.iter().collect::<Vec<_>>(),
        other => vec![other],
    })
}

/// A bounded map from cutoff keys to the fingerprints they produced.
///
/// Shared like the verdict store: every engine built over the same map
/// (one per `oolong serve` request) sees every other's entries. When full,
/// an insert evicts the least recently used half, so the map never holds
/// more than its capacity and eviction costs O(1) amortised per insert.
/// Capacity `0` disables the map.
#[derive(Debug)]
pub struct CutoffMap {
    capacity: usize,
    inner: Mutex<Recency>,
}

#[derive(Debug, Default)]
struct Recency {
    /// Key → (fingerprint, last-use tick).
    entries: HashMap<u128, (Fingerprint, u64)>,
    tick: u64,
}

impl CutoffMap {
    /// A map holding at most `capacity` keys.
    pub fn with_capacity(capacity: usize) -> CutoffMap {
        CutoffMap {
            capacity,
            inner: Mutex::new(Recency::default()),
        }
    }

    /// The fingerprint `key` produced, if remembered.
    pub fn get(&self, key: u128) -> Option<Fingerprint> {
        let mut inner = self.inner.lock().expect("cutoff map lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&key)?;
        entry.1 = tick;
        Some(entry.0)
    }

    /// Remembers that `key` produced `fingerprint`.
    pub fn insert(&self, key: u128, fingerprint: Fingerprint) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cutoff map lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if inner.entries.len() >= self.capacity && !inner.entries.contains_key(&key) {
            // Keep only the entries used after the median one.
            let mut ticks: Vec<u64> = inner.entries.values().map(|&(_, t)| t).collect();
            let middle = ticks.len() / 2;
            let median = *ticks.select_nth_unstable(middle).1;
            inner.entries.retain(|_, &mut (_, t)| t > median);
        }
        inner.entries.insert(key, (fingerprint, tick));
    }

    /// Number of keys currently remembered.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("cutoff map lock poisoned")
            .entries
            .len()
    }

    /// Whether the map remembers no key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The map's key bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_syntax::parse_program;

    fn keys(src: &str, options: CheckOptions) -> Vec<u128> {
        let program = parse_program(src).expect("parses");
        let checker = Checker::new(&program, options).expect("analyses");
        cutoff_keys(&program, &checker)
    }

    const BASE: &str = "group g
         field f in g
         proc p(r) modifies r.g
         impl p(r) { r.f := 1 }
         proc q(r) modifies r.g
         impl q(r) { r.f := 2 }";

    #[test]
    fn keys_ignore_layout_but_not_content() {
        let base = keys(BASE, CheckOptions::default());
        assert_eq!(base.len(), 2);
        assert_ne!(base[0], base[1]);
        let relaid = BASE.replace("r.f := 1", "r.f   :=\n 1");
        assert_eq!(keys(&relaid, CheckOptions::default()), base);
        let edited = keys(
            &BASE.replace("r.f := 1", "r.f := 3"),
            CheckOptions::default(),
        );
        assert_ne!(edited[0], base[0]);
        assert_eq!(edited[1], base[1], "q's scope and body are unchanged");
    }

    #[test]
    fn keys_cover_the_scope_and_the_options() {
        let base = keys(BASE, CheckOptions::default());
        let scoped = keys(
            &BASE.replace("field f in g", "field f in g\nfield h"),
            CheckOptions::default(),
        );
        assert!(scoped.iter().zip(&base).all(|(a, b)| a != b));
        let mut options = CheckOptions::default();
        options.budget.max_instances += 1;
        assert!(keys(BASE, options).iter().zip(&base).all(|(a, b)| a != b));
    }

    #[test]
    fn an_array_access_anywhere_changes_every_key() {
        let base = keys(BASE, CheckOptions::default());
        let arrays = keys(
            &BASE.replace("r.f := 2", "r.f[0] := 2"),
            CheckOptions::default(),
        );
        assert_ne!(arrays[0], base[0], "p's background gained the array axioms");
    }

    #[test]
    fn map_stays_within_its_capacity() {
        let map = CutoffMap::with_capacity(8);
        for key in 0..100u128 {
            map.insert(key, Fingerprint(key));
            assert!(map.len() <= 8);
            assert_eq!(map.get(key), Some(Fingerprint(key)));
        }
        // The most recently used keys survive eviction.
        assert_eq!(map.get(99), Some(Fingerprint(99)));
        assert_eq!(map.get(0), None);
        let disabled = CutoffMap::with_capacity(0);
        disabled.insert(1, Fingerprint(1));
        assert!(disabled.is_empty());
    }
}
