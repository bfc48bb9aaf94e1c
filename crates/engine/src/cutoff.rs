//! Early cutoff: skip VC generation for implementations whose scope and
//! body did not change, and rebuild no scope background whose inputs did
//! not change.
//!
//! The paper's §4 modular-soundness result says an implementation's
//! verdict depends only on its scope's declarations and its own body. The
//! *cutoff key* hashes exactly those inputs at the source level, so the
//! engine can tell that an obligation is unchanged without generating,
//! slicing and fingerprinting its VC. Its *scope part* hashes
//!
//! * [`FINGERPRINT_VERSION`], so a recipe change also retires every key;
//! * every field of [`CheckOptions`], the budget included;
//! * whether the checker runs at the arrays language level — an array
//!   access in *any* body of the unit switches the whole scope's
//!   background, so this one bit is the part of a verdict that other
//!   implementations' bodies can reach;
//! * the AST of every non-`impl` declaration, in flattened order (the
//!   order `Scope::analyze` sees them in);
//!
//! and an implementation's key extends the scope part with the
//! implementation's own AST. ASTs hash their content and not their spans
//! (a [`Span`](oolong_syntax::Span) hashes to nothing), so equal keys mean
//! ASTs equal up to positions: the restriction check and VC generation see
//! equal inputs, hence produce the same fingerprint. A [`CutoffMap`]
//! remembers the fingerprint each key produced; a key whose fingerprint is
//! still in the verdict store is served without touching the checker.
//! Debug builds recompute the full fingerprint on every key hit and assert
//! that it agrees.
//!
//! The scope part alone covers everything the scope background is built
//! from: `background::axioms` reads the scope's attributes, their
//! inclusions and its read frames (all non-`impl` declarations), whether
//! the checker is naive, and the language level. So the map also keeps a
//! small memo from scope parts to built backgrounds, and an edit round
//! whose declarations outside implementation bodies are unchanged builds
//! its checker around the background, slicing tables included, that the
//! previous round built. Debug builds rebuild the background on every memo
//! hit and assert an equal digest and an equal fresh-name state.

use crate::contexts::DEFAULT_CONTEXT_CAPACITY;
use crate::fingerprint::{Fingerprint, FINGERPRINT_VERSION};
use datagroups::{Background, CheckOptions};
use oolong_logic::{FreshGen, StableHasher};
use oolong_syntax::{Decl, Program};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// The cutoff keys of one unit.
pub(crate) struct UnitKeys {
    /// The scope part every implementation's key extends; it also keys
    /// the unit's scope background.
    pub(crate) scope: u128,
    /// The key of every implementation, in flattened source order (which
    /// is `Scope::impls()` order).
    pub(crate) impls: Vec<u128>,
}

/// The cutoff keys of `program` checked under `options`, at the arrays
/// language level when `arrays` is set (see
/// [`CheckOptions::arrays_level`]).
pub(crate) fn cutoff_keys(program: &Program, options: &CheckOptions, arrays: bool) -> UnitKeys {
    let CheckOptions {
        budget,
        naive,
        null_checks,
        force_arrays_level,
        strategy,
    } = options;
    let mut scope = StableHasher::new();
    FINGERPRINT_VERSION.hash(&mut scope);
    budget.hash(&mut scope);
    naive.hash(&mut scope);
    null_checks.hash(&mut scope);
    force_arrays_level.hash(&mut scope);
    strategy.hash(&mut scope);
    arrays.hash(&mut scope);
    let mut impls = Vec::new();
    for decl in flattened(program) {
        match decl {
            Decl::Impl(_) => impls.push(decl),
            _ => decl.hash(&mut scope),
        }
    }
    let impls = impls
        .into_iter()
        .map(|decl| {
            let mut key = scope.clone();
            decl.hash(&mut key);
            key.finish128()
        })
        .collect();
    UnitKeys {
        scope: scope.finish128(),
        impls,
    }
}

/// The declarations of `program` with module structure erased, in source
/// order — the order `Scope::analyze` checks them in.
fn flattened(program: &Program) -> impl Iterator<Item = &Decl> {
    program.decls.iter().flat_map(|decl| match decl {
        Decl::Module(module) => module.decls.as_slice(),
        other => std::slice::from_ref(other),
    })
}

/// Scope backgrounds a [`CutoffMap`] keeps at most: as many scopes as the
/// context pool keeps warm contexts.
pub const BACKGROUND_CAPACITY: usize = DEFAULT_CONTEXT_CAPACITY;

/// A bounded map from cutoff keys to the fingerprints they produced, with
/// a memo from scope keys to the scope backgrounds built for them.
///
/// Shared like the verdict store: every engine built over the same map
/// (one per `oolong serve` request) sees every other's entries. When full,
/// a key insert evicts the least recently used half, so the map never
/// holds more than its capacity and eviction costs O(1) amortised per
/// insert. The memo holds at most [`BACKGROUND_CAPACITY`] backgrounds and
/// evicts the least recently used one. Capacity `0` disables both.
#[derive(Debug)]
pub struct CutoffMap {
    capacity: usize,
    inner: Mutex<Recency>,
    backgrounds: Mutex<BackgroundMemo>,
}

#[derive(Debug, Default)]
struct Recency {
    /// Key → (fingerprint, last-use tick).
    entries: HashMap<u128, (Fingerprint, u64)>,
    tick: u64,
}

/// A scope background and the fresh-name state building it left.
pub type Built = (Arc<Background>, FreshGen);

#[derive(Debug, Default)]
struct BackgroundMemo {
    /// Scope key → (background, last-use tick).
    entries: HashMap<u128, (Built, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// Usage counters of a [`CutoffMap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutoffMetrics {
    /// Cutoff keys remembered.
    pub keys: usize,
    /// Scope backgrounds remembered.
    pub backgrounds: usize,
    /// Units whose background was served from the memo.
    pub background_hits: u64,
    /// Units whose background was built (with the memo enabled).
    pub background_misses: u64,
}

impl CutoffMap {
    /// A map holding at most `capacity` keys.
    pub fn with_capacity(capacity: usize) -> CutoffMap {
        CutoffMap {
            capacity,
            inner: Mutex::new(Recency::default()),
            backgrounds: Mutex::new(BackgroundMemo::default()),
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

    /// The scope background remembered for scope key `scope`, or the one
    /// `build` makes, remembered. `build` must be what the key was hashed
    /// from: debug builds call it on a hit too, and assert that it gives
    /// the remembered background's digest and fresh-name state.
    pub fn background(&self, scope: u128, build: impl FnOnce() -> Built) -> Built {
        if self.capacity == 0 {
            return build();
        }
        let remembered = {
            let mut memo = self
                .backgrounds
                .lock()
                .expect("background memo lock poisoned");
            memo.tick += 1;
            let tick = memo.tick;
            let found = memo.entries.get_mut(&scope).map(|(built, last)| {
                *last = tick;
                built.clone()
            });
            match found {
                Some(_) => memo.hits += 1,
                None => memo.misses += 1,
            }
            found
        };
        if let Some(hit) = remembered {
            #[cfg(debug_assertions)]
            {
                let (background, fresh) = build();
                assert_eq!(
                    background.digest(),
                    hit.0.digest(),
                    "background memo hit with a different background"
                );
                assert_eq!(
                    fresh, hit.1,
                    "background memo hit with a different fresh state"
                );
            }
            return hit;
        }
        let built = build();
        let mut memo = self
            .backgrounds
            .lock()
            .expect("background memo lock poisoned");
        memo.tick += 1;
        let tick = memo.tick;
        if let Some((existing, last)) = memo.entries.get_mut(&scope) {
            // Built concurrently by another request: share its copy.
            *last = tick;
            return existing.clone();
        }
        if memo.entries.len() >= BACKGROUND_CAPACITY {
            let oldest = memo
                .entries
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(&key, _)| key);
            if let Some(oldest) = oldest {
                memo.entries.remove(&oldest);
            }
        }
        memo.entries.insert(scope, (built.clone(), tick));
        built
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

    /// Current usage counters.
    pub fn metrics(&self) -> CutoffMetrics {
        let memo = self
            .backgrounds
            .lock()
            .expect("background memo lock poisoned");
        CutoffMetrics {
            keys: self.len(),
            backgrounds: memo.entries.len(),
            background_hits: memo.hits,
            background_misses: memo.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_sema::Scope;
    use oolong_syntax::parse_program;

    fn keys(src: &str, options: CheckOptions) -> Vec<u128> {
        let program = parse_program(src).expect("parses");
        let scope = Scope::analyze(&program).expect("analyses");
        cutoff_keys(&program, &options, options.arrays_level(&scope)).impls
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

    /// Every source the AST-key test walks: the paper corpus and the
    /// generated populations, the benchmark's scaled units among them.
    fn populations() -> Vec<String> {
        use oolong_corpus::*;
        let mut sources: Vec<String> = all().iter().map(|p| p.source.to_string()).collect();
        for seed in 0..24 {
            sources.push(generate_source(seed, &GenConfig::default()));
            sources.push(generate_cyclic_source(seed));
            sources.push(generate_branchy_source(seed, 3));
            sources.push(generate_invariant_source(seed));
            sources.push(generate_read_effect_source(seed));
            sources.push(generate_seeded_violation_source(seed).source);
        }
        let scaled = UnannotatedConfig {
            groups: 8,
            fields: 24,
            procs: 200,
            keep_includes: true,
        };
        for (seed, config) in [
            (4, scaled.clone()),
            (5, scaled),
            (6, UnannotatedConfig::default()),
        ] {
            let unit = generate_unannotated_source(seed, &config);
            sources.push(unit.annotated);
            sources.push(unit.source);
        }
        sources
    }

    /// Keys hash ASTs where they used to hash printed text; over every
    /// declaration of the populations, two declarations get equal AST
    /// hashes exactly when they print alike.
    #[test]
    fn ast_keys_group_declarations_exactly_as_the_printer_did() {
        use oolong_logic::stable_hash128;
        use oolong_syntax::pretty::print_decl;
        let mut text_of: HashMap<u128, String> = HashMap::new();
        let mut key_of: HashMap<String, u128> = HashMap::new();
        let mut decls = 0;
        for source in populations() {
            let program = parse_program(&source).expect("every population parses");
            for decl in flattened(&program) {
                decls += 1;
                let (key, text) = (stable_hash128(decl), print_decl(decl));
                let printed = text_of.entry(key).or_insert_with(|| text.clone());
                assert_eq!(*printed, text, "one key for two printed texts");
                assert_eq!(
                    *key_of.entry(text).or_insert(key),
                    key,
                    "one text, two keys"
                );
            }
        }
        assert!(decls > 2_000, "{decls} declarations walked");
        assert!(
            key_of.len() < decls,
            "some declarations repeat, so grouping is exercised"
        );
    }

    #[test]
    fn layout_comments_and_positions_keep_an_implementation_key() {
        let src = "group g
             field f in g
             proc p(r) modifies r.g
             impl p(r) { var n in n := 1 ; r.f := n end }
             proc q(r) modifies r.g
             impl q(r) { r.f := 2 }";
        let base = keys(src, CheckOptions::default());
        let same = |edited: String, what: &str| {
            assert_eq!(keys(&edited, CheckOptions::default()), base, "{what}");
        };
        same(src.replace("n := 1 ;", "n   :=\n\t1;"), "whitespace");
        same(
            src.replace("r.f := n end", "r.f := n // keep n\n end"),
            "a comment",
        );
        same(
            format!("// header\n\n\n{src}"),
            "positions shifted by a comment",
        );
        same(
            src.replace("impl p(r)", "\n\n\n      impl p(r)"),
            "positions shifted by blank lines",
        );
        let renamed = keys(
            &src.replace(
                "var n in n := 1 ; r.f := n end",
                "var m in m := 1 ; r.f := m end",
            ),
            CheckOptions::default(),
        );
        assert_ne!(renamed[0], base[0], "renaming a local changes the key");
        assert_eq!(renamed[1], base[1], "q's scope and body are unchanged");
    }

    #[test]
    fn background_memo_keeps_the_most_recent_scopes() {
        let built = std::cell::Cell::new(0);
        let build = || {
            built.set(built.get() + 1);
            (Arc::new(Background::new(Vec::new())), FreshGen::new())
        };
        let map = CutoffMap::with_capacity(8);
        let first = map.background(0, build);
        let again = map.background(0, build);
        assert!(
            Arc::ptr_eq(&first.0, &again.0),
            "a hit shares the background"
        );
        for scope in 1..=BACKGROUND_CAPACITY as u128 {
            map.background(scope, build);
        }
        let metrics = map.metrics();
        assert_eq!(metrics.backgrounds, BACKGROUND_CAPACITY);
        assert_eq!(
            (metrics.background_hits, metrics.background_misses),
            (1, 65)
        );
        // Scope 0 was the least recently used when scope 64 came in.
        let rebuilt = map.background(0, build);
        assert!(!Arc::ptr_eq(&first.0, &rebuilt.0), "scope 0 was evicted");
        assert_eq!(map.metrics().background_misses, 66);

        let disabled = CutoffMap::with_capacity(0);
        let before = built.get();
        disabled.background(0, build);
        disabled.background(0, build);
        assert_eq!(built.get(), before + 2, "a disabled memo always builds");
        assert_eq!(disabled.metrics(), CutoffMetrics::default());
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
