//! The verdict store abstraction: the cache as a pluggable, tiered
//! component.
//!
//! A *bounded* in-memory tier with an eviction policy and
//! hit/miss/eviction counters sits in front of a lazy on-disk tier that is
//! opened once per process and read/written one entry at a time (no scan
//! on open, no full rewrite on insert), behind the [`VerdictStore`] trait:
//!
//! * [`MemoryTier`] — a bounded LRU map (intrusive doubly-linked list over
//!   a slab, O(1) touch/insert/evict) with hit/miss/eviction counters;
//! * [`DiskTier`] — the on-disk cache format accessed lazily: `get` reads
//!   and version-checks one `<fingerprint>.json` file, `put` writes one
//!   file; concurrent writers are trivially safe (distinct obligations
//!   touch distinct files, identical obligations write identical bytes);
//! * [`TieredStore`] — memory in front of disk: a memory miss falls
//!   through to disk and promotes the entry on a hit, a put lands in both
//!   tiers. This is the cache a long-lived `oolong serve` process shares
//!   across every request.
//!
//! The [`Engine`](crate::engine::Engine) consumes any [`VerdictStore`];
//! `Engine::with_store_and_contexts` lets many engines (one per request,
//! each with its own prover budget) share a single store handle, which is
//! what makes the cache *resident* instead of re-opened per invocation.

use crate::cache::CachedVerdict;
use crate::fingerprint::Fingerprint;
use crate::json;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A concurrent fingerprint-keyed verdict store. All methods take `&self`:
/// implementations synchronize internally so one store handle can be
/// shared across worker threads and across [`Engine`](crate::Engine)s.
pub trait VerdictStore: std::fmt::Debug + Send + Sync {
    /// The entry for `fingerprint`, if present.
    fn get(&self, fingerprint: Fingerprint) -> Option<CachedVerdict>;

    /// Records a verdict. Best-effort for persistent tiers: an unwritable
    /// backing directory degrades to memory-only caching, never an error.
    fn put(&self, fingerprint: Fingerprint, verdict: CachedVerdict);

    /// Number of entries currently resident (for persistent tiers, the
    /// number of entry files).
    fn len(&self) -> usize;

    /// Whether the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the store's traffic counters. The default is all
    /// zeros, for stores that do not count.
    fn metrics(&self) -> StoreMetrics {
        StoreMetrics::default()
    }
}

/// Traffic counters of a [`VerdictStore`], as reported by `oolong serve`'s
/// `stats` request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Entries resident in the memory tier.
    pub mem_entries: usize,
    /// Bound of the memory tier (0 = tier disabled).
    pub mem_capacity: usize,
    /// Heap bytes the memory tier's entries keep alive: the sum of their
    /// [`CachedVerdict::heap_bytes`], plus each distinct context base they
    /// share ([`CachedVerdict::shared_base`]) once, so a base the context
    /// pool has evicted is still counted while an entry holds it. Kept as
    /// a running total on insert, promotion and eviction.
    pub mem_bytes: usize,
    /// Lookups answered by the memory tier.
    pub mem_hits: u64,
    /// Lookups that missed the memory tier.
    pub mem_misses: u64,
    /// Entries evicted from the memory tier (LRU order).
    pub evictions: u64,
    /// Memory-tier misses answered by the disk tier (each one promotes
    /// the entry into the memory tier).
    pub disk_hits: u64,
    /// Lookups that missed every tier.
    pub disk_misses: u64,
    /// Verdicts recorded through [`VerdictStore::put`].
    pub inserts: u64,
}

/// The in-memory tier: a bounded LRU map.
///
/// Recency is an intrusive doubly-linked list threaded through a slab of
/// nodes, so touch, insert, and evict are all O(1). Counters are atomics
/// read without taking the map lock.
#[derive(Debug)]
pub struct MemoryTier {
    capacity: usize,
    inner: Mutex<LruInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Sentinel index for "no node".
const NIL: usize = usize::MAX;

#[derive(Debug, Default)]
struct LruInner {
    map: HashMap<Fingerprint, usize>,
    nodes: Vec<LruNode>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// Sum of the resident nodes' `bytes` and of the `bases`' bytes.
    bytes: usize,
    /// The context bases resident nodes share, by identity: how many
    /// nodes hold each, and its heap bytes.
    bases: HashMap<usize, (usize, usize)>,
}

#[derive(Debug)]
struct LruNode {
    fingerprint: Fingerprint,
    verdict: CachedVerdict,
    /// The verdict's [`CachedVerdict::heap_bytes`] when it was stored.
    bytes: usize,
    /// The identity of the context base the verdict shares, if any.
    base: Option<usize>,
    prev: usize,
    next: usize,
}

impl LruInner {
    /// Counts a node's bytes, and its base's on the base's first holder.
    fn hold(&mut self, bytes: usize, base: Option<(usize, usize)>) {
        self.bytes += bytes;
        if let Some((key, base_bytes)) = base {
            let (holders, _) = self.bases.entry(key).or_insert((0, base_bytes));
            if *holders == 0 {
                self.bytes += base_bytes;
            }
            *holders += 1;
        }
    }

    /// Uncounts node `idx`'s bytes, and its base's once no node holds it.
    fn release(&mut self, idx: usize) {
        self.bytes -= self.nodes[idx].bytes;
        if let Some(key) = self.nodes[idx].base {
            let (holders, base_bytes) = self.bases.get_mut(&key).expect("held base");
            *holders -= 1;
            if *holders == 0 {
                self.bytes -= *base_bytes;
                self.bases.remove(&key);
            }
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.nodes[h].prev = idx,
        }
        self.head = idx;
    }
}

impl MemoryTier {
    /// An LRU tier holding at most `capacity` entries; `0` disables the
    /// tier (every lookup misses, every insert is dropped).
    pub fn with_capacity(capacity: usize) -> MemoryTier {
        MemoryTier {
            capacity,
            inner: Mutex::new(LruInner {
                head: NIL,
                tail: NIL,
                ..LruInner::default()
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The tier's entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl VerdictStore for MemoryTier {
    fn get(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        let mut inner = self.inner.lock().expect("lru lock poisoned");
        match inner.map.get(&fingerprint).copied() {
            Some(idx) => {
                inner.unlink(idx);
                inner.push_front(idx);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(inner.nodes[idx].verdict.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, fingerprint: Fingerprint, verdict: CachedVerdict) {
        if self.capacity == 0 {
            return;
        }
        let (bytes, base) = (verdict.heap_bytes(), verdict.shared_base());
        let mut inner = self.inner.lock().expect("lru lock poisoned");
        inner.hold(bytes, base);
        if let Some(idx) = inner.map.get(&fingerprint).copied() {
            inner.release(idx);
            inner.nodes[idx].verdict = verdict;
            inner.nodes[idx].bytes = bytes;
            inner.nodes[idx].base = base.map(|(key, _)| key);
            inner.unlink(idx);
            inner.push_front(idx);
            return;
        }
        if inner.map.len() >= self.capacity {
            let victim = inner.tail;
            debug_assert_ne!(victim, NIL, "nonempty map has a tail");
            inner.unlink(victim);
            let evicted = inner.nodes[victim].fingerprint;
            inner.map.remove(&evicted);
            inner.release(victim);
            inner.free.push(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let node = LruNode {
            fingerprint,
            verdict,
            bytes,
            base: base.map(|(key, _)| key),
            prev: NIL,
            next: NIL,
        };
        let idx = match inner.free.pop() {
            Some(idx) => {
                inner.nodes[idx] = node;
                idx
            }
            None => {
                inner.nodes.push(node);
                inner.nodes.len() - 1
            }
        };
        inner.map.insert(fingerprint, idx);
        inner.push_front(idx);
    }

    fn len(&self) -> usize {
        self.inner.lock().expect("lru lock poisoned").map.len()
    }

    fn metrics(&self) -> StoreMetrics {
        let (mem_entries, mem_bytes) = {
            let inner = self.inner.lock().expect("lru lock poisoned");
            (inner.map.len(), inner.bytes)
        };
        StoreMetrics {
            mem_entries,
            mem_capacity: self.capacity,
            mem_bytes,
            mem_hits: self.hits.load(Ordering::Relaxed),
            mem_misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..StoreMetrics::default()
        }
    }
}

/// The on-disk tier: one JSON file per entry, accessed lazily.
///
/// Opening the tier creates the directory and nothing else — no scan, no
/// parse. `get` reads exactly one file; `put` writes exactly one file.
/// The tier is advisory: an unreadable, truncated, or version-mismatched
/// file is a miss, never an error, and the next `put` replaces it.
/// A resident process therefore pays I/O proportional to its traffic,
/// not to the cache's accumulated size, and an entry written by one
/// process is immediately visible to another sharing the directory.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
}

impl DiskTier {
    /// Opens (creating if absent) the tier under `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn at_dir(dir: &Path) -> io::Result<DiskTier> {
        std::fs::create_dir_all(dir)?;
        Ok(DiskTier {
            dir: dir.to_path_buf(),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, fingerprint: Fingerprint) -> PathBuf {
        self.dir.join(format!("{fingerprint}.json"))
    }
}

impl VerdictStore for DiskTier {
    fn get(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        let text = std::fs::read_to_string(self.entry_path(fingerprint)).ok()?;
        let value = json::parse(&text).ok()?;
        let (stored, verdict) = CachedVerdict::from_json(&value)?;
        // The filename is advisory; the entry's own fingerprint member is
        // authoritative (a corrupt or renamed file must not alias).
        (stored == fingerprint).then_some(verdict)
    }

    fn put(&self, fingerprint: Fingerprint, verdict: CachedVerdict) {
        let rendered = verdict.to_json(fingerprint).render();
        let _ = std::fs::write(self.entry_path(fingerprint), rendered);
    }

    fn len(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| {
                let path = e.path();
                path.extension().and_then(|x| x.to_str()) == Some("json")
                    && path.file_stem().and_then(|s| s.to_str()).map(str::len) == Some(32)
            })
            .count()
    }
}

/// Default bound of the memory tier: generous for a single corpus, small
/// against the disk tier a long-lived service accumulates.
pub const DEFAULT_MEMORY_CAPACITY: usize = 4096;

/// The two-tier store: a bounded [`MemoryTier`] in front of an optional
/// [`DiskTier`].
#[derive(Debug)]
pub struct TieredStore {
    memory: MemoryTier,
    disk: Option<DiskTier>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    inserts: AtomicU64,
}

impl TieredStore {
    /// A memory-only store bounded at `capacity` entries.
    pub fn in_memory(capacity: usize) -> TieredStore {
        TieredStore {
            memory: MemoryTier::with_capacity(capacity),
            disk: None,
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// A store persisted under `dir`, with a memory tier bounded at
    /// `capacity` entries.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn at_dir(dir: &Path, capacity: usize) -> io::Result<TieredStore> {
        Ok(TieredStore {
            memory: MemoryTier::with_capacity(capacity),
            disk: Some(DiskTier::at_dir(dir)?),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        })
    }

    /// The backing directory, when persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(DiskTier::dir)
    }

    /// Entries on the disk tier (0 when memory-only).
    pub fn disk_len(&self) -> usize {
        self.disk.as_ref().map_or(0, VerdictStore::len)
    }
}

impl VerdictStore for TieredStore {
    fn get(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        if let Some(verdict) = self.memory.get(fingerprint) {
            return Some(verdict);
        }
        let Some(disk) = &self.disk else {
            return None;
        };
        match disk.get(fingerprint) {
            Some(verdict) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.memory.put(fingerprint, verdict.clone());
                Some(verdict)
            }
            None => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, fingerprint: Fingerprint, verdict: CachedVerdict) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = &self.disk {
            disk.put(fingerprint, verdict.clone());
        }
        self.memory.put(fingerprint, verdict);
    }

    fn len(&self) -> usize {
        match &self.disk {
            Some(disk) => disk.len(),
            None => self.memory.len(),
        }
    }

    fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            ..self.memory.metrics()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::sample_entry;
    use crate::cache::CachedOutcome;
    use crate::json::Json;
    use oolong_prover::Stats;

    fn entry(tag: &str) -> CachedVerdict {
        CachedVerdict {
            proc_name: tag.to_string(),
            outcome: CachedOutcome::Proved,
            stats: Stats::default(),
            open_branch: None,
            labels: Vec::new(),
            primary: None,
            diagnosis: None,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let tier = MemoryTier::with_capacity(2);
        tier.put(Fingerprint(1), entry("a"));
        tier.put(Fingerprint(2), entry("b"));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(tier.get(Fingerprint(1)).is_some());
        tier.put(Fingerprint(3), entry("c"));
        assert_eq!(tier.len(), 2);
        assert!(tier.get(Fingerprint(2)).is_none(), "2 was evicted");
        assert!(tier.get(Fingerprint(1)).is_some());
        assert!(tier.get(Fingerprint(3)).is_some());
        let m = tier.metrics();
        assert_eq!(m.evictions, 1);
        assert_eq!(m.mem_hits, 3);
        assert_eq!(m.mem_misses, 1);
    }

    #[test]
    fn resident_bytes_return_to_zero_once_every_entry_is_evicted() {
        let tier = MemoryTier::with_capacity(2);
        assert_eq!(tier.metrics().mem_bytes, 0);
        tier.put(Fingerprint(1), entry("a"));
        tier.put(Fingerprint(2), sample_entry());
        let sample = sample_entry().heap_bytes();
        assert!(sample > 0);
        assert_eq!(tier.metrics().mem_bytes, 1 + sample);
        // Replacing an entry swaps its bytes.
        tier.put(Fingerprint(1), sample_entry());
        assert_eq!(tier.metrics().mem_bytes, 2 * sample);
        // A promotion from the disk tier is a put like any other.
        tier.put(Fingerprint(3), entry("abc"));
        assert_eq!(tier.metrics().mem_bytes, sample + 3);
        // Entries with no heap of their own push every other entry out.
        tier.put(Fingerprint(4), entry(""));
        tier.put(Fingerprint(5), entry(""));
        let m = tier.metrics();
        assert_eq!((m.evictions, m.mem_entries), (3, 2));
        assert_eq!(m.mem_bytes, 0);
    }

    #[test]
    fn lru_reinsert_updates_in_place() {
        let tier = MemoryTier::with_capacity(2);
        tier.put(Fingerprint(1), entry("a"));
        tier.put(Fingerprint(1), entry("a2"));
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.get(Fingerprint(1)).expect("present").proc_name, "a2");
        assert_eq!(tier.metrics().evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_the_tier() {
        let tier = MemoryTier::with_capacity(0);
        tier.put(Fingerprint(1), entry("a"));
        assert_eq!(tier.len(), 0);
        assert!(tier.get(Fingerprint(1)).is_none());
    }

    #[test]
    fn lru_slab_reuses_freed_nodes() {
        let tier = MemoryTier::with_capacity(2);
        for i in 0..100u128 {
            tier.put(Fingerprint(i), entry(&format!("e{i}")));
        }
        let inner = tier.inner.lock().expect("lock");
        assert!(
            inner.nodes.len() <= 3,
            "slab stays bounded by capacity, not by traffic (got {})",
            inner.nodes.len()
        );
    }

    #[test]
    fn disk_tier_round_trips_lazily() {
        let dir = std::env::temp_dir().join(format!("oolong-disktier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fp = Fingerprint(0xfeed_f00d_0000_0000_0000_0000_0000_0001);
        {
            let tier = DiskTier::at_dir(&dir).expect("creates");
            assert_eq!(tier.len(), 0);
            tier.put(fp, sample_entry());
            assert_eq!(tier.len(), 1);
        }
        // A second handle sees the whole entry without any eager load.
        let tier = DiskTier::at_dir(&dir).expect("reopens");
        assert_eq!(tier.get(fp), Some(sample_entry()));
        assert!(tier.get(Fingerprint(2)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outdated_entries_miss_without_corruption() {
        // A v5 store must degrade to cold misses under a v6 build: the old
        // entry file is neither served nor rewritten, and a fresh v6 entry
        // lands beside it.
        let dir = std::env::temp_dir().join(format!("oolong-cache-v5-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = DiskTier::at_dir(&dir).expect("creates");
        let old_fp = Fingerprint(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        let mut value = sample_entry().to_json(old_fp);
        if let Json::Object(members) = &mut value {
            assert_eq!(members[0].0, "version");
            members[0].1 = Json::Int(5);
        }
        let old_path = tier.entry_path(old_fp);
        let old_bytes = value.render();
        std::fs::write(&old_path, &old_bytes).expect("writes v5 entry");
        assert_eq!(tier.get(old_fp), None, "v5 entries must not be served");

        let new_fp = Fingerprint(99);
        tier.put(new_fp, sample_entry());
        assert_eq!(
            std::fs::read_to_string(&old_path).expect("v5 file still present"),
            old_bytes,
            "migration is by miss: the v5 file must not be rewritten"
        );
        let reopened = DiskTier::at_dir(&dir).expect("reopens");
        assert_eq!(reopened.get(old_fp), None);
        assert_eq!(reopened.get(new_fp), Some(sample_entry()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_miss_and_are_replaced() {
        // A truncated or garbage entry file is a miss, not a panic, and the
        // next put for the same fingerprint replaces it with a hit.
        let dir = std::env::temp_dir().join(format!("oolong-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = DiskTier::at_dir(&dir).expect("creates");
        let fp = Fingerprint(0xc0de_0000_0000_0000_0000_0000_0000_0005);
        let whole = sample_entry().to_json(fp).render().into_bytes();
        let corruptions: [&[u8]; 5] = [
            &whole[..whole.len() / 2],
            &whole[..whole.len() - 1],
            b"",
            b"not json at all",
            &[0xff, 0xfe, b'{', 0x00],
        ];
        for bytes in corruptions {
            std::fs::write(tier.entry_path(fp), bytes).expect("writes corrupt entry");
            assert_eq!(tier.get(fp), None, "corrupt entry {bytes:?} must miss");
            tier.put(fp, sample_entry());
            assert_eq!(tier.get(fp), Some(sample_entry()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_rejects_renamed_entries() {
        // An entry file whose name does not match its recorded fingerprint
        // must not alias another obligation.
        let dir = std::env::temp_dir().join(format!("oolong-diskalias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = DiskTier::at_dir(&dir).expect("creates");
        let fp = Fingerprint(0xaaaa_0000_0000_0000_0000_0000_0000_0001);
        let other = Fingerprint(0xbbbb_0000_0000_0000_0000_0000_0000_0002);
        tier.put(fp, entry("p"));
        std::fs::rename(
            dir.join(format!("{fp}.json")),
            dir.join(format!("{other}.json")),
        )
        .expect("renames");
        assert!(tier.get(other).is_none(), "renamed entry must not serve");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_store_promotes_disk_hits() {
        let dir = std::env::temp_dir().join(format!("oolong-tiered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fp = Fingerprint(77);
        {
            let store = TieredStore::at_dir(&dir, 8).expect("creates");
            store.put(fp, entry("p"));
        }
        // Fresh handle: memory tier is empty, the first get is a disk hit
        // that promotes, the second is a memory hit.
        let store = TieredStore::at_dir(&dir, 8).expect("reopens");
        assert!(store.get(fp).is_some());
        assert!(store.get(fp).is_some());
        assert!(store.get(Fingerprint(1)).is_none());
        let m = store.metrics();
        assert_eq!(m.disk_hits, 1);
        assert_eq!(m.mem_hits, 1);
        assert_eq!(m.mem_misses, 2);
        assert_eq!(m.disk_misses, 1);
        assert_eq!(m.mem_entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
