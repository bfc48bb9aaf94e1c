//! Id-keyed hashing for the prover.
//!
//! Maps keyed by ids the prover assigns itself — E-graph node ids,
//! quantifier ids, and interned term ids — use the unkeyed
//! [`FxHasher`](oolong_logic::fxhash::FxHasher), whose module documentation
//! states which keys it may hash. [`IdKey`] is a short id sequence that is
//! safe to hash with it.

use std::hash::{Hash, Hasher};

pub use oolong_logic::fxhash::{FxHashMap, FxHashSet};

/// How many ids an [`IdKey`] holds without allocating.
const INLINE: usize = 11;

/// A short sequence of prover-assigned ids (node ids, term arena ids,
/// quantifier ids) used as a hash key. Up to eleven ids are stored inline,
/// so building a key per match binding does not allocate; longer
/// sequences spill to the heap. Hashes by the ids themselves, never by
/// content digests, which keeps it safe under
/// [`FxHasher`](oolong_logic::fxhash::FxHasher).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdKey {
    /// At most [`INLINE`] ids: the first `len` entries of the array.
    Inline { len: u8, ids: [u32; INLINE] },
    /// Longer sequences.
    Spill(Box<[u32]>),
}

impl IdKey {
    /// Collects `ids` into a key.
    pub fn new(ids: impl IntoIterator<Item = u32>) -> IdKey {
        let mut ids = ids.into_iter();
        let mut buf = [0u32; INLINE];
        let mut len = 0;
        while let Some(id) = ids.next() {
            if len == INLINE {
                let mut spill = buf.to_vec();
                spill.push(id);
                spill.extend(ids);
                return IdKey::Spill(spill.into_boxed_slice());
            }
            buf[len] = id;
            len += 1;
        }
        IdKey::Inline {
            len: len as u8,
            ids: buf,
        }
    }

    /// The ids, in order.
    pub fn ids(&self) -> &[u32] {
        match self {
            IdKey::Inline { len, ids } => &ids[..*len as usize],
            IdKey::Spill(ids) => ids,
        }
    }
}

impl Hash for IdKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ids = self.ids();
        state.write_usize(ids.len());
        for &id in ids {
            state.write_u32(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_logic::fxhash::FxHasher;

    fn fx(f: impl FnOnce(&mut FxHasher)) -> u64 {
        let mut h = FxHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn id_keys_inline_and_spill_by_length() {
        let short = IdKey::new([1u32, 2, 3]);
        assert!(matches!(short, IdKey::Inline { len: 3, .. }));
        assert_eq!(short.ids(), &[1, 2, 3]);
        let long = IdKey::new(0u32..12);
        assert!(matches!(long, IdKey::Spill(_)));
        assert_eq!(long.ids(), (0u32..12).collect::<Vec<_>>().as_slice());
        // Equal sequences are equal keys with equal hashes; a prefix is not.
        let again = IdKey::new([1u32, 2, 3]);
        assert_eq!(short, again);
        let hash = |k: &IdKey| fx(|h| k.hash(h));
        assert_eq!(hash(&short), hash(&again));
        assert_ne!(short, IdKey::new([1u32, 2]));
        let mut set: FxHashSet<IdKey> = FxHashSet::default();
        assert!(set.insert(short));
        assert!(!set.insert(again));
        assert!(set.insert(long));
    }
}
