//! A small unkeyed hasher for maps keyed by ids the prover assigns itself.
//!
//! The standard library's default `RandomState` (SipHash-1-3) is keyed per
//! process so that an adversary who controls map keys cannot force
//! collisions. That protection costs a keyed permutation per lookup, which
//! profiles showed as a large share of the prover's time. Most prover maps
//! are keyed by values no input can choose: E-graph node ids, quantifier
//! ids, and interned term ids. Those use [`FxHasher`], the multiply-rotate
//! hash `rustc` uses for its own interned ids.
//!
//! A key that can carry a value taken from the checked program — a literal
//! or a name inside a [`Sym`](crate::Sym), or the content digest that
//! `Symbol` and `Term` hash by default — must not be hashed with
//! [`FxHasher`]. Such maps keep `RandomState`, or are re-keyed by an id
//! (see [`IdKey`] and `Sym`-free head keys in the prover).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// `rustc`'s Fx hash: rotate, xor in the next word, multiply.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]. Only for prover-assigned keys.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]. Only for prover-assigned keys.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// How many ids an [`IdKey`] holds without allocating.
const INLINE: usize = 11;

/// A short sequence of prover-assigned ids (node ids, term arena ids,
/// quantifier ids) used as a hash key. Up to eleven ids are stored inline,
/// so building a key per match binding does not allocate; longer
/// sequences spill to the heap. Hashes by the ids themselves, never by
/// content digests, which keeps it safe under [`FxHasher`].
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

    fn fx(f: impl FnOnce(&mut FxHasher)) -> u64 {
        let mut h = FxHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn byte_writes_agree_with_word_writes() {
        assert_eq!(fx(|h| h.write(&7u64.to_le_bytes())), fx(|h| h.write_u64(7)));
        assert_ne!(fx(|h| h.write_u32(1)), fx(|h| h.write_u32(2)));
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
