//! A small unkeyed hasher for maps keyed by ids the checker assigns itself.
//!
//! The standard library's default `RandomState` (SipHash-1-3) is keyed per
//! process so that an adversary who controls map keys cannot force
//! collisions. That protection costs a keyed permutation per lookup, which
//! profiles showed as a large share of the prover's and the term arena's
//! time. Many maps are keyed by values no input can choose: E-graph node
//! ids, quantifier ids, interned symbol ids and term arena ids. Those use
//! [`FxHasher`], the multiply-rotate hash `rustc` uses for its own
//! interned ids.
//!
//! A key that can carry a value taken from the checked program — an
//! integer literal, a name, or the content digest that
//! [`Symbol`](crate::Symbol) and [`Term`](crate::Term) hash by default —
//! must not be hashed with [`FxHasher`]. Such maps keep `RandomState`, or
//! are re-keyed by an id.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

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

/// A `HashMap` hashed with [`FxHasher`]. Only for checker-assigned keys.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]. Only for checker-assigned keys.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

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
}
