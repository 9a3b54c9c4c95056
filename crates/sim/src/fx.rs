//! A deterministic, fast hasher for the simulator's id-keyed maps.
//!
//! The maps of the protocol and kernel layers hash small integers and
//! tuples of them (enclave ids, segids, pids, page-aligned addresses).
//! SipHash's DoS resistance buys nothing there, and its random per-process
//! keys buy nothing either: no output may depend on hash-map iteration
//! order. [`FxHasher`] is the Fx multiply-rotate hash, one multiply per
//! word, with a final xor-shift-multiply mix: Fx alone leaves the low bits
//! that pick a hashbrown bucket as a function of the key's low bits only,
//! so keys that differ only in high bits (page-aligned addresses, shifted
//! frame numbers) would share buckets.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fx hashing: `hash = (hash.rotate_left(5) ^ word) * K` per word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
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
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.hash ^ (self.hash >> 32)).wrapping_mul(K);
        h ^ (h >> 32)
    }
}

/// Builds [`FxHasher`]s; every map built with it hashes identically in
/// every process.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]; construct with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]; construct with `default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_equal_across_builders() {
        let (a, b) = (FxBuildHasher::default(), FxBuildHasher::default());
        assert_eq!(a.hash_one((3u64, 7usize)), b.hash_one((3u64, 7usize)));
        assert_ne!(a.hash_one((3u64, 7usize)), a.hash_one((7u64, 3usize)));
        assert_ne!(a.hash_one("ab"), a.hash_one("ba"));
    }

    #[test]
    fn keys_differing_in_high_bits_spread_over_low_bits() {
        // Page-aligned addresses and frame numbers shifted past bit 32:
        // 1,024 keys into 1,024 buckets fill about 1 - 1/e of them when
        // hashed at random, and pile into a few without the final mix.
        let h = FxBuildHasher::default();
        for shift in [0, 12, 21, 32, 40, 48] {
            let buckets: HashSet<u64> = (0..1024u64)
                .map(|i| h.hash_one(i << shift) & 1023)
                .collect();
            assert!(
                buckets.len() > 512,
                "shift {shift}: {} buckets",
                buckets.len()
            );
        }
    }
}
