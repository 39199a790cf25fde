//! First-party reimplementation of the `rustc-hash` ("FxHash") API subset
//! the workspace uses: [`FxHasher`], [`FxHashMap`].
//!
//! FxHash is the non-cryptographic multiply-rotate hash the Rust compiler
//! uses for its internal tables. It is dramatically cheaper than SipHash
//! for the small fixed-width keys this workspace hashes (`BlockId` is 12
//! bytes, disk ids 4) and needs no HashDoS resistance: every key fed to
//! these maps comes from a deterministic trace generator, not from an
//! untrusted network peer.
//!
//! Like `pc-rand`, the package is `pc-fxhash` but the library is named
//! `rustc_hash` so call sites keep idiomatic imports while the build
//! stays fully offline.
//!
//! ```
//! use rustc_hash::FxHashMap;
//!
//! let mut map: FxHashMap<u64, &str> = FxHashMap::default();
//! map.insert(9, "block nine");
//! assert_eq!(map.get(&9), Some(&"block nine"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `BuildHasher` producing [`FxHasher`]s; the default state of the maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The multiplier from the original Firefox/rustc implementation: a
/// 64-bit constant with a good spread of set bits, applied after folding
/// each word in so every input bit diffuses across the state.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fowler-style multiply-rotate hasher (the rustc "FxHasher").
///
/// Words are folded in as `state = (state.rotate_left(5) ^ word) * SEED`.
/// Not cryptographic, not DoS-resistant — but roughly an order of
/// magnitude cheaper than SipHash on short fixed-width keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
        assert_eq!(hash_of(&"block"), hash_of(&"block"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Sequential block numbers are the common key pattern; they must
        // not collide wholesale.
        let hashes: HashSet<u64> = (0u64..1000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn map_and_set_roundtrip() {
        let mut map: FxHashMap<(u32, u64), u32> = FxHashMap::default();
        for i in 0..100u32 {
            map.insert((i, u64::from(i) * 7), i);
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.get(&(42, 294)), Some(&42));

        let set: HashSet<u64, FxBuildHasher> = (0..50).collect();
        assert!(set.contains(&49));
        assert!(!set.contains(&50));
    }

    #[test]
    fn partial_word_tail_is_hashed() {
        // 9 bytes: one full word plus a 1-byte remainder — the remainder
        // must affect the result.
        let a: [u8; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        let b: [u8; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 10];
        assert_ne!(hash_of(&a.as_slice()), hash_of(&b.as_slice()));
    }
}
