//! A small FxHash-style hasher for the BDD kernel's hot tables.
//!
//! The default `std::collections::HashMap` hashes with SipHash-1-3, which is
//! DoS-resistant but costs tens of cycles per key. The BDD kernel hashes
//! billions of tiny fixed-width keys — `(level, lo, hi)` triples and
//! `(op, a, b)` pairs of `u32` handles — where collision-flooding is not a
//! threat (keys are internally generated node handles, never attacker
//! input). This module provides the rustc-style *Fx* multiply-rotate hash:
//! one rotate, one xor, one 64-bit multiply per word, which is what the
//! open-addressed tables in [`crate::table`] index with.
//!
//! The workspace builds offline, so this is a hand-rolled implementation
//! rather than the `rustc-hash` crate; the constant is the same golden-ratio
//! multiplier rustc uses.

use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier: `2^64 / φ`, the 64-bit golden-ratio constant used by
/// rustc's `FxHasher`.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Finalization fold: a multiply-based hash carries its entropy in the
/// *high* bits (bit `i` of a product depends only on bits `≤ i` of the
/// inputs), but the power-of-two tables in [`crate::table`] index with the
/// *low* bits. One xor-shift folds the high half down.
#[inline]
fn finalize(h: u64) -> u64 {
    h ^ (h >> 32)
}

/// One-shot hash of a `(level, lo, hi)`-style triple of `u32`s — the unique
/// table key shape. Words are folded with the same rotate-xor-multiply step
/// as [`FxHasher`].
#[inline]
#[must_use]
pub fn hash3(a: u32, b: u32, c: u32) -> u64 {
    let mut h = 0u64;
    h = (h.rotate_left(5) ^ u64::from(a)).wrapping_mul(K);
    h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
    h = (h.rotate_left(5) ^ u64::from(c)).wrapping_mul(K);
    finalize(h)
}

/// A streaming [`Hasher`] with the Fx mixing function, for use with
/// `HashMap`s that want cheap hashing of trusted keys (see
/// [`FxBuildHasher`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        finalize(self.hash)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold 8 bytes at a time; the tail is padded into one word. The
        // kernel's keys are fixed-width integers, so this path is cold.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into standard collections:
/// `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hash3_spreads_small_keys() {
        // Sequential handles (the common case: fresh BDD nodes) must not
        // collapse onto a few buckets of a power-of-two table.
        let mask = 1023u64;
        let mut buckets = std::collections::HashSet::new();
        for i in 0..512u32 {
            buckets.insert(hash3(3, i, i + 1) & mask);
        }
        assert!(
            buckets.len() > 400,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn hasher_is_deterministic_and_order_sensitive() {
        let h = |vals: &[u32]| {
            let mut hasher = FxHasher::default();
            for &v in vals {
                hasher.write_u32(v);
            }
            hasher.finish()
        };
        assert_eq!(h(&[1, 2, 3]), h(&[1, 2, 3]));
        assert_ne!(h(&[1, 2, 3]), h(&[3, 2, 1]));
        assert_eq!(h(&[7, 9, 11]), hash3(7, 9, 11));
    }

    #[test]
    fn std_hashmap_accepts_the_build_hasher() {
        let mut m: HashMap<(u32, u32), u32, FxBuildHasher> = HashMap::default();
        m.insert((1, 2), 3);
        assert_eq!(m.get(&(1, 2)), Some(&3));
    }

    #[test]
    fn byte_stream_matches_word_stream_for_whole_words() {
        let mut a = FxHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }
}
