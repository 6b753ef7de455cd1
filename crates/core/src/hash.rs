//! A small fast hasher for the maps on the scoring path.
//!
//! std's `HashMap` hashes with SipHash-1-3, which costs more than the
//! lookup it serves when a key is a few machine words: a cold placement
//! looks up hundreds of game profiles and target prefixes and dozens of
//! memo entries. The maps on that path — [`crate::ProfileStore`], the
//! prefixes and the daemon's prediction memo — use [`FastState`] instead.
//!
//! Each word written is folded in with one 64 × 64 → 128-bit multiply
//! whose two halves are XORed together (the folded multiply of aHash and
//! foldhash). The low half of a product depends only on the low bits of
//! its factors; the high half brings every bit in. `hashbrown` picks a
//! bucket from a hash's low bits, so a hash that is a raw product, as
//! FxHash's is, leaves keys that differ only in high bits — a QoS floor's
//! exponent, a game id shifted up — in the same buckets. The fold mixes the
//! high half into those bits at every word, and so into what
//! [`FastHasher::finish`] returns.
//!
//! The state starts from a seed drawn once per process, as std's
//! `RandomState` draws its keys: the fold is not linear, so which keys
//! collide depends on a seed a client choosing keys cannot know. Nothing may
//! depend on a map's iteration order.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The fold's multiplier: odd, with no structure in its bits (the fractional
/// part of the golden ratio).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// The full product of `a` and `b`, its high half XORed onto its low half.
fn fold(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ (full >> 64) as u64
}

/// The hasher [`FastState`] builds. A `u8`, `u32` or `u64` write is one
/// fold; any other write is its bytes, read as little-endian words after
/// their length.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.hash = fold(self.hash ^ i, MULTIPLIER);
    }

    /// The state after the last fold, whose low bits depend on every bit
    /// written.
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FastHasher`]s from one seed.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
}

/// A seed drawn once per process from std's random hash keys, shared by
/// every map.
impl Default for FastState {
    fn default() -> FastState {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0));
        FastState { seed }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher { hash: self.seed }
    }
}

/// A `HashMap` hashed by [`FastState`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Keys that differ only in their high bits still spread over the low
    /// bits a bucket is picked from.
    #[test]
    fn high_bit_differences_reach_the_bucket_bits() {
        let state = FastState::default();
        // 1 024 floors that differ only in the exponent and the top of the
        // mantissa (bits 42 and up), and game ids shifted into the top bits.
        let floors = (0..1024u64).map(|i| (1.0f64.to_bits() & !(0x3ff << 42)) | i << 42);
        let shifted = (0..1024u64).map(|i| i << 54);
        for keys in [floors.collect::<Vec<_>>(), shifted.collect()] {
            let buckets: HashSet<u64> = keys.iter().map(|k| state.hash_one(k) & 0x3ff).collect();
            // 1 024 keys thrown at random into 1 024 buckets fill ~647.
            assert!(buckets.len() > 560, "{} of 1024 buckets", buckets.len());
        }
    }

    #[test]
    fn a_seed_changes_the_hashes_and_one_seed_repeats_them() {
        let (drawn, other) = (FastState::default(), FastState { seed: MULTIPLIER });
        assert_eq!(drawn.hash_one(7u32), FastState::default().hash_one(7u32));
        assert_ne!(drawn.hash_one(7u32), other.hash_one(7u32));
    }

    #[test]
    fn byte_slices_hash_their_length() {
        let state = FastState::default();
        assert_ne!(
            state.hash_one([1u8].as_slice()),
            state.hash_one([1u8, 0].as_slice())
        );
    }
}
