//! A multiplicative hasher for maps keyed by small integers.
//!
//! The standard library's SipHash resists hash flooding, which maps keyed
//! by the simulator's own ids (sequential timer tags, `(src, dst, size)`
//! route keys) do not need, and it costs several times more than the rest
//! of a lookup. [`IdHasher`] folds each written word into the state with
//! one rotate, one xor and one multiply by an odd constant (the FxHash
//! scheme). The multiply is a bijection on the low bits, so sequential
//! keys spread evenly over a table's buckets.
//!
//! Use it only for maps whose iteration order no caller can observe:
//! unlike a `BTreeMap`, a hash map's order depends on its capacity
//! history.
//!
//! # Examples
//!
//! ```
//! use aas_sim::hash::IdHashMap;
//!
//! let mut timers: IdHashMap<u64, &str> = IdHashMap::default();
//! timers.insert(7, "job done");
//! assert_eq!(timers.remove(&7), Some("job done"));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of the FxHash scheme (from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The multiplicative hasher (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
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
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`IdHasher`]s; stateless, so every map hashes alike.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        IdBuildHasher::default().hash_one(v)
    }

    #[test]
    fn sequential_keys_fill_distinct_low_buckets() {
        // The multiply is a bijection mod 2^k: 1024 sequential tags land
        // in 1024 distinct buckets of a 1024-bucket table.
        let mut buckets: Vec<u64> = (0..1024u64).map(|t| hash_of(t) & 1023).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1024);
    }

    #[test]
    fn tuple_fields_are_not_interchangeable() {
        assert_ne!(hash_of((1u32, 2u32, 64u64)), hash_of((2u32, 1u32, 64u64)));
        assert_eq!(hash_of((1u32, 2u32, 64u64)), hash_of((1u32, 2u32, 64u64)));
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IdHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
