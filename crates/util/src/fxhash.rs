//! The `FxHash` algorithm used throughout rustc, reimplemented here so the
//! workspace does not depend on `rustc-hash`.
//!
//! It is a non-cryptographic multiply-rotate hash that is extremely fast on
//! short integer-like keys — exactly the shape of our hot keys
//! (`(blob, version, offset, size)` tuples, page indices, node ids).
//! HashDoS resistance is irrelevant here: keys are internal, never
//! attacker-controlled.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit seed constant: `floor(2^64 / phi)`, the same constant rustc uses.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast, non-cryptographic hasher (the rustc `FxHash` function).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // lint: allow(panic-on-serving-path) — chunks_exact(8) yields exactly 8 bytes
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
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

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hash a single `u64` to a well-mixed `u64` (splitmix64 finalizer).
///
/// Used for ring positions and key-to-shard routing where we need the full
/// avalanche property that raw `FxHash` of a single word lacks.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hash a byte string through `FxHasher::write`.
    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn hashes_are_deterministic() {
        assert_eq!(hash_bytes(b"blobseer"), hash_bytes(b"blobseer"));
        assert_ne!(hash_bytes(b"blobseer"), hash_bytes(b"blobsees"));
    }

    #[test]
    fn mix64_avalanches_low_bits() {
        // Consecutive inputs must land in different high bits most of the
        // time; a weak mixer would leave the top bits identical.
        let mut distinct_tops = FxHashSet::default();
        for i in 0..1024u64 {
            distinct_tops.insert(mix64(i) >> 48);
        }
        assert!(distinct_tops.len() > 900, "got {}", distinct_tops.len());
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn write_variants_differ_from_byte_stream() {
        // Sanity: writing a u64 as an integer vs as bytes may differ, but
        // each must be self-consistent.
        let mut a = FxHasher::default();
        a.write_u64(42);
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn unaligned_tail_is_hashed() {
        assert_ne!(hash_bytes(b"123456789"), hash_bytes(b"12345678"));
        assert_ne!(hash_bytes(b"123456789"), hash_bytes(b"123456780"));
    }
}
