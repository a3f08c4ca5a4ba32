//! A fast, deterministic hasher for integer-keyed hot-path maps.
//!
//! `std`'s default `HashMap` hasher (SipHash) is keyed and
//! DoS-resistant, which costs tens of nanoseconds per operation — far
//! too much for simulator-internal maps that are probed per dynamic
//! instruction (for example the pipeline's store-address map). Those
//! maps never hold attacker-controlled keys, so this module provides
//! the classic Fx multiply-xor hash (the rustc-internal `FxHasher`
//! design) as a drop-in `BuildHasher`.
//!
//! The hash is fully deterministic: no per-process random state, so
//! simulation results never depend on map iteration order differing
//! between runs (hot-path code must still never iterate these maps —
//! determinism of *results* comes from keying lookups, not ordering).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx hash family: a 64-bit odd constant derived
/// from the golden ratio, spreading low-entropy integer keys across
/// the full word.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A non-cryptographic multiply-xor hasher for small keys.
///
/// # Examples
///
/// ```
/// use redsim_util::hash::FxHashMap;
///
/// let mut last_store: FxHashMap<u64, u64> = FxHashMap::default();
/// last_store.insert(0x1000, 42);
/// assert_eq!(last_store.get(&0x1000), Some(&42));
/// ```
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time over the tail keeps arbitrary keys correct;
        // integer keys take the dedicated paths below.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` using [`FxHasher`]; deterministic and fast for
/// integer keys.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hashes a byte string to a deterministic 64-bit checksum.
///
/// This is the record checksum of the [`framed`](crate::framed) log:
/// stable across processes and platforms (no per-process key), cheap
/// enough to run on every appended record, and strong enough to catch
/// torn or bit-flipped JSONL lines. Not cryptographic.
///
/// # Examples
///
/// ```
/// use redsim_util::hash::fx64;
///
/// assert_eq!(fx64(b"record"), fx64(b"record"));
/// assert_ne!(fx64(b"record"), fx64(b"recore"));
/// ```
pub fn fx64(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equal_and_nearby_keys_differ() {
        assert_eq!(hash_of(&0x1000u64), hash_of(&0x1000u64));
        assert_ne!(hash_of(&0x1000u64), hash_of(&0x1008u64));
        // 8-byte-aligned addresses differ only in high-ish bits; the
        // multiply must still spread them into distinct buckets.
        let hashes: Vec<u64> = (0..1024u64).map(|i| hash_of(&(i * 8))).collect();
        let mut uniq = hashes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), hashes.len(), "no collisions on aligned keys");
    }

    #[test]
    fn byte_slices_hash_consistently_across_chunk_boundaries() {
        let a = hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9][..]);
        let b = hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9][..]);
        assert_eq!(a, b);
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..100u64 {
            m.insert(i * 8, i);
        }
        for i in 0..100u64 {
            assert_eq!(m.get(&(i * 8)), Some(&i));
        }
        m.remove(&0);
        assert_eq!(m.get(&0), None);
    }
}
