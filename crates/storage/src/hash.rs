//! The engine's hasher for hot hash tables: a folded multiply keyed once
//! per process.
//!
//! `std`'s default SipHash is built to resist collision attacks and runs
//! several rounds per key; the join loop's posting lookups, the result set
//! and the grouping maps pay that on every probe. [`FastState`] hashes a
//! word with one 64×64→128-bit multiply whose halves are folded together,
//! plus one more to finish, so every input bit reaches the low bits that
//! pick a bucket.
//!
//! The key is drawn from [`RandomState`] once per process. Unkeyed
//! multiplicative hashes (Fx) map keys that agree modulo 2^k to the same
//! low bits, and a client can create such keys on purpose
//! (`CREATE TEMP TABLE … AS SELECT id * 1048576 …`). One key per process,
//! rather than one per map as `RandomState` does, keeps iteration order a
//! function of the inserted keys: two maps fed the same keys in the same
//! order iterate alike, so unordered GROUP BY output — and the work of any
//! statement that reads it back from a temp table — repeats within a
//! process.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// `HashMap` with the process-keyed fast hasher.
pub type FastMap<K, V> = HashMap<K, V, FastState>;
/// `HashSet` with the process-keyed fast hasher.
pub type FastSet<T> = HashSet<T, FastState>;

/// An odd 64-bit constant with well-mixed bits (the fractional digits of
/// pi), the per-word multiplier.
const MUL: u64 = 0x243f_6a88_85a3_08d3;

/// Multiply to 128 bits and fold the halves: the high half carries the
/// low input bits up, the low half the high ones down.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The process key: a seed for the accumulator and an odd finalizer.
fn process_key() -> [u64; 2] {
    static KEY: OnceLock<[u64; 2]> = OnceLock::new();
    *KEY.get_or_init(|| {
        let s = RandomState::new();
        [s.hash_one(0u64), s.hash_one(1u64) | 1]
    })
}

/// [`BuildHasher`] for [`FastHasher`]; every instance carries the process
/// key.
#[derive(Clone, Copy, Debug)]
pub struct FastState {
    key: [u64; 2],
}

impl Default for FastState {
    #[inline]
    fn default() -> Self {
        FastState { key: process_key() }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            acc: self.key[0],
            fin: self.key[1],
        }
    }
}

/// Word-at-a-time folded-multiply hasher (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct FastHasher {
    acc: u64,
    fin: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.acc = folded_multiply(self.acc ^ x, MUL);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.acc, self.fin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_inputs_hash_equal_across_maps() {
        let (a, b) = (FastState::default(), FastState::default());
        for k in [0u64, 1, 7, u64::MAX, 1 << 40] {
            assert_eq!(a.hash_one(k), b.hash_one(k));
        }
        assert_eq!(a.hash_one([3u32, 9, 27]), b.hash_one([3u32, 9, 27]));
        assert_eq!(a.hash_one("abc"), b.hash_one("abc"));
    }

    #[test]
    fn distinct_small_inputs_hash_apart() {
        let s = FastState::default();
        let hashes: FastSet<u64> = (0..10_000u64).map(|k| s.hash_one(k)).collect();
        assert_eq!(hashes.len(), 10_000);
        // Slices differing only in the tail bytes of a partial word.
        assert_ne!(s.hash_one(&[1u32, 2, 3][..]), s.hash_one(&[1u32, 2, 4][..]));
        assert_ne!(s.hash_one(&[1u32, 2][..]), s.hash_one(&[1u32, 2, 0][..]));
    }

    #[test]
    fn keys_sharing_low_bits_spread_over_low_buckets() {
        // 65,536 keys k · 2^20 agree in their low 20 bits; an unkeyed
        // multiplicative hash sends them all to one low-16-bit bucket.
        let s = FastState::default();
        let mut hit = vec![false; 1 << 16];
        for k in 0..(1u64 << 16) {
            hit[(s.hash_one(k << 20) & 0xffff) as usize] = true;
        }
        let filled = hit.iter().filter(|&&h| h).count();
        assert!(filled >= 1 << 15, "only {filled} of 65536 buckets filled");
    }
}
