//! Deterministic hash containers: the allowlisted replacement for
//! `std::collections::HashMap`/`HashSet` in deterministic crates.
//!
//! `std`'s default `RandomState` seeds its hasher per process, so map
//! iteration order — and therefore anything derived from it, like a
//! floating-point sum over `.values()` — changes from run to run. That is
//! exactly the class of bug the `simlint` D01 rule bans from the simulator
//! crates. Hot lookup paths that never let iteration order escape can keep
//! O(1) maps by using [`DetHashMap`]/[`DetHashSet`]: the same `std`
//! containers with a **fixed-seed** FxHash-style hasher, so every run of
//! every process hashes identically.
//!
//! Two caveats, both by design:
//!
//! * Iteration order is reproducible run-to-run (fixed seed, same insertion
//!   sequence) but is still an implementation detail of `std`'s table — it
//!   may change across Rust releases. **If iteration order can reach any
//!   output, use `BTreeMap`/`BTreeSet` instead**; reserve these types for
//!   pure lookup/membership workloads.
//! * The hasher is not DoS-resistant. These containers are for simulator
//!   state keyed by PCs and indices, never for untrusted input.
//!
//! # Examples
//!
//! ```
//! use sim_support::DetHashMap;
//!
//! let mut hot: DetHashMap<u64, u32> = DetHashMap::default();
//! hot.insert(0x4000, 7);
//! assert_eq!(hot.get(&0x4000), Some(&7));
//! ```

use std::hash::{BuildHasher, Hasher};

/// Multiplier from FxHash (Firefox's hasher): a 64-bit odd constant with
/// good avalanche behaviour under `rotate ^ mul`.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fixed seed folded into every hasher so the table layout is stable across
/// processes (and visibly not `RandomState`).
const SEED: u64 = 0x7065_7270_6574_7561; // "perpetua"

/// Fixed-seed FxHash-style hasher. Fast on the integer keys (branch PCs,
/// set indices, block numbers) the simulator uses everywhere.
#[derive(Clone, Debug)]
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
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" + "" and "a" + "b" differ.
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
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
}

/// `BuildHasher` producing [`FxHasher`]s from the fixed `SEED`. The unit
/// struct is `Default`, so `DetHashMap::default()` replaces
/// `HashMap::new()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetState;

impl BuildHasher for DetState {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: SEED }
    }
}

/// A `HashMap` with run-to-run-deterministic hashing. See the
/// [module docs](self) for when to prefer `BTreeMap`.
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, DetState>;

/// A `HashSet` with run-to-run-deterministic hashing. See the
/// [module docs](self) for when to prefer `BTreeSet`.
pub type DetHashSet<T> = std::collections::HashSet<T, DetState>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(value: impl std::hash::Hash) -> u64 {
        DetState.hash_one(value)
    }

    #[test]
    fn same_key_same_hash() {
        assert_eq!(hash_of(0xdead_beefu64), hash_of(0xdead_beefu64));
        assert_eq!(hash_of("branch"), hash_of("branch"));
    }

    #[test]
    fn nearby_keys_spread() {
        // Consecutive PCs (the common key pattern) must not collide in the
        // low bits the table indexes with.
        let mut low_bits: Vec<u64> = (0..64u64).map(|pc| hash_of(pc * 4) & 0xff).collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(
            low_bits.len() > 48,
            "only {} distinct low bytes",
            low_bits.len()
        );
    }

    #[test]
    fn length_distinguishes_byte_splits() {
        assert_ne!(
            hash_of([1u8, 2].as_slice()),
            hash_of([1u8, 2, 0].as_slice())
        );
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut map: DetHashMap<u64, &str> = DetHashMap::default();
        map.insert(1, "one");
        map.insert(2, "two");
        assert_eq!(map.get(&1), Some(&"one"));
        let set: DetHashSet<u64> = (0..100).collect();
        assert_eq!(set.len(), 100);
        assert!(set.contains(&42));
    }

    #[test]
    fn iteration_is_reproducible_within_process() {
        let build = || -> Vec<u64> {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..1000u64 {
                m.insert(i.wrapping_mul(0x9e37_79b9), i);
            }
            m.keys().copied().collect()
        };
        assert_eq!(build(), build());
    }
}
