//! Dense ID-indexed slab maps for detector metadata.
//!
//! Every entity a race detector keys metadata by — variables, locks,
//! volatiles, threads — already carries a dense small-integer identifier
//! in this workspace. Probing a `HashMap` on every access event pays for
//! hashing, probe chains, and `entry()` churn on the hottest path in the
//! whole system (§3 of the PACER paper counts a metadata lookup per
//! instrumented access). [`IdMap`] replaces those maps with a plain
//! `Vec`-backed slab: lookup is one bounds-checked index, insertion is a
//! slot write, and iteration is in ascending key order (deterministic, no
//! hasher state).
//!
//! Occupancy is tracked per slot, so `len()` (PACER's `tracked_vars`),
//! metadata discard (`remove`), and footprint accounting keep their
//! `HashMap` semantics exactly.
//!
//! [`SlabPool`] complements the slab maps on the allocation side: it
//! recycles the uniformly-shaped storage blocks (vector-clock buffers,
//! mainly) that full-rate trials churn through, so the hot path stops
//! paying the global allocator. `pacer-clock` wraps it as `ClockArena`.
//!
//! The crate also hosts the workspace's dependency-free durability
//! primitives: [`atomic_write`] (crash-safe artifact replacement),
//! [`json`] (a structured-error JSON reader for artifact round-trips), and
//! [`fnv1a64`] (the frame checksum shared by the checkpoint journal and
//! the binary trace format).
//!
//! # Examples
//!
//! ```
//! use pacer_collections::IdMap;
//!
//! let mut m: IdMap<u32, &str> = IdMap::new();
//! m.insert(3, "c");
//! m.insert(1, "a");
//! assert_eq!(m.get(3), Some(&"c"));
//! assert_eq!(m.len(), 2);
//! // Iteration is by ascending key, independent of insertion order.
//! let keys: Vec<u32> = m.keys().collect();
//! assert_eq!(keys, vec![1, 3]);
//! assert_eq!(m.remove(&1), Some("a"));
//! assert_eq!(m.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic_io;
pub mod hash;
pub mod json;
pub mod pool;

pub use atomic_io::atomic_write;
pub use hash::{fnv1a64, fnv1a64_byte, fnv1a64_extend};
pub use json::{JsonError, JsonValue};
pub use pool::{PoolItem, PoolStats, SlabPool};

use std::fmt;
use std::marker::PhantomData;

/// A key type that is a thin wrapper over a dense small-integer index.
///
/// Implemented by the workspace's ID newtypes (`VarId`, `LockId`, …) and
/// the primitive index types. `from_index(k.index()) == k` must hold.
pub trait DenseKey: Copy + Eq {
    /// The slab slot this key addresses.
    fn index(&self) -> usize;
    /// Reconstructs the key addressing slot `index`.
    fn from_index(index: usize) -> Self;
}

impl DenseKey for u32 {
    #[inline]
    fn index(&self) -> usize {
        *self as usize
    }
    #[inline]
    fn from_index(index: usize) -> Self {
        u32::try_from(index).expect("index exceeds u32 key space")
    }
}

impl DenseKey for usize {
    #[inline]
    fn index(&self) -> usize {
        *self
    }
    #[inline]
    fn from_index(index: usize) -> Self {
        index
    }
}

/// A map from dense integer-like keys to values, backed by a `Vec` slab.
///
/// Drop-in replacement for `HashMap<K, V>` on ID-keyed metadata tables:
/// same observable semantics for `get`/`insert`/`remove`/`len`/iteration
/// (except iteration order, which is ascending key order — *more*
/// deterministic than a hash map), with O(1) unhashed access.
///
/// Memory is proportional to the largest key index ever inserted, not the
/// live count; for the dense IDs this workspace allocates that is the
/// right trade.
pub struct IdMap<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: DenseKey, V> IdMap<K, V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        IdMap {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Creates an empty map with room for keys of index `< capacity`
    /// without reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        IdMap {
            slots: Vec::with_capacity(capacity),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of occupied slots.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no slot is occupied.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `key`'s slot is occupied.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        matches!(self.slots.get(key.index()), Some(Some(_)))
    }

    /// Returns the value at `key`, if present.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.index()).and_then(Option::as_ref)
    }

    /// Returns the value at `key` mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slots.get_mut(key.index()).and_then(Option::as_mut)
    }

    /// Inserts `value` at `key`, returning the previous occupant.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `key` (metadata discard).
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let old = self.slots.get_mut(key.index()).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Returns the value at `key`, inserting `f()` first if vacant.
    ///
    /// The slab's replacement for `HashMap::entry(k).or_insert_with(f)`,
    /// without the `Entry` allocation churn.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: K, f: impl FnOnce() -> V) -> &mut V {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some(f());
            self.len += 1;
        }
        slot.as_mut().expect("slot just filled")
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Iterates `(key, &value)` over occupied slots in ascending key
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (K::from_index(i), v)))
    }

    /// Iterates `(key, &mut value)` in ascending key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (K::from_index(i), v)))
    }

    /// Iterates occupied keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| K::from_index(i)))
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterates values mutably in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }

    /// Slab words allocated (occupied or not), for capacity accounting.
    #[must_use]
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<K: DenseKey, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap::new()
    }
}

impl<K: DenseKey, V: Clone> Clone for IdMap<K, V> {
    fn clone(&self) -> Self {
        IdMap {
            slots: self.slots.clone(),
            len: self.len,
            _key: PhantomData,
        }
    }
}

impl<K: DenseKey + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: DenseKey, V: PartialEq> PartialEq for IdMap<K, V> {
    /// Equality over the key → value mapping; trailing vacant capacity is
    /// ignored.
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        self.iter()
            .zip(other.iter())
            .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
    }
}

impl<K: DenseKey, V: Eq> Eq for IdMap<K, V> {}

impl<K: DenseKey, V> std::ops::Index<K> for IdMap<K, V> {
    type Output = V;
    #[inline]
    fn index(&self, key: K) -> &V {
        self.get(key).expect("no entry for key")
    }
}

impl<K: DenseKey, V> std::ops::Index<&K> for IdMap<K, V> {
    type Output = V;
    #[inline]
    fn index(&self, key: &K) -> &V {
        self.get(*key).expect("no entry for key")
    }
}

impl<K: DenseKey, V> FromIterator<(K, V)> for IdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = IdMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: IdMap<u32, String> = IdMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "five".into()), None);
        assert_eq!(m.insert(0, "zero".into()), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(5).map(String::as_str), Some("five"));
        assert_eq!(m.get(1), None);
        assert_eq!(m.insert(5, "FIVE".into()).as_deref(), Some("five"));
        assert_eq!(m.len(), 2, "overwrite does not grow");
        assert_eq!(m.remove(&5).as_deref(), Some("FIVE"));
        assert_eq!(m.remove(&5), None, "double remove is None");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut m: IdMap<u32, u64> = IdMap::new();
        m.insert(3, 30);
        let cap = m.slot_capacity();
        m.remove(&3);
        m.insert(3, 31);
        assert_eq!(m.slot_capacity(), cap, "reuses the vacated slot");
        assert_eq!(m.get(3), Some(&31));
    }

    #[test]
    fn occupancy_count_tracks_exactly() {
        let mut m: IdMap<u32, u32> = IdMap::new();
        for k in 0..100 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.len(), 100);
        for k in (0..100).step_by(2) {
            m.remove(&k);
        }
        assert_eq!(m.len(), 50);
        assert_eq!(m.values().count(), 50);
        assert_eq!(m.iter().count(), 50);
    }

    #[test]
    fn iteration_is_ascending_key_order_regardless_of_insertion() {
        let mut m: IdMap<u32, char> = IdMap::new();
        for (k, v) in [(9, 'i'), (2, 'c'), (7, 'g'), (0, 'a')] {
            m.insert(k, v);
        }
        let got: Vec<(u32, char)> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(got, vec![(0, 'a'), (2, 'c'), (7, 'g'), (9, 'i')]);
    }

    #[test]
    fn get_or_insert_with_matches_entry_semantics() {
        let mut m: IdMap<u32, Vec<u32>> = IdMap::new();
        m.get_or_insert_with(4, Vec::new).push(1);
        m.get_or_insert_with(4, || panic!("occupied: must not run"))
            .push(2);
        assert_eq!(m.get(4), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn equality_ignores_trailing_capacity() {
        let mut a: IdMap<u32, u32> = IdMap::new();
        let mut b: IdMap<u32, u32> = IdMap::new();
        a.insert(1, 10);
        b.insert(99, 0);
        b.insert(1, 10);
        b.remove(&99);
        assert_eq!(a, b);
    }

    #[test]
    fn index_by_value_and_reference() {
        let mut m: IdMap<u32, &str> = IdMap::new();
        m.insert(2, "two");
        assert_eq!(m[2], "two");
        assert_eq!(m[&2], "two");
    }

    #[test]
    #[should_panic(expected = "no entry for key")]
    fn index_missing_panics() {
        let m: IdMap<u32, u32> = IdMap::new();
        let _ = m[3];
    }

    #[test]
    fn differential_against_hashmap_under_random_workload() {
        use pacer_prng::Rng;
        use std::collections::HashMap;

        for seed in 0..8 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut slab: IdMap<u32, u64> = IdMap::new();
            let mut reference: HashMap<u32, u64> = HashMap::new();
            for step in 0..5_000u64 {
                let k = rng.gen_range(0u32..64);
                match rng.gen_range(0u32..4) {
                    0 | 1 => {
                        assert_eq!(slab.insert(k, step), reference.insert(k, step));
                    }
                    2 => {
                        assert_eq!(slab.remove(&k), reference.remove(&k));
                    }
                    _ => {
                        assert_eq!(slab.get(k), reference.get(&k));
                        assert_eq!(slab.contains_key(&k), reference.contains_key(&k));
                    }
                }
                assert_eq!(slab.len(), reference.len());
            }
            let mut expect: Vec<(u32, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
            expect.sort_unstable();
            let got: Vec<(u32, u64)> = slab.iter().map(|(k, v)| (k, *v)).collect();
            assert_eq!(got, expect, "seed {seed}: final contents diverge");
        }
    }
}
