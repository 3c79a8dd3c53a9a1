//! A sharded concurrent hash map.
//!
//! Used for in-memory stores whose critical sections are a handful of
//! instructions (page tables, DHT buckets, blob registries). Sharding by
//! key hash keeps contention negligible; the lock discipline of the whole
//! workspace is that **no shard lock is ever held across a network
//! operation**, so contention never outlasts a few instructions.

use crate::fxhash::{mix64, FxBuildHasher, FxHashMap};
use parking_lot::RwLock;
use std::hash::{BuildHasher, Hash};

/// A concurrent hash map split into `2^shift` independently locked shards.
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<FxHashMap<K, V>>>,
    mask: usize,
    hasher: FxBuildHasher,
}

impl<K: Eq + Hash, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::with_shards(64)
    }
}

impl<K: Eq + Hash, V> ShardedMap<K, V> {
    /// Create with `shards` shards (rounded up to a power of two).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| RwLock::new(FxHashMap::default())).collect(),
            mask: n - 1,
            hasher: FxBuildHasher::default(),
        }
    }

    fn shard_for(&self, key: &K) -> &RwLock<FxHashMap<K, V>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(mix64(h) as usize) & self.mask]
    }

    /// Insert, returning the previous value if present.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_for(&key).write().insert(key, value)
    }

    /// Remove, returning the value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard_for(key).write().remove(key)
    }

    /// True if the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_for(key).read().contains_key(key)
    }

    /// Total number of entries (sums shard sizes; O(#shards)).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Remove every entry.
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().clear();
        }
    }

    /// Run `f` on the value for `key`, if present.
    pub fn with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shard_for(key).read().get(key).map(f)
    }

    /// Get-or-insert with a constructor, then run `f` on the value.
    pub fn with_or_insert<R>(
        &self,
        key: K,
        make: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        let shard = self.shard_for(&key);
        let mut guard = shard.write();
        let v = guard.entry(key).or_insert_with(make);
        f(v)
    }

    /// Snapshot every key (allocates; intended for GC/administration, not
    /// the data path).
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.read().keys().cloned());
        }
        out
    }

    /// Fold over all entries. Shards are visited one at a time so the map
    /// stays available to other threads in between.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &K, &V) -> A) -> A {
        let mut acc = init;
        for s in &self.shards {
            let g = s.read();
            for (k, v) in g.iter() {
                acc = f(acc, k, v);
            }
        }
        acc
    }
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    /// Clone the value for `key` out of the map.
    pub fn get_cloned(&self, key: &K) -> Option<V> {
        self.shard_for(key).read().get(key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn insert_get_remove() {
        let m: ShardedMap<u64, String> = ShardedMap::default();
        assert_eq!(m.insert(1, "one".into()), None);
        assert_eq!(m.insert(1, "uno".into()), Some("one".into()));
        assert_eq!(m.get_cloned(&1), Some("uno".into()));
        assert!(m.contains_key(&1));
        assert_eq!(m.remove(&1), Some("uno".into()));
        assert!(m.is_empty());
    }

    #[test]
    fn with_or_insert_initializes_once() {
        let m: ShardedMap<u32, Vec<u32>> = ShardedMap::with_shards(4);
        m.with_or_insert(7, Vec::new, |v| v.push(1));
        m.with_or_insert(7, Vec::new, |v| v.push(2));
        assert_eq!(m.get_cloned(&7), Some(vec![1, 2]));
    }

    #[test]
    fn fold_sums_everything() {
        let m: ShardedMap<u32, u64> = ShardedMap::with_shards(8);
        for i in 0..100u32 {
            m.insert(i, i as u64);
        }
        let sum = m.fold(0u64, |a, _, v| a + v);
        assert_eq!(sum, 4950);
    }

    #[test]
    fn concurrent_inserts_land() {
        let m: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::with_shards(16));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        m.insert(t * 1000 + i, i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.len(), 8000);
    }

    #[test]
    fn concurrent_mixed_ops_do_not_lose_disjoint_keys() {
        let m: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::with_shards(4));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for i in 0..500u64 {
                        let k = t * 10_000 + i;
                        m.insert(k, k);
                        assert_eq!(m.get_cloned(&k), Some(k));
                        if i % 2 == 0 {
                            m.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        assert_eq!(m.len(), 4 * 250);
    }
}
