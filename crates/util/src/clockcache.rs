//! A sharded concurrent CLOCK cache with lock-free hit accounting.
//!
//! This is PR 2's replacement for the client metadata cache's single
//! mutex-guarded LRU: that mutex serialized every tree-node probe
//! of every reader thread, which is exactly the contention the paper's
//! design forbids. The CLOCK policy is chosen *because* it needs no
//! recency-list surgery on a hit — a hit is a shard **read** lock plus
//! one relaxed atomic store of the slot's reference bit, so concurrent
//! readers never serialize each other. Eviction (second-chance sweep)
//! and insertion take the shard's write lock, whose critical section is
//! bounded and allocation-free; with the default shard count, two
//! operations collide only on a shard-index collision.
//!
//! Every acquisition is charged to [`lockmeter`]:
//! hits/probes as [`Shared`](crate::lockmeter::LockClass::Shared),
//! insert/evict/remove as
//! [`Sharded`](crate::lockmeter::LockClass::Sharded); no operation
//! takes a cache-wide lock, so none is ever charged as
//! [`Serializing`](crate::lockmeter::LockClass::Serializing).
//!
//! Values are cloned out on hit — use `Arc<T>` values (the metadata
//! cache stores `Arc<NodeBody>`) so a hit moves a refcount, not bytes.

use crate::fxhash::{mix64, FxBuildHasher, FxHashMap};
use crate::lockmeter;
use parking_lot::RwLock;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct Slot<K, V> {
    key: K,
    value: V,
    /// CLOCK reference bit: set on hit (under the shard *read* lock),
    /// cleared by the eviction sweep (under the write lock).
    referenced: AtomicBool,
}

struct ShardInner<K, V> {
    /// Key → slot index.
    map: FxHashMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    /// The clock hand: next eviction candidate.
    hand: u32,
}

struct Shard<K, V> {
    inner: RwLock<ShardInner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A fixed-capacity concurrent cache, sharded by key hash, with CLOCK
/// (second chance) eviction per shard. See the module docs.
pub struct ClockCache<K, V> {
    shards: Vec<Shard<K, V>>,
    mask: usize,
    per_shard: usize,
    hasher: FxBuildHasher,
}

impl<K: Eq + Hash + Clone, V: Clone> ClockCache<K, V> {
    /// Create a cache holding at least `capacity` entries across a
    /// default shard count (64, or fewer for tiny capacities). The
    /// effective capacity is `capacity` rounded up to a multiple of the
    /// shard count.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        let shards = 64.min(capacity.next_power_of_two());
        Self::with_shards(capacity, shards)
    }

    /// Create with an explicit shard count (rounded up to a power of
    /// two). Per-shard capacity is `ceil(capacity / shards)`, at least 1.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "ClockCache capacity must be positive");
        let n = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(n).max(1);
        assert!(
            (per_shard as u64) < u32::MAX as u64,
            "per-shard capacity too large for u32 indices"
        );
        Self {
            shards: (0..n)
                .map(|_| Shard {
                    inner: RwLock::new(ShardInner {
                        map: FxHashMap::default(),
                        slots: Vec::new(),
                        hand: 0,
                    }),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                })
                .collect(),
            mask: n - 1,
            per_shard,
            hasher: FxBuildHasher::default(),
        }
    }

    fn shard_for(&self, key: &K) -> &Shard<K, V> {
        let h = self.hasher.hash_one(key);
        &self.shards[(mix64(h) as usize) & self.mask]
    }

    /// Look up `key`, cloning the value out and setting the slot's
    /// reference bit. Concurrent hits on one shard proceed in parallel
    /// (shared lock + relaxed atomic store).
    pub fn get(&self, key: &K) -> Option<V> {
        lockmeter::record_shared();
        let shard = self.shard_for(key);
        let inner = shard.inner.read();
        match inner.map.get(key) {
            Some(&idx) => {
                let slot = &inner.slots[idx as usize];
                slot.referenced.store(true, Ordering::Relaxed);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.value.clone())
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// True if `key` is cached. Does not touch the reference bit or the
    /// hit/miss counters.
    pub fn contains(&self, key: &K) -> bool {
        lockmeter::record_shared();
        self.shard_for(key).inner.read().map.contains_key(key)
    }

    /// Insert (or replace) `key -> value`. A new entry starts with its
    /// reference bit clear, so one full sweep without a hit evicts it
    /// (second chance); a replaced entry is marked referenced. When the
    /// shard is full the CLOCK sweep picks the first unreferenced slot,
    /// clearing reference bits as it passes.
    pub fn insert(&self, key: K, value: V) {
        lockmeter::record_sharded();
        let shard = self.shard_for(&key);
        let mut inner = shard.inner.write();
        Self::insert_inner(&mut inner, self.per_shard, key, value);
    }

    /// The insert/evict logic, run under a shard's write lock.
    fn insert_inner(inner: &mut ShardInner<K, V>, per_shard: usize, key: K, value: V) {
        if let Some(&idx) = inner.map.get(&key) {
            let slot = &mut inner.slots[idx as usize];
            slot.value = value;
            slot.referenced.store(true, Ordering::Relaxed);
            return;
        }
        if inner.slots.len() < per_shard {
            let idx = inner.slots.len() as u32;
            inner.slots.push(Slot {
                key: key.clone(),
                value,
                referenced: AtomicBool::new(false),
            });
            inner.map.insert(key, idx);
            return;
        }
        // Shard full: second-chance sweep. Terminates within two laps —
        // the first lap clears every reference bit it passes.
        let victim = loop {
            let i = inner.hand as usize;
            inner.hand = ((i + 1) % inner.slots.len()) as u32;
            if !inner.slots[i].referenced.swap(false, Ordering::Relaxed) {
                break i;
            }
        };
        let old_key = inner.slots[victim].key.clone();
        inner.map.remove(&old_key);
        inner.slots[victim] = Slot {
            key: key.clone(),
            value,
            referenced: AtomicBool::new(false),
        };
        inner.map.insert(key, victim as u32);
    }

    /// Best-effort [`ClockCache::insert`]: gives up (returning `false`)
    /// instead of blocking when the shard is write-locked by someone
    /// else. A cache population is an optimization, never a correctness
    /// requirement, so hot paths (a writer caching the tree it just
    /// built) use this to stay non-blocking under oversubscription.
    pub fn try_insert(&self, key: K, value: V) -> bool {
        let shard = self.shard_for(&key);
        let Some(mut inner) = shard.inner.try_write() else {
            return false;
        };
        lockmeter::record_sharded();
        Self::insert_inner(&mut inner, self.per_shard, key, value);
        true
    }

    /// Remove `key`, returning its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        lockmeter::record_sharded();
        let shard = self.shard_for(key);
        let mut inner = shard.inner.write();
        let idx = inner.map.remove(key)? as usize;
        let removed = inner.slots.swap_remove(idx);
        // The former last slot (if any) moved into `idx`: re-point its
        // map entry and keep the hand in range.
        if idx < inner.slots.len() {
            let moved_key = inner.slots[idx].key.clone();
            inner.map.insert(moved_key, idx as u32);
        }
        if !inner.slots.is_empty() {
            inner.hand %= inner.slots.len() as u32;
        } else {
            inner.hand = 0;
        }
        Some(removed.value)
    }

    /// Drop every entry, keeping statistics.
    pub fn clear(&self) {
        for shard in &self.shards {
            lockmeter::record_sharded();
            let mut inner = shard.inner.write();
            inner.map.clear();
            inner.slots.clear();
            inner.hand = 0;
        }
    }

    /// Number of live entries (sums shard sizes; diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.read().slots.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.inner.read().slots.is_empty())
    }

    /// Total slot capacity (requested capacity rounded up to a multiple
    /// of the shard count).
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// `(hits, misses)` since creation, summed across shards.
    pub fn stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for s in &self.shards {
            hits += s.hits.load(Ordering::Relaxed);
            misses += s.misses.load(Ordering::Relaxed);
        }
        (hits, misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let c: ClockCache<u64, u64> = ClockCache::with_shards(8, 1);
        assert!(c.is_empty());
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn reinsert_replaces_value() {
        let c: ClockCache<u64, &str> = ClockCache::with_shards(4, 1);
        c.insert(1, "a");
        c.insert(1, "a2");
        assert_eq!(c.get(&1), Some("a2"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clock_second_chance_protects_hit_entries() {
        // Single shard, capacity 3, deterministic hand.
        let c: ClockCache<u64, u64> = ClockCache::with_shards(3, 1);
        c.insert(1, 1);
        c.insert(2, 2);
        c.insert(3, 3);
        assert_eq!(c.get(&1), Some(1)); // reference bit set on 1
        c.insert(4, 4); // sweep: 1 gets a second chance, 2 is evicted
        assert_eq!(c.len(), 3);
        assert!(c.contains(&1), "referenced entry must survive the sweep");
        assert!(!c.contains(&2), "unreferenced entry at the hand is evicted");
        assert!(c.contains(&3) && c.contains(&4));
    }

    #[test]
    fn eviction_never_exceeds_capacity() {
        let c: ClockCache<u64, u64> = ClockCache::with_shards(16, 4);
        for i in 0..10_000 {
            c.insert(i, i);
            assert!(c.len() <= c.capacity());
        }
    }

    #[test]
    fn remove_keeps_map_and_hand_consistent() {
        let c: ClockCache<u64, u64> = ClockCache::with_shards(4, 1);
        for i in 0..4 {
            c.insert(i, i * 10);
        }
        // Force the hand forward, then remove entries to shrink the slab.
        c.insert(100, 1000);
        assert_eq!(c.len(), 4);
        let present: Vec<u64> = (0..101).filter(|k| c.contains(k)).collect();
        for k in &present {
            assert!(c.get(k).is_some());
        }
        for k in present {
            c.remove(&k);
        }
        assert!(c.is_empty());
        // Still usable after full drain.
        c.insert(7, 7);
        assert_eq!(c.get(&7), Some(7));
    }

    #[test]
    fn rounds_capacity_up_to_shards() {
        let c: ClockCache<u64, u64> = ClockCache::with_shards(5, 4);
        assert_eq!(c.shards.len(), 4);
        assert_eq!(c.capacity(), 8); // ceil(5/4) = 2 per shard
    }

    #[test]
    fn charges_the_lock_meter() {
        use crate::lockmeter;
        let c: ClockCache<u64, u64> = ClockCache::with_shards(8, 2);
        let snap = lockmeter::thread_snapshot();
        c.insert(1, 1);
        c.get(&1);
        c.get(&2);
        let d = snap.since();
        assert_eq!(d.sharded, 1, "one exclusive acquisition per insert");
        assert_eq!(d.shared, 2, "one shared acquisition per probe");
        assert_eq!(d.serializing, 0, "no cache-wide lock");
    }
}
