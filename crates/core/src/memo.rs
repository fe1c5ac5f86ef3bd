//! Sharded, single-flight memoization for base-run results.
//!
//! The old base-run memo was one `Mutex<HashMap>` with a check-then-insert
//! window: two pool workers could both miss the same key and both simulate
//! the cell, and every lookup serialized the whole grid on one lock. This
//! module replaces it with a sharded map of [`OnceLock`] cells:
//!
//! * lookups take a per-shard read lock (different cells never contend);
//! * the *first* worker to claim a key's cell computes it while any other
//!   worker arriving at the same key blocks on that cell — the simulation
//!   runs exactly once per key (single-flight), which the
//!   `no_duplicate_simulation` test pins via the compute counter.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Number of independently locked shards. Sixteen is far beyond the pool's
/// worker count, so two workers only contend when they race on the *same*
/// key — exactly the case single-flight exists to serialize.
const SHARDS: usize = 16;

type Shard<K, V> = RwLock<HashMap<K, Arc<OnceLock<V>>>>;

/// A concurrent memo map with per-key single-flight computation.
pub struct ShardedMemo<K, V> {
    shards: Vec<Shard<K, V>>,
    lookups: AtomicU64,
    computes: AtomicU64,
    lookup_ns: AtomicU64,
    compute_ns: AtomicU64,
}

/// Counter snapshot for a [`ShardedMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Number of distinct keys resident in the map.
    pub entries: usize,
    /// Total `get_or_compute` calls.
    pub lookups: u64,
    /// Times the compute closure actually ran. With single-flight this
    /// equals `entries` no matter how many workers raced.
    pub computes: u64,
    /// Wall-clock nanoseconds spent inside `get_or_compute` in total
    /// (shard locking, key hashing, the compute closure, result clones).
    pub lookup_ns: u64,
    /// Wall-clock nanoseconds spent inside the compute closures alone.
    pub compute_ns: u64,
}

impl MemoStats {
    /// Wall-clock nanoseconds of pure memo bookkeeping: lookup time that
    /// was *not* spent computing values. This is the sweep executor's
    /// memoization overhead, which `micro`/`apps --self-profile` print.
    pub fn overhead_ns(&self) -> u64 {
        self.lookup_ns.saturating_sub(self.compute_ns)
    }
}

impl<K: Hash + Eq, V: Clone> ShardedMemo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        ShardedMemo {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            lookups: AtomicU64::new(0),
            computes: AtomicU64::new(0),
            lookup_ns: AtomicU64::new(0),
            compute_ns: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % SHARDS]
    }

    /// Returns the cached value for `key`, computing it with `compute` on
    /// first use. Concurrent callers with the same key block until the one
    /// in-flight computation finishes and then share its result; callers
    /// with different keys proceed independently.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let entered = Instant::now();
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard(&key);
        let cell = {
            let read = shard.read().unwrap_or_else(|p| p.into_inner());
            read.get(&key).cloned()
        };
        let cell = cell.unwrap_or_else(|| {
            let mut write = shard.write().unwrap_or_else(|p| p.into_inner());
            write
                .entry(key)
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        });
        let value = cell
            .get_or_init(|| {
                self.computes.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let v = compute();
                self.compute_ns
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                v
            })
            .clone();
        self.lookup_ns
            .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
        value
    }

    /// Number of distinct keys resident (initialized or in flight).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// Whether the memo holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup/compute counters (counts are deterministic; the wall-clock
    /// nanosecond totals vary run to run and exist for `--self-profile`).
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            entries: self.len(),
            lookups: self.lookups.load(Ordering::Relaxed),
            computes: self.computes.load(Ordering::Relaxed),
            lookup_ns: self.lookup_ns.load(Ordering::Relaxed),
            compute_ns: self.compute_ns.load(Ordering::Relaxed),
        }
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMemo<K, V> {
    fn default() -> Self {
        ShardedMemo::new()
    }
}

impl<K, V> std::fmt::Debug for ShardedMemo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMemo")
            .field("lookups", &self.lookups.load(Ordering::Relaxed))
            .field("computes", &self.computes.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn computes_once_per_key() {
        let memo: ShardedMemo<u32, u32> = ShardedMemo::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..10 {
            let v = memo.get_or_compute(7, || {
                calls.fetch_add(1, Ordering::Relaxed);
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let stats = memo.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.lookups, 10);
        assert_eq!(stats.computes, 1);
    }

    #[test]
    fn distinct_keys_compute_independently() {
        let memo: ShardedMemo<String, usize> = ShardedMemo::new();
        for i in 0..100 {
            let v = memo.get_or_compute(format!("k{i}"), || i);
            assert_eq!(v, i);
        }
        assert_eq!(memo.len(), 100);
        assert_eq!(memo.stats().computes, 100);
    }

    #[test]
    fn single_flight_under_threads() {
        let memo: Arc<ShardedMemo<u8, u64>> = Arc::new(ShardedMemo::new());
        let calls = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let memo = Arc::clone(&memo);
                let calls = Arc::clone(&calls);
                s.spawn(move || {
                    for _ in 0..50 {
                        let v = memo.get_or_compute(3, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window: any double-compute
                            // would be caught by the counter below.
                            std::thread::yield_now();
                            99
                        });
                        assert_eq!(v, 99);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1, "simulation ran twice");
        assert_eq!(memo.stats().computes, 1);
    }

    #[test]
    fn wall_clock_counters_cover_compute_time() {
        let memo: ShardedMemo<u8, u8> = ShardedMemo::new();
        memo.get_or_compute(1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            9
        });
        memo.get_or_compute(1, || 9);
        let stats = memo.stats();
        assert!(stats.compute_ns >= 2_000_000, "sleep not captured");
        assert!(stats.lookup_ns >= stats.compute_ns, "lookup covers compute");
        assert_eq!(stats.overhead_ns(), stats.lookup_ns - stats.compute_ns);
    }

    #[test]
    fn empty_and_len() {
        let memo: ShardedMemo<u8, u8> = ShardedMemo::default();
        assert!(memo.is_empty());
        memo.get_or_compute(1, || 1);
        assert!(!memo.is_empty());
        assert_eq!(memo.len(), 1);
    }
}
