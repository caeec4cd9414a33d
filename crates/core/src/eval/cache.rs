//! The workspace's one result cache.
//!
//! The experiment runner (finished `SimReport`s) and the serving front end
//! (`EvalOutcome`s) share [`ShardedCache`]: content-keyed lookup with
//! exact-spec collision resolution, saturating service counters, and
//! sixteen independently locked shards selected by key — poison-tolerant,
//! values handed out as [`Arc`](std::sync::Arc)s so concurrent readers
//! never copy.
//!
//! A cache may sit in front of a **warm tier**: the decoded image of an
//! on-disk snapshot (see the `pipedepth-store` crate), attached at
//! construction with [`ShardedCache::backed_by`] and read-mostly
//! thereafter. Lookups probe memory first; on a memory miss the warm tier
//! is consulted and, on a hit, the entry is *promoted* into memory so
//! every later request is a plain memory hit. The warm tier stores full
//! specs and resolves collisions by `PartialEq` exactly like memory, so a
//! promoted answer is always the answer the backend would have produced —
//! a corrupt or mismatched snapshot never reaches this layer (the store
//! loader already degraded it to a cold start).
//!
//! Accounting stays two-level on purpose. The memory counters
//! ([`ShardedCache::stats`]) are the caller's: batch consumers like the
//! experiment runner classify a whole batch first (counting in-batch
//! coalescing as hits) and only then dispatch, which a get-side counter
//! could not express. The warm tier counts its own probe outcomes
//! ([`ShardedCache::warm_stats`]) — the "served from disk" number the run
//! manifest reports. Without a warm tier every lookup is a memory lookup
//! and nothing else.
//!
//! Keys are produced by the spec type's own content hash (the runner's
//! `CellSpec::key()`, the eval layer's [`CellSpec::key`](super::CellSpec::key));
//! a key only needs to spread well, because every bucket resolves
//! collisions by full `PartialEq` comparison.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Hit/miss/insert counters of an evaluation cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requested entries served without recomputation.
    pub hits: u64,
    /// Entries that had to be computed.
    pub misses: u64,
    /// Distinct entries stored since creation.
    pub inserts: u64,
}

impl CacheStats {
    /// Total entries requested.
    pub fn requested(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requested() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requested() as f64
        }
    }
}

/// One key's entries; the spec is kept alongside the value to resolve
/// hash collisions by exact comparison.
type Bucket<S, V> = Vec<(S, Arc<V>)>;

/// One independently locked shard of a [`ShardedCache`].
type Shard<S, V> = Mutex<BTreeMap<u64, Bucket<S, V>>>;

/// Shard count: enough to keep a worker pool off one lock, small enough
/// that an empty cache stays cheap.
const SHARDS: u64 = 16;

/// The workspace's concurrent result cache: independently locked
/// [`BTreeMap`] shards selected by key, with an optional warm tier.
///
/// Locks are poison-tolerant: a panicking writer leaves at worst one
/// half-inserted bucket entry behind, never an unusable cache.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pipedepth_core::eval::ShardedCache;
///
/// let cache: ShardedCache<&'static str, u32> = ShardedCache::new();
/// assert!(cache.get(7, &"spec").is_none());
/// assert!(cache.insert(7, "spec", Arc::new(42)));
/// assert_eq!(*cache.get(7, &"spec").unwrap(), 42);
/// assert!(!cache.insert(7, "spec", Arc::new(42)), "duplicate spec");
///
/// // In front of a warm tier (a previous run's snapshot), a warm hit is
/// // promoted into memory.
/// let cache = ShardedCache::backed_by(cache);
/// assert_eq!(*cache.get(7, &"spec").unwrap(), 42);
/// assert_eq!(cache.warm_stats().unwrap().hits, 1);
/// assert_eq!(cache.len(), 1, "now resident in memory");
/// ```
pub struct ShardedCache<S, V> {
    shards: Vec<Shard<S, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    warm: Option<Box<ShardedCache<S, V>>>,
}

impl<S, V> ShardedCache<S, V> {
    /// An empty cache with no warm tier.
    pub fn new() -> Self {
        ShardedCache {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            warm: None,
        }
    }

    /// An empty memory tier in front of `warm`, the decoded image of a
    /// persistent snapshot.
    pub fn backed_by(warm: ShardedCache<S, V>) -> Self {
        ShardedCache {
            warm: Some(Box::new(warm)),
            ..ShardedCache::new()
        }
    }

    /// The shard a key maps to. Keys are content hashes whose low bits
    /// already spread well, so plain modulo suffices.
    fn shard(&self, key: u64) -> &Shard<S, V> {
        &self.shards[(key % SHARDS) as usize]
    }

    /// The memory tier's hit/miss/insert counters: the classification
    /// counters the caller records, plus inserts (promotions included).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }

    /// Probe counters of the warm tier (`None` without one): `hits` =
    /// memory misses served from the warm image, `misses` = probes
    /// nothing could serve.
    pub fn warm_stats(&self) -> Option<CacheStats> {
        self.warm.as_deref().map(ShardedCache::stats)
    }

    /// Records entries served without recomputation.
    pub fn count_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records entries that were computed.
    pub fn count_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of distinct entries resident in memory.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// True when memory holds no entry yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<S: PartialEq + Clone, V> ShardedCache<S, V> {
    /// Looks up an entry: memory first, then the warm tier, promoting a
    /// warm hit into memory. Does not touch the memory hit/miss counters
    /// (the caller's job); warm probe outcomes are counted here, since
    /// only this method knows them.
    pub fn get(&self, key: u64, spec: &S) -> Option<Arc<V>> {
        if let Some(value) = self.get_resident(key, spec) {
            return Some(value);
        }
        let warm = self.warm.as_deref()?;
        match warm.get_resident(key, spec) {
            Some(value) => {
                warm.count_hits(1);
                self.insert(key, spec.clone(), Arc::clone(&value));
                Some(value)
            }
            None => {
                warm.count_misses(1);
                None
            }
        }
    }

    /// The memory-resident entry for `spec`, if any.
    fn get_resident(&self, key: u64, spec: &S) -> Option<Arc<V>> {
        let shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard
            .get(&key)?
            .iter()
            .find(|(s, _)| s == spec)
            .map(|(_, v)| Arc::clone(v))
    }

    /// Stores a finished entry in memory. Returns whether the entry was
    /// actually inserted (false when an equal spec was already present).
    pub fn insert(&self, key: u64, spec: S, value: Arc<V>) -> bool {
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let bucket = shard.entry(key).or_default();
        if bucket.iter().any(|(s, _)| s == &spec) {
            return false;
        }
        bucket.push((spec, value));
        self.inserts.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// A point-in-time snapshot of every memory-resident entry (never the
    /// warm tier's), in deterministic (shard-index, key) order — the
    /// export path for persistence. Each shard is locked briefly in turn;
    /// the copy is fully detached before this returns, so callers never
    /// hold a shard guard while doing I/O with the result.
    pub fn entries(&self) -> Vec<(S, Arc<V>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for bucket in shard.values() {
                out.extend(
                    bucket
                        .iter()
                        .map(|(spec, value)| (spec.clone(), Arc::clone(value))),
                );
            }
        }
        out
    }
}

impl<S, V> Default for ShardedCache<S, V> {
    fn default() -> Self {
        ShardedCache::new()
    }
}

impl<S, V> std::fmt::Debug for ShardedCache<S, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("stats", &self.stats())
            .field("warm", &self.warm_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm_image(entries: &[(u64, u32, u32)]) -> ShardedCache<u32, u32> {
        let warm = ShardedCache::new();
        for &(key, spec, value) in entries {
            warm.insert(key, spec, Arc::new(value));
        }
        warm
    }

    #[test]
    fn round_trips_and_deduplicates() {
        let cache: ShardedCache<u32, String> = ShardedCache::new();
        assert!(cache.is_empty());
        assert!(cache.insert(1, 10, Arc::new("a".into())));
        assert!(!cache.insert(1, 10, Arc::new("a".into())));
        assert!(cache.insert(1, 11, Arc::new("b".into())), "collision kept");
        assert_eq!(cache.len(), 2);
        assert_eq!(*cache.get(1, &11).expect("stored"), "b");
        assert!(cache.get(2, &10).is_none(), "different key, same spec");
    }

    #[test]
    fn stats_track_hits_misses_inserts() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        cache.count_misses(3);
        cache.count_hits(1);
        cache.insert(0, 0, Arc::new(0));
        let stats = cache.stats();
        assert_eq!(stats.requested(), 4);
        assert_eq!(stats.inserts, 1);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        for key in 0..64u64 {
            cache.insert(key, key, Arc::new(key));
        }
        assert_eq!(cache.len(), 64, "entries must survive sharding");
        for key in 0..64u64 {
            assert_eq!(*cache.get(key, &key).expect("present"), key);
        }
    }

    #[test]
    fn concurrent_writers_agree() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for k in 0..100u64 {
                        cache.insert(k, k, Arc::new(k * k));
                        let _ = cache.get(k ^ t, &(k ^ t));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 100, "duplicates collapse across threads");
        assert_eq!(cache.stats().inserts, 100);
    }

    #[test]
    fn passes_through_without_a_warm_tier() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        assert!(cache.warm_stats().is_none());
        assert!(cache.get(1, &10).is_none());
        assert!(cache.insert(1, 10, Arc::new(100)));
        assert_eq!(*cache.get(1, &10).expect("stored"), 100);
        cache.count_hits(1);
        cache.count_misses(1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!(cache.warm_stats().is_none(), "no probe counted anywhere");
    }

    #[test]
    fn warm_hits_promote_into_memory_once() {
        let cache = ShardedCache::backed_by(warm_image(&[(7, 70, 700)]));
        assert!(cache.is_empty(), "warm entries are not memory entries");
        assert_eq!(*cache.get(7, &70).expect("warm hit"), 700);
        assert_eq!(cache.len(), 1, "promoted");
        // The second get is a pure memory hit: warm counters unchanged.
        assert_eq!(*cache.get(7, &70).expect("memory hit"), 700);
        let warm = cache.warm_stats().expect("attached");
        assert_eq!((warm.hits, warm.misses), (1, 0));
        assert_eq!(cache.stats().inserts, 1, "promotion inserted once");
        let memory = cache.stats();
        assert_eq!((memory.hits, memory.misses), (0, 0), "caller's counters");
    }

    #[test]
    fn warm_misses_are_counted_on_every_probe() {
        let cache = ShardedCache::backed_by(warm_image(&[(7, 70, 700)]));
        assert!(cache.get(8, &80).is_none());
        assert!(cache.get(7, &71).is_none(), "same key, different spec");
        assert!(cache.get(8, &80).is_none(), "a repeated miss counts again");
        let warm = cache.warm_stats().expect("attached");
        assert_eq!((warm.hits, warm.misses), (0, 3));
    }

    #[test]
    fn collisions_resolve_by_spec_in_both_tiers() {
        let cache = ShardedCache::backed_by(warm_image(&[(1, 10, 100), (1, 11, 110)]));
        cache.insert(1, 12, Arc::new(120));
        assert_eq!(*cache.get(1, &11).expect("warm collision kept"), 110);
        assert_eq!(*cache.get(1, &10).expect("warm collision kept"), 100);
        assert_eq!(*cache.get(1, &12).expect("memory collision kept"), 120);
        assert!(cache.get(1, &13).is_none());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn entries_snapshot_the_memory_tier_only() {
        let cache = ShardedCache::backed_by(warm_image(&[(1, 10, 100), (2, 20, 200)]));
        cache.insert(3, 30, Arc::new(300));
        let _ = cache.get(1, &10); // promote one of the two warm entries
        let mut entries: Vec<(u32, u32)> = cache
            .entries()
            .into_iter()
            .map(|(spec, value)| (spec, *value))
            .collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(10, 100), (30, 300)]);
    }
}
