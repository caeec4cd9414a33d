//! The content-addressed trace arena.
//!
//! Every depth point of a sweep replays the *same* instruction stream —
//! the paper replays one trace tape against many processor models — yet a
//! naive harness regenerates that stream once per simulated cell. The
//! arena materialises each distinct `(model, seed, length)` stream exactly
//! once into an `Arc<[Instruction]>` and hands the same allocation to
//! every consumer, so trace generation is paid per *workload*, not per
//! *cell*, and the cycle-level engine (via `run_slice`) becomes the only
//! per-cell cost.
//!
//! The arena is thread-safe. Generation happens under the arena lock, so
//! two concurrent requests for the same stream can never duplicate work —
//! though the intended discipline (used by the experiment runner) is to
//! *pre-stage* all fills from one thread before fanning out, keeping
//! worker threads lock-light and the hit/miss counters deterministic for
//! any thread count.
//!
//! # Examples
//!
//! ```
//! use pipedepth_trace::{TraceArena, WorkloadModel};
//!
//! let arena = TraceArena::new();
//! let a = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 1_000);
//! let b = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 1_000);
//! assert!(std::sync::Arc::ptr_eq(&a, &b), "one materialisation, shared");
//! assert_eq!(arena.stats().misses, 1);
//! assert_eq!(arena.stats().hits, 1);
//! ```

use crate::generator::TraceGenerator;
use crate::isa::Instruction;
use crate::model::WorkloadModel;
use pipedepth_store::Fnv64;
use pipedepth_telemetry::{Counter, Telemetry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The content address of one materialised stream: the full set of inputs
/// that determine it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRequest {
    /// Statistical model the stream is drawn from.
    pub model: WorkloadModel,
    /// Seed of the deterministic stream.
    pub seed: u64,
    /// Stream length in instructions.
    pub len: u64,
}

impl TraceRequest {
    /// Structural content hash (collisions resolved by `PartialEq` in the
    /// arena's buckets).
    pub fn key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.model.fingerprint())
            .write_u64(self.seed)
            .write_u64(self.len);
        h.finish()
    }
}

/// Counters describing an arena's service history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Requests served from an already-resident stream.
    pub hits: u64,
    /// Requests that materialised a new stream.
    pub misses: u64,
    /// Total instructions generated into the arena since creation.
    pub instructions_materialized: u64,
}

impl ArenaStats {
    /// Total requests served.
    pub fn requested(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served without generation (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requested() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requested() as f64
        }
    }
}

/// One key's entries; the request is kept alongside the stream to resolve
/// hash collisions by exact comparison.
type Bucket = Vec<(TraceRequest, Arc<[Instruction]>)>;

/// Shared, content-addressed store of materialised instruction streams.
#[derive(Debug, Default)]
pub struct TraceArena {
    buckets: Mutex<BTreeMap<u64, Bucket>>,
    hits: AtomicU64,
    misses: AtomicU64,
    instructions: AtomicU64,
    /// Telemetry counters (disconnected by default; see
    /// [`TraceArena::attach_telemetry`]).
    hit_counter: Counter,
    miss_counter: Counter,
    generated_counter: Counter,
    /// Handle passed to the generators the arena creates, so generation
    /// also reports the ordinary `trace.*` counters.
    telemetry: Telemetry,
}

impl TraceArena {
    /// An empty arena.
    pub fn new() -> Self {
        TraceArena::default()
    }

    /// Connects the arena's counters to a telemetry registry:
    /// `trace.arena.hits`, `trace.arena.misses` and
    /// `trace.arena.instructions_materialized` mirror [`ArenaStats`].
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.hit_counter = telemetry.counter("trace.arena.hits");
        self.miss_counter = telemetry.counter("trace.arena.misses");
        self.generated_counter = telemetry.counter("trace.arena.instructions_materialized");
        self.telemetry = telemetry.clone();
    }

    /// The stream for `(model, seed, len)`, materialising it on first
    /// request and sharing the same `Arc` on every subsequent one.
    pub fn get_or_generate(&self, model: WorkloadModel, seed: u64, len: u64) -> Arc<[Instruction]> {
        let request = TraceRequest { model, seed, len };
        let key = request.key();
        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = buckets.entry(key).or_default();
        if let Some((_, stream)) = bucket.iter().find(|(r, _)| r == &request) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_counter.inc();
            return Arc::clone(stream);
        }
        // Generation happens under the lock: concurrent requests for the
        // same stream must never duplicate the work.
        let mut generator = TraceGenerator::with_telemetry(model, seed, &self.telemetry);
        let stream: Arc<[Instruction]> = generator.take_vec(len as usize).into();
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.instructions.fetch_add(len, Ordering::Relaxed);
        self.miss_counter.inc();
        self.generated_counter.add(len);
        bucket.push((request, Arc::clone(&stream)));
        stream
    }

    /// Looks up a stream without materialising (and without counting a
    /// miss); counts a hit when resident.
    pub fn get(&self, model: WorkloadModel, seed: u64, len: u64) -> Option<Arc<[Instruction]>> {
        let request = TraceRequest { model, seed, len };
        let buckets = self
            .buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let found = buckets
            .get(&request.key())?
            .iter()
            .find(|(r, _)| r == &request)
            .map(|(_, s)| Arc::clone(s));
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_counter.inc();
        }
        found
    }

    /// Whether a stream is already resident (does not touch the counters).
    pub fn contains(&self, model: WorkloadModel, seed: u64, len: u64) -> bool {
        let request = TraceRequest { model, seed, len };
        self.buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&request.key())
            .is_some_and(|b| b.iter().any(|(r, _)| r == &request))
    }

    /// Number of distinct streams resident.
    pub fn len(&self) -> usize {
        self.buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .map(Vec::len)
            .sum()
    }

    /// True when nothing has been materialised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total instructions resident across all streams.
    pub fn instructions_resident(&self) -> u64 {
        self.buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .flatten()
            .map(|(r, _)| r.len)
            .sum()
    }

    /// Current service counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            instructions_materialized: self.instructions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_key_is_pinned() {
        // The value every earlier build computed: persisted annotations
        // are keyed by it.
        let request = TraceRequest {
            model: WorkloadModel::spec_int_like(),
            seed: 7,
            len: 3_000,
        };
        assert_eq!(request.key(), 0x3291_9f05_cb42_f195);
    }

    #[test]
    fn materialises_once_and_shares() {
        let arena = TraceArena::new();
        let a = arena.get_or_generate(WorkloadModel::modern_like(), 3, 500);
        let b = arena.get_or_generate(WorkloadModel::modern_like(), 3, 500);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(arena.len(), 1);
        let stats = arena.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.instructions_materialized, 500);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stream_matches_the_generator() {
        let arena = TraceArena::new();
        let stream = arena.get_or_generate(WorkloadModel::spec_fp_like(), 9, 800);
        let direct = TraceGenerator::new(WorkloadModel::spec_fp_like(), 9).take_vec(800);
        assert_eq!(&stream[..], &direct[..]);
    }

    #[test]
    fn distinct_inputs_get_distinct_streams() {
        let arena = TraceArena::new();
        let base = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 400);
        let reseeded = arena.get_or_generate(WorkloadModel::spec_int_like(), 2, 400);
        let longer = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 401);
        let remodelled = arena.get_or_generate(WorkloadModel::legacy_like(), 1, 400);
        assert!(!Arc::ptr_eq(&base, &reseeded));
        assert!(!Arc::ptr_eq(&base, &longer));
        assert!(!Arc::ptr_eq(&base, &remodelled));
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.stats().misses, 4);
        assert_eq!(arena.stats().hits, 0);
        assert_eq!(arena.instructions_resident(), 400 + 400 + 401 + 400);
    }

    #[test]
    fn get_never_materialises() {
        let arena = TraceArena::new();
        assert!(arena.get(WorkloadModel::spec_int_like(), 1, 100).is_none());
        assert!(arena.is_empty());
        assert_eq!(arena.stats().requested(), 0, "a miss via get is uncounted");
        arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 100);
        assert!(arena.get(WorkloadModel::spec_int_like(), 1, 100).is_some());
        assert!(arena.contains(WorkloadModel::spec_int_like(), 1, 100));
        assert_eq!(arena.stats().hits, 1);
    }

    #[test]
    fn concurrent_requests_share_one_materialisation() {
        let arena = Arc::new(TraceArena::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let arena = Arc::clone(&arena);
                scope.spawn(move || arena.get_or_generate(WorkloadModel::modern_like(), 7, 2_000));
            }
        });
        assert_eq!(arena.stats().misses, 1, "one thread generates");
        assert_eq!(arena.stats().hits, 3, "the rest share");
        assert_eq!(arena.instructions_resident(), 2_000);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_mirrors_stats() {
        let telemetry = Telemetry::new();
        let mut arena = TraceArena::new();
        arena.attach_telemetry(&telemetry);
        arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 300);
        arena.get_or_generate(WorkloadModel::spec_int_like(), 1, 300);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("trace.arena.hits"), 1);
        assert_eq!(snap.counter("trace.arena.misses"), 1);
        assert_eq!(snap.counter("trace.arena.instructions_materialized"), 300);
        // Generation inside the arena reports the ordinary trace counters.
        assert_eq!(snap.counter("trace.instructions_generated"), 300);
        assert_eq!(snap.counter("trace.generators_created"), 1);
    }
}
