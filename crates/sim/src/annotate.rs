//! The annotate pass: depth-invariant event classification, run once per
//! workload trace.
//!
//! The sweep at the heart of the paper evaluates the *same* instruction
//! stream at every pipeline depth. Within that stream, three families of
//! events do not depend on depth at all — they are functions of the trace
//! and of the cache/predictor configuration only:
//!
//! * **instruction fetch**: the once-per-line fetch filter and the
//!   L1i/L2/memory class of each counted fetch (cache *state* evolves in
//!   trace order, independent of stage timing);
//! * **data access**: the L1d/L2/memory class of every memory operand
//!   (same argument — accesses happen in trace order on the in-order
//!   machine, and the prefetcher reacts only to access results);
//! * **branch outcome**: the gshare predictor trains on the architectural
//!   taken/not-taken stream, which timing cannot alter.
//!
//! [`annotate()`] replays exactly the engine's cache and predictor model over
//! a trace once and records those outcomes — together with the decoded
//! per-instruction fields the timing kernel needs (class, flat register
//! slots, serialize/memory flags) — into a struct-of-arrays
//! [`AnnotatedTrace`]. The per-depth *timing* replay
//! ([`crate::replay::replay_sweep`]) then runs over the annotation with no
//! cache arrays, no predictor table and no instruction decoding in its
//! inner loop. Everything that is **not** provably depth-invariant (port
//! contention, miss *penalties in cycles*, queue floors, hazard
//! attribution) deliberately stays in the per-depth kernel.
//!
//! [`AnnotationStore`] is the content-addressed companion of
//! [`pipedepth_trace::TraceArena`]: one annotation per distinct
//! `(stream, cache config, predictor config)`, shared by `Arc`, with
//! `trace.annotate.*` telemetry counters, and an optional one-shot
//! [`WarmSource`] of persisted annotations loaded on the first miss.

use crate::cache::Hierarchy;
use crate::config::{CacheConfig, ConfigError, PredictorConfig};
use crate::predictor::Gshare;
use crate::stage::reg_slot;
use pipedepth_store::Fnv64;
use pipedepth_telemetry::{Counter, Telemetry};
use pipedepth_trace::isa::{Instruction, OpClass};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel register slot: "no destination / source absent".
pub(crate) const NO_REG: u8 = u8::MAX;
/// Flag bit: the instruction is a serialising operation.
pub(crate) const FLAG_SERIAL: u8 = 1;
/// Flag bit: the instruction carries a memory operand (`mem.is_some()`).
pub(crate) const FLAG_MEM: u8 = 2;

/// The depth-invariant annotation of one instruction stream, in
/// struct-of-arrays layout: one compact column per field, indexed by
/// instruction position, so the replay kernel streams each column linearly.
///
/// Encodings (one byte each):
/// * `classes[i]` — the [`OpClass`] discriminant;
/// * `flags[i]` — serialise/memory flag bits;
/// * `dst[i]`, `src[i]` — flat register slots (GPRs then FPRs), `0xFF`
///   when absent;
/// * `fetch[i]` — `0` = no counted instruction-cache access (same code
///   line as the previous instruction, or no L1i configured), else the
///   access level + 1 (`1` = L1i hit, `2` = L2, `3` = memory);
/// * `data[i]` — `0` = no memory operand, else the access level + 1
///   (`1` = L1d hit, `2` = L2, `3` = memory);
/// * `branch[i]` — `0` = not a branch, `1` = predicted correctly,
///   `2` = mispredicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotatedTrace {
    pub(crate) classes: Vec<u8>,
    pub(crate) flags: Vec<u8>,
    pub(crate) dst: Vec<u8>,
    pub(crate) src: Vec<[u8; 2]>,
    pub(crate) fetch: Vec<u8>,
    pub(crate) data: Vec<u8>,
    pub(crate) branch: Vec<u8>,
}

impl AnnotatedTrace {
    /// Number of annotated instructions.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True for the annotation of an empty stream.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Approximate resident size in bytes (for capacity accounting).
    pub fn bytes(&self) -> usize {
        // Seven one-byte columns, of which `src` holds two bytes.
        self.len() * 8
    }
}

/// Runs the engine's cache and predictor model over `trace` once and
/// returns the depth-invariant annotation.
///
/// The pass mirrors the stage engine's event order exactly: per
/// instruction, the fetch filter first, then the data access, then the
/// branch observation — so the cache and predictor state evolve exactly as
/// they do inside [`crate::Engine`] at any depth.
///
/// # Errors
///
/// Returns the first [`ConfigError`] found validating the cache or
/// predictor configuration.
pub fn annotate(
    trace: &[Instruction],
    cache: CacheConfig,
    predictor: PredictorConfig,
) -> Result<AnnotatedTrace, ConfigError> {
    let mut caches = Hierarchy::try_new(cache)?;
    let mut bp = Gshare::try_new(predictor)?;
    let has_l1i = cache.l1i_bytes > 0;
    let line_bytes = cache.line_bytes;
    let mut last_fetch_line = u64::MAX;

    let n = trace.len();
    let mut out = AnnotatedTrace {
        classes: Vec::with_capacity(n),
        flags: Vec::with_capacity(n),
        dst: Vec::with_capacity(n),
        src: Vec::with_capacity(n),
        fetch: Vec::with_capacity(n),
        data: Vec::with_capacity(n),
        branch: Vec::with_capacity(n),
    };
    let slot = |reg: Option<pipedepth_trace::isa::Reg>| reg.map_or(NO_REG, |r| reg_slot(r) as u8);

    for instr in trace {
        out.classes.push(instr.class as u8);
        let mut flags = 0u8;
        if instr.serial {
            flags |= FLAG_SERIAL;
        }
        if instr.mem.is_some() {
            flags |= FLAG_MEM;
        }
        out.flags.push(flags);
        out.dst.push(slot(instr.dst));
        out.src.push([slot(instr.src[0]), slot(instr.src[1])]);

        // Fetch: one counted access per new code line, exactly the front
        // end's filter. With no L1i the engine's fetch is a free hit with
        // no counters touched, so it annotates as "no counted fetch".
        let line = instr.pc / line_bytes;
        let fetch = if line != last_fetch_line {
            last_fetch_line = line;
            if has_l1i {
                caches.fetch(instr.pc) as u8 + 1
            } else {
                0
            }
        } else {
            0
        };
        out.fetch.push(fetch);

        // Data access: every memory operand touches the hierarchy (stores
        // included — they update cache state through the write buffer).
        let data = match instr.mem {
            Some(mem) => caches.access(mem.addr) as u8 + 1,
            None => 0,
        };
        out.data.push(data);

        // Branch outcome: the predictor trains on the architectural
        // outcome stream.
        let branch = if instr.class == OpClass::Branch {
            if bp.observe(instr.pc, instr.is_taken_branch()) {
                1
            } else {
                2
            }
        } else {
            0
        };
        out.branch.push(branch);
    }
    Ok(out)
}

/// Content fingerprint of the annotation-relevant configuration: every
/// cache and predictor field. Two configurations with equal fingerprints
/// (and equal field values — collisions are resolved by comparison in the
/// store) produce identical annotations for the same stream.
pub fn annotation_fingerprint(cache: &CacheConfig, predictor: &PredictorConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(cache.l1_bytes)
        .write_u32(cache.l1_ways)
        .write_u64(cache.l1i_bytes)
        .write_u32(cache.l1i_ways)
        .write_u64(cache.l2_bytes)
        .write_u32(cache.l2_ways)
        .write_u64(cache.line_bytes)
        .write_f64(cache.l2_latency_fo4)
        .write_f64(cache.memory_latency_fo4)
        .write_bool(cache.prefetch)
        .write_u32(predictor.table_bits)
        .write_u32(predictor.history_bits);
    h.finish()
}

/// Counters describing an annotation store's service history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnnotateStats {
    /// Requests served from an already-resident annotation.
    pub hits: u64,
    /// Requests that ran a fresh annotation pass.
    pub misses: u64,
    /// Total instructions annotated since creation.
    pub instructions_annotated: u64,
}

impl AnnotateStats {
    /// Total requests served.
    pub fn requested(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served without annotating (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requested() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requested() as f64
        }
    }
}

/// Full identity of one resident annotation (collision resolution for the
/// store's hash buckets, and the persisted record key of the annotation
/// namespace in an on-disk store).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotationKey {
    /// The stream's arena key ([`pipedepth_trace::TraceRequest::key`]).
    pub trace_key: u64,
    /// Stream length (a second identity check alongside the key).
    pub len: usize,
    /// Cache configuration the annotation was computed under.
    pub cache: CacheConfig,
    /// Predictor configuration the annotation was computed under.
    pub predictor: PredictorConfig,
}

impl AnnotationKey {
    /// The key's bucket hash inside an [`AnnotationStore`].
    fn hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.trace_key)
            .write_u64(self.len as u64)
            .write_u64(annotation_fingerprint(&self.cache, &self.predictor));
        h.finish()
    }
}

type Bucket = Vec<(AnnotationKey, Arc<AnnotatedTrace>)>;

/// A one-shot producer of annotations computed by a previous run — the
/// loader of a persistent store's annotation namespace. An
/// [`AnnotationStore`] runs it at most once, on its first miss, so a run
/// that never misses never pays for the load.
pub type WarmSource = Box<dyn FnOnce() -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> + Send>;

/// Content-addressed store of annotations, the companion of
/// [`pipedepth_trace::TraceArena`]: one annotation pass per distinct
/// `(stream, cache config, predictor config)`, shared by `Arc` thereafter.
///
/// Like the arena, annotation happens under the store lock so concurrent
/// requests never duplicate a pass, and the intended discipline is to
/// pre-stage annotations serially before fanning out workers — which also
/// keeps the `trace.annotate.*` counters deterministic for any thread
/// count.
///
/// A [`WarmSource`] attached with
/// [`set_warm_source`](Self::set_warm_source) is the store's lazy warm
/// tier: the first miss runs it (without the buckets lock held), seeds its
/// entries counter-neutrally and probes again, so every counter equals an
/// eager [`seed`](Self::seed) followed by the same requests. Lock order is
/// `warm` before `buckets`; concurrent first misses wait on `warm` for the
/// one load instead of annotating.
#[derive(Default)]
pub struct AnnotationStore {
    buckets: Mutex<BTreeMap<u64, Bucket>>,
    warm: Mutex<Option<WarmSource>>,
    hits: AtomicU64,
    misses: AtomicU64,
    instructions: AtomicU64,
    hit_counter: Counter,
    miss_counter: Counter,
    annotated_counter: Counter,
}

impl std::fmt::Debug for AnnotationStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnnotationStore")
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl AnnotationStore {
    /// An empty store.
    pub fn new() -> Self {
        AnnotationStore::default()
    }

    /// Attaches a one-shot warm source, run on the first miss of
    /// [`get_or_annotate`](Self::get_or_annotate) (replacing any source
    /// not yet run).
    pub fn set_warm_source(&mut self, source: WarmSource) {
        *self
            .warm
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(source);
    }

    fn lock_buckets(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Bucket>> {
        self.buckets
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs the warm source if one is still pending and seeds what it
    /// returns. The `warm` guard is held across the load so concurrent
    /// missers wait for it; the buckets lock is taken only per seed.
    fn load_warm(&self) {
        let mut warm = self
            .warm
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(source) = warm.take() {
            for (key, notes) in source() {
                self.seed(key, notes);
            }
        }
    }

    /// Connects the store's counters to a telemetry registry:
    /// `trace.annotate.hits`, `trace.annotate.misses` and
    /// `trace.annotate.instructions_annotated` mirror [`AnnotateStats`].
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.hit_counter = telemetry.counter("trace.annotate.hits");
        self.miss_counter = telemetry.counter("trace.annotate.misses");
        self.annotated_counter = telemetry.counter("trace.annotate.instructions_annotated");
    }

    /// The annotation for `trace` under `(cache, predictor)`, running the
    /// pass on first request and sharing the same `Arc` on every
    /// subsequent one. `trace_key` is the stream's content key (the arena
    /// key), which stands in for the stream's bytes in the store address.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found validating the cache or
    /// predictor configuration.
    pub fn get_or_annotate(
        &self,
        trace_key: u64,
        trace: &[Instruction],
        cache: CacheConfig,
        predictor: PredictorConfig,
    ) -> Result<Arc<AnnotatedTrace>, ConfigError> {
        let key = AnnotationKey {
            trace_key,
            len: trace.len(),
            cache,
            predictor,
        };
        let hash = key.hash();
        let mut buckets = self.lock_buckets();
        let resident = buckets
            .get(&hash)
            .is_some_and(|bucket| bucket.iter().any(|(k, _)| k == &key));
        if !resident {
            // A miss: run the warm source if it is still pending, with
            // the buckets lock released (it reads files), then probe again.
            drop(buckets);
            self.load_warm();
            buckets = self.lock_buckets();
        }
        let bucket = buckets.entry(hash).or_default();
        if let Some((_, notes)) = bucket.iter().find(|(k, _)| k == &key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_counter.inc();
            return Ok(Arc::clone(notes));
        }
        // Annotation happens under the lock: concurrent requests for the
        // same annotation must never duplicate the work.
        let notes = Arc::new(annotate(trace, cache, predictor)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.instructions
            .fetch_add(trace.len() as u64, Ordering::Relaxed);
        self.miss_counter.inc();
        self.annotated_counter.add(trace.len() as u64);
        bucket.push((key, Arc::clone(&notes)));
        Ok(notes)
    }

    /// A point-in-time snapshot of every resident annotation, in
    /// deterministic bucket-hash order — the export path for a
    /// persistent store. Does not touch the service counters.
    pub fn export(&self) -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> {
        self.lock_buckets()
            .values()
            .flat_map(|bucket| bucket.iter().map(|(key, notes)| (*key, Arc::clone(notes))))
            .collect()
    }

    /// Installs an annotation computed by a previous run (a warm-store
    /// load). Counter-neutral: seeding is not a service request, so the
    /// hit/miss statistics stay exactly what this process's own requests
    /// produce. Returns whether the annotation was actually installed
    /// (false when an equal key was already resident).
    pub fn seed(&self, key: AnnotationKey, notes: Arc<AnnotatedTrace>) -> bool {
        let hash = key.hash();
        let mut buckets = self.lock_buckets();
        let bucket = buckets.entry(hash).or_default();
        if bucket.iter().any(|(k, _)| k == &key) {
            return false;
        }
        bucket.push((key, notes));
        true
    }

    /// Number of distinct annotations resident.
    pub fn len(&self) -> usize {
        self.lock_buckets().values().map(Vec::len).sum()
    }

    /// True when nothing has been annotated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current service counters.
    pub fn stats(&self) -> AnnotateStats {
        AnnotateStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            instructions_annotated: self.instructions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use pipedepth_trace::{TraceGenerator, WorkloadModel};

    fn sample_trace(n: usize) -> Vec<Instruction> {
        TraceGenerator::new(WorkloadModel::spec_int_like(), 42).take_vec(n)
    }

    #[test]
    fn annotation_fingerprint_is_pinned() {
        // The value every earlier build computed: annotation-store
        // buckets are keyed by it.
        let sim = SimConfig::paper(8);
        assert_eq!(
            annotation_fingerprint(&sim.cache, &sim.predictor),
            0xb7da_f88c_6ce1_2365
        );
    }

    #[test]
    fn annotation_is_deterministic_and_sized() {
        let trace = sample_trace(2_000);
        let cfg = SimConfig::paper(8);
        let a = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        let b = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        assert_eq!(a, b);
        assert_eq!(a.len(), 2_000);
        assert!(!a.is_empty());
        assert_eq!(a.bytes(), 16_000);
    }

    #[test]
    fn annotation_is_depth_independent_inputs_only() {
        // The annotation takes no depth at all — but the same cache and
        // predictor configs at different prefetch settings must differ.
        let trace = sample_trace(2_000);
        let cfg = SimConfig::paper(8);
        let mut no_prefetch = cfg.cache;
        no_prefetch.prefetch = false;
        let a = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        let b = annotate(&trace, no_prefetch, cfg.predictor).expect("valid config");
        assert_ne!(a, b, "prefetch changes the miss classes");
        assert_ne!(
            annotation_fingerprint(&cfg.cache, &cfg.predictor),
            annotation_fingerprint(&no_prefetch, &cfg.predictor)
        );
    }

    #[test]
    fn branch_outcomes_match_a_fresh_predictor() {
        let trace = sample_trace(3_000);
        let cfg = SimConfig::paper(8);
        let notes = annotate(&trace, cfg.cache, cfg.predictor).expect("valid config");
        let mut bp = Gshare::try_new(cfg.predictor).expect("valid config");
        for (instr, &b) in trace.iter().zip(&notes.branch) {
            if instr.class == OpClass::Branch {
                let hit = bp.observe(instr.pc, instr.is_taken_branch());
                assert_eq!(b, if hit { 1 } else { 2 });
            } else {
                assert_eq!(b, 0);
            }
        }
    }

    #[test]
    fn disabled_icache_annotates_no_fetches() {
        let trace = sample_trace(1_000);
        let cfg = SimConfig::paper(8);
        let mut cache = cfg.cache;
        cache.l1i_bytes = 0;
        let notes = annotate(&trace, cache, cfg.predictor).expect("valid config");
        assert!(notes.fetch.iter().all(|&f| f == 0));
    }

    #[test]
    fn store_annotates_once_and_shares() {
        let trace = sample_trace(1_500);
        let cfg = SimConfig::paper(8);
        let store = AnnotationStore::new();
        let a = store
            .get_or_annotate(7, &trace, cfg.cache, cfg.predictor)
            .expect("valid config");
        let b = store
            .get_or_annotate(7, &trace, cfg.cache, cfg.predictor)
            .expect("valid config");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.len(), 1);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.instructions_annotated, 1_500);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // A different cache config is a different annotation.
        let mut other = cfg.cache;
        other.prefetch = false;
        store
            .get_or_annotate(7, &trace, other, cfg.predictor)
            .expect("valid config");
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
    }

    /// Persisted annotations of streams 1 and 2 (same content under two
    /// keys), as a warm source would return them.
    fn warm_entries(
        trace: &[Instruction],
        cfg: &SimConfig,
    ) -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> {
        let notes = Arc::new(annotate(trace, cfg.cache, cfg.predictor).expect("valid config"));
        [1, 2]
            .into_iter()
            .map(|trace_key| {
                let key = AnnotationKey {
                    trace_key,
                    len: trace.len(),
                    cache: cfg.cache,
                    predictor: cfg.predictor,
                };
                (key, Arc::clone(&notes))
            })
            .collect()
    }

    /// A warm source returning `entries` that counts its runs.
    fn counting_source(
        entries: Vec<(AnnotationKey, Arc<AnnotatedTrace>)>,
        runs: &Arc<AtomicU64>,
    ) -> WarmSource {
        let runs = Arc::clone(runs);
        Box::new(move || {
            runs.fetch_add(1, Ordering::SeqCst);
            entries
        })
    }

    #[test]
    fn warm_source_runs_on_first_miss_only() {
        let trace = sample_trace(800);
        let cfg = SimConfig::paper(8);
        let entries = warm_entries(&trace, &cfg);
        let runs = Arc::new(AtomicU64::new(0));
        let mut store = AnnotationStore::new();
        store.seed(entries[0].0, Arc::clone(&entries[0].1));
        store.set_warm_source(counting_source(entries, &runs));
        let request = |trace_key| {
            store
                .get_or_annotate(trace_key, &trace, cfg.cache, cfg.predictor)
                .expect("valid config");
            runs.load(Ordering::SeqCst)
        };
        assert_eq!(request(1), 0, "a resident hit never loads");
        assert_eq!(request(2), 1, "the first miss loads, then hits");
        assert_eq!(request(3), 1, "a later miss annotates without reloading");
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.instructions_annotated, 800);
    }

    #[test]
    fn warm_source_counters_equal_eager_seeding() {
        let trace = sample_trace(800);
        let cfg = SimConfig::paper(8);
        let eager = AnnotationStore::new();
        for (key, notes) in warm_entries(&trace, &cfg) {
            assert!(eager.seed(key, notes));
        }
        let mut lazy = AnnotationStore::new();
        let runs = Arc::new(AtomicU64::new(0));
        lazy.set_warm_source(counting_source(warm_entries(&trace, &cfg), &runs));
        // Stream 3 is not persisted: the lazy store's first request
        // misses, loads, and still has to annotate it.
        for store in [&eager, &lazy] {
            for trace_key in [3, 1, 3, 2, 1] {
                store
                    .get_or_annotate(trace_key, &trace, cfg.cache, cfg.predictor)
                    .expect("valid config");
            }
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(lazy.stats(), eager.stats());
        assert_eq!((lazy.stats().hits, lazy.stats().misses), (4, 1));
        let keys = |s: &AnnotationStore| s.export().into_iter().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(keys(&lazy), keys(&eager));
    }

    #[test]
    fn concurrent_first_misses_share_one_warm_load() {
        const THREADS: usize = 4;
        let trace = sample_trace(800);
        let cfg = SimConfig::paper(8);
        let runs = Arc::new(AtomicU64::new(0));
        // Each thread announces itself just before its request, and the
        // load stays open until every thread has: the others reach the
        // store while the load is in flight.
        let entered = Arc::new(AtomicU64::new(0));
        let load = counting_source(warm_entries(&trace, &cfg), &runs);
        let announced = Arc::clone(&entered);
        let mut store = AnnotationStore::new();
        store.set_warm_source(Box::new(move || {
            while announced.load(Ordering::SeqCst) < THREADS as u64 {
                std::thread::yield_now();
            }
            load()
        }));
        std::thread::scope(|scope| {
            for i in 0..THREADS {
                let (store, trace, entered) = (&store, &trace, &entered);
                scope.spawn(move || {
                    entered.fetch_add(1, Ordering::SeqCst);
                    store
                        .get_or_annotate(1 + (i % 2) as u64, trace, cfg.cache, cfg.predictor)
                        .expect("valid config");
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the source runs once");
        // Every thread waited for the load instead of annotating.
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (THREADS as u64, 0));
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn store_telemetry_mirrors_stats() {
        let telemetry = Telemetry::new();
        let mut store = AnnotationStore::new();
        store.attach_telemetry(&telemetry);
        let trace = sample_trace(600);
        let cfg = SimConfig::paper(8);
        store
            .get_or_annotate(1, &trace, cfg.cache, cfg.predictor)
            .expect("valid config");
        store
            .get_or_annotate(1, &trace, cfg.cache, cfg.predictor)
            .expect("valid config");
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("trace.annotate.hits"), 1);
        assert_eq!(snap.counter("trace.annotate.misses"), 1);
        assert_eq!(snap.counter("trace.annotate.instructions_annotated"), 600);
    }
}
