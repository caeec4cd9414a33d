//! The persistent evaluation store behind `--store`: warm-starts a run
//! from the snapshots a previous run published.
//!
//! [`RunStore`] is the experiments-side owner of two `pipedepth-store`
//! namespaces under one directory:
//!
//! * `sim_reports` — every finished simulation cell, as a
//!   ([`CellSpec`], [`SimReport`]) record. Loaded eagerly at startup into
//!   the *warm tier* of the runner's
//!   [`TieredCache`](pipedepth_core::eval::TieredCache): memory misses
//!   probe the decoded image and promote hits, so previously computed
//!   cells skip simulation entirely.
//! * `annotations` — the depth-invariant annotate-once columns, as an
//!   ([`AnnotationKey`], [`AnnotatedTrace`]) record, so warm sweep
//!   groups also skip the annotate pass. Loaded on demand: the
//!   [`RunStore::annotation_source`] handed to the runner reads the
//!   namespace on the annotation store's first miss, at most once. A run
//!   whose every cell is a warm report hit plans no depth group and never
//!   reads it.
//!
//! Keys follow the store's invalidation discipline: each namespace is
//! versioned by its record codec ([`REPORTS_SCHEMA`],
//! [`ANNOTATIONS_SCHEMA`]), by the crate version, and by the run-config
//! digest ([`crate::manifest::config_digest`]) — a snapshot from a
//! different code version or run configuration degrades to a cold start,
//! never to a wrong answer. Decoded specs are full structs, so even a
//! hash collision inside a valid snapshot resolves by `PartialEq`
//! exactly as in the in-memory cache.
//!
//! Publishing is write-behind: `flush_*` snapshots the entries on the
//! calling thread (no locks held — the cache's `entries()` drops its
//! shard guards before returning) and hands encoding plus the atomic
//! temp-file-and-rename publish to the store's [`Flusher`] worker, so
//! the hot loop never blocks on I/O. The `*_if_grown` gates publish only
//! a snapshot larger than what the namespace holds on disk. The
//! annotation gate's high-water mark is set by the on-demand load, which
//! runs before the first new annotation, so every published annotation
//! snapshot is a superset of the persisted one, and a run that never read
//! the namespace never republishes it. [`RunStore::finish`] drains the
//! worker and returns the deterministic [`StoreStats`] the manifest
//! records.

use crate::manifest::config_digest;
use crate::runner::{CacheStats, CellSpec, SimCache};
use crate::sweep::RunConfig;
use pipedepth_sim::{AnnotatedTrace, AnnotationKey, SimReport, WarmSource};
use pipedepth_store::{
    load_records, publish_records, Blob, ByteReader, ByteWriter, DecodeError, Flusher, LoadOutcome,
    NamespaceSpec,
};
use pipedepth_telemetry::{Stopwatch, Telemetry, DEFAULT_TIME_BUCKETS_US};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Record-codec version of the `sim_reports` namespace. Bump whenever the
/// [`CellSpec`] or [`SimReport`] field lists change shape.
pub const REPORTS_SCHEMA: u32 = 1;

/// Record-codec version of the `annotations` namespace. Bump whenever the
/// [`AnnotationKey`] or [`AnnotatedTrace`] field lists change shape.
pub const ANNOTATIONS_SCHEMA: u32 = 1;

/// Code-version key stamped into every snapshot header; snapshots from a
/// different build degrade to a cold start.
const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

fn reports_spec(digest: u64) -> NamespaceSpec<'static> {
    NamespaceSpec {
        name: "sim_reports",
        schema_version: REPORTS_SCHEMA,
        code_version: CODE_VERSION,
        config_digest: digest,
    }
}

fn annotations_spec(digest: u64) -> NamespaceSpec<'static> {
    NamespaceSpec {
        name: "annotations",
        schema_version: ANNOTATIONS_SCHEMA,
        code_version: CODE_VERSION,
        config_digest: digest,
    }
}

// A cell spec persists as its full field list (model and machine through
// their own codecs), so a decoded spec compares equal to the original
// and reproduces the same `CellSpec::key`.
impl Blob for CellSpec {
    fn encode(&self, w: &mut ByteWriter) {
        self.model.encode(w);
        w.put_u64(self.trace_seed);
        self.sim.encode(w);
        w.put_u64(self.warmup).put_u64(self.instructions);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(CellSpec {
            model: Blob::decode(r)?,
            trace_seed: r.take_u64()?,
            sim: Blob::decode(r)?,
            warmup: r.take_u64()?,
            instructions: r.take_u64()?,
        })
    }
}

fn report_record(spec: &CellSpec, report: &SimReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    spec.encode(&mut w);
    report.encode(&mut w);
    w.into_bytes()
}

fn decode_report_record(bytes: &[u8]) -> Result<(CellSpec, SimReport), DecodeError> {
    let mut r = ByteReader::new(bytes);
    let spec = CellSpec::decode(&mut r)?;
    let report = SimReport::decode(&mut r)?;
    r.finish()?;
    Ok((spec, report))
}

fn annotation_record(key: &AnnotationKey, notes: &AnnotatedTrace) -> Vec<u8> {
    let mut w = ByteWriter::new();
    key.encode(&mut w);
    notes.encode(&mut w);
    w.into_bytes()
}

fn decode_annotation_record(bytes: &[u8]) -> Result<(AnnotationKey, AnnotatedTrace), DecodeError> {
    let mut r = ByteReader::new(bytes);
    let key = AnnotationKey::decode(&mut r)?;
    let notes = AnnotatedTrace::decode(&mut r)?;
    r.finish()?;
    Ok((key, notes))
}

/// Deterministic end-of-run counters of one [`RunStore`], recorded in the
/// manifest's `store` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Cells served from the loaded snapshot instead of simulation
    /// (warm-tier hits).
    pub hits: u64,
    /// Warm-tier probes nothing could serve.
    pub misses: u64,
    /// Report records decoded from a valid snapshot at startup.
    pub reports_loaded: u64,
    /// Annotation records decoded from a valid snapshot on demand (0 when
    /// the run never missed in its annotation store).
    pub annotations_loaded: u64,
    /// Whether the run read the `annotations` namespace at all. Not a
    /// manifest field; there the `store.load_us` sample count shows it.
    pub annotations_read: bool,
    /// Namespaces rejected on load (corruption or version skew; a simply
    /// missing file does not count).
    pub invalid: u64,
    /// Snapshots published.
    pub flushes: u64,
    /// Records across all published snapshots.
    pub records_flushed: u64,
}

/// Counters a [`RunStore`] shares with its flusher jobs and with the
/// on-demand annotation loader, both of which outlive any borrow of the
/// store. `finish` reads them only after the flusher drained; the loader
/// runs on a thread of the runner's, ordered before the gate that reads
/// its high-water mark by the annotation store's locks.
#[derive(Debug, Default)]
struct Shared {
    flushes: AtomicU64,
    records_flushed: AtomicU64,
    annotations_read: AtomicBool,
    annotations_loaded: AtomicU64,
    // High-water mark of the annotation snapshot on disk (set by the
    // load, advanced by `flush_annotations_if_grown`).
    annotations_high: AtomicU64,
    invalid: AtomicU64,
}

impl Shared {
    /// Counts one rejected namespace: corruption or version skew,
    /// degraded to a cold start.
    fn reject(&self, telemetry: &Telemetry) {
        self.invalid.fetch_add(1, Ordering::Relaxed);
        telemetry.counter("store.invalid").inc();
    }

    /// Counts a rejection unless the snapshot file is simply missing.
    fn reject_unless_missing(
        &self,
        telemetry: &Telemetry,
        reason: &pipedepth_store::InvalidReason,
    ) {
        if !reason.is_missing() {
            self.reject(telemetry);
        }
    }

    /// Counts one published snapshot of `records` records.
    fn published(&self, telemetry: &Telemetry, records: usize) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.records_flushed
            .fetch_add(records as u64, Ordering::Relaxed);
        telemetry.counter("store.flushes").inc();
        telemetry
            .counter("store.records_flushed")
            .add(records as u64);
    }
}

/// Reads and decodes the `annotations` snapshot. A missing file, a
/// rejected header or checksum, or any undecodable record yields no
/// entries — a cold start, never a partial or wrong one.
fn load_annotation_records(
    dir: &Path,
    digest: u64,
    telemetry: &Telemetry,
    shared: &Shared,
) -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> {
    let start = Stopwatch::start();
    shared.annotations_read.store(true, Ordering::Relaxed);
    let mut seeds = Vec::new();
    match load_records(dir, &annotations_spec(digest)) {
        LoadOutcome::Warm(records) => {
            match records
                .iter()
                .map(|r| decode_annotation_record(r))
                .collect::<Result<Vec<_>, _>>()
            {
                Ok(entries) => {
                    let loaded = entries.len() as u64;
                    shared.annotations_loaded.store(loaded, Ordering::Relaxed);
                    shared.annotations_high.fetch_max(loaded, Ordering::Relaxed);
                    telemetry.counter("store.annotations_loaded").add(loaded);
                    seeds = entries
                        .into_iter()
                        .map(|(key, notes)| (key, Arc::new(notes)))
                        .collect();
                }
                // A record that passed every checksum but fails the
                // codec is version skew the header keys missed.
                Err(_) => shared.reject(telemetry),
            }
        }
        LoadOutcome::Cold(reason) => shared.reject_unless_missing(telemetry, &reason),
    }
    telemetry
        .histogram("store.load_us", &DEFAULT_TIME_BUCKETS_US)
        .record(start.elapsed_us());
    seeds
}

/// The persistent store of one run: loads report snapshots at startup and
/// annotation snapshots on demand, publishes them write-behind while the
/// run progresses.
pub struct RunStore {
    dir: PathBuf,
    digest: u64,
    telemetry: Telemetry,
    flusher: Flusher,
    shared: Arc<Shared>,
    reports_loaded: u64,
    warm: CacheStats,
    // High-water mark for the growth-gated report flush: the largest
    // entry count already on disk (seeded by `load_reports`, advanced by
    // `flush_reports_if_grown`). Republishing an unchanged snapshot costs
    // a full re-encode for zero new durability, so a fully warm run—whose
    // caches only ever re-fill to the loaded size—publishes nothing.
    reports_high: u64,
}

impl std::fmt::Debug for RunStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStore")
            .field("dir", &self.dir)
            .field("digest", &self.digest)
            .field("reports_loaded", &self.reports_loaded)
            .field("shared", &self.shared)
            .finish_non_exhaustive()
    }
}

impl RunStore {
    /// Opens the store rooted at `dir` for a run of `config`. Registers
    /// every `store.*` counter immediately, so cold and warm runs emit
    /// the same metric-name set.
    pub fn open(dir: &Path, config: &RunConfig, telemetry: &Telemetry) -> Self {
        for name in [
            "store.hits",
            "store.misses",
            "store.reports_loaded",
            "store.annotations_loaded",
            "store.invalid",
            "store.flushes",
            "store.records_flushed",
        ] {
            telemetry.counter(name).add(0);
        }
        RunStore {
            dir: dir.to_path_buf(),
            digest: config_digest(config),
            telemetry: telemetry.clone(),
            flusher: Flusher::new(),
            shared: Arc::new(Shared::default()),
            reports_loaded: 0,
            warm: CacheStats::default(),
            reports_high: 0,
        }
    }

    /// Loads the `sim_reports` snapshot into a warm-tier image. A missing
    /// file, a rejected header or checksum, or any undecodable record
    /// yields an empty image — a cold start, never a partial or wrong one.
    pub fn load_reports(&mut self) -> SimCache {
        let start = Stopwatch::start();
        let warm = SimCache::new();
        match load_records(&self.dir, &reports_spec(self.digest)) {
            LoadOutcome::Warm(records) => {
                match records
                    .iter()
                    .map(|r| decode_report_record(r))
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(entries) => {
                        self.reports_loaded = entries.len() as u64;
                        self.reports_high = self.reports_loaded;
                        self.telemetry
                            .counter("store.reports_loaded")
                            .add(self.reports_loaded);
                        for (spec, report) in entries {
                            warm.insert(spec.key(), spec, Arc::new(report));
                        }
                    }
                    Err(_) => self.shared.reject(&self.telemetry),
                }
            }
            LoadOutcome::Cold(reason) => {
                self.shared.reject_unless_missing(&self.telemetry, &reason)
            }
        }
        self.telemetry
            .histogram("store.load_us", &DEFAULT_TIME_BUCKETS_US)
            .record(start.elapsed_us());
        warm
    }

    /// Loads the `annotations` snapshot now; same degradation rules as
    /// [`load_reports`](Self::load_reports). Runs do not call this: they
    /// hand the runner an [`annotation_source`](Self::annotation_source),
    /// which does the same load only if the run needs it.
    pub fn load_annotations(&mut self) -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> {
        load_annotation_records(&self.dir, self.digest, &self.telemetry, &self.shared)
    }

    /// The on-demand form of [`load_annotations`](Self::load_annotations),
    /// for [`Runner::with_warm_annotations`](crate::runner::Runner::with_warm_annotations):
    /// the runner's annotation store runs it on its first miss, and the
    /// load updates this store's counters and growth gate when it runs.
    pub fn annotation_source(&self) -> WarmSource {
        let dir = self.dir.clone();
        let digest = self.digest;
        let telemetry = self.telemetry.clone();
        let shared = Arc::clone(&self.shared);
        Box::new(move || load_annotation_records(&dir, digest, &telemetry, &shared))
    }

    /// Encodes `entries` and publishes them as namespace `spec`, on the
    /// flusher thread.
    fn publish<T: Send + 'static>(
        &self,
        spec: NamespaceSpec<'static>,
        entries: Vec<T>,
        record: fn(&T) -> Vec<u8>,
    ) {
        let dir = self.dir.clone();
        let telemetry = self.telemetry.clone();
        let shared = Arc::clone(&self.shared);
        self.flusher.submit(move || {
            let start = Stopwatch::start();
            let records: Vec<Vec<u8>> = entries.iter().map(record).collect();
            if publish_records(&dir, &spec, &records).is_ok() {
                shared.published(&telemetry, records.len());
            }
            telemetry
                .histogram("store.flush_us", &DEFAULT_TIME_BUCKETS_US)
                .record(start.elapsed_us());
        });
    }

    /// Publishes a snapshot of finished cells, write-behind. The entries
    /// were already snapshotted by the caller; encoding and the atomic
    /// publish happen on the flusher thread.
    pub fn flush_reports(&self, entries: Vec<(CellSpec, Arc<SimReport>)>) {
        self.publish(reports_spec(self.digest), entries, |(spec, report)| {
            report_record(spec, report)
        });
    }

    /// [`flush_reports`](Self::flush_reports), gated on growth: publishes
    /// only when `entries` holds more cells than the largest snapshot
    /// already on disk. The per-phase republish discipline then costs
    /// nothing on phases that added no cells — and a fully warm run
    /// publishes nothing at all.
    pub fn flush_reports_if_grown(&mut self, entries: Vec<(CellSpec, Arc<SimReport>)>) {
        if (entries.len() as u64) > self.reports_high {
            self.reports_high = entries.len() as u64;
            self.flush_reports(entries);
        }
    }

    /// Publishes a snapshot of resident annotations, write-behind.
    pub fn flush_annotations(&self, entries: Vec<(AnnotationKey, Arc<AnnotatedTrace>)>) {
        self.publish(annotations_spec(self.digest), entries, |(key, notes)| {
            annotation_record(key, notes)
        });
    }

    /// [`flush_annotations`](Self::flush_annotations), gated on growth —
    /// same discipline as [`flush_reports_if_grown`](Self::flush_reports_if_grown),
    /// and the bigger win: annotations dominate snapshot bytes by two
    /// orders of magnitude. The high-water mark is the loaded count once
    /// the namespace was read (eagerly or on demand), so a run that never
    /// read it publishes only when it annotated something, which it does
    /// after the on-demand load.
    pub fn flush_annotations_if_grown(
        &mut self,
        entries: Vec<(AnnotationKey, Arc<AnnotatedTrace>)>,
    ) {
        let len = entries.len() as u64;
        if self
            .shared
            .annotations_high
            .fetch_max(len, Ordering::Relaxed)
            < len
        {
            self.flush_annotations(entries);
        }
    }

    /// Records the warm-tier probe counters of the finished run (from
    /// [`Runner::warm_report_stats`](crate::runner::Runner::warm_report_stats)).
    pub fn record_warm(&mut self, stats: Option<CacheStats>) {
        if let Some(stats) = stats {
            self.warm = stats;
        }
        self.telemetry.counter("store.hits").add(self.warm.hits);
        self.telemetry.counter("store.misses").add(self.warm.misses);
    }

    /// Drains every pending flush and returns the run's store counters.
    /// Call *before* snapshotting telemetry, so the manifest sees the
    /// final flush metrics.
    pub fn finish(mut self) -> StoreStats {
        self.flusher.shutdown();
        let shared = &self.shared;
        StoreStats {
            hits: self.warm.hits,
            misses: self.warm.misses,
            reports_loaded: self.reports_loaded,
            annotations_loaded: shared.annotations_loaded.load(Ordering::Relaxed),
            annotations_read: shared.annotations_read.load(Ordering::Relaxed),
            invalid: shared.invalid.load(Ordering::Relaxed),
            flushes: shared.flushes.load(Ordering::Relaxed),
            records_flushed: shared.records_flushed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use crate::sweep::WorkloadCurve;
    use pipedepth_sim::{annotate, AnnotateStats, SimConfig};
    use pipedepth_telemetry::Telemetry;
    use pipedepth_trace::{TraceGenerator, TraceRequest, WorkloadModel};
    use pipedepth_workloads::{representatives, suite, Workload};
    use std::sync::atomic::AtomicU32;

    /// A fresh scratch directory per test (std-only; no tempdir crate).
    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "pipedepth-store-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn tiny() -> RunConfig {
        RunConfig {
            warmup: 1_000,
            instructions: 2_000,
            depths: vec![4, 8, 12],
            ..RunConfig::default()
        }
    }

    /// One run against the store at `dir` (opened for `cfg`) that sweeps
    /// `ws` at `sweep`, wired like the `repro` driver: reports loaded at
    /// startup, annotations on demand, growth-gated publishes at the end.
    fn driver_run(
        dir: &Path,
        cfg: &RunConfig,
        ws: &[Workload],
        sweep: &RunConfig,
    ) -> (Vec<WorkloadCurve>, AnnotateStats, StoreStats) {
        let mut store = RunStore::open(dir, cfg, &Telemetry::disabled());
        let runner = Runner::serial()
            .with_warm_reports(store.load_reports())
            .with_warm_annotations(store.annotation_source());
        let curves = runner.sweep_all(ws, sweep);
        store.flush_reports_if_grown(runner.export_reports());
        store.flush_annotations_if_grown(runner.export_annotations());
        store.record_warm(runner.warm_report_stats());
        (curves, runner.annotation_stats(), store.finish())
    }

    /// `tiny()` with two depths beyond the persisted ones: a depth group
    /// per workload that only the sweep kernel can serve.
    fn deeper() -> RunConfig {
        RunConfig {
            depths: vec![4, 8, 12, 16, 20],
            ..tiny()
        }
    }

    fn persisted_annotations(dir: &Path) -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> {
        let mut store = RunStore::open(dir, &tiny(), &Telemetry::disabled());
        let notes = store.load_annotations();
        assert_eq!(store.finish().invalid, 0);
        notes
    }

    #[test]
    fn fully_warm_run_never_reads_or_republishes_annotations() {
        let dir = scratch("lazy-warm");
        let (cfg, ws) = (tiny(), representatives());
        let (cold, _, stats) = driver_run(&dir, &cfg, &ws, &cfg);
        assert!(stats.annotations_read, "a cold run misses, so it looks");
        assert_eq!((stats.annotations_loaded, stats.flushes), (0, 2));
        let path = dir.join("annotations.pds");
        let before = std::fs::read(&path).expect("cold run published annotations");

        let (warm, notes, stats) = driver_run(&dir, &cfg, &ws, &cfg);
        assert_eq!(warm, cold, "warm results must be bit-identical");
        assert_eq!(notes.requested(), 0, "no depth group was planned");
        assert!(!stats.annotations_read);
        assert_eq!(stats.annotations_loaded, 0);
        assert_eq!(stats.flushes, 0, "nothing grew, nothing republished");
        assert_eq!(std::fs::read(&path).expect("still there"), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_miss_loads_first_and_publishes_a_superset() {
        let dir = scratch("lazy-miss");
        let (cfg, ws) = (tiny(), representatives());
        driver_run(&dir, &cfg, &ws, &cfg);
        let path = dir.join("annotations.pds");
        let persisted = std::fs::read(&path).expect("cold run published annotations");
        let before = persisted_annotations(&dir);
        assert_eq!(before.len(), ws.len());

        // New depths of every persisted stream: the first group misses,
        // loads, and then every group reuses a persisted annotation.
        let (curves, notes, stats) = driver_run(&dir, &cfg, &ws, &deeper());
        assert_eq!(curves, Runner::serial().sweep_all(&ws, &deeper()));
        assert_eq!(stats.annotations_loaded, ws.len() as u64);
        assert_eq!((notes.hits, notes.misses), (ws.len() as u64, 0));
        assert_eq!(stats.flushes, 1, "only the reports grew");
        assert_eq!(std::fs::read(&path).expect("still there"), persisted);

        // One new stream: annotated after the load, published with it.
        let mut wider = ws.clone();
        wider.extend(suite().into_iter().find(|w| !ws.contains(w)));
        let (curves, notes, stats) = driver_run(&dir, &cfg, &wider, &deeper());
        assert_eq!(curves, Runner::serial().sweep_all(&wider, &deeper()));
        assert_eq!(stats.annotations_loaded, ws.len() as u64);
        assert_eq!(stats.invalid, 0);
        assert_eq!(notes.misses, 1, "only the new stream is annotated");
        let after = persisted_annotations(&dir);
        assert_eq!(after.len(), wider.len());
        for (key, notes) in &before {
            assert!(after.iter().any(|(k, n)| k == key && n == notes));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_annotations_count_only_when_a_miss_reads_them() {
        let dir = scratch("lazy-corrupt");
        let (cfg, ws) = (tiny(), representatives());
        let (cold, _, _) = driver_run(&dir, &cfg, &ws, &cfg);
        let path = dir.join("annotations.pds");
        let mut bytes = std::fs::read(&path).expect("cold run published annotations");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt the snapshot");

        let (warm, _, stats) = driver_run(&dir, &cfg, &ws, &cfg);
        assert_eq!(warm, cold);
        assert!(!stats.annotations_read);
        assert_eq!(stats.invalid, 0, "an unread snapshot is not rejected");

        let (curves, notes, stats) = driver_run(&dir, &cfg, &ws, &deeper());
        assert_eq!(curves, Runner::serial().sweep_all(&ws, &deeper()));
        assert_eq!(stats.invalid, 1, "the miss read the corrupt snapshot");
        assert_eq!(stats.annotations_loaded, 0);
        assert_eq!(notes.misses, ws.len() as u64, "cold start re-annotates");
        assert_eq!(persisted_annotations(&dir).len(), ws.len(), "republished");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_specs_round_trip_with_keys() {
        let spec = CellSpec::new(&representatives()[0], SimConfig::paper(14), 500, 1_500);
        let decoded = CellSpec::from_record(&spec.to_record()).expect("decodes");
        assert_eq!(decoded, spec);
        assert_eq!(decoded.key(), spec.key());
    }

    #[test]
    fn warm_run_reuses_every_cell_and_annotation() {
        let dir = scratch("warm");
        let cfg = tiny();
        let telemetry = Telemetry::disabled();
        let ws = representatives();

        // Cold run: simulate, then snapshot.
        let cold = Runner::serial();
        let curves = cold.sweep_all(&ws, &cfg);
        let mut store = RunStore::open(&dir, &cfg, &telemetry);
        assert!(store.load_reports().is_empty(), "first run starts cold");
        store.flush_reports(cold.export_reports());
        store.flush_annotations(cold.export_annotations());
        let stats = store.finish();
        assert_eq!(stats.flushes, 2);
        assert_eq!(stats.invalid, 0);
        let cells = (ws.len() * cfg.depths.len()) as u64;
        assert_eq!(stats.records_flushed, cells + ws.len() as u64);

        // Warm run: every cell comes from the store, bit-identically.
        let mut store = RunStore::open(&dir, &cfg, &telemetry);
        let warm_image = store.load_reports();
        let seeds = store.load_annotations();
        assert_eq!(warm_image.len() as u64, cells);
        assert_eq!(seeds.len(), ws.len());
        let warm = Runner::serial().with_warm_reports(warm_image);
        assert_eq!(warm.seed_annotations(seeds), ws.len() as u64);
        let again = warm.sweep_all(&ws, &cfg);
        assert_eq!(curves, again, "warm results must be bit-identical");
        let probes = warm.warm_report_stats().expect("warm tier attached");
        assert_eq!(probes.hits, cells, "every cell served from disk");
        assert_eq!(probes.misses, 0);
        assert_eq!(warm.annotation_stats().misses, 0, "annotations seeded");
        store.record_warm(warm.warm_report_stats());
        let stats = store.finish();
        assert_eq!(stats.hits, cells);
        assert_eq!(stats.reports_loaded, cells);
        assert_eq!(stats.annotations_loaded, ws.len() as u64);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_degrades_to_cold_start() {
        let dir = scratch("skew");
        let cfg = tiny();
        let telemetry = Telemetry::disabled();
        let runner = Runner::serial();
        runner.sweep_all(&representatives(), &cfg);
        let store = RunStore::open(&dir, &cfg, &telemetry);
        store.flush_reports(runner.export_reports());
        store.finish();

        // A different run configuration must not read the snapshot.
        let other = RunConfig {
            instructions: cfg.instructions + 1,
            ..cfg.clone()
        };
        let mut store = RunStore::open(&dir, &other, &telemetry);
        assert!(store.load_reports().is_empty());
        let stats = store.finish();
        assert_eq!(stats.reports_loaded, 0);
        assert_eq!(stats.invalid, 1, "digest skew is a counted rejection");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_store_is_a_quiet_cold_start() {
        let dir = scratch("missing");
        let mut store = RunStore::open(&dir, &tiny(), &Telemetry::disabled());
        assert!(store.load_reports().is_empty());
        assert!(store.load_annotations().is_empty());
        let stats = store.finish();
        assert_eq!(stats.invalid, 0, "a missing file is not a rejection");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn annotation_records_round_trip_through_the_store() {
        let dir = scratch("notes");
        let cfg = tiny();
        let telemetry = Telemetry::disabled();
        let sim = SimConfig::paper(8);
        let model = WorkloadModel::spec_int_like();
        let trace = TraceGenerator::new(model, 7).take_vec(3_000);
        let notes = annotate(&trace, sim.cache, sim.predictor).expect("valid config");
        let key = AnnotationKey {
            trace_key: TraceRequest {
                model,
                seed: 7,
                len: 3_000,
            }
            .key(),
            len: 3_000,
            cache: sim.cache,
            predictor: sim.predictor,
        };
        let store = RunStore::open(&dir, &cfg, &telemetry);
        store.flush_annotations(vec![(key, Arc::new(notes.clone()))]);
        store.finish();

        let mut store = RunStore::open(&dir, &cfg, &telemetry);
        let seeds = store.load_annotations();
        store.finish();
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].0, key);
        assert_eq!(*seeds[0].1, notes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
