//! The persistent evaluation store behind `--store`: warm-starts a run
//! from the snapshots a previous run published.
//!
//! [`RunStore`] owns two [`Namespace`]s of `pipedepth-store` under one
//! directory:
//!
//! * `sim_reports` — every finished simulation cell, as a
//!   ([`CellSpec`], [`SimReport`]) record. Loaded eagerly at startup into
//!   the *warm tier* of the runner's
//!   [`ShardedCache`](pipedepth_core::eval::ShardedCache): memory misses
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
//! Each namespace is keyed by its record codec ([`REPORTS_SCHEMA`],
//! [`ANNOTATIONS_SCHEMA`]), the crate version, and the run-config digest
//! ([`crate::manifest::config_digest`]); loading, write-behind publishing,
//! corruption handling and the shared `store.*` counters are the
//! namespace's. What stays here is the growth gate: the `*_if_grown`
//! flushes publish only a snapshot larger than what the namespace holds
//! on disk. The annotation gate counts the on-demand load, which runs
//! before the first new annotation, so every published annotation
//! snapshot is a superset of the persisted one, and a run that never read
//! the namespace never republishes it. [`RunStore::finish`] drains both
//! flushers and returns the deterministic [`StoreStats`] the manifest
//! records.

use crate::manifest::config_digest;
use crate::runner::{CacheStats, CellSpec, SimCache};
use crate::sweep::RunConfig;
use pipedepth_sim::{AnnotatedTrace, AnnotationKey, SimReport, WarmSource};
use pipedepth_store::{Blob, ByteReader, ByteWriter, DecodeError, Namespace, NamespaceSpec};
use pipedepth_telemetry::Telemetry;
use std::path::Path;
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

/// The per-namespace loaded-records counters.
mod metric_names {
    /// Report records decoded at startup.
    pub const REPORTS_LOADED: &str = "store.reports_loaded";
    /// Annotation records decoded on demand.
    pub const ANNOTATIONS_LOADED: &str = "store.annotations_loaded";
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

/// The growth gate: true, advancing `high`, when `len` entries exceed
/// both the largest snapshot published so far and the `loaded` one.
/// Republishing an unchanged snapshot costs a full re-encode for zero new
/// durability, so a fully warm run — whose caches only re-fill to the
/// loaded size — publishes nothing.
fn grown(high: &mut u64, loaded: u64, len: usize) -> bool {
    let len = len as u64;
    let grown = len > (*high).max(loaded);
    if grown {
        *high = len;
    }
    grown
}

/// The persistent store of one run: loads report snapshots at startup and
/// annotation snapshots on demand, publishes them write-behind while the
/// run progresses.
#[derive(Debug)]
pub struct RunStore {
    reports: Namespace<CellSpec, SimReport>,
    annotations: Namespace<AnnotationKey, AnnotatedTrace>,
    warm: CacheStats,
    // Growth-gate high-water marks: the largest snapshot each namespace
    // published this run.
    reports_high: u64,
    annotations_high: u64,
}

impl RunStore {
    /// Opens the store rooted at `dir` for a run of `config`. Registers
    /// every `store.*` counter immediately, so cold and warm runs emit
    /// the same metric-name set.
    pub fn open(dir: &Path, config: &RunConfig, telemetry: &Telemetry) -> Self {
        let digest = config_digest(config);
        let spec = |name, schema_version| NamespaceSpec {
            name,
            schema_version,
            code_version: CODE_VERSION,
            config_digest: digest,
        };
        RunStore {
            reports: Namespace::open(
                dir,
                spec("sim_reports", REPORTS_SCHEMA),
                metric_names::REPORTS_LOADED,
                telemetry,
            ),
            annotations: Namespace::open(
                dir,
                spec("annotations", ANNOTATIONS_SCHEMA),
                metric_names::ANNOTATIONS_LOADED,
                telemetry,
            ),
            warm: CacheStats::default(),
            reports_high: 0,
            annotations_high: 0,
        }
    }

    /// Loads the `sim_reports` snapshot into a warm-tier image. A missing
    /// file, a rejected header or checksum, or any undecodable record
    /// yields an empty image — a cold start, never a partial or wrong one.
    pub fn load_reports(&mut self) -> SimCache {
        let warm = SimCache::new();
        for (spec, report) in self.reports.load() {
            warm.insert(spec.key(), spec, report);
        }
        warm
    }

    /// Loads the `annotations` snapshot now; same degradation rules as
    /// [`load_reports`](Self::load_reports). Runs do not call this: they
    /// hand the runner an [`annotation_source`](Self::annotation_source),
    /// which does the same load only if the run needs it.
    pub fn load_annotations(&mut self) -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> {
        self.annotations.load()
    }

    /// The on-demand form of [`load_annotations`](Self::load_annotations),
    /// for [`Runner::with_warm_annotations`](crate::runner::Runner::with_warm_annotations):
    /// the runner's annotation store runs it on its first miss, and the
    /// load updates this store's counters and growth gate when it runs.
    pub fn annotation_source(&self) -> WarmSource {
        Box::new(self.annotations.loader())
    }

    /// Publishes a snapshot of finished cells, write-behind. The entries
    /// were already snapshotted by the caller; encoding and the atomic
    /// publish happen on the flusher thread.
    pub fn flush_reports(&self, entries: Vec<(CellSpec, Arc<SimReport>)>) {
        self.reports.flush(entries);
    }

    /// [`flush_reports`](Self::flush_reports), gated on growth: publishes
    /// only when `entries` holds more cells than the largest snapshot
    /// already on disk. The per-phase republish discipline then costs
    /// nothing on phases that added no cells — and a fully warm run
    /// publishes nothing at all.
    pub fn flush_reports_if_grown(&mut self, entries: Vec<(CellSpec, Arc<SimReport>)>) {
        if grown(&mut self.reports_high, self.reports.loaded(), entries.len()) {
            self.flush_reports(entries);
        }
    }

    /// Publishes a snapshot of resident annotations, write-behind.
    pub fn flush_annotations(&self, entries: Vec<(AnnotationKey, Arc<AnnotatedTrace>)>) {
        self.annotations.flush(entries);
    }

    /// [`flush_annotations`](Self::flush_annotations), gated on growth —
    /// same discipline as [`flush_reports_if_grown`](Self::flush_reports_if_grown),
    /// and the bigger win: annotations dominate snapshot bytes by two
    /// orders of magnitude. The loaded count joins the gate once the
    /// namespace was read (eagerly or on demand), so a run that never
    /// read it publishes only when it annotated something, which it does
    /// after the on-demand load.
    pub fn flush_annotations_if_grown(
        &mut self,
        entries: Vec<(AnnotationKey, Arc<AnnotatedTrace>)>,
    ) {
        let loaded = self.annotations.loaded();
        if grown(&mut self.annotations_high, loaded, entries.len()) {
            self.flush_annotations(entries);
        }
    }

    /// Records the warm-tier probe counters of the finished run (from
    /// [`Runner::warm_report_stats`](crate::runner::Runner::warm_report_stats)).
    pub fn record_warm(&mut self, stats: Option<CacheStats>) {
        if let Some(stats) = stats {
            self.warm = stats;
        }
        self.reports.record_warm(self.warm.hits, self.warm.misses);
    }

    /// Drains every pending flush and returns the run's store counters.
    /// Call *before* snapshotting telemetry, so the manifest sees the
    /// final flush metrics.
    pub fn finish(mut self) -> StoreStats {
        self.reports.shutdown();
        self.annotations.shutdown();
        let (reports, annotations) = (&self.reports, &self.annotations);
        StoreStats {
            hits: self.warm.hits,
            misses: self.warm.misses,
            reports_loaded: reports.loaded(),
            annotations_loaded: annotations.loaded(),
            annotations_read: annotations.was_read(),
            invalid: reports.invalid() + annotations.invalid(),
            flushes: reports.flushes() + annotations.flushes(),
            records_flushed: reports.records_flushed() + annotations.records_flushed(),
        }
    }
}

// The tests' scratch-directory helper names these through `super::*`.
#[cfg(test)]
use std::{path::PathBuf, sync::atomic::Ordering};

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
