//! Cell-level simulation runner shared by every experiment.
//!
//! A sweep decomposes into independent *cells* — one (workload × depth ×
//! machine) simulation each, see [`CellSpec`] — which a [`Runner`] executes
//! on a worker pool with dynamic work distribution: workers pull the next
//! cell off a shared atomic index, so one slow workload never idles the
//! other threads the way static chunking did. Finished cells land in a
//! shared content-keyed [`SimCache`], so figures that re-visit the same
//! machine (the gating-degree extension, the ablation baseline, the
//! issue-policy in-order arm) reuse the suite sweep instead of
//! re-simulating it.
//!
//! Cell results are deterministic and independent, so the assembled curves
//! are identical for any thread count; `threads = 1` executes in submission
//! order on the calling thread.
//!
//! Trace production is amortised separately from simulation: the runner
//! owns a content-addressed [`TraceArena`], and before fanning a batch out
//! it *pre-stages* every distinct (model, seed, length) stream the batch
//! needs — serially, on the calling thread. Workers then only ever look
//! streams up, so no generation work is duplicated, no worker blocks on
//! another's generation, and the arena's hit/miss counters are identical
//! for any thread count.

mod cache;
mod cell;

pub use cache::{CacheStats, SimCache};
pub use cell::CellSpec;

use crate::extract::extract_from_report;
use crate::sweep::{DepthPoint, RunConfig, WorkloadCurve};
use pipedepth_power::metric;
use pipedepth_sim::{
    replay_sweep, AnnotatedTrace, AnnotationKey, AnnotationStore, SimConfig, SimReport, WarmSource,
};
use pipedepth_telemetry::{Stopwatch, Telemetry, DEFAULT_TIME_BUCKETS_US};
use pipedepth_trace::{ArenaStats, Instruction, TraceArena, TraceRequest};
use pipedepth_workloads::Workload;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One pending cell's pre-staged inputs: the trace-request key and the
/// arena-resident stream.
type StagedCell = (u64, Arc<[Instruction]>);

/// One schedulable unit of a batch: either a single cell on the stage
/// engine, or a whole same-workload depth group on the annotate/replay
/// sweep kernel.
#[derive(Debug)]
enum WorkItem {
    /// Index into the pending list; runs the full stage engine.
    Cell(usize),
    /// Pending indices differing only in pipeline depth, plus the one
    /// annotation their replay lanes share.
    Group {
        members: Vec<usize>,
        annotation: Arc<AnnotatedTrace>,
    },
}

/// Executes simulation cells on a worker pool, backed by a shared cache.
#[derive(Debug)]
pub struct Runner {
    threads: usize,
    /// Shared result cache, with an optional warm tier loaded from a
    /// persistent store.
    cache: SimCache,
    telemetry: Telemetry,
    /// Shared trace store: every distinct stream is generated once.
    arena: TraceArena,
    /// Routes same-workload depth groups through the annotate-once /
    /// replay-per-depth kernel; `false` restores the per-cell engine path
    /// (the `--no-sweep-kernel` escape hatch).
    sweep_kernel: bool,
    /// Shared annotations, one per (stream, cache, predictor), reused
    /// across batches exactly as the arena shares streams.
    annotations: AnnotationStore,
    /// Watermark of the process-global fingerprint-memo hit counter, so
    /// each batch flushes only its own delta into telemetry.
    memo_hits_seen: AtomicU64,
}

impl Runner {
    /// A runner with an explicit worker count (`0` means one worker per
    /// available CPU).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            threads
        };
        Runner {
            threads,
            cache: SimCache::new(),
            telemetry: Telemetry::disabled(),
            arena: TraceArena::new(),
            sweep_kernel: true,
            annotations: AnnotationStore::new(),
            memo_hits_seen: AtomicU64::new(pipedepth_trace::fingerprint_memo_hits()),
        }
    }

    /// A single-threaded runner: cells run in submission order on the
    /// calling thread.
    pub fn serial() -> Self {
        Runner::new(1)
    }

    /// Attaches a telemetry handle; scheduling counters, per-cell timing
    /// histograms, arena counters and the engine/trace metrics of every
    /// executed cell report into it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.arena.attach_telemetry(&telemetry);
        self.annotations.attach_telemetry(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// Puts a warm tier of finished reports — the decoded image of a
    /// previous run's persistent snapshot — behind a fresh result cache.
    /// Memory misses then probe the warm tier and promote hits, so
    /// previously computed cells skip simulation entirely. A builder
    /// step: call it before the first batch.
    pub fn with_warm_reports(mut self, warm: SimCache) -> Self {
        self.cache = SimCache::backed_by(warm);
        self
    }

    /// Attaches a one-shot loader of persisted annotations (see
    /// [`RunStore::annotation_source`](crate::store::RunStore::annotation_source)).
    /// The annotation store runs it on its first miss, before annotating,
    /// so a run whose every depth group is served warm never reads the
    /// namespace. Never runs without the sweep kernel, which is the only
    /// consumer of annotations.
    pub fn with_warm_annotations(mut self, source: WarmSource) -> Self {
        self.annotations.set_warm_source(source);
        self
    }

    /// Disables the annotate/replay sweep kernel: every cell runs the full
    /// stage engine, as before the kernel existed. The `--no-sweep-kernel`
    /// escape hatch, and the A/B lever the equivalence CI check flips —
    /// the two paths are bit-identical by construction (see the
    /// `replay_equivalence` suite in `pipedepth-sim`).
    pub fn without_sweep_kernel(mut self) -> Self {
        self.sweep_kernel = false;
        self
    }

    /// Worker count this runner schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cache hit/miss counters so far (always `Some`; the `Option`
    /// keeps the manifest's field type). These are the memory-tier
    /// classification counters — attaching a warm tier does not change
    /// them.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    /// Warm-tier probe counters (`None` when no warm tier is attached):
    /// `hits` = cells served from the loaded snapshot instead of
    /// simulation.
    pub fn warm_report_stats(&self) -> Option<CacheStats> {
        self.cache.warm_stats()
    }

    /// A deterministic snapshot of every finished cell in the memory tier,
    /// for the persistence layer to encode and publish.
    pub fn export_reports(&self) -> Vec<(CellSpec, Arc<SimReport>)> {
        self.cache.entries()
    }

    /// Seeds the annotation store from a persistent snapshot, so warm
    /// sweep groups skip the annotate pass. Counter-neutral (seeded
    /// entries count neither hits nor misses); returns how many entries
    /// were actually inserted. No-op without the sweep kernel — the store
    /// would never be consulted.
    pub fn seed_annotations(
        &self,
        seeds: impl IntoIterator<Item = (AnnotationKey, Arc<AnnotatedTrace>)>,
    ) -> u64 {
        if !self.sweep_kernel {
            return 0;
        }
        seeds
            .into_iter()
            .filter(|(key, notes)| self.annotations.seed(*key, Arc::clone(notes)))
            .count() as u64
    }

    /// A deterministic snapshot of every annotation in the store, for the
    /// persistence layer to encode and publish.
    pub fn export_annotations(&self) -> Vec<(AnnotationKey, Arc<AnnotatedTrace>)> {
        self.annotations.export()
    }

    /// Arena service counters so far (always `Some`; the `Option` keeps
    /// the manifest's field type).
    pub fn arena_stats(&self) -> Option<ArenaStats> {
        Some(self.arena.stats())
    }

    /// Whether the annotate/replay sweep kernel is enabled.
    pub fn sweep_kernel_enabled(&self) -> bool {
        self.sweep_kernel
    }

    /// Annotation-store counters so far (all zero until the first depth
    /// group runs through the sweep kernel).
    pub fn annotation_stats(&self) -> pipedepth_sim::AnnotateStats {
        self.annotations.stats()
    }

    /// Runs a batch of cells, returning one report per requested cell in
    /// order. Cells already in the cache — or repeated within the batch —
    /// are simulated only once.
    pub fn run_cells(&self, cells: &[CellSpec]) -> Vec<Arc<SimReport>> {
        let mut results: Vec<Option<Arc<SimReport>>> = vec![None; cells.len()];
        // Unique cache misses, each with the result slots waiting on it.
        let mut pending: Vec<(u64, CellSpec)> = Vec::new();
        let mut waiters: Vec<Vec<usize>> = Vec::new();
        let mut hits: u64 = 0;
        for (i, cell) in cells.iter().enumerate() {
            let key = cell.key();
            if let Some(report) = self.cache.get(key, cell) {
                results[i] = Some(report);
                hits += 1;
            } else if let Some(j) = pending.iter().position(|(k, c)| *k == key && c == cell) {
                waiters[j].push(i);
                hits += 1; // shares the one simulation below
            } else {
                pending.push((key, *cell));
                waiters.push(vec![i]);
            }
        }
        self.cache.count_hits(hits);
        self.cache.count_misses(pending.len() as u64);
        self.telemetry
            .counter("runner.cells_requested")
            .add(cells.len() as u64);
        self.telemetry.counter("runner.cache_hits").add(hits);
        self.telemetry
            .counter("runner.cells_simulated")
            .add(pending.len() as u64);

        let staged = self.pre_stage(&pending);
        let items = self.plan_items(&pending, &staged);
        let computed = self.execute_items(&pending, &items);
        self.flush_memo_hits();

        for (((key, spec), slots), report) in pending.into_iter().zip(waiters).zip(computed) {
            if self.cache.insert(key, spec, Arc::clone(&report)) {
                self.telemetry.counter("runner.cache_inserts").inc();
            }
            for i in slots {
                results[i] = Some(Arc::clone(&report));
            }
        }
        results
            .into_iter()
            // analysis: allow(panic-path) — every slot is filled above: hits
            // in the classification loop, misses by their waiter lists
            .map(|r| r.expect("every requested cell resolved"))
            .collect()
    }

    /// Materialises every distinct trace the pending cells need into the
    /// arena, serially, before any worker starts. First request per
    /// distinct stream counts an arena miss (the one generation); each
    /// executed cell's lookup then counts a hit — so the counters are
    /// deterministic for any thread count, and workers never generate.
    /// Returns each cell's request key and staged stream (one entry per
    /// pending cell), so the sweep-kernel
    /// planner can annotate without extra arena traffic — and without
    /// recomputing a single fingerprint, keeping the memo-hit counter
    /// identical whether or not the kernel is enabled.
    fn pre_stage(&self, pending: &[(u64, CellSpec)]) -> Vec<StagedCell> {
        let mut by_key: BTreeMap<u64, Arc<[Instruction]>> = BTreeMap::new();
        pending
            .iter()
            .map(|(_, spec)| {
                let request = TraceRequest {
                    model: spec.model,
                    seed: spec.trace_seed,
                    len: spec.trace_len(),
                };
                let key = request.key();
                let trace = by_key
                    .entry(key)
                    .or_insert_with(|| {
                        self.arena
                            .get_or_generate(request.model, request.seed, request.len)
                    })
                    .clone();
                (key, trace)
            })
            .collect()
    }

    /// Partitions the pending cells into schedulable work items. With the
    /// sweep kernel enabled, cells that differ
    /// only in pipeline depth become one [`WorkItem::Group`] sharing one
    /// annotation — annotated here, serially, so the annotation-store
    /// counters are deterministic for any thread count. Everything else
    /// stays a [`WorkItem::Cell`] on the stage engine.
    ///
    /// Grouping compares cells structurally ([`PartialEq`] with the depth
    /// field neutralised) rather than by hash, so enabling the kernel
    /// changes no fingerprint or cache-counter accounting.
    fn plan_items(&self, pending: &[(u64, CellSpec)], staged: &[StagedCell]) -> Vec<WorkItem> {
        if !self.sweep_kernel {
            return (0..pending.len()).map(WorkItem::Cell).collect();
        }
        let mates = |a: &CellSpec, b: &CellSpec| {
            a.model == b.model
                && a.trace_seed == b.trace_seed
                && a.warmup == b.warmup
                && a.instructions == b.instructions
                && SimConfig { depth: 0, ..a.sim } == SimConfig { depth: 0, ..b.sim }
        };
        let mut assigned = vec![false; pending.len()];
        let mut items = Vec::new();
        for i in 0..pending.len() {
            if assigned[i] {
                continue;
            }
            assigned[i] = true;
            let mut members = vec![i];
            for j in (i + 1)..pending.len() {
                if !assigned[j] && mates(&pending[i].1, &pending[j].1) {
                    assigned[j] = true;
                    members.push(j);
                }
            }
            if members.len() < 2 {
                items.push(WorkItem::Cell(i));
                continue;
            }
            let spec = &pending[i].1;
            let (key, trace) = &staged[i];
            let annotation = self
                .annotations
                .get_or_annotate(*key, trace, spec.sim.cache, spec.sim.predictor)
                .ok();
            match annotation {
                Some(annotation) => items.push(WorkItem::Group {
                    members,
                    annotation,
                }),
                // An unannotatable configuration falls back to the
                // engine path, which shares its validation and error
                // surface.
                None => items.extend(members.into_iter().map(WorkItem::Cell)),
            }
        }
        items
    }

    /// Executes the planned work items, in order when serial, otherwise
    /// via a shared atomic work index over scoped worker threads. Returns
    /// one report per pending cell, in pending order.
    fn execute_items(
        &self,
        pending: &[(u64, CellSpec)],
        items: &[WorkItem],
    ) -> Vec<Arc<SimReport>> {
        let workers = self.threads.min(items.len());
        let batch_start = Stopwatch::start();
        let busy_before = self.telemetry.counter("runner.worker_busy_us").value();
        let slots: Vec<OnceLock<Arc<SimReport>>> =
            (0..pending.len()).map(|_| OnceLock::new()).collect();
        if workers <= 1 {
            for item in items {
                self.execute_item(item, pending, &slots, batch_start);
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        self.execute_item(item, pending, &slots, batch_start);
                    });
                }
            });
        }
        let reports: Vec<Arc<SimReport>> = slots
            .into_iter()
            // analysis: allow(panic-path) — the planner assigns every
            // pending index to exactly one work item, and workers drain
            // the shared index past items.len(), so no slot is left unset
            .map(|slot| slot.into_inner().expect("every planned cell executed"))
            .collect();
        if self.telemetry.is_enabled() && !pending.is_empty() {
            let wall_us = batch_start.elapsed_us();
            let busy_us = self
                .telemetry
                .counter("runner.worker_busy_us")
                .value()
                .saturating_sub(busy_before);
            if wall_us > 0.0 {
                self.telemetry
                    .gauge("runner.worker_utilization")
                    .set((busy_us as f64 / (workers.max(1) as f64 * wall_us)).clamp(0.0, 1.0));
            }
            if busy_us > 0 {
                // Engine throughput over the batch: simulated instructions
                // (warmup + measured) per worker-busy microsecond = MIPS.
                let simulated: u64 = pending
                    .iter()
                    .map(|(_, spec)| spec.warmup + spec.instructions)
                    .sum();
                self.telemetry
                    .gauge("runner.sim_mips")
                    .set(simulated as f64 / busy_us as f64);
            }
        }
        reports
    }

    /// Runs one cell, recording its queue wait (batch start to pickup) and
    /// simulation time when telemetry is enabled.
    fn execute_cell(&self, spec: &CellSpec, queued_at: Stopwatch) -> Arc<SimReport> {
        if !self.telemetry.is_enabled() {
            return Arc::new(spec.execute_with(&self.arena, &self.telemetry));
        }
        let start = Stopwatch::start();
        self.telemetry
            .histogram("runner.queue_wait_us", &DEFAULT_TIME_BUCKETS_US)
            .record(queued_at.elapsed_us());
        let report = Arc::new(spec.execute_with(&self.arena, &self.telemetry));
        let busy_us = start.elapsed_us();
        self.telemetry
            .histogram("runner.cell_time_us", &DEFAULT_TIME_BUCKETS_US)
            .record(busy_us);
        self.telemetry
            .counter("runner.worker_busy_us")
            .add(busy_us as u64);
        report
    }

    /// Executes one work item, filling the result slot of every pending
    /// cell it covers.
    fn execute_item(
        &self,
        item: &WorkItem,
        pending: &[(u64, CellSpec)],
        slots: &[OnceLock<Arc<SimReport>>],
        queued_at: Stopwatch,
    ) {
        match item {
            WorkItem::Cell(i) => {
                let report = self.execute_cell(&pending[*i].1, queued_at);
                // analysis: allow(panic-path) — the planner assigns each
                // pending index to exactly one work item
                slots[*i].set(report).expect("each cell planned once");
            }
            WorkItem::Group {
                members,
                annotation,
            } => {
                let reports = self.execute_group(members, annotation, pending, queued_at);
                for (&i, report) in members.iter().zip(reports) {
                    // analysis: allow(panic-path) — see the Cell arm
                    slots[i].set(report).expect("each cell planned once");
                }
            }
        }
    }

    /// Runs one depth group through the sweep kernel: every member lane
    /// advances through the shared annotation in a single pass. Arena and
    /// timing telemetry mirror the per-cell path — one arena lookup and
    /// one queue-wait/cell-time sample per member — so scheduling counters
    /// are invariant under the kernel A/B switch.
    fn execute_group(
        &self,
        members: &[usize],
        annotation: &AnnotatedTrace,
        pending: &[(u64, CellSpec)],
        queued_at: Stopwatch,
    ) -> Vec<Arc<SimReport>> {
        let start = Stopwatch::start();
        for &i in members {
            let spec = &pending[i].1;
            let _ = self
                .arena
                .get_or_generate(spec.model, spec.trace_seed, spec.trace_len());
        }
        let lead = &pending[members[0]].1;
        let configs: Vec<SimConfig> = members.iter().map(|&i| pending[i].1.sim).collect();
        let reports = replay_sweep(
            annotation,
            &configs,
            lead.warmup,
            lead.instructions,
            &self.telemetry,
        )
        // analysis: allow(panic-path) — the same configurations construct
        // engines on the per-cell path; annotation already validated the
        // cache and predictor, the planner only groups engine-legal cells,
        // and no caller sets the absurd miss latencies that could leave
        // the kernel's cycle range
        .expect("sweep-kernel lanes share the engine's validated configs");
        if self.telemetry.is_enabled() {
            let wait_us = queued_at.elapsed_us();
            let busy_us = start.elapsed_us();
            let per_cell_us = busy_us / members.len() as f64;
            for _ in members {
                self.telemetry
                    .histogram("runner.queue_wait_us", &DEFAULT_TIME_BUCKETS_US)
                    .record(wait_us);
                self.telemetry
                    .histogram("runner.cell_time_us", &DEFAULT_TIME_BUCKETS_US)
                    .record(per_cell_us);
            }
            self.telemetry.counter("runner.sweep_kernel.groups").inc();
            self.telemetry
                .counter("runner.sweep_kernel.cells")
                .add(members.len() as u64);
            // Exact replay work: every lane steps through the warmup and
            // the measured window, clamped to the annotated stream.
            let replayed = lead
                .warmup
                .saturating_add(lead.instructions)
                .min(annotation.len() as u64);
            self.telemetry
                .counter("runner.sweep_kernel.lane_instructions")
                .add(members.len() as u64 * replayed);
            self.telemetry
                .counter("runner.worker_busy_us")
                .add(busy_us as u64);
        }
        reports.into_iter().map(Arc::new).collect()
    }

    /// Flushes the delta of the process-global [`WorkloadModel`]
    /// fingerprint-memo hit counter into telemetry, against this runner's
    /// own watermark.
    ///
    /// [`WorkloadModel`]: pipedepth_trace::WorkloadModel
    fn flush_memo_hits(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let seen = pipedepth_trace::fingerprint_memo_hits();
        let prev = self.memo_hits_seen.swap(seen, Ordering::Relaxed);
        self.telemetry
            .counter("trace.arena.fingerprint_memo_hits")
            .add(seen.saturating_sub(prev));
    }

    /// Sweeps one workload on the paper machine.
    pub fn sweep_workload(&self, workload: &Workload, config: &RunConfig) -> WorkloadCurve {
        self.sweep_workload_with(workload, config, SimConfig::paper)
    }

    /// Sweeps one workload with a custom machine builder (ablations and
    /// the issue-policy study vary the microarchitecture per depth).
    pub fn sweep_workload_with(
        &self,
        workload: &Workload,
        config: &RunConfig,
        make_sim: impl Fn(u32) -> SimConfig,
    ) -> WorkloadCurve {
        let cells = depth_cells(workload, config, &make_sim);
        let reports = self.run_cells(&cells);
        curve_from_reports(workload, config, &reports)
    }

    /// Sweeps many workloads as one flat cell batch — the scheduler
    /// distributes individual (workload, depth) cells, not whole workloads.
    pub fn sweep_all(&self, workloads: &[Workload], config: &RunConfig) -> Vec<WorkloadCurve> {
        let cells: Vec<CellSpec> = workloads
            .iter()
            .flat_map(|w| depth_cells(w, config, &SimConfig::paper))
            .collect();
        let reports = self.run_cells(&cells);
        workloads
            .iter()
            .zip(reports.chunks(config.depths.len()))
            .map(|(w, chunk)| curve_from_reports(w, config, chunk))
            .collect()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new(0)
    }
}

/// The cells of one workload's depth sweep.
fn depth_cells(
    workload: &Workload,
    config: &RunConfig,
    make_sim: &impl Fn(u32) -> SimConfig,
) -> Vec<CellSpec> {
    config
        .depths
        .iter()
        .map(|&depth| {
            CellSpec::new(
                workload,
                make_sim(depth),
                config.warmup,
                config.instructions,
            )
        })
        .collect()
}

/// Assembles a [`WorkloadCurve`] from one report per configured depth,
/// extracting theory parameters at the reference depth (falling back to
/// the deepest point when the reference is not in the sweep).
fn curve_from_reports(
    workload: &Workload,
    config: &RunConfig,
    reports: &[Arc<SimReport>],
) -> WorkloadCurve {
    assert_eq!(
        reports.len(),
        config.depths.len(),
        "one report per configured depth"
    );
    let gated = config.power_gated();
    let ungated = config.power_ungated();
    let mut points = Vec::with_capacity(config.depths.len());
    let mut extracted = None;
    for (&depth, report) in config.depths.iter().zip(reports) {
        if depth == config.ref_depth
            || (extracted.is_none() && Some(&depth) == config.depths.last())
        {
            extracted = Some(extract_from_report(report, &gated));
        }
        points.push(DepthPoint {
            depth,
            throughput: report.throughput(),
            metric_gated: [
                metric(report, &gated, 1.0),
                metric(report, &gated, 2.0),
                metric(report, &gated, 3.0),
            ],
            metric_ungated: [
                metric(report, &ungated, 1.0),
                metric(report, &ungated, 2.0),
                metric(report, &ungated, 3.0),
            ],
            cpi: report.cpi(),
        });
    }
    WorkloadCurve {
        workload: workload.clone(),
        points,
        // analysis: allow(panic-path) — the assert above pins reports to
        // depths, and the loop extracts at the last depth if nothing else
        extracted: extracted.expect("sweep covered at least one depth"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedepth_workloads::representatives;

    fn tiny() -> RunConfig {
        RunConfig {
            warmup: 2_000,
            instructions: 4_000,
            depths: vec![4, 8, 12],
            ..RunConfig::default()
        }
    }

    fn cells_of(w: &Workload, cfg: &RunConfig) -> Vec<CellSpec> {
        depth_cells(w, cfg, &SimConfig::paper)
    }

    #[test]
    fn repeat_batches_hit_the_cache() {
        let runner = Runner::serial();
        let cells = cells_of(&representatives()[0], &tiny());
        let first = runner.run_cells(&cells);
        let again = runner.run_cells(&cells);
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b), "second batch must reuse reports");
        }
        let stats = runner.cache_stats().expect("cache enabled by default");
        assert_eq!(stats.misses, cells.len() as u64);
        assert_eq!(stats.hits, cells.len() as u64);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn in_batch_duplicates_simulate_once() {
        let runner = Runner::serial();
        let base = cells_of(&representatives()[0], &tiny());
        let doubled: Vec<CellSpec> = base.iter().chain(base.iter()).copied().collect();
        let reports = runner.run_cells(&doubled);
        let stats = runner.cache_stats().expect("cache enabled by default");
        assert_eq!(stats.misses, base.len() as u64);
        for (a, b) in reports[..base.len()].iter().zip(&reports[base.len()..]) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let ws = representatives();
        let cfg = tiny();
        let serial = Runner::serial().sweep_all(&ws, &cfg);
        let parallel = Runner::new(4).sweep_all(&ws, &cfg);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn arena_counters_are_thread_count_invariant() {
        let ws = representatives();
        let cfg = tiny();
        let stats_with = |threads: usize| {
            let runner = Runner::new(threads);
            runner.sweep_all(&ws, &cfg);
            runner.arena_stats().expect("arena enabled by default")
        };
        let serial = stats_with(1);
        let parallel = stats_with(4);
        assert_eq!(serial, parallel);
        // One materialisation per workload; every simulated cell then hits.
        assert_eq!(serial.misses, ws.len() as u64);
        assert_eq!(serial.hits, (ws.len() * cfg.depths.len()) as u64);
        assert!(serial.hit_rate() > 0.7, "hit rate {}", serial.hit_rate());
    }

    #[test]
    fn sweep_all_matches_per_workload_sweeps() {
        let ws = representatives();
        let cfg = tiny();
        let runner = Runner::new(3);
        let all = runner.sweep_all(&ws, &cfg);
        let single = Runner::serial();
        for (w, curve) in ws.iter().zip(&all) {
            assert_eq!(&single.sweep_workload(w, &cfg), curve);
        }
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn telemetry_counters_are_thread_count_invariant() {
        let ws = representatives();
        let cfg = tiny();
        let run = |threads: usize| {
            let telemetry = Telemetry::new();
            let runner = Runner::new(threads).with_telemetry(telemetry.clone());
            runner.sweep_all(&ws, &cfg);
            runner.sweep_all(&ws, &cfg); // second pass exercises cache hits
            telemetry.snapshot()
        };
        let serial = run(1);
        let parallel = run(4);
        let cells = (ws.len() * cfg.depths.len()) as u64;
        assert_eq!(serial.counter("runner.cells_requested"), 2 * cells);
        assert_eq!(serial.counter("runner.cells_simulated"), cells);
        assert_eq!(serial.counter("runner.cache_hits"), cells);
        assert_eq!(serial.counter("runner.cache_inserts"), cells);
        for name in [
            "runner.cells_requested",
            "runner.cells_simulated",
            "runner.cache_hits",
            "runner.cache_inserts",
            "sim.instructions",
            "sim.predictor.hits",
            "sim.predictor.misses",
            "trace.instructions_generated",
            "trace.arena.hits",
            "trace.arena.misses",
            "trace.arena.instructions_materialized",
        ] {
            assert_eq!(serial.counter(name), parallel.counter(name), "{name}");
            assert!(serial.get(name).is_some(), "{name} missing");
        }
        // Timing histograms observe exactly one sample per simulated cell
        // regardless of scheduling.
        for snap in [&serial, &parallel] {
            let hist = snap.histogram("runner.cell_time_us").expect("cell timing");
            assert_eq!(hist.count, cells);
            let wait = snap.histogram("runner.queue_wait_us").expect("queue wait");
            assert_eq!(wait.count, cells);
        }
    }

    #[test]
    fn sweep_kernel_matches_the_engine_path_bit_for_bit() {
        let ws = representatives();
        let cfg = tiny();
        let kernel = Runner::serial().sweep_all(&ws, &cfg);
        let engine = Runner::serial().without_sweep_kernel().sweep_all(&ws, &cfg);
        assert_eq!(kernel, engine, "--no-sweep-kernel must not change curves");
    }

    #[test]
    fn sweep_kernel_preserves_arena_and_cache_counters() {
        let ws = representatives();
        let cfg = tiny();
        let stats = |runner: Runner| {
            runner.sweep_all(&ws, &cfg);
            (
                runner.arena_stats().expect("arena on"),
                runner.cache_stats().expect("cache on"),
            )
        };
        let (arena_on, cache_on) = stats(Runner::serial());
        let (arena_off, cache_off) = stats(Runner::serial().without_sweep_kernel());
        assert_eq!(
            arena_on, arena_off,
            "kernel must not perturb arena counters"
        );
        assert_eq!(cache_on.hits, cache_off.hits);
        assert_eq!(cache_on.misses, cache_off.misses);
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn sweep_kernel_groups_whole_depth_sweeps() {
        let ws = representatives();
        let cfg = tiny();
        let telemetry = Telemetry::new();
        let runner = Runner::new(2).with_telemetry(telemetry.clone());
        runner.sweep_all(&ws, &cfg);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("runner.sweep_kernel.groups"), ws.len() as u64);
        assert_eq!(
            snap.counter("runner.sweep_kernel.cells"),
            (ws.len() * cfg.depths.len()) as u64
        );
        assert_eq!(
            snap.counter("runner.sweep_kernel.lane_instructions"),
            (ws.len() * cfg.depths.len()) as u64 * (cfg.warmup + cfg.instructions)
        );
        // One annotation pass per workload stream, reused by every lane.
        assert_eq!(snap.counter("trace.annotate.misses"), ws.len() as u64);
        assert_eq!(snap.counter("trace.annotate.hits"), 0);
        // Scheduling histograms still observe one sample per cell.
        let cells = (ws.len() * cfg.depths.len()) as u64;
        let hist = snap.histogram("runner.cell_time_us").expect("cell timing");
        assert_eq!(hist.count, cells);
        let wait = snap.histogram("runner.queue_wait_us").expect("queue wait");
        assert_eq!(wait.count, cells);
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn singletons_and_disabled_kernel_skip_grouping() {
        let ws = representatives();
        let single_depth = RunConfig {
            depths: vec![8],
            ..tiny()
        };
        let telemetry = Telemetry::new();
        let runner = Runner::serial().with_telemetry(telemetry.clone());
        runner.sweep_all(&ws, &single_depth);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("runner.sweep_kernel.groups"), 0);
        assert_eq!(snap.counter("runner.sweep_kernel.cells"), 0);
        assert_eq!(snap.counter("runner.sweep_kernel.lane_instructions"), 0);

        let telemetry = Telemetry::new();
        let runner = Runner::serial()
            .without_sweep_kernel()
            .with_telemetry(telemetry.clone());
        runner.sweep_all(&ws, &tiny());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("runner.sweep_kernel.groups"), 0);
        assert_eq!(snap.counter("trace.annotate.misses"), 0);
    }

    #[test]
    fn kernel_groups_custom_machines_separately() {
        // Width-2 cells group with each other but never with the paper
        // machine: grouping compares the full depth-neutralised config.
        let runner = Runner::serial();
        let w = &representatives()[0];
        let cfg = tiny();
        let paper = runner.sweep_workload(w, &cfg);
        let wide = runner.sweep_workload_with(w, &cfg, |depth| SimConfig {
            width: 2,
            ..SimConfig::paper(depth)
        });
        let reference = Runner::serial().without_sweep_kernel();
        assert_eq!(paper, reference.sweep_workload(w, &cfg));
        assert_eq!(
            wide,
            reference.sweep_workload_with(w, &cfg, |depth| SimConfig {
                width: 2,
                ..SimConfig::paper(depth)
            })
        );
    }

    #[test]
    fn custom_machines_do_not_collide_with_paper_cells() {
        let runner = Runner::serial();
        let w = &representatives()[0];
        let cfg = tiny();
        let paper = runner.sweep_workload(w, &cfg);
        let wide = runner.sweep_workload_with(w, &cfg, |depth| SimConfig {
            width: 2,
            ..SimConfig::paper(depth)
        });
        assert_ne!(paper.points, wide.points);
        let stats = runner.cache_stats().expect("cache enabled by default");
        assert_eq!(stats.misses, 2 * cfg.depths.len() as u64);
    }
}
