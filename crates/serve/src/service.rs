//! The evaluation service: backends, caching, deadlines, dispatch.
//!
//! [`EvalService`] is the HTTP-free core of `pipedepth-serve`. It owns
//!
//! * a **simulation backend** — a [`SimBackend`](pipedepth_experiments::eval::SimBackend) over an owned
//!   [`Runner`](pipedepth_experiments::runner::Runner) (worker pool, trace arena, report cache), reached through
//!   the [`BatchQueue`](crate::batch::BatchQueue) so concurrent requests coalesce and batch;
//! * an **analytic backend** — the closed-form [`AnalyticModel`](pipedepth_core::eval::AnalyticModel), answered
//!   inline (microseconds, no queue);
//! * an **outcome cache** — two [`ShardedCache`](pipedepth_core::eval::ShardedCache)s (one per backend, so a
//!   degraded analytic answer can never shadow a simulation result) keyed
//!   by [`CellSpec::key`](pipedepth_core::eval::CellSpec::key), the same cache type the repro driver's runner
//!   uses for simulation reports; under `--store` the simulation side
//!   sits in front of a warm tier, the persistent store's decoded
//!   snapshot;
//! * **deadline handling** — a per-request budget; `auto` requests degrade
//!   to the analytic model when the budget rules simulation out (either up
//!   front, via a running instructions-per-microsecond estimate, or after
//!   a timed-out wait), while `sim` requests fail with
//!   `deadline_exceeded`.
//!
//! The server layer (`server.rs`) wraps this in HTTP and owns the worker
//! threads that loop on [`EvalService::dispatch_loop`].

use crate::batch::{BatchQueue, Shed};
use crate::store::OutcomeStore;
use crate::wire::v1::{
    CellResult, EvaluateRequest, EvaluateResponse, OptimumResponse, WireBackend,
};
use pipedepth_core::eval::{AnalyticModel, CellSpec, EvalOutcome, Evaluator, ShardedCache};
use pipedepth_core::EvalError;
use pipedepth_experiments::eval::{cell_for, fitted_profile, SimBackend};
use pipedepth_experiments::runner::Runner;
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_telemetry::{Stopwatch, Telemetry, DEFAULT_TIME_BUCKETS_US};
use pipedepth_workloads::{suite, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Depth range `GET /v1/optimum` searches (the machine model's full valid
/// range).
pub const OPTIMUM_DEPTHS: std::ops::RangeInclusive<u32> = 2..=64;

/// Bucket bounds for the `serve.batch_size` histogram.
const BATCH_SIZE_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// How the service is sized and defaulted. The `pipedepth-serve` binary
/// fills this from its flags.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulation worker threads inside the runner's pool.
    pub threads: usize,
    /// Dispatch workers draining the batch queue. One is usually right:
    /// it maximises batching, and parallelism comes from the runner pool.
    pub workers: usize,
    /// Most cells the queue admits before shedding (429).
    pub queue_cap: usize,
    /// Most cells one dispatch sends to the backend at once.
    pub batch_max: usize,
    /// Default per-request deadline in milliseconds; 0 means none.
    pub deadline_ms: u64,
    /// When set, pins every request to this backend regardless of what
    /// the request asked for (the `--backend` flag).
    pub backend: Option<WireBackend>,
    /// When set, the directory of the persistent outcome store: the
    /// simulation cache warm-starts from its snapshot and the service
    /// snapshots back into it (periodically and at drain).
    pub store: Option<std::path::PathBuf>,
    /// Template run configuration: sizing and power calibration for cells
    /// that do not override them.
    pub run: RunConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 2,
            workers: 1,
            queue_cap: 1024,
            batch_max: 32,
            deadline_ms: 0,
            backend: None,
            store: None,
            run: RunConfig::quick(),
        }
    }
}

/// How many simulation-outcome inserts accumulate between periodic store
/// snapshots. Deterministic (a count, not a timer) so tests can force a
/// snapshot by answering exactly this many distinct cells.
pub const STORE_FLUSH_EVERY: u64 = 64;

/// Per-backend outcome caches. Split by backend so an `auto` request that
/// degraded to the model can never satisfy a later `sim` request. The
/// simulation side may have a warm tier: the persistent store's decoded
/// snapshot, probed on memory misses with promote-on-hit.
/// The model side stays purely in-memory — analytic answers cost
/// microseconds and are never persisted.
#[derive(Debug)]
struct OutcomeCache {
    sim: ShardedCache<CellSpec, EvalOutcome>,
    model: ShardedCache<CellSpec, EvalOutcome>,
}

/// The evaluation service. See the module docs for the architecture.
pub struct EvalService {
    sim: SimBackend,
    model: AnalyticModel,
    cache: OutcomeCache,
    queue: BatchQueue,
    telemetry: Telemetry,
    by_name: BTreeMap<String, Workload>,
    run: RunConfig,
    default_deadline_ms: u64,
    backend_override: Option<WireBackend>,
    /// Observed simulation throughput in instructions per microsecond,
    /// stored as `f64` bits; 0 until the first dispatch completes.
    rate_bits: AtomicU64,
    /// The persistent outcome store (`--store`), when configured. All its
    /// runtime methods take `&self`, so the `Arc`'d
    /// service snapshots and syncs without extra locking.
    store: Option<OutcomeStore>,
    /// Simulation-outcome inserts since the last periodic store snapshot.
    store_pending: AtomicU64,
}

impl std::fmt::Debug for EvalService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalService")
            .field("workloads", &self.by_name.len())
            .field("queue_depth", &self.queue.depth())
            .finish()
    }
}

impl EvalService {
    /// Builds the service: runner pool, backends, caches and queue. The
    /// telemetry handle is shared with the runner, so `/metrics` exposes
    /// `runner.*` and `sim.*` alongside `serve.*`.
    pub fn new(config: ServiceConfig, telemetry: Telemetry) -> Self {
        let runner = Runner::new(config.threads.max(1)).with_telemetry(telemetry.clone());
        let workloads = suite();
        // The persistent store is a tier below the simulation outcome
        // cache: its snapshot warm-starts that cache.
        let mut store = config
            .store
            .as_deref()
            .map(|dir| OutcomeStore::open(dir, &config.run, &telemetry));
        let sim_cache = match store.as_mut() {
            Some(store) => ShardedCache::backed_by(store.load()),
            None => ShardedCache::new(),
        };
        EvalService {
            sim: SimBackend::new(Arc::new(runner)),
            model: AnalyticModel::paper(),
            cache: OutcomeCache {
                sim: sim_cache,
                model: ShardedCache::new(),
            },
            queue: BatchQueue::new(config.queue_cap, config.batch_max),
            telemetry,
            by_name: workloads
                .iter()
                .map(|w| (w.name.clone(), w.clone()))
                .collect(),
            run: config.run,
            default_deadline_ms: config.deadline_ms,
            backend_override: config.backend,
            rate_bits: AtomicU64::new(0),
            store,
            store_pending: AtomicU64::new(0),
        }
    }

    /// The service's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Answers one decoded request.
    ///
    /// # Errors
    ///
    /// [`Shed`] when admission control refuses the request's simulation
    /// cells — the HTTP layer turns that into a 429 with `Retry-After`
    /// (or a 503 while shutting down).
    pub fn evaluate(&self, request: &EvaluateRequest) -> Result<EvaluateResponse, Shed> {
        let started = Stopwatch::start();
        self.telemetry.counter("serve.requests").inc();
        self.telemetry
            .counter("serve.cells_requested")
            .add(request.cells.len() as u64);
        let backend = self.backend_override.unwrap_or(request.backend);
        let deadline_ms = match request.deadline_ms {
            Some(d) => Some(d),
            None if self.default_deadline_ms == 0 => None,
            None => Some(self.default_deadline_ms),
        };
        let cells: Vec<Result<CellSpec, EvalError>> =
            request.cells.iter().map(|c| self.resolve(c)).collect();
        let results = match backend {
            WireBackend::Model => cells
                .iter()
                .map(|cell| match cell {
                    Ok(spec) => self.model_result(spec, false),
                    Err(e) => error_result(e.clone(), "model"),
                })
                .collect(),
            WireBackend::Sim => self.answer_queued(&cells, deadline_ms, started, false)?,
            WireBackend::Auto => self.answer_queued(&cells, deadline_ms, started, true)?,
        };
        self.telemetry
            .histogram("serve.request_us", &DEFAULT_TIME_BUCKETS_US)
            .record(started.elapsed_us());
        Ok(EvaluateResponse { results })
    }

    /// Resolves a wire cell against the service's defaults: the
    /// workload's fitted analytic profile plus the run configuration's
    /// sizing and power calibration, unless the cell overrides them.
    /// Unknown workloads are accepted only with an explicit profile (the
    /// analytic model can evaluate any profile; the simulation backend
    /// will still reject them as values).
    fn resolve(&self, cell: &crate::wire::v1::WireCell) -> Result<CellSpec, EvalError> {
        let template = match self.by_name.get(&cell.workload) {
            Some(w) => cell_for(w, fitted_profile(w), cell.depth, &self.run),
            None => match cell.profile {
                Some(profile) => {
                    let mut t = CellSpec::new(cell.workload.clone(), profile, cell.depth);
                    t.warmup = self.run.warmup;
                    t.instructions = self.run.instructions;
                    t.leakage_fraction = self.run.leakage_fraction;
                    t.ref_depth = self.run.ref_depth as f64;
                    t
                }
                None => {
                    return Err(EvalError::invalid(format!(
                        "unknown workload \"{}\" (and no explicit profile given)",
                        cell.workload
                    )))
                }
            },
        };
        let spec = cell.resolve(&template);
        spec.validate()?;
        Ok(spec)
    }

    /// Answers a request through the analytic model, inline.
    fn model_result(&self, spec: &CellSpec, degraded: bool) -> CellResult {
        if degraded {
            self.telemetry.counter("serve.degraded").inc();
        }
        let cache = &self.cache.model;
        let outcome = match cache.get(spec.key(), spec) {
            Some(hit) => {
                self.telemetry.counter("serve.cache_hits").inc();
                cache.count_hits(1);
                Ok(*hit)
            }
            None => {
                cache.count_misses(1);
                let result = self.model.evaluate(spec);
                if let Ok(out) = &result {
                    cache.insert(spec.key(), spec.clone(), Arc::new(*out));
                }
                result
            }
        };
        CellResult {
            outcome,
            backend: "model",
            degraded,
        }
    }

    /// The sim/auto path: outcome cache, then the coalescing queue, then
    /// a deadline-bounded wait. `auto` degrades to the model instead of
    /// failing when the deadline rules simulation out.
    fn answer_queued(
        &self,
        cells: &[Result<CellSpec, EvalError>],
        deadline_ms: Option<u64>,
        started: Stopwatch,
        auto: bool,
    ) -> Result<Vec<CellResult>, Shed> {
        let mut results: Vec<Option<CellResult>> = vec![None; cells.len()];
        let mut submit_idx: Vec<usize> = Vec::new();
        let mut submit_specs: Vec<CellSpec> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            match cell {
                Err(e) => results[i] = Some(error_result(e.clone(), "sim")),
                Ok(spec) => match self.cache.sim.get(spec.key(), spec) {
                    Some(hit) => {
                        self.telemetry.counter("serve.cache_hits").inc();
                        self.cache.sim.count_hits(1);
                        results[i] = Some(CellResult {
                            outcome: Ok(*hit),
                            backend: "sim",
                            degraded: false,
                        });
                    }
                    None => {
                        self.cache.sim.count_misses(1);
                        submit_idx.push(i);
                        submit_specs.push(spec.clone());
                    }
                },
            }
        }
        if submit_specs.is_empty() {
            return Ok(finish_results(results));
        }
        // Pre-dispatch degradation: when the budget cannot possibly cover
        // the simulation (by the observed throughput estimate), an `auto`
        // request skips the queue entirely.
        if auto {
            if let Some(d) = deadline_ms {
                let budget_us = (d as f64) * 1_000.0 - started.elapsed_us();
                if self.estimated_us(&submit_specs) > budget_us {
                    for (&i, spec) in submit_idx.iter().zip(&submit_specs) {
                        results[i] = Some(self.model_result(spec, true));
                    }
                    return Ok(finish_results(results));
                }
            }
        }
        // The probe re-checks the outcome cache under the queue lock, so a
        // dispatch completing between the pre-check above and admission
        // still answers from cache instead of re-enqueuing its cells.
        let admitted = self
            .queue
            .submit_with(&submit_specs, |spec| {
                self.cache.sim.get(spec.key(), spec).map(|hit| *hit)
            })
            .inspect_err(|_| {
                self.telemetry.counter("serve.shed").inc();
            })?;
        if admitted.cached > 0 {
            self.telemetry
                .counter("serve.cache_hits")
                .add(admitted.cached);
            self.cache.sim.count_hits(admitted.cached);
        }
        self.telemetry
            .counter("serve.coalesced")
            .add(admitted.coalesced);
        self.telemetry
            .counter("serve.enqueued")
            .add(admitted.enqueued);
        self.telemetry
            .gauge("serve.queue_depth")
            .set(self.queue.depth() as f64);
        for ((&i, spec), slot) in submit_idx.iter().zip(&submit_specs).zip(&admitted.slots) {
            let waited = match deadline_ms {
                None => Some(slot.wait()),
                Some(d) => {
                    let remaining_us = (d as f64) * 1_000.0 - started.elapsed_us();
                    // An already-exhausted budget times out deterministically
                    // — even a racing just-finished dispatch is not consulted,
                    // so `deadline_ms: 0` always answers the same way.
                    if remaining_us <= 0.0 {
                        None
                    } else {
                        slot.wait_for(Duration::from_micros(remaining_us as u64))
                    }
                }
            };
            results[i] = Some(match waited {
                // The dispatch worker already published the outcome to the
                // cache before filling the slot.
                Some(Ok(out)) => CellResult {
                    outcome: Ok(out),
                    backend: "sim",
                    degraded: false,
                },
                Some(Err(e)) => error_result(e, "sim"),
                // Timed out. The dispatch keeps running and will warm the
                // cache; this request degrades (auto) or fails (sim).
                None if auto => self.model_result(spec, true),
                None => error_result(
                    EvalError::DeadlineExceeded {
                        budget_ms: deadline_ms.unwrap_or(0),
                    },
                    "sim",
                ),
            });
        }
        Ok(finish_results(results))
    }

    /// Computes the optimum depth for a workload under `BIPS^m/W` with
    /// the analytic model across [`OPTIMUM_DEPTHS`].
    ///
    /// # Errors
    ///
    /// `invalid_cell` for unknown workloads or `m` outside `1..=3`, and
    /// `backend_error` if no depth evaluates (cannot happen for fitted
    /// profiles).
    pub fn optimum(&self, workload: &str, m: u32) -> Result<OptimumResponse, EvalError> {
        if !(1..=3).contains(&m) {
            return Err(EvalError::invalid(format!("m must be 1, 2 or 3 (got {m})")));
        }
        let w = self
            .by_name
            .get(workload)
            .ok_or_else(|| EvalError::invalid(format!("unknown workload \"{workload}\"")))?;
        let profile = fitted_profile(w);
        let cells: Vec<CellSpec> = OPTIMUM_DEPTHS
            .map(|depth| cell_for(w, profile, depth, &self.run))
            .collect();
        let mut best: Option<(u32, f64, f64)> = None;
        let mut best_perf: Option<(u32, f64)> = None;
        for result in self.model.evaluate_batch(&cells) {
            let out = result?;
            let metric = out.metric_gated[(m - 1) as usize];
            if best.is_none_or(|(_, m0, _)| metric > m0) {
                best = Some((out.depth, metric, out.throughput));
            }
            if best_perf.is_none_or(|(_, t0)| out.throughput > t0) {
                best_perf = Some((out.depth, out.throughput));
            }
        }
        let ((optimum_depth, metric, throughput), (perf_only_depth, _)) =
            best.zip(best_perf).ok_or_else(|| EvalError::Backend {
                backend: "model".to_string(),
                message: "no depth evaluated".to_string(),
            })?;
        Ok(OptimumResponse {
            workload: workload.to_string(),
            m,
            optimum_depth,
            metric,
            throughput,
            perf_only_depth,
        })
    }

    /// The dispatch-worker body: drains batches from the queue into
    /// single [`Evaluator::evaluate_batch`] calls until the queue closes
    /// and empties. The server runs this on `workers` threads.
    pub fn dispatch_loop(&self) {
        while let Some(batch) = self.queue.next_batch() {
            let watch = Stopwatch::start();
            self.telemetry.counter("serve.dispatches").inc();
            self.telemetry
                .counter("serve.dispatch_cells")
                .add(batch.len() as u64);
            self.telemetry
                .histogram("serve.batch_size", &BATCH_SIZE_BOUNDS)
                .record(batch.len() as f64);
            let specs: Vec<CellSpec> = batch.iter().map(|c| c.spec.clone()).collect();
            let results = self.dispatch_specs(&specs);
            // Publish outcomes BEFORE `finish` retires the cells from the
            // coalescing index: `submit_with` probes the cache under the
            // queue lock, so a live-index miss there must already see
            // these results.
            let mut inserted = 0u64;
            for (spec, result) in specs.iter().zip(&results) {
                if let Ok(out) = result {
                    if self
                        .cache
                        .sim
                        .insert(spec.key(), spec.clone(), Arc::new(*out))
                    {
                        inserted += 1;
                    }
                }
            }
            if inserted > 0 && self.store.is_some() {
                // Deterministic periodic snapshotting: every
                // `STORE_FLUSH_EVERY` distinct new outcomes, publish the
                // memory tier write-behind. Racing dispatchers may both
                // cross the threshold — an extra snapshot is harmless
                // (last-writer-wins on one file), a missed one is caught
                // by the drain-time snapshot.
                let pending = self.store_pending.fetch_add(inserted, Ordering::Relaxed) + inserted;
                if pending >= STORE_FLUSH_EVERY {
                    self.store_pending.store(0, Ordering::Relaxed);
                    self.snapshot_store();
                }
            }
            let work: f64 = specs
                .iter()
                .map(|c| (c.warmup + c.instructions) as f64)
                .sum();
            self.observe_rate(work, watch.elapsed_us());
            self.queue.finish(batch, results);
            self.telemetry
                .gauge("serve.queue_depth")
                .set(self.queue.depth() as f64);
        }
    }

    /// Evaluates one drained batch, routing same-workload depth groups
    /// through [`Evaluator::evaluate_sweep`] — the simulation backend's
    /// annotate-once / replay-per-depth kernel — so a coalesced sweep
    /// request costs one annotation and one batched trace pass. Cells
    /// with no sweep mates in the batch go through one ordinary
    /// [`Evaluator::evaluate_batch`] dispatch, as before.
    fn dispatch_specs(&self, specs: &[CellSpec]) -> Vec<Result<EvalOutcome, EvalError>> {
        // Two cells are sweep mates when they differ only in depth.
        let mates = |a: &CellSpec, b: &CellSpec| {
            a.workload == b.workload
                && a.profile == b.profile
                && a.warmup == b.warmup
                && a.instructions == b.instructions
                && a.leakage_fraction == b.leakage_fraction
                && a.ref_depth == b.ref_depth
                && a.latch_growth == b.latch_growth
        };
        let mut results: Vec<Option<Result<EvalOutcome, EvalError>>> = vec![None; specs.len()];
        let mut assigned = vec![false; specs.len()];
        let mut loners: Vec<usize> = Vec::new();
        for i in 0..specs.len() {
            if assigned[i] {
                continue;
            }
            assigned[i] = true;
            let mut members = vec![i];
            for j in (i + 1)..specs.len() {
                if !assigned[j] && mates(&specs[i], &specs[j]) {
                    assigned[j] = true;
                    members.push(j);
                }
            }
            if members.len() < 2 {
                loners.push(i);
                continue;
            }
            let depths: Vec<u32> = members.iter().map(|&j| specs[j].depth).collect();
            self.telemetry.counter("serve.sweep_kernel.groups").inc();
            self.telemetry
                .counter("serve.sweep_kernel.cells")
                .add(members.len() as u64);
            for (&j, outcome) in members
                .iter()
                .zip(self.sim.evaluate_sweep(&specs[i], &depths))
            {
                results[j] = Some(outcome);
            }
        }
        if !loners.is_empty() {
            let cells: Vec<CellSpec> = loners.iter().map(|&i| specs[i].clone()).collect();
            for (&i, outcome) in loners.iter().zip(self.sim.evaluate_batch(&cells)) {
                results[i] = Some(outcome);
            }
        }
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(EvalError::Backend {
                        backend: "sim".to_string(),
                        message: "internal: cell left undispatched".to_string(),
                    })
                })
            })
            .collect()
    }

    /// Stops admitting work; dispatch workers drain and exit.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Publishes one write-behind snapshot of the simulation cache's
    /// memory tier. The entries are snapshotted here, on the calling
    /// thread, with every shard guard already dropped — the flusher job
    /// owns its data outright (lock-order discipline).
    fn snapshot_store(&self) {
        if let Some(store) = &self.store {
            store.flush(self.cache.sim.entries());
        }
    }

    /// Drain-time store finalisation: one last snapshot of everything the
    /// server answered, the lifetime warm-tier probe counters, and a sync
    /// that blocks until the backlog is durably published. The server
    /// calls this after the dispatch workers have joined and before the
    /// stats line, so a drained process is always restartable from its
    /// final state and the line reports true flush counts. A no-op
    /// without `--store`.
    pub fn finish_store(&self) {
        let Some(store) = &self.store else {
            return;
        };
        // Only publish if outcomes arrived since the last periodic
        // snapshot — a fully warm session (every answer from the loaded
        // tier) re-encodes nothing and leaves the superset snapshot on
        // disk untouched.
        if self.store_pending.swap(0, Ordering::Relaxed) > 0 {
            self.snapshot_store();
        }
        if let Some(stats) = self.cache.sim.warm_stats() {
            store.record_warm(stats.hits, stats.misses);
        }
        store.sync();
    }

    /// Current instructions-per-microsecond estimate (0 before the first
    /// dispatch).
    fn rate(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }

    /// Folds a finished dispatch into the throughput estimate (EMA, 30%
    /// weight on the new sample).
    fn observe_rate(&self, instructions: f64, elapsed_us: f64) {
        if instructions <= 0.0 || elapsed_us <= 0.0 {
            return;
        }
        let sample = instructions / elapsed_us;
        let old = self.rate();
        let next = if old > 0.0 {
            0.7 * old + 0.3 * sample
        } else {
            sample
        };
        self.rate_bits.store(next.to_bits(), Ordering::Relaxed);
    }

    /// Estimated microseconds to simulate `cells`, from the observed
    /// rate; at least 1µs per cell, so a zero budget always degrades.
    fn estimated_us(&self, cells: &[CellSpec]) -> f64 {
        let rate = self.rate();
        cells
            .iter()
            .map(|c| {
                let work = (c.warmup + c.instructions) as f64;
                if rate > 0.0 {
                    (work / rate).max(1.0)
                } else {
                    // No observation yet: assume 1 instruction/µs.
                    work.max(1.0)
                }
            })
            .sum()
    }

    /// One line summarising the service's lifetime counters, printed at
    /// shutdown.
    pub fn stats_line(&self) -> String {
        let snap = self.telemetry.snapshot();
        let mut line = format!(
            "serve: {} requests, {} cells ({} cache hits, {} coalesced, {} degraded, {} shed) \
             over {} dispatches",
            snap.counter("serve.requests"),
            snap.counter("serve.cells_requested"),
            snap.counter("serve.cache_hits"),
            snap.counter("serve.coalesced"),
            snap.counter("serve.degraded"),
            snap.counter("serve.shed"),
            snap.counter("serve.dispatches"),
        );
        if let Some(store) = &self.store {
            line.push_str(&format!(
                "; store: {} outcome(s) loaded, {} warm hit(s), {} snapshot(s) published",
                store.loaded(),
                self.cache.sim.warm_stats().map_or(0, |warm| warm.hits),
                store.flushes(),
            ));
        }
        line
    }
}

/// A cell answered by an error value.
fn error_result(e: EvalError, backend: &'static str) -> CellResult {
    CellResult {
        outcome: Err(e),
        backend,
        degraded: false,
    }
}

/// Unwraps the per-index result slots; an unfilled slot (unreachable)
/// fails soft as a backend error rather than panicking.
fn finish_results(results: Vec<Option<CellResult>>) -> Vec<CellResult> {
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                error_result(
                    EvalError::Backend {
                        backend: "serve".to_string(),
                        message: "internal: cell left unanswered".to_string(),
                    },
                    "sim",
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::v1::WireCell;
    use std::thread;

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            threads: 1,
            run: RunConfig {
                warmup: 1_000,
                instructions: 2_000,
                ..RunConfig::quick()
            },
            ..ServiceConfig::default()
        }
    }

    fn service(config: ServiceConfig) -> Arc<EvalService> {
        Arc::new(EvalService::new(config, Telemetry::new()))
    }

    fn request(
        backend: WireBackend,
        deadline_ms: Option<u64>,
        cells: Vec<WireCell>,
    ) -> EvaluateRequest {
        EvaluateRequest {
            backend,
            deadline_ms,
            cells,
        }
    }

    /// Runs a closure with dispatch workers alive, closing the queue (and
    /// joining the workers) afterwards.
    fn with_workers<T>(svc: &Arc<EvalService>, f: impl FnOnce() -> T) -> T {
        let worker = {
            let svc = Arc::clone(svc);
            thread::spawn(move || svc.dispatch_loop())
        };
        let out = f();
        svc.close();
        worker.join().expect("worker exits cleanly");
        out
    }

    #[test]
    fn model_requests_answer_inline_and_cache() {
        let svc = service(quick_config());
        let req = request(
            WireBackend::Model,
            None,
            vec![
                WireCell::new("specint-00", 10),
                WireCell::new("specint-00", 10),
            ],
        );
        let resp = svc.evaluate(&req).expect("model path never sheds");
        assert_eq!(resp.results.len(), 2);
        for r in &resp.results {
            assert_eq!(r.backend, "model");
            assert!(!r.degraded);
            assert!(r.outcome.as_ref().expect("valid cell").throughput > 0.0);
        }
        let snap = svc.telemetry().snapshot();
        assert_eq!(snap.counter("serve.cache_hits"), 1, "second cell hits");
        assert_eq!(snap.counter("serve.dispatches"), 0, "no sim dispatch");
    }

    #[test]
    fn sim_requests_coalesce_and_match_the_backend() {
        let svc = service(quick_config());
        let cells = vec![
            WireCell::new("legacy-00", 8),
            WireCell::new("legacy-00", 8),
            WireCell::new("legacy-00", 12),
        ];
        let resp = with_workers(&svc, || {
            svc.evaluate(&request(WireBackend::Sim, None, cells))
                .expect("admitted")
        });
        assert_eq!(resp.results[0].outcome, resp.results[1].outcome);
        assert_eq!(resp.results[0].backend, "sim");
        let snap = svc.telemetry().snapshot();
        assert_eq!(snap.counter("serve.cells_requested"), 3);
        assert!(
            snap.counter("serve.dispatch_cells") <= 2,
            "duplicates never reach the backend"
        );
        // A repeat of the whole request is pure cache.
        let again = svc
            .evaluate(&request(
                WireBackend::Sim,
                None,
                vec![
                    WireCell::new("legacy-00", 8),
                    WireCell::new("legacy-00", 12),
                ],
            ))
            .expect("cache path never queues");
        assert_eq!(again.results[0].outcome, resp.results[0].outcome);
        let snap = svc.telemetry().snapshot();
        assert!(snap.counter("serve.cache_hits") >= 2);
    }

    #[test]
    fn depth_sweeps_route_through_the_sweep_kernel_seam() {
        let svc = service(quick_config());
        let cells = vec![
            WireCell::new("modern-01", 6),
            WireCell::new("modern-01", 10),
            WireCell::new("modern-01", 14),
            WireCell::new("legacy-02", 9), // a loner: no sweep mates
        ];
        let resp = with_workers(&svc, || {
            svc.evaluate(&request(WireBackend::Sim, None, cells))
                .expect("admitted")
        });
        for r in &resp.results {
            assert_eq!(r.backend, "sim");
            assert!(r.outcome.is_ok());
        }
        let snap = svc.telemetry().snapshot();
        assert_eq!(snap.counter("serve.sweep_kernel.groups"), 1);
        assert_eq!(snap.counter("serve.sweep_kernel.cells"), 3);
        // The seam changes routing, not results: a fresh service answers
        // the same cells identically through the per-cell path.
        let reference = service(quick_config());
        let again = with_workers(&reference, || {
            reference
                .evaluate(&request(
                    WireBackend::Sim,
                    None,
                    vec![WireCell::new("modern-01", 10)],
                ))
                .expect("admitted")
        });
        assert_eq!(again.results[0].outcome, resp.results[1].outcome);
    }

    #[test]
    fn zero_deadline_degrades_auto_to_the_model() {
        let svc = service(quick_config());
        let resp = svc
            .evaluate(&request(
                WireBackend::Auto,
                Some(0),
                vec![WireCell::new("fp-00", 9)],
            ))
            .expect("degraded requests do not queue");
        let r = &resp.results[0];
        assert_eq!(r.backend, "model");
        assert!(r.degraded, "zero budget rules simulation out");
        assert!(r.outcome.is_ok());
        assert_eq!(svc.telemetry().snapshot().counter("serve.degraded"), 1);
        // The same cell with `sim` misses its deadline instead.
        let resp = svc
            .evaluate(&request(
                WireBackend::Sim,
                Some(0),
                vec![WireCell::new("fp-00", 9)],
            ))
            .expect("admitted");
        let err = resp.results[0].outcome.as_ref().expect_err("deadline");
        assert_eq!(err.code(), "deadline_exceeded");
        // Drain the queued cell so the test leaves nothing running.
        with_workers(&svc, || {});
    }

    #[test]
    fn invalid_cells_fail_as_values_next_to_valid_ones() {
        let svc = service(quick_config());
        let resp = with_workers(&svc, || {
            svc.evaluate(&request(
                WireBackend::Sim,
                None,
                vec![
                    WireCell::new("no-such-workload", 8),
                    WireCell::new("modern-00", 8),
                ],
            ))
            .expect("admitted")
        });
        let err = resp.results[0]
            .outcome
            .as_ref()
            .expect_err("unknown workload");
        assert_eq!(err.code(), "invalid_cell");
        assert!(resp.results[1].outcome.is_ok(), "neighbour unaffected");
    }

    #[test]
    fn unknown_workload_with_explicit_profile_is_model_evaluable() {
        let svc = service(quick_config());
        let cell = WireCell {
            profile: Some(pipedepth_core::eval::WorkloadProfile {
                alpha: 2.0,
                gamma: 0.4,
                hazard_rate: 0.15,
                kappa: 0.22,
                memory_time_fo4: 12.0,
            }),
            ..WireCell::new("custom", 11)
        };
        let resp = svc
            .evaluate(&request(WireBackend::Model, None, vec![cell]))
            .expect("model path");
        assert!(resp.results[0].outcome.is_ok());
    }

    #[test]
    fn shed_when_the_queue_is_full() {
        let svc = service(ServiceConfig {
            queue_cap: 0,
            ..quick_config()
        });
        let shed = svc
            .evaluate(&request(
                WireBackend::Sim,
                None,
                vec![WireCell::new("legacy-01", 8)],
            ))
            .expect_err("zero-capacity queue sheds everything");
        assert!(matches!(shed, Shed::Overloaded { retry_after_s: 1 }));
        assert_eq!(svc.telemetry().snapshot().counter("serve.shed"), 1);
    }

    #[test]
    fn backend_override_pins_requests() {
        let svc = service(ServiceConfig {
            backend: Some(WireBackend::Model),
            ..quick_config()
        });
        let resp = svc
            .evaluate(&request(
                WireBackend::Sim,
                None,
                vec![WireCell::new("specint-01", 10)],
            ))
            .expect("model path");
        assert_eq!(resp.results[0].backend, "model", "--backend wins");
    }

    #[test]
    fn optimum_matches_a_manual_argmax() {
        let svc = service(quick_config());
        let opt = svc.optimum("specint-00", 3).expect("known workload");
        assert_eq!(opt.m, 3);
        assert!(OPTIMUM_DEPTHS.contains(&opt.optimum_depth));
        assert!(
            opt.perf_only_depth > opt.optimum_depth,
            "power-aware optimum is shallower than the raw-performance one"
        );
        // Cross-check against a direct model sweep.
        let w = suite()
            .into_iter()
            .find(|w| w.name == "specint-00")
            .expect("suite workload");
        let profile = fitted_profile(&w);
        let model = AnalyticModel::paper();
        let best = OPTIMUM_DEPTHS
            .map(|d| {
                let out = model
                    .evaluate(&cell_for(&w, profile, d, &quick_config().run))
                    .expect("valid");
                (out.metric_gated[2], d)
            })
            .fold((f64::MIN, 0), |acc, x| if x.0 > acc.0 { x } else { acc });
        assert_eq!(opt.optimum_depth, best.1);
        assert!(svc.optimum("nope", 3).is_err());
        assert!(svc.optimum("specint-00", 9).is_err());
    }

    #[test]
    fn stats_line_reflects_counters() {
        let svc = service(quick_config());
        let _ = svc.evaluate(&request(
            WireBackend::Model,
            None,
            vec![WireCell::new("fp-01", 7)],
        ));
        let line = svc.stats_line();
        assert!(line.contains("1 requests"), "{line}");
        assert!(line.contains("1 cells"), "{line}");
    }

    /// A fresh scratch directory per test (std-only; no tempdir crate).
    fn scratch(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "pipedepth-serve-svc-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn store_restart_answers_from_disk_without_dispatch() {
        let dir = scratch("warm");
        let mut config = quick_config();
        config.store = Some(dir.clone());
        let cells = vec![
            WireCell::new("legacy-00", 8),
            WireCell::new("legacy-00", 12),
            WireCell::new("specint-00", 10),
        ];

        // First server: simulate, then drain (final snapshot + sync).
        let svc = service(config.clone());
        let first = with_workers(&svc, || {
            svc.evaluate(&request(WireBackend::Sim, None, cells.clone()))
                .expect("admitted")
        });
        svc.finish_store();
        assert!(
            svc.stats_line().contains("snapshot(s) published"),
            "stats line reports the store"
        );

        // Restarted server: every cell answers from the warm tier, with
        // no dispatch worker running at all.
        let warm = service(config);
        let resp = warm
            .evaluate(&request(WireBackend::Sim, None, cells))
            .expect("pure warm-cache answers need no queue");
        for (a, b) in resp.results.iter().zip(&first.results) {
            assert_eq!(a.outcome, b.outcome, "warm answers are bit-identical");
            assert_eq!(a.backend, "sim");
        }
        let snap = warm.telemetry().snapshot();
        assert_eq!(snap.counter("serve.dispatches"), 0, "nothing re-simulated");
        assert_eq!(snap.counter("store.outcomes_loaded"), 3);
        assert_eq!(snap.counter("serve.cache_hits"), 3);
        warm.finish_store();
        let snap = warm.telemetry().snapshot();
        assert_eq!(
            snap.counter("store.hits"),
            3,
            "all three from the warm tier"
        );
        assert_eq!(snap.counter("store.invalid"), 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
