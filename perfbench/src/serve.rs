//! The `serve-zipf` workload: a fresh `pipedepth-serve --threads 2`
//! (quick template) on an ephemeral loopback port per sample, driven open
//! loop by the seeded request stream of [`crate::loadgen`].
//!
//! Every answer is checked: model answers and degraded `auto` answers
//! against the closed-form model evaluated in-process, optimum answers
//! against an in-process `EvalService::optimum`, and a seeded sample of
//! simulated answers against `SimBackend` on the same `CellSpec`.
//!
//! The traced run adds three in-process passes over the same stream: the
//! service's `decode` → `evaluate` → `encode` path with tracing off and
//! on (closed loop, one request at a time, so its counters repeat
//! exactly), and a direct replay of the simulator work that stream
//! causes (trace generation on first touch, annotation, few-lane
//! `replay_sweep` groups, single cells on the stage engine).

use crate::http::{self, Reply};
use crate::loadgen::{self, Backend, Cell, Mix, Op, Planned, Rng, Sent};
use crate::procs::Watched;
use crate::record::Record;
use crate::spans::Tracer;
use crate::stats::{median, percentile, ratio};
use crate::Env;
use pipedepth_core::eval::{AnalyticModel, CellSpec, EvalOutcome, Evaluator};
use pipedepth_experiments::eval::{cell_for, fitted_profile, SimBackend};
use pipedepth_experiments::runner::Runner;
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_serve::json::{self, Json};
use pipedepth_serve::wire::v1::{encode_outcome, EvaluateRequest};
use pipedepth_serve::{EvalService, ServiceConfig};
use pipedepth_sim::{annotate, replay_sweep, AnnotatedTrace, Engine, SimConfig};
use pipedepth_telemetry::{Snapshot, Telemetry};
use pipedepth_trace::TraceArena;
use pipedepth_workloads::{suite, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arrival rate of the open-loop schedule, requests per second.
pub const RATE_RPS: f64 = 40.0;
/// Schedule length of one sample (one fresh server).
pub const SPAN: Duration = Duration::from_secs(4);
/// Latency limit a request must meet to count towards goodput.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Simulated answers per sample checked against `SimBackend`.
const CHECKED_SIM_CELLS: usize = 24;
/// Evaluate requests the in-process passes replay at least (enough for a
/// p99 with ten samples beyond it), taken from whole sample plans.
const INPROCESS_MIN_EVALUATES: usize = 1_100;
/// Extra start-ups per run that only measure set-up, so `setup_s` is a
/// median over more than the few served samples.
const SETUP_ONLY: usize = 15;
/// Longest a server may take to answer its first `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// Counters read from `GET /metrics` after each sample, summed.
const HTTP_COUNTERS: [&str; 6] = [
    "serve.requests",
    "serve.cells_requested",
    "serve.cache_hits",
    "serve.coalesced",
    "serve.shed",
    "serve.degraded",
];

/// Counters of the closed-loop in-process pass: exact for a given build.
const EXACT_COUNTERS: [&str; 6] = [
    "serve.dispatches",
    "serve.dispatch_cells",
    "runner.cells_simulated",
    "sim.instructions",
    "trace.arena.instructions_materialized",
    "trace.annotate.instructions_annotated",
];

/// Expected answers, computed in-process.
struct Checker {
    workloads: Vec<Workload>,
    run: RunConfig,
    model: AnalyticModel,
    sim: SimBackend,
    service: EvalService,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            workloads: suite(),
            run: RunConfig::quick(),
            model: AnalyticModel::paper(),
            sim: SimBackend::new(Arc::new(Runner::new(1))),
            service: EvalService::new(ServiceConfig::default(), Telemetry::disabled()),
        }
    }

    fn names(&self) -> Vec<String> {
        self.workloads.iter().map(|w| w.name.clone()).collect()
    }

    /// The `CellSpec` the service resolves a bare wire cell to.
    fn spec(&self, cell: Cell) -> CellSpec {
        let w = &self.workloads[cell.workload];
        cell_for(w, fitted_profile(w), cell.depth, &self.run)
    }

    fn expect(outcome: Result<EvalOutcome, pipedepth_core::EvalError>) -> Result<Json, String> {
        let outcome = outcome.map_err(|e| format!("in-process evaluation failed: {e}"))?;
        let mut text = String::new();
        encode_outcome(&mut text, &outcome);
        json::parse(&text).map_err(|e| e.to_string())
    }

    /// Checks one reply; returns the simulated answers it carried (for
    /// the seeded spot check) and how many `auto` cells it answered and
    /// degraded.
    fn check(&self, op: &Op, reply: &Reply, names: &[String]) -> Result<Checked, String> {
        if reply.status != 200 {
            return Err(format!("status {}: {}", reply.status, reply.body));
        }
        let mut checked = Checked::default();
        match op {
            Op::Optimum { workload, m } => {
                let want = self
                    .service
                    .optimum(&names[*workload], *m)
                    .map_err(|e| e.to_string())?
                    .encode();
                if reply.body != want {
                    return Err(format!("optimum answer differs: {}", reply.body));
                }
            }
            Op::Evaluate { backend, cells, .. } => {
                let doc = json::parse(&reply.body).map_err(|e| e.to_string())?;
                let results = doc
                    .get("results")
                    .and_then(Json::as_array)
                    .ok_or("no results array")?;
                if results.len() != cells.len() {
                    return Err(format!(
                        "{} results for {} cells",
                        results.len(),
                        cells.len()
                    ));
                }
                for (cell, result) in cells.iter().zip(results) {
                    let answered_by = result.get("backend").and_then(Json::as_str);
                    let degraded = result.get("degraded").and_then(Json::as_bool);
                    let outcome = result
                        .get("outcome")
                        .ok_or_else(|| format!("cell failed: {result:?}"))?;
                    let by_model = match (backend, answered_by, degraded) {
                        (Backend::Model, Some("model"), Some(false)) => true,
                        (Backend::Sim, Some("sim"), Some(false)) => false,
                        (Backend::Auto, Some("sim"), Some(false)) => false,
                        (Backend::Auto, Some("model"), Some(true)) => true,
                        _ => return Err(format!("unexpected answer for {backend:?}: {result:?}")),
                    };
                    if *backend == Backend::Auto {
                        checked.auto_cells += 1;
                        checked.degraded += u64::from(by_model);
                    }
                    if by_model {
                        if *outcome != Self::expect(self.model.evaluate(&self.spec(*cell)))? {
                            return Err(format!("model answer differs for {cell:?}"));
                        }
                    } else {
                        checked.simulated.push((*cell, outcome.clone()));
                    }
                }
            }
        }
        Ok(checked)
    }

    /// Compares one simulated answer with `SimBackend` on the same cell.
    fn check_sim(&self, cell: Cell, outcome: &Json) -> Result<(), String> {
        if *outcome == Self::expect(self.sim.evaluate(&self.spec(cell)))? {
            Ok(())
        } else {
            Err(format!(
                "simulated answer differs from SimBackend for {cell:?}"
            ))
        }
    }
}

#[derive(Debug, Default)]
struct Checked {
    simulated: Vec<(Cell, Json)>,
    auto_cells: u64,
    degraded: u64,
}

/// One served sample.
struct Sample {
    setup_s: f64,
    wall_s: f64,
    rss_mib: f64,
    sent: Vec<Sent>,
    metrics: Json,
}

/// Starts a fresh server, waits for its first healthy answer, runs the
/// plan open loop, reads `/metrics`, shuts it down and waits for exit.
fn serve_sample(env: &Env, plan: &[Planned], names: &[String]) -> Result<Sample, String> {
    let mut cmd = Command::new(env.bin("pipedepth-serve"));
    cmd.args(["--port", "0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut server =
        Watched::spawn(&mut cmd).map_err(|e| format!("cannot start pipedepth-serve: {e}"))?;
    let mut stdout = BufReader::new(server.child.stdout.take().ok_or("no server stdout")?);
    let mut line = String::new();
    stdout.read_line(&mut line).map_err(|e| e.to_string())?;
    let addr: SocketAddr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
    loop {
        match http::request(addr, "GET", "/healthz", None) {
            Ok(reply) if reply.status == 200 => break,
            _ if server.elapsed() > START_TIMEOUT => {
                return Err("server never became healthy".into())
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    let setup_s = server.elapsed().as_secs_f64();
    let sent = loadgen::run_open_loop(addr, plan, names, loadgen::CONNECTIONS);
    let metrics = http::request(addr, "GET", "/metrics", None)
        .map_err(|e| e.to_string())
        .and_then(|r| json::parse(&r.body).map_err(|e| e.to_string()))?;
    http::request(addr, "POST", "/v1/shutdown", None).map_err(|e| e.to_string())?;
    let done = server.wait().map_err(|e| e.to_string())?;
    let mut rest = String::new();
    let _ = stdout.read_to_string(&mut rest);
    if !done.status.success() {
        return Err(format!("server exited with {}", done.status));
    }
    Ok(Sample {
        setup_s,
        wall_s: done.wall.as_secs_f64(),
        rss_mib: done.peak_rss_mib(),
        sent,
        metrics,
    })
}

fn counter(doc: &Json, name: &str) -> f64 {
    doc.get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// What the open-loop samples of one run measured.
#[derive(Default)]
struct Http {
    plans: Vec<Vec<Planned>>,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    rss_mib: Vec<f64>,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    good: u64,
    attempted: u64,
    failed: u64,
    auto_cells: u64,
    degraded: u64,
    counters: BTreeMap<&'static str, f64>,
    batches: f64,
    batch_cells: f64,
}

impl Http {
    fn p99_ms(&self) -> Option<f64> {
        percentile(&self.latency_ms, 99.0)
    }

    fn goodput_rps(&self) -> f64 {
        ratio(
            self.good as f64,
            self.plans.len() as f64 * SPAN.as_secs_f64(),
        )
    }
}

/// Starts a fresh server, waits for its first healthy answer and shuts it
/// down: one more set-up sample.
fn setup_only(env: &Env) -> Result<f64, String> {
    Ok(serve_sample(env, &[], &[])?.setup_s)
}

/// Serves samples until `budget` has elapsed (at least one).
fn http_samples(env: &Env, mix: &Mix, checker: &Checker, budget: Duration) -> Result<Http, String> {
    let names = mix.names.clone();
    let mut h = Http::default();
    for _ in 0..SETUP_ONLY {
        h.setup_s.push(setup_only(env)?);
    }
    let started = Instant::now();
    loop {
        let k = h.plans.len() as u64;
        let plan = mix.plan(env.seed, k, RATE_RPS, SPAN);
        let s = serve_sample(env, &plan, &names)?;
        h.setup_s.push(s.setup_s);
        h.wall_s.push(s.wall_s);
        h.rss_mib.push(s.rss_mib);
        let mut simulated = Vec::new();
        let mut failed = BTreeSet::new();
        for (i, (p, sent)) in plan.iter().zip(&s.sent).enumerate() {
            h.attempted += 1;
            let latency = sent.latency().as_secs_f64() * 1e3;
            h.latency_ms.push(latency);
            h.late_ms.push(sent.late().as_secs_f64() * 1e3);
            let verdict = match &sent.reply {
                Ok(reply) => checker.check(&p.op, reply, &names),
                Err(e) => Err(e.clone()),
            };
            match verdict {
                Ok(c) => {
                    h.good += u64::from(latency <= LATENCY_LIMIT_MS);
                    h.auto_cells += c.auto_cells;
                    h.degraded += c.degraded;
                    simulated.extend(c.simulated.into_iter().map(|(cell, out)| (i, cell, out)));
                }
                Err(e) => {
                    if failed.len() < 5 {
                        eprintln!("serve-zipf sample {k}: {e}");
                    }
                    failed.insert(i);
                }
            }
        }
        // The seeded spot check of simulated answers: a wrong answer fails
        // the request that carried it.
        let mut rng = Rng::derive(env.seed, (1 << 40) | k);
        for _ in 0..CHECKED_SIM_CELLS.min(simulated.len()) {
            let (i, cell, outcome) = &simulated[rng.below(simulated.len())];
            if let Err(e) = checker.check_sim(*cell, outcome) {
                eprintln!("serve-zipf sample {k}: {e}");
                failed.insert(*i);
            }
        }
        h.failed += failed.len() as u64;
        for name in HTTP_COUNTERS {
            *h.counters.entry(name).or_default() += counter(&s.metrics, name);
        }
        if let Some(hist) = s.metrics.get("serve.batch_size") {
            h.batches += hist.get("count").and_then(Json::as_f64).unwrap_or(0.0);
            h.batch_cells += hist.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
        }
        h.plans.push(plan);
        if !crate::room_for_another(started, h.plans.len(), budget) {
            return Ok(h);
        }
    }
}

/// Untraced run: open-loop samples, one fresh server each.
pub fn run(env: &Env) -> Result<Record, String> {
    let checker = Checker::new();
    let mix = Mix::new(checker.names());
    let h = http_samples(env, &mix, &checker, env.seconds)?;
    let mut rec = Record {
        attempted: h.attempted,
        failed: h.failed,
        ..Record::default()
    };
    rec.add("setup_s", "s", &h.setup_s);
    rec.add("wall_s", "s", &h.wall_s);
    rec.add("peak_rss_mb", "MiB", &h.rss_mib);
    rec.add("p50_ms", "ms", &h.latency_ms);
    if let Some(p99) = h.p99_ms() {
        rec.add_extra("p99_ms", "ms", &[p99]);
    }
    rec.add_extra("goodput_rps", "1/s", &[h.goodput_rps()]);
    rec.add_extra(
        "degraded_ratio",
        "ratio",
        &[ratio(h.degraded as f64, h.auto_cells as f64)],
    );
    if let Some(late) = percentile(&h.late_ms, 99.0) {
        rec.add_extra("loadgen.late_p99_ms", "ms", &[late]);
    }
    Ok(rec)
}

/// One closed-loop in-process pass of the service over `stream`.
struct Pass {
    secs: f64,
    snapshot: Snapshot,
    failures: u64,
}

fn inprocess(tr: &Tracer, stream: &[Op], names: &[String]) -> Pass {
    let service = Arc::new(EvalService::new(ServiceConfig::default(), Telemetry::new()));
    let worker = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.dispatch_loop())
    };
    let mut failures = 0;
    let started = Instant::now();
    for op in stream {
        match op {
            Op::Optimum { workload, m } => {
                let answer = tr.span("core.optimum", || service.optimum(&names[*workload], *m));
                failures += u64::from(answer.is_err());
            }
            Op::Evaluate { .. } => {
                let (_, _, body) = op.render(names);
                let body = body.unwrap_or_default();
                let ok = tr.span("serve.request", || {
                    let Ok(request) = tr.span("serve.decode", || EvaluateRequest::decode(&body))
                    else {
                        return false;
                    };
                    let Ok(response) = tr.span("serve.evaluate", || service.evaluate(&request))
                    else {
                        return false;
                    };
                    let text = tr.span("serve.encode", || response.encode());
                    !text.is_empty()
                });
                failures += u64::from(!ok);
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    service.close();
    if worker.join().is_err() {
        failures += 1;
    }
    Pass {
        secs,
        snapshot: service.telemetry().snapshot(),
        failures,
    }
}

/// Replays the simulator work the closed-loop pass causes as direct
/// layer calls: per request, its not-yet-simulated cells grouped by
/// workload (the runner's sweep-mate grouping), trace generation on a
/// workload's first touch, one annotation per workload, `replay_sweep`
/// for groups of two or more lanes and the stage engine for single cells.
/// `auto` cells under a zero deadline degrade instead of simulating.
fn decompose(tr: &Tracer, stream: &[Op], workloads: &[Workload]) -> Vec<usize> {
    let run = RunConfig::quick();
    let len = run.warmup + run.instructions;
    let split = run.warmup as usize;
    let arena = TraceArena::new();
    let disabled = Telemetry::disabled();
    let mut notes: BTreeMap<usize, AnnotatedTrace> = BTreeMap::new();
    let mut seen: BTreeSet<Cell> = BTreeSet::new();
    let mut lanes = Vec::new();
    for op in stream {
        let Op::Evaluate {
            backend,
            deadline_ms,
            cells,
        } = op
        else {
            continue;
        };
        if *backend == Backend::Model || (*backend == Backend::Auto && *deadline_ms == Some(0)) {
            continue;
        }
        let mut groups: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for c in cells {
            if seen.insert(*c) {
                groups.entry(c.workload).or_default().push(c.depth);
            }
        }
        for (w, depths) in groups {
            let wl = &workloads[w];
            let trace = if arena.contains(wl.model, wl.trace_seed, len) {
                arena.get_or_generate(wl.model, wl.trace_seed, len)
            } else {
                tr.span_work("trace.generate", || {
                    (arena.get_or_generate(wl.model, wl.trace_seed, len), len)
                })
            };
            let configs: Vec<SimConfig> = depths.iter().map(|&d| SimConfig::paper(d)).collect();
            if configs.len() >= 2 {
                let annotation = notes.entry(w).or_insert_with(|| {
                    tr.span_work("sim.annotate", || {
                        let a = annotate(&trace, configs[0].cache, configs[0].predictor)
                            .expect("the paper machine's cache and predictor are valid");
                        (a, len)
                    })
                });
                let work = configs.len() as u64 * len;
                let reports = tr.span_work("sim.replay_sweep", || {
                    (
                        replay_sweep(
                            annotation,
                            &configs,
                            run.warmup,
                            run.instructions,
                            &disabled,
                        ),
                        work,
                    )
                });
                std::hint::black_box(reports.ok());
                lanes.push(configs.len());
            } else {
                let mut engine = Engine::new(configs[0]);
                engine.warm_up_slice(&trace[..split], run.warmup);
                let report = tr.span_work("sim.engine_run", || {
                    (
                        engine.run_slice(&trace[split..], run.instructions),
                        run.instructions,
                    )
                });
                std::hint::black_box(report);
            }
        }
    }
    lanes
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Traced run: the open-loop samples as untraced (with `/metrics`), then
/// the in-process passes and the direct simulator replay.
pub fn run_traced(env: &Env) -> Result<Record, String> {
    let checker = Checker::new();
    let names = checker.names();
    let mix = Mix::new(names.clone());
    let h = http_samples(env, &mix, &checker, env.seconds)?;

    // The samples' plans from the first on, as many as it takes: a pure
    // function of the seed, so the closed-loop counters repeat exactly
    // whatever number of samples the open-loop phase fitted in.
    let mut stream: Vec<Op> = Vec::new();
    let mut k = 0;
    while stream
        .iter()
        .filter(|op| matches!(op, Op::Evaluate { .. }))
        .count()
        < INPROCESS_MIN_EVALUATES
    {
        stream.extend(
            mix.plan(env.seed, k, RATE_RPS, SPAN)
                .into_iter()
                .map(|p| p.op),
        );
        k += 1;
    }
    let plain = inprocess(&Tracer::new(false), &stream, &names);
    let tr = Tracer::new(true);
    let traced = inprocess(&tr, &stream, &names);
    let model = AnalyticModel::paper();
    for op in &stream {
        if let Op::Evaluate {
            backend: Backend::Model,
            cells,
            ..
        } = op
        {
            for c in cells {
                let spec = checker.spec(*c);
                let out = tr.span("core.model_eval", || model.evaluate(&spec));
                std::hint::black_box(out.ok());
            }
        }
    }
    let decomposition = Tracer::new(true);
    let lanes = decompose(&decomposition, &stream, &checker.workloads);

    let mut rec = Record {
        attempted: h.attempted + 2,
        failed: h.failed + u64::from(plain.failures > 0) + u64::from(traced.failures > 0),
        ..Record::default()
    };
    rec.counters = EXACT_COUNTERS
        .iter()
        .map(|&n| (n.to_string(), traced.snapshot.counter(n)))
        .collect();
    let plain_counts: Vec<u64> = EXACT_COUNTERS
        .iter()
        .map(|&n| plain.snapshot.counter(n))
        .collect();
    if rec.counters.iter().map(|(_, v)| *v).collect::<Vec<_>>() != plain_counts {
        eprintln!("serve-zipf: in-process counters differ between the two passes");
        rec.failed += 1;
    }
    let s = &traced.snapshot;
    let c = |name: &str| s.counter(name) as f64;
    let d = |name: &str| decomposition.total(name);
    let mean_us = |name: &str| {
        let t = tr.total(name);
        ratio(us(t.ns), t.calls as f64)
    };
    let evaluate_us: Vec<f64> = tr
        .named("serve.evaluate")
        .iter()
        .map(|s| us(s.ns()))
        .collect();
    let evaluate_p50 = median(&evaluate_us).unwrap_or(0.0);
    let hc = |name: &str| h.counters.get(name).copied().unwrap_or(0.0);

    rec.add_value(
        "trace.generate_ns_per_instr",
        "ns",
        d("trace.generate").ns_per_work(),
    );
    rec.add_value(
        "trace.instructions_materialized",
        "count",
        c("trace.arena.instructions_materialized"),
    );
    rec.add_value(
        "trace.arena_hit_ratio",
        "ratio",
        ratio(
            c("trace.arena.hits"),
            c("trace.arena.hits") + c("trace.arena.misses"),
        ),
    );
    rec.add_value(
        "sim.annotate_ns_per_instr",
        "ns",
        d("sim.annotate").ns_per_work(),
    );
    rec.add_value(
        "sim.instructions_annotated",
        "count",
        c("trace.annotate.instructions_annotated"),
    );
    let replay = d("sim.replay_sweep");
    rec.add_value("sim.replay_ns_per_lane_instr", "ns", replay.ns_per_work());
    rec.add_value(
        "sim.lanes_per_group",
        "count",
        ratio(lanes.iter().sum::<usize>() as f64, lanes.len() as f64),
    );
    rec.add_value(
        "sim.lane_instructions",
        "count",
        ratio(replay.work as f64, replay.calls as f64),
    );
    rec.add_value(
        "sim.engine_ns_per_instr",
        "ns",
        d("sim.engine_run").ns_per_work(),
    );
    rec.add_value("sim.cells_simulated", "count", c("runner.cells_simulated"));
    rec.add_value("sim.instructions", "count", c("sim.instructions"));
    rec.add_value(
        "core.sim_cache_hit_ratio",
        "ratio",
        ratio(c("runner.cache_hits"), c("runner.cells_requested")),
    );
    rec.add_value("core.model_eval_us", "us", mean_us("core.model_eval"));
    rec.add_value("core.optimum_us", "us", mean_us("core.optimum"));
    rec.add_value("serve.decode_us", "us", mean_us("serve.decode"));
    rec.add_value("serve.encode_us", "us", mean_us("serve.encode"));
    rec.add_value("serve.evaluate_p50_us", "us", evaluate_p50);
    if let Some(p99) = percentile(&evaluate_us, 99.0) {
        rec.add_value("serve.evaluate_p99_us", "us", p99);
    }
    let http_p50_us = median(&h.latency_ms).unwrap_or(0.0) * 1e3;
    rec.add_value("serve.http_overhead_us", "us", http_p50_us - evaluate_p50);
    rec.add_value(
        "serve.cache_hit_ratio",
        "ratio",
        ratio(hc("serve.cache_hits"), hc("serve.cells_requested")),
    );
    rec.add_value(
        "serve.coalesced_ratio",
        "ratio",
        ratio(hc("serve.coalesced"), hc("serve.cells_requested")),
    );
    rec.add_value(
        "serve.batch_size_mean",
        "count",
        ratio(h.batch_cells, h.batches),
    );
    rec.add_value(
        "serve.shed_ratio",
        "ratio",
        ratio(hc("serve.shed"), hc("serve.requests")),
    );
    if let Some(p99) = h.p99_ms() {
        rec.add_value("serve.p99_ms", "ms", p99);
    }
    rec.add_value("serve.goodput_rps", "1/s", h.goodput_rps());
    rec.add_value(
        "serve.degraded_ratio",
        "ratio",
        ratio(h.degraded as f64, h.auto_cells as f64),
    );
    rec.add_value("serve.dispatches", "count", c("serve.dispatches"));
    rec.add_value("serve.dispatch_cells", "count", c("serve.dispatch_cells"));
    if let Some(late) = percentile(&h.late_ms, 99.0) {
        rec.add_value("loadgen.late_p99_ms", "ms", late);
    }
    rec.add_value(
        "bench.trace_overhead_ratio",
        "ratio",
        ratio(traced.secs, plain.secs),
    );

    let _ = tr.write(&env.spans_path("inprocess"));
    let _ = decomposition.write(&env.spans_path("decomposition"));
    Ok(rec)
}
