//! The `repro-cold` and `repro-warm` workloads: `repro --threads 1` on the
//! full configuration, against a fresh empty `--store` per sample (cold)
//! or against a store filled during set-up (warm).
//!
//! Untraced runs time the release binary from spawn to exit. The traced
//! run replays the binary's driver in-process with a span around each
//! call into a layer (store load/publish, the suite sweep, each
//! experiment, the report writes) and, on the cold workload, decomposes
//! the suite sweep into direct `trace`/`sim` calls (generate, annotate,
//! 24-lane `replay_sweep`, the stage engine) so the runner's own share
//! is what remains.

use crate::procs::{self, Finished};
use crate::record::Record;
use crate::spans::Tracer;
use crate::stats::{median, ratio};
use crate::Env;
use pipedepth_experiments::eval::Backend;
use pipedepth_experiments::experiment::{registry, Context};
use pipedepth_experiments::manifest::{Manifest, PhaseTiming};
use pipedepth_experiments::paper;
use pipedepth_experiments::runner::{CellSpec, Runner};
use pipedepth_experiments::store::RunStore;
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_serve::json::{self, Json};
use pipedepth_sim::{annotate, replay_sweep, Engine, SimConfig, SimReport};
use pipedepth_telemetry::Telemetry;
use pipedepth_trace::TraceArena;
use pipedepth_workloads::suite;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s` (cold workload; the warm
/// set-up is one full cold run, so it is done once).
const SETUP_REPEATS: usize = 25;

/// Manifest counters reported as exact work counts.
const COUNTERS: [&str; 6] = [
    "sim.instructions",
    "runner.cells_simulated",
    "trace.arena.instructions_materialized",
    "trace.annotate.instructions_annotated",
    "store.reports_loaded",
    "store.annotations_loaded",
];

/// The committed figure CSVs every sample must reproduce byte for byte.
pub fn reference_csvs(root: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut refs = Vec::new();
    for entry in fs::read_dir(root.join("results"))? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("csv") {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            refs.push((name, fs::read(&path)?));
        }
    }
    refs.sort();
    if refs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "no committed results/*.csv to check against",
        ));
    }
    Ok(refs)
}

/// Checks every reference CSV against its fresh copy in `out`.
fn check_outputs(out: &Path, refs: &[(String, Vec<u8>)]) -> Result<(), String> {
    for (name, want) in refs {
        match fs::read(out.join(name)) {
            Ok(got) if &got == want => {}
            Ok(_) => return Err(format!("{name} differs from results/{name}")),
            Err(e) => return Err(format!("{name} missing: {e}")),
        }
    }
    Ok(())
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    fs::create_dir_all(dir)
}

fn repro(env: &Env, store: &Path, out: &Path) -> Command {
    let mut cmd = Command::new(env.bin("repro"));
    cmd.args(["--threads", "1", "--store"])
        .arg(store)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd
}

/// One measured binary run, with its output check.
fn sample(
    env: &Env,
    store: &Path,
    out: &Path,
    refs: &[(String, Vec<u8>)],
) -> io::Result<(Finished, Result<(), String>)> {
    fresh_dir(out)?;
    let done = procs::run_measured(&mut repro(env, store, out))?;
    let check = if done.status.success() {
        check_outputs(out, refs)
    } else {
        Err(format!("repro exited with {}", done.status))
    };
    Ok((done, check))
}

/// Spawns `repro --list` and checks it answers: the binary starts and its
/// experiment registry loads.
fn probe(env: &Env) -> Result<(), String> {
    let out = Command::new(env.bin("repro"))
        .arg("--list")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start repro: {e}"))?;
    if out.status.success() && !out.stdout.is_empty() {
        Ok(())
    } else {
        Err(format!("repro --list exited with {}", out.status))
    }
}

/// Set-up: the fresh sample directories plus a start-up probe (cold), or
/// a populating cold run plus the probe (warm). Returns its duration.
fn set_up(env: &Env, dir: &Path, warm: bool, refs: &[(String, Vec<u8>)]) -> Result<f64, String> {
    let t = Instant::now();
    let io_err = |e: io::Error| e.to_string();
    fresh_dir(&dir.join("store")).map_err(io_err)?;
    fresh_dir(&dir.join("out")).map_err(io_err)?;
    if warm {
        let (_, check) = sample(env, &dir.join("store"), &dir.join("out"), refs).map_err(io_err)?;
        check.map_err(|e| format!("populating run: {e}"))?;
    }
    probe(env)?;
    Ok(t.elapsed().as_secs_f64())
}

fn workload_dir(env: &Env, warm: bool) -> PathBuf {
    env.work
        .join(if warm { "repro-warm" } else { "repro-cold" })
}

/// Untraced run: set-up, then timed samples until the run's time is up.
pub fn run(env: &Env, warm: bool) -> Result<Record, String> {
    let refs = reference_csvs(&env.root).map_err(|e| e.to_string())?;
    let dir = workload_dir(env, warm);
    let repeats = if warm { 1 } else { SETUP_REPEATS };
    let setups = (0..repeats)
        .map(|_| set_up(env, &dir, warm, &refs))
        .collect::<Result<Vec<f64>, String>>()?;

    let mut rec = Record::default();
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let store = dir.join("store");
        if !warm {
            fresh_dir(&store).map_err(|e| e.to_string())?;
        }
        let (done, check) =
            sample(env, &store, &dir.join("out"), &refs).map_err(|e| e.to_string())?;
        rec.attempted += 1;
        if let Err(e) = check {
            eprintln!("repro sample {}: {e}", rec.attempted);
            rec.failed += 1;
        }
        walls.push(done.wall.as_secs_f64());
        rss.push(done.peak_rss_mib());
        if !crate::room_for_another(started, walls.len(), env.seconds) {
            break;
        }
    }
    rec.counters = manifest_counters(&dir.join("out"));
    rec.add("setup_s", "s", &setups);
    rec.add("wall_s", "s", &walls);
    rec.add("peak_rss_mb", "MiB", &rss);
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    rec.add("p50_ms", "ms", &ms);
    let _ = fs::remove_dir_all(&dir);
    Ok(rec)
}

/// The exact counters of a finished run's `manifest.json`.
fn manifest_counters(out: &Path) -> Vec<(String, u64)> {
    let doc = fs::read_to_string(out.join("manifest.json"))
        .ok()
        .and_then(|text| json::parse(&text).ok());
    let metrics = doc.as_ref().and_then(|d| d.get("metrics"));
    COUNTERS
        .iter()
        .map(|&name| {
            let value = metrics
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            (name.to_string(), value)
        })
        .collect()
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|e| file_len(&e.path())).sum())
        .unwrap_or(0)
}

/// What one in-process replica of the driver observed.
struct Replica {
    wall_s: f64,
    sim_cache_hit_ratio: f64,
    warm_hit_ratio: f64,
    annotation_use_ratio: f64,
    arena_hit_ratio: f64,
}

/// Replays the `repro` driver in-process, with a span around each call
/// into a layer, and checks its CSVs like a binary sample.
fn replica(
    tr: &Tracer,
    store_dir: &Path,
    out: &Path,
    refs: &[(String, Vec<u8>)],
) -> Result<Replica, String> {
    let config = RunConfig::default();
    let telemetry = Telemetry::new();
    let started = Instant::now();
    let result = tr.span("experiments.run", || -> Result<Replica, String> {
        let mut store = tr.span("store.open", || {
            RunStore::open(store_dir, &config, &telemetry)
        });
        let warm = tr.span_work("store.load_reports", || {
            (
                store.load_reports(),
                file_len(&store_dir.join("sim_reports.pds")),
            )
        });
        let runner = Runner::new(1)
            .with_telemetry(telemetry.clone())
            .with_warm_reports(warm);
        let ctx = Context::with_backend(config.clone(), runner, Backend::Sim);
        let seeds = tr.span_work("store.load_annotations", || {
            (
                store.load_annotations(),
                file_len(&store_dir.join("annotations.pds")),
            )
        });
        let loaded = seeds.len();
        ctx.runner.seed_annotations(seeds);
        let mut phases = Vec::new();
        let t = Instant::now();
        tr.span("experiments.suite_sweep", || ctx.curves().len());
        phases.push(PhaseTiming {
            name: "suite sweep".to_string(),
            wall: t.elapsed(),
        });
        let publish = |store: &mut RunStore| {
            tr.span("store.publish", || {
                store.flush_reports_if_grown(ctx.runner.export_reports());
                store.flush_annotations_if_grown(ctx.runner.export_annotations());
            })
        };
        publish(&mut store);
        for exp in registry() {
            let kind = match exp.name() {
                "ablation" | "issue_policy" => "experiments.sim_phase",
                _ => "experiments.figure",
            };
            let t = Instant::now();
            let output = tr.span(kind, || exp.run(&ctx));
            phases.push(PhaseTiming {
                name: exp.name().to_string(),
                wall: t.elapsed(),
            });
            tr.span("experiments.report_write", || {
                output
                    .artifacts
                    .iter()
                    .try_for_each(|a| fs::write(out.join(&a.filename), &a.contents))
            })
            .map_err(|e| e.to_string())?;
            publish(&mut store);
        }
        let warm_stats = ctx.runner.warm_report_stats();
        let store_stats = tr.span("store.publish", || {
            store.record_warm(warm_stats);
            store.finish()
        });
        tr.span("experiments.report_write", || -> io::Result<()> {
            let o = &ctx.outcomes;
            let mut report = String::from("# Reproduction report\n\n");
            if let (Some(f1), Some(f3), Some(f6), Some(f7), Some(f8), Some(f9), Some(h)) = (
                o.fig1.get(),
                o.fig3.get(),
                o.fig6.get(),
                o.fig7.get(),
                o.fig8.get(),
                o.fig9.get(),
                o.headline.get(),
            ) {
                report.push_str(&paper::render_markdown(&paper::compare(
                    f1, f3, f6, f7, f8, f9, h,
                )));
            }
            let manifest = Manifest {
                threads: ctx.runner.threads(),
                config: ctx.config.clone(),
                phases,
                cache: ctx.runner.cache_stats(),
                arena: ctx.runner.arena_stats(),
                sweep_kernel: Some(ctx.runner.annotation_stats()),
                store: Some(store_stats),
                metrics: telemetry.snapshot(),
                total_wall: started.elapsed(),
            };
            fs::write(out.join("manifest.json"), manifest.to_json())?;
            fs::write(out.join("report.md"), report)
        })
        .map_err(|e| e.to_string())?;

        let warm_ratio =
            warm_stats.map_or(0.0, |s| ratio(s.hits as f64, (s.hits + s.misses) as f64));
        Ok(Replica {
            wall_s: 0.0,
            sim_cache_hit_ratio: ctx.runner.cache_stats().map_or(0.0, |s| s.hit_rate()),
            warm_hit_ratio: warm_ratio,
            annotation_use_ratio: ratio(ctx.runner.annotation_stats().hits as f64, loaded as f64),
            arena_hit_ratio: ctx.runner.arena_stats().map_or(0.0, |s| s.hit_rate()),
        })
    });
    let mut replica = result?;
    replica.wall_s = started.elapsed().as_secs_f64();
    check_outputs(out, refs).map_err(|e| format!("in-process replica: {e}"))?;
    Ok(replica)
}

/// Decomposes the suite sweep workload by workload: the runner's
/// `sweep_workload` on a fresh runner, then the same cells as direct layer
/// calls — trace generation, annotation, one 24-lane `replay_sweep` — and,
/// for the first workload of each class, three stage-engine cells. The
/// two halves alternate at workload granularity, so host speed drift
/// cancels out of their difference. Every direct report is checked
/// against the runner's.
fn decompose(tr: &Tracer) -> Result<(), String> {
    let config = RunConfig::default();
    let len = config.warmup + config.instructions;
    let split = config.warmup as usize;
    let disabled = Telemetry::disabled();
    let configs: Vec<SimConfig> = config.depths.iter().map(|&d| SimConfig::paper(d)).collect();
    let lanes = configs.len() as u64;
    let mut classes_seen = Vec::new();
    for w in suite() {
        let runner = Runner::new(1).with_telemetry(Telemetry::new());
        tr.span("experiments.sweep_workload", || {
            runner.sweep_workload(&w, &config)
        });
        let runner_reports = runner.export_reports();
        let expect = |sim: SimConfig, got: &SimReport| -> Result<(), String> {
            let cell = CellSpec::new(&w, sim, config.warmup, config.instructions);
            match runner_reports.iter().find(|(c, _)| *c == cell) {
                Some((_, want)) if **want == *got => Ok(()),
                Some(_) => Err(format!(
                    "{} depth {}: direct report differs from the runner's",
                    w.name, sim.depth
                )),
                None => Err(format!(
                    "{} depth {}: the runner has no report",
                    w.name, sim.depth
                )),
            }
        };
        let arena = TraceArena::new();
        let trace = tr.span_work("trace.generate", || {
            (arena.get_or_generate(w.model, w.trace_seed, len), len)
        });
        let notes = tr
            .span_work("sim.annotate", || {
                (
                    annotate(&trace, configs[0].cache, configs[0].predictor),
                    len,
                )
            })
            .map_err(|e| e.to_string())?;
        let reports = tr
            .span_work("sim.replay_sweep", || {
                (
                    replay_sweep(
                        &notes,
                        &configs,
                        config.warmup,
                        config.instructions,
                        &disabled,
                    ),
                    lanes * len,
                )
            })
            .map_err(|e| e.to_string())?;
        for (sim, report) in configs.iter().zip(&reports) {
            expect(*sim, report)?;
        }
        if classes_seen.contains(&w.class) {
            continue;
        }
        classes_seen.push(w.class);
        for depth in [2, 10, 25] {
            let sim = SimConfig::paper(depth);
            let mut engine = Engine::new(sim);
            engine.warm_up_slice(&trace[..split], config.warmup);
            let report = tr.span_work("sim.engine_run", || {
                (
                    engine.run_slice(&trace[split..], config.instructions),
                    config.instructions,
                )
            });
            expect(sim, &report)?;
        }
    }
    Ok(())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Traced run: one untraced binary sample (the reference for the trace
/// overhead and the source of the exact counters), then in-process
/// replicas with spans until the run's time is up, plus the sweep
/// decomposition on the cold workload.
pub fn run_traced(env: &Env, warm: bool) -> Result<Record, String> {
    let refs = reference_csvs(&env.root).map_err(|e| e.to_string())?;
    let dir = workload_dir(env, warm);
    set_up(env, &dir, warm, &refs)?;
    let mut rec = Record::default();
    let store = dir.join("store");
    let started = Instant::now();
    let (done, check) = sample(env, &store, &dir.join("out"), &refs).map_err(|e| e.to_string())?;
    rec.attempted += 1;
    if let Err(e) = check {
        eprintln!("repro reference sample: {e}");
        rec.failed += 1;
    }
    rec.counters = manifest_counters(&dir.join("out"));
    let untraced_wall = done.wall.as_secs_f64();

    let mut passes: Vec<(Tracer, Replica)> = Vec::new();
    while passes.is_empty() || crate::room_for_another(started, passes.len() + 1, env.seconds) {
        if !warm {
            fresh_dir(&store).map_err(|e| e.to_string())?;
        }
        let out = dir.join("out");
        fresh_dir(&out).map_err(|e| e.to_string())?;
        let tr = Tracer::new(true);
        rec.attempted += 1;
        match replica(&tr, &store, &out, &refs) {
            Ok(r) => passes.push((tr, r)),
            Err(e) => {
                eprintln!("{e}");
                rec.failed += 1;
                break;
            }
        }
        if !warm {
            break;
        }
    }
    let decomposition = Tracer::new(true);
    if !warm && !passes.is_empty() {
        rec.attempted += 1;
        if let Err(e) = decompose(&decomposition) {
            eprintln!("sweep decomposition: {e}");
            rec.failed += 1;
        }
    }
    let per_pass = |f: &dyn Fn(&Tracer, &Replica) -> f64| -> f64 {
        median(&passes.iter().map(|(t, r)| f(t, r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let d = |name: &str| decomposition.total(name);
    let counters = rec.counters.clone();
    let c = |name: &str| counter(&counters, name) as f64;

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
        per_pass(&|_, r| r.arena_hit_ratio),
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
    let lanes = if replay.calls > 0 {
        RunConfig::default().depths.len() as f64
    } else {
        0.0
    };
    rec.add_value("sim.lanes_per_group", "count", lanes);
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
        per_pass(&|_, r| r.sim_cache_hit_ratio),
    );
    rec.add_value(
        "core.warm_hit_ratio",
        "ratio",
        per_pass(&|_, r| r.warm_hit_ratio),
    );
    rec.add_value(
        "store.reports_load_ms",
        "ms",
        per_pass(&|t, _| ms(t.total("store.load_reports").ns)),
    );
    rec.add_value(
        "store.annotations_load_ms",
        "ms",
        per_pass(&|t, _| ms(t.total("store.load_annotations").ns)),
    );
    rec.add_value(
        "store.bytes_loaded",
        "bytes",
        per_pass(&|t, _| {
            (t.total("store.load_reports").work + t.total("store.load_annotations").work) as f64
        }),
    );
    rec.add_value(
        "store.annotation_use_ratio",
        "ratio",
        per_pass(&|_, r| r.annotation_use_ratio),
    );
    rec.add_value("store.reports_loaded", "count", c("store.reports_loaded"));
    rec.add_value(
        "store.annotations_loaded",
        "count",
        c("store.annotations_loaded"),
    );
    rec.add_value(
        "store.publish_ms",
        "ms",
        per_pass(&|t, _| ms(t.total("store.publish").ns)),
    );
    rec.add_value(
        "store.bytes_written",
        "bytes",
        if warm { 0.0 } else { dir_bytes(&store) as f64 },
    );
    let sweep_s = per_pass(&|t, _| t.total("experiments.suite_sweep").ns as f64 / 1e9);
    rec.add_value("experiments.suite_sweep_s", "s", sweep_s);
    let swept = d("experiments.sweep_workload").ns as f64;
    let covered = (d("trace.generate").ns + d("sim.annotate").ns + d("sim.replay_sweep").ns) as f64;
    let residual = if swept > 0.0 {
        ratio(swept - covered, swept)
    } else {
        0.0
    };
    rec.add_value("experiments.runner_residual_ratio", "ratio", residual);
    rec.add_value(
        "experiments.sim_phases_s",
        "s",
        per_pass(&|t, _| t.total("experiments.sim_phase").ns as f64 / 1e9),
    );
    rec.add_value(
        "experiments.figures_ms",
        "ms",
        per_pass(&|t, _| ms(t.total("experiments.figure").ns)),
    );
    rec.add_value(
        "experiments.report_write_ms",
        "ms",
        per_pass(&|t, _| ms(t.total("experiments.report_write").ns)),
    );
    rec.add_value(
        "bench.trace_overhead_ratio",
        "ratio",
        ratio(per_pass(&|_, r| r.wall_s), untraced_wall),
    );

    for (i, (tr, _)) in passes.iter().enumerate() {
        let _ = tr.write(&env.spans_path(&format!("pass{i}")));
    }
    if !warm {
        let _ = decomposition.write(&env.spans_path("decomposition"));
    }
    let _ = fs::remove_dir_all(&dir);
    Ok(rec)
}
