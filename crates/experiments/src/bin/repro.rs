//! Regenerates the paper's figures and writes the comparison report.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pipedepth-experiments --bin repro -- \
//!     [--quick] [--out DIR] [--only fig4,fig6] [--list] [--threads N] \
//!     [--backend sim|model|both] [--timing-details] [--store DIR]
//! ```
//!
//! The binary is a thin driver over the experiment registry: it selects
//! specs, times each phase, prints their summaries, writes their CSV
//! artifacts, and assembles `report.md` (paper-vs-measured verdicts, run
//! metrics, telemetry counters) plus the machine-readable
//! `manifest.json` ([`pipedepth_experiments::manifest`]).

use pipedepth_experiments::eval::Backend;
use pipedepth_experiments::experiment::{registry, select_experiments, Context, Experiment};
use pipedepth_experiments::manifest::{Manifest, PhaseTiming};
use pipedepth_experiments::paper;
use pipedepth_experiments::runner::Runner;
use pipedepth_experiments::store::RunStore;
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_telemetry::{MetricValue, Snapshot, Telemetry};
use pipedepth_workloads::suite;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;
use std::{fs, io};

struct Options {
    quick: bool,
    list: bool,
    threads: usize,
    timing_details: bool,
    no_arena: bool,
    no_cache: bool,
    no_sweep_kernel: bool,
    out_dir: PathBuf,
    only: Option<Vec<String>>,
    backend: Backend,
    store: Option<PathBuf>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        quick: false,
        list: false,
        threads: 0,
        timing_details: false,
        no_arena: false,
        no_cache: false,
        no_sweep_kernel: false,
        out_dir: PathBuf::from("results"),
        only: None,
        backend: Backend::Sim,
        store: None,
    };
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--list" => opts.list = true,
            "--timing-details" => opts.timing_details = true,
            "--no-arena" => opts.no_arena = true,
            "--no-cache" => opts.no_cache = true,
            "--no-sweep-kernel" => opts.no_sweep_kernel = true,
            "--out" => {
                opts.out_dir = PathBuf::from(value(&args, i, "--out"));
                i += 1;
            }
            "--threads" => {
                let v = value(&args, i, "--threads");
                opts.threads = v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads needs a number, got {v:?}");
                    exit(2);
                });
                i += 1;
            }
            "--only" => {
                let v = value(&args, i, "--only");
                opts.only = Some(v.split(',').map(|s| s.trim().to_string()).collect());
                i += 1;
            }
            "--backend" => {
                let v = value(&args, i, "--backend");
                opts.backend = v.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(2);
                });
                i += 1;
            }
            "--store" => {
                opts.store = Some(PathBuf::from(value(&args, i, "--store")));
                i += 1;
            }
            "--no-store" => opts.store = None,
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: repro [--quick] [--out DIR] [--only a,b] [--list] [--threads N] \
                     [--backend sim|model|both] [--timing-details] [--no-arena] [--no-cache] \
                     [--no-sweep-kernel] [--store DIR] [--no-store]"
                );
                exit(2);
            }
        }
        i += 1;
    }
    opts
}

fn select<'a>(
    specs: &'a [Box<dyn Experiment>],
    only: &Option<Vec<String>>,
) -> Vec<&'a dyn Experiment> {
    let names = only.clone().unwrap_or_default();
    select_experiments(specs, &names).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    })
}

fn main() -> io::Result<()> {
    let opts = parse_args();
    let specs = registry();

    if opts.list {
        for e in &specs {
            println!("{:<12} {}", e.name(), e.title());
        }
        return Ok(());
    }

    let selected = select(&specs, &opts.only);
    // Under the pure analytic backend, specs that drive the simulator
    // directly cannot run; they are skipped with a note rather than
    // silently dropped from the report.
    let (selected, skipped): (Vec<&dyn Experiment>, Vec<&dyn Experiment>) = selected
        .into_iter()
        .partition(|e| opts.backend.uses_sim() || !e.requires_sim());
    let config = if opts.quick {
        RunConfig::quick()
    } else {
        RunConfig::default()
    };
    fs::create_dir_all(&opts.out_dir)?;
    let telemetry = Telemetry::new();
    let mut runner = Runner::new(opts.threads).with_telemetry(telemetry.clone());
    if opts.no_arena {
        runner = runner.without_arena();
    }
    if opts.no_cache {
        runner = runner.without_cache();
    }
    if opts.no_sweep_kernel {
        runner = runner.without_sweep_kernel();
    }
    // The persistent store warm-starts the run: previously computed cells
    // become the warm tier of the runner's cache before any fan-out;
    // previously computed annotations are read only if the sweep kernel
    // misses in its annotation store, which a fully warm run never does.
    let mut store = None;
    if let Some(dir) = opts.store.as_deref() {
        let mut s = RunStore::open(dir, &config, &telemetry);
        let warm = s.load_reports();
        println!(
            "store: {} report(s) loaded from {}",
            warm.len(),
            dir.display()
        );
        runner = runner
            .with_warm_reports(warm)
            .with_warm_annotations(s.annotation_source());
        store = Some(s);
    }
    let ctx = Context::with_backend(config, runner, opts.backend);
    println!(
        "pipedepth repro — {} instructions/depth after {} warmup, depths {:?}, {} worker(s), \
         {} backend",
        ctx.config.instructions,
        ctx.config.warmup,
        ctx.config.depths,
        ctx.runner.threads(),
        ctx.backend()
    );
    for e in &skipped {
        println!(
            "skipping {} ({}): needs the simulation backend",
            e.name(),
            e.title()
        );
    }
    let t0 = Instant::now();
    let mut phases: Vec<PhaseTiming> = Vec::new();

    // The shared suite sweep is the dominant cost: materialise it up front
    // so it is timed as its own phase instead of inflating the first
    // curve-consuming experiment.
    if selected.iter().any(|e| e.needs_curves()) {
        println!(
            "\nsweeping {} workloads × {} depths …",
            suite().len(),
            ctx.config.depths.len()
        );
        let t = Instant::now();
        ctx.curves();
        let elapsed = t.elapsed();
        println!("sweep finished in {elapsed:.1?}");
        phases.push(PhaseTiming {
            name: "suite sweep".to_string(),
            wall: elapsed,
        });
        // Snapshot after the dominant phase: a crash mid-run still leaves
        // the suite sweep warm for the next start. Write-behind, so the
        // next phase starts immediately.
        if let Some(store) = store.as_mut() {
            store.flush_reports_if_grown(ctx.runner.export_reports());
            store.flush_annotations_if_grown(ctx.runner.export_annotations());
        }
    }

    for exp in &selected {
        let t = Instant::now();
        let out = exp.run(&ctx);
        phases.push(PhaseTiming {
            name: exp.name().to_string(),
            wall: t.elapsed(),
        });
        println!();
        print!("{}", out.summary);
        for artifact in &out.artifacts {
            fs::write(opts.out_dir.join(&artifact.filename), &artifact.contents)?;
        }
        if let Some(store) = store.as_mut() {
            store.flush_reports_if_grown(ctx.runner.export_reports());
            store.flush_annotations_if_grown(ctx.runner.export_annotations());
        }
    }

    let mut report = String::from("# Reproduction report\n\n");
    let o = &ctx.outcomes;
    match (
        o.fig1.get(),
        o.fig3.get(),
        o.fig6.get(),
        o.fig7.get(),
        o.fig8.get(),
        o.fig9.get(),
        o.headline.get(),
    ) {
        (Some(f1), Some(f3), Some(f6), Some(f7), Some(f8), Some(f9), Some(h)) => {
            let verdicts = paper::render_markdown(&paper::compare(f1, f3, f6, f7, f8, f9, h));
            println!("\nPaper-vs-measured verdicts:\n{verdicts}");
            report.push_str("## Paper-vs-measured verdicts\n\n");
            report.push_str(&verdicts);
        }
        _ => {
            report.push_str(
                "Verdicts skipped: this was a partial run (`--only`) without every \
                 figure the comparison needs.\n",
            );
        }
    }

    report.push_str("\n## Run metrics\n\n| phase | wall time |\n|---|---|\n");
    for phase in &phases {
        let _ = writeln!(report, "| {} | {:.1?} |", phase.name, phase.wall);
    }
    let stats = ctx.runner.cache_stats();
    let cache_line = match &stats {
        Some(stats) => format!(
            "simulation cache: {} cells simulated, {} served from cache, {} requested \
             (hit rate {:.1}%)",
            stats.misses,
            stats.hits,
            stats.requested(),
            100.0 * stats.hit_rate()
        ),
        None => "simulation cache: disabled (--no-cache); every batch re-simulated".to_string(),
    };
    let _ = writeln!(report, "\n{cache_line}");
    let arena = ctx.runner.arena_stats();
    let arena_line = match &arena {
        Some(a) => format!(
            "trace arena: {} streams materialized ({} instructions), {} shared lookups \
             (hit rate {:.1}%)",
            a.misses,
            a.instructions_materialized,
            a.hits,
            100.0 * a.hit_rate()
        ),
        None => "trace arena: disabled (--no-arena); every cell regenerated its trace".to_string(),
    };
    let _ = writeln!(report, "\n{arena_line}");
    let kernel = ctx
        .runner
        .sweep_kernel_enabled()
        .then(|| ctx.runner.annotation_stats());
    let kernel_line = match &kernel {
        Some(k) => format!(
            "sweep kernel: {} streams annotated ({} instructions), {} annotation reuses",
            k.misses, k.instructions_annotated, k.hits
        ),
        None => "sweep kernel: disabled (--no-sweep-kernel); every cell ran the stage engine"
            .to_string(),
    };
    let _ = writeln!(report, "\n{kernel_line}");
    // Drain the store's write-behind worker *before* the telemetry
    // snapshot, so the manifest records the final flush counters.
    let store_stats = store.map(|mut s| {
        s.record_warm(ctx.runner.warm_report_stats());
        s.finish()
    });
    let store_line = match &store_stats {
        Some(s) => format!(
            "persistent store: {} report(s) + {} annotation(s) loaded, {} cell(s) served warm, \
             {} snapshot(s) published ({} records), {} rejected namespace(s)",
            s.reports_loaded, s.annotations_loaded, s.hits, s.flushes, s.records_flushed, s.invalid
        ),
        None => "persistent store: disabled; run started cold and left no snapshot".to_string(),
    };
    let _ = writeln!(report, "\n{store_line}");

    let snapshot = telemetry.snapshot();
    report.push_str(&telemetry_section(&snapshot));

    let manifest = Manifest {
        threads: ctx.runner.threads(),
        config: ctx.config.clone(),
        phases,
        cache: stats,
        arena,
        sweep_kernel: kernel,
        store: store_stats,
        metrics: snapshot,
        total_wall: t0.elapsed(),
    };
    fs::write(opts.out_dir.join("manifest.json"), manifest.to_json())?;
    fs::write(opts.out_dir.join("report.md"), &report)?;

    if opts.timing_details {
        print_timing_details(&manifest);
    }

    println!("\n{cache_line}");
    println!("{arena_line}");
    println!("{kernel_line}");
    println!("{store_line}");
    if let Some(s) = &store_stats {
        if s.annotations_read {
            println!(
                "store: {} annotation(s) loaded on demand",
                s.annotations_loaded
            );
        } else {
            println!("store: annotations left unread (no annotation-store miss)");
        }
    }
    println!("data written to {}", opts.out_dir.display());
    println!("total time: {:.1?}", manifest.total_wall);
    Ok(())
}

/// Renders the report's Telemetry section from the metric snapshot.
fn telemetry_section(snapshot: &Snapshot) -> String {
    let mut s = String::from("\n## Telemetry\n\n");
    if snapshot.is_empty() {
        s.push_str("No metrics captured (telemetry compiled out via `--no-default-features`).\n");
        return s;
    }
    s.push_str("Full machine-readable snapshot in `manifest.json`.\n\n");
    s.push_str("| metric | value |\n|---|---|\n");
    for metric in &snapshot.metrics {
        let rendered = match &metric.value {
            MetricValue::Counter(v) => format!("{v}"),
            MetricValue::Gauge(v) => format!("{v:.3}"),
            MetricValue::Histogram(h) => format!(
                "{} samples, mean {:.0} µs, max {:.0} µs",
                h.count,
                h.mean(),
                h.max.unwrap_or(0.0)
            ),
        };
        let _ = writeln!(s, "| {} | {rendered} |", metric.name);
    }
    s
}

/// Prints the per-experiment timing breakdown (`--timing-details`).
fn print_timing_details(manifest: &Manifest) {
    println!("\nTiming details ({} worker(s)):", manifest.threads);
    let total = manifest.total_wall.as_secs_f64();
    for phase in &manifest.phases {
        let pct = if total > 0.0 {
            100.0 * phase.wall.as_secs_f64() / total
        } else {
            0.0
        };
        println!("  {:<14} {:>10.1?}  {pct:>5.1}%", phase.name, phase.wall);
    }
    if let Some(h) = manifest.metrics.histogram("runner.cell_time_us") {
        println!(
            "  per-cell simulation time: {} cells, mean {:.0} µs, min {:.0} µs, max {:.0} µs",
            h.count,
            h.mean(),
            h.min.unwrap_or(0.0),
            h.max.unwrap_or(0.0)
        );
    }
    if let Some(h) = manifest.metrics.histogram("runner.queue_wait_us") {
        println!(
            "  queue wait: mean {:.0} µs, max {:.0} µs",
            h.mean(),
            h.max.unwrap_or(0.0)
        );
    }
    if let Some(u) = manifest.metrics.gauge("runner.worker_utilization") {
        println!("  worker utilization (last batch): {:.0}%", 100.0 * u);
    }
    if let Some(mips) = manifest.metrics.gauge("runner.sim_mips") {
        println!("  engine throughput (last batch): {mips:.2} MIPS");
    }
}
