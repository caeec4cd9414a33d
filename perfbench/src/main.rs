//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <repro-cold|repro-warm|serve-zipf> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root; `run.sh` builds the release binaries and
//! this harness first. With `--trace 0` the harness times the release
//! binaries and reports the end-to-end metrics; with `--trace 1` it makes
//! a separate traced run that reports the per-layer metrics. Every output
//! is checked. The full record (provenance, medians, quartiles, sample
//! counts, exact work counters) is printed before the last line and kept
//! under `.bench_work/`; the last stdout line is the summary record. The
//! exit code is non-zero when a check failed or the run could not happen.

mod http;
mod loadgen;
mod procs;
mod record;
mod repro;
mod serve;
mod spans;
mod stats;

use record::{Provenance, Record, RunInfo};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["repro-cold", "repro-warm", "serve-zipf"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A metric of a layer the
/// workload does not load reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("trace.generate_ns_per_instr", "ns"),
    ("trace.instructions_materialized", "count"),
    ("trace.arena_hit_ratio", "ratio"),
    ("sim.annotate_ns_per_instr", "ns"),
    ("sim.instructions_annotated", "count"),
    ("sim.replay_ns_per_lane_instr", "ns"),
    ("sim.lanes_per_group", "count"),
    ("sim.lane_instructions", "count"),
    ("sim.engine_ns_per_instr", "ns"),
    ("sim.cells_simulated", "count"),
    ("sim.instructions", "count"),
    ("core.sim_cache_hit_ratio", "ratio"),
    ("core.warm_hit_ratio", "ratio"),
    ("core.model_eval_us", "us"),
    ("core.optimum_us", "us"),
    ("store.reports_load_ms", "ms"),
    ("store.annotations_load_ms", "ms"),
    ("store.bytes_loaded", "bytes"),
    ("store.annotation_use_ratio", "ratio"),
    ("store.reports_loaded", "count"),
    ("store.annotations_loaded", "count"),
    ("store.publish_ms", "ms"),
    ("store.bytes_written", "bytes"),
    ("experiments.suite_sweep_s", "s"),
    ("experiments.runner_residual_ratio", "ratio"),
    ("experiments.sim_phases_s", "s"),
    ("experiments.figures_ms", "ms"),
    ("experiments.report_write_ms", "ms"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.evaluate_p50_us", "us"),
    ("serve.evaluate_p99_us", "us"),
    ("serve.http_overhead_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.batch_size_mean", "count"),
    ("serve.shed_ratio", "ratio"),
    ("serve.p99_ms", "ms"),
    ("serve.goodput_rps", "1/s"),
    ("serve.degraded_ratio", "ratio"),
    ("serve.dispatches", "count"),
    ("serve.dispatch_cells", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Where a run happens and what it was asked for.
#[derive(Debug, Clone)]
pub struct Env {
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// Directory of the release binaries under test.
    pub bins: PathBuf,
    /// Scratch space for stores, outputs and spans.
    pub work: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
}

impl Env {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bins.join(name)
    }

    /// Where a traced run writes one span file.
    pub fn spans_path(&self, part: &str) -> PathBuf {
        self.work.join(format!(
            "spans-{}-seed{}-{part}.jsonl",
            self.workload, self.seed
        ))
    }
}

/// Whether another sample, as long as the mean of the `done` samples so
/// far, still ends within `budget` of `started`. Keeps a run close to its
/// stated length whatever one sample costs on the host.
pub fn room_for_another(started: Instant, done: usize, budget: Duration) -> bool {
    let elapsed = started.elapsed();
    let per_sample = elapsed / u32::try_from(done.max(1)).unwrap_or(u32::MAX);
    elapsed + per_sample <= budget
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <1..=600> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, u64, u64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s @ 1..=600) => seconds = Some(s),
                _ => return Err(format!("bad --seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(t), Some(tr)) => Ok((w, s, t, tr)),
        _ => Err("--workload, --seed, --seconds and --trace are all required".to_string()),
    }
}

/// Orders the record's metrics as declared; a per-layer metric the
/// workload's layers never produced reads 0, an end-to-end one is an
/// error.
fn finalize(rec: &mut Record, trace: bool) -> Result<(), String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        match rec.metric(name) {
            Some(m) if m.unit == unit => ordered.push(m.clone()),
            Some(m) => {
                return Err(format!(
                    "{name} measured in {} but declared in {unit}",
                    m.unit
                ))
            }
            None if trace => {
                let mut zero = Record::default();
                zero.add_value(name, unit, 0.0);
                ordered.extend(zero.metrics);
            }
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    if let Some(m) = rec
        .metrics
        .iter()
        .find(|m| !declared.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("undeclared metric {}", m.name));
    }
    rec.metrics = ordered;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("crates").is_dir() || !root.join("results").is_dir() {
        eprintln!("run from the repository root (no crates/ or results/ here)");
        return ExitCode::from(2);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let env = Env {
        root: root.clone(),
        bins: target.join("release"),
        work: root.join(".bench_work"),
        workload: workload.clone(),
        seed,
        seconds: Duration::from_secs(seconds),
    };
    for bin in ["repro", "pipedepth-serve"] {
        if !env.bin(bin).is_file() {
            eprintln!(
                "missing release binary {} (build with perfbench/run.sh)",
                env.bin(bin).display()
            );
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::create_dir_all(&env.work) {
        eprintln!("cannot create {}: {e}", env.work.display());
        return ExitCode::from(2);
    }
    let result = match (workload.as_str(), trace) {
        ("repro-cold", false) => repro::run(&env, false),
        ("repro-warm", false) => repro::run(&env, true),
        ("repro-cold", true) => repro::run_traced(&env, false),
        ("repro-warm", true) => repro::run_traced(&env, true),
        (_, false) => serve::run(&env),
        (_, true) => serve::run_traced(&env),
    };
    let rec = match result.and_then(|mut rec| finalize(&mut rec, trace).map(|()| rec)) {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let info = RunInfo {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
    };
    let full = rec.full(&info, &Provenance::collect(&root));
    let path = env.work.join(format!(
        "record-{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{full}\n")) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    summarize(&rec, &info);
    println!("{full}");
    println!("{}", rec.last_line());
    if rec.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: {} of {} checks failed",
            rec.failed, rec.attempted
        );
        ExitCode::FAILURE
    }
}

/// A human-readable table on stderr.
fn summarize(rec: &Record, info: &RunInfo) {
    eprintln!(
        "{} seed {} ({}): {} attempted, {} failed",
        info.workload,
        info.seed,
        if info.trace { "traced" } else { "untraced" },
        rec.attempted,
        rec.failed
    );
    for m in rec.metrics.iter().chain(&rec.extra) {
        let s = &m.summary;
        eprintln!(
            "  {:<36} {:>14.6} {:<6} [q1 {:.6}, q3 {:.6}, n={}]",
            m.name, s.median, m.unit, s.q1, s.q3, s.samples
        );
    }
    for (name, value) in &rec.counters {
        eprintln!("  {name:<36} {value:>14} count (exact)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedepth_serve::json::{self, Json};
    use std::path::Path;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn rationale_covers_every_workload_and_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("rationale.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let own =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let serve = doc.get("serve_zipf").unwrap();
        let num = |k: &str| serve.get(k).and_then(Json::as_f64).unwrap();
        assert_eq!(num("rate_rps"), serve::RATE_RPS);
        assert_eq!(num("span_s"), serve::SPAN.as_secs_f64());
        assert_eq!(num("connections"), loadgen::CONNECTIONS as f64);
        assert_eq!(num("latency_limit_ms"), serve::LATENCY_LIMIT_MS);
        assert_eq!(num("zipf_s"), loadgen::ZIPF_S);
    }

    #[test]
    fn args_parse_and_refuse() {
        let a = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&a("--workload serve-zipf --seed 3 --seconds 20 --trace 1")),
            Ok(("serve-zipf".to_string(), 3, 20, true))
        );
        assert!(parse_args(&a("--workload nope --seed 3 --seconds 20 --trace 1")).is_err());
        assert!(parse_args(&a("--workload repro-cold --seed 3 --seconds 0 --trace 1")).is_err());
        assert!(parse_args(&a("--workload repro-cold --seed 3")).is_err());
    }

    #[test]
    fn finalize_orders_and_fills_per_layer_metrics() {
        let mut rec = Record::default();
        rec.add_value("bench.trace_overhead_ratio", "ratio", 1.5);
        rec.add_value("trace.generate_ns_per_instr", "ns", 12.0);
        finalize(&mut rec, true).unwrap();
        assert_eq!(rec.metrics.len(), PER_LAYER.len());
        assert_eq!(rec.metrics[0].name, "trace.generate_ns_per_instr");
        assert_eq!(rec.metric("serve.decode_us").unwrap().summary.median, 0.0);
        let mut rec = Record::default();
        rec.add_value("setup_s", "s", 1.0);
        assert!(finalize(&mut rec, false).is_err());
    }
}
