//! Persistent-store micro-benchmarks: the cost of the disk tier's
//! moving parts, so BENCH_10.json can attribute warm-run speedups.
//!
//! Three layers are measured over realistic record shapes (simulated
//! `CellSpec`/`SimReport` cells and a 90k-instruction `AnnotatedTrace`):
//!
//! * `store_codec` — pure encode/decode of individual records (the
//!   flusher thread's CPU cost per record);
//! * `store_roundtrip` — publishing and loading whole namespaces
//!   through a scratch directory, checksums and the atomic
//!   temp-file-and-rename publish included;
//! * `store_warm_probe` — a warm-tier probe + promote against a loaded
//!   image, the per-cell overhead a warm run pays instead of simulating.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pipedepth_experiments::{CellSpec, RunConfig, RunStore, Runner, SimCache};
use pipedepth_sim::{annotate, AnnotatedTrace, SimConfig, SimReport};
use pipedepth_store::{Blob, ByteReader, ByteWriter};
use pipedepth_telemetry::Telemetry;
use pipedepth_trace::{TraceGenerator, WorkloadModel};
use pipedepth_workloads::representatives;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

/// A scratch directory unique to this bench process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pipedepth-bench-store-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The bench-sized run configuration used to populate the store.
fn bench_config() -> RunConfig {
    RunConfig {
        warmup: 2_000,
        instructions: 4_000,
        depths: vec![4, 8, 12, 16],
        ..RunConfig::default()
    }
}

/// Simulated cells (spec, report) for the representative workloads over
/// a small depth grid — the record population a quick run publishes.
fn simulated_cells() -> Vec<(CellSpec, Arc<SimReport>)> {
    let runner = Runner::serial();
    runner.sweep_all(&representatives(), &bench_config());
    runner.export_reports()
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_codec");
    let cells = simulated_cells();
    group.throughput(Throughput::Elements(cells.len() as u64));
    group.bench_function("report_records_encode_decode", |b| {
        b.iter(|| {
            for (spec, report) in &cells {
                let mut w = ByteWriter::new();
                spec.encode(&mut w);
                report.encode(&mut w);
                let bytes = w.into_bytes();
                let mut r = ByteReader::new(&bytes);
                let spec2 = CellSpec::decode(&mut r).expect("spec decodes");
                let report2 = SimReport::decode(&mut r).expect("report decodes");
                black_box((spec2, report2));
            }
        })
    });

    const N: usize = 90_000;
    let sim = SimConfig::paper(10);
    let trace = TraceGenerator::new(WorkloadModel::spec_int_like(), 3).take_vec(N);
    let notes = annotate(&trace, sim.cache, sim.predictor).expect("valid config");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("annotation_90k_encode_decode", |b| {
        b.iter(|| {
            let mut w = ByteWriter::new();
            notes.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            black_box(AnnotatedTrace::decode(&mut r).expect("annotation decodes"))
        })
    });
    group.finish();
}

fn bench_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_roundtrip");
    group.sample_size(10);
    let cells = simulated_cells();
    let cfg = bench_config();
    let telemetry = Telemetry::disabled();

    group.throughput(Throughput::Elements(cells.len() as u64));
    group.bench_function("publish_reports", |b| {
        let dir = scratch("publish");
        b.iter(|| {
            let store = RunStore::open(&dir, &cfg, &telemetry);
            store.flush_reports(cells.clone());
            black_box(store.finish())
        })
    });
    group.bench_function("load_reports", |b| {
        let dir = scratch("load");
        let store = RunStore::open(&dir, &cfg, &telemetry);
        store.flush_reports(cells.clone());
        store.finish();
        b.iter(|| {
            let mut store = RunStore::open(&dir, &cfg, &telemetry);
            let warm = store.load_reports();
            assert_eq!(warm.len(), cells.len());
            black_box(warm)
        })
    });
    group.finish();
}

fn bench_warm_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_warm_probe");
    let cells = simulated_cells();
    group.throughput(Throughput::Elements(cells.len() as u64));
    group.bench_function("probe_and_promote", |b| {
        b.iter(|| {
            // A fresh memory tier each iteration: every probe walks the
            // warm image and promotes — the warm run's startup regime.
            let warm = SimCache::new();
            for (spec, report) in &cells {
                warm.insert(spec.key(), *spec, Arc::clone(report));
            }
            let cache = SimCache::backed_by(warm);
            for (spec, _) in &cells {
                black_box(cache.get(spec.key(), spec).expect("warm hit"));
            }
            black_box(cache.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_roundtrip, bench_warm_probe);
criterion_main!(benches);
