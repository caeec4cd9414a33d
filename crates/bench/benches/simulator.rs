//! Simulator micro-benchmarks: engine throughput across depths and
//! workload classes, plus the cache and predictor substrates in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pipedepth_sim::cache::Hierarchy;
use pipedepth_sim::predictor::Gshare;
use pipedepth_sim::{
    annotate, replay, replay_sweep, CacheConfig, Engine, PredictorConfig, SimConfig,
};
use pipedepth_telemetry::Telemetry;
use pipedepth_trace::{TraceArena, TraceGenerator, WorkloadModel};
use std::hint::black_box;

fn bench_engine_depths(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    const N: u64 = 50_000;
    group.throughput(Throughput::Elements(N));
    for depth in [2u32, 8, 16, 25] {
        group.bench_with_input(BenchmarkId::new("specint", depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut engine = Engine::new(SimConfig::paper(depth));
                let mut gen = TraceGenerator::new(WorkloadModel::spec_int_like(), 1);
                black_box(engine.run(&mut gen, N))
            })
        });
    }
    group.finish();
}

fn bench_engine_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_by_class");
    const N: u64 = 50_000;
    group.throughput(Throughput::Elements(N));
    for (name, model) in [
        ("legacy", WorkloadModel::legacy_like()),
        ("specint", WorkloadModel::spec_int_like()),
        ("modern", WorkloadModel::modern_like()),
        ("fp", WorkloadModel::spec_fp_like()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut engine = Engine::new(SimConfig::paper(12));
                let mut gen = TraceGenerator::new(model, 1);
                black_box(engine.run(&mut gen, N))
            })
        });
    }
    group.finish();
}

/// Arena-vs-streaming: the same 50k-instruction simulation through the
/// slice hot path over a pre-materialised trace (the repro run's steady
/// state: the stream is resident, only the engine runs) versus the
/// streaming path that regenerates the trace inline. The gap is the
/// per-cell cost the arena removes times the slice path's win.
fn bench_engine_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_paths");
    const N: u64 = 50_000;
    group.throughput(Throughput::Elements(N));
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, N);
    for depth in [2u32, 8, 16, 25] {
        group.bench_with_input(
            BenchmarkId::new("slice_arena", depth),
            &depth,
            |b, &depth| {
                b.iter(|| {
                    let mut engine = Engine::new(SimConfig::paper(depth));
                    black_box(engine.run_slice(black_box(&trace), N))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streaming_regen", depth),
            &depth,
            |b, &depth| {
                b.iter(|| {
                    let mut engine = Engine::new(SimConfig::paper(depth));
                    let mut gen = TraceGenerator::new(WorkloadModel::spec_int_like(), 1);
                    black_box(engine.run(&mut gen, N))
                })
            },
        );
    }
    group.finish();
}

/// Cost of materialising a stream into the arena (the once-per-workload
/// price the arena amortises) versus looking a resident one up. A lookup
/// processes no instructions, so it reports no element rate: it runs
/// before the group's throughput is set.
fn bench_trace_materialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_materialization");
    const N: u64 = 100_000;
    group.bench_function("arena_lookup", |b| {
        let arena = TraceArena::new();
        arena.get_or_generate(WorkloadModel::modern_like(), 7, N);
        b.iter(|| black_box(arena.get_or_generate(WorkloadModel::modern_like(), 7, N)))
    });
    group.throughput(Throughput::Elements(N));
    group.bench_function("arena_fill", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            // A fresh seed each iteration forces a real materialisation.
            seed += 1;
            let arena = TraceArena::new();
            black_box(arena.get_or_generate(WorkloadModel::modern_like(), seed, N))
        })
    });
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    const N: usize = 100_000;
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("modern", |b| {
        b.iter(|| {
            let mut gen = TraceGenerator::new(WorkloadModel::modern_like(), 7);
            black_box(gen.take_vec(N))
        })
    });
    group.finish();
}

/// Annotate-once vs. a full engine pass, and the replay kernel against
/// the engine at one depth: the three costs whose ratio justifies the
/// sweep kernel. `annotate` must sit well below one engine pass (it is
/// paid once per stream), and `replay` below the engine (it is paid per
/// depth).
fn bench_annotate_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("annotate_vs_full");
    const N: u64 = 50_000;
    group.throughput(Throughput::Elements(N));
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, N);
    let config = SimConfig::paper(12);
    let notes = annotate(&trace, config.cache, config.predictor).expect("valid configuration");
    group.bench_function("annotate_once", |b| {
        b.iter(|| black_box(annotate(black_box(&trace), config.cache, config.predictor)))
    });
    group.bench_function("engine_full_pass", |b| {
        b.iter(|| {
            let mut engine = Engine::new(config);
            black_box(engine.run_slice(black_box(&trace), N))
        })
    });
    group.bench_function("replay_one_depth", |b| {
        b.iter(|| black_box(replay(black_box(&notes), config, 0, N)))
    });
    group.finish();
}

/// Batched multi-depth replay at the group sizes that run in practice:
/// 1 and 3 lanes (the service's small groups, blocks of 1 and 2+1), 8 (one
/// full lane block) and 24 (the repro sweep, three blocks). The element
/// rate counts lane-instructions, so per-lane cost reads off directly;
/// even lanes = 1 must beat a full engine pass.
fn bench_sweep_kernel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_kernel_scaling");
    const N: u64 = 50_000;
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(WorkloadModel::spec_int_like(), 1, N);
    let base = SimConfig::paper(2);
    let notes = annotate(&trace, base.cache, base.predictor).expect("valid configuration");
    for lanes in [1usize, 3, 8, 24] {
        // Per-lane throughput: N instructions advanced through each lane.
        group.throughput(Throughput::Elements(N * lanes as u64));
        let configs: Vec<SimConfig> = (0..lanes)
            .map(|i| SimConfig::paper(2 + (i as u32 * 23) / lanes.max(1) as u32))
            .collect();
        group.bench_with_input(BenchmarkId::new("lanes", lanes), &configs, |b, configs| {
            b.iter(|| {
                black_box(replay_sweep(
                    black_box(&notes),
                    configs,
                    0,
                    N,
                    &Telemetry::disabled(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    const N: u64 = 200_000;
    group.throughput(Throughput::Elements(N));
    group.bench_function("hierarchy_streaming", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(CacheConfig::default());
            let mut hits = 0u64;
            for i in 0..N {
                if h.access(black_box(i * 8 % (1 << 22))) == pipedepth_sim::cache::AccessResult::L1
                {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let mut group = c.benchmark_group("predictor");
    const N: u64 = 500_000;
    group.throughput(Throughput::Elements(N));
    group.bench_function("gshare_observe", |b| {
        b.iter(|| {
            let mut bp = Gshare::try_new(PredictorConfig::default()).expect("valid configuration");
            let mut x = 0x1234_5678u64;
            for _ in 0..N {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                bp.observe(black_box(x & 0xFFF0), (x >> 60) & 3 != 0);
            }
            black_box(bp.miss_rate())
        })
    });
    group.finish();
}

criterion_group! {
    name = simulator;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_depths, bench_engine_classes, bench_engine_paths,
              bench_annotate_vs_full, bench_sweep_kernel_scaling,
              bench_trace_materialization, bench_trace_generation,
              bench_cache, bench_predictor
}
criterion_main!(simulator);
