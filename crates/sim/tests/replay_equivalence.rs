//! Annotate/replay vs. stage-engine equivalence.
//!
//! The sweep kernel's contract is exactness: annotating a trace once and
//! replaying the annotation per depth must produce a `SimReport` that is
//! *bit-identical* to a fresh stage-engine pass over the same stream —
//! for every workload class, every depth, single-depth and batched
//! multi-lane replay alike. This is the contract that lets the runner
//! group a sweep's cells into one annotate + one batched replay
//! (`--no-sweep-kernel` restores the per-cell engine path) without
//! perturbing a single figure.

use pipedepth_sim::annotate::{annotate, AnnotationStore};
use pipedepth_sim::config::{Features, IssuePolicy};
use pipedepth_sim::replay::{replay, replay_sweep};
use pipedepth_sim::{Engine, SimConfig, SimReport};
#[cfg(feature = "telemetry")]
use pipedepth_telemetry::MetricValue;
use pipedepth_telemetry::Telemetry;
use pipedepth_trace::isa::Instruction;
use pipedepth_trace::{TraceArena, WorkloadModel};

const WARMUP: u64 = 3_000;
const MEASURE: u64 = 6_000;
const DEPTHS: [u32; 5] = [2, 7, 13, 19, 25];

/// The paper's four workload classes, by their model presets.
fn classes() -> [(&'static str, WorkloadModel); 4] {
    [
        ("legacy", WorkloadModel::legacy_like()),
        ("spec_int", WorkloadModel::spec_int_like()),
        ("modern", WorkloadModel::modern_like()),
        ("spec_fp", WorkloadModel::spec_fp_like()),
    ]
}

/// The reference semantics: a fresh stage engine over the slice hot path.
fn engine_reference(trace: &[Instruction], config: SimConfig, warmup: u64) -> SimReport {
    let mut engine = Engine::new(config);
    engine.warm_up_slice(&trace[..warmup as usize], warmup);
    engine.run_slice(&trace[warmup as usize..], u64::MAX)
}

#[test]
fn replay_reproduces_engine_across_class_depth_grid() {
    let arena = TraceArena::new();
    for (name, model) in classes() {
        let seed = 0xA11CE ^ name.len() as u64;
        let trace = arena.get_or_generate(model, seed, WARMUP + MEASURE);
        let base = SimConfig::paper(DEPTHS[0]);
        let notes = annotate(&trace, base.cache, base.predictor).expect("valid config");

        // Batched: all five depths advanced through one annotation pass.
        let configs: Vec<SimConfig> = DEPTHS.iter().map(|&d| SimConfig::paper(d)).collect();
        let batched = replay_sweep(&notes, &configs, WARMUP, MEASURE, &Telemetry::disabled())
            .expect("valid configs");
        assert_eq!(batched.len(), DEPTHS.len());

        for (config, from_batch) in configs.iter().zip(&batched) {
            let reference = engine_reference(&trace, *config, WARMUP);
            let single = replay(&notes, *config, WARMUP, MEASURE).expect("valid config");
            assert_eq!(
                reference, single,
                "single-depth replay diverged for {name} at depth {}",
                config.depth
            );
            assert_eq!(
                &reference, from_batch,
                "batched replay diverged for {name} at depth {}",
                config.depth
            );
        }
    }
}

#[test]
fn batched_lanes_may_differ_in_everything_but_the_annotation() {
    // Lanes sharing one annotation may differ in any knob that does not
    // feed it: depth, width, cache ports, forwarding, stall-on-use,
    // queue scaling, issue policy. Mix them all in one batch.
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(WorkloadModel::modern_like(), 99, WARMUP + MEASURE);
    let base = SimConfig::paper(8);
    let notes = annotate(&trace, base.cache, base.predictor).expect("valid config");

    let mut lanes = vec![SimConfig::paper(8), SimConfig::paper(20)];
    let mut narrow = SimConfig::paper(12);
    narrow.width = 2;
    narrow.cache_ports = 1;
    lanes.push(narrow);
    let mut no_forwarding = SimConfig::paper(12);
    no_forwarding.features = Features {
        forwarding: false,
        ..Features::default()
    };
    lanes.push(no_forwarding);
    let mut blocking = SimConfig::paper(16);
    blocking.features = Features {
        stall_on_use: false,
        scaled_queues: false,
        ..Features::default()
    };
    lanes.push(blocking);
    let mut ooo = SimConfig::paper(16);
    ooo.features = Features {
        issue: IssuePolicy::OutOfOrder,
        ..Features::default()
    };
    lanes.push(ooo);

    let batched =
        replay_sweep(&notes, &lanes, WARMUP, MEASURE, &Telemetry::disabled()).expect("valid");
    for (config, report) in lanes.iter().zip(&batched) {
        let reference = engine_reference(&trace, *config, WARMUP);
        assert_eq!(
            &reference, report,
            "mixed-feature lane diverged (depth {}, width {})",
            config.depth, config.width
        );
    }
}

#[test]
fn warmup_seam_matches_engine_exactly() {
    // The warmup boundary is where the lane resets its statistics while
    // keeping timing state; sweep it across odd positions, including 0
    // and beyond the trace length.
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(WorkloadModel::spec_fp_like(), 5, 4_000);
    let config = SimConfig::paper(11);
    let notes = annotate(&trace, config.cache, config.predictor).expect("valid config");
    for warmup in [0u64, 1, 777, 3_999, 4_000, 9_000] {
        let clamped = warmup.min(4_000);
        let mut engine = Engine::new(config);
        engine.warm_up_slice(&trace, warmup);
        let reference = engine.run_slice(&trace[clamped as usize..], u64::MAX);
        let fast = replay(&notes, config, warmup, u64::MAX).expect("valid config");
        assert_eq!(reference, fast, "warmup seam {warmup} diverged");
    }
}

/// A deterministic xorshift for randomized-model generation — the vendored
/// proptest idiom without the dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish f64 in [lo, hi).
    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

#[test]
fn randomized_workloads_replay_exactly() {
    // Proptest-style: perturb a base model's knobs through a seeded RNG
    // and pin replay == engine on every case. Failures print the case
    // seed, which fully reproduces the model.
    let arena = TraceArena::new();
    let mut rng = XorShift(0xDEC0DE);
    for case in 0..8u64 {
        let case_seed = rng.next();
        // A random instruction mix: raw weights, normalised to sum to 1.
        let w = [
            rng.in_range(0.2, 1.0),  // alu_rr
            rng.in_range(0.0, 0.3),  // alu_rx
            rng.in_range(0.1, 0.6),  // load
            rng.in_range(0.05, 0.3), // store
            rng.in_range(0.05, 0.4), // branch
            rng.in_range(0.0, 0.5),  // fp
            rng.in_range(0.0, 0.1),  // fp_long
        ];
        let sum: f64 = w.iter().sum();
        let mix = pipedepth_trace::model::InstructionMix::new(
            w[0] / sum,
            w[1] / sum,
            w[2] / sum,
            w[3] / sum,
            w[4] / sum,
            w[5] / sum,
            w[6] / sum,
        );
        let mut model = WorkloadModel::modern_like();
        model.mix = mix;
        model.mean_dep_distance = rng.in_range(1.5, 12.0);
        model.dep_density = rng.in_range(0.2, 0.9);
        model.memory.spatial_locality = rng.in_range(0.3, 0.95);
        model.memory.working_set = 1 << (14 + (rng.next() % 10));
        model.branches.biased_fraction = rng.in_range(0.5, 0.98);
        model.branches.bias = rng.in_range(0.55, 0.99);
        model.serial_fraction = rng.in_range(0.0, 0.02);
        let depth = 2 + (rng.next() % 24) as u32;
        let warmup = rng.next() % 2_000;

        let trace = arena.get_or_generate(model, case_seed, 5_000);
        let config = SimConfig::paper(depth);
        let notes = annotate(&trace, config.cache, config.predictor).expect("valid config");
        let reference = engine_reference(&trace, config, warmup);
        let fast = replay(&notes, config, warmup, u64::MAX).expect("valid config");
        assert_eq!(
            reference, fast,
            "randomized case {case} (seed {case_seed:#x}, depth {depth}, warmup {warmup}) diverged"
        );
    }
}

#[test]
fn store_shares_one_annotation_per_stream_and_config() {
    // The runner's discipline: one annotation per (stream, cache,
    // predictor), reused across the whole depth sweep.
    let arena = TraceArena::new();
    let model = WorkloadModel::spec_int_like();
    let trace = arena.get_or_generate(model, 3, 2_000);
    let store = AnnotationStore::new();
    let base = SimConfig::paper(4);
    for depth in DEPTHS {
        let config = SimConfig::paper(depth);
        let notes = store
            .get_or_annotate(11, &trace, config.cache, config.predictor)
            .expect("valid config");
        let fast = replay(&notes, config, 500, u64::MAX).expect("valid config");
        let reference = engine_reference(&trace, config, 500);
        assert_eq!(reference, fast, "store-served replay diverged at {depth}");
    }
    assert_eq!(store.stats().misses, 1, "one annotation pass for the sweep");
    assert_eq!(store.stats().hits, DEPTHS.len() as u64 - 1);
    let _ = base;
}

/// A fresh engine over `trace`: `warmup` training instructions, then up to
/// `instructions` measured ones — the window semantics of `replay_sweep`.
fn engine_window(
    trace: &[Instruction],
    config: SimConfig,
    warmup: u64,
    instructions: u64,
) -> SimReport {
    let split = warmup.min(trace.len() as u64) as usize;
    let mut engine = Engine::new(config);
    engine.warm_up_slice(trace, warmup);
    engine.run_slice(&trace[split..], instructions)
}

/// Replays `configs` as one batch and pins every lane to a fresh engine
/// and to a single-lane replay of the same configuration.
fn assert_batch_exact(
    trace: &[Instruction],
    configs: &[SimConfig],
    warmup: u64,
    instructions: u64,
    what: &str,
) -> Vec<SimReport> {
    let base = configs[0];
    let notes = annotate(trace, base.cache, base.predictor).expect("valid config");
    let batched = replay_sweep(
        &notes,
        configs,
        warmup,
        instructions,
        &Telemetry::disabled(),
    )
    .expect("valid configs");
    assert_eq!(batched.len(), configs.len(), "{what}: one report per lane");
    for (lane, (config, report)) in configs.iter().zip(&batched).enumerate() {
        let reference = engine_window(trace, *config, warmup, instructions);
        assert_eq!(
            &reference,
            report,
            "{what}: lane {lane} of {} (depth {}, width {}) diverged from the engine",
            configs.len(),
            config.depth,
            config.width
        );
        let single = replay(&notes, *config, warmup, instructions).expect("valid config");
        assert_eq!(
            &single, report,
            "{what}: lane {lane} diverged from its single-lane replay"
        );
    }
    batched
}

/// Machines that share the paper machine's annotation but differ in every
/// knob the replay kernel keeps per lane: port widths, issue policy,
/// forwarding, stall-on-use, and queue scaling (hence ring capacity).
fn machine(kind: usize, depth: u32) -> SimConfig {
    let mut config = SimConfig::paper(depth);
    match kind % 8 {
        0 => {}
        1 => {
            config.width = 2;
            config.cache_ports = 1;
        }
        2 => config.features.forwarding = false,
        3 => {
            config.features.stall_on_use = false;
            config.features.scaled_queues = false;
        }
        4 => config.features.issue = IssuePolicy::OutOfOrder,
        5 => {
            config.width = 3;
            config.cache_ports = 3;
        }
        6 => {
            config.width = 1;
            config.cache_ports = 1;
            config.features.scaled_queues = false;
        }
        _ => {
            config.width = 8;
            config.features = Features {
                forwarding: false,
                stall_on_use: false,
                scaled_queues: true,
                issue: IssuePolicy::OutOfOrder,
            };
        }
    }
    config
}

#[test]
fn every_lane_count_and_block_split_matches_the_engine() {
    // 1..=25 lanes covers every split into 8/4/2/1 blocks, full and
    // partial, including 24 (8+8+8) and 25 (8+8+8+1).
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(WorkloadModel::spec_int_like(), 17, 3_000);
    for lanes in 1..=25usize {
        let configs: Vec<SimConfig> = (0..lanes)
            .map(|i| machine(i, 2 + (i as u32 * 7) % 24))
            .collect();
        assert_batch_exact(&trace, &configs, 1_000, 2_000, &format!("{lanes} lanes"));
    }
}

#[test]
fn permuted_and_duplicated_lanes_replay_independently() {
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(WorkloadModel::legacy_like(), 23, 3_500);
    let configs = vec![
        machine(0, 13),
        machine(0, 4),
        machine(4, 19),
        machine(0, 13),
        machine(0, 4),
        machine(2, 25),
        machine(4, 19),
        machine(0, 4),
        machine(0, 2),
        machine(0, 13),
    ];
    let forward = assert_batch_exact(&trace, &configs, 500, 3_000, "duplicated lanes");
    for (i, a) in configs.iter().enumerate() {
        for (j, b) in configs.iter().enumerate() {
            if a == b {
                assert_eq!(forward[i], forward[j], "duplicate lanes {i} and {j} differ");
            }
        }
    }
    let reversed: Vec<SimConfig> = configs.iter().rev().copied().collect();
    let backward = assert_batch_exact(&trace, &reversed, 500, 3_000, "reversed lanes");
    let unreversed: Vec<SimReport> = backward.into_iter().rev().collect();
    assert_eq!(forward, unreversed, "lane order must not matter");
}

#[test]
fn mixed_machines_share_one_block_exactly() {
    // Eight lanes, one block: every per-lane knob differs, and the ring
    // capacities span fixed 16-entry queues up to depth 60's 128 entries.
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(WorkloadModel::spec_fp_like(), 31, 4_000);
    let configs: Vec<SimConfig> = [60, 2, 9, 33, 5, 17, 12, 41]
        .iter()
        .enumerate()
        .map(|(kind, &depth)| machine(kind, depth))
        .collect();
    assert_batch_exact(&trace, &configs, 1_500, 2_500, "mixed block");
    // The same machines again in 4+2+1 blocks.
    assert_batch_exact(&trace, &configs[..7], 1_500, 2_500, "mixed 4+2+1");
}

/// A seeded stream of shapes the trace generator never emits. Operands
/// come from four registers per file, so dependences (and ready-cycle
/// ties between different kinds of writer) are dense; code and data
/// addresses scatter so accesses hit every cache level.
fn odd_stream(len: u64, seed: u64) -> Vec<Instruction> {
    use pipedepth_trace::isa::{BranchInfo, MemRef, OpClass, Reg};
    let mut rng = XorShift(seed);
    (0..len)
        .map(|i| {
            let x = rng.next();
            let pc = 0x4000 + (x >> 40) % 509 * 64 + (i % 4) * 4;
            let mem = MemRef {
                addr: ((x >> 20) % (1 << 24)) & !7,
                size: 8,
            };
            let branch = BranchInfo {
                taken: x & (1 << 62) != 0,
                target: pc + 256,
            };
            let r = |k: u64| Reg::gpr(((x >> (8 + 2 * k)) & 3) as u8);
            let f = |k: u64| Reg::fpr(((x >> (8 + 2 * k)) & 3) as u8);
            match x % 15 {
                // A memory operand on non-memory classes.
                0 => Instruction::new(pc, OpClass::AluRr)
                    .with_mem(mem)
                    .with_dst(r(0))
                    .with_src(r(1)),
                1 => Instruction::new(pc, OpClass::Fp)
                    .with_mem(mem)
                    .with_dst(f(0))
                    .with_src(f(1)),
                2 => Instruction::new(pc, OpClass::Branch)
                    .with_mem(mem)
                    .with_branch(branch),
                // A store with a destination, and one with no operand.
                3 => Instruction::new(pc, OpClass::Store)
                    .with_mem(mem)
                    .with_dst(r(2))
                    .with_src(r(3)),
                4 => Instruction::new(pc, OpClass::Store).with_src(r(1)),
                // No sources; a source equal to the destination.
                5 => Instruction::new(pc, OpClass::AluRr).with_dst(f(0)),
                6 => Instruction::new(pc, OpClass::AluRr)
                    .with_dst(f(1))
                    .with_src(f(1)),
                7 => Instruction::new(pc, OpClass::FpLong)
                    .with_dst(f(2))
                    .with_src(f(2))
                    .with_src(f(2)),
                // Serialising loads and branches.
                8 => Instruction::new(pc, OpClass::Load)
                    .with_mem(mem)
                    .with_dst(r(6))
                    .with_src(r(7))
                    .with_serial(),
                9 => Instruction::new(pc, OpClass::Branch)
                    .with_src(r(6))
                    .with_branch(branch)
                    .with_serial(),
                // Sources from an FP-unit writer and a load, in both
                // orders: ready-cycle ties must go to the first source.
                13 => Instruction::new(pc, OpClass::AluRr)
                    .with_dst(r(10))
                    .with_src(f(4))
                    .with_src(f(3)),
                14 => Instruction::new(pc, OpClass::Store)
                    .with_mem(mem)
                    .with_src(f(3))
                    .with_src(f(4)),
                // A load with no memory operand, and plain traffic.
                10 => Instruction::new(pc, OpClass::Load).with_dst(r(8)),
                11 => Instruction::new(pc, OpClass::AluRx)
                    .with_mem(mem)
                    .with_dst(r(9))
                    .with_src(r(9))
                    .with_src(r(8)),
                _ => Instruction::new(pc, OpClass::Load)
                    .with_mem(mem)
                    .with_dst(f(3))
                    .with_src(r(0)),
            }
        })
        .collect()
}

/// A motif that ties two sources' ready cycles: an FP op, five
/// serialising ops (one issue cycle each), then an ALU op whose result
/// (without forwarding) is ready exactly when the FP op's is. The consumer
/// reads both, mostly FP result first, so the engine's "first source wins a
/// tie" rule decides whether its stall is a data hazard.
fn tied_sources(repeats: u64) -> Vec<Instruction> {
    use pipedepth_trace::isa::{OpClass, Reg};
    let mut out = Vec::new();
    for i in 0..repeats {
        let pc = 0x8000 + (i % 8) * 64;
        out.push(Instruction::new(pc, OpClass::Fp).with_dst(Reg::fpr(0)));
        for k in 1..=5 {
            out.push(Instruction::new(pc + 4 * k, OpClass::AluRr).with_serial());
        }
        out.push(Instruction::new(pc + 24, OpClass::AluRr).with_dst(Reg::fpr(1)));
        let (a, b) = if i % 3 == 0 { (1, 0) } else { (0, 1) };
        out.push(
            Instruction::new(pc + 28, OpClass::AluRr)
                .with_dst(Reg::gpr(0))
                .with_src(Reg::fpr(a))
                .with_src(Reg::fpr(b)),
        );
    }
    out
}

#[test]
fn hand_built_streams_replay_exactly() {
    let configs: Vec<SimConfig> = (0..11).map(|i| machine(i, 3 + i as u32 * 5)).collect();
    for seed in 1..=4 {
        let trace = odd_stream(2_000, seed);
        let what = format!("hand-built stream {seed}");
        assert_batch_exact(&trace, &configs, 500, u64::MAX, &what);
        assert_batch_exact(&trace, &configs[..1], 0, u64::MAX, &what);
    }
    let tied: Vec<SimConfig> = (0..5u32)
        .map(|i| machine(2 * (i as usize % 2), 2 + i * 3))
        .collect();
    assert_batch_exact(&tied_sources(300), &tied, 0, u64::MAX, "tied sources");
}

#[test]
fn window_edges_match_the_engine() {
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(WorkloadModel::modern_like(), 41, 1_200);
    let configs: Vec<SimConfig> = (0..3).map(|i| machine(i * 3, 6 + i as u32 * 9)).collect();
    for (warmup, instructions) in [
        (1_200, 500),      // warmup consumes the whole stream
        (5_000, 5_000),    // warmup beyond the stream
        (0, 0),            // nothing measured, nothing warmed
        (300, 0),          // warmed, nothing measured
        (1_199, u64::MAX), // a one-instruction window
    ] {
        let reports = assert_batch_exact(
            &trace,
            &configs,
            warmup,
            instructions,
            &format!("warmup {warmup}, instructions {instructions}"),
        );
        let expected = instructions.min(1_200u64.saturating_sub(warmup));
        for report in reports {
            assert_eq!(report.instructions, expected);
        }
    }
    for report in assert_batch_exact(&[], &configs, 100, 100, "empty stream") {
        assert_eq!(report.instructions, 0);
        assert_eq!(report.cycles, 0);
    }
}

#[cfg(feature = "telemetry")]
#[test]
fn mixed_batch_flushes_the_sum_of_engine_counters() {
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(WorkloadModel::legacy_like(), 53, 4_000);
    let configs: Vec<SimConfig> = (0..11).map(|i| machine(i, 2 + i as u32 * 4)).collect();
    let (warmup, instructions) = (1_000, 3_000);

    // Every engine flushes into one shared registry, summing the lanes.
    let engines = Telemetry::new();
    for config in &configs {
        let mut engine = Engine::new(*config).with_telemetry(engines.clone());
        engine.warm_up_slice(&trace, warmup);
        engine.run_slice(&trace[warmup as usize..], instructions);
    }
    let replayed = Telemetry::new();
    let notes = annotate(&trace, configs[0].cache, configs[0].predictor).expect("valid config");
    replay_sweep(&notes, &configs, warmup, instructions, &replayed).expect("valid configs");

    let sim_counters = |t: &Telemetry| -> Vec<(String, u64)> {
        t.snapshot()
            .metrics
            .into_iter()
            .filter(|m| m.name.starts_with("sim."))
            .filter_map(|m| match m.value {
                MetricValue::Counter(v) => Some((m.name, v)),
                _ => None,
            })
            .collect()
    };
    let expected = sim_counters(&engines);
    assert!(expected.len() >= 20, "engines flushed {expected:?}");
    assert_eq!(expected, sim_counters(&replayed));
    let b = replayed.snapshot();
    assert_eq!(b.counter("sim.instructions"), 11 * instructions);
}
