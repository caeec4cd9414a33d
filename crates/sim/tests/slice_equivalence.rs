//! Slice-mode / streaming-mode equivalence.
//!
//! `Engine::run_slice` over an arena-materialised trace is the repro run's
//! hot path; `Engine::run` over a live generator is the reference
//! semantics. The two must be indistinguishable: for every workload class
//! and a spread of pipeline depths, the full `SimReport` — cycle counts,
//! hazard attribution, per-unit activity, miss rates — must be identical,
//! instruction for instruction. This is the contract that lets the runner
//! replay arena slices without perturbing a single figure.

use pipedepth_sim::{Engine, SimConfig};
use pipedepth_trace::{TraceArena, TraceGenerator, WorkloadModel};

const WARMUP: u64 = 3_000;
const MEASURE: u64 = 6_000;
const DEPTHS: [u32; 4] = [2, 8, 16, 25];

/// The paper's four workload classes, by their model presets.
fn classes() -> [(&'static str, WorkloadModel); 4] {
    [
        ("legacy", WorkloadModel::legacy_like()),
        ("spec_int", WorkloadModel::spec_int_like()),
        ("modern", WorkloadModel::modern_like()),
        ("spec_fp", WorkloadModel::spec_fp_like()),
    ]
}

#[test]
fn run_slice_reproduces_streaming_run_exactly() {
    let arena = TraceArena::new();
    for (name, model) in classes() {
        let seed = 0xA11CE ^ name.len() as u64;
        let trace = arena.get_or_generate(model, seed, WARMUP + MEASURE);
        for depth in DEPTHS {
            // Reference: the streaming path over a live generator.
            let mut gen = TraceGenerator::new(model, seed);
            let mut streaming = Engine::new(SimConfig::paper(depth));
            streaming.warm_up(&mut gen, WARMUP);
            let reference = streaming.run(&mut gen, MEASURE);

            // Hot path: the slice entry points over the shared stream.
            let mut sliced = Engine::new(SimConfig::paper(depth));
            sliced.warm_up_slice(&trace[..WARMUP as usize], WARMUP);
            let fast = sliced.run_slice(&trace[WARMUP as usize..], MEASURE);

            // SimReport's PartialEq covers config, plan, instructions,
            // cycles, distinct issue cycles, per-unit activity, hazard
            // events and stall cycles, branches, mispredicts, miss rates
            // and memory wait — the whole observable surface.
            assert_eq!(
                reference, fast,
                "slice mode diverged for {name} at depth {depth}"
            );
        }
    }
    // The whole matrix drew its traces from four materialisations.
    assert_eq!(arena.stats().misses, 4);
}

#[test]
fn slice_windows_compose_like_one_stream() {
    // Splitting the slice at the warmup boundary must behave like the
    // generator's single continuous stream: no instruction is dropped or
    // replayed at the seam. Run the measure window over the *wrong* seam
    // and check it actually changes the answer (the seam is load-bearing).
    let model = WorkloadModel::spec_int_like();
    let arena = TraceArena::new();
    let trace = arena.get_or_generate(model, 7, WARMUP + MEASURE);
    let mut aligned = Engine::new(SimConfig::paper(12));
    aligned.warm_up_slice(&trace[..WARMUP as usize], WARMUP);
    let good = aligned.run_slice(&trace[WARMUP as usize..], MEASURE);

    let mut misaligned = Engine::new(SimConfig::paper(12));
    misaligned.warm_up_slice(&trace[..WARMUP as usize], WARMUP);
    let skewed = misaligned.run_slice(&trace[WARMUP as usize + 1..], MEASURE - 1);
    assert_ne!(
        good, skewed,
        "a one-instruction seam shift must be observable"
    );
}
