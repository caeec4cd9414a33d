//! The replay pass: a per-depth timing kernel over an [`AnnotatedTrace`],
//! batched across depth lanes in struct-of-arrays lane blocks.
//!
//! With fetch classes, data-access classes and branch outcomes resolved
//! once by [`crate::annotate()`], what remains per depth is interval
//! timing: port grants, stage-latency arithmetic, the scoreboard, the
//! decoupling window, and the attribution of data-side and control
//! stalls. [`replay_sweep`] splits its lanes into power-of-two **lane
//! blocks** of 8, 4, 2 or 1 lanes (24 = 8+8+8, 3 = 2+1; never padded). In
//! a block every per-lane field is a `[u64; W]` array. Each block walks
//! the annotation once. It decodes an instruction's note and dispatches on
//! its [`OpClass`](pipedepth_trace::isa::OpClass) once per block, into a
//! const-generic step whose inner loop runs over the lanes. Lanes are the
//! inner loop on purpose: pushing one lane through many instructions would
//! chain every step on that lane's own latency. Where lanes can disagree
//! (port grants, the scoreboard's source pick, the hazard kind,
//! forwarding, stall-on-use) the step chooses with
//! [`std::hint::select_unpredictable`] instead of branching, so a lane's
//! cycles never steer control flow.
//!
//! Work that depends only on the annotation leaves the per-lane step. One
//! pass over the measured window counts fetch and data accesses by level,
//! branches, mispredicts and serialising operations (`WindowCounts`).
//! When the report is built, each lane's latency tables turn those counts
//! into its cache rates, unit activity, fetch-stall and memory-wait cycles
//! and fetch-side memory hazards. State that only repeats a port's cycle
//! is not kept: a port's cycle *is* the lane's last decode, issue or retire
//! cycle, and the retire cycle is the finish cycle. A register's
//! scoreboard entry is one word, its ready cycle above the writer's tag
//! bits, so the source pick is two maxima. [`replay_sweep`] rejects the
//! (absurd-latency) runs whose cycles could overflow that word.
//!
//! Exactness is the contract. The differential suite
//! (`sim/tests/replay_equivalence.rs`) pins every [`SimReport`]
//! bit-identical to a fresh [`crate::Engine`]'s, across every block split.

use crate::annotate::{AnnotatedTrace, FLAG_MEM, FLAG_SERIAL, NO_REG};
use crate::config::{ConfigError, IssuePolicy, SimConfig, StagePlan, Unit};
use crate::engine::metric_names;
use crate::hazard::{HazardKind, HazardStats};
use crate::report::SimReport;
use crate::stage::{Tables, REG_SLOTS};
use pipedepth_telemetry::Telemetry;
use pipedepth_trace::isa::OpClass;
use std::hint::select_unpredictable;
use std::ops::Range;

/// Operation classes as const-generic step parameters.
const ALU_RR: usize = OpClass::AluRr as usize;
const ALU_RX: usize = OpClass::AluRx as usize;
const LOAD: usize = OpClass::Load as usize;
const STORE: usize = OpClass::Store as usize;
const BRANCH: usize = OpClass::Branch as usize;
const FP: usize = OpClass::Fp as usize;
const FP_LONG: usize = OpClass::FpLong as usize;

/// Scoreboard words. A register's entry holds its ready cycle above four
/// tag bits: `TAG_MISS` marks a writer delayed by a cache miss, `TAG_FP` a
/// multi-cycle FP writer. A source read adds its position rank in bits
/// 1–2, so the larger of the two source words is exactly the engine's
/// pick: the later ready cycle, a miss winning a tie, then the first
/// source. The engine's implicit start ("ready at cycle 0, ordinary
/// writer") needs no word: a miss still wins a tie at cycle 0, and a
/// source ready at cycle 0 never stalls anything, so its other tag is moot.
const TAG_BITS: u32 = 4;
const TAG_MISS: u64 = 0b1000;
const TAG_FP: u64 = 0b0001;
const SOURCE_RANK: [u64; 2] = [0b0100, 0b0010];
/// The largest cycle a scoreboard word can hold.
const MAX_CYCLE: u64 = u64::MAX >> TAG_BITS;
/// Port slips (grants pushed one cycle on) and redirects one instruction
/// can add on top of its latencies, rounded up.
const SLIP_CYCLES: u64 = 8;

/// Hazard buckets of a lane block: the [`HazardKind`] discriminants, plus
/// a sink for stalls the engine leaves unattributed (waits on the FP unit).
const CONTROL: usize = HazardKind::Control as usize;
const DATA: usize = HazardKind::Data as usize;
const MEMORY: usize = HazardKind::Memory as usize;
const STRUCTURAL: usize = HazardKind::Structural as usize;
const UNATTRIBUTED: usize = HazardKind::ALL.len();

/// Scoreboard rows: the flat register slots, then a row that absent
/// sources read (never written, so it stays ready at cycle 0 with a
/// normal writer), then a row that absent destinations write (never read).
const ABSENT_SRC: usize = REG_SLOTS;
const ABSENT_DST: usize = REG_SLOTS + 1;
const ROWS: usize = REG_SLOTS + 2;

/// The widest lane block.
const MAX_BLOCK: usize = 8;

/// One instruction's lane-uniform fields, decoded from the annotation
/// columns once per block.
#[derive(Debug, Clone, Copy)]
struct Note {
    has_mem: bool,
    serial: bool,
    mispredict: bool,
    dst: usize,
    src: [usize; 2],
    /// Fetch access level (0 = no counted fetch), a penalty-table row.
    fetch: usize,
    /// Data access level (0 = no memory operand), a penalty-table row.
    data: usize,
}

impl AnnotatedTrace {
    #[inline(always)]
    fn note(&self, i: usize) -> Note {
        let row = |slot: u8, absent: usize| {
            if slot == NO_REG {
                absent
            } else {
                slot as usize
            }
        };
        let flags = self.flags[i];
        let [a, b] = self.src[i];
        Note {
            has_mem: flags & FLAG_MEM != 0,
            serial: flags & FLAG_SERIAL != 0,
            mispredict: self.branch[i] == 2,
            dst: row(self.dst[i], ABSENT_DST),
            src: [row(a, ABSENT_SRC), row(b, ABSENT_SRC)],
            fetch: self.fetch[i] as usize,
            data: self.data[i] as usize,
        }
    }
}

/// `a.max(b)` as a select: the lanes' cycles are data, and must not steer
/// control flow.
#[inline(always)]
fn max(a: u64, b: u64) -> u64 {
    select_unpredictable(a > b, a, b)
}

/// `a.min(b)` as a select (see [`max`]).
#[inline(always)]
fn min(a: u64, b: u64) -> u64 {
    select_unpredictable(a < b, a, b)
}

/// One validated lane: its configuration and the latency tables derived
/// from it.
#[derive(Debug, Clone, Copy)]
struct LaneConfig {
    config: SimConfig,
    plan: StagePlan,
    tables: Tables,
}

impl LaneConfig {
    fn new(config: SimConfig) -> Result<LaneConfig, ConfigError> {
        config.validate()?;
        let plan = StagePlan::try_for_depth(config.depth)?;
        let tables = Tables::new(&config, &plan);
        Ok(LaneConfig {
            config,
            plan,
            tables,
        })
    }

    /// Miss penalty in cycles of an access at annotation level `level`
    /// (1 = L1, 2 = L2, 3 = memory).
    fn penalty(&self, level: usize) -> u64 {
        self.tables.miss_penalty[level - 1]
    }

    /// Rejects a replay of `instructions` whose cycles could outgrow a
    /// scoreboard word. One instruction moves a lane's latest cycle on by
    /// at most its stage latencies, one fetch and one data penalty and a
    /// few port slips.
    fn check_cycle_range(&self, instructions: u64) -> Result<(), ConfigError> {
        let t = &self.tables;
        let penalty = t.miss_penalty.iter().copied().max().unwrap_or(0);
        let extra = t.exec_extra.iter().copied().max().unwrap_or(0);
        let per_instruction = [
            t.decode, t.agen, t.cache, t.execute, extra, t.complete, penalty, penalty,
        ]
        .iter()
        .try_fold(SLIP_CYCLES, |sum, &cycles| sum.checked_add(cycles));
        match per_instruction.and_then(|step| step.checked_mul(instructions)) {
            Some(bound) if bound <= MAX_CYCLE => Ok(()),
            _ => Err(ConfigError::CycleRange {
                instructions,
                cycles_per_instruction: per_instruction.unwrap_or(u64::MAX),
            }),
        }
    }
}

/// The lane-uniform statistics of a measured window: every event whose
/// count depends only on the annotation.
#[derive(Debug, Clone, Copy, Default)]
struct WindowCounts {
    instructions: u64,
    /// Instructions by fetch level (index 0: no counted fetch).
    fetch: [u64; 4],
    /// Memory operands by data-access level.
    data: [u64; 4],
    /// Memory operands of non-store classes by level: the accesses whose
    /// miss penalty an instruction waits on.
    data_waits: [u64; 4],
    branches: u64,
    mispredicts: u64,
    serialized: u64,
}

impl WindowCounts {
    fn tally(notes: &AnnotatedTrace, window: Range<usize>) -> WindowCounts {
        let mut w = WindowCounts {
            instructions: window.len() as u64,
            ..WindowCounts::default()
        };
        for i in window {
            w.fetch[notes.fetch[i] as usize] += 1;
            let flags = notes.flags[i];
            if flags & FLAG_MEM != 0 {
                let level = notes.data[i] as usize;
                w.data[level] += 1;
                if notes.classes[i] as usize != STORE {
                    w.data_waits[level] += 1;
                }
            }
            w.serialized += u64::from(flags & FLAG_SERIAL != 0);
            w.branches += u64::from(notes.branch[i] != 0);
            w.mispredicts += u64::from(notes.branch[i] == 2);
        }
        w
    }

    /// Memory operands of the window.
    fn memory_ops(&self) -> u64 {
        self.data.iter().sum()
    }

    /// `(accesses, misses)` for the l1d, l1i, l2 levels.
    fn cache(&self) -> [(u64, u64); 3] {
        let [_, d1, d2, d3] = self.data;
        let [_, f1, f2, f3] = self.fetch;
        [
            (d1 + d2 + d3, d2 + d3),
            (f1 + f2 + f3, f2 + f3),
            (f2 + f3 + d2 + d3, f3 + d3),
        ]
    }
}

/// A lane block's per-lane outcome of the measured window: the figures
/// that depend on the lane's own timing.
#[derive(Debug, Clone, Copy)]
struct LaneTiming {
    cycles: u64,
    distinct_issue_cycles: u64,
    hazard_events: [u64; HazardKind::ALL.len()],
    hazard_cycles: [u64; HazardKind::ALL.len()],
}

/// `W` in-order ports in struct-of-arrays form.
#[derive(Debug, Clone)]
struct Ports<const W: usize> {
    width: [u64; W],
    /// Current grant cycle per lane: the last cycle granted.
    cycle: [u64; W],
    used: [u64; W],
}

impl<const W: usize> Ports<W> {
    fn new(width: [u64; W]) -> Self {
        Ports {
            width,
            cycle: [0; W],
            used: [0; W],
        }
    }

    /// Grants lane `l` a slot at the earliest cycle ≥ `at` consistent
    /// with its previous grants — [`crate::Port::acquire`] without
    /// branches.
    #[inline(always)]
    fn acquire(&mut self, l: usize, at: u64) -> u64 {
        let later = at > self.cycle[l];
        let full = self.used[l] >= self.width[l];
        let cycle = select_unpredictable(later, at, self.cycle[l] + u64::from(full));
        self.used[l] = select_unpredictable(later | full, 1, self.used[l] + 1);
        self.cycle[l] = cycle;
        cycle
    }

    /// Exhausts lane `l`'s current cycle (serialising instructions).
    #[inline(always)]
    fn close_cycle(&mut self, l: usize) {
        self.used[l] = self.width[l];
    }
}

/// The timing state of `W` depth lanes, one `[u64; W]` array per field.
#[derive(Debug, Clone)]
struct Block<const W: usize> {
    // Lane constants.
    decode: [u64; W],
    agen: [u64; W],
    cache: [u64; W],
    /// E-unit cycles per operation class.
    exec_latency: [[u64; W]; OpClass::ALL.len()],
    complete: [u64; W],
    /// Miss penalty by access level; row 0 (no access) is zero.
    penalty: [[u64; W]; 4],
    hazard_cap: [u64; W],
    in_order: [bool; W],
    forwarding: [bool; W],
    stall_on_use: [bool; W],
    /// `ring.len() - queue_capacity` per lane: the decoupling floor is the
    /// ring row `pushes + ring_offset`.
    ring_offset: [usize; W],

    // Timing state. A port's cycle doubles as the lane's last decode,
    // issue and retire cycle; the retire cycle is the finish cycle.
    decode_port: Ports<W>,
    issue_port: Ports<W>,
    cache_port: Ports<W>,
    retire_port: Ports<W>,
    redirect_at: [u64; W],
    fp_busy_until: [u64; W],
    scoreboard: [[u64; W]; ROWS],
    /// The last issue cycles, zero-initialised: while a lane's window is
    /// filling, its floor row has never been written and reads 0.
    ring: Vec<[u64; W]>,
    ring_mask: usize,
    pushes: usize,

    // Window statistics.
    window_start: [u64; W],
    distinct: [u64; W],
    hazard_events: [[u64; W]; UNATTRIBUTED + 1],
    hazard_cycles: [[u64; W]; UNATTRIBUTED + 1],
}

impl<const W: usize> Block<W> {
    /// A block over exactly `W` lanes.
    fn new(lanes: &[LaneConfig]) -> Self {
        let each =
            |f: &dyn Fn(&LaneConfig) -> u64| -> [u64; W] { std::array::from_fn(|l| f(&lanes[l])) };
        let ring_len = lanes
            .iter()
            .map(|lane| lane.tables.queue_capacity.next_power_of_two())
            .max()
            .unwrap_or(1);
        Block {
            decode: each(&|lane| lane.tables.decode),
            agen: each(&|lane| lane.tables.agen),
            cache: each(&|lane| lane.tables.cache),
            exec_latency: std::array::from_fn(|c| {
                each(&|lane| lane.tables.execute + lane.tables.exec_extra[c])
            }),
            complete: each(&|lane| lane.tables.complete),
            penalty: std::array::from_fn(|level| {
                each(&|lane| if level == 0 { 0 } else { lane.penalty(level) })
            }),
            hazard_cap: each(&|lane| lane.tables.hazard_cap),
            in_order: std::array::from_fn(|l| {
                lanes[l].config.features.issue == IssuePolicy::InOrder
            }),
            forwarding: std::array::from_fn(|l| lanes[l].config.features.forwarding),
            stall_on_use: std::array::from_fn(|l| lanes[l].config.features.stall_on_use),
            ring_offset: std::array::from_fn(|l| ring_len - lanes[l].tables.queue_capacity),
            decode_port: Ports::new(each(&|lane| u64::from(lane.config.width))),
            issue_port: Ports::new(each(&|lane| u64::from(lane.config.width))),
            cache_port: Ports::new(each(&|lane| u64::from(lane.config.cache_ports))),
            retire_port: Ports::new(each(&|lane| u64::from(lane.config.width))),
            redirect_at: [0; W],
            fp_busy_until: [0; W],
            scoreboard: [[0; W]; ROWS],
            ring: vec![[0; W]; ring_len],
            ring_mask: ring_len - 1,
            pushes: 0,
            window_start: [0; W],
            distinct: [0; W],
            hazard_events: [[0; W]; UNATTRIBUTED + 1],
            hazard_cycles: [[0; W]; UNATTRIBUTED + 1],
        }
    }

    /// Warms the block over `[0, split)`, then times the window
    /// `[split, split + measured)`.
    fn run(mut self, notes: &AnnotatedTrace, split: usize, measured: usize) -> [LaneTiming; W] {
        self.advance(notes, 0..split);
        self.open_window();
        if measured > 0 {
            // The window's first issue always opens a distinct cycle; after
            // it, a grant is distinct iff it moved the issue port.
            self.advance(notes, split..split + 1);
            self.distinct = [1; W];
            self.advance(notes, split + 1..split + measured);
        }
        std::array::from_fn(|l| LaneTiming {
            cycles: self.retire_port.cycle[l] - self.window_start[l],
            distinct_issue_cycles: self.distinct[l],
            hazard_events: std::array::from_fn(|k| self.hazard_events[k][l]),
            hazard_cycles: std::array::from_fn(|k| self.hazard_cycles[k][l]),
        })
    }

    /// Zeroes the window statistics at the warmup boundary, keeping every
    /// piece of timing state — the mirror of [`crate::Engine::reset_stats`].
    fn open_window(&mut self) {
        self.window_start = self.retire_port.cycle;
        self.distinct = [0; W];
        self.hazard_events = [[0; W]; UNATTRIBUTED + 1];
        self.hazard_cycles = [[0; W]; UNATTRIBUTED + 1];
    }

    fn advance(&mut self, notes: &AnnotatedTrace, range: Range<usize>) {
        for i in range {
            let n = notes.note(i);
            match OpClass::ALL[notes.classes[i] as usize] {
                OpClass::AluRr => self.step::<ALU_RR>(&n),
                OpClass::AluRx => self.step::<ALU_RX>(&n),
                OpClass::Load => self.step::<LOAD>(&n),
                OpClass::Store => self.step::<STORE>(&n),
                OpClass::Branch => self.step::<BRANCH>(&n),
                OpClass::Fp => self.step::<FP>(&n),
                OpClass::FpLong => self.step::<FP_LONG>(&n),
            }
        }
    }

    /// Advances every lane through one instruction of class `C`, in the
    /// stage engine's operation order.
    #[inline(always)]
    fn step<const C: usize>(&mut self, n: &Note) {
        let is_mem = C == ALU_RX || C == LOAD || C == STORE;
        let is_fp = C == FP || C == FP_LONG;
        let push_row = self.pushes & self.ring_mask;
        for l in 0..W {
            // ---- Front end: fetch + decode ----------------------------
            let queue_floor = self.ring[(self.pushes + self.ring_offset[l]) & self.ring_mask][l];
            let decode_req = max(
                max(self.decode_port.cycle[l], self.redirect_at[l]),
                queue_floor,
            ) + self.penalty[n.fetch][l];
            let decode_cycle = self.decode_port.acquire(l, decode_req);
            let decode_done = decode_cycle + self.decode[l];

            // ---- Scoreboard: the latest source, a miss winning ties ---
            let [a, b] = n.src;
            let best = max(
                self.scoreboard[a][l] + SOURCE_RANK[0],
                self.scoreboard[b][l] + SOURCE_RANK[1],
            );
            let src_ready = best >> TAG_BITS;
            let src_miss = best & TAG_MISS != 0;
            let src_fp = best & (TAG_MISS | TAG_FP) == TAG_FP;

            // ---- RX address/cache segment -----------------------------
            let mut data_ready = decode_done;
            let mut pipe_ready = decode_done;
            let mut miss_extra = 0u64;
            if n.has_mem {
                let agen_done = max(decode_done, src_ready) + self.agen[l];
                if C == STORE {
                    data_ready = agen_done;
                    pipe_ready = agen_done;
                } else {
                    let hit_ready = self.cache_port.acquire(l, agen_done) + self.cache[l];
                    miss_extra = self.penalty[n.data][l];
                    data_ready = hit_ready + miss_extra;
                    if C == LOAD {
                        pipe_ready =
                            select_unpredictable(self.stall_on_use[l], hit_ready, data_ready);
                    }
                }
            }
            if C == ALU_RX {
                pipe_ready = data_ready;
            }

            // ---- Issue to the E-unit (in order, width-limited) --------
            let queue_ready = if is_mem { pipe_ready } else { decode_done };
            let fp_ready = if is_fp { self.fp_busy_until[l] } else { 0 };
            let prev_issue = self.issue_port.cycle[l];
            let order_floor = select_unpredictable(self.in_order[l], prev_issue, 0);
            let own = max(max(queue_ready, src_ready), fp_ready);
            let mut base = max(own, order_floor);
            if n.serial {
                base = max(base, prev_issue + 1);
                self.issue_port.close_cycle(l);
            }
            let at = self.issue_port.acquire(l, base);
            if n.serial {
                self.issue_port.close_cycle(l);
            }
            self.ring[push_row][l] = at;
            self.distinct[l] += u64::from(at != prev_issue);

            // ---- Hazard attribution -----------------------------------
            let transit = decode_done
                + if is_mem {
                    self.agen[l] + self.cache[l]
                } else {
                    0
                };
            let floor = max(transit, order_floor);
            let stall = own - min(own, floor);
            let mut kind = select_unpredictable(fp_ready > floor, UNATTRIBUTED, STRUCTURAL);
            let data_kind = select_unpredictable(src_fp, UNATTRIBUTED, DATA);
            kind = select_unpredictable(src_ready > floor, data_kind, kind);
            let load_use_blocked = C == ALU_RX && miss_extra > 0;
            kind = select_unpredictable(load_use_blocked | src_miss, MEMORY, kind);
            self.hazard_events[kind][l] += u64::from(stall > 0);
            self.hazard_cycles[kind][l] += min(stall, self.hazard_cap[l]);

            // ---- Execute + writeback ----------------------------------
            let exec_done = at + self.exec_latency[C][l];
            if is_fp {
                self.fp_busy_until[l] = exec_done;
            }
            let miss_writer = select_unpredictable(miss_extra > 0, TAG_MISS, 0);
            let (ready_at, tag) = match C {
                LOAD => (data_ready, miss_writer),
                FP | FP_LONG => (exec_done, TAG_FP),
                _ => (
                    select_unpredictable(self.forwarding[l], at + 1, exec_done),
                    miss_writer,
                ),
            };
            self.scoreboard[n.dst][l] = ready_at << TAG_BITS | tag;

            // ---- Branch resolution ------------------------------------
            if n.mispredict {
                let resume = exec_done + 1;
                let refill = resume - min(resume, decode_cycle + 1);
                self.hazard_events[CONTROL][l] += u64::from(refill > 0);
                self.hazard_cycles[CONTROL][l] += min(refill, self.hazard_cap[l]);
                self.redirect_at[l] = resume;
            }

            // ---- Completion / retire ----------------------------------
            self.retire_port.acquire(l, exec_done + self.complete[l]);
        }
        self.pushes += 1;
    }
}

/// Runs `lanes` (exactly `W` of them) as one block.
fn run_block<const W: usize>(
    lanes: &[LaneConfig],
    notes: &AnnotatedTrace,
    split: usize,
    measured: usize,
    out: &mut Vec<LaneTiming>,
) {
    out.extend(Block::<W>::new(lanes).run(notes, split, measured));
}

/// One lane's figures: its report, plus the fetch-stall cycles that the
/// telemetry flush needs and the report does not carry.
#[derive(Debug)]
struct LaneFigures {
    report: SimReport,
    fetch_stall_cycles: u64,
}

impl LaneFigures {
    /// Combines a lane's own timing with the window's lane-uniform counts,
    /// priced by the lane's latency tables.
    fn new(lane: &LaneConfig, window: &WindowCounts, timing: &LaneTiming) -> LaneFigures {
        let tables = &lane.tables;
        let mut events = timing.hazard_events;
        let mut stall_cycles = timing.hazard_cycles;
        let mut fetch_stall_cycles = 0;
        let mut memory_wait = 0;
        for level in 1..=3 {
            let penalty = lane.penalty(level);
            let fetches = window.fetch[level];
            if penalty > 0 {
                // Every counted fetch at this level is one memory-hazard
                // episode of the capped penalty.
                events[MEMORY] += fetches;
                stall_cycles[MEMORY] += fetches * penalty.min(tables.hazard_cap);
            }
            fetch_stall_cycles += fetches * penalty;
            memory_wait += (fetches + window.data_waits[level]) * penalty;
        }
        let n = window.instructions;
        let memory_ops = window.memory_ops();
        let mut activity = [0u64; Unit::ALL.len()];
        activity[Unit::Decode as usize] = n * tables.decode;
        activity[Unit::Agen as usize] = memory_ops * tables.agen;
        activity[Unit::Cache as usize] = memory_ops * tables.cache;
        activity[Unit::Execute as usize] = n * tables.execute;
        activity[Unit::Complete as usize] = n * tables.complete;
        let rate = |(accesses, misses): (u64, u64)| {
            if accesses == 0 {
                0.0
            } else {
                misses as f64 / accesses as f64
            }
        };
        let [l1d, l1i, l2] = window.cache();
        let report = SimReport::gather(
            lane.config,
            lane.plan,
            n,
            timing.cycles,
            timing.distinct_issue_cycles,
            &activity,
            HazardStats::from_counts(events, stall_cycles),
            window.branches,
            window.mispredicts,
            rate(l1d),
            rate(l2),
            rate(l1i),
            memory_wait,
        );
        LaneFigures {
            report,
            fetch_stall_cycles,
        }
    }
}

/// Replays an annotation against every configuration in `configs` in one
/// batched pass: `warmup` instructions of untimed training per lane, then
/// up to `instructions` measured ones (clamped to the annotation length,
/// exactly like [`crate::Engine::run_slice`]). Returns one [`SimReport`]
/// per configuration, in order — each bit-identical to what a fresh
/// [`crate::Engine`] produces over the same stream.
///
/// The annotation must have been produced from the same stream with each
/// configuration's own `cache`/`predictor` settings (lanes may differ in
/// depth, width, ports and feature toggles — everything that does not feed
/// the annotation).
///
/// With telemetry attached, the run flushes the same aggregate `sim.*`
/// counters as the engine, summed across lanes, once at the end of the
/// pass.
///
/// # Errors
///
/// Returns the first [`ConfigError`] found validating any configuration,
/// or [`ConfigError::CycleRange`] when a lane's miss latencies are so
/// large that its cycle counts could outgrow the kernel's 60-bit range.
pub fn replay_sweep(
    notes: &AnnotatedTrace,
    configs: &[SimConfig],
    warmup: u64,
    instructions: u64,
    telemetry: &Telemetry,
) -> Result<Vec<SimReport>, ConfigError> {
    let lanes = configs
        .iter()
        .map(|&config| LaneConfig::new(config))
        .collect::<Result<Vec<_>, _>>()?;

    let split = usize::try_from(warmup)
        .unwrap_or(usize::MAX)
        .min(notes.len());
    let measured = usize::try_from(instructions)
        .unwrap_or(usize::MAX)
        .min(notes.len() - split);
    for lane in &lanes {
        lane.check_cycle_range((split + measured) as u64)?;
    }
    telemetry
        .counter("sim.warmup_instructions")
        .add(lanes.len() as u64 * split as u64);

    let mut timings = Vec::with_capacity(lanes.len());
    let mut rest = &lanes[..];
    while !rest.is_empty() {
        // The widest power-of-two block that fits: no padding lanes.
        let width = 1 << rest.len().min(MAX_BLOCK).ilog2();
        let (block, tail) = rest.split_at(width);
        match width {
            8 => run_block::<8>(block, notes, split, measured, &mut timings),
            4 => run_block::<4>(block, notes, split, measured, &mut timings),
            2 => run_block::<2>(block, notes, split, measured, &mut timings),
            _ => run_block::<1>(block, notes, split, measured, &mut timings),
        }
        rest = tail;
    }

    let window = WindowCounts::tally(notes, split..split + measured);
    let figures: Vec<LaneFigures> = lanes
        .iter()
        .zip(&timings)
        .map(|(lane, timing)| LaneFigures::new(lane, &window, timing))
        .collect();
    flush_telemetry(&figures, &window, telemetry);
    Ok(figures.into_iter().map(|f| f.report).collect())
}

/// Replays an annotation against one configuration — the single-depth
/// convenience wrapper over [`replay_sweep`], with telemetry disabled.
///
/// # Errors
///
/// Returns the first [`ConfigError`] found validating the configuration.
pub fn replay(
    notes: &AnnotatedTrace,
    config: SimConfig,
    warmup: u64,
    instructions: u64,
) -> Result<SimReport, ConfigError> {
    let mut reports = replay_sweep(
        notes,
        std::slice::from_ref(&config),
        warmup,
        instructions,
        &Telemetry::disabled(),
    )?;
    // analysis: allow(panic-path) — replay_sweep returns exactly one report
    // per input configuration, and one configuration was passed.
    Ok(reports.pop().expect("one report per configuration"))
}

/// Flushes the lanes' summed window statistics into the same static-name
/// `sim.*` counters the engine flushes, once per replay pass.
fn flush_telemetry(figures: &[LaneFigures], window: &WindowCounts, telemetry: &Telemetry) {
    if !telemetry.is_enabled() {
        return;
    }
    let sum = |f: &dyn Fn(&LaneFigures) -> u64| figures.iter().map(f).sum::<u64>();
    let lanes = figures.len() as u64;
    let t = telemetry;
    t.counter("sim.instructions")
        .add(sum(&|f| f.report.instructions));
    for (i, &kind) in HazardKind::ALL.iter().enumerate() {
        t.counter(metric_names::HAZARD_EVENTS[i])
            .add(sum(&|f| f.report.hazards.events(kind)));
        t.counter(metric_names::HAZARD_STALL_CYCLES[i])
            .add(sum(&|f| f.report.hazards.stall_cycles(kind)));
    }
    t.counter("sim.stage.frontend.fetch_stall_cycles")
        .add(sum(&|f| f.fetch_stall_cycles));
    t.counter("sim.stage.frontend.redirects")
        .add(lanes * window.mispredicts);
    t.counter("sim.stage.issue.serialized_ops")
        .add(lanes * window.serialized);
    t.counter("sim.stage.issue.distinct_cycles")
        .add(sum(&|f| f.report.distinct_issue_cycles));
    t.counter("sim.stage.exec.memory_wait_cycles")
        .add(sum(&|f| f.report.memory_wait_cycles));
    // Every branch in the window is one predictor observation: hits are
    // the correctly predicted ones, misses the rest — the engine's
    // observed/correct deltas expressed through the annotation.
    t.counter("sim.predictor.hits")
        .add(lanes * (window.branches - window.mispredicts));
    t.counter("sim.predictor.misses")
        .add(lanes * window.mispredicts);
    for (i, (accesses, misses)) in window.cache().into_iter().enumerate() {
        t.counter(metric_names::CACHE_HITS[i])
            .add(lanes * (accesses - misses));
        t.counter(metric_names::CACHE_MISSES[i]).add(lanes * misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate;
    use crate::engine::Engine;
    use pipedepth_trace::{TraceGenerator, WorkloadModel};

    fn trace(n: usize) -> Vec<pipedepth_trace::isa::Instruction> {
        TraceGenerator::new(WorkloadModel::modern_like(), 11).take_vec(n)
    }

    #[test]
    fn single_depth_replay_matches_engine() {
        let stream = trace(6_000);
        let config = SimConfig::paper(14);
        let notes = annotate(&stream, config.cache, config.predictor).expect("valid config");
        let mut engine = Engine::new(config);
        engine.warm_up_slice(&stream, 2_000);
        let expected = engine.run_slice(&stream[2_000..], 4_000);
        let got = replay(&notes, config, 2_000, 4_000).expect("valid config");
        assert_eq!(expected, got);
    }

    #[test]
    fn batched_lanes_match_individual_replays() {
        let stream = trace(5_000);
        let base = SimConfig::paper(10);
        let notes = annotate(&stream, base.cache, base.predictor).expect("valid config");
        let configs: Vec<SimConfig> = [4, 10, 22].iter().map(|&d| SimConfig::paper(d)).collect();
        let batched = replay_sweep(&notes, &configs, 1_000, 4_000, &Telemetry::disabled())
            .expect("valid configs");
        for (config, report) in configs.iter().zip(&batched) {
            let single = replay(&notes, *config, 1_000, 4_000).expect("valid config");
            assert_eq!(&single, report, "depth {}", config.depth);
        }
    }

    #[test]
    fn replay_clamps_to_annotation_length() {
        let stream = trace(1_000);
        let config = SimConfig::paper(8);
        let notes = annotate(&stream, config.cache, config.predictor).expect("valid config");
        let r = replay(&notes, config, 0, 5_000).expect("valid config");
        assert_eq!(r.instructions, 1_000);
        let all_warm = replay(&notes, config, 5_000, 5_000).expect("valid config");
        assert_eq!(all_warm.instructions, 0, "everything consumed by warmup");
    }

    #[test]
    fn replay_rejects_invalid_config() {
        let stream = trace(100);
        let good = SimConfig::paper(8);
        let notes = annotate(&stream, good.cache, good.predictor).expect("valid config");
        let mut bad = good;
        bad.width = 0;
        assert!(replay(&notes, bad, 0, 100).is_err());
    }

    #[test]
    fn replay_rejects_runs_beyond_the_cycle_range() {
        let stream = trace(1_000);
        let mut config = SimConfig::paper(8);
        config.cache.memory_latency_fo4 = 1e18;
        config
            .validate()
            .expect("a huge latency is still a valid config");
        let notes = annotate(&stream, config.cache, config.predictor).expect("valid config");
        match replay(&notes, config, 0, 1_000) {
            Err(ConfigError::CycleRange { instructions, .. }) => assert_eq!(instructions, 1_000),
            other => panic!("expected a cycle-range error, got {other:?}"),
        }
        assert!(replay(&notes, SimConfig::paper(8), 0, 1_000).is_ok());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn sweep_flushes_engine_identical_counters() {
        let stream = trace(4_000);
        let config = SimConfig::paper(12);
        let notes = annotate(&stream, config.cache, config.predictor).expect("valid config");

        let engine_telemetry = Telemetry::new();
        let mut engine = Engine::new(config).with_telemetry(engine_telemetry.clone());
        engine.warm_up_slice(&stream, 1_000);
        engine.run_slice(&stream[1_000..], 3_000);

        let replay_telemetry = Telemetry::new();
        replay_sweep(&notes, &[config], 1_000, 3_000, &replay_telemetry).expect("valid config");

        let a = engine_telemetry.snapshot();
        let b = replay_telemetry.snapshot();
        for name in [
            "sim.instructions",
            "sim.warmup_instructions",
            "sim.stage.frontend.fetch_stall_cycles",
            "sim.stage.frontend.redirects",
            "sim.stage.issue.serialized_ops",
            "sim.stage.issue.distinct_cycles",
            "sim.stage.exec.memory_wait_cycles",
            "sim.predictor.hits",
            "sim.predictor.misses",
            "sim.cache.l1d.hits",
            "sim.cache.l1d.misses",
            "sim.cache.l1i.hits",
            "sim.cache.l1i.misses",
            "sim.cache.l2.hits",
            "sim.cache.l2.misses",
            "sim.stage.hazard.control.events",
            "sim.stage.hazard.control.stall_cycles",
            "sim.stage.hazard.data.events",
            "sim.stage.hazard.data.stall_cycles",
            "sim.stage.hazard.memory.events",
            "sim.stage.hazard.memory.stall_cycles",
            "sim.stage.hazard.structural.events",
            "sim.stage.hazard.structural.stall_cycles",
        ] {
            assert_eq!(a.counter(name), b.counter(name), "counter {name}");
        }
    }
}
