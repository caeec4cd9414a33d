//! Simulator configuration and the stage plan.
//!
//! The modelled machine is the paper's Fig. 2: a 4-issue in-order
//! superscalar with two instruction flows —
//!
//! ```text
//! RR:  Decode → Rename → Exec queue → E-unit → Completion → Retire
//! RX:  Decode → Rename → Addr queue → Agen → Cache → Exec queue → E-unit → …
//! ```
//!
//! Pipeline depth is counted "between the beginning of decode and the end of
//! execution". Depth scaling follows the paper's methodology: extra stages
//! are inserted in Decode, Cache access and the E-unit simultaneously;
//! contraction merges units onto the same cycle (a merged unit has zero
//! transit latency and, in the power model, shares the cycle under the
//! max-power rule).

use std::fmt;

/// Why a simulator configuration was rejected.
///
/// Returned by the fallible constructors ([`SimConfig::builder`],
/// [`SimConfig::try_paper`], [`StagePlan::try_for_depth`], …) instead of
/// panicking. The enum is `#[non_exhaustive]`: future validation rules may
/// add variants without a breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Pipeline depth outside the supported `2..=64` range.
    Depth {
        /// The rejected depth.
        depth: u32,
    },
    /// Issue width must be at least 1.
    Width {
        /// The rejected width.
        width: u32,
    },
    /// Cache-port count must be at least 1.
    CachePorts {
        /// The rejected port count.
        ports: u32,
    },
    /// Total logic depth `t_p` must be positive and finite.
    LogicDepth {
        /// The rejected value, in FO4.
        fo4: f64,
    },
    /// Latch overhead `t_o` must be non-negative and finite.
    LatchOverhead {
        /// The rejected value, in FO4.
        fo4: f64,
    },
    /// A cache level's geometry is inconsistent.
    CacheGeometry {
        /// Which level (`"l1d"`, `"l1i"`, `"l2"`, or `"cache"` when built
        /// directly).
        level: &'static str,
        /// What is wrong with it.
        problem: &'static str,
    },
    /// A miss latency must be non-negative and finite.
    CacheLatency {
        /// Which latency (`"l2"` or `"memory"`).
        which: &'static str,
        /// The rejected value, in FO4.
        fo4: f64,
    },
    /// Predictor table size outside the supported `1..=24` bits.
    PredictorTableBits {
        /// The rejected log2 table size.
        table_bits: u32,
    },
    /// Predictor history longer than the 32 branches supported.
    PredictorHistoryBits {
        /// The rejected history length.
        history_bits: u32,
    },
    /// A replay whose cycle counts could leave the replay kernel's
    /// 60-bit range (only reachable with absurd miss latencies).
    CycleRange {
        /// Instructions to replay.
        instructions: u64,
        /// Worst-case cycles one instruction can add.
        cycles_per_instruction: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Depth { depth } => {
                write!(f, "pipeline depth {depth} outside supported range 2..=64")
            }
            ConfigError::Width { width } => {
                write!(f, "issue width {width} must be at least 1")
            }
            ConfigError::CachePorts { ports } => {
                write!(f, "cache-port count {ports} must be at least 1")
            }
            ConfigError::LogicDepth { fo4 } => {
                write!(f, "total logic depth {fo4} FO4 must be positive and finite")
            }
            ConfigError::LatchOverhead { fo4 } => {
                write!(
                    f,
                    "latch overhead {fo4} FO4 must be non-negative and finite"
                )
            }
            ConfigError::CacheGeometry { level, problem } => {
                write!(f, "{level} cache {problem}")
            }
            ConfigError::CacheLatency { which, fo4 } => {
                write!(
                    f,
                    "{which} miss latency {fo4} FO4 must be non-negative and finite"
                )
            }
            ConfigError::PredictorTableBits { table_bits } => {
                write!(
                    f,
                    "predictor table size of {table_bits} bits outside supported range 1..=24"
                )
            }
            ConfigError::PredictorHistoryBits { history_bits } => {
                write!(
                    f,
                    "predictor history of {history_bits} branches exceeds the supported 32"
                )
            }
            ConfigError::CycleRange {
                instructions,
                cycles_per_instruction,
            } => {
                write!(
                    f,
                    "{instructions} instructions at up to {cycles_per_instruction} cycles each \
                     could exceed the replay kernel's 2^60-cycle range"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates one cache level's geometry (shared by [`CacheConfig`] and the
/// direct `CacheLevel` constructor).
pub(crate) fn check_cache_geometry(
    level: &'static str,
    bytes: u64,
    ways: u32,
    line_bytes: u64,
) -> Result<(), ConfigError> {
    let geometry = |problem| ConfigError::CacheGeometry { level, problem };
    if !bytes.is_power_of_two() {
        return Err(geometry("size must be a power of two"));
    }
    if !line_bytes.is_power_of_two() {
        return Err(geometry("line size must be a power of two"));
    }
    if ways < 1 {
        return Err(geometry("needs at least one way"));
    }
    if bytes < ways as u64 * line_bytes {
        return Err(geometry("is too small for its associativity"));
    }
    Ok(())
}

/// Scalable pipeline units (the ones the paper inserts stages into, plus the
/// fixed-function back end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Unit {
    /// Instruction decode (and rename on out-of-order models).
    Decode,
    /// Address generation for RX instructions.
    Agen,
    /// Data-cache access.
    Cache,
    /// The execution unit.
    Execute,
    /// Completion/retire (fixed depth, not counted in the paper's p).
    Complete,
}

impl Unit {
    /// The depth-scaled units, in pipeline order.
    pub const SCALED: [Unit; 4] = [Unit::Decode, Unit::Agen, Unit::Cache, Unit::Execute];

    /// All units.
    pub const ALL: [Unit; 5] = [
        Unit::Decode,
        Unit::Agen,
        Unit::Cache,
        Unit::Execute,
        Unit::Complete,
    ];

    /// Share of the processor's total logic depth assigned to this unit
    /// (the weights used to split the paper's `t_p` across units).
    pub fn logic_weight(self) -> f64 {
        match self {
            Unit::Decode => 0.30,
            Unit::Agen => 0.15,
            Unit::Cache => 0.25,
            Unit::Execute => 0.30,
            Unit::Complete => 0.0,
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Unit::Decode => "decode",
            Unit::Agen => "agen",
            Unit::Cache => "cache",
            Unit::Execute => "execute",
            Unit::Complete => "complete",
        };
        f.write_str(s)
    }
}

/// Per-unit stage counts for one pipeline depth: the realisation of the
/// paper's "expand the pipeline in a uniform manner".
///
/// A unit with zero stages is *merged* into the preceding cycle (possible
/// only at the shallowest depths), matching the paper's contraction
/// procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagePlan {
    /// Decode stages.
    pub decode: u32,
    /// Address-generation stages.
    pub agen: u32,
    /// Cache-access stages.
    pub cache: u32,
    /// E-unit stages.
    pub execute: u32,
    /// Completion stages (fixed; not counted in the paper's depth).
    pub complete: u32,
}

impl StagePlan {
    /// Builds the plan for a target depth by largest-remainder apportioning
    /// of the scaled units' logic weights.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Depth`] unless `2 ≤ depth ≤ 64`.
    pub fn try_for_depth(depth: u32) -> Result<Self, ConfigError> {
        if !(2..=64).contains(&depth) {
            return Err(ConfigError::Depth { depth });
        }
        let weights: Vec<f64> = Unit::SCALED.iter().map(|u| u.logic_weight()).collect();
        let mut alloc: Vec<u32> = weights
            .iter()
            .map(|w| (w * depth as f64).floor() as u32)
            .collect();
        let mut rem: Vec<(usize, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| (i, w * depth as f64 - alloc[i] as f64))
            .collect();
        rem.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights are finite"));
        let mut missing = depth - alloc.iter().sum::<u32>();
        for (i, _) in rem {
            if missing == 0 {
                break;
            }
            alloc[i] += 1;
            missing -= 1;
        }
        // Decode and Execute always get at least one cycle: fetch-decode and
        // execution can never be folded away entirely. Steal from the
        // largest allocation if needed.
        for must in [0usize, 3usize] {
            if alloc[must] == 0 {
                let (donor, _) = alloc
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &a)| a)
                    .expect("four units");
                alloc[donor] -= 1;
                alloc[must] += 1;
            }
        }
        Ok(StagePlan {
            decode: alloc[0],
            agen: alloc[1],
            cache: alloc[2],
            execute: alloc[3],
            complete: 2,
        })
    }

    /// Stage count of a unit.
    pub fn stages(&self, unit: Unit) -> u32 {
        match unit {
            Unit::Decode => self.decode,
            Unit::Agen => self.agen,
            Unit::Cache => self.cache,
            Unit::Execute => self.execute,
            Unit::Complete => self.complete,
        }
    }

    /// The counted pipeline depth (decode through execute).
    pub fn counted_depth(&self) -> u32 {
        self.decode + self.agen + self.cache + self.execute
    }

    /// Units merged into a neighbouring cycle (zero transit latency).
    pub fn merged_units(&self) -> Vec<Unit> {
        Unit::SCALED
            .iter()
            .copied()
            .filter(|&u| self.stages(u) == 0)
            .collect()
    }
}

/// Issue policy of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IssuePolicy {
    /// Strict in-order issue: a stalled instruction blocks everything
    /// younger (the paper's model for this study).
    #[default]
    InOrder,
    /// Relaxed (out-of-order) issue within the decoupling window: an
    /// instruction issues as soon as its own operands and resources are
    /// ready; retirement stays in order. The paper reports that in-order
    /// vs out-of-order changes the optimisation only through α and γ.
    OutOfOrder,
}

/// Microarchitectural feature toggles, used by the ablation experiments.
/// Defaults reproduce the paper machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Full forwarding network: ALU results bypass to consumers one cycle
    /// after issue instead of at the end of the E-unit pipe.
    pub forwarding: bool,
    /// Non-blocking cache with stall-on-use: a load miss delays only its
    /// consumers, not the load's own passage down the pipe.
    pub stall_on_use: bool,
    /// Scale the decode/issue decoupling queues with pipeline depth
    /// (otherwise a fixed 16-entry queue throttles deep designs).
    pub scaled_queues: bool,
    /// Issue policy.
    pub issue: IssuePolicy,
}

impl Default for Features {
    fn default() -> Self {
        Features {
            forwarding: true,
            stall_on_use: true,
            scaled_queues: true,
            issue: IssuePolicy::InOrder,
        }
    }
}

/// Data-cache hierarchy parameters. Miss latencies are denominated in FO4 —
/// absolute time — so the *cycle* cost of a miss grows as the pipeline gets
/// deeper and the clock faster, exactly as in a real machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// L1 data cache size in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// L1 instruction cache size in bytes (0 disables instruction-fetch
    /// modelling: fetch always hits).
    pub l1i_bytes: u64,
    /// L1 instruction cache associativity.
    pub l1i_ways: u32,
    /// L2 size in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Line size in bytes (shared).
    pub line_bytes: u64,
    /// L2 access latency in FO4 (added to an L1 miss).
    pub l2_latency_fo4: f64,
    /// Memory access latency in FO4 (added to an L2 miss).
    pub memory_latency_fo4: f64,
    /// Enable the degree-1 next-line prefetcher.
    pub prefetch: bool,
}

impl CacheConfig {
    /// Checks the geometry and latencies of every configured level.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError::CacheGeometry`] or
    /// [`ConfigError::CacheLatency`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_cache_geometry("l1d", self.l1_bytes, self.l1_ways, self.line_bytes)?;
        if self.l1i_bytes > 0 {
            check_cache_geometry("l1i", self.l1i_bytes, self.l1i_ways, self.line_bytes)?;
        }
        check_cache_geometry("l2", self.l2_bytes, self.l2_ways, self.line_bytes)?;
        for (which, fo4) in [
            ("l2", self.l2_latency_fo4),
            ("memory", self.memory_latency_fo4),
        ] {
            if !(fo4.is_finite() && fo4 >= 0.0) {
                return Err(ConfigError::CacheLatency { which, fo4 });
            }
        }
        Ok(())
    }

    /// Extra latency in FO4 beyond the pipelined L1 access for an access
    /// satisfied at `result`'s level. This is pure configuration — no cache
    /// state — so both the live [`crate::cache::Hierarchy`] and the replay
    /// kernel's latency tables derive miss penalties from the same source.
    pub fn penalty_fo4(&self, result: crate::cache::AccessResult) -> f64 {
        match result {
            crate::cache::AccessResult::L1 => 0.0,
            crate::cache::AccessResult::L2 => self.l2_latency_fo4,
            crate::cache::AccessResult::Memory => self.l2_latency_fo4 + self.memory_latency_fo4,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l1i_bytes: 16 * 1024,
            l1i_ways: 4,
            l2_bytes: 1024 * 1024,
            l2_ways: 8,
            line_bytes: 64,
            l2_latency_fo4: 280.0,
            memory_latency_fo4: 2400.0,
            prefetch: true,
        }
    }
}

/// Branch-predictor parameters (gshare).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// log2 of the pattern-history-table size.
    pub table_bits: u32,
    /// Global-history length in branches.
    pub history_bits: u32,
}

impl PredictorConfig {
    /// Checks the table and history sizes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::PredictorTableBits`] unless
    /// `1 ≤ table_bits ≤ 24` (larger tables would allocate unreasonably),
    /// or [`ConfigError::PredictorHistoryBits`] if the history exceeds 32
    /// branches.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=24).contains(&self.table_bits) {
            return Err(ConfigError::PredictorTableBits {
                table_bits: self.table_bits,
            });
        }
        if self.history_bits > 32 {
            return Err(ConfigError::PredictorHistoryBits {
                history_bits: self.history_bits,
            });
        }
        Ok(())
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            table_bits: 14,
            history_bits: 0,
        }
    }
}

/// Complete simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Superscalar issue width (the paper models a 4-issue machine).
    pub width: u32,
    /// Target pipeline depth (decode → execute), 2..=25 in the paper.
    pub depth: u32,
    /// Total processor logic delay `t_p` in FO4.
    pub logic_fo4: f64,
    /// Per-stage latch overhead `t_o` in FO4.
    pub latch_overhead_fo4: f64,
    /// Cache hierarchy.
    pub cache: CacheConfig,
    /// Branch predictor.
    pub predictor: PredictorConfig,
    /// Number of cache ports (simultaneous data-cache accesses per cycle).
    pub cache_ports: u32,
    /// Microarchitectural feature toggles (ablations).
    pub features: Features,
}

impl SimConfig {
    /// The paper's machine at the given depth: 4-issue, `t_p = 140`,
    /// `t_o = 2.5`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `2..=64`; use [`SimConfig::try_paper`]
    /// to handle that case as an error.
    pub fn paper(depth: u32) -> Self {
        Self::try_paper(depth).expect("the paper preset is valid for depths 2..=64")
    }

    /// The paper's machine at the given depth, validated.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Depth`] if `depth` is outside `2..=64`.
    pub fn try_paper(depth: u32) -> Result<Self, ConfigError> {
        let config = SimConfig {
            width: 4,
            depth,
            logic_fo4: 140.0,
            latch_overhead_fo4: 2.5,
            cache: CacheConfig::default(),
            predictor: PredictorConfig::default(),
            cache_ports: 2,
            features: Features::default(),
        };
        config.validate()?;
        Ok(config)
    }

    /// Starts a builder seeded with the paper machine at depth 8. Set the
    /// fields that differ, then call [`SimConfigBuilder::build`], which
    /// validates everything at once.
    ///
    /// # Examples
    ///
    /// ```
    /// use pipedepth_sim::SimConfig;
    ///
    /// let config = SimConfig::builder().depth(14).width(2).build()?;
    /// assert_eq!(config.depth, 14);
    /// assert!(SimConfig::builder().depth(99).build().is_err());
    /// # Ok::<(), pipedepth_sim::ConfigError>(())
    /// ```
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                width: 4,
                depth: 8,
                logic_fo4: 140.0,
                latch_overhead_fo4: 2.5,
                cache: CacheConfig::default(),
                predictor: PredictorConfig::default(),
                cache_ports: 2,
                features: Features::default(),
            },
        }
    }

    /// Checks every field of the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: depth, width and port
    /// ranges, positive finite timing parameters, cache geometry, and
    /// predictor sizes.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(2..=64).contains(&self.depth) {
            return Err(ConfigError::Depth { depth: self.depth });
        }
        if self.width < 1 {
            return Err(ConfigError::Width { width: self.width });
        }
        if self.cache_ports < 1 {
            return Err(ConfigError::CachePorts {
                ports: self.cache_ports,
            });
        }
        if !(self.logic_fo4.is_finite() && self.logic_fo4 > 0.0) {
            return Err(ConfigError::LogicDepth {
                fo4: self.logic_fo4,
            });
        }
        if !(self.latch_overhead_fo4.is_finite() && self.latch_overhead_fo4 >= 0.0) {
            return Err(ConfigError::LatchOverhead {
                fo4: self.latch_overhead_fo4,
            });
        }
        self.cache.validate()?;
        self.predictor.validate()
    }

    /// Returns a copy with different feature toggles (builder style).
    pub fn with_features(mut self, features: Features) -> Self {
        self.features = features;
        self
    }

    /// The stage plan realising this configuration's depth.
    ///
    /// # Panics
    ///
    /// Panics if the (public, mutable) `depth` field has been set outside
    /// `2..=64`; configurations from the fallible constructors are always
    /// in range.
    pub fn plan(&self) -> StagePlan {
        // analysis: allow(panic-path) — documented above: only hand-mutating
        // the public `depth` field out of 2..=64 can trip this
        StagePlan::try_for_depth(self.depth).expect("validated depth")
    }

    /// Cycle time `t_s = t_o + t_p/p` in FO4.
    pub fn cycle_time_fo4(&self) -> f64 {
        self.latch_overhead_fo4 + self.logic_fo4 / self.depth as f64
    }

    /// Converts an FO4 latency to (ceiling) cycles at this depth's clock.
    pub fn fo4_to_cycles(&self, fo4: f64) -> u64 {
        (fo4 / self.cycle_time_fo4()).ceil() as u64
    }

    /// Structural content hash of the configuration: every field that
    /// determines simulation behaviour, fed through
    /// [`pipedepth_store::Fnv64`] by bit pattern, with no
    /// intermediate rendering or allocation. Two configs hash equally
    /// exactly when bitwise equal; callers content-addressing by this
    /// value resolve collisions with `PartialEq`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = pipedepth_store::Fnv64::new();
        h.write_u32(self.width)
            .write_u32(self.depth)
            .write_f64(self.logic_fo4)
            .write_f64(self.latch_overhead_fo4)
            .write_u64(self.cache.l1_bytes)
            .write_u32(self.cache.l1_ways)
            .write_u64(self.cache.l1i_bytes)
            .write_u32(self.cache.l1i_ways)
            .write_u64(self.cache.l2_bytes)
            .write_u32(self.cache.l2_ways)
            .write_u64(self.cache.line_bytes)
            .write_f64(self.cache.l2_latency_fo4)
            .write_f64(self.cache.memory_latency_fo4)
            .write_bool(self.cache.prefetch)
            .write_u32(self.predictor.table_bits)
            .write_u32(self.predictor.history_bits)
            .write_u32(self.cache_ports)
            .write_bool(self.features.forwarding)
            .write_bool(self.features.stall_on_use)
            .write_bool(self.features.scaled_queues)
            .write_bool(self.features.issue == IssuePolicy::OutOfOrder);
        h.finish()
    }
}

/// Builder for [`SimConfig`], created by [`SimConfig::builder`].
///
/// Every setter overwrites one field; [`SimConfigBuilder::build`] validates
/// the whole configuration and returns it, or the first [`ConfigError`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the superscalar issue width.
    pub fn width(mut self, width: u32) -> Self {
        self.config.width = width;
        self
    }

    /// Sets the target pipeline depth (decode → execute).
    pub fn depth(mut self, depth: u32) -> Self {
        self.config.depth = depth;
        self
    }

    /// Sets the total processor logic delay `t_p` in FO4.
    pub fn logic_fo4(mut self, fo4: f64) -> Self {
        self.config.logic_fo4 = fo4;
        self
    }

    /// Sets the per-stage latch overhead `t_o` in FO4.
    pub fn latch_overhead_fo4(mut self, fo4: f64) -> Self {
        self.config.latch_overhead_fo4 = fo4;
        self
    }

    /// Sets the cache hierarchy parameters.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.config.cache = cache;
        self
    }

    /// Sets the branch-predictor parameters.
    pub fn predictor(mut self, predictor: PredictorConfig) -> Self {
        self.config.predictor = predictor;
        self
    }

    /// Sets the number of data-cache ports.
    pub fn cache_ports(mut self, ports: u32) -> Self {
        self.config.cache_ports = ports;
        self
    }

    /// Sets the microarchitectural feature toggles.
    pub fn features(mut self, features: Features) -> Self {
        self.config.features = features;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] [`SimConfig::validate`] finds.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(depth: u32) -> StagePlan {
        StagePlan::try_for_depth(depth).expect("valid depth")
    }

    #[test]
    fn fingerprint_is_pinned() {
        // The value every earlier build computed: cell keys are built on it.
        assert_eq!(SimConfig::paper(14).fingerprint(), 0x4e71_19a2_7820_cc71);
    }

    #[test]
    fn plans_sum_to_depth() {
        for depth in 2..=25 {
            let plan = plan_for(depth);
            assert_eq!(plan.counted_depth(), depth, "plan {plan:?}");
        }
    }

    #[test]
    fn decode_and_execute_never_vanish() {
        for depth in 2..=25 {
            let plan = plan_for(depth);
            assert!(plan.decode >= 1, "depth {depth}: {plan:?}");
            assert!(plan.execute >= 1, "depth {depth}: {plan:?}");
        }
    }

    #[test]
    fn shallow_plans_merge_units() {
        let plan = plan_for(2);
        assert!(!plan.merged_units().is_empty());
        let deep = plan_for(20);
        assert!(deep.merged_units().is_empty());
    }

    #[test]
    fn deeper_plans_dominate_shallower() {
        // Expansion is uniform: no unit loses stages when depth grows.
        for depth in 2..25 {
            let a = plan_for(depth);
            let b = plan_for(depth + 1);
            for u in Unit::SCALED {
                assert!(
                    b.stages(u) + 1 >= a.stages(u),
                    "unit {u} shrank too much from depth {depth}: {a:?} -> {b:?}"
                );
            }
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let sum: f64 = Unit::SCALED.iter().map(|u| u.logic_weight()).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_cycle_times() {
        assert!((SimConfig::paper(7).cycle_time_fo4() - 22.5).abs() < 1e-12);
        assert!((SimConfig::paper(8).cycle_time_fo4() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn fo4_to_cycles_rounds_up() {
        let cfg = SimConfig::paper(7); // 22.5 FO4 cycle
        assert_eq!(cfg.fo4_to_cycles(22.5), 1);
        assert_eq!(cfg.fo4_to_cycles(23.0), 2);
        assert_eq!(cfg.fo4_to_cycles(280.0), 13);
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = SimConfig::paper(8);
        assert_eq!(base.fingerprint(), SimConfig::paper(8).fingerprint());
        let mut variants = vec![SimConfig::paper(9)];
        let mut v = base;
        v.width = 2;
        variants.push(v);
        let mut v = base;
        v.logic_fo4 = 141.0;
        variants.push(v);
        let mut v = base;
        v.latch_overhead_fo4 = 3.0;
        variants.push(v);
        let mut v = base;
        v.cache.l1_bytes *= 2;
        variants.push(v);
        let mut v = base;
        v.cache.l2_latency_fo4 += 1.0;
        variants.push(v);
        let mut v = base;
        v.cache.prefetch = false;
        variants.push(v);
        let mut v = base;
        v.predictor.table_bits = 10;
        variants.push(v);
        let mut v = base;
        v.cache_ports += 1;
        variants.push(v);
        let mut v = base;
        v.features.forwarding = false;
        variants.push(v);
        let mut v = base;
        v.features.issue = IssuePolicy::OutOfOrder;
        variants.push(v);
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(
                base.fingerprint(),
                variant.fingerprint(),
                "variant {i} must change the fingerprint"
            );
        }
    }

    #[test]
    fn miss_cycles_grow_with_depth() {
        // Absolute-time miss latencies cost more cycles at faster clocks.
        let shallow = SimConfig::paper(4);
        let deep = SimConfig::paper(24);
        assert!(
            deep.fo4_to_cycles(2400.0) > shallow.fo4_to_cycles(2400.0) * 3,
            "deep {} vs shallow {}",
            deep.fo4_to_cycles(2400.0),
            shallow.fo4_to_cycles(2400.0)
        );
    }

    #[test]
    fn depth_one_rejected() {
        assert_eq!(
            StagePlan::try_for_depth(1),
            Err(ConfigError::Depth { depth: 1 })
        );
        assert_eq!(
            SimConfig::try_paper(65),
            Err(ConfigError::Depth { depth: 65 })
        );
    }

    #[test]
    fn builder_accepts_valid_overrides() {
        let config = SimConfig::builder()
            .depth(14)
            .width(2)
            .cache_ports(1)
            .logic_fo4(110.0)
            .latch_overhead_fo4(3.0)
            .build()
            .expect("valid configuration");
        assert_eq!(config.depth, 14);
        assert_eq!(config.width, 2);
        assert_eq!(config.cache_ports, 1);
        assert_eq!(config.plan().counted_depth(), 14);
    }

    #[test]
    fn builder_rejects_each_bad_field() {
        assert!(matches!(
            SimConfig::builder().depth(1).build(),
            Err(ConfigError::Depth { depth: 1 })
        ));
        assert!(matches!(
            SimConfig::builder().width(0).build(),
            Err(ConfigError::Width { width: 0 })
        ));
        assert!(matches!(
            SimConfig::builder().cache_ports(0).build(),
            Err(ConfigError::CachePorts { ports: 0 })
        ));
        assert!(matches!(
            SimConfig::builder().logic_fo4(0.0).build(),
            Err(ConfigError::LogicDepth { .. })
        ));
        assert!(matches!(
            SimConfig::builder().latch_overhead_fo4(-1.0).build(),
            Err(ConfigError::LatchOverhead { .. })
        ));
        assert!(matches!(
            SimConfig::builder()
                .predictor(PredictorConfig {
                    table_bits: 0,
                    history_bits: 0,
                })
                .build(),
            Err(ConfigError::PredictorTableBits { table_bits: 0 })
        ));
        let cache = CacheConfig {
            l1_bytes: 500,
            ..CacheConfig::default()
        };
        assert!(matches!(
            SimConfig::builder().cache(cache).build(),
            Err(ConfigError::CacheGeometry { level: "l1d", .. })
        ));
    }

    #[test]
    fn cache_validation_covers_each_level() {
        let cfg = CacheConfig {
            l1i_bytes: 100,
            ..CacheConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::CacheGeometry { level: "l1i", .. })
        ));
        let cfg = CacheConfig {
            l1i_bytes: 0, // disabled: not validated
            l2_ways: 0,
            ..CacheConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::CacheGeometry { level: "l2", .. })
        ));
        let cfg = CacheConfig {
            memory_latency_fo4: f64::NAN,
            ..CacheConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::CacheLatency {
                which: "memory",
                ..
            })
        ));
    }

    #[test]
    fn config_error_displays_and_implements_error() {
        let err: Box<dyn std::error::Error> = Box::new(ConfigError::Depth { depth: 99 });
        assert!(err.to_string().contains("99"));
        assert!(ConfigError::CacheGeometry {
            level: "l1d",
            problem: "size must be a power of two",
        }
        .to_string()
        .contains("l1d"));
    }

    #[test]
    fn unit_display() {
        assert_eq!(Unit::Decode.to_string(), "decode");
        assert_eq!(Unit::Execute.to_string(), "execute");
    }
}
