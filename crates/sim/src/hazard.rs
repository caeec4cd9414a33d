//! Hazard classification and accounting.
//!
//! The theory consumes hazards in aggregate: their count `N_H`, and the
//! weighted average fraction `γ` of the pipeline each one stalls. The
//! engine attributes every stall episode to the hazard kind whose constraint
//! dominated it.

use std::fmt;

/// The kinds of pipeline hazards the machine suffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HazardKind {
    /// Branch misprediction: the front end refills from decode.
    Control,
    /// Register data dependency: a consumer waits for a producer.
    Data,
    /// Cache miss: data returns late from L2 or memory.
    Memory,
    /// Structural: an issue port, cache port, or the unpipelined FP unit is
    /// busy.
    Structural,
}

impl HazardKind {
    /// All hazard kinds.
    pub const ALL: [HazardKind; 4] = [
        HazardKind::Control,
        HazardKind::Data,
        HazardKind::Memory,
        HazardKind::Structural,
    ];
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HazardKind::Control => "control",
            HazardKind::Data => "data",
            HazardKind::Memory => "memory",
            HazardKind::Structural => "structural",
        };
        f.write_str(s)
    }
}

/// Accumulated hazard statistics for one simulation.
///
/// Counters are dense arrays indexed by [`HazardKind`], so iteration
/// order is the declaration order of the kinds — deterministic by
/// construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HazardStats {
    events: [u64; HazardKind::ALL.len()],
    stall_cycles: [u64; HazardKind::ALL.len()],
}

impl HazardStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics from per-kind totals, in [`HazardKind::ALL`] order (the
    /// replay kernel accumulates its lanes' episodes in bulk).
    pub(crate) fn from_counts(
        events: [u64; HazardKind::ALL.len()],
        stall_cycles: [u64; HazardKind::ALL.len()],
    ) -> Self {
        HazardStats {
            events,
            stall_cycles,
        }
    }

    /// Records one hazard episode of `kind` stalling for `cycles`.
    ///
    /// Zero-cycle episodes are ignored — a constraint that did not delay
    /// anything is not a hazard.
    pub fn record(&mut self, kind: HazardKind, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.events[kind as usize] += 1;
        self.stall_cycles[kind as usize] += cycles;
    }

    /// Number of hazard episodes of `kind`.
    pub fn events(&self, kind: HazardKind) -> u64 {
        self.events[kind as usize]
    }

    /// Total stall cycles attributed to `kind`.
    pub fn stall_cycles(&self, kind: HazardKind) -> u64 {
        self.stall_cycles[kind as usize]
    }

    /// Total hazard episodes, the theory's `N_H`.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Total stall cycles across kinds.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Mean stall per hazard in cycles (0 when no hazards).
    pub fn mean_stall(&self) -> f64 {
        let n = self.total_events();
        if n == 0 {
            0.0
        } else {
            self.total_stall_cycles() as f64 / n as f64
        }
    }

    /// The theory's `γ`: the weighted average fraction of the pipeline a
    /// hazard stalls, i.e. mean stall cycles divided by the pipeline depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn gamma(&self, depth: u32) -> f64 {
        assert!(depth > 0, "pipeline depth must be positive");
        self.mean_stall() / depth as f64
    }
}

// The persistence codec lives here because the per-kind arrays are
// private: a decoded report must reproduce them exactly, which `record`
// (episode-granular, zero-suppressing) cannot.
impl pipedepth_store::Blob for HazardStats {
    fn encode(&self, w: &mut pipedepth_store::ByteWriter) {
        for &n in self.events.iter().chain(&self.stall_cycles) {
            w.put_u64(n);
        }
    }

    fn decode(
        r: &mut pipedepth_store::ByteReader<'_>,
    ) -> Result<Self, pipedepth_store::DecodeError> {
        let mut stats = HazardStats::new();
        for slot in stats.events.iter_mut().chain(&mut stats.stall_cycles) {
            *slot = r.take_u64()?;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cycle_episodes_ignored() {
        let mut s = HazardStats::new();
        s.record(HazardKind::Data, 0);
        assert_eq!(s.total_events(), 0);
    }

    #[test]
    fn records_accumulate_per_kind() {
        let mut s = HazardStats::new();
        s.record(HazardKind::Control, 10);
        s.record(HazardKind::Control, 12);
        s.record(HazardKind::Data, 2);
        assert_eq!(s.events(HazardKind::Control), 2);
        assert_eq!(s.stall_cycles(HazardKind::Control), 22);
        assert_eq!(s.events(HazardKind::Data), 1);
        assert_eq!(s.total_events(), 3);
        assert_eq!(s.total_stall_cycles(), 24);
        assert_eq!(s.mean_stall(), 8.0);
    }

    #[test]
    fn gamma_is_mean_stall_over_depth() {
        let mut s = HazardStats::new();
        s.record(HazardKind::Control, 8);
        s.record(HazardKind::Data, 4);
        assert!((s.gamma(12) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_zero() {
        let s = HazardStats::new();
        assert_eq!(s.mean_stall(), 0.0);
        assert_eq!(s.gamma(10), 0.0);
        assert_eq!(s.events(HazardKind::Memory), 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(HazardKind::Control.to_string(), "control");
        assert_eq!(HazardKind::Structural.to_string(), "structural");
    }
}
