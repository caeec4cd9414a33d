//! The persistent outcome store behind `--store`: warm restarts for the
//! evaluation service.
//!
//! [`OutcomeStore`](crate::store::OutcomeStore) owns one
//! `pipedepth-store` [`Namespace`](pipedepth_store::Namespace),
//! `outcomes`, holding every simulation outcome the service has
//! published as a ([`CellSpec`](pipedepth_core::eval::CellSpec),
//! [`EvalOutcome`](pipedepth_core::eval::EvalOutcome)) record. At
//! startup the decoded image becomes the *warm tier* of the service's
//! simulation [`ShardedCache`](pipedepth_core::eval::ShardedCache): a
//! restarted server answers previously computed cells from disk,
//! promoting them back into memory, instead of re-simulating.
//!
//! The snapshot is keyed by the record codec version
//! ([`OUTCOMES_SCHEMA`](crate::store::OUTCOMES_SCHEMA)), the crate
//! version, and the digest of the service's template
//! [`RunConfig`](pipedepth_experiments::sweep::RunConfig) — a snapshot
//! from a different build or service configuration degrades to a cold
//! start, never to a wrong answer. Records carry the full spec, so a warm
//! hit still resolves by `PartialEq` exactly as an in-memory hit does.
//!
//! Publishing is write-behind and periodic: the dispatch loop snapshots
//! the memory tier every [`crate::service`]-chosen insert threshold and
//! hands it to the namespace's flusher. At graceful shutdown the server
//! takes one final snapshot and syncs the backlog to disk before printing
//! its stats line, so a drained server is always restartable from its
//! last answered state. Everything but the warm-image load is the
//! namespace's own API, reached through `Deref`.

use pipedepth_core::eval::{CellSpec, EvalOutcome, ShardedCache};
use pipedepth_experiments::manifest::config_digest;
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_store::{Namespace, NamespaceSpec};
use pipedepth_telemetry::Telemetry;
use std::ops::Deref;
use std::path::Path;

/// Record-codec version of the `outcomes` namespace. Bump whenever the
/// [`CellSpec`] or [`EvalOutcome`] field lists change shape.
pub const OUTCOMES_SCHEMA: u32 = 1;

/// Code-version key stamped into every snapshot header; snapshots from a
/// different build degrade to a cold start.
const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// The namespace's loaded-records counter.
mod metric_names {
    /// Outcome records decoded at startup.
    pub const OUTCOMES_LOADED: &str = "store.outcomes_loaded";
}

/// The service's persistent outcome store: loads a snapshot at startup,
/// publishes snapshots write-behind while the server runs.
#[derive(Debug)]
pub struct OutcomeStore {
    outcomes: Namespace<CellSpec, EvalOutcome>,
}

impl OutcomeStore {
    /// Opens the store rooted at `dir` for a service templated on `run`.
    /// Registers every `store.*` metric the service emits immediately, so
    /// cold and warm servers expose the same `/metrics` name set.
    pub fn open(dir: &Path, run: &RunConfig, telemetry: &Telemetry) -> Self {
        let spec = NamespaceSpec {
            name: "outcomes",
            schema_version: OUTCOMES_SCHEMA,
            code_version: CODE_VERSION,
            config_digest: config_digest(run),
        };
        OutcomeStore {
            outcomes: Namespace::open(dir, spec, metric_names::OUTCOMES_LOADED, telemetry),
        }
    }

    /// Loads the `outcomes` snapshot into a warm-tier image. A missing
    /// file, a rejected header or checksum, or any undecodable record
    /// yields an empty image — a cold start, never a partial or wrong
    /// one.
    pub fn load(&mut self) -> ShardedCache<CellSpec, EvalOutcome> {
        let warm = ShardedCache::new();
        for (spec, outcome) in self.outcomes.load() {
            warm.insert(spec.key(), spec, outcome);
        }
        warm
    }
}

impl Deref for OutcomeStore {
    type Target = Namespace<CellSpec, EvalOutcome>;

    fn deref(&self) -> &Self::Target {
        &self.outcomes
    }
}

// The tests' scratch-directory helper names these through `super::*`.
#[cfg(test)]
use std::{path::PathBuf, sync::atomic::Ordering, sync::Arc};

#[cfg(test)]
mod tests {
    use super::*;
    use pipedepth_core::eval::WorkloadProfile;
    use std::sync::atomic::AtomicU32;

    /// A fresh scratch directory per test (std-only; no tempdir crate).
    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "pipedepth-serve-store-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn cell(depth: u32) -> CellSpec {
        CellSpec {
            workload: "unit".to_string(),
            profile: WorkloadProfile {
                alpha: 0.5,
                gamma: 1.1,
                hazard_rate: 0.02,
                kappa: 3.0,
                memory_time_fo4: 500.0,
            },
            depth,
            warmup: 100,
            instructions: 400,
            leakage_fraction: 0.3,
            ref_depth: 14.0,
            latch_growth: 1.1,
        }
    }

    fn outcome(depth: u32) -> EvalOutcome {
        EvalOutcome {
            depth,
            cpi: 1.4,
            frequency: 0.05,
            time_per_instruction_fo4: 28.0,
            throughput: 1.0 / 28.0,
            power_gated: 30.0,
            power_ungated: 55.0,
            metric_gated: [0.05, 0.002_5, 0.000_125],
            metric_ungated: [0.027, 0.000_75, 0.000_02],
            profile: cell(depth).profile,
        }
    }

    #[test]
    fn outcomes_round_trip_through_the_store() {
        let dir = scratch("roundtrip");
        let run = RunConfig::quick();
        let telemetry = Telemetry::disabled();
        let store = OutcomeStore::open(&dir, &run, &telemetry);
        let entries: Vec<_> = (2..10).map(|d| (cell(d), Arc::new(outcome(d)))).collect();
        store.flush(entries.clone());
        store.sync();
        assert_eq!(store.flushes(), 1);

        let mut store = OutcomeStore::open(&dir, &run, &telemetry);
        let warm = store.load();
        assert_eq!(store.loaded(), entries.len() as u64);
        assert_eq!(store.invalid(), 0);
        for (spec, out) in &entries {
            let hit = warm.get(spec.key(), spec).expect("warm hit");
            assert_eq!(*hit, **out);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_skew_and_corruption_degrade_to_cold_start() {
        let dir = scratch("skew");
        let run = RunConfig::quick();
        let telemetry = Telemetry::disabled();
        let store = OutcomeStore::open(&dir, &run, &telemetry);
        store.flush(vec![(cell(8), Arc::new(outcome(8)))]);
        store.sync();

        // A different template config must not read the snapshot.
        let other = RunConfig {
            instructions: run.instructions + 1,
            ..run.clone()
        };
        let mut skewed = OutcomeStore::open(&dir, &other, &telemetry);
        assert!(skewed.load().is_empty());
        assert_eq!(skewed.loaded(), 0);
        assert_eq!(skewed.invalid(), 1, "digest skew is a counted rejection");

        // A bit-flipped payload fails its checksum: cold, counted, no panic.
        let file = dir.join("outcomes.pds");
        let mut bytes = std::fs::read(&file).expect("snapshot exists");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&file, &bytes).expect("rewrite");
        let mut corrupt = OutcomeStore::open(&dir, &run, &telemetry);
        assert!(corrupt.load().is_empty());
        assert_eq!(corrupt.invalid(), 1, "corruption is a counted rejection");

        // A missing store is a quiet cold start.
        let missing = scratch("missing");
        let mut fresh = OutcomeStore::open(&missing, &run, &telemetry);
        assert!(fresh.load().is_empty());
        assert_eq!(fresh.invalid(), 0, "a missing file is not a rejection");

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&missing);
    }
}
