//! A typed namespace owner: everything a consumer needs to persist one
//! `(K, V)` record family, written once.
//!
//! [`Namespace`] binds a directory to the four-part [`NamespaceSpec`] key
//! and owns the rest of the snapshot lifecycle:
//!
//! * **All-or-nothing load.** [`Namespace::load`] returns every record of
//!   a valid snapshot, or nothing. A missing file is a quiet cold start;
//!   a file the framing rejects, or one whose records pass their
//!   checksums but not the codec (version skew the header keys missed),
//!   is a *counted* cold start ([`Namespace::invalid`], `store.invalid`).
//! * **Write-behind publish.** [`Namespace::flush`] hands the entries to
//!   the namespace's [`Flusher`]; encoding and the atomic publish run on
//!   its worker thread. [`Namespace::sync`] waits for the backlog,
//!   [`Namespace::shutdown`] drains and stops the worker.
//! * **Counters and telemetry.** Records loaded, rejections, snapshots
//!   and records published, and the shared `store.*` metrics
//!   (`store.invalid`, `store.flushes`, `store.records_flushed`,
//!   `store.hits` / `store.misses`, `store.load_us`, `store.flush_us`),
//!   plus the consumer's own loaded-records counter.
//!
//! A record is the key's encoding followed by the value's — the layout of
//! the `(K, V)` [`Blob`] — so a decoded key compares equal to the
//! original and a warm hit resolves collisions by `PartialEq` exactly as
//! an in-memory hit does.

use crate::codec::{Blob, ByteWriter};
use crate::file::{load_records, publish_records, LoadOutcome, NamespaceSpec};
use crate::flush::Flusher;
use pipedepth_telemetry::{Stopwatch, Telemetry, DEFAULT_TIME_BUCKETS_US};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The part of a namespace that load and publish jobs share: it outlives
/// any borrow of the owner (flusher jobs, on-demand loaders), so every
/// counter is atomic. Flush counters are reliable once the flusher has
/// drained ([`Namespace::sync`] or [`Namespace::shutdown`]).
#[derive(Debug)]
struct Shared {
    dir: PathBuf,
    spec: NamespaceSpec<'static>,
    loaded_metric: &'static str,
    telemetry: Telemetry,
    read: AtomicBool,
    loaded: AtomicU64,
    invalid: AtomicU64,
    flushes: AtomicU64,
    records_flushed: AtomicU64,
}

impl Shared {
    fn load<K: Blob, V: Blob>(&self) -> Vec<(K, Arc<V>)> {
        let start = Stopwatch::start();
        self.read.store(true, Ordering::Relaxed);
        let decoded = match load_records(&self.dir, &self.spec) {
            LoadOutcome::Warm(records) => records
                .iter()
                .map(|record| <(K, V)>::from_record(record).map(|(k, v)| (k, Arc::new(v))))
                .collect::<Result<Vec<_>, _>>()
                .ok(),
            LoadOutcome::Cold(reason) => reason.is_missing().then(Vec::new),
        };
        let entries = match decoded {
            Some(entries) => {
                let loaded = entries.len() as u64;
                self.loaded.store(loaded, Ordering::Relaxed);
                self.telemetry.counter(self.loaded_metric).add(loaded);
                entries
            }
            None => {
                self.invalid.fetch_add(1, Ordering::Relaxed);
                self.telemetry.counter("store.invalid").inc();
                Vec::new()
            }
        };
        self.telemetry
            .histogram("store.load_us", &DEFAULT_TIME_BUCKETS_US)
            .record(start.elapsed_us());
        entries
    }

    fn publish<K: Blob, V: Blob>(&self, entries: &[(K, Arc<V>)]) {
        let start = Stopwatch::start();
        let records: Vec<Vec<u8>> = entries
            .iter()
            .map(|(key, value)| {
                let mut w = ByteWriter::new();
                key.encode(&mut w);
                value.encode(&mut w);
                w.into_bytes()
            })
            .collect();
        if publish_records(&self.dir, &self.spec, &records).is_ok() {
            let n = records.len() as u64;
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.records_flushed.fetch_add(n, Ordering::Relaxed);
            self.telemetry.counter("store.flushes").inc();
            self.telemetry.counter("store.records_flushed").add(n);
        }
        self.telemetry
            .histogram("store.flush_us", &DEFAULT_TIME_BUCKETS_US)
            .record(start.elapsed_us());
    }
}

/// One persisted `(K, V)` record family under a store directory, with its
/// own write-behind flusher. See the module docs.
#[derive(Debug)]
pub struct Namespace<K, V> {
    shared: Arc<Shared>,
    flusher: Flusher,
    records: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Namespace<K, V>
where
    K: Blob + Send + 'static,
    V: Blob + Send + Sync + 'static,
{
    /// Opens namespace `spec` under `dir`, reporting into `telemetry`.
    /// `loaded_metric` is the consumer's counter of records decoded from
    /// a valid snapshot. Registers every counter the namespace emits
    /// immediately, so cold and warm processes expose the same
    /// metric-name set.
    pub fn open(
        dir: &Path,
        spec: NamespaceSpec<'static>,
        loaded_metric: &'static str,
        telemetry: &Telemetry,
    ) -> Self {
        for name in [
            "store.hits",
            "store.misses",
            "store.invalid",
            "store.flushes",
            "store.records_flushed",
            loaded_metric,
        ] {
            telemetry.counter(name).add(0);
        }
        Namespace {
            shared: Arc::new(Shared {
                dir: dir.to_path_buf(),
                spec,
                loaded_metric,
                telemetry: telemetry.clone(),
                read: AtomicBool::new(false),
                loaded: AtomicU64::new(0),
                invalid: AtomicU64::new(0),
                flushes: AtomicU64::new(0),
                records_flushed: AtomicU64::new(0),
            }),
            flusher: Flusher::new(),
            records: PhantomData,
        }
    }

    /// Reads and decodes the snapshot now: every record, or none. See the
    /// module docs for which cold starts count as rejections.
    pub fn load(&self) -> Vec<(K, Arc<V>)> {
        self.shared.load()
    }

    /// [`load`](Self::load) as a one-shot closure that owns what it
    /// needs, for a consumer that reads the namespace only if and when
    /// it turns out to need it. Counters update when the closure runs.
    pub fn loader(&self) -> impl FnOnce() -> Vec<(K, Arc<V>)> + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.load()
    }

    /// Publishes a snapshot of `entries`, write-behind: encoding and the
    /// atomic publish run on the flusher thread. The caller snapshots the
    /// entries first, holding no lock across the hand-off.
    pub fn flush(&self, entries: Vec<(K, Arc<V>)>) {
        let shared = Arc::clone(&self.shared);
        self.flusher.submit(move || shared.publish(&entries));
    }

    /// Records a warm tier's lifetime probe counters as `store.hits` /
    /// `store.misses`.
    pub fn record_warm(&self, hits: u64, misses: u64) {
        let telemetry = &self.shared.telemetry;
        telemetry.counter("store.hits").add(hits);
        telemetry.counter("store.misses").add(misses);
    }

    /// Waits until every snapshot submitted so far is published. Needs
    /// only `&self`; the namespace keeps accepting flushes afterwards.
    pub fn sync(&self) {
        self.flusher.sync();
    }

    /// Drains every pending flush and stops the worker; later flushes
    /// run inline. Idempotent; also performed on drop.
    pub fn shutdown(&mut self) {
        self.flusher.shutdown();
    }

    /// Whether a load has run.
    pub fn was_read(&self) -> bool {
        self.shared.read.load(Ordering::Relaxed)
    }

    /// Records decoded by the last load from a valid snapshot (0 before
    /// any load, and after a cold start).
    pub fn loaded(&self) -> u64 {
        self.shared.loaded.load(Ordering::Relaxed)
    }

    /// Loads rejected for corruption or version skew (a missing file does
    /// not count).
    pub fn invalid(&self) -> u64 {
        self.shared.invalid.load(Ordering::Relaxed)
    }

    /// Snapshots published so far.
    pub fn flushes(&self) -> u64 {
        self.shared.flushes.load(Ordering::Relaxed)
    }

    /// Records across every snapshot published so far.
    pub fn records_flushed(&self) -> u64 {
        self.shared.records_flushed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_undecodable_record_rejects_the_whole_namespace() {
        let dir =
            std::env::temp_dir().join(format!("pipedepth-store-namespace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = NamespaceSpec {
            name: "pairs",
            schema_version: 1,
            code_version: "test",
            config_digest: 7,
        };
        // Both records carry valid checksums; the second is one byte, too
        // short for a (u32, u64) pair.
        let records = vec![(3u32, 4u64).to_record(), vec![0xAB]];
        publish_records(&dir, &spec, &records).expect("publish");

        let ns: Namespace<u32, u64> =
            Namespace::open(&dir, spec, "store.pairs_loaded", &Telemetry::disabled());
        assert!(ns.load().is_empty(), "no partial snapshot");
        assert!(ns.was_read());
        assert_eq!(ns.loaded(), 0);
        assert_eq!(ns.invalid(), 1, "the rejection is counted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
