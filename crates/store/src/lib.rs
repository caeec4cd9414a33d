//! Crash-safe, content-addressed on-disk result store.
//!
//! Every simulation outcome in this workspace is a pure function of its
//! spec, the machine configuration and the code version — so a finished
//! result can be paid for once and reused across processes: a re-run of
//! `repro`, a CI job, or a restarted `pipedepth-serve` should warm-start
//! from the previous run's results instead of re-simulating every cell.
//! This crate provides the durable tier below the in-memory
//! `ShardedCache` of `pipedepth-core`, with three guarantees:
//!
//! * **Never a wrong answer.** Records carry the full spec (not just its
//!   hash), every payload is covered by an FNV-1a checksum, the file
//!   carries a trailing whole-file checksum, and the header binds the
//!   store to a format version, a consumer schema version, a code
//!   version and a config digest. Any mismatch — corruption, truncation,
//!   version skew, a different run configuration — degrades to a cold
//!   start ([`LoadOutcome::Cold`] with an [`InvalidReason`]), never a
//!   panic and never a stale result.
//! * **Crash-safe publish.** A snapshot is written to a temp file in the
//!   store directory and atomically renamed over the previous one
//!   ([`publish_records`]); readers only ever observe a complete old or a
//!   complete new file.
//! * **Off the hot path.** Snapshots are handed to a [`Flusher`] — a
//!   single write-behind worker thread — so the simulation loop never
//!   blocks on I/O; [`Flusher::shutdown`] drains outstanding work at
//!   process exit.
//!
//! Consumers persist through [`Namespace`], the one typed owner of a
//! `(K, V)` record family: it binds the four-part [`NamespaceSpec`] key,
//! loads all-or-nothing, publishes write-behind on its own [`Flusher`],
//! and keeps the load/flush counters and the shared `store.*` telemetry
//! (the crate's one dependency, `pipedepth-telemetry`, compiled to no-ops
//! unless a consumer enables capture). The lower layers stay public for
//! the corruption and version-skew suites.
//!
//! The codec layer ([`ByteWriter`] / [`ByteReader`] / [`Blob`]) is shared
//! with consumer crates, which implement [`Blob`] for their own spec and
//! value types next to those types' private fields. [`Fnv64`] is the
//! workspace's one FNV-1a: the checksums here and every structural
//! content key upstream. This is the lowest crate every hashing crate
//! depends on.

pub mod codec;
pub mod file;
pub mod flush;
pub mod hash;
pub mod namespace;

pub use codec::{Blob, ByteReader, ByteWriter, DecodeError};
pub use file::{
    load_records, publish_records, InvalidReason, LoadOutcome, NamespaceSpec, FORMAT_VERSION,
};
pub use flush::Flusher;
pub use hash::{fnv1a, Fnv64};
pub use namespace::Namespace;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_separates_nearby_inputs() {
        assert_ne!(fnv1a(&[0, 1]), fnv1a(&[1, 0]));
        assert_ne!(fnv1a(&[0]), fnv1a(&[0, 0]));
    }
}
