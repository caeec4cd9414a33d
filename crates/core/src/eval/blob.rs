//! Binary codecs ([`Blob`](pipedepth_store::Blob)) for the evaluation request/result rows, so
//! serving layers can persist their outcome caches through
//! `pipedepth-store`.
//!
//! The encodings carry the *full* spec — every field, floats by IEEE-754
//! bit pattern — not just its content hash: a decoded entry compares
//! equal to the original under `PartialEq`, which is what lets the warm
//! tier of a [`ShardedCache`](super::ShardedCache) resolve hash collisions
//! exactly and never serve a wrong answer from disk.
//!
//! Versioning lives one layer down: any change to these field lists must
//! bump the consumer's namespace `schema_version`, which invalidates old
//! snapshots wholesale (see `pipedepth_store::NamespaceSpec`).

use super::{CellSpec, EvalOutcome, WorkloadProfile};
use pipedepth_store::{Blob, ByteReader, ByteWriter, DecodeError};

impl Blob for WorkloadProfile {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.alpha)
            .put_f64(self.gamma)
            .put_f64(self.hazard_rate)
            .put_f64(self.kappa)
            .put_f64(self.memory_time_fo4);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(WorkloadProfile {
            alpha: r.take_f64()?,
            gamma: r.take_f64()?,
            hazard_rate: r.take_f64()?,
            kappa: r.take_f64()?,
            memory_time_fo4: r.take_f64()?,
        })
    }
}

impl Blob for CellSpec {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.workload);
        self.profile.encode(w);
        w.put_u32(self.depth)
            .put_u64(self.warmup)
            .put_u64(self.instructions)
            .put_f64(self.leakage_fraction)
            .put_f64(self.ref_depth)
            .put_f64(self.latch_growth);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(CellSpec {
            workload: r.take_str()?.to_owned(),
            profile: WorkloadProfile::decode(r)?,
            depth: r.take_u32()?,
            warmup: r.take_u64()?,
            instructions: r.take_u64()?,
            leakage_fraction: r.take_f64()?,
            ref_depth: r.take_f64()?,
            latch_growth: r.take_f64()?,
        })
    }
}

impl Blob for EvalOutcome {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.depth)
            .put_f64(self.cpi)
            .put_f64(self.frequency)
            .put_f64(self.time_per_instruction_fo4)
            .put_f64(self.throughput)
            .put_f64(self.power_gated)
            .put_f64(self.power_ungated);
        for m in self.metric_gated.iter().chain(&self.metric_ungated) {
            w.put_f64(*m);
        }
        self.profile.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let depth = r.take_u32()?;
        let cpi = r.take_f64()?;
        let frequency = r.take_f64()?;
        let time_per_instruction_fo4 = r.take_f64()?;
        let throughput = r.take_f64()?;
        let power_gated = r.take_f64()?;
        let power_ungated = r.take_f64()?;
        let mut metric_gated = [0.0; 3];
        for m in &mut metric_gated {
            *m = r.take_f64()?;
        }
        let mut metric_ungated = [0.0; 3];
        for m in &mut metric_ungated {
            *m = r.take_f64()?;
        }
        Ok(EvalOutcome {
            depth,
            cpi,
            frequency,
            time_per_instruction_fo4,
            throughput,
            power_gated,
            power_ungated,
            metric_gated,
            metric_ungated,
            profile: WorkloadProfile::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            alpha: 1.6,
            gamma: 0.42,
            hazard_rate: 0.11,
            kappa: 0.7,
            memory_time_fo4: 12.5,
        }
    }

    #[test]
    fn cell_spec_round_trips_and_keeps_its_key() {
        let spec = CellSpec::new("spec-int", profile(), 14);
        let decoded = CellSpec::from_record(&spec.to_record()).expect("decodes");
        assert_eq!(decoded, spec);
        assert_eq!(decoded.key(), spec.key(), "content key survives disk");
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        let outcome = EvalOutcome {
            depth: 9,
            cpi: 1.37,
            frequency: 1.0 / 19.8,
            time_per_instruction_fo4: 27.1,
            throughput: 1.0 / 27.1,
            power_gated: 3.25,
            power_ungated: 7.5,
            metric_gated: [0.1, 0.2, 0.3],
            metric_ungated: [0.05, 0.08, 0.13],
            profile: profile(),
        };
        let decoded = EvalOutcome::from_record(&outcome.to_record()).expect("decodes");
        assert_eq!(decoded, outcome);
    }

    #[test]
    fn truncated_records_fail_cleanly() {
        let bytes = CellSpec::new("w", profile(), 2).to_record();
        for keep in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(CellSpec::from_record(&bytes[..keep]).is_err(), "{keep}");
        }
    }
}
