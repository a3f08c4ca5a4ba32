//! The canonical job description and its fingerprint.
//!
//! A [`JobSpec`] is everything that determines a job's result:
//! workload, execution mode, sizing, input seed, watchdog and fault
//! schedule. Its [`JobSpec::canonical`] JSON rendering has a fixed
//! field order, so [`JobSpec::fingerprint`] — the fx64 hash of those
//! bytes — is a stable identity. The engine deduplicates submissions
//! on it, which is what makes blind re-submission after a crash
//! idempotent.

use redsim_bench::Job;
use redsim_core::{ExecMode, FaultConfig, MachineConfig};
use redsim_util::hash::fx64;
use redsim_util::Json;
use redsim_workloads::{Params, Workload};

/// Instruction budget handed to the functional emulator when a trace
/// is materialized — the same ceiling the bench harness uses.
pub const DEFAULT_TRACE_BUDGET: u64 = redsim_workloads::DEFAULT_TRACE_BUDGET;

/// A complete, deterministic description of one simulation job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The workload to simulate.
    pub workload: Workload,
    /// The execution mode.
    pub mode: ExecMode,
    /// Tiny (`true`) or default workload sizing.
    pub quick: bool,
    /// Input-seed override for the workload's data, if any.
    pub input_seed: Option<u64>,
    /// Simulated-cycle watchdog ceiling, if any.
    pub watchdog: Option<u64>,
    /// Deterministic fault-injection schedule, if any.
    pub faults: Option<FaultConfig>,
    /// Reuse attribution: when `true` the result payload carries the
    /// opcode-class × PC × loop breakdown. Rendered in the canonical
    /// form only when set, so pre-attribution fingerprints are
    /// unchanged.
    pub attribution: bool,
}

impl JobSpec {
    /// A quick job with no seed override, watchdog or faults.
    #[must_use]
    pub fn new(workload: Workload, mode: ExecMode) -> Self {
        JobSpec {
            workload,
            mode,
            quick: true,
            input_seed: None,
            watchdog: None,
            faults: None,
            attribution: false,
        }
    }

    /// The workload parameters this spec resolves to: tiny or default
    /// sizing, with the input seed applied.
    #[must_use]
    pub fn params(&self) -> Params {
        let mut p = if self.quick {
            self.workload.tiny_params()
        } else {
            self.workload.default_params()
        };
        if let Some(seed) = self.input_seed {
            p.seed = seed;
        }
        p
    }

    /// The canonical JSON rendering: fixed field order, optional
    /// fields omitted when absent. This is both the wire format and
    /// the fingerprint pre-image, so it must never change shape for
    /// an unchanged spec.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut j = Json::obj()
            .field("workload", self.workload.name())
            .field("mode", self.mode.name())
            .field("quick", self.quick);
        if let Some(seed) = self.input_seed {
            j = j.field("seed", seed);
        }
        if let Some(w) = self.watchdog {
            j = j.field("watchdog", w);
        }
        if let Some(fc) = self.faults {
            j = j.field(
                "faults",
                Json::obj()
                    .field("fu", fc.fu_rate)
                    .field("bus", fc.forward_rate)
                    .field("irb", fc.irb_rate)
                    .field("seed", fc.seed),
            );
        }
        if self.attribution {
            j = j.field("attribution", true);
        }
        j.to_string()
    }

    /// The job's identity: the fx64 hash of its canonical rendering.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fx64(self.canonical().as_bytes())
    }

    /// The fingerprint as the 16-hex-digit spelling used in result
    /// payloads.
    #[must_use]
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// Lowers the spec onto the bench harness [`Job`] the supervisor
    /// executes, against the paper-baseline machine.
    #[must_use]
    pub fn to_job(&self) -> Job {
        let cfg = MachineConfig::paper_baseline();
        let mut job = Job::new(self.workload, self.mode, &cfg);
        if let Some(seed) = self.input_seed {
            job = job.with_input_seed(seed);
        }
        if let Some(w) = self.watchdog {
            job = job.with_watchdog(w);
        }
        if let Some(fc) = self.faults {
            job = job.with_faults(fc);
        }
        if self.attribution {
            job = job.with_attribution();
        }
        job
    }

    /// Parses a spec from its JSON object form (the `"spec"` field of
    /// a submit request, or a journaled job record).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first defect: missing or
    /// unknown workload/mode, or a malformed optional field.
    pub fn parse(j: &Json) -> Result<JobSpec, String> {
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("spec is missing \"workload\"")?;
        let workload = Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let mode = j
            .get("mode")
            .and_then(Json::as_str)
            .ok_or("spec is missing \"mode\"")?;
        let mode = ExecMode::from_name(mode).ok_or_else(|| format!("unknown mode {mode:?}"))?;
        let quick = match j.get("quick") {
            None => true,
            Some(q) => q.as_bool().ok_or("\"quick\" must be a bool")?,
        };
        let input_seed = match j.get("seed") {
            None => None,
            Some(s) => Some(s.as_u64().ok_or("\"seed\" must be an unsigned integer")?),
        };
        let watchdog = match j.get("watchdog") {
            None => None,
            Some(w) => Some(
                w.as_u64()
                    .ok_or("\"watchdog\" must be an unsigned integer")?,
            ),
        };
        let faults = match j.get("faults") {
            None => None,
            Some(f) => {
                let rate = |key: &str| -> Result<f64, String> {
                    match f.get(key) {
                        None => Ok(0.0),
                        Some(v) => v
                            .as_f64()
                            .ok_or_else(|| format!("\"faults\".\"{key}\" must be a number")),
                    }
                };
                Some(FaultConfig {
                    fu_rate: rate("fu")?,
                    forward_rate: rate("bus")?,
                    irb_rate: rate("irb")?,
                    seed: match f.get("seed") {
                        None => 0,
                        Some(s) => s
                            .as_u64()
                            .ok_or("\"faults\".\"seed\" must be an unsigned integer")?,
                    },
                })
            }
        };
        let attribution = match j.get("attribution") {
            None => false,
            Some(a) => a.as_bool().ok_or("\"attribution\" must be a bool")?,
        };
        Ok(JobSpec {
            workload,
            mode,
            quick,
            input_seed,
            watchdog,
            faults,
            attribution,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_round_trips_through_parse() {
        let spec = JobSpec {
            workload: Workload::Gzip,
            mode: ExecMode::DieIrb,
            quick: true,
            input_seed: Some(7),
            watchdog: Some(1_000_000),
            faults: Some(FaultConfig {
                fu_rate: 2e-4,
                forward_rate: 0.0,
                irb_rate: 1e-5,
                seed: 11,
            }),
            attribution: true,
        };
        let text = spec.canonical();
        let parsed = JobSpec::parse(&Json::parse(&text).expect("canonical form is JSON"))
            .expect("canonical form parses");
        assert_eq!(parsed.canonical(), text, "round trip is byte-identical");
        assert_eq!(parsed.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn fingerprints_separate_distinct_specs() {
        let a = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        let mut b = a.clone();
        b.mode = ExecMode::Die;
        let mut c = a.clone();
        c.input_seed = Some(1);
        let mut d = a.clone();
        d.quick = false;
        let mut e = a.clone();
        e.attribution = true;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), d.fingerprint());
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn attribution_off_keeps_pre_attribution_canonical_shape() {
        // The canonical form is the fingerprint pre-image: a spec that
        // never asked for attribution must render exactly as it did
        // before the field existed, or every stored fingerprint would
        // silently change.
        let spec = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        assert!(!spec.canonical().contains("attribution"));
        let mut on = spec.clone();
        on.attribution = true;
        assert!(on.canonical().contains("\"attribution\":true"));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            r#"{"mode":"sie"}"#,
            r#"{"workload":"gzip"}"#,
            r#"{"workload":"nope","mode":"sie"}"#,
            r#"{"workload":"gzip","mode":"nope"}"#,
            r#"{"workload":"gzip","mode":"sie","quick":3}"#,
            r#"{"workload":"gzip","mode":"sie","seed":-1}"#,
            r#"{"workload":"gzip","mode":"sie","faults":{"fu":"x"}}"#,
        ] {
            let j = Json::parse(bad).expect("test input is JSON");
            assert!(JobSpec::parse(&j).is_err(), "{bad} must not parse");
        }
    }
}
