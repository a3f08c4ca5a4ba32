//! The result line: named metrics with units, the correctness verdict
//! and the attempted/failed counts, rendered as the one JSON object the
//! benchmark prints last.

use redsim_util::Json;

use crate::stats::{percentile, quartiles, samples_beyond, tail_percentile, TAIL_SAMPLES};

/// Every end-to-end metric, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("trace_overhead", "ratio"),
    ("workloads.source_s", "s"),
    ("isa.assemble_s", "s"),
    ("isa.emulate_s", "s"),
    ("isa.trace_minst", "Minst"),
    ("isa.emulate_minst_per_s", "Minst/s"),
    ("isa.trace_encode_ms", "ms"),
    ("isa.trace_decode_ms", "ms"),
    ("isa.setup_residual_s", "s"),
    ("bench.job_s_sum", "s"),
    ("bench.critical_path_s", "s"),
    ("bench.parallel_efficiency", "ratio"),
    ("bench.residual_s", "s"),
    ("core.sim_s.sie", "s"),
    ("core.sim_s.die", "s"),
    ("core.sim_s.die-irb", "s"),
    ("core.sim_s.die-2xalu", "s"),
    ("core.ns_per_cycle", "ns"),
    ("core.cycles", "count"),
    ("core.committed_insts", "count"),
    ("core.phase_share.fetch", "ratio"),
    ("core.phase_share.schedule", "ratio"),
    ("core.phase_share.execute", "ratio"),
    ("core.phase_share.writeback", "ratio"),
    ("core.phase_share.commit", "ratio"),
    ("core.profiler_overhead", "ratio"),
    ("core.phase_residual_share", "ratio"),
    ("core.scan_over_event", "ratio"),
    ("core.fault_sim_s", "s"),
    ("core.faults_injected", "count"),
    ("core.rewind_cycles", "count"),
    ("core.alu_recovery_gap_pp", "pp"),
    ("core.overall_recovery_gap_pp", "pp"),
    ("irb.lookups", "count"),
    ("irb.hit_permille", "permille"),
    ("irb.reuse_pass_permille", "permille"),
    ("irb.port_starved", "count"),
    ("irb.ns_per_op", "ns"),
    ("mem.l1i_miss_permille", "permille"),
    ("mem.l1d_miss_permille", "permille"),
    ("mem.l2_misses", "count"),
    ("mem.ns_per_access", "ns"),
    ("predictor.mispredict_permille", "permille"),
    ("predictor.ns_per_branch", "ns"),
    ("campaign.shard_s_sum", "s"),
    ("campaign.critical_path_s", "s"),
    ("campaign.parallel_efficiency", "ratio"),
    ("campaign.retries", "count"),
    ("campaign.quarantined", "count"),
    ("campaign.residual_s", "s"),
    ("util.atomic_write_ms", "ms"),
    ("serve.ping_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.submit_dedup_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.store_get_ms.build", "ms"),
    ("serve.store_get_ms.disk", "ms"),
    ("serve.store_get_ms.mem", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.latency_cold_p50_ms", "ms"),
    ("serve.latency_disk_p50_ms", "ms"),
    ("serve.latency_mem_p50_ms", "ms"),
    ("serve.latency_dedup_p50_ms", "ms"),
    ("serve.store.builds", "count"),
    ("serve.store.disk_hits", "count"),
    ("serve.store.mem_hits", "count"),
    ("serve.dedup_hits", "count"),
];

/// Metric values by name, plus the correctness ledger of one run.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    /// Units of work attempted (grid jobs, shards or requests).
    pub attempted: u64,
    /// Attempted units that failed or were refused.
    pub failed: u64,
    /// Every correctness check that did not hold, in order.
    pub violations: Vec<String>,
    /// Context printed in the run record, not as metrics.
    pub notes: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a metric value (the last write of a name wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records a context value for the run record.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Records `latency_p50_ms` and `latency_p95_ms` over `ms`, notes
    /// the sample count and the highest percentile the count supports,
    /// and checks that the 95th percentile has enough samples beyond it.
    pub fn latencies(&mut self, ms: &[f64]) {
        self.set("latency_p50_ms", percentile(ms, 50.0).unwrap_or(0.0));
        self.set("latency_p95_ms", percentile(ms, 95.0).unwrap_or(0.0));
        self.note("latency_samples", ms.len() as f64);
        self.note(
            "latency_tail_percentile",
            tail_percentile(ms.len()).unwrap_or(0.0),
        );
        self.check(samples_beyond(ms.len(), 95.0) >= TAIL_SAMPLES, || {
            format!(
                "{} latency samples leave fewer than {TAIL_SAMPLES} beyond p95",
                ms.len()
            )
        });
    }

    /// Records `jobs_per_s` over whole passes, each `(units, wall
    /// seconds)`: all units over all pass time, which averages the
    /// host's speed drift better than the median pass does. Notes the
    /// quartiles of the per-pass rates.
    pub fn rates(&mut self, passes: &[(f64, f64)]) {
        let (units, wall) = passes
            .iter()
            .fold((0.0, 0.0), |(u, w), &(pu, pw)| (u + pu, w + pw));
        self.set("jobs_per_s", units / wall);
        let per_pass: Vec<f64> = passes.iter().map(|&(u, w)| u / w).collect();
        let per_pass = per_pass.as_slice();
        self.note("passes", per_pass.len() as f64);
        if let Some((q1, _, q3)) = quartiles(per_pass) {
            self.note("jobs_per_s_q1", q1);
            self.note("jobs_per_s_q3", q3);
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result object over the `wanted` metrics. A wanted metric no
    /// code path recorded is itself a violation.
    pub fn result(&mut self, wanted: &[(&str, &str)]) -> Json {
        let mut metrics = Json::obj();
        for &(name, unit) in wanted {
            match self.get(name) {
                Some(v) if v.is_finite() => {
                    metrics =
                        metrics.field(name, Json::obj().field("value", v).field("unit", unit));
                }
                _ => self
                    .violations
                    .push(format!("metric {name} was not measured")),
            }
        }
        Json::obj()
            .field("correct", self.violations.is_empty())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
    }
}
