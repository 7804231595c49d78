//! The metric catalogue and the result object a run prints.
//!
//! An untraced run reports every [`END_TO_END`] metric; a traced run
//! reports every [`per_layer`] metric. A per-layer metric whose layer the
//! workload does not exercise (the executor speedup on `serve-open`, the
//! service's client-side latencies on `campaign-ablation`) reads 0.

use protocol::engine::BackendKind;
use std::collections::BTreeMap;
use std::fmt::Write;

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("trials_per_s", "1/s", "higher"),
    ("job_latency_p50_ms", "ms", "lower"),
    ("job_latency_tail_ms", "ms", "lower"),
    ("slo_met_frac", "frac", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// The seven timed session phases, in protocol order.
pub const PHASES: [&str; 7] = [
    "emission",
    "di_check1",
    "encode",
    "transmission",
    "auth",
    "di_check2",
    "decode",
];

/// Shard counts of the shard-pipeline micro-lanes.
pub const SHARD_LANES: [usize; 3] = [1, 64, 1024];

/// Shard counts of the queue micro-lanes.
pub const QUEUE_LANES: [usize; 2] = [64, 1024];

/// Session job shapes of the serve mix, plus the campaign job.
pub const JOB_SHAPES: [&str; 4] = ["small", "medium", "demo", "campaign"];

/// Registry sizes of the scheduling micro-lane.
pub const REGISTRY_LANES: [usize; 2] = [4, 400];

/// `(name, unit)` of every per-layer metric, grouped by layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    // Kernels.
    add("qsim.kraus_apply_ns".into(), "ns");
    add("qsim.kraus_apply_bytes".into(), "B");
    add("qsim.statevector_sample_ns".into(), "ns");
    add("noise.twirl_sample_ns".into(), "ns");
    add("qchannel.bell_measure_ns".into(), "ns");
    add("qchannel.basis_measure_ns".into(), "ns");
    for kind in BackendKind::ALL {
        add(format!("qchannel.kernel_calls_per_session.{kind}"), "count");
    }
    // Session phases. Attacked sessions abort at the first DI check, so
    // only their first two phases run.
    for s in BackendKind::ALL {
        for p in PHASES {
            add(format!("protocol.phase.{p}_us.{s}.honest"), "us");
        }
        for p in &PHASES[..2] {
            add(format!("protocol.phase.{p}_us.{s}.attacked"), "us");
        }
    }
    add("protocol.phase.sum_ratio".into(), "ratio");
    // Parallel executor.
    add("engine.parallel.imbalance".into(), "ratio");
    add("engine.parallel.speedup".into(), "ratio");
    // Shard pipeline.
    for n in SHARD_LANES {
        add(format!("engine.shard.plan_split_us.shards{n}"), "us");
        add(format!("engine.shard.merge_us.shards{n}"), "us");
    }
    // Queue fabric.
    for n in QUEUE_LANES {
        for op in ["init", "claim", "submit", "checkpoint_read", "merge"] {
            add(format!("engine.queue.{op}_ms.shards{n}"), "ms");
        }
        add(format!("engine.queue.checkpoint_bytes.shards{n}"), "B");
    }
    for op in ["claim", "submit", "merge"] {
        add(format!("engine.queue.{op}_self_frac"), "frac");
    }
    add("engine.queue.execute_frac".into(), "frac");
    add("engine.queue.span_coverage".into(), "frac");
    add("engine.queue.wait_claims_per_shard".into(), "count");
    add("engine.queue.already_done_submits".into(), "count");
    // Campaign layer and analysis.
    add("engine.campaign.expand_ms".into(), "ms");
    add("engine.campaign.report_ms".into(), "ms");
    // Service, client side.
    add("serve.admit_ms.p50".into(), "ms");
    add("serve.admit_ms.tail".into(), "ms");
    add("serve.run_ms.p50".into(), "ms");
    add("serve.run_ms.tail".into(), "ms");
    add("serve.busy_per_job".into(), "count");
    add("serve.status_rtt_ms.p50".into(), "ms");
    add("serve.execute_frac".into(), "frac");
    add("serve.gen_lag_ms.tail".into(), "ms");
    // Service, replayed through the public API.
    add("serve.frame_decode_us".into(), "us");
    for shape in JOB_SHAPES {
        add(format!("serve.spool_lower_ms.{shape}"), "ms");
    }
    for n in REGISTRY_LANES {
        add(format!("serve.registry_schedule_us.jobs{n}"), "us");
    }
    for op in ["claim", "snapshot", "finalize"] {
        add(format!("serve.spool_{op}_ms"), "ms");
    }
    add("serve.spool_bytes_per_job".into(), "B");
    add("trace_overhead_frac".into(), "frac");
    m
}

/// Named values with units, in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets (or replaces) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Adds every catalogued per-layer metric that is still missing, as 0:
    /// the workload did not exercise that layer.
    pub fn fill_unexercised_layers(&mut self) {
        for (name, unit) in per_layer() {
            self.0.entry(name).or_insert((0.0, unit));
        }
    }

    /// Drops every metric not in `keep`.
    pub fn retain(&mut self, keep: &[String]) {
        self.0.retain(|name, _| keep.contains(name));
    }

    /// The metrics as a JSON object of `{"value": v, "unit": u}` entries.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: a metric must be a measured number.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (sessions checked, shards, jobs, requests).
    pub attempted: u64,
    /// Operations that failed or whose output did not match its reference.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: Metrics,
    /// Free-form details for the report file (tail percentiles, sample
    /// counts, resolved settings).
    pub details: Vec<(String, String)>,
}

impl RunResult {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a detail line for the report file.
    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.details.push((key.to_string(), value.to_string()));
    }

    /// The result object, printed as the last line of stdout.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            self.metrics.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric names");
        assert!(count - END_TO_END.len() <= 128);
        for name in &names {
            assert!(name.len() <= 64, "{name} is too long");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }

    #[test]
    fn result_line_is_the_last_json_object() {
        let mut result = RunResult::default();
        result.check(true);
        result.metrics.set("setup_s", 0.25, "s");
        assert_eq!(
            result.result_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
