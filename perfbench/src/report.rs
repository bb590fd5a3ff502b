//! The metric catalog (the names `BENCHMARK.json` lists) and the outcome of
//! one run.

use crate::sys::{self, Meter, Timing};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit, better)`, reported by untraced runs of
/// every workload. An operation is one 32-query batch (`serve_*`), one
/// `sim::run` schedule (`control_sim`) or one full registry pass
/// (`registry`); `norm_work_per_s` counts queries, schedules and passes.
///
/// All are on-CPU times scaled to a core of nominal speed by the reference
/// readings around each set-up and operation (see [`sys::Meter`]). The
/// unscaled CPU figures (`cpu.*`), the wall-clock figures (`wall.*`) and
/// the median reference reading (`host.ref_ms`) are kept in the record,
/// without a bound.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("norm_work_per_s", "1/s", "higher"),
    ("norm_op_p50_ms", "ms", "lower"),
    ("norm_op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics other than the per-experiment registry timings.
const LAYERS: [(&str, &str, &str); 31] = [
    ("par.cpu_util", "fraction", "higher"),
    ("store.publish_us_p50", "us", "lower"),
    ("store.publishes", "count/batch", "lower"),
    ("store.flips_per_publish", "count", "lower"),
    ("service.fresh_batch_ms_p50", "ms", "lower"),
    ("service.warm_batch_ms_p50", "ms", "lower"),
    ("service.shared_builds", "count/batch", "lower"),
    ("service.shared_reuses", "count/batch", "higher"),
    ("service.private_builds", "count/batch", "lower"),
    ("service.probes_per_query", "count", "lower"),
    ("service.shape_repeat_frac", "fraction", "higher"),
    ("service.whatif_frac", "fraction", "lower"),
    ("service.modeled_over_measured", "ratio", "higher"),
    ("scratch.patched", "count/batch", "lower"),
    ("scratch.cold", "count/batch", "lower"),
    ("scratch.segments_reorchestrated", "count/batch", "lower"),
    ("scratch.segment_reuse_frac", "fraction", "higher"),
    ("scratch.domains_patched", "count/batch", "lower"),
    ("oracle.place_ms_p50", "ms", "lower"),
    ("oracle.max_job_ms_p50", "ms", "lower"),
    ("control.sim_run_ms_p50", "ms", "lower"),
    ("control.arrivals_per_run", "count", "lower"),
    ("control.plans_per_run", "count", "lower"),
    ("control.sends_per_run", "count", "lower"),
    ("control.retries_per_run", "count", "lower"),
    ("control.checks_per_run", "count", "lower"),
    ("control.plan_us_p50", "us", "lower"),
    ("control.planner_frac", "fraction", "lower"),
    ("fault.schedule_gen_ms_p50", "ms", "lower"),
    ("registry.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
];

/// Every span the workloads record; each gets a mean self-time metric.
pub const SPANS: [&str; 15] = [
    "serve.batch",
    "store.publish_delta",
    "service.answer_batch",
    "serve.check",
    "oracle.place",
    "oracle.max_job",
    "oracle.what_if",
    "control.schedule",
    "control.sim_run",
    "fault.generate_events",
    "control.plan_replay",
    "control.plan",
    "registry.pass",
    "registry.experiment",
    "registry.check",
];

/// The self-time metric of a span.
fn self_metric(span: &str) -> String {
    format!("self.{span}_ms")
}

/// The full per-layer catalog `(name, unit, better)`, reported by traced
/// runs of every workload (0 where the workload does not call the layer).
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = LAYERS
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    out.extend(
        bench::registry::all()
            .iter()
            .map(|e| (format!("registry.{}_ms", e.name), "ms", "lower")),
    );
    out.extend(SPANS.iter().map(|span| (self_metric(span), "ms", "lower")));
    out
}

/// Input properties printed by every run, traced or not.
pub const INPUTS: [&str; 4] = [
    "service.shape_repeat_frac",
    "service.whatif_frac",
    "store.flips_per_publish",
    "control.arrivals_per_run",
];

/// What one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            values: BTreeMap::new(),
            notes: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A measured value; 0 when the workload does not measure it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    pub fn values(&self) -> &BTreeMap<String, f64> {
        &self.values
    }

    pub fn note(&mut self, key: &str, value: String) {
        self.notes.insert(key.to_string(), value);
    }

    #[cfg(test)]
    pub fn note_value(&self, key: &str) -> &str {
        self.notes.get(key).map_or("", String::as_str)
    }

    pub fn notes(&self) -> &BTreeMap<String, String> {
        &self.notes
    }

    /// Sets the end-to-end metrics and their unscaled and wall-clock
    /// counterparts from the set-ups and operations of a run, with `work`
    /// units of work done over all the operations, and the median reference
    /// reading of the run's meter.
    pub fn set_timings(&mut self, setups: &[Timing], ops: &[Timing], work: f64, meter: &Meter) {
        let scaled: fn(&Timing) -> f64 = |t| t.scaled_s;
        let views = [
            ("setup_s", "norm_", scaled),
            ("cpu.setup_s", "cpu.", |t| t.cpu_s),
            ("wall.setup_s", "wall.", |t| t.wall_s),
        ];
        for (setup_name, prefix, seconds) in views {
            let setup: Vec<f64> = setups.iter().map(seconds).collect();
            let op_ms: Vec<f64> = ops.iter().map(|t| seconds(t) * 1e3).collect();
            let busy_s = op_ms.iter().sum::<f64>() / 1e3;
            self.set(setup_name, sys::median(&setup));
            self.set(&format!("{prefix}work_per_s"), sys::ratio(work, busy_s));
            self.set(&format!("{prefix}op_p50_ms"), sys::median(&op_ms));
            self.set(&format!("{prefix}op_p90_ms"), sys::quantile(&op_ms, 0.9));
        }
        self.set("host.ref_ms", meter.reference_ms());
    }

    /// Tracing overhead: median traced operation over median untraced
    /// operation of the same run, minus one.
    pub fn set_overhead(&mut self, traced_ms: &[f64], untraced_ms: &[f64]) {
        let untraced = sys::median(untraced_ms);
        let overhead = if untraced > 0.0 {
            sys::median(traced_ms) / untraced - 1.0
        } else {
            0.0
        };
        self.set("trace.overhead_frac", overhead);
    }

    /// Mean self time per span, for every span name the tracer recorded.
    pub fn set_self_times(&mut self, tracer: &Tracer) {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for span in tracer.spans() {
            *counts.entry(span.name).or_default() += 1;
        }
        for (name, total_us) in tracer.self_time_us() {
            let n = counts[name] as f64;
            self.set(&self_metric(name), total_us / n / 1e3);
        }
    }

    pub fn error_frac(&self) -> f64 {
        sys::ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        for input in INPUTS {
            assert!(per_layer().iter().any(|m| m.0 == input), "{input}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
