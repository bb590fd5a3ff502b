//! `control_sim`: seeded `control::sim::run` schedules on a 256-node K=3
//! ring, cycling over the six message-fault profiles of the `sim_seeds`
//! experiment, each checked for convergence.

use crate::report::Outcome;
use crate::sys::{self, Meter};
use crate::trace::Tracer;
use bench::experiments::sim_seeds;
use infinitehbd::control::{sim, FailoverPlanner, SimConfig};
use infinitehbd::fault::{generate_events, NodeEventKind};
use infinitehbd::hbd_types::stream_seed;
use infinitehbd::topology::{FaultSet, KHopRing};
use std::time::{Duration, Instant};

/// Shape of the control-plane workload.
#[derive(Debug, Clone, Copy)]
pub struct ControlConfig {
    /// Ring size (the registry's `sim_seeds` uses 48).
    pub nodes: usize,
    /// Schedules whose counters are reported: a fixed prefix, so the counters
    /// repeat exactly for a given seed whatever the machine's speed.
    pub prefix: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
}

impl ControlConfig {
    pub fn standard() -> Self {
        ControlConfig {
            nodes: 256,
            prefix: 60,
            setups: 3,
        }
    }
}

/// `sim::run` draws its arrival schedule from stream 0 of the master seed;
/// the traced run regenerates the same schedule to time the generator and
/// replay the planner over it.
const ARRIVAL_STREAM: u64 = 0;

/// The profile configurations of the sweep, resized to `nodes`.
fn configs(nodes: usize) -> Vec<SimConfig> {
    sim_seeds::profiles()
        .into_iter()
        .map(|(_, message_faults)| SimConfig {
            nodes,
            message_faults,
            ..sim_seeds::base_config()
        })
        .collect()
}

/// Whether a report shows a correct run: converged, no invariant violated.
pub fn report_ok(report: &sim::SimReport) -> bool {
    report.final_converged && report.invariant_violations == 0
}

/// Times `FailoverPlanner::plan` over the fault sets the schedule's arrival
/// edges pass through, in span `control.plan`; returns the plan count.
fn replay_planner(
    planner: &FailoverPlanner,
    config: &SimConfig,
    master: u64,
    op: u64,
    tracer: &mut Tracer,
) -> Option<usize> {
    let arrivals = tracer.span("fault.generate_events", op, || {
        generate_events(&config.generator(), stream_seed(master, ARRIVAL_STREAM))
    });
    let arrivals = arrivals.ok()?;
    tracer.open("control.plan_replay", op);
    let mut faults = FaultSet::new();
    let mut ok = true;
    for edge in &arrivals {
        match edge.kind {
            NodeEventKind::Fault => faults.add(edge.node),
            NodeEventKind::Repair => faults.remove(edge.node),
        };
        ok &= tracer
            .span("control.plan", op, || planner.plan(&faults))
            .is_ok();
    }
    tracer.close();
    ok.then_some(arrivals.len())
}

/// Runs the control-plane workload for `seconds`.
pub fn run(
    config: &ControlConfig,
    seed: u64,
    seconds: f64,
    threads: usize,
    tracer: &mut Tracer,
) -> Outcome {
    let traced = tracer.enabled();
    let profiles = configs(config.nodes);
    let mut setups = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut planner = None;
    let mut meter = Meter::new();
    for round in 0..config.setups.max(1) {
        let base = sim_seeds::base_config();
        let (built, mut total) = meter.time(|| {
            let ring = KHopRing::new(config.nodes, base.gpus_per_node, base.k).expect("valid ring");
            FailoverPlanner::new(ring).expect("planner")
        });
        planner = Some(built);
        // Warm-up: one schedule of every profile, from a seed stream of its
        // own, each timed on its own like the schedules of the timed loop.
        for (p, profile) in profiles.iter().enumerate() {
            let master = stream_seed(stream_seed(seed, 9), (round * 1000 + p) as u64);
            let (report, timing) = meter.time(|| sim::run(profile, master));
            total = total + timing;
            attempted += 1;
            failed += u64::from(!report.as_ref().is_ok_and(report_ok));
        }
        setups.push(total);
    }
    let planner = planner.expect("at least one set-up");

    let mut ops = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut sums = [0usize; 5];
    let mut prefix_runs = 0usize;
    let mut planner_frac = Vec::new();
    let masters = stream_seed(seed, 8);
    let usage_before = sys::self_usage();
    let wall = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut j = 0usize;
    while wall.elapsed() < budget || j < config.prefix {
        let profile = &profiles[j % profiles.len()];
        let master = stream_seed(masters, j as u64);
        let op = j as u64;
        let trace_this = traced && j.is_multiple_of(2);
        tracer.set_enabled(trace_this);
        tracer.open("control.schedule", op);
        let (result, timing) =
            meter.time(|| tracer.span("control.sim_run", op, || sim::run(profile, master)));
        attempted += 1;
        match &result {
            Ok(report) if report_ok(report) => {
                if trace_this {
                    let first = tracer.spans().len();
                    match replay_planner(&planner, profile, master, op, tracer) {
                        Some(arrivals) if arrivals == report.arrivals => {
                            let plan_us: Vec<f64> = tracer.spans()[first..]
                                .iter()
                                .filter(|s| s.name == "control.plan")
                                .map(|s| s.duration_us())
                                .collect();
                            let mean_plan_us = sys::mean(&plan_us);
                            planner_frac.push(sys::ratio(
                                report.plans_computed as f64 * mean_plan_us,
                                timing.wall_s * 1e6,
                            ));
                        }
                        _ => failed += 1,
                    }
                }
            }
            _ => failed += 1,
        }
        tracer.close();
        tracer.set_enabled(traced);

        ops.push(timing);
        if trace_this {
            traced_ms.push(timing.scaled_s * 1e3);
        } else {
            untraced_ms.push(timing.scaled_s * 1e3);
        }
        if let (true, Ok(report)) = (j < config.prefix, &result) {
            prefix_runs += 1;
            for (sum, v) in sums.iter_mut().zip([
                report.arrivals,
                report.plans_computed,
                report.sends,
                report.retries,
                report.convergence_checks,
            ]) {
                *sum += v;
            }
        }
        j += 1;
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let usage_after = sys::self_usage();

    let mut out = Outcome::new(attempted, failed);
    out.set_timings(&setups, &ops, j as f64, &meter);
    out.set("peak_rss_mb", usage_after.peak_rss_mb);
    for (name, sum) in [
        "control.arrivals_per_run",
        "control.plans_per_run",
        "control.sends_per_run",
        "control.retries_per_run",
        "control.checks_per_run",
    ]
    .into_iter()
    .zip(sums)
    {
        out.set(name, sys::ratio(sum as f64, prefix_runs as f64));
    }
    if traced {
        out.set(
            "par.cpu_util",
            sys::ratio(
                usage_after.cpu_s - usage_before.cpu_s,
                wall_s * threads as f64,
            ),
        );
        out.set(
            "control.sim_run_ms_p50",
            sys::median(&tracer.durations_us("control.sim_run")) / 1e3,
        );
        out.set(
            "control.plan_us_p50",
            sys::median(&tracer.durations_us("control.plan")),
        );
        out.set("control.planner_frac", sys::median(&planner_frac));
        out.set(
            "fault.schedule_gen_ms_p50",
            sys::median(&tracer.durations_us("fault.generate_events")) / 1e3,
        );
        out.set_overhead(&traced_ms, &untraced_ms);
        out.set_self_times(tracer);
    }
    out.note("schedules", j.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ControlConfig {
        ControlConfig {
            nodes: 48,
            prefix: 12,
            setups: 1,
        }
    }

    #[test]
    fn traced_run_replays_the_same_schedules_and_converges() {
        let mut tracer = Tracer::new(true);
        let out = run(&small(), 5, 0.0, 1, &mut tracer);
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= 12);
        assert!(out.get("control.plan_us_p50") > 0.0);
        assert!(out.get("control.arrivals_per_run") > 0.0);
    }

    #[test]
    fn counters_repeat_exactly_for_a_seed() {
        let a = run(&small(), 5, 0.0, 1, &mut Tracer::new(false));
        let b = run(&small(), 5, 0.0, 1, &mut Tracer::new(false));
        for name in ["control.arrivals_per_run", "control.sends_per_run"] {
            assert_eq!(a.get(name), b.get(name));
        }
    }

    #[test]
    fn an_unconverged_report_is_counted_as_wrong() {
        let config = configs(48)[0];
        let mut report = sim::run(&config, 1).expect("valid config");
        assert!(report_ok(&report));
        report.invariant_violations = 1;
        assert!(!report_ok(&report));
        report.invariant_violations = 0;
        report.final_converged = false;
        assert!(!report_ok(&report));
    }
}
