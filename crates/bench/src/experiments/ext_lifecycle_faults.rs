//! Extension experiment: lifecycle SLOs vs steady-state fault ratio.
//!
//! Replays the reference lifecycle workload (backfill + defrag policy)
//! against fault schedules of increasing steady-state node-fault ratio. The
//! table tracks how churn grows with the fault rate: migrations and
//! fault-waits climb, the queueing-delay tail stretches as re-queued jobs
//! contend with fresh arrivals, and goodput erodes — the online analogue of
//! the static waste-ratio sweep (Fig 14), with the control plane's failover
//! pricing in the loop.

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::cluster::lifecycle::simulate;
use infinitehbd::cluster::Workload;
use infinitehbd::fault::sim_events::generate_events;
use infinitehbd::fault::GeneratorConfig;
use infinitehbd::hbd_types::par::stream_seed;
use infinitehbd::hbd_types::Seconds;
use infinitehbd::orchestrator::FatTreeOrchestrator;
use infinitehbd::topology::FatTree;

use super::ext_lifecycle_slo::{base_config, templates, NODES};

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let orchestrator =
        FatTreeOrchestrator::new(FatTree::new(NODES, 16, 4).expect("valid fat-tree"))
            .expect("orchestrator");
    let horizon = Seconds::from_hours(8.0);
    let arrivals = ctx.count(96);
    let workload = Workload::poisson(
        &templates(),
        Seconds(horizon.value() / arrivals as f64),
        horizon,
        stream_seed(ctx.seed, 0),
    )
    .expect("workload");

    let header = [
        "fault ratio",
        "completed",
        "migrations",
        "fault waits",
        "defrag moves",
        "p99 queue delay (s)",
        "p99 placement (s)",
        "goodput",
        "frag mean",
        "frag max",
    ];
    let mut rows = Vec::new();
    for &ratio in ctx.select(&[0.0, 0.02, 0.05, 0.10]) {
        let faults = if ratio > 0.0 {
            generate_events(
                &GeneratorConfig {
                    nodes: NODES,
                    duration: horizon,
                    steady_state_fault_ratio: ratio,
                    mean_time_to_repair: Seconds::from_hours(1.0),
                },
                stream_seed(ctx.seed, 1),
            )
            .expect("fault schedule")
        } else {
            Vec::new()
        };
        let mut config = base_config(horizon);
        config.backfill = true;
        config.defrag_on_exit = true;
        let outcome = simulate(&orchestrator, &workload, &faults, &config).expect("simulation");
        rows.push(vec![
            fmt(ratio, 2),
            outcome.completed.to_string(),
            outcome.migrations.to_string(),
            outcome.fault_waits.to_string(),
            outcome.defrag_moves.to_string(),
            fmt(outcome.queue_delay_percentile(0.99), 1),
            fmt(outcome.placement_latency_percentile(0.99), 2),
            fmt(outcome.goodput, 4),
            fmt(outcome.frag_mean, 4),
            fmt(outcome.frag_max, 4),
        ]);
    }

    vec![Table::new(
        "Lifecycle churn vs steady-state fault ratio (backfill + defrag)",
        &header,
        rows,
    )]
}
