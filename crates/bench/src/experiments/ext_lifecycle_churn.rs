//! Extension experiment: lifecycle SLOs vs offered load.
//!
//! Sweeps the Poisson arrival rate of the lifecycle workload from a quarter
//! of the reference load to four times it (same templates, same horizon, no
//! faults — queueing behaviour in isolation) under the backfill policy. As
//! the load crosses the cluster's capacity, the queueing-delay tail and the
//! left-queued backlog take off while goodput saturates — the classic
//! saturation knee, here produced by the real placement kernel rather than a
//! closed-form queue.

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::cluster::lifecycle::simulate;
use infinitehbd::cluster::Workload;
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
    let reference_arrivals = ctx.count(96);

    let header = [
        "load factor",
        "arrivals",
        "admitted",
        "completed",
        "left queued",
        "p50 queue delay (s)",
        "p99 queue delay (s)",
        "goodput",
        "utilization",
        "frag mean",
    ];
    let mut rows = Vec::new();
    for &load in ctx.select(&[0.25, 0.5, 1.0, 2.0, 4.0]) {
        let mean_interarrival = Seconds(horizon.value() / (reference_arrivals as f64 * load));
        // Same seed for every load: the sweep varies only the arrival rate.
        let workload = Workload::poisson(
            &templates(),
            mean_interarrival,
            horizon,
            stream_seed(ctx.seed, 0),
        )
        .expect("workload");
        let mut config = base_config(ctx, horizon);
        config.backfill = true;
        let outcome = simulate(&orchestrator, &workload, &[], &config).expect("simulation");
        rows.push(vec![
            fmt(load, 2),
            outcome.arrivals.to_string(),
            outcome.admitted.to_string(),
            outcome.completed.to_string(),
            outcome.left_queued.to_string(),
            fmt(outcome.queue_delay_percentile(0.5), 1),
            fmt(outcome.queue_delay_percentile(0.99), 1),
            fmt(outcome.goodput, 4),
            fmt(outcome.utilization, 4),
            fmt(outcome.frag_mean, 4),
        ]);
    }

    vec![Table::new(
        "Lifecycle SLOs vs offered load (backfill, fault-free)",
        &header,
        rows,
    )]
}
