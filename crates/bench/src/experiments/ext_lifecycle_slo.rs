//! Extension experiment: admission-policy SLOs of the online cluster
//! lifecycle simulator (`cluster::lifecycle`).
//!
//! One seeded Poisson job mix (large/medium/small training jobs) and one
//! seeded fault schedule replay against a 256-node Fat-Tree under three
//! admission policies — strict FIFO, FIFO with backfill, and backfill plus
//! defragmentation-on-exit. The tables report the production SLOs the static
//! job-mix figures cannot see: the queueing-delay distribution, modeled
//! placement-latency percentiles, fragmentation over time and goodput, plus
//! the churn ledger (migrations, fault-waits, defrag moves) behind them.
//!
//! Placement latency is a deterministic model (per-group, per-retry and
//! per-failover-command terms), never wall-clock, so every cell is bit-stable
//! in the seed and invariant in `--threads`.

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::cluster::lifecycle::{simulate, LifecycleConfig, PlacementLatencyModel};
use infinitehbd::cluster::{JobTemplate, Workload};
use infinitehbd::fault::sim_events::generate_events;
use infinitehbd::fault::GeneratorConfig;
use infinitehbd::hbd_types::par::stream_seed;
use infinitehbd::hbd_types::Seconds;
use infinitehbd::orchestrator::{FatTreeOrchestrator, OrchestrationRequest};
use infinitehbd::topology::FatTree;

/// Cluster size shared by the lifecycle experiments.
pub const NODES: usize = 256;

/// The job templates of the lifecycle workload: a large pre-training job, a
/// medium fine-tune and a small experiment, in paper-shaped TP groups.
pub fn templates() -> Vec<JobTemplate> {
    vec![
        JobTemplate {
            name: "large".to_string(),
            request: OrchestrationRequest {
                job_nodes: 64,
                nodes_per_group: 8,
                k: 2,
            },
            mean_service: Seconds::from_hours(2.0),
            weight: 1.0,
        },
        JobTemplate {
            name: "medium".to_string(),
            request: OrchestrationRequest {
                job_nodes: 32,
                nodes_per_group: 8,
                k: 2,
            },
            mean_service: Seconds::from_hours(1.0),
            weight: 2.0,
        },
        JobTemplate {
            name: "small".to_string(),
            request: OrchestrationRequest {
                job_nodes: 16,
                nodes_per_group: 4,
                k: 2,
            },
            mean_service: Seconds(1200.0),
            weight: 4.0,
        },
    ]
}

/// The shared lifecycle configuration (policy flags set per row).
pub fn base_config(horizon: Seconds) -> LifecycleConfig {
    LifecycleConfig {
        nodes: NODES,
        gpus_per_node: 8,
        backfill: false,
        defrag_on_exit: false,
        latency: PlacementLatencyModel::default(),
        horizon,
        frag_probe_group: 8,
        frag_probe_k: 2,
        retry_backoff: None,
    }
}

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let orchestrator =
        FatTreeOrchestrator::new(FatTree::new(NODES, 16, 4).expect("valid fat-tree"))
            .expect("orchestrator");
    let horizon = Seconds::from_hours(8.0);
    // The arrival count scales with `--scale`; the horizon stays fixed so the
    // retained rows describe the same regime, only sampled more sparsely.
    let arrivals = ctx.count(96);
    let mean_interarrival = Seconds(horizon.value() / arrivals as f64);
    let workload = Workload::poisson(
        &templates(),
        mean_interarrival,
        horizon,
        stream_seed(ctx.seed, 0),
    )
    .expect("workload");
    let faults = generate_events(
        &GeneratorConfig {
            nodes: NODES,
            duration: horizon,
            steady_state_fault_ratio: 0.03,
            mean_time_to_repair: Seconds::from_hours(1.0),
        },
        stream_seed(ctx.seed, 1),
    )
    .expect("fault schedule");

    let policies: [(&str, bool, bool); 3] = [
        ("fifo", false, false),
        ("backfill", true, false),
        ("backfill+defrag", true, true),
    ];
    let mut slo_rows = Vec::new();
    let mut churn_rows = Vec::new();
    for (name, backfill, defrag) in policies {
        let mut config = base_config(horizon);
        config.backfill = backfill;
        config.defrag_on_exit = defrag;
        let outcome = simulate(&orchestrator, &workload, &faults, &config).expect("simulation");
        slo_rows.push(vec![
            name.to_string(),
            outcome.arrivals.to_string(),
            outcome.admitted.to_string(),
            outcome.completed.to_string(),
            fmt(outcome.queue_delay_percentile(0.5), 1),
            fmt(outcome.queue_delay_percentile(0.99), 1),
            fmt(outcome.placement_latency_percentile(0.5), 2),
            fmt(outcome.placement_latency_percentile(0.99), 2),
            fmt(outcome.goodput, 4),
        ]);
        churn_rows.push(vec![
            name.to_string(),
            outcome.migrations.to_string(),
            outcome.fault_waits.to_string(),
            outcome.defrag_passes.to_string(),
            outcome.defrag_moves.to_string(),
            fmt(outcome.frag_mean, 4),
            fmt(outcome.frag_max, 4),
            fmt(outcome.utilization, 4),
        ]);
    }

    vec![
        Table::new(
            "Lifecycle SLOs per admission policy (256 nodes, 8 h horizon)",
            &[
                "policy",
                "arrivals",
                "admitted",
                "completed",
                "p50 queue delay (s)",
                "p99 queue delay (s)",
                "p50 placement (s)",
                "p99 placement (s)",
                "goodput",
            ],
            slo_rows,
        ),
        Table::new(
            "Lifecycle churn ledger per admission policy",
            &[
                "policy",
                "migrations",
                "fault waits",
                "defrag passes",
                "defrag moves",
                "frag mean",
                "frag max",
                "utilization",
            ],
            churn_rows,
        ),
    ]
}
