//! One module per registered experiment. Each module exposes
//! `pub fn run(&RunCtx) -> Vec<Table>`; the `registry!` list below declares
//! the module and its [`Experiment`] entry from the one name, so adding an
//! experiment means adding its file and one entry here.
//!
//! `cargo fmt` does not reach modules declared inside a macro: format this
//! directory with `rustfmt --edition 2021 crates/bench/src/experiments/*.rs`
//! (`scripts/smoke.sh` checks it).

use crate::registry::Experiment;

/// Expands each `module / group / summary` entry into `pub mod module;` and
/// its [`Experiment`] record in `ALL`.
macro_rules! registry {
    ($( $module:ident / $group:literal / $summary:literal ),* $(,)?) => {
        $( pub mod $module; )*

        /// Every experiment of the evaluation, in EXPERIMENTS.md presentation
        /// order (read it through [`crate::registry::all`]).
        pub(crate) const ALL: &[Experiment] = &[ $( Experiment {
            name: stringify!($module),
            group: $group,
            summary: $summary,
            run: $module::run,
        }, )* ];
    };
}

registry![
    fig10_11_insertion_loss
        / "Device (§5.1)"
        / "OCSTrx insertion loss vs temperature, and its distribution",
    fig10b_power / "Device (§5.1)" / "OCSTrx core-module power per path and temperature",
    fig12_ber / "Device (§5.1)" / "OCSTrx bit-error rate vs OMA and temperature",
    sec52_allreduce_util
        / "Prototype (§5.2)"
        / "Ring-AllReduce bandwidth utilisation of the prototype rings",
    ext_failover_recovery / "Control plane (§5.2)" / "Single-fault recovery cost vs ring degree K",
    sim_seeds
        / "Control plane (§5.2)"
        / "Seeded adversarial-schedule convergence sweep of the control-plane simulator",
    table2_llama_mfu
        / "Training (§6.1)"
        / "Llama 3.1-405B optimal parallelism and MFU vs the TP-8 cap",
    table3_traffic_volume / "Training (§6.1)" / "Per-MoE-layer TP vs EP communication volume",
    table4_tp_vs_ep / "Training (§6.1)" / "TP vs EP MFU under expert imbalance",
    table5_moe_mfu / "Training (§6.1)" / "GPT-MoE optimal parallelism and MFU",
    fig13_waste_cdf
        / "Fault resilience (§6.2)"
        / "GPU waste-ratio CDF summary over the production-calibrated trace",
    fig14_waste_vs_fault
        / "Fault resilience (§6.2)"
        / "Waste ratio vs node fault ratio (parallel Monte-Carlo sweep)",
    fig15_max_job / "Fault resilience (§6.2)" / "Maximal job scale supported over the fault trace",
    fig16_fault_waiting / "Fault resilience (§6.2)" / "Job fault-waiting rate vs job scale",
    fig18_trace_stats
        / "Fault resilience (§6.2)"
        / "Macro statistics of the generated production fault trace",
    fig20_waste_timeseries
        / "Fault resilience (§6.2)"
        / "Waste ratio over the trace, per architecture",
    fig17a_cluster_size
        / "Orchestration (§6.3)"
        / "Cross-ToR rate vs cluster size (binary-searched constraints)",
    fig17b_job_scale
        / "Orchestration (§6.3)"
        / "Cross-ToR rate vs job-scale ratio on the 8,192-GPU cluster",
    fig17c_fault_ratio
        / "Orchestration (§6.3)"
        / "Cross-ToR rate vs node fault ratio on the 8,192-GPU cluster",
    ext_dcn_congestion
        / "Orchestration (§6.3)"
        / "Flow-level DP AllReduce slowdown vs ToR oversubscription",
    ext_pp_traffic
        / "Traffic engine (ext)"
        / "DCN traffic mix (DP/PP/CP epochs) per parallelism plan",
    ext_multijob_interference
        / "Traffic engine (ext)"
        / "Per-job slowdown and hot links in a 3-job mix on one Fat-Tree",
    ext_interference_vs_jobs
        / "Traffic engine (ext)"
        / "Interference growth vs concurrent job count, per placement policy",
    ext_replay_scale
        / "Traffic engine (ext)"
        / "Replay-engine cost counters and throughput vs job-mix size",
    ext_lifecycle_slo
        / "Lifecycle (ext)"
        / "Online job-lifecycle SLOs per admission policy (FIFO / backfill / defrag)",
    ext_lifecycle_churn
        / "Lifecycle (ext)"
        / "Lifecycle queueing and goodput vs offered load (saturation knee)",
    ext_lifecycle_faults
        / "Lifecycle (ext)"
        / "Lifecycle churn and SLOs vs steady-state fault ratio",
    ext_service_throughput
        / "Service (ext)"
        / "Placement-service sustained load, batching sweep and modeled tail latency",
    ext_incremental_publish
        / "Service (ext)"
        / "Delta-published epochs: segment reuse and modeled publish latency vs churn rate",
    ext_overload_shedding
        / "Robustness (ext)"
        / "Offered-load sweep past saturation: bounded p99 with admission control vs collapse",
    ext_fault_storms
        / "Robustness (ext)"
        / "Correlated fault-storm sweep: degraded answers, breaker transitions and recovery",
    fig17d_aggregate_cost / "Economics (§6.4)" / "Normalized aggregate cost vs fault ratio",
    table6_cost_power / "Economics (§6.4)" / "Interconnect cost and power per GPU and per GBps",
    table7_waste_bound / "Theory (App. C)" / "Closed-form upper bound on the expected waste ratio",
    table8_bom / "Economics (App. F)" / "Component-level bill of materials per architecture",
    appg_alltoall / "AllToAll (App. G)" / "AllToAll algorithm comparison incl. Binary Exchange",
    appg_alltoall_fastswitch
        / "AllToAll (App. G)"
        / "Fast-switched Binary Exchange vs ring AllToAll",
];
