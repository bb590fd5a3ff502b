//! Extension experiment: overload robustness of the admission-controlled
//! placement service (`orchestrator::admission`).
//!
//! The service's modeled capacity is first **calibrated in-experiment**: a
//! back-to-back (all arrivals at t=0) run of one stream measures the
//! saturation throughput, and the sweep's interarrival times are derived
//! from it — so "1x" means *exactly* saturation regardless of how the cost
//! model evolves. The same seeded open-loop query mix as
//! `ext_service_throughput` is then pushed past that point — offered load at
//! 1x, 2x, 4x and 8x capacity — twice per load point: once against an **unbounded
//! patient queue** (no admission control: every query waits however long it
//! takes) and once through the bounded [`AdmissionController`] with
//! per-query deadlines and deadline-aware shedding. The first table shows
//! the failure mode the controller exists to prevent: without admission
//! control the p99 sojourn grows without bound as the backlog does, while
//! with it the p99 stays pinned near the deadline budget and goodput stays
//! nonzero at every load point — bounded latency bought with explicit,
//! typed sheds instead of silent collapse.
//!
//! The second table compares the three shed policies at the 4x point:
//! reject-newest (classic tail drop), deadline-aware displacement (the queue
//! evicts whoever is most likely already dead), and priority classes (the
//! stream is striped over four classes, lowest class shed first).
//!
//! Everything is modeled time ([`ModeledLatency`]): bit-stable in the seed
//! and invariant in `--threads`.

use crate::experiments::ext_service_throughput::{build_stream, mean_interarrival_us};
use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::hbd_types::par::stream_seed;
use infinitehbd::hbd_types::stats;
use infinitehbd::orchestrator::admission::{
    AdmissionConfig, AdmissionController, AdmissionStats, Disposition, ShedPolicy, Ticket,
};
use infinitehbd::orchestrator::service::{
    ModeledLatency, PlacementQuery, PlacementService, SnapshotStore,
};
use infinitehbd::orchestrator::FatTreeOrchestrator;
use infinitehbd::topology::{FatTree, FaultSet};
use std::sync::Arc;

/// Cluster size of the sweep (16 nodes per ToR, 8 ToRs per K-Hop domain).
pub const NODES: usize = 1024;

/// Offered-load multipliers over the saturation interarrival rate.
pub const LOAD_MULTIPLIERS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Queue capacity of the admission-controlled rows.
pub const CAPACITY: usize = 64;

/// Batch cap (matches the service-throughput default regime).
const BATCH_CAP: usize = 32;

/// Per-query deadline budget of the admission-controlled rows, modeled µs.
pub const DEADLINE_US: f64 = 8_000.0;

/// Aggregates of one driven stream.
struct DriveOutcome {
    stats: AdmissionStats,
    /// Sojourns of the answered queries, ms.
    sojourns_ms: Vec<f64>,
    /// Last completion instant, µs (0 when nothing was answered).
    makespan_us: f64,
}

impl DriveOutcome {
    fn percentile_ms(&self, q: f64) -> f64 {
        stats::interpolated_or_zero(&self.sojourns_ms, q)
    }

    /// Answered queries per modeled second of makespan.
    fn goodput_qps(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            return 0.0;
        }
        self.sojourns_ms.len() as f64 / (self.makespan_us / 1_000_000.0)
    }
}

/// Drives one arrival stream through a fresh admission controller in arrival
/// order: advance the modeled queue to each arrival instant, offer the
/// ticket, and drain whatever is still queued after the last arrival.
/// `deadline_us` is the per-query budget (`f64::INFINITY` = patient queue);
/// classes stripe the stream round-robin over four priorities.
fn drive(
    service: &PlacementService,
    queries: &[PlacementQuery],
    arrivals_us: &[f64],
    config: AdmissionConfig,
    deadline_us: f64,
    threads: usize,
) -> DriveOutcome {
    let mut controller = AdmissionController::new(config, ModeledLatency::for_cluster(NODES));
    let mut dispositions = Vec::with_capacity(queries.len());
    for (i, query) in queries.iter().enumerate() {
        controller.run_until(service, arrivals_us[i], threads, &mut dispositions);
        controller.offer(
            Ticket {
                id: i as u64,
                query: query.clone(),
                arrival_us: arrivals_us[i],
                deadline_us: arrivals_us[i] + deadline_us,
                class: (i % 4) as u8,
            },
            &mut dispositions,
        );
    }
    controller.drain(service, threads, &mut dispositions);
    let mut outcome = DriveOutcome {
        stats: controller.stats(),
        sojourns_ms: Vec::new(),
        makespan_us: 0.0,
    };
    for disposition in &dispositions {
        if let Disposition::Answered(answer) = disposition {
            outcome.sojourns_ms.push(answer.sojourn_us / 1_000.0);
            outcome.makespan_us = outcome.makespan_us.max(answer.completed_us);
        }
    }
    outcome
}

/// One row of either table.
fn row(label: &[String], outcome: &DriveOutcome) -> Vec<String> {
    let stats = &outcome.stats;
    let mut cells = label.to_vec();
    cells.extend([
        stats.offered.to_string(),
        stats.answered.to_string(),
        stats.shed().to_string(),
        fmt(100.0 * stats.shed() as f64 / stats.offered.max(1) as f64, 1),
        fmt(outcome.goodput_qps(), 0),
        fmt(outcome.percentile_ms(0.5), 3),
        fmt(outcome.percentile_ms(0.99), 3),
        stats.max_backlog.to_string(),
    ]);
    cells
}

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let orchestrator = Arc::new(
        FatTreeOrchestrator::new(FatTree::new(NODES, 16, 8).expect("valid fat-tree"))
            .expect("orchestrator"),
    );
    let service = PlacementService::new(Arc::new(SnapshotStore::new(
        Arc::clone(&orchestrator),
        FaultSet::new(),
    )));
    let queries_per_stream = ctx.count(512);
    let loads = ctx.select(&LOAD_MULTIPLIERS);

    // Calibrate the saturation rate: a back-to-back run (every query already
    // waiting at t=0, no bound, no deadline) is service-limited by
    // construction, so its goodput IS the modeled capacity.
    let (cal_queries, _) = build_stream(
        NODES,
        queries_per_stream,
        stream_seed(ctx.seed, 999),
        mean_interarrival_us(NODES),
    );
    let calibration = drive(
        &service,
        &cal_queries,
        &vec![0.0; cal_queries.len()],
        AdmissionConfig {
            capacity: usize::MAX,
            batch_cap: BATCH_CAP,
            policy: ShedPolicy::RejectNewest,
        },
        f64::INFINITY,
        ctx.threads,
    );
    let saturation_interarrival_us = 1_000_000.0 / calibration.goodput_qps();

    let mut sweep_rows = Vec::new();
    let mut four_x: Option<(Vec<PlacementQuery>, Vec<f64>)> = None;
    for (idx, &load) in loads.iter().enumerate() {
        let (queries, arrivals) = build_stream(
            NODES,
            queries_per_stream,
            stream_seed(ctx.seed, idx as u64),
            saturation_interarrival_us / load,
        );
        // Unbounded patient queue: no capacity bound, no deadline — the
        // pre-admission-control behaviour.
        let unbounded = drive(
            &service,
            &queries,
            &arrivals,
            AdmissionConfig {
                capacity: usize::MAX,
                batch_cap: BATCH_CAP,
                policy: ShedPolicy::RejectNewest,
            },
            f64::INFINITY,
            ctx.threads,
        );
        // Bounded queue, per-query deadline, deadline-aware displacement.
        let admission = drive(
            &service,
            &queries,
            &arrivals,
            AdmissionConfig {
                capacity: CAPACITY,
                batch_cap: BATCH_CAP,
                policy: ShedPolicy::DeadlineAware,
            },
            DEADLINE_US,
            ctx.threads,
        );
        sweep_rows.push(row(
            &[format!("{load:.0}x"), "off (unbounded)".to_string()],
            &unbounded,
        ));
        sweep_rows.push(row(&[format!("{load:.0}x"), "on".to_string()], &admission));
        if (load - 4.0).abs() < 1e-12 {
            four_x = Some((queries, arrivals));
        }
    }

    // The policy comparison reuses the 4x stream (the most interesting
    // regime: heavily overloaded but not hopeless). At smoke scales that
    // trim the sweep before 4x, fall back to the highest retained load.
    let (queries, arrivals) = four_x.unwrap_or_else(|| {
        build_stream(
            NODES,
            queries_per_stream,
            stream_seed(ctx.seed, (loads.len() - 1) as u64),
            saturation_interarrival_us / loads[loads.len() - 1],
        )
    });
    let mut policy_rows = Vec::new();
    for (name, policy) in [
        ("reject-newest", ShedPolicy::RejectNewest),
        ("deadline-aware", ShedPolicy::DeadlineAware),
        ("priority-class", ShedPolicy::PriorityClass),
    ] {
        let outcome = drive(
            &service,
            &queries,
            &arrivals,
            AdmissionConfig {
                capacity: CAPACITY,
                batch_cap: BATCH_CAP,
                policy,
            },
            DEADLINE_US,
            ctx.threads,
        );
        let stats = &outcome.stats;
        policy_rows.push(vec![
            name.to_string(),
            stats.answered.to_string(),
            stats.shed_queue_full.to_string(),
            stats.shed_displaced.to_string(),
            stats.shed_deadline.to_string(),
            fmt(outcome.percentile_ms(0.5), 3),
            fmt(outcome.percentile_ms(0.99), 3),
        ]);
    }

    vec![
        Table::new(
            format!(
                "Offered-load sweep past saturation on the {NODES}-node snapshot \
                 (calibrated capacity {} qps, queue cap {CAPACITY}, deadline \
                 {DEADLINE_US} us, modeled latency)",
                fmt(calibration.goodput_qps(), 0)
            ),
            &[
                "load",
                "admission",
                "offered",
                "answered",
                "shed",
                "shed %",
                "goodput qps",
                "p50 (ms)",
                "p99 (ms)",
                "max backlog",
            ],
            sweep_rows,
        ),
        Table::new(
            "Shed-policy comparison at the 4x overload point".to_string(),
            &[
                "policy",
                "answered",
                "queue-full",
                "displaced",
                "deadline-expired",
                "p50 (ms)",
                "p99 (ms)",
            ],
            policy_rows,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion of the admission controller: at 4x the
    /// saturation load, admission control keeps the p99 sojourn bounded
    /// (within a small multiple of the deadline budget) and still answers a
    /// nonzero fraction of the stream, while the unbounded queue's p99
    /// collapses to orders of magnitude beyond it.
    #[test]
    fn four_x_overload_is_bounded_with_admission_control_and_collapses_without() {
        let ctx = RunCtx {
            seed: 42,
            threads: 1,
            scale: 1.0,
        };
        let orchestrator =
            Arc::new(FatTreeOrchestrator::new(FatTree::new(NODES, 16, 8).unwrap()).unwrap());
        let service = PlacementService::new(Arc::new(SnapshotStore::new(
            Arc::clone(&orchestrator),
            FaultSet::new(),
        )));
        let count = ctx.count(512);
        // Calibrate saturation exactly as the experiment does, then offer 4x.
        let (cal_queries, _) = build_stream(
            NODES,
            count,
            stream_seed(ctx.seed, 999),
            mean_interarrival_us(NODES),
        );
        let calibration = drive(
            &service,
            &cal_queries,
            &vec![0.0; count],
            AdmissionConfig {
                capacity: usize::MAX,
                batch_cap: BATCH_CAP,
                policy: ShedPolicy::RejectNewest,
            },
            f64::INFINITY,
            ctx.threads,
        );
        let (queries, arrivals) = build_stream(
            NODES,
            count,
            stream_seed(ctx.seed, 2),
            1_000_000.0 / calibration.goodput_qps() / 4.0,
        );
        let unbounded = drive(
            &service,
            &queries,
            &arrivals,
            AdmissionConfig {
                capacity: usize::MAX,
                batch_cap: BATCH_CAP,
                policy: ShedPolicy::RejectNewest,
            },
            f64::INFINITY,
            ctx.threads,
        );
        let admission = drive(
            &service,
            &queries,
            &arrivals,
            AdmissionConfig {
                capacity: CAPACITY,
                batch_cap: BATCH_CAP,
                policy: ShedPolicy::DeadlineAware,
            },
            DEADLINE_US,
            ctx.threads,
        );
        // Conservation on both paths.
        assert_eq!(
            unbounded.stats.offered,
            unbounded.stats.answered + unbounded.stats.shed()
        );
        assert_eq!(
            admission.stats.offered,
            admission.stats.answered + admission.stats.shed()
        );
        assert_eq!(unbounded.stats.shed(), 0, "the patient queue never sheds");
        // Nonzero goodput under admission control at 4x.
        assert!(admission.stats.answered > 0);
        assert!(admission.goodput_qps() > 0.0);
        // Every answered sojourn respects the deadline budget, so the p99 is
        // bounded by it; the unbounded queue blows far past it.
        let deadline_ms = DEADLINE_US / 1_000.0;
        assert!(
            admission.percentile_ms(0.99) <= deadline_ms + 1e-9,
            "p99 {} ms must stay within the {deadline_ms} ms budget",
            admission.percentile_ms(0.99)
        );
        assert!(
            unbounded.percentile_ms(0.99) > deadline_ms
                && unbounded.percentile_ms(0.99) > 3.0 * admission.percentile_ms(0.99),
            "the unbounded queue must show collapse (p99 {} ms vs {} ms controlled)",
            unbounded.percentile_ms(0.99),
            admission.percentile_ms(0.99)
        );
    }
}
