//! Extension experiment: incremental epoch publishing under a churn-rate
//! sweep.
//!
//! A long-lived [`PlacementService`] is
//! driven across a chain of delta-published epochs on a 4k-node Fat-Tree.
//! Each epoch flips a fixed number of seeded exclusion bits (occupations,
//! faults and releases against the live set) through
//! [`SnapshotStore::publish_delta`](infinitehbd::orchestrator::service::SnapshotStore), then a
//! fixed probe batch forces the service to materialize its shared scratches
//! for the new epoch — *patched* forward from the previous epoch's scratches,
//! re-orchestrating only the sub-line segments whose fault words changed.
//!
//! The table reports, per churn rate, how many segments the patches
//! re-orchestrated versus carried over (from
//! [`PatchTally`](infinitehbd::orchestrator::service::PatchTally)) and prices both publish paths
//! with the same deterministic cost model as the throughput experiment: a
//! cold scratch build costs `build_us(nodes)` and a patched build the
//! re-orchestrated fraction of it. Every cell is bit-stable in the seed and
//! invariant in `--threads` (batch counters are pinned thread-invariant by
//! the `service_oracle` / `service_delta` suites; the patch statistics are a
//! deterministic function of the delta chain).

use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::hbd_types::par::stream_seed;
use infinitehbd::hbd_types::NodeId;
use infinitehbd::orchestrator::service::{
    PlacementQuery, PlacementService, SnapshotDelta, SnapshotStore,
};
use infinitehbd::orchestrator::{FatTreeOrchestrator, OrchestrationRequest};
use infinitehbd::topology::{FatTree, FaultSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Cluster size of the sweep (16 nodes per ToR, 8 ToRs per K-Hop domain).
const NODES: usize = 4096;

/// Exclusion-bit flips per published epoch — the churn-rate axis.
pub const CHURN_RATES: [usize; 5] = [1, 4, 16, 64, 256];

/// Modeled cost of one cold shared-scratch build, in microseconds — the same
/// linear model as the service-throughput experiment.
fn build_us(nodes: usize) -> f64 {
    0.08 * nodes as f64
}

/// The fixed probe batch: one placement and one max-job probe per TP-group
/// geometry, so every epoch materializes exactly two shared scratch keys.
fn probe_batch() -> Vec<PlacementQuery> {
    [8usize, 16]
        .iter()
        .flat_map(|&nodes_per_group| {
            [
                PlacementQuery::Place(OrchestrationRequest {
                    job_nodes: NODES / 8 / nodes_per_group * nodes_per_group,
                    nodes_per_group,
                    k: 2,
                }),
                PlacementQuery::MaxJob {
                    nodes_per_group,
                    k: 2,
                },
            ]
        })
        .collect()
}

/// One seeded epoch delta: `flips` nodes toggled against the live exclusion
/// set — an excluded node is released, a free one is occupied or faulted.
fn next_delta(live: &FaultSet, flips: usize, rng: &mut StdRng) -> SnapshotDelta {
    let mut delta = SnapshotDelta::new();
    let mut toggled = 0usize;
    while toggled < flips {
        let node = NodeId(rng.gen_range(0..NODES));
        if delta.occupied.is_faulty(node)
            || delta.faulted.is_faulty(node)
            || delta.released.is_faulty(node)
        {
            continue; // one flip per node per epoch
        }
        if live.is_faulty(node) {
            delta.released.add(node);
        } else if rng.gen_range(0..4) == 0 {
            delta.faulted.add(node);
        } else {
            delta.occupied.add(node);
        }
        toggled += 1;
    }
    delta
}

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let rates = ctx.select(&CHURN_RATES);
    let epochs = ctx.count(24);
    let orchestrator = Arc::new(
        FatTreeOrchestrator::new(FatTree::new(NODES, 16, 8).expect("valid fat-tree"))
            .expect("orchestrator"),
    );
    let queries = probe_batch();

    let mut rows = Vec::new();
    for (idx, &flips) in rates.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(stream_seed(ctx.seed, idx as u64));
        let mut live = FaultSet::new();
        let store = Arc::new(SnapshotStore::new(
            Arc::clone(&orchestrator),
            FaultSet::new(),
        ));
        let service = PlacementService::new(Arc::clone(&store));
        // Epoch 0 builds the two shared scratches cold; every epoch after
        // that patches them forward.
        service.answer_batch(&queries, ctx.threads);
        for _ in 0..epochs {
            let delta = next_delta(&live, flips, &mut rng);
            live.union_with(&delta.occupied);
            live.union_with(&delta.faulted);
            for node in delta.released.iter() {
                live.remove(node);
            }
            store.publish_delta(&delta);
            service.answer_batch(&queries, ctx.threads);
        }

        let tally = service.patch_tally();
        let segments = (tally.stats.segments_reorchestrated + tally.stats.segments_reused) as f64;
        let reorchestrated = tally.stats.segments_reorchestrated as f64;
        let reuse_pct = if segments > 0.0 {
            100.0 * tally.stats.segments_reused as f64 / segments
        } else {
            0.0
        };
        // Modeled publish-side latency per epoch: both keys' scratch
        // materializations, cold versus the re-orchestrated fraction.
        let builds_per_epoch = tally.patched_builds as f64 / epochs as f64;
        let cold_epoch_us = builds_per_epoch * build_us(NODES);
        let patched_epoch_us = if segments > 0.0 {
            builds_per_epoch * build_us(NODES) * (reorchestrated / segments)
        } else {
            0.0
        };
        let speedup = if patched_epoch_us > 0.0 {
            cold_epoch_us / patched_epoch_us
        } else {
            0.0
        };
        rows.push(vec![
            flips.to_string(),
            epochs.to_string(),
            tally.cold_builds.to_string(),
            tally.patched_builds.to_string(),
            tally.stats.segments_reorchestrated.to_string(),
            tally.stats.segments_reused.to_string(),
            fmt(reuse_pct, 1),
            fmt(patched_epoch_us, 1),
            fmt(cold_epoch_us, 1),
            fmt(speedup, 1),
        ]);
    }

    vec![Table::new(
        format!(
            "Incremental publish vs churn rate on the {NODES}-node snapshot \
             (delta-published epochs, modeled publish latency)"
        ),
        &[
            "flips/epoch",
            "epochs",
            "cold builds",
            "patched builds",
            "segments reorch.",
            "segments reused",
            "reuse %",
            "patched epoch (us)",
            "cold epoch (us)",
            "speedup",
        ],
        rows,
    )]
}
