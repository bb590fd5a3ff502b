//! Criterion benchmarks for the placement-query service layer: batched
//! `answer_batch` (one memoized scratch per `(k, nodes_per_group)` key,
//! amortised over the batch) against the unbatched oracle loop that rebuilds
//! its scratch per query (`orchestrate_par` per query, the path every answer
//! is pinned bit-identical to), plus the raw snapshot-store swap/load costs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use infinitehbd::orchestrator::service::{PlacementQuery, PlacementService, SnapshotStore};
use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const NODES: usize = 2048;

fn store() -> Arc<SnapshotStore> {
    let orch = Arc::new(FatTreeOrchestrator::new(FatTree::new(NODES, 16, 8).unwrap()).unwrap());
    let faults = FaultSet::from_nodes(
        IidFaultModel::new(NODES, 0.05).sample_exact(&mut StdRng::seed_from_u64(21)),
    );
    Arc::new(SnapshotStore::new(orch, faults))
}

/// A placement-only batch over two TP-group geometries, so the batched side
/// amortises exactly two shared scratches per epoch.
fn place_batch(len: usize) -> Vec<PlacementQuery> {
    (0..len)
        .map(|i| {
            let nodes_per_group = [8usize, 16][i % 2];
            PlacementQuery::Place(OrchestrationRequest {
                job_nodes: NODES / 4 / nodes_per_group * nodes_per_group,
                nodes_per_group,
                k: 2,
            })
        })
        .collect()
}

/// Batched service vs the per-query oracle loop, per batch size. Throughput
/// is queries per second, so the amortisation gain reads off directly.
fn bench_placement_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement_service");
    group.sample_size(10);
    let store = store();
    let snapshot = store.load();
    for &len in &[8usize, 32, 128] {
        let queries = place_batch(len);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::new("batched", len), &len, |b, _| {
            let service = PlacementService::new(Arc::clone(&store));
            b.iter(|| black_box(service.answer_batch(&queries, 4).answers.len()))
        });
        group.bench_with_input(BenchmarkId::new("unbatched_oracle", len), &len, |b, _| {
            b.iter(|| {
                let mut answered = 0usize;
                for query in &queries {
                    let PlacementQuery::Place(request) = query else {
                        unreachable!("placement-only batch");
                    };
                    answered += usize::from(
                        snapshot
                            .value
                            .orchestrator()
                            .orchestrate_par(request, snapshot.value.faults(), 1)
                            .is_ok(),
                    );
                }
                black_box(answered)
            })
        });
    }
    group.finish();
}

/// The raw store costs: pinning the current snapshot and publishing a new
/// epoch (full fault-set clone included, as a publisher would pay it).
fn bench_snapshot_store(c: &mut Criterion) {
    let store = store();
    c.bench_function("snapshot_store_load", |b| {
        b.iter(|| black_box(store.load().epoch))
    });
    let faults = store.load().value.faults().clone();
    c.bench_function("snapshot_store_publish", |b| {
        b.iter(|| black_box(store.publish(faults.clone())))
    });
}

criterion_group!(benches, bench_placement_service, bench_snapshot_store);
criterion_main!(benches);
