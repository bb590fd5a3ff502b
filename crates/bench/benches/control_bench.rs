//! Criterion benchmarks for the control plane: failover planning and
//! end-to-end fault handling must stay cheap enough to run inside the 60–80 µs
//! hardware switching window's software budget at datacenter scale.

use bench::experiments::sim_seeds;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use infinitehbd::control::{
    sim, ClusterManager, ControlLatencies, FailoverPlanner, MessageFaults, SimConfig,
};
use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_failover_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("failover_plan");
    group.sample_size(20);
    for nodes in [256usize, 512, 2048, 8192] {
        let ring = KHopRing::new(nodes, 4, 3).unwrap();
        let planner = FailoverPlanner::new(ring).unwrap();
        let faults = FaultSet::from_nodes(
            IidFaultModel::new(nodes, 0.05).sample_exact(&mut StdRng::seed_from_u64(1)),
        );
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| black_box(planner.plan(&faults).unwrap().len()))
        });
    }
    group.finish();
}

fn bench_plan_diff(c: &mut Criterion) {
    let ring = KHopRing::new(2048, 4, 3).unwrap();
    let planner = FailoverPlanner::new(ring).unwrap();
    let before = planner.plan(&FaultSet::new()).unwrap();
    let after = planner
        .plan(&FaultSet::from_nodes([
            NodeId(100),
            NodeId(1000),
            NodeId(1500),
        ]))
        .unwrap();
    c.bench_function("plan_diff_2048_nodes", |b| {
        b.iter(|| black_box(before.diff(&after).len()))
    });
}

/// One whole `control::sim` schedule on the `sim_seeds` deployment, at the
/// sweep's 48 nodes and at the `control_sim` workload's 256, on the
/// adversarial channel.
fn bench_control_sim_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("control_sim_run");
    group.sample_size(10);
    for nodes in [48usize, 256] {
        let config = SimConfig {
            nodes,
            message_faults: MessageFaults::adversarial(),
            ..sim_seeds::base_config()
        };
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| black_box(sim::run(&config, 7).unwrap().sends))
        });
    }
    group.finish();
}

fn bench_fault_injection(c: &mut Criterion) {
    c.bench_function("cluster_manager_fault_repair_cycle_720_nodes", |b| {
        let ring = KHopRing::new(720, 4, 2).unwrap();
        let mut manager = ClusterManager::new(ring, ControlLatencies::hardware_only()).unwrap();
        let mut t = 0.0f64;
        b.iter(|| {
            t += 1.0;
            manager.inject_fault(NodeId(360), Seconds(t)).unwrap();
            t += 1.0;
            manager.repair_node(NodeId(360), Seconds(t)).unwrap();
            black_box(manager.usable_gpus(32))
        })
    });
}

criterion_group!(
    benches,
    bench_failover_planning,
    bench_plan_diff,
    bench_control_sim_run,
    bench_fault_injection
);
criterion_main!(benches);
