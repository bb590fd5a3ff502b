//! The failover planner: from a fault pattern to the ring plan that bypasses
//! it.
//!
//! The planner is the purely-functional core of the cluster manager: it owns a
//! [`topology::KHopRing`] description plus the matching [`Wiring`], and maps a
//! [`FaultSet`] to the [`RingPlan`] that realises every healthy segment the
//! topology can still form. Keeping it separate from the stateful
//! [`crate::ClusterManager`] makes it easy to property-test (plans must always
//! agree with `healthy_segments`) and to reuse from the orchestrator.

use crate::plan::{PortDirective, RingPlan};
use crate::wiring::Wiring;
use hbd_types::{NodeId, Result};
use serde::{Deserialize, Serialize};
use topology::{FaultSet, HbdArchitecture, KHopRing};

/// Plans OCSTrx configurations for a fixed K-Hop Ring deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailoverPlanner {
    ring: KHopRing,
    wiring: Wiring,
}

impl FailoverPlanner {
    /// Creates a planner for the given ring.
    pub fn new(ring: KHopRing) -> Result<Self> {
        let wiring = Wiring::new(ring.nodes(), ring.k(), ring.is_closed())?;
        Ok(FailoverPlanner { ring, wiring })
    }

    /// The topology this planner serves.
    pub fn ring(&self) -> &KHopRing {
        &self.ring
    }

    /// The wiring convention this planner assumes.
    pub fn wiring(&self) -> &Wiring {
        &self.wiring
    }

    /// The ring plan realising every healthy segment under `faults`: one
    /// realisation walk over the whole line.
    pub fn plan(&self, faults: &FaultSet) -> Result<RingPlan> {
        RingPlan::realise(&self.wiring, faults, self.ring.spans_boundary(faults))
    }

    /// Brings `plan` from the plan of the previous fault set to the plan of
    /// `faults` in place, re-walking only the window of rows a flip of the
    /// `changed` nodes can reach, and returns exactly `old.diff(&new)`
    /// (node-ascending, then bundle-ascending).
    ///
    /// `plan` must equal `self.plan(previous)` for a fault set `previous`
    /// that agrees with `faults` on every node outside `changed`; a node may
    /// be listed although it flipped back. A plan that mentions no node and
    /// does not fit the wiring (such as [`RingPlan::empty`]) is re-walked
    /// whole. A changed node outside the ring, or a non-empty plan of
    /// another shape, is an [`hbd_types::HbdError::InvalidConfig`].
    pub fn replan(
        &self,
        plan: &mut RingPlan,
        faults: &FaultSet,
        changed: &[NodeId],
    ) -> Result<Vec<PortDirective>> {
        plan.realise_changes(
            &self.wiring,
            faults,
            self.ring.spans_boundary(faults),
            changed,
        )
    }

    /// Whether `faults` breaks the deployment into more than one segment
    /// (i.e. some run of consecutive faults is too long to bypass).
    pub fn is_partitioned(&self, faults: &FaultSet) -> bool {
        self.ring.segment_count(faults) > 1
    }

    /// Number of GPUs the planned rings can dedicate to complete TP groups of
    /// `tp_size` GPUs — by construction identical to
    /// [`KHopRing::usable_gpus`].
    pub fn usable_gpus(&self, faults: &FaultSet, tp_size: usize) -> usize {
        self.ring.usable_gpus(faults, tp_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn planner_mirrors_topology_segments() {
        let ring = KHopRing::new(64, 4, 2).unwrap();
        let planner = FailoverPlanner::new(ring).unwrap();
        let faults = FaultSet::from_nodes([NodeId(3), NodeId(4), NodeId(40)]);
        let segments = planner.ring().healthy_segments(&faults);
        let plan = planner.plan(&faults).unwrap();
        // Every healthy node appears in the plan; every faulty node does not.
        for n in 0..64usize {
            let mentioned = plan.node(NodeId(n)).iter().count() > 0;
            assert_eq!(mentioned, !faults.is_faulty(NodeId(n)), "node {n}");
        }
        // Chain segments contribute two loopbacks each.
        let loopbacks: usize = (0..64)
            .map(|n| {
                plan.node(NodeId(n))
                    .iter()
                    .filter(|(_, a)| {
                        a.is_active()
                            && !matches!(
                                a,
                                crate::BundleAction::ActivatePrimary
                                    | crate::BundleAction::ActivateBackup
                            )
                    })
                    .count()
            })
            .sum();
        assert_eq!(loopbacks, 2 * segments.len());
    }

    #[test]
    fn partition_detection_matches_segment_count() {
        let ring = KHopRing::line(32, 4, 2).unwrap();
        let planner = FailoverPlanner::new(ring).unwrap();
        assert!(!planner.is_partitioned(&FaultSet::from_nodes([NodeId(10)])));
        assert!(planner.is_partitioned(&FaultSet::from_nodes([NodeId(10), NodeId(11)])));
    }

    /// The planner of one random deployment: K from 2 (the wiring's
    /// minimum) to 5, open or closed, `n` down to the wiring's minimum.
    fn planner_for(k: usize, closed: bool, n: usize) -> FailoverPlanner {
        let ring = if closed {
            KHopRing::new(n, 8, k)
        } else {
            KHopRing::line(n, 8, k)
        };
        FailoverPlanner::new(ring.unwrap()).unwrap()
    }

    /// One flip step: the nodes it lists, each toggled in turn (a node
    /// listed twice flips back but stays listed). Kinds: one random node,
    /// node 0, node n − 1, a run of K to K + 2 consecutive nodes, three
    /// random nodes, and both ends plus one random node.
    fn step_nodes((kind, a, b, c): (u8, usize, usize, usize), k: usize, n: usize) -> Vec<NodeId> {
        let nodes = match kind {
            0 => vec![a % n],
            1 => vec![0],
            2 => vec![n - 1],
            3 => (0..k + b % 3).map(|i| (a + i) % n).collect(),
            4 => vec![a % n, b % n, c % n],
            _ => vec![0, n - 1, a % n],
        };
        nodes.into_iter().map(NodeId).collect()
    }

    type Flips = (
        usize,
        bool,
        usize,
        usize,
        Vec<usize>,
        Vec<(u8, usize, usize, usize)>,
    );

    fn flips() -> impl Strategy<Value = Flips> {
        (2usize..=5, 0u8..2)
            .prop_flat_map(|(k, closed)| {
                let closed = closed == 1;
                let smallest = if closed { 2 * k + 1 } else { 1 };
                (Just(k), Just(closed), smallest..=64usize, 0usize..=70)
            })
            .prop_flat_map(|(k, closed, n, density)| {
                let draws = prop::collection::vec(0usize..100, n);
                let steps = prop::collection::vec(
                    (0u8..6, 0usize..1000, 0usize..1000, 0usize..1000),
                    1..12,
                );
                (Just(k), Just(closed), Just(n), Just(density), draws, steps)
            })
    }

    #[test]
    fn replan_of_the_empty_plan_walks_the_whole_ring() {
        let planner = planner_for(3, true, 32);
        let faults = FaultSet::from_nodes([NodeId(4), NodeId(5), NodeId(20)]);
        let fresh = planner.plan(&faults).unwrap();
        let mut plan = RingPlan::empty();
        let commands = planner.replan(&mut plan, &faults, &[]).unwrap();
        assert_eq!(plan, fresh);
        assert_eq!(commands, RingPlan::empty().diff(&fresh));
    }

    #[test]
    fn replan_rejects_foreign_nodes_and_plans() {
        let planner = planner_for(2, true, 16);
        let mut plan = planner.plan(&FaultSet::new()).unwrap();
        let err = planner
            .replan(&mut plan, &FaultSet::new(), &[NodeId(16)])
            .unwrap_err();
        assert!(
            matches!(err, hbd_types::HbdError::InvalidConfig { .. }),
            "{err}"
        );
        let mut other = planner_for(3, true, 16).plan(&FaultSet::new()).unwrap();
        let err = planner
            .replan(&mut other, &FaultSet::new(), &[])
            .unwrap_err();
        assert!(
            matches!(err, hbd_types::HbdError::InvalidConfig { .. }),
            "{err}"
        );
    }

    #[test]
    fn first_fault_on_a_healthy_ring_moves_both_ends() {
        // A fault-free closed ring is one cycle; the first fault turns it into
        // a chain from node 0 to node n − 1, so the rows at both deployment
        // ends change although the fault sits in the middle.
        let planner = planner_for(3, true, 64);
        let mut plan = planner.plan(&FaultSet::new()).unwrap();
        let faults = FaultSet::from_nodes([NodeId(30)]);
        let commands = planner.replan(&mut plan, &faults, &[NodeId(30)]).unwrap();
        assert_eq!(plan, planner.plan(&faults).unwrap());
        let nodes: Vec<usize> = commands.iter().map(|c| c.node.index()).collect();
        assert!(nodes.contains(&0) && nodes.contains(&63), "{nodes:?}");
        assert!(
            nodes
                .iter()
                .all(|&n| n <= 1 || (27..=33).contains(&n) || n >= 62),
            "{nodes:?}"
        );
    }

    proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The whole-line walk realises exactly the segment-driven oracles.
        #[test]
        fn plan_matches_the_segment_oracles(
            (k, closed, n, density, draws, _) in flips(),
        ) {
            let planner = planner_for(k, closed, n);
            let faults = FaultSet::from_nodes(
                draws.iter().enumerate().filter(|(_, &d)| d < density).map(|(i, _)| NodeId(i)),
            );
            let plan = planner.plan(&faults).unwrap();
            let segments = planner.ring().healthy_segments(&faults);
            let oracle = RingPlan::for_segments(planner.wiring(), &segments).unwrap();
            prop_assert_eq!(plan.directives(), oracle.directives());
        }

        /// After every multi-node flip, the windowed re-plan equals a fresh
        /// plan, and its directives equal the full diff element for element.
        #[test]
        fn replan_matches_plan_and_diff(
            (k, closed, n, density, draws, steps) in flips(),
        ) {
            let planner = planner_for(k, closed, n);
            let mut faults = FaultSet::from_nodes(
                draws.iter().enumerate().filter(|(_, &d)| d < density).map(|(i, _)| NodeId(i)),
            );
            let mut plan = planner.plan(&faults).unwrap();
            for step in steps {
                let changed = step_nodes(step, k, n);
                for &node in &changed {
                    if !faults.remove(node) {
                        faults.add(node);
                    }
                }
                let old = plan.clone();
                let commands = planner.replan(&mut plan, &faults, &changed).unwrap();
                let fresh = planner.plan(&faults).unwrap();
                prop_assert_eq!(plan.directives(), fresh.directives());
                prop_assert_eq!(commands, old.diff(&fresh));
            }
        }

        /// For an even K (direction-pure bundles) the planner must succeed for
        /// *any* fault pattern and its plans must activate a consistent number
        /// of external links: every adjacent pair inside a segment consumes
        /// exactly two external activations (one per end).
        #[test]
        fn plans_realise_segments_for_random_faults(
            faults in proptest::collection::btree_set(0usize..96, 0..24),
            k in prop_oneof![Just(2usize), Just(4usize)],
        ) {
            let ring = KHopRing::new(96, 4, k).unwrap();
            let planner = FailoverPlanner::new(ring).unwrap();
            let fault_set = FaultSet::from_nodes(faults.iter().map(|&n| NodeId(n)));
            let segments = planner.ring().healthy_segments(&fault_set);
            let plan = planner.plan(&fault_set).unwrap();

            let healthy = 96 - fault_set.len();
            let full_cycle = segments.len() == 1 && segments[0].len() == 96;
            let expected_edges: usize = if full_cycle {
                96
            } else {
                segments.iter().map(|s| s.len().saturating_sub(1)).sum()
            };
            let external_activations: usize = (0..96)
                .map(|n| {
                    plan.node(NodeId(n))
                        .iter()
                        .filter(|(_, a)| matches!(
                            a,
                            crate::BundleAction::ActivatePrimary | crate::BundleAction::ActivateBackup
                        ))
                        .count()
                })
                .sum();
            prop_assert_eq!(external_activations, 2 * expected_edges);

            // Planned usable GPUs agree with the topology layer.
            prop_assert_eq!(
                planner.usable_gpus(&fault_set, 16) / 4 <= healthy,
                true
            );
        }
    }
}
