//! `Orchestration-DCN-Free` — Algorithm 2 of the paper.
//!
//! Without DCN considerations, placing TP groups on InfiniteHBD is simple:
//!
//! 1. remove the faulty nodes from the K-Hop graph,
//! 2. find the connected components of the healthy subgraph,
//! 3. sort each component in HBD (deployment) order, and
//! 4. cut every component into consecutive runs of `m = TP / R` nodes.
//!
//! Because each component is a contiguous stretch of the K-Hop line (faults of
//! fewer than `K` consecutive nodes do not disconnect it), every emitted run is
//! ring-formable via the intra-node loopback of its two end bundles.
//!
//! The paper phrases step 2 as a DFS over the healthy subgraph, but on a K-Hop
//! line the components are simply the maximal healthy runs not severed by `K`
//! or more consecutive faults — so the implementation is a single linear scan
//! ([`topology::runscan`]) that cuts groups as it walks, with no graph, no
//! DFS and no per-probe allocations. The original graph + DFS formulation is
//! kept below as a `#[cfg(test)]` oracle and the two are pinned to each other
//! bit-for-bit (same groups, same nodes, same order) by proptests.

use crate::scheme::{PlacementScheme, TpGroup};
use hbd_types::NodeId;
use topology::runscan::{scan_khop_runs, RunSink};
use topology::FaultSet;

/// A [`RunSink`] that cuts the healthy runs into TP groups of `m` nodes as
/// the scan progresses: complete groups are emitted greedily in scan order;
/// the incomplete remainder of a run is discarded when the run ends.
pub(crate) struct GroupCutter {
    nodes_per_group: usize,
    current: Vec<NodeId>,
    /// The completed groups, in scan order.
    pub(crate) scheme: PlacementScheme,
}

impl GroupCutter {
    pub(crate) fn new(nodes_per_group: usize) -> Self {
        assert!(nodes_per_group > 0, "TP groups need at least one node");
        GroupCutter {
            nodes_per_group,
            current: Vec::with_capacity(nodes_per_group),
            scheme: PlacementScheme::new(),
        }
    }
}

impl RunSink<NodeId> for GroupCutter {
    fn healthy(&mut self, node: NodeId) {
        self.current.push(node);
        if self.current.len() == self.nodes_per_group {
            let group =
                std::mem::replace(&mut self.current, Vec::with_capacity(self.nodes_per_group));
            self.scheme.push(TpGroup::new(group));
        }
    }

    fn cut(&mut self) {
        // The run ended with an incomplete group: those nodes are wasted.
        self.current.clear();
    }
}

/// A [`RunSink`] that mirrors [`GroupCutter`] but only counts: the nodes of
/// every complete group, with no group materialized — what a constraint-search
/// probe needs to decide feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GroupCounter {
    nodes_per_group: usize,
    current: usize,
    /// Nodes in the completed groups so far.
    pub(crate) placed: usize,
}

impl GroupCounter {
    pub(crate) fn new(nodes_per_group: usize) -> Self {
        assert!(nodes_per_group > 0, "TP groups need at least one node");
        GroupCounter {
            nodes_per_group,
            current: 0,
            placed: 0,
        }
    }

    /// `healthy` consecutive healthy nodes at once.
    fn extend_run(&mut self, healthy: usize) {
        let open = self.current + healthy;
        self.placed += open / self.nodes_per_group * self.nodes_per_group;
        self.current = open % self.nodes_per_group;
    }
}

impl RunSink<NodeId> for GroupCounter {
    fn healthy(&mut self, _node: NodeId) {
        self.extend_run(1);
    }

    fn cut(&mut self) {
        self.current = 0;
    }
}

/// One stretch of the K-hop line as a [`GroupCounter`] scan sees it when the
/// state the scan enters it with — the faulty gap before it and the open
/// partial group — is not known yet. Everything up to the first cut inside
/// the stretch depends on that state; everything after it does not.
///
/// The shape is closed under [`then`](Self::then), so the summary of a long
/// stretch composes from the summaries of its pieces (a sub-line's suffix
/// from its segments), and [`apply`](Self::apply) continues a scan over the
/// whole stretch in O(1). Fields not meaningful for a stretch (everything
/// after `healthy` when it has no healthy node, the after-cut state when no
/// cut follows) are zero, so equal stretches have equal summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunSummary {
    k: usize,
    /// Faulty nodes before the first healthy one (all of them when the
    /// stretch has no healthy node).
    lead: usize,
    /// Whether the stretch has any healthy node.
    healthy: bool,
    /// Healthy nodes of the first run: from the first healthy node to the
    /// first cut inside the stretch, or to its end.
    first: usize,
    /// Whether a cut follows the first run inside the stretch.
    cut: bool,
    /// The counter from that cut to the end of the stretch: the nodes it
    /// placed and the partial group left open.
    after: GroupCounter,
    /// Faulty nodes after the last healthy one (all of them when the stretch
    /// has no healthy node).
    trail: usize,
}

impl RunSummary {
    /// The summary of an empty stretch: the identity of [`then`](Self::then).
    pub(crate) fn empty(k: usize, nodes_per_group: usize) -> Self {
        assert!(k > 0, "K must be at least 1");
        RunSummary {
            k,
            lead: 0,
            healthy: false,
            first: 0,
            cut: false,
            after: GroupCounter::new(nodes_per_group),
            trail: 0,
        }
    }

    /// Summarizes `nodes`, a stretch of the line in HBD order, by one scan.
    pub(crate) fn of(
        nodes: impl IntoIterator<Item = NodeId>,
        k: usize,
        nodes_per_group: usize,
        faulty: impl Fn(NodeId) -> bool,
    ) -> Self {
        let mut summary = Self::empty(k, nodes_per_group);
        for node in nodes {
            if faulty(node) {
                summary.trail += 1;
                if !summary.healthy {
                    summary.lead += 1;
                } else if summary.trail == k {
                    // The first cut ends the first run; later ones drop the
                    // open partial group.
                    summary.cut = true;
                    summary.after.cut();
                }
            } else {
                summary.trail = 0;
                summary.healthy = true;
                if summary.cut {
                    summary.after.healthy(node);
                } else {
                    summary.first += 1;
                }
            }
        }
        summary
    }

    /// The summary of this stretch followed by `next`.
    pub(crate) fn then(&self, next: &RunSummary) -> RunSummary {
        debug_assert_eq!(
            (self.k, self.after.nodes_per_group),
            (next.k, next.after.nodes_per_group)
        );
        if !self.healthy {
            // All faulty: `next` just starts later.
            let trail = if next.healthy {
                next.trail
            } else {
                self.trail + next.trail
            };
            return RunSummary {
                lead: self.lead + next.lead,
                trail,
                ..*next
            };
        }
        if self.cut || self.trail + next.lead >= self.k {
            // The first run is over by the end of `next`'s leading faults,
            // and the after-cut state is known: continue it through `next`.
            let (mut gap, mut after) = (self.trail, self.after);
            next.apply(&mut gap, &mut after);
            return RunSummary {
                cut: true,
                after,
                trail: gap,
                ..*self
            };
        }
        if !next.healthy {
            return RunSummary {
                trail: self.trail + next.trail,
                ..*self
            };
        }
        // The junction is bypassed: `next`'s first run extends this one.
        RunSummary {
            first: self.first + next.first,
            cut: next.cut,
            after: next.after,
            trail: next.trail,
            ..*self
        }
    }

    /// Continues a [`GroupCounter`] scan over the stretch: `gap` is the
    /// scan's faulty gap before it (updated to the gap after it), `counter`
    /// the counter's state. Equivalent to scanning the stretch's nodes, in
    /// O(1).
    pub(crate) fn apply(&self, gap: &mut usize, counter: &mut GroupCounter) {
        debug_assert_eq!(self.after.nodes_per_group, counter.nodes_per_group);
        if *gap < self.k && *gap + self.lead >= self.k {
            counter.cut();
        }
        if !self.healthy {
            *gap += self.lead;
            return;
        }
        counter.extend_run(self.first);
        if self.cut {
            counter.placed += self.after.placed;
            counter.current = self.after.current;
        }
        *gap = self.trail;
    }
}

/// Runs Algorithm 2 over an explicit node ordering.
///
/// * `order` — the nodes in HBD (deployment) order; adjacent elements are HBD
///   neighbours.
/// * `k` — the OCSTrx bundle count (hop reach) of the topology.
/// * `faults` — the faulty node set.
/// * `nodes_per_group` — `m`, the nodes per TP group.
///
/// Returns the placement scheme that maximises GPU utilisation (every healthy
/// component is packed greedily).
pub fn orchestrate_dcn_free(
    order: &[NodeId],
    k: usize,
    faults: &FaultSet,
    nodes_per_group: usize,
) -> PlacementScheme {
    let mut cutter = GroupCutter::new(nodes_per_group);
    scan_khop_runs(
        order.iter().copied(),
        k,
        |node| faults.is_faulty(*node),
        &mut cutter,
    );
    cutter.scheme
}

/// The original graph + DFS formulation of Algorithm 2, kept as the test
/// oracle for the linear-scan fast path (see the module docs and the
/// oracle-vs-fast-solver pattern in `ROADMAP.md`).
#[cfg(test)]
pub(crate) fn orchestrate_dcn_free_graph_oracle(
    order: &[NodeId],
    k: usize,
    faults: &FaultSet,
    nodes_per_group: usize,
) -> PlacementScheme {
    use topology::NodeGraph;

    assert!(nodes_per_group > 0, "TP groups need at least one node");
    assert!(k > 0, "K must be at least 1");
    if order.is_empty() {
        return PlacementScheme::new();
    }

    // Build the K-hop graph over *positions* in the given order, then map back
    // to node ids. Using positions keeps the graph dense even when `order` is
    // a subset of the cluster (e.g. one sub-line of the fat-tree deployment).
    let mut graph = NodeGraph::new(order.len());
    for i in 0..order.len() {
        for hop in 1..=k {
            if i + hop < order.len() {
                graph.add_edge(NodeId(i), NodeId(i + hop));
            }
        }
    }

    // Healthy subgraph + connected components (the DFS of Algorithm 2).
    let healthy_positions: Vec<NodeId> = order
        .iter()
        .enumerate()
        .filter(|(_, node)| !faults.is_faulty(**node))
        .map(|(i, _)| NodeId(i))
        .collect();
    let healthy_graph = graph
        .induced_subgraph(|pos| pos.index() < order.len() && !faults.is_faulty(order[pos.index()]));
    let components = healthy_graph.connected_components(&healthy_positions);

    // Cut each component (already sorted in HBD order) into groups of m.
    let mut scheme = PlacementScheme::new();
    for component in components {
        let nodes: Vec<NodeId> = component.iter().map(|pos| order[pos.index()]).collect();
        for chunk in nodes.chunks(nodes_per_group) {
            if chunk.len() == nodes_per_group {
                scheme.push(TpGroup::new(chunk.to_vec()));
            }
        }
    }
    scheme
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use topology::runscan::scan_khop_runs_from;

    fn order(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn faults(nodes: &[usize]) -> FaultSet {
        FaultSet::from_nodes(nodes.iter().map(|&n| NodeId(n)))
    }

    #[test]
    fn healthy_cluster_is_packed_completely() {
        let scheme = orchestrate_dcn_free(&order(32), 2, &FaultSet::new(), 8);
        assert_eq!(scheme.len(), 4);
        assert_eq!(scheme.nodes_placed(), 32);
        assert!(scheme.validate(8, &BTreeSet::new()).is_ok());
        // Groups follow deployment order.
        assert_eq!(scheme.groups[0].nodes[0], NodeId(0));
        assert_eq!(scheme.groups[3].nodes[7], NodeId(31));
    }

    #[test]
    fn single_fault_is_bypassed_and_costs_at_most_one_group() {
        let scheme = orchestrate_dcn_free(&order(33), 2, &faults(&[5]), 8);
        // 32 healthy nodes remain in one component -> 4 groups.
        assert_eq!(scheme.len(), 4);
        let placed: BTreeSet<NodeId> = scheme
            .groups
            .iter()
            .flat_map(|g| g.nodes.iter().copied())
            .collect();
        assert!(!placed.contains(&NodeId(5)));
    }

    #[test]
    fn unbypassable_fault_run_splits_components() {
        // K = 2, two consecutive faults split the line; each side packs its own
        // groups and the remainders are wasted independently.
        let scheme = orchestrate_dcn_free(&order(20), 2, &faults(&[9, 10]), 4);
        // Left component: nodes 0..8 (9 nodes) -> 2 groups; right: 11..19 (9) -> 2.
        assert_eq!(scheme.len(), 4);
        // With K = 3 the same faults are bypassed: 18 healthy nodes -> 4 groups
        // in one component plus the remainder.
        let scheme3 = orchestrate_dcn_free(&order(20), 3, &faults(&[9, 10]), 4);
        assert_eq!(scheme3.len(), 4);
        assert_eq!(scheme3.nodes_placed(), 16);
    }

    #[test]
    fn groups_never_contain_faulty_nodes() {
        let f = faults(&[1, 7, 13]);
        let scheme = orchestrate_dcn_free(&order(24), 3, &f, 4);
        let faulty: BTreeSet<NodeId> = f.iter().collect();
        assert!(scheme.validate(4, &faulty).is_ok());
    }

    #[test]
    fn empty_inputs_produce_empty_schemes() {
        assert!(orchestrate_dcn_free(&[], 2, &FaultSet::new(), 4).is_empty());
        let all_faulty = faults(&[0, 1, 2, 3]);
        assert!(orchestrate_dcn_free(&order(4), 2, &all_faulty, 2).is_empty());
    }

    #[test]
    fn works_on_non_contiguous_node_orderings() {
        // A sub-line of the deployment: nodes 0, 16, 32, 48 are HBD neighbours
        // even though their ids are far apart.
        let subline: Vec<NodeId> = (0..8).map(|i| NodeId(i * 16)).collect();
        let scheme = orchestrate_dcn_free(&subline, 2, &faults(&[32]), 2);
        // 7 healthy nodes in one component -> 3 groups of 2.
        assert_eq!(scheme.len(), 3);
        for group in &scheme.groups {
            for node in &group.nodes {
                assert_eq!(node.index() % 16, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_group_size_is_rejected() {
        let _ = orchestrate_dcn_free(&order(4), 2, &FaultSet::new(), 0);
    }

    /// Random Algorithm-2 instances: an arbitrary (non-monotonic) node order,
    /// a random fault set drawn from the same id space, and random `K` / `m`.
    fn arbitrary_instance() -> impl Strategy<Value = (Vec<NodeId>, FaultSet, usize, usize)> {
        (
            proptest::collection::btree_set(0usize..200, 0..48),
            proptest::collection::btree_set(0usize..200, 0..32),
            1usize..5,
            1usize..6,
        )
            .prop_map(|(ids, faulty, k, m)| {
                // A sorted id set would only exercise ascending orders; flip
                // the tail half so the scan sees a genuinely positional (not
                // id-ordered) HBD line, like a fat-tree sub-line does.
                let mut order: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
                let half = order.len() / 2;
                order[half..].reverse();
                let faults = FaultSet::from_nodes(faulty.into_iter().map(NodeId));
                (order, faults, k, m)
            })
    }

    /// A run summary of positions `0..line.len()`, faulty where `line` says.
    fn summary(line: &[bool], k: usize, m: usize) -> RunSummary {
        RunSummary::of((0..line.len()).map(NodeId), k, m, |n| line[n.index()])
    }

    /// A fault pattern from raw draws: a position is faulty when its draw is
    /// below `density` (0 = healthy line, 4 = all faulty), so long fault runs
    /// around the `K` threshold are common.
    fn pattern(draws: &[usize], density: usize) -> Vec<bool> {
        draws.iter().map(|&d| d < density).collect()
    }

    #[test]
    fn run_summary_of_an_empty_stretch_is_the_identity() {
        let x = summary(&[false, true, true, false, true], 2, 3);
        let empty = RunSummary::empty(2, 3);
        assert_eq!(empty.then(&x), x);
        assert_eq!(x.then(&empty), x);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Summaries compose: the summary of `a ++ b` is `a`'s followed by
        /// `b`'s, field for field. Short pieces keep the junction — a first
        /// run not yet cut, faults straddling the boundary — common.
        #[test]
        fn run_summaries_compose(
            a in proptest::collection::vec(0usize..4, 0..12),
            b in proptest::collection::vec(0usize..4, 0..12),
            density in 0usize..=4,
            k in 1usize..=4,
            m_pick in 0usize..4,
        ) {
            let m = [1usize, 3, 8, 16][m_pick];
            let (a, b) = (pattern(&a, density), pattern(&b, density));
            let ab: Vec<bool> = a.iter().chain(&b).copied().collect();
            prop_assert_eq!(summary(&ab, k, m), summary(&a, k, m).then(&summary(&b, k, m)));
        }

        /// Applying a summary is scanning its stretch: from any entry state
        /// (gap < 2K, open partial group < m), `apply` leaves the gap and the
        /// counter exactly where a `GroupCounter` scan continued from that
        /// state leaves them.
        #[test]
        fn applied_summary_matches_a_continued_scan(
            draws in proptest::collection::vec(0usize..4, 0..24),
            density in 0usize..=4,
            k in 1usize..=4,
            m_pick in 0usize..4,
            gap_pick in 0usize..8,
            current_pick in 0usize..16,
            placed in 0usize..64,
        ) {
            let m = [1usize, 3, 8, 16][m_pick];
            let line = pattern(&draws, density);
            let entry = GroupCounter {
                nodes_per_group: m,
                current: current_pick % m,
                placed,
            };
            let gap = gap_pick % (2 * k);

            let mut scanned = entry;
            let scanned_gap = scan_khop_runs_from(
                gap,
                (0..line.len()).map(NodeId),
                k,
                |n| line[n.index()],
                &mut scanned,
            );
            let mut applied = entry;
            let mut applied_gap = gap;
            summary(&line, k, m).apply(&mut applied_gap, &mut applied);
            prop_assert_eq!(applied_gap, scanned_gap);
            prop_assert_eq!(applied.current, scanned.current);
            prop_assert_eq!(applied.placed, scanned.placed);
        }
    }

    proptest! {
        /// The linear-scan kernel is pinned bit-for-bit to the graph + DFS
        /// oracle: same groups, same `NodeId`s, same order (`PlacementScheme`
        /// equality is exact — no floats involved).
        #[test]
        fn linear_scan_matches_graph_oracle(
            (order, faults, k, m) in arbitrary_instance()
        ) {
            let fast = orchestrate_dcn_free(&order, k, &faults, m);
            let oracle = orchestrate_dcn_free_graph_oracle(&order, k, &faults, m);
            prop_assert_eq!(fast, oracle);
        }

        /// Dense fault runs around the `K` threshold are the interesting
        /// regime (a run of `K − 1` is bypassed, `K` severs): force them by
        /// making every `stride`-th node faulty in blocks.
        #[test]
        fn linear_scan_matches_oracle_on_periodic_fault_runs(
            n in 1usize..64,
            run in 1usize..5,
            stride in 1usize..9,
            k in 1usize..5,
            m in 1usize..6,
        ) {
            let period = run + stride;
            let faults = FaultSet::from_nodes(
                (0..n).filter(|i| i % period < run).map(NodeId),
            );
            let order: Vec<NodeId> = (0..n).map(NodeId).collect();
            let fast = orchestrate_dcn_free(&order, k, &faults, m);
            let oracle = orchestrate_dcn_free_graph_oracle(&order, k, &faults, m);
            prop_assert_eq!(fast, oracle);
        }
    }
}
