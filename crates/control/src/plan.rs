//! Ring plans — the desired per-node OCSTrx configuration for a given fault
//! pattern.
//!
//! A [`RingPlan`] assigns every fabric bundle of every healthy node one of four
//! actions (primary, backup, loopback, idle). The plan realises the healthy
//! segments reported by [`topology::KHopRing::healthy_segments`]: consecutive
//! healthy nodes of a segment are joined by activating the port pair that spans
//! the gap between them, the two segment ends close the GPU-level ring with a
//! cross-lane loopback, and everything else goes idle.
//!
//! **Layout.** A plan is dense: one `Option<BundleAction>` slot per
//! (node, bundle), stored node-major in a flat `nodes × K` vector. A node is
//! *mentioned* by the plan iff its slots are set; a finished plan sets either
//! all `K` slots of a node or none. Building, diffing and checking a plan are
//! therefore linear walks over one slice, with no per-node allocation.
//!
//! **Directive order.** [`RingPlan::iter`], [`RingPlan::directives`] and
//! [`RingPlan::diff`] yield directives node-ascending, then bundle-ascending.
//! This order is a contract, not an accident of the layout: the cluster
//! manager hands out command ids in directive order, and the control-plane
//! simulator ([`crate::sim`]) draws its message-fault randomness in command-id
//! order, so reordering the directives would change every simulated timeline.

use crate::wiring::{FabricPort, Wiring};
use hbd_types::{HbdError, NodeId, Result};
use ocstrx::PathId;
use serde::{de, value::Value, Deserialize, Serialize};
use topology::RingSegment;

/// What a fabric bundle should be doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BundleAction {
    /// Carry ring traffic on the primary external path (distance `+d`).
    ActivatePrimary,
    /// Carry ring traffic on the backup external path (distance `−d`),
    /// typically to bypass a faulty neighbour.
    ActivateBackup,
    /// Close the intra-node cross-lane loopback (segment endpoint).
    Loopback,
    /// Carry no traffic.
    Idle,
}

impl BundleAction {
    /// Whether the action makes the bundle part of the active ring.
    pub fn is_active(self) -> bool {
        !matches!(self, BundleAction::Idle)
    }
}

/// A single (node, bundle) directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortDirective {
    /// The node whose fabric manager must execute the directive.
    pub node: NodeId,
    /// The fabric bundle index on that node.
    pub bundle: usize,
    /// The action to apply.
    pub action: BundleAction,
}

/// All directives for one node, indexed by bundle.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NodeDirective {
    actions: Vec<Option<BundleAction>>,
}

impl NodeDirective {
    /// The action assigned to `bundle` (idle if the plan never mentions it).
    pub fn action(&self, bundle: usize) -> BundleAction {
        self.actions
            .get(bundle)
            .copied()
            .flatten()
            .unwrap_or(BundleAction::Idle)
    }

    /// Iterates over (bundle, action) pairs in bundle order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, BundleAction)> + '_ {
        self.actions
            .iter()
            .enumerate()
            .filter_map(|(b, a)| a.map(|a| (b, a)))
    }

    /// Number of bundles that carry ring traffic under this directive.
    pub fn active_bundles(&self) -> usize {
        self.iter().filter(|(_, a)| a.is_active()).count()
    }
}

/// Two directives are equal when they assign the same actions to the same
/// bundles; unassigned slots carry no identity.
impl PartialEq for NodeDirective {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for NodeDirective {}

/// The desired configuration of the whole fabric: one slot per
/// (node, bundle), node-major (see the module docs).
#[derive(Debug, Clone, Default, Serialize)]
pub struct RingPlan {
    /// Fabric bundles per node (the slot stride).
    k: usize,
    /// `slots[node * k + bundle]`; `None` where the plan says nothing.
    slots: Vec<Option<BundleAction>>,
}

impl RingPlan {
    /// An empty plan (every bundle idle).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds the plan that realises the given healthy segments on the given
    /// wiring. Faulty nodes receive no directives.
    ///
    /// Each segment becomes one GPU-level ring: its interior edges activate the
    /// matching external ports on both ends, and the two boundary nodes close
    /// the ring via loopback on their outward-facing bundle. A segment that
    /// covers the entire closed deployment is realised as a cycle (no loopback
    /// needed). Single-node segments simply loop back on bundle 0.
    ///
    /// A segment naming a node outside the wiring is an
    /// [`HbdError::invalid_config`].
    pub fn for_segments(wiring: &Wiring, segments: &[RingSegment]) -> Result<Self> {
        let k = wiring.k();
        let mut plan = RingPlan {
            k,
            slots: vec![None; wiring.nodes() * k],
        };
        for segment in segments {
            plan.add_segment(wiring, segment)?;
        }
        // Every fabric bundle not claimed by a segment goes idle explicitly, so
        // diffs against older plans release stale activations.
        for node in plan.slots.chunks_mut(k.max(1)) {
            if node.iter().any(Option::is_some) {
                for slot in node {
                    slot.get_or_insert(BundleAction::Idle);
                }
            }
        }
        Ok(plan)
    }

    fn add_segment(&mut self, wiring: &Wiring, segment: &RingSegment) -> Result<()> {
        let nodes = &segment.nodes;
        if let Some(node) = nodes.iter().find(|n| n.index() >= wiring.nodes()) {
            return Err(HbdError::invalid_config(format!(
                "segment node {node} is outside the {}-node wiring",
                wiring.nodes()
            )));
        }
        if nodes.is_empty() {
            return Ok(());
        }
        let full_cycle = wiring.is_closed() && nodes.len() == wiring.nodes();
        if full_cycle {
            // A fully-healthy closed deployment runs as one physical cycle: no
            // loopback endpoints are needed.
            for i in 0..nodes.len() {
                self.connect(wiring, nodes[i], nodes[(i + 1) % nodes.len()])?;
            }
            return Ok(());
        }
        // A chain node in the interior needs one backward and one forward link
        // active at the same time. For odd K the wiring shares one bundle
        // between the +K and −K fibers, so a node squeezed between K−1
        // consecutive faults on *both* sides cannot hold both links: the chain
        // is cut at that node (it becomes a ring endpoint instead), trading a
        // little capacity for a realisable plan.
        //
        // One pass over the segment's edges: `back` is the port of `nodes[i]`
        // towards `nodes[i - 1]` when that edge is active, i.e. when
        // `nodes[i]` is interior to the current chain `nodes[start..]`.
        let mut start = 0usize;
        let mut back: Option<FabricPort> = None;
        for i in 0..nodes.len() - 1 {
            let forward = wiring.port_towards(nodes[i], nodes[i + 1]);
            match (back, forward) {
                (Some(b), Some(f)) if b.bundle == f.bundle => {
                    // Cut: `nodes[start..=i]` is a finished chain and the
                    // edge to `nodes[i + 1]` stays dark.
                    self.close_chain(&nodes[start..=i])?;
                    start = i + 1;
                    back = None;
                }
                _ => back = Some(self.link(wiring, nodes[i], nodes[i + 1], forward)?),
            }
        }
        self.close_chain(&nodes[start..])
    }

    /// Closes the GPU-level ring of a chain whose edges are active: the two
    /// boundary nodes switch their bundle facing *away* from the chain to
    /// loopback. A single-node chain loops back on its first free bundle.
    fn close_chain(&mut self, chain: &[NodeId]) -> Result<()> {
        let ends: &[NodeId] = match chain {
            [single] => &[*single],
            _ => &[chain[0], chain[chain.len() - 1]],
        };
        for &end in ends {
            let bundle = self.free_bundle(end);
            self.set(end, bundle, BundleAction::Loopback)?;
        }
        Ok(())
    }

    /// Activates the port pair joining two adjacent chain members.
    fn connect(&mut self, wiring: &Wiring, a: NodeId, b: NodeId) -> Result<()> {
        self.link(wiring, a, b, wiring.port_towards(a, b)).map(drop)
    }

    /// [`RingPlan::connect`] given `a`'s port towards `b` (`None` if `b` is
    /// out of reach); returns `b`'s port towards `a`.
    fn link(
        &mut self,
        wiring: &Wiring,
        a: NodeId,
        b: NodeId,
        port_a: Option<FabricPort>,
    ) -> Result<FabricPort> {
        let port_a = port_a.ok_or_else(|| {
            HbdError::infeasible(format!(
                "segment edge {a} -> {b} exceeds the {}-hop reach of the wiring",
                wiring.k()
            ))
        })?;
        let port_b = wiring
            .port_towards(b, a)
            .expect("reverse port exists whenever the forward port does");
        self.set(a, port_a.bundle, action_for(port_a))?;
        self.set(b, port_b.bundle, action_for(port_b))?;
        Ok(port_b)
    }

    /// The slots of one node; empty if the node lies outside the plan.
    fn node_slots(&self, node: NodeId) -> &[Option<BundleAction>] {
        let start = node.index().saturating_mul(self.k);
        self.slots
            .get(start..start.saturating_add(self.k))
            .unwrap_or(&[])
    }

    /// The lowest-indexed bundle of `node` not yet claimed by this plan.
    fn free_bundle(&self, node: NodeId) -> usize {
        self.node_slots(node)
            .iter()
            .position(Option::is_none)
            .unwrap_or(0)
    }

    fn set(&mut self, node: NodeId, bundle: usize, action: BundleAction) -> Result<()> {
        // Only a wiring deserialised with no bundles leaves `bundle` out of
        // range here: segment nodes are checked against the wiring first.
        let slot = match self.slots.get_mut(node.index() * self.k + bundle) {
            Some(slot) if bundle < self.k => slot,
            _ => {
                return Err(HbdError::invalid_config(format!(
                    "{node} has no fabric bundle {bundle}"
                )))
            }
        };
        if let Some(existing) = *slot {
            if existing != action && existing.is_active() && action.is_active() {
                return Err(HbdError::invalid_operation(format!(
                    "bundle {bundle} of {node} assigned two conflicting active roles"
                )));
            }
        }
        *slot = Some(action);
        Ok(())
    }

    /// The action the plan assigns to one (node, bundle), if it mentions it.
    fn get(&self, node: NodeId, bundle: usize) -> Option<BundleAction> {
        self.node_slots(node).get(bundle).copied().flatten()
    }

    /// Directive for one node (empty directive if the node is unused).
    pub fn node(&self, node: NodeId) -> NodeDirective {
        NodeDirective {
            actions: self.node_slots(node).to_vec(),
        }
    }

    /// The per-node slot rows, paired with their node id.
    fn rows(&self) -> impl Iterator<Item = (NodeId, &[Option<BundleAction>])> + '_ {
        self.slots
            .chunks(self.k.max(1))
            .enumerate()
            .map(|(n, row)| (NodeId(n), row))
    }

    /// Nodes that have at least one non-idle bundle.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.rows()
            .filter(|(_, row)| row.iter().flatten().any(|a| a.is_active()))
            .map(|(n, _)| n)
            .collect()
    }

    /// Number of nodes mentioned by the plan.
    pub fn len(&self) -> usize {
        self.rows()
            .filter(|(_, row)| row.iter().any(Option::is_some))
            .count()
    }

    /// Whether the plan mentions no node at all.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Every directive of the plan, node-ascending then bundle-ascending,
    /// without allocating.
    pub fn iter(&self) -> impl Iterator<Item = PortDirective> + '_ {
        self.rows().flat_map(|(node, row)| {
            row.iter().enumerate().filter_map(move |(bundle, action)| {
                action.map(|action| PortDirective {
                    node,
                    bundle,
                    action,
                })
            })
        })
    }

    /// Flattens the plan into individual directives (node order, bundle order).
    pub fn directives(&self) -> Vec<PortDirective> {
        self.iter().collect()
    }

    /// The directives of `new` that differ from `self` — the minimal command
    /// set the cluster manager must push to converge the fabric.
    ///
    /// Nodes dropped from the plan entirely (e.g. newly faulty) do not get
    /// commands: their hardware is unreachable anyway.
    pub fn diff(&self, new: &RingPlan) -> Vec<PortDirective> {
        new.iter()
            .filter(|d| self.get(d.node, d.bundle).unwrap_or(BundleAction::Idle) != d.action)
            .collect()
    }
}

/// Plans are equal when they hold the same directives: the empty plan equals
/// any plan that mentions no node, whatever its size.
impl PartialEq for RingPlan {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for RingPlan {}

/// Hand-written so a plan whose slot vector does not split into whole
/// `k`-bundle rows is a typed error, not a malformed plan.
impl Deserialize for RingPlan {
    fn from_value(value: &Value) -> std::result::Result<Self, de::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| de::Error::custom(format!("RingPlan: missing field `{name}`")))
        };
        let k: usize = Deserialize::from_value(field("k")?)?;
        let slots: Vec<Option<BundleAction>> = Deserialize::from_value(field("slots")?)?;
        // `is_multiple_of(0)` holds only for 0: a zero stride needs no slots.
        if !slots.len().is_multiple_of(k) {
            return Err(de::Error::custom(format!(
                "RingPlan: {} slots do not form rows of k = {k}",
                slots.len()
            )));
        }
        Ok(RingPlan { k, slots })
    }
}

fn action_for(port: FabricPort) -> BundleAction {
    match port.path {
        PathId::External1 => BundleAction::ActivatePrimary,
        PathId::External2 => BundleAction::ActivateBackup,
        PathId::Loopback => BundleAction::Loopback,
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::MapPlan;
    use super::*;
    use proptest::prelude::*;
    use topology::{FaultSet, KHopRing};

    fn plan_for(nodes: usize, k: usize, faults: &[usize]) -> (KHopRing, RingPlan) {
        let ring = KHopRing::new(nodes, 4, k).unwrap();
        let wiring = Wiring::new(nodes, k, true).unwrap();
        let fault_set = FaultSet::from_nodes(faults.iter().map(|&n| NodeId(n)));
        let segments = ring.healthy_segments(&fault_set);
        let plan = RingPlan::for_segments(&wiring, &segments).unwrap();
        (ring, plan)
    }

    #[test]
    fn healthy_closed_ring_is_a_cycle_without_loopbacks() {
        let (_, plan) = plan_for(12, 2, &[]);
        assert_eq!(plan.len(), 12);
        for n in 0..12 {
            let d = plan.node(NodeId(n));
            // The forward distance-1 port (bundle 0, Path 1) and the backward
            // distance-1 port (bundle 1, Path 1) are both active: "only two
            // OCSTrx bundles per node are utilized" (§4.2).
            assert_eq!(d.action(0), BundleAction::ActivatePrimary);
            assert_eq!(d.action(1), BundleAction::ActivatePrimary);
            assert!(d.iter().all(|(_, a)| a != BundleAction::Loopback));
        }
    }

    #[test]
    fn single_fault_bypass_uses_backup_ports_on_the_neighbours() {
        let (_, plan) = plan_for(12, 2, &[5]);
        // Node 4 bypasses the fault by selecting the +2 backup path of its
        // forward bundle; node 6 selects the −2 backup path of its backward
        // bundle — exactly the Figure-2 failover.
        let d4 = plan.node(NodeId(4));
        assert_eq!(d4.action(0), BundleAction::ActivateBackup);
        assert_eq!(d4.action(1), BundleAction::ActivatePrimary);
        let d6 = plan.node(NodeId(6));
        assert_eq!(d6.action(1), BundleAction::ActivateBackup);
        assert_eq!(d6.action(0), BundleAction::ActivatePrimary);
        // The faulty node receives no directives.
        assert_eq!(plan.node(NodeId(5)).active_bundles(), 0);
        // The surviving 11 nodes form one chain closed by loopback at its two
        // ends.
        let loopbacks: usize = (0..12)
            .map(|n| {
                plan.node(NodeId(n))
                    .iter()
                    .filter(|(_, a)| *a == BundleAction::Loopback)
                    .count()
            })
            .sum();
        assert_eq!(loopbacks, 2);
    }

    #[test]
    fn two_spread_faults_make_two_segments_with_four_loopbacks() {
        let (ring, plan) = plan_for(20, 2, &[3, 4, 12, 13]);
        let segments = ring.healthy_segments(&FaultSet::from_nodes([
            NodeId(3),
            NodeId(4),
            NodeId(12),
            NodeId(13),
        ]));
        assert_eq!(segments.len(), 2);
        let loopbacks: usize = (0..20)
            .map(|n| {
                plan.node(NodeId(n))
                    .iter()
                    .filter(|(_, a)| *a == BundleAction::Loopback)
                    .count()
            })
            .sum();
        assert_eq!(loopbacks, 4);
    }

    #[test]
    fn plan_diff_only_touches_changed_bundles() {
        let (_, before) = plan_for(16, 3, &[]);
        let (_, after) = plan_for(16, 3, &[7]);
        let commands = before.diff(&after);
        assert!(!commands.is_empty());
        // Only the fault's bypassing neighbours and the new segment endpoints
        // change — a handful of nodes, not the whole fabric.
        let touched: std::collections::BTreeSet<NodeId> = commands.iter().map(|c| c.node).collect();
        assert!(touched.len() <= 4, "touched {touched:?}");
        assert!(
            !touched.contains(&NodeId(7)),
            "faulty node must not be commanded"
        );
        // Every command matches the target plan.
        for cmd in &commands {
            assert_eq!(after.node(cmd.node).action(cmd.bundle), cmd.action);
        }
    }

    #[test]
    fn singleton_segment_loops_back_on_bundle_zero() {
        let wiring = Wiring::new(9, 2, true).unwrap();
        let segment = RingSegment {
            nodes: vec![NodeId(4)],
            wraps: false,
        };
        let plan = RingPlan::for_segments(&wiring, &[segment]).unwrap();
        assert_eq!(plan.node(NodeId(4)).action(0), BundleAction::Loopback);
    }

    #[test]
    fn edge_beyond_reach_is_rejected() {
        let wiring = Wiring::new(12, 2, true).unwrap();
        let segment = RingSegment {
            nodes: vec![NodeId(0), NodeId(5)],
            wraps: false,
        };
        assert!(RingPlan::for_segments(&wiring, &[segment]).is_err());
    }

    #[test]
    fn directives_cover_every_fabric_bundle_of_every_healthy_node() {
        let (_, plan) = plan_for(16, 3, &[2, 9]);
        for n in 0..16usize {
            if n == 2 || n == 9 {
                continue;
            }
            let directive = plan.node(NodeId(n));
            assert_eq!(directive.iter().count(), 3, "node {n}");
        }
        assert_eq!(plan.directives().len(), 14 * 3);
    }

    #[test]
    fn segment_node_outside_the_wiring_is_rejected() {
        let wiring = Wiring::new(9, 2, true).unwrap();
        for nodes in [vec![NodeId(9)], vec![NodeId(7), NodeId(8), NodeId(9)]] {
            let segment = RingSegment {
                nodes,
                wraps: false,
            };
            let err = RingPlan::for_segments(&wiring, &[segment]).unwrap_err();
            assert!(matches!(err, HbdError::InvalidConfig { .. }), "{err}");
        }
    }

    #[test]
    fn wiring_without_bundles_is_rejected() {
        // `Wiring::new` refuses K < 2, but a deserialised wiring is not
        // validated.
        let wiring: Wiring = serde_json::from_str(r#"{"closed":false,"k":0,"nodes":4}"#).unwrap();
        let segment = RingSegment {
            nodes: vec![NodeId(2)],
            wraps: false,
        };
        let err = RingPlan::for_segments(&wiring, &[segment]).unwrap_err();
        assert!(matches!(err, HbdError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn empty_plan_equals_a_plan_that_mentions_no_node() {
        let wiring = Wiring::new(12, 3, true).unwrap();
        let unused = RingPlan::for_segments(&wiring, &[]).unwrap();
        assert_eq!(unused, RingPlan::empty());
        assert!(unused.is_empty());
        assert_eq!(unused.len(), 0);
        let (_, used) = plan_for(12, 3, &[4]);
        assert_ne!(used, RingPlan::empty());
        assert_eq!(RingPlan::empty().node(NodeId(3)), unused.node(NodeId(3)));
    }

    #[test]
    fn odd_k_chain_cut_matches_the_oracle() {
        // Node 5 sits between two faults on each side: its −3 and +3 links
        // share bundle 2, so the chain is cut there (four loopbacks).
        let (ring, plan) = plan_for(20, 3, &[3, 4, 6, 7]);
        let wiring = Wiring::new(20, 3, true).unwrap();
        let segments =
            ring.healthy_segments(&FaultSet::from_nodes([3, 4, 6, 7].into_iter().map(NodeId)));
        assert_eq!(segments.len(), 1);
        let loopbacks = plan
            .iter()
            .filter(|d| d.action == BundleAction::Loopback)
            .count();
        assert_eq!(loopbacks, 4);
        let oracle = MapPlan::for_segments(&wiring, &segments).unwrap();
        assert_eq!(plan.directives(), oracle.directives());
    }

    #[test]
    fn serde_round_trips_and_rejects_ragged_slots() {
        let (_, plan) = plan_for(12, 3, &[4, 5]);
        let json = serde_json::to_string(&plan).unwrap();
        let back: RingPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.directives(), plan.directives());
        let empty: RingPlan = serde_json::from_str(r#"{"k":0,"slots":[]}"#).unwrap();
        assert_eq!(empty, RingPlan::empty());
        for ragged in [
            r#"{"k":0,"slots":[null]}"#,
            r#"{"k":3,"slots":[null,"Idle"]}"#,
            r#"{"k":3}"#,
        ] {
            assert!(
                serde_json::from_str::<RingPlan>(ragged).is_err(),
                "{ragged}"
            );
        }
    }

    /// One random deployment: K, closed?, n, and two fault patterns, each a
    /// fault density plus one uniform draw per node (faulty if below it).
    type Deployment = (usize, bool, usize, (usize, Vec<usize>), (usize, Vec<usize>));

    fn deployment() -> impl Strategy<Value = Deployment> {
        (2usize..=5, 0u8..2)
            .prop_flat_map(|(k, closed)| {
                let closed = closed == 1;
                let smallest = if closed { 2 * k + 1 } else { 1 };
                (Just(k), Just(closed), smallest..=128usize)
            })
            .prop_flat_map(|(k, closed, n)| {
                let pattern = (0usize..=70, prop::collection::vec(0usize..100, n));
                (Just(k), Just(closed), Just(n), pattern.clone(), pattern)
            })
    }

    fn fault_set((density, draws): &(usize, Vec<usize>)) -> FaultSet {
        FaultSet::from_nodes(
            draws
                .iter()
                .enumerate()
                .filter(|(_, &draw)| draw < *density)
                .map(|(n, _)| NodeId(n)),
        )
    }

    /// Every read accessor of the dense plan agrees with the oracle's.
    fn assert_same_plan(dense: &RingPlan, oracle: &MapPlan, nodes: usize) {
        assert_eq!(dense.directives(), oracle.directives());
        assert_eq!(dense.iter().collect::<Vec<_>>(), oracle.directives());
        assert_eq!(dense.len(), oracle.len());
        assert_eq!(dense.is_empty(), oracle.len() == 0);
        assert_eq!(dense.active_nodes(), oracle.active_nodes());
        for n in 0..=nodes {
            let node = NodeId(n);
            assert_eq!(
                dense.node(node).iter().collect::<Vec<_>>(),
                oracle.node(node)
            );
        }
        assert_eq!(*dense == RingPlan::empty(), oracle.len() == 0);
    }

    proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The dense plan builds, reads, diffs and compares exactly like the
        /// nested-map plan it replaced, on open and closed rings, even and
        /// odd K (odd K exercises chain cuts).
        #[test]
        fn dense_plan_matches_the_nested_map_oracle(deployment in deployment()) {
            let (k, closed, n, pattern_a, pattern_b) = deployment;
            let ring = if closed {
                KHopRing::new(n, 8, k)
            } else {
                KHopRing::line(n, 8, k)
            }
            .unwrap();
            let wiring = Wiring::new(n, k, closed).unwrap();
            let build = |pattern| {
                let segments = ring.healthy_segments(&fault_set(pattern));
                (
                    RingPlan::for_segments(&wiring, &segments),
                    MapPlan::for_segments(&wiring, &segments),
                )
            };
            let (dense_a, oracle_a) = build(&pattern_a);
            let (dense_b, oracle_b) = build(&pattern_b);
            prop_assert_eq!(dense_a.as_ref().err(), oracle_a.as_ref().err());
            prop_assert_eq!(dense_b.as_ref().err(), oracle_b.as_ref().err());
            let (Ok(dense_a), Ok(oracle_a)) = (dense_a, oracle_a) else {
                return Ok(());
            };
            assert_same_plan(&dense_a, &oracle_a, n);
            prop_assert_eq!(RingPlan::empty().diff(&dense_a), MapPlan::default().diff(&oracle_a));
            prop_assert_eq!(dense_a.diff(&RingPlan::empty()), Vec::new());
            let (Ok(dense_b), Ok(oracle_b)) = (dense_b, oracle_b) else {
                return Ok(());
            };
            assert_same_plan(&dense_b, &oracle_b, n);
            prop_assert_eq!(dense_a.diff(&dense_b), oracle_a.diff(&oracle_b));
            prop_assert_eq!(dense_b.diff(&dense_a), oracle_b.diff(&oracle_a));
            prop_assert_eq!(dense_a == dense_b, oracle_a == oracle_b);
        }
    }
}
