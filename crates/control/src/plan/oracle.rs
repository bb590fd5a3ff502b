//! Test oracles of the dense [`RingPlan`](super::RingPlan) and its
//! realisation walk:
//!
//! * `MapPlan`, the nested-map plan the dense layout replaced: one
//!   `BTreeMap` of nodes, each holding a `BTreeMap` of bundle actions, built
//!   by the original two-pass chain splitter over the port scan
//!   [`Wiring::port_towards_by_search`];
//! * `RingPlan::for_segments`, the segment-driven dense realiser the walk
//!   replaced.

use super::{action_for, BundleAction, PortDirective, RingPlan};
use crate::wiring::FabricPort;
use crate::wiring::Wiring;
use hbd_types::{HbdError, NodeId, Result};
use std::collections::BTreeMap;
use topology::RingSegment;

#[derive(PartialEq, Default)]
pub(super) struct MapPlan {
    pub(super) nodes: BTreeMap<NodeId, BTreeMap<usize, BundleAction>>,
}

impl MapPlan {
    pub(crate) fn for_segments(wiring: &Wiring, segments: &[RingSegment]) -> Result<Self> {
        let mut plan = MapPlan::default();
        for segment in segments {
            plan.add_segment(wiring, segment)?;
        }
        for node in plan.nodes.values_mut() {
            for bundle in 0..wiring.k() {
                node.entry(bundle).or_insert(BundleAction::Idle);
            }
        }
        Ok(plan)
    }

    fn add_segment(&mut self, wiring: &Wiring, segment: &RingSegment) -> Result<()> {
        let nodes = &segment.nodes;
        if nodes.is_empty() {
            return Ok(());
        }
        if wiring.is_closed() && nodes.len() == wiring.nodes() {
            for i in 0..nodes.len() {
                self.connect(wiring, nodes[i], nodes[(i + 1) % nodes.len()])?;
            }
            return Ok(());
        }
        let mut chains: Vec<Vec<NodeId>> = Vec::new();
        let mut start = 0usize;
        let mut i = 1usize;
        while i + 1 < nodes.len() {
            let back = wiring.port_towards_by_search(nodes[i], nodes[i - 1]);
            let forward = wiring.port_towards_by_search(nodes[i], nodes[i + 1]);
            match (back, forward) {
                (Some(b), Some(f)) if b.bundle == f.bundle && i > start => {
                    chains.push(nodes[start..=i].to_vec());
                    start = i + 1;
                    i = start + 1;
                }
                _ => i += 1,
            }
        }
        chains.push(nodes[start..].to_vec());
        for chain in chains {
            if chain.len() == 1 {
                let bundle = self.free_bundle(chain[0], wiring.k());
                self.set(chain[0], bundle, BundleAction::Loopback)?;
                continue;
            }
            for pair in chain.windows(2) {
                self.connect(wiring, pair[0], pair[1])?;
            }
            let head = chain[0];
            let tail = chain[chain.len() - 1];
            let head_loop = self.free_bundle(head, wiring.k());
            self.set(head, head_loop, BundleAction::Loopback)?;
            let tail_loop = self.free_bundle(tail, wiring.k());
            self.set(tail, tail_loop, BundleAction::Loopback)?;
        }
        Ok(())
    }

    fn connect(&mut self, wiring: &Wiring, a: NodeId, b: NodeId) -> Result<()> {
        let port_a = wiring.port_towards_by_search(a, b).ok_or_else(|| {
            HbdError::infeasible(format!(
                "segment edge {a} -> {b} exceeds the {}-hop reach of the wiring",
                wiring.k()
            ))
        })?;
        let port_b = wiring
            .port_towards_by_search(b, a)
            .expect("reverse port exists whenever the forward port does");
        self.set(a, port_a.bundle, action_for(port_a))?;
        self.set(b, port_b.bundle, action_for(port_b))?;
        Ok(())
    }

    fn free_bundle(&self, node: NodeId, k: usize) -> usize {
        let directive = self.nodes.get(&node);
        (0..k)
            .find(|b| directive.map(|d| !d.contains_key(b)).unwrap_or(true))
            .unwrap_or(0)
    }

    fn set(&mut self, node: NodeId, bundle: usize, action: BundleAction) -> Result<()> {
        let directive = self.nodes.entry(node).or_default();
        if let Some(existing) = directive.get(&bundle) {
            if *existing != action && existing.is_active() && action.is_active() {
                return Err(HbdError::invalid_operation(format!(
                    "bundle {bundle} of {node} assigned two conflicting active roles"
                )));
            }
        }
        directive.insert(bundle, action);
        Ok(())
    }

    /// (bundle, action) pairs of one node, in bundle order.
    pub(super) fn node(&self, node: NodeId) -> Vec<(usize, BundleAction)> {
        self.nodes
            .get(&node)
            .map(|d| d.iter().map(|(&b, &a)| (b, a)).collect())
            .unwrap_or_default()
    }

    pub(super) fn active_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, d)| d.values().any(|a| a.is_active()))
            .map(|(&n, _)| n)
            .collect()
    }

    pub(super) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(super) fn directives(&self) -> Vec<PortDirective> {
        self.nodes
            .iter()
            .flat_map(|(&node, d)| {
                d.iter().map(move |(&bundle, &action)| PortDirective {
                    node,
                    bundle,
                    action,
                })
            })
            .collect()
    }

    pub(super) fn diff(&self, new: &MapPlan) -> Vec<PortDirective> {
        new.directives()
            .into_iter()
            .filter(|d| {
                let old = self
                    .nodes
                    .get(&d.node)
                    .and_then(|o| o.get(&d.bundle))
                    .copied()
                    .unwrap_or(BundleAction::Idle);
                old != d.action
            })
            .collect()
    }
}

/// The segment-driven dense realiser that the fault-set walk of
/// [`RingPlan::realise`] replaced, kept as its second oracle: it consumes the
/// node lists of `KHopRing::healthy_segments` edge by edge, cutting odd-K
/// chains and placing loopbacks through a conflict-checked `set`.
impl RingPlan {
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
    pub(crate) fn for_segments(wiring: &Wiring, segments: &[RingSegment]) -> Result<Self> {
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
}
