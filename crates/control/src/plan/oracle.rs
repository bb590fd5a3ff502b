//! The nested-map ring plan the dense [`RingPlan`](super::RingPlan) replaced,
//! kept as its test oracle: one `BTreeMap` of nodes, each holding a
//! `BTreeMap` of bundle actions, built by the original two-pass chain
//! splitter over the port scan [`Wiring::port_towards_by_search`].

use super::{action_for, BundleAction, PortDirective};
use crate::wiring::Wiring;
use hbd_types::{HbdError, NodeId, Result};
use std::collections::BTreeMap;
use topology::RingSegment;

#[derive(PartialEq, Default)]
pub(super) struct MapPlan {
    pub(super) nodes: BTreeMap<NodeId, BTreeMap<usize, BundleAction>>,
}

impl MapPlan {
    pub(super) fn for_segments(wiring: &Wiring, segments: &[RingSegment]) -> Result<Self> {
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
