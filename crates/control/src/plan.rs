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
//!
//! **Realisation walk.** A plan is written by one left-to-right walk over the
//! node positions, the same walk whether it builds a whole plan
//! ([`crate::FailoverPlanner::plan`]) or re-plans a window
//! ([`crate::FailoverPlanner::replan`]). It counts faulty positions since the
//! last healthy node like the run scan of `topology::runscan` (`K` of them cut
//! the chain). At each healthy node it decides the edge from the previous
//! healthy node and writes that node's whole row from two ports: its *back*
//! port (towards its chain predecessor, `None` for a chain head) and its
//! *forward* port (`None` for a chain tail). A chain end loops back on its
//! lowest free bundle. For odd K the last bundle carries both `+K` and `−K`,
//! so a node whose back port is `−K` cannot link forward on `+K`: the chain is
//! cut there (the rule of the segment realiser this walk replaced). The state
//! the walk carries from one position to the next is therefore just the gap
//! count plus the open node's back port. When the healthy nodes span the
//! deployment boundary ([`topology::KHopRing::spans_boundary`]) the walk runs
//! on from the last node into the first; otherwise the boundary is a cut.
//!
//! **The window rule, and why it is exact.** Let a set of nodes flip. Rows
//! before a flipped node `x` can only change at the last healthy node within
//! `K` positions before `x`: that is the only node whose forward edge can
//! reach `x`, and every earlier row depends on nothing at or after `x`. The
//! walk therefore starts there, reading that node's back port from its
//! current row. After the last flipped node, the walk compares its state at
//! every healthy node `q` with the state the current rows already hold at
//! `q` (the back port in `q`'s row). Both walks see the same faults from `q`
//! on, so once the two states agree, every later row is the one already
//! written and the walk stops. Flips close together share one window. Until
//! the states agree the walk keeps writing, which is exactly the span an odd-K
//! cut can propagate. One more source of change lies at the ring ends: the
//! wraparound merge of `healthy_segments` links the last healthy node to the
//! first only while the healthy nodes span the boundary. When that status
//! flips (the segment count crosses 1 ↔ ≥ 2, or the boundary gap crosses K),
//! the boundary is re-walked like a flipped node: from the last healthy node
//! before node 0, and for a line also to its end. A spanning walk may run
//! around the ring. It still ends: after all flipped nodes, the next `K`-fault
//! run (or, on a fault-free ring, the next node) forces the state the rows
//! already hold. The rows it leaves untouched are consistent with the state
//! where it stopped. So every row of the result equals the fresh plan's, and
//! the directives are computed only over the rewritten rows, in the contract
//! order above. The `failover` proptests check both against
//! [`crate::FailoverPlanner::plan`] and [`RingPlan::diff`].

use crate::wiring::{FabricPort, Wiring};
use hbd_types::{HbdError, NodeId, Result};
use ocstrx::PathId;
use serde::{de, value::Value, Deserialize, Serialize};
use topology::FaultSet;

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

    /// The slots of one node; empty if the node lies outside the plan.
    pub(crate) fn node_slots(&self, node: NodeId) -> &[Option<BundleAction>] {
        let start = node.index().saturating_mul(self.k);
        self.slots
            .get(start..start.saturating_add(self.k))
            .unwrap_or(&[])
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

/// The realisation walk: one left-to-right pass over positions that writes
/// whole plan rows (see the module docs). Positions are absolute: when the
/// healthy nodes span the deployment boundary the walk runs on past the last
/// node into the first (`node = position mod n`); otherwise the boundary
/// ends the walk like a cut.
struct Walk<'a> {
    wiring: &'a Wiring,
    faults: &'a FaultSet,
    /// Whether the walk runs on across the deployment boundary.
    spans: bool,
    /// Rows overwritten so far with their content before the first
    /// overwrite, when the caller wants the directive diff.
    log: Option<DiffLog>,
}

/// The last healthy node whose forward edge is still undecided.
#[derive(Clone, Copy)]
struct Open {
    node: usize,
    /// Its absolute walk position.
    at: usize,
    /// Its active port towards its chain predecessor (`None`: chain head).
    back: Option<FabricPort>,
}

/// Walk state between two positions: the run-scan gap plus the odd-K `back`
/// port of the open node — all a position needs from the walk before it.
#[derive(Clone, Copy)]
struct Cursor {
    open: Option<Open>,
    /// Faulty positions since the last healthy one; the walk cuts at `K`.
    gap: usize,
}

/// Rows a windowed walk overwrote, each with its content before the first
/// overwrite, so the directive diff touches only those rows.
#[derive(Default)]
struct DiffLog {
    /// (node, offset of its saved row in `saved`), in overwrite order.
    rows: Vec<(usize, usize)>,
    saved: Vec<Option<BundleAction>>,
}

impl DiffLog {
    /// `old.diff(new)` for a `new` plan that differs from `old` only in the
    /// logged rows: node-ascending, then bundle-ascending.
    fn directives(mut self, new: &RingPlan) -> Vec<PortDirective> {
        let k = new.k;
        // Stable: a node overwritten twice keeps its original row first.
        self.rows.sort_by_key(|&(node, _)| node);
        self.rows.dedup_by_key(|&mut (node, _)| node);
        let mut out = Vec::new();
        for (node, at) in self.rows {
            let old = &self.saved[at..at + k];
            let row = &new.slots[node * k..(node + 1) * k];
            for (bundle, (&was, &now)) in old.iter().zip(row).enumerate() {
                if let Some(action) = now.filter(|&a| was.unwrap_or(BundleAction::Idle) != a) {
                    out.push(PortDirective {
                        node: NodeId(node),
                        bundle,
                        action,
                    });
                }
            }
        }
        out
    }
}

impl RingPlan {
    /// A plan of `nodes × k` slots that mentions no node.
    fn blank(nodes: usize, k: usize) -> Self {
        RingPlan {
            k,
            slots: vec![None; nodes * k],
        }
    }

    /// Realises the whole plan for `faults` on `wiring`. `spans` says
    /// whether the healthy nodes stay linked across the deployment boundary
    /// ([`topology::KHopRing::spans_boundary`]).
    pub(crate) fn realise(wiring: &Wiring, faults: &FaultSet, spans: bool) -> Result<Self> {
        check_bundles(wiring)?;
        let mut plan = RingPlan::blank(wiring.nodes(), wiring.k());
        let mut walk = Walk {
            wiring,
            faults,
            spans,
            log: None,
        };
        plan.walk_all(&mut walk)?;
        Ok(plan)
    }

    /// Rewrites in place only the rows that can differ between the plan of
    /// the fault set before `changed` flipped (which `self` must be) and the
    /// plan of `faults`, and returns exactly `old.diff(&new)`. A plan that
    /// mentions no node but does not fit `wiring` (e.g.
    /// [`RingPlan::empty`]) counts as the plan of an all-faulty deployment.
    pub(crate) fn realise_changes(
        &mut self,
        wiring: &Wiring,
        faults: &FaultSet,
        spans: bool,
        changed: &[NodeId],
    ) -> Result<Vec<PortDirective>> {
        check_bundles(wiring)?;
        let (n, k) = (wiring.nodes(), wiring.k());
        if let Some(node) = changed.iter().find(|c| c.index() >= n) {
            return Err(HbdError::invalid_config(format!(
                "changed node {node} is outside the {n}-node wiring"
            )));
        }
        let mut walk = Walk {
            wiring,
            faults,
            spans,
            log: Some(DiffLog::default()),
        };
        if self.k != k || self.slots.len() != n * k {
            if !self.is_empty() {
                return Err(HbdError::invalid_config(format!(
                    "plan of {} slots at k = {} does not fit the {n}-node, k = {k} wiring",
                    self.slots.len(),
                    self.k
                )));
            }
            *self = RingPlan::blank(n, k);
            self.walk_all(&mut walk)?;
        } else {
            let mut dirty: Vec<usize> = changed.iter().map(|c| c.index()).collect();
            // The boundary rule: when the wraparound link appears or goes,
            // the rows around both deployment ends change with it.
            if spans != self.spans_boundary(wiring) {
                dirty.push(0);
                if !spans {
                    dirty.push(n);
                }
            }
            dirty.sort_unstable();
            dirty.dedup();
            self.walk_windows(&mut walk, &dirty)?;
        }
        Ok(walk.log.take().expect("logging walk").directives(self))
    }

    /// Whether this plan links its last mentioned node forward across the
    /// deployment boundary. A spanning ring whose wraparound edge is cut by
    /// the odd-K rule realises exactly the rows of a non-spanning one, so
    /// the rows alone decide which walk they are consistent with.
    fn spans_boundary(&self, wiring: &Wiring) -> bool {
        let last = self
            .slots
            .chunks(self.k)
            .rev()
            .find(|row| row.iter().any(Option::is_some));
        wiring.is_closed()
            && last.is_some_and(|row| {
                row.iter().enumerate().any(|(bundle, action)| {
                    port_of(bundle, *action)
                        .and_then(|port| wiring.port_offset(port))
                        .is_some_and(|offset| offset > 0)
                })
            })
    }

    /// The active port of `node` towards its chain predecessor in the
    /// current rows (`None` for a chain head or an unmentioned node).
    fn back_port(&self, wiring: &Wiring, node: usize) -> Option<FabricPort> {
        self.slots[node * self.k..(node + 1) * self.k]
            .iter()
            .enumerate()
            .filter_map(|(bundle, action)| port_of(bundle, *action))
            .find(|&port| wiring.port_offset(port).is_some_and(|offset| offset < 0))
    }

    /// The whole-line walk: from node 0 to the end when the boundary cuts,
    /// otherwise one full lap from an anchor (the first internal `K`-fault
    /// run, or node 0 of a fault-free ring) and on until the state repeats.
    fn walk_all(&mut self, walk: &mut Walk) -> Result<()> {
        let n = walk.wiring.nodes();
        let start = if walk.spans {
            let first = walk.faults.faulty_run(NodeId(0));
            let anchor = walk
                .faults
                .long_run_starts(first + 1, n, walk.wiring.k())
                .next()
                .map_or(0, NodeId::index);
            n + anchor
        } else {
            0
        };
        let fresh = Cursor { open: None, gap: 0 };
        let must_pass = if walk.spans { start + n - 1 } else { n };
        self.walk(walk, start, fresh, must_pass, &[], &mut 0)
    }

    /// One window per group of nearby `dirty` positions (sorted node
    /// indices; `n` marks the end of a line whose boundary cuts).
    fn walk_windows(&mut self, walk: &mut Walk, dirty: &[usize]) -> Result<()> {
        let n = walk.wiring.nodes();
        let order: Vec<usize> = if walk.spans && !dirty.is_empty() {
            // Start after the widest circular gap between dirty positions so
            // no window's look-back reads a row another window will change;
            // absolute positions then rise monotonically from `n`.
            let m = dirty.len();
            let first = (0..m)
                .max_by_key(|&i| (dirty[i] + n - dirty[(i + m - 1) % m]) % n)
                .unwrap_or(0);
            (0..m)
                .map(|i| n + dirty[(first + i) % m] + if first + i >= m { n } else { 0 })
                .collect()
        } else {
            dirty.to_vec()
        };
        let mut next = 0;
        while next < order.len() {
            let x = order[next];
            let (start, cursor) = self.look_back(walk, x);
            self.walk(walk, start, cursor, x, &order, &mut next)?;
        }
        Ok(())
    }

    /// The walk state just before position `x`, read from the current rows:
    /// the last healthy node within `K` positions before `x` with its back
    /// port, or a cut if `K` faulty positions precede `x`. Returns where to
    /// resume (just after that node) and the state there.
    fn look_back(&self, walk: &Walk, x: usize) -> (usize, Cursor) {
        let (n, k) = (walk.wiring.nodes(), walk.wiring.k());
        for j in 1..=k {
            if !walk.spans && j > x {
                // The line starts here: `x` leading faulty positions.
                return (x, Cursor { open: None, gap: x });
            }
            let at = x - j;
            let node = at % n;
            if !walk.faults.is_faulty(NodeId(node)) {
                let back = self.back_port(walk.wiring, node);
                let open = Open { node, at, back };
                return (
                    at + 1,
                    Cursor {
                        open: Some(open),
                        gap: 0,
                    },
                );
            }
        }
        (x, Cursor { open: None, gap: k })
    }

    /// Walks from absolute position `t` in state `cursor`, writing every row
    /// it decides, until the state at a healthy node past `must_pass` equals
    /// the state the current rows already hold there (the rows from that
    /// node on are then unchanged), or the line ends. Dirty positions of
    /// `order` from index `next` that the walk reaches join its window.
    fn walk(
        &mut self,
        walk: &mut Walk,
        mut t: usize,
        mut cursor: Cursor,
        mut must_pass: usize,
        order: &[usize],
        next: &mut usize,
    ) -> Result<()> {
        let (n, k) = (walk.wiring.nodes(), walk.wiring.k());
        // A spanning walk passes every dirty position within one lap and
        // resynchronises within the next (see the module docs): the bound
        // only guards that invariant.
        let limit = t + 3 * n + 2 * k;
        loop {
            while *next < order.len() && order[*next] <= t {
                must_pass = must_pass.max(order[*next]);
                *next += 1;
            }
            if !walk.spans && t == n {
                if let Some(open) = cursor.open {
                    self.write_row(walk, open.node, open.back, None);
                }
                return Ok(());
            }
            if t == limit {
                return Err(HbdError::invalid_operation(
                    "ring plan walk did not resynchronise",
                ));
            }
            let node = t % n;
            if walk.faults.is_faulty(NodeId(node)) {
                self.write_slots(walk, node, |_| None);
                cursor.gap += 1;
                if cursor.gap == k {
                    if let Some(open) = cursor.open.take() {
                        self.write_row(walk, open.node, open.back, None);
                    }
                }
            } else {
                let back = match cursor.open {
                    Some(open) => self.decide_edge(walk, open, t)?,
                    None => None,
                };
                if t > must_pass && back == self.back_port(walk.wiring, node) {
                    return Ok(());
                }
                let open = Open { node, at: t, back };
                cursor = Cursor {
                    open: Some(open),
                    gap: 0,
                };
            }
            t += 1;
        }
    }

    /// Decides the edge from the open node to the healthy node at position
    /// `t`, writes the open node's row, and returns the new node's back
    /// port. For odd K the last bundle carries both `+K` and `−K`: a node
    /// whose back link already uses it cannot also link forward on it, so
    /// the chain is cut there and the new node starts a chain of its own.
    fn decide_edge(&mut self, walk: &mut Walk, open: Open, t: usize) -> Result<Option<FabricPort>> {
        let reach = |offset: isize| {
            walk.wiring.port_for_offset(offset).ok_or_else(|| {
                HbdError::infeasible(format!(
                    "edge of {offset} hops exceeds the {}-hop reach of the wiring",
                    walk.wiring.k()
                ))
            })
        };
        let d = (t - open.at) as isize;
        let forward = reach(d)?;
        if open.back.is_some_and(|b| b.bundle == forward.bundle) {
            self.write_row(walk, open.node, open.back, None);
            return Ok(None);
        }
        self.write_row(walk, open.node, open.back, Some(forward));
        reach(-d).map(Some)
    }

    /// Writes the row of a healthy node from its back and forward ports: a
    /// chain end (either port missing) loops back on its lowest free bundle,
    /// every other bundle goes idle explicitly so diffs release stale
    /// activations.
    fn write_row(
        &mut self,
        walk: &mut Walk,
        node: usize,
        back: Option<FabricPort>,
        forward: Option<FabricPort>,
    ) {
        let used = |bundle| [back, forward].iter().flatten().any(|p| p.bundle == bundle);
        let loopback = if back.is_some() && forward.is_some() {
            None
        } else {
            (0..self.k).find(|&b| !used(b))
        };
        self.write_slots(walk, node, |bundle| {
            let port = [back, forward]
                .into_iter()
                .flatten()
                .find(|p| p.bundle == bundle);
            Some(match port {
                Some(port) => action_for(port),
                None if loopback == Some(bundle) => BundleAction::Loopback,
                None => BundleAction::Idle,
            })
        });
    }

    /// Sets every slot of `node` to `slot(bundle)`, logging the old row
    /// first if anything changes.
    fn write_slots(
        &mut self,
        walk: &mut Walk,
        node: usize,
        slot: impl Fn(usize) -> Option<BundleAction>,
    ) {
        let row = &mut self.slots[node * self.k..(node + 1) * self.k];
        if row.iter().enumerate().all(|(b, &s)| s == slot(b)) {
            return;
        }
        if let Some(log) = walk.log.as_mut() {
            log.rows.push((node, log.saved.len()));
            log.saved.extend_from_slice(row);
        }
        for (b, s) in row.iter_mut().enumerate() {
            *s = slot(b);
        }
    }
}

/// A wiring deserialised with no bundles cannot carry a plan.
fn check_bundles(wiring: &Wiring) -> Result<()> {
    if wiring.k() == 0 {
        return Err(HbdError::invalid_config("wiring has no fabric bundles"));
    }
    Ok(())
}

/// The external port an active slot action selects, if any.
fn port_of(bundle: usize, action: Option<BundleAction>) -> Option<FabricPort> {
    let path = match action? {
        BundleAction::ActivatePrimary => PathId::External1,
        BundleAction::ActivateBackup => PathId::External2,
        BundleAction::Loopback | BundleAction::Idle => return None,
    };
    Some(FabricPort { bundle, path })
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
    use topology::{KHopRing, RingSegment};

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
