//! `Placement-Fat-Tree` and the binary-search driver `Orchestration-Fat-Tree`
//! (Algorithms 1, 4 and 5 of the paper).
//!
//! The Fat-Tree DCN adds two constraints on top of the DCN-free orchestration:
//!
//! * **Aggregation-domain constraint** — a TP group should not span two
//!   aggregation-switch domains (its pipeline / context traffic would cross the
//!   core layer);
//! * **Alignment constraint** — every node under one ToR should carry the same
//!   TP-group rank, so the orthogonal DP/CP traffic stays under the ToR. To
//!   preserve alignment in the presence of faults, a fault under an "aligned"
//!   ToR takes the whole ToR out of service (expanding the failure radius by a
//!   factor of `p`), which costs capacity.
//!
//! Because constraints cost capacity, Algorithm 5 binary-searches the number of
//! applied constraints: it keeps as many as possible while still finding enough
//! healthy nodes for the job. Sub-line-segment constraints are applied first
//! (cheap), ToR-alignment constraints second (expensive), matching the paper's
//! ordering ("first relaxes the TP Group alignment constraints ... then relaxes
//! the TP Group crossing constraints").

use crate::dcn_free::{orchestrate_dcn_free, GroupCounter, GroupCutter, RunSummary};
use crate::deployment::DeploymentStrategy;
use crate::scheme::PlacementScheme;
use hbd_types::par::par_map;
use hbd_types::{HbdError, NodeId, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use topology::runscan::{scan_khop_runs, scan_khop_runs_from, RunSink};
use topology::{FatTree, FaultSet};

/// What the job needs from the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrchestrationRequest {
    /// Number of nodes the job needs (`s / r` in the paper's notation).
    pub job_nodes: usize,
    /// Nodes per TP group (`m = t / r`).
    pub nodes_per_group: usize,
    /// OCSTrx bundle count of the K-Hop topology.
    pub k: usize,
}

impl OrchestrationRequest {
    /// Validates the request.
    pub fn validate(&self) -> Result<()> {
        if self.nodes_per_group == 0 {
            return Err(HbdError::invalid_config("nodes_per_group must be positive"));
        }
        if self.k == 0 {
            return Err(HbdError::invalid_config("K must be positive"));
        }
        if self.job_nodes == 0 {
            return Err(HbdError::invalid_config(
                "job must request at least one node",
            ));
        }
        Ok(())
    }
}

/// The Fat-Tree-aware orchestrator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FatTreeOrchestrator {
    deployment: DeploymentStrategy,
    fat_tree: FatTree,
}

/// Per-search scratch of one constraint search (one
/// [`FatTreeOrchestrator::orchestrate_par`] call): everything the probe
/// ladder would otherwise recompute per probe, built once and shared across
/// the probe-evaluation threads. It depends only on `(k, nodes_per_group,
/// faults)`, never on the job size, so one scratch also serves every search
/// of its key (the max-job ladder, a placement service epoch).
///
/// A probe with `c` constrained segments and `a` aligned domains places
/// the memoized variants of segments `0..c` (aligned in domains `< a`),
/// read here as prefix sums, plus the groups its residual line yields: each
/// sub-line `i` from domain `c / p + [i < c % p]` on, then the nodes no
/// segment owns (the trailing partial rack). A residual sub-line is a
/// precomposed [`RunSummary`] suffix, so a count costs O(p) plus the tail.
/// In a probe, a node of domain `d` is faulty when it is in `expanded` if
/// `d < a` and in `raw` otherwise — exact, because the ToR expansion never
/// crosses a domain boundary.
#[derive(Debug)]
pub(crate) struct SearchScratch {
    /// Both memoized placement variants of every sub-line segment, as one
    /// `Arc`-shared slice per aggregation domain (its `p` segments in
    /// sub-line order), so a patch carries a clean domain over with one
    /// reference count. Shorter than the domain count when trailing domains
    /// own no segment (mirrors the `break` in the uncached loop).
    domains: Vec<Arc<[SegmentCache]>>,
    /// `suffixes[i][d]` = the raw-fault run summary of sub-line `i` from
    /// domain `d` to its end; `suffixes[i][domains.len()]` is empty.
    /// `Arc`-shared per sub-line: a patch recomposes only the sub-lines
    /// whose raw summaries it re-scanned.
    suffixes: Vec<Arc<[RunSummary]>>,
    /// `raw_prefix[s]` = nodes placed by the raw variants of segments
    /// `0..s`.
    raw_prefix: Vec<usize>,
    /// `aligned_prefix[s]` = nodes placed by the aligned variants of
    /// segments `0..s`.
    aligned_prefix: Vec<usize>,
    /// The fault set this scratch was built from — also the source of the
    /// per-domain fingerprints: a domain's fingerprint is the fault words
    /// covering it, compared with [`FaultSet::range_eq`] when a patch
    /// decides what to re-orchestrate.
    raw: FaultSet,
    /// `raw` with every fault of an aggregation domain expanded to its
    /// whole ToR (faults past the last domain stay as they are).
    expanded: FaultSet,
}

impl SearchScratch {
    /// Every segment's cache, in segment order (domain-major).
    fn segments(&self) -> impl Iterator<Item = &SegmentCache> {
        self.domains.iter().flat_map(|domain| domain.iter())
    }

    /// Number of memoized segments.
    fn segment_count(&self) -> usize {
        self.raw_prefix.len() - 1
    }
}

/// The two placements a sub-line segment can contribute, depending only on
/// whether its aggregation domain is alignment-constrained, plus its stretch
/// of the residual line as a count-only probe sees it.
#[derive(Debug, Clone)]
struct SegmentCache {
    raw: PlacementScheme,
    aligned: PlacementScheme,
    /// `raw.nodes_placed()`, for the count-only probes.
    raw_nodes: usize,
    /// `aligned.nodes_placed()`, for the count-only probes.
    aligned_nodes: usize,
    /// The segment's nodes under the raw faults, summarized.
    summary: RunSummary,
}

impl SegmentCache {
    fn new(raw: PlacementScheme, aligned: PlacementScheme, summary: RunSummary) -> Self {
        SegmentCache {
            raw_nodes: raw.nodes_placed(),
            aligned_nodes: aligned.nodes_placed(),
            raw,
            aligned,
            summary,
        }
    }
}

/// The outcome of one [`FatTreeOrchestrator::multisection`] search.
#[derive(Debug, Default)]
pub(crate) struct Multisection {
    /// The largest feasible value found, if any.
    pub(crate) best: Option<usize>,
    /// Ladder positions probed, summed over the rounds.
    pub(crate) ladder: usize,
    /// Feasibility checks actually run: `ladder` when the rounds are
    /// evaluated eagerly, fewer when one thread stops each round at its
    /// first feasible probe from the top.
    pub(crate) evaluated: usize,
}

/// What one `FatTreeOrchestrator::patch_scratch` call re-derived versus
/// carried over — the observability hook of the incremental publish path
/// (aggregated by the placement service into its patch tally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchPatchStats {
    /// Sub-line segments with at least one placement variant re-orchestrated.
    pub segments_reorchestrated: usize,
    /// Sub-line segments carried over without re-orchestration.
    pub segments_reused: usize,
    /// Aggregation domains whose fault words changed.
    pub domains_patched: usize,
}

impl ScratchPatchStats {
    /// Accumulates another patch's counts into `self`.
    pub fn absorb(&mut self, other: &ScratchPatchStats) {
        self.segments_reorchestrated += other.segments_reorchestrated;
        self.segments_reused += other.segments_reused;
        self.domains_patched += other.domains_patched;
    }
}

impl FatTreeOrchestrator {
    /// Creates an orchestrator for the given Fat-Tree DCN. The deployment
    /// wiring (Algorithm 3) is derived from the same rack layout.
    pub fn new(fat_tree: FatTree) -> Result<Self> {
        let deployment = DeploymentStrategy::new(fat_tree.nodes(), fat_tree.nodes_per_tor())?;
        Ok(FatTreeOrchestrator {
            deployment,
            fat_tree,
        })
    }

    /// The underlying deployment wiring.
    pub fn deployment(&self) -> &DeploymentStrategy {
        &self.deployment
    }

    /// The DCN this orchestrator targets.
    pub fn fat_tree(&self) -> &FatTree {
        &self.fat_tree
    }

    /// Number of sub-line segments (one per sub-line per aggregation domain) —
    /// the pool of "segment" constraints available to the binary search.
    pub fn segment_constraints(&self) -> usize {
        self.fat_tree.aggregation_domains() * self.deployment.sublines()
    }

    /// Number of aggregation domains — the pool of "alignment" constraints.
    pub fn alignment_constraints(&self) -> usize {
        self.fat_tree.aggregation_domains()
    }

    /// Expands one faulty node's failure radius to its whole ToR (the
    /// alignment-constraint cost: surviving rack peers keep matching ranks by
    /// leaving service together).
    fn expand_tor(&self, effective: &mut FaultSet, node: NodeId) {
        let p = self.deployment.sublines();
        let tor_start = node.index() / p * p;
        for peer in tor_start..(tor_start + p).min(self.fat_tree.nodes()) {
            effective.add(NodeId(peer));
        }
    }

    /// `Placement-Fat-Tree` (Algorithm 4): places TP groups with the first
    /// `n_constraints` constraints applied.
    ///
    /// This is the uncached single-probe entry point; the constraint search
    /// ([`orchestrate_par`](Self::orchestrate_par)) evaluates many probes
    /// against one fault set and reuses the shared per-search state
    /// (`SearchScratch`) instead. Both paths produce identical placements.
    pub fn placement_with_constraints(
        &self,
        request: &OrchestrationRequest,
        faults: &FaultSet,
        n_constraints: usize,
    ) -> PlacementScheme {
        let p = self.deployment.sublines();
        let tors_per_domain = self.fat_tree.nodes_per_aggregation_domain() / p;
        let n_segments = self.segment_constraints();
        let constrained_segments = n_constraints.min(n_segments);
        let aligned_domains = n_constraints.saturating_sub(n_segments);

        // Alignment constraint: inside the first `aligned_domains` domains, a
        // faulty node takes its whole ToR out of service so the surviving nodes
        // keep matching ranks. With no aligned domain the raw fault set is
        // borrowed as-is — no clone per probe.
        let expanded;
        let effective: &FaultSet = if aligned_domains == 0 {
            faults
        } else {
            let mut e = faults.clone();
            for node in faults.iter() {
                let domain = node.index() / self.fat_tree.nodes_per_aggregation_domain();
                if domain < aligned_domains {
                    self.expand_tor(&mut e, node);
                }
            }
            expanded = e;
            &expanded
        };

        let mut scheme = PlacementScheme::new();
        // Position bitmask over node ids: which nodes a constrained segment
        // consumed (placed or not).
        let mut consumed = vec![false; self.fat_tree.nodes()];

        // Segment constraint: the first `constrained_segments` sub-line
        // segments each place their TP groups entirely within themselves
        // (same sub-line, same aggregation domain).
        'segments: for seg in 0..constrained_segments {
            let domain = seg / p;
            let subline = seg % p;
            let Ok(nodes) = self
                .deployment
                .subline_segment(subline, domain, tors_per_domain)
            else {
                break 'segments;
            };
            let placed =
                orchestrate_dcn_free(&nodes, request.k, effective, request.nodes_per_group);
            for node in &nodes {
                consumed[node.index()] = true;
            }
            scheme.extend(placed);
        }

        // Residual: everything not consumed by a constrained segment is
        // orchestrated as one long HBD line (groups may now cross domains and
        // lose alignment — that is the relaxation). The linear-scan kernel
        // streams the filtered deployment order directly; no residual vector
        // is materialised.
        let mut cutter = GroupCutter::new(request.nodes_per_group);
        scan_khop_runs(
            self.deployment
                .deployment_order()
                .into_iter()
                .filter(|n| !consumed[n.index()]),
            request.k,
            |n| effective.is_faulty(*n),
            &mut cutter,
        );
        scheme.extend(cutter.scheme);

        self.assign_dp_ranks(&mut scheme);
        scheme
    }

    /// Builds the per-search scratch shared by every probe of one constraint
    /// search: the raw and ToR-expanded fault sets, both placement variants
    /// and the raw run summary of every sub-line segment, the per-sub-line
    /// suffix summaries and the segment-count prefix sums.
    ///
    /// A segment's placement depends only on the segment and on whether its
    /// own aggregation domain is aligned: ToRs never straddle domains
    /// (`nodes_per_aggregation_domain = p × tors_per_domain`), so the ToR
    /// expansion sourced from other domains cannot touch the segment's nodes.
    /// Each segment is therefore orchestrated exactly twice per search — once
    /// raw, once aligned — instead of once per probe.
    pub(crate) fn search_scratch(
        &self,
        request: &OrchestrationRequest,
        faults: &FaultSet,
    ) -> SearchScratch {
        let npd = self.fat_tree.nodes_per_aggregation_domain();
        let n_domains = self.alignment_constraints();
        let mut expanded = faults.clone();
        for node in faults.iter() {
            if node.index() / npd < n_domains {
                self.expand_tor(&mut expanded, node);
            }
        }
        let orchestrate = |nodes: &[NodeId], faults: &FaultSet| {
            orchestrate_dcn_free(nodes, request.k, faults, request.nodes_per_group)
        };
        let domains: Vec<Arc<[SegmentCache]>> = (0..self.segment_domains())
            .map(|domain| {
                (0..self.deployment.sublines())
                    .map(|subline| {
                        let nodes = self.segment_nodes(subline, domain);
                        SegmentCache::new(
                            orchestrate(&nodes, faults),
                            orchestrate(&nodes, &expanded),
                            Self::segment_summary(request, &nodes, faults),
                        )
                    })
                    .collect()
            })
            .collect();
        let suffixes = (0..self.deployment.sublines())
            .map(|subline| Self::subline_suffix(request, &domains, subline))
            .collect();
        let (mut raw_prefix, mut aligned_prefix) = (vec![0], vec![0]);
        extend_prefix_sums(&mut raw_prefix, &mut aligned_prefix, &domains);
        SearchScratch {
            domains,
            suffixes,
            raw_prefix,
            aligned_prefix,
            raw: faults.clone(),
            expanded,
        }
    }

    /// Number of aggregation domains that own sub-line segments: a trailing
    /// domain past the last full sub-line row owns none.
    fn segment_domains(&self) -> usize {
        let tors_per_domain =
            self.fat_tree.nodes_per_aggregation_domain() / self.deployment.sublines();
        self.deployment.subline_length().div_ceil(tors_per_domain)
    }

    /// The nodes of segment `(subline, domain)`, in HBD order.
    fn segment_nodes(&self, subline: usize, domain: usize) -> Vec<NodeId> {
        let tors_per_domain =
            self.fat_tree.nodes_per_aggregation_domain() / self.deployment.sublines();
        self.deployment
            .subline_segment(subline, domain, tors_per_domain)
            .expect("every domain below segment_domains() owns a segment per sub-line")
    }

    /// The run summary of a segment's `nodes` under the `raw` faults.
    fn segment_summary(
        request: &OrchestrationRequest,
        nodes: &[NodeId],
        raw: &FaultSet,
    ) -> RunSummary {
        RunSummary::of(
            nodes.iter().copied(),
            request.k,
            request.nodes_per_group,
            |n| raw.is_faulty(n),
        )
    }

    /// `suffixes[subline]` of a scratch with these segment caches.
    fn subline_suffix(
        request: &OrchestrationRequest,
        domains: &[Arc<[SegmentCache]>],
        subline: usize,
    ) -> Arc<[RunSummary]> {
        let empty = RunSummary::empty(request.k, request.nodes_per_group);
        let mut suffix = vec![empty; domains.len() + 1];
        for (domain, segments) in domains.iter().enumerate().rev() {
            suffix[domain] = segments[subline].summary.then(&suffix[domain + 1]);
        }
        suffix.into()
    }

    /// Derives the scratch for `faults` from a scratch previously built (or
    /// patched) for the same `(k, nodes_per_group)` key under a different
    /// fault set — the incremental half of the oracle-vs-fast-solver pair
    /// whose oracle is the cold [`search_scratch`](Self::search_scratch)
    /// rebuild. Cost is proportional to the *delta* between the two fault
    /// sets plus O(domains) reference counts, not to the cluster:
    ///
    /// * an aggregation domain whose fault words are unchanged
    ///   ([`FaultSet::range_eq`] against the old raw set) contributes
    ///   nothing — its segment slice is `Arc`-cloned and its words of the
    ///   expanded set are already correct;
    /// * a dirty domain splices its rebuilt ToR expansion into the expanded
    ///   set ([`FaultSet::splice_range`]), exact because the ToR expansion
    ///   never crosses a domain boundary; the raw set is `faults` itself;
    /// * only segments whose own nodes' raw (resp. expanded) bits flipped
    ///   re-orchestrate their raw variant and summary (resp. aligned
    ///   variant); every other variant is carried over;
    /// * only sub-lines with a re-scanned summary recompose their suffix
    ///   summaries (O(domains) each), and the prefix sums are recomputed
    ///   from the first re-orchestrated domain on.
    ///
    /// Bit-exactness versus the cold rebuild follows from
    /// `orchestrate_dcn_free` and [`RunSummary::of`] being deterministic
    /// functions of the fault bits on the segment's own nodes: an unchanged
    /// fingerprint implies an identical placement and summary, so cloning
    /// them is indistinguishable from recomputing them. Pinned field-for-field
    /// by the patch proptests below.
    pub(crate) fn patch_scratch(
        &self,
        request: &OrchestrationRequest,
        old: &SearchScratch,
        faults: &FaultSet,
    ) -> (SearchScratch, ScratchPatchStats) {
        let p = self.deployment.sublines();
        let npd = self.fat_tree.nodes_per_aggregation_domain();
        let n_domains = self.alignment_constraints();

        let mut expanded = old.expanded.clone();
        let mut domains = old.domains.clone();
        let mut resummarize = vec![false; p];
        let mut first_rebuilt = domains.len();
        let mut stats = ScratchPatchStats::default();
        for domain in 0..n_domains {
            let (lo, hi) = (domain * npd, (domain + 1) * npd);
            if faults.range_eq(&old.raw, lo, hi) {
                continue;
            }
            stats.domains_patched += 1;
            // Rebuild this domain's ToR expansion (it adds only in-domain
            // bits — `npd` is a multiple of `p`) and splice it in. A raw
            // flip dirties the raw variant of the flipped node's sub-line,
            // an expansion flip its aligned variant.
            let mut domain_expanded = FaultSet::new();
            for node in faults.iter_range(lo, hi) {
                domain_expanded.add(node);
                self.expand_tor(&mut domain_expanded, node);
            }
            let raw_dirty = flipped_sublines(p, faults, &old.raw, lo, hi);
            let aligned_dirty = flipped_sublines(p, &domain_expanded, &old.expanded, lo, hi);
            expanded.splice_range(&domain_expanded, lo, hi);
            let Some(slot) = domains.get_mut(domain) else {
                continue;
            };
            first_rebuilt = first_rebuilt.min(domain);
            let mut rebuilt = Vec::with_capacity(p);
            for (subline, cache) in slot.iter().enumerate() {
                let (raw_hit, aligned_hit) = (raw_dirty[subline], aligned_dirty[subline]);
                if !raw_hit && !aligned_hit {
                    rebuilt.push(cache.clone());
                    continue;
                }
                stats.segments_reorchestrated += 1;
                resummarize[subline] |= raw_hit;
                let nodes = self.segment_nodes(subline, domain);
                let orchestrate = |faults: &FaultSet| {
                    orchestrate_dcn_free(&nodes, request.k, faults, request.nodes_per_group)
                };
                rebuilt.push(if raw_hit {
                    SegmentCache::new(
                        orchestrate(faults),
                        if aligned_hit {
                            orchestrate(&expanded)
                        } else {
                            cache.aligned.clone()
                        },
                        Self::segment_summary(request, &nodes, faults),
                    )
                } else {
                    SegmentCache::new(cache.raw.clone(), orchestrate(&expanded), cache.summary)
                });
            }
            *slot = rebuilt.into();
        }

        // Faults past the last aggregation domain are never ToR-expanded and
        // own no segment: splice them in raw.
        let tail = n_domains * npd;
        if !faults.range_eq(&old.raw, tail, usize::MAX) {
            expanded.splice_range(faults, tail, usize::MAX);
        }

        stats.segments_reused = old.segment_count() - stats.segments_reorchestrated;
        let suffixes = (0..p)
            .map(|subline| {
                if resummarize[subline] {
                    Self::subline_suffix(request, &domains, subline)
                } else {
                    Arc::clone(&old.suffixes[subline])
                }
            })
            .collect();
        let carried = first_rebuilt * p;
        let mut raw_prefix = old.raw_prefix[..=carried].to_vec();
        let mut aligned_prefix = old.aligned_prefix[..=carried].to_vec();
        extend_prefix_sums(
            &mut raw_prefix,
            &mut aligned_prefix,
            &domains[first_rebuilt..],
        );
        let scratch = SearchScratch {
            domains,
            suffixes,
            raw_prefix,
            aligned_prefix,
            raw: faults.clone(),
            expanded,
        };
        (scratch, stats)
    }

    /// [`placement_with_constraints`](Self::placement_with_constraints)
    /// against a prebuilt [`SearchScratch`]: constrained segments copy their
    /// memoized placements, the residual pass streams the probe's residual
    /// line through the linear-scan kernel, and no fault set is cloned.
    /// Bit-identical to the uncached path (pinned by the memoization
    /// invariance test).
    pub(crate) fn placement_with_constraints_cached(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        n_constraints: usize,
    ) -> PlacementScheme {
        let mut scheme = PlacementScheme::new();
        let mut cutter = GroupCutter::new(request.nodes_per_group);
        self.walk_probe(
            request,
            scratch,
            n_constraints,
            |placed, _| scheme.groups.extend_from_slice(&placed.groups),
            &mut cutter,
        );
        scheme.extend(cutter.scheme);
        self.assign_dp_ranks(&mut scheme);
        scheme
    }

    /// `placement_with_constraints_cached(request, scratch, n_constraints)
    /// .nodes_placed()` in O(p) without the placement: the constrained
    /// segments contribute a prefix-sum difference, each residual sub-line
    /// one precomposed suffix summary applied to the running counter, and
    /// only the unowned tail (fewer than `p` nodes) is scanned. Nothing is
    /// allocated, so every search sharing the scratch can afford to recount.
    pub(crate) fn placed_nodes(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        n_constraints: usize,
    ) -> usize {
        let p = self.deployment.sublines();
        let (constrained, aligned) = self.probe_shape(scratch, n_constraints);
        let split = (aligned * p).min(constrained);
        let segment_nodes = scratch.aligned_prefix[split] + scratch.raw_prefix[constrained]
            - scratch.raw_prefix[split];
        // The suffixes are raw-fault summaries: with an aligned domain every
        // segment is constrained, so each suffix read here is empty.
        let mut gap = 0usize;
        let mut counter = GroupCounter::new(request.nodes_per_group);
        for (subline, suffix) in scratch.suffixes.iter().enumerate() {
            suffix[resume_domain(constrained, p, subline)].apply(&mut gap, &mut counter);
        }
        scan_khop_runs_from(
            gap,
            self.tail(),
            request.k,
            |&n| self.probe_faulty(scratch, aligned, n),
            &mut counter,
        );
        segment_nodes + counter.placed
    }

    /// The O(cluster) count [`placed_nodes`](Self::placed_nodes) is pinned
    /// to: the materializing walk with a counting sink.
    #[cfg(test)]
    fn placed_nodes_by_walk(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        n_constraints: usize,
    ) -> usize {
        let mut segment_nodes = 0usize;
        let mut counter = GroupCounter::new(request.nodes_per_group);
        self.walk_probe(
            request,
            scratch,
            n_constraints,
            |_, nodes| segment_nodes += nodes,
            &mut counter,
        );
        segment_nodes + counter.placed
    }

    /// The shape of a probe with `n_constraints` constraints: how many
    /// segments are constrained and how many domains aligned.
    fn probe_shape(&self, scratch: &SearchScratch, n_constraints: usize) -> (usize, usize) {
        let n_segments = self.segment_constraints();
        (
            n_constraints.min(n_segments).min(scratch.segment_count()),
            n_constraints
                .saturating_sub(n_segments)
                .min(self.alignment_constraints()),
        )
    }

    /// Whether `node` is faulty in a probe with `aligned_domains` aligned
    /// domains.
    fn probe_faulty(&self, scratch: &SearchScratch, aligned_domains: usize, node: NodeId) -> bool {
        let faults =
            if node.index() / self.fat_tree.nodes_per_aggregation_domain() < aligned_domains {
                &scratch.expanded
            } else {
                &scratch.raw
            };
        faults.is_faulty(node)
    }

    /// The nodes no sub-line segment owns — the trailing partial rack —
    /// in deployment order.
    fn tail(&self) -> impl Iterator<Item = NodeId> {
        let owned = self.deployment.subline_length() * self.deployment.sublines();
        (owned..self.fat_tree.nodes()).map(NodeId)
    }

    /// The residual line of a probe with `constrained` constrained segments:
    /// the deployment order minus those segments' nodes, i.e. every sub-line
    /// from its [`resume_domain`] on, then the [`tail`](Self::tail).
    fn residual(&self, constrained: usize) -> impl Iterator<Item = NodeId> + '_ {
        let p = self.deployment.sublines();
        let length = self.deployment.subline_length();
        let tors_per_domain = self.fat_tree.nodes_per_aggregation_domain() / p;
        (0..p)
            .flat_map(move |subline| {
                let from = resume_domain(constrained, p, subline) * tors_per_domain;
                (from..length).map(move |j| NodeId(subline + j * p))
            })
            .chain(self.tail())
    }

    /// The walk shared by the materializing probe and the count oracle with
    /// `n_constraints` constraints: `segment` receives the memoized variant
    /// (and its node count) of every constrained segment in segment order,
    /// then the probe's [`residual`](Self::residual) line is run-scanned
    /// into `sink` against the probe's fault rule.
    fn walk_probe<S: RunSink<NodeId>>(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        n_constraints: usize,
        mut segment: impl FnMut(&PlacementScheme, usize),
        sink: &mut S,
    ) {
        let p = self.deployment.sublines();
        let (constrained, aligned) = self.probe_shape(scratch, n_constraints);
        for (seg, cache) in scratch.segments().enumerate().take(constrained) {
            if seg / p < aligned {
                segment(&cache.aligned, cache.aligned_nodes);
            } else {
                segment(&cache.raw, cache.raw_nodes);
            }
        }
        scan_khop_runs(
            self.residual(constrained),
            request.k,
            |&n| self.probe_faulty(scratch, aligned, n),
            sink,
        );
    }

    /// `Orchestration-Fat-Tree` (Algorithms 1 and 5): search the number of
    /// constraints, keeping as many as possible while still satisfying the
    /// job scale. Returns the placement truncated to the job's group count, or
    /// an error if even the fully relaxed placement cannot satisfy the job.
    ///
    /// Equivalent to [`orchestrate_par`](Self::orchestrate_par) with one
    /// thread (and guaranteed to return the same placement).
    pub fn orchestrate(
        &self,
        request: &OrchestrationRequest,
        faults: &FaultSet,
    ) -> Result<PlacementScheme> {
        self.orchestrate_par(request, faults, 1)
    }

    /// [`orchestrate`](Self::orchestrate) with a parallel constraint search.
    ///
    /// The paper's binary search probes one constraint count per round; this
    /// implementation is a *multisection* search that probes
    /// [`SEARCH_PROBES`](Self::SEARCH_PROBES) evenly spaced constraint counts
    /// per round and fans the independent probe evaluations out over up to
    /// `threads` scoped threads. The probe ladder is fixed —
    /// `threads` only changes how the probes are *evaluated*, never which
    /// probes are chosen — so the resulting placement is identical for every
    /// thread count, and with one thread the probes are evaluated lazily from
    /// the most constrained end. Keeping the ladder identical across thread
    /// counts is a deliberate trade-off: a `threads == 1` fallback to plain
    /// bisection would be cheaper in the worst case (one evaluation per
    /// halving instead of up to [`SEARCH_PROBES`](Self::SEARCH_PROBES) per
    /// third-ing) but could return a different placement wherever feasibility
    /// is not perfectly monotone in the constraint count, breaking the
    /// harness-wide thread-count-invariance guarantee.
    pub fn orchestrate_par(
        &self,
        request: &OrchestrationRequest,
        faults: &FaultSet,
        threads: usize,
    ) -> Result<PlacementScheme> {
        request.validate()?;
        // Everything probe-invariant is computed once: the raw and
        // ToR-expanded fault sets, both placement variants and the run
        // summary of every segment, and the per-sub-line suffix summaries.
        // Each probe then only reads prefix sums and folds one suffix
        // summary per sub-line.
        let scratch = self.search_scratch(request, faults);
        self.orchestrate_with_scratch(request, &scratch, threads).0
    }

    /// The constraint search of [`orchestrate_par`](Self::orchestrate_par)
    /// against a prebuilt [`SearchScratch`], so callers answering many
    /// requests against one fault set (the placement service, the max-job
    /// search) can amortize the scratch across searches. One scratch serves every job size of its
    /// `(k, nodes_per_group)` key.
    ///
    /// Every probe is decided by a placed-node count
    /// ([`constraint_search`](Self::constraint_search)); only the winning
    /// constraint count is materialized into a placement, which is then
    /// truncated to the job's group count.
    ///
    /// The caller must have validated `request` and built `scratch` for the
    /// same `k` / `nodes_per_group`. Returns the search outcome plus the
    /// number of probes evaluated (with `threads == 1` the lazy evaluation
    /// makes this count exact, with more threads every probe of a round is
    /// evaluated eagerly).
    pub(crate) fn orchestrate_with_scratch(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        threads: usize,
    ) -> (Result<PlacementScheme>, usize) {
        let (best, probes) = self.constraint_search(request, scratch, threads);
        let job_groups = request.job_nodes.div_ceil(request.nodes_per_group);
        let outcome = match best {
            Some(n) => {
                let mut placement = self.placement_with_constraints_cached(request, scratch, n);
                placement.truncate(job_groups);
                Ok(placement)
            }
            None => Err(HbdError::infeasible(format!(
                "job needs {} nodes but the cluster cannot provide them under the current fault pattern",
                job_groups * request.nodes_per_group
            ))),
        };
        (outcome, probes)
    }

    /// Algorithm 5's search alone: the most constrained feasible constraint
    /// count (`None` when even the fully relaxed placement is too small) and
    /// the number of probes evaluated. A probe is feasible when its
    /// placed-node count ([`placed_nodes`](Self::placed_nodes)) covers the
    /// job's whole TP groups.
    pub(crate) fn constraint_search(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        threads: usize,
    ) -> (Option<usize>, usize) {
        let needed_nodes =
            request.job_nodes.div_ceil(request.nodes_per_group) * request.nodes_per_group;
        let total = self.segment_constraints() + self.alignment_constraints();
        let search = Self::multisection(0, total, threads, |n| {
            self.placed_nodes(request, scratch, n) >= needed_nodes
        });
        (search.best, search.evaluated)
    }

    /// Probes per multisection round of the constraint / job-size searches.
    pub const SEARCH_PROBES: usize = 4;

    /// Evenly spaced probe points covering `[low, high]`, endpoints included,
    /// at most [`SEARCH_PROBES`](Self::SEARCH_PROBES) of them, strictly
    /// increasing.
    pub(crate) fn probe_ladder(low: usize, high: usize) -> Vec<usize> {
        debug_assert!(low <= high);
        let span = high - low + 1;
        let count = Self::SEARCH_PROBES.min(span);
        if count <= 1 {
            return vec![low];
        }
        let mut probes: Vec<usize> = (0..count)
            .map(|i| low + (high - low) * i / (count - 1))
            .collect();
        probes.dedup();
        probes
    }

    /// The fixed-ladder multisection shared by the constraint search and the
    /// job-size search: finds the largest `x` in `[low, high]` with
    /// `feasible(x)`, assuming feasibility is (roughly) antitone. Each round
    /// probes [`probe_ladder`](Self::probe_ladder); the largest feasible
    /// probe `x` narrows the range to `(x, next probe)`, and a round with no
    /// feasible probe ends the search. With `threads > 1` a round's probes
    /// are evaluated eagerly over scoped threads, with one thread lazily from
    /// the top; the ladder, and so the result, never depends on `threads`.
    pub(crate) fn multisection<F>(
        low: usize,
        high: usize,
        threads: usize,
        feasible: F,
    ) -> Multisection
    where
        F: Fn(usize) -> bool + Sync,
    {
        let (mut low, mut high) = (low, high);
        let mut search = Multisection::default();
        while low <= high {
            let probes = Self::probe_ladder(low, high);
            search.ladder += probes.len();
            let hit = if threads > 1 {
                search.evaluated += probes.len();
                let verdicts = par_map(threads, &probes, |_, &x| feasible(x));
                probes
                    .iter()
                    .zip(verdicts)
                    .rev()
                    .find_map(|(&x, ok)| ok.then_some(x))
            } else {
                probes.iter().rev().copied().find(|&x| {
                    search.evaluated += 1;
                    feasible(x)
                })
            };
            // No feasible probe: the lowest one (== `low`) failed, so
            // nothing is left open.
            let Some(x) = hit else { break };
            // Everything above `x` up to the next probe is still open;
            // everything from the next probe on is ruled out.
            if let Some(&next) = probes.iter().find(|&&p| p > x) {
                high = next - 1;
            }
            search.best = Some(x);
            low = x + 1;
        }
        search
    }

    /// The materializing constraint search: every probe builds its full
    /// placement and decides feasibility from it. The oracle that
    /// [`orchestrate_with_scratch`](Self::orchestrate_with_scratch) is pinned
    /// to, outcome and probe count alike.
    #[cfg(test)]
    pub(crate) fn orchestrate_with_scratch_oracle(
        &self,
        request: &OrchestrationRequest,
        scratch: &SearchScratch,
        threads: usize,
    ) -> (Result<PlacementScheme>, usize) {
        let job_groups = request.job_nodes.div_ceil(request.nodes_per_group);
        let needed_nodes = job_groups * request.nodes_per_group;
        let feasible = |placement: &PlacementScheme| placement.nodes_placed() >= needed_nodes;
        let mut evaluated = 0usize;

        let mut low = 0usize;
        let mut high = self.segment_constraints() + self.alignment_constraints();
        let mut best: Option<PlacementScheme> = None;
        while low <= high {
            let probes = Self::probe_ladder(low, high);
            let hit = if threads > 1 {
                evaluated += probes.len();
                let placements = par_map(threads, &probes, |_, &n| {
                    self.placement_with_constraints_cached(request, scratch, n)
                });
                probes
                    .iter()
                    .zip(placements)
                    .rev()
                    .find(|(_, placement)| feasible(placement))
                    .map(|(&n, placement)| (n, placement))
            } else {
                probes.iter().rev().find_map(|&n| {
                    evaluated += 1;
                    let placement = self.placement_with_constraints_cached(request, scratch, n);
                    feasible(&placement).then_some((n, placement))
                })
            };
            match hit {
                Some((n, placement)) => {
                    if let Some(&next) = probes.iter().find(|&&p| p > n) {
                        high = next - 1;
                    }
                    best = Some(placement);
                    low = n + 1;
                }
                None => {
                    if low == 0 {
                        break;
                    }
                    high = low - 1;
                }
            }
        }

        let outcome = best
            .ok_or_else(|| {
                HbdError::infeasible(format!(
                    "job needs {needed_nodes} nodes but the cluster cannot provide them under the current fault pattern"
                ))
            })
            .map(|mut placement| {
                placement.truncate(job_groups);
                placement
            });
        (outcome, evaluated)
    }

    /// Orders the groups for DP-rank assignment so that groups whose rank-0
    /// nodes share a ToR (and hence, under alignment, share every rank's ToR)
    /// become DP neighbours — the "align ranks within each ToR" objective.
    fn assign_dp_ranks(&self, scheme: &mut PlacementScheme) {
        scheme.groups.sort_by_key(|group| {
            let head = group.nodes.first().copied().unwrap_or(NodeId(0));
            let tor = head.index() / self.deployment.sublines();
            let domain = head.index() / self.fat_tree.nodes_per_aggregation_domain();
            (domain, tor, head.index())
        });
    }
}

/// The domain sub-line `subline` resumes at in the residual line of a probe
/// with `constrained` constrained segments: segments are numbered
/// domain-major (`domain * p + subline`), so the sub-lines below
/// `constrained % p` have one more constrained domain than the rest.
fn resume_domain(constrained: usize, p: usize, subline: usize) -> usize {
    constrained / p + usize::from(subline < constrained % p)
}

/// Appends the raw and aligned node counts of `domains`' segments, in
/// segment order, to the running prefix sums.
fn extend_prefix_sums(
    raw_prefix: &mut Vec<usize>,
    aligned_prefix: &mut Vec<usize>,
    domains: &[Arc<[SegmentCache]>],
) {
    for cache in domains.iter().flat_map(|domain| domain.iter()) {
        raw_prefix.push(raw_prefix[raw_prefix.len() - 1] + cache.raw_nodes);
        aligned_prefix.push(aligned_prefix[aligned_prefix.len() - 1] + cache.aligned_nodes);
    }
}

/// Which sub-lines own a node in `lo..hi` whose bit differs between `new`
/// and `old` (one flag per sub-line, `node % p`).
fn flipped_sublines(p: usize, new: &FaultSet, old: &FaultSet, lo: usize, hi: usize) -> Vec<bool> {
    let mut flags = vec![false; p];
    let added = new.iter_range(lo, hi).filter(|&n| !old.is_faulty(n));
    let removed = old.iter_range(lo, hi).filter(|&n| !new.is_faulty(n));
    for node in added.chain(removed) {
        flags[node.index() % p] = true;
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{cross_tor_rate, TrafficModel};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The patch path's oracle: a patched scratch must be indistinguishable,
    /// field for field, from a cold [`FatTreeOrchestrator::search_scratch`]
    /// rebuild against the same fault set.
    fn assert_matches_cold_rebuild(
        orch: &FatTreeOrchestrator,
        req: &OrchestrationRequest,
        patched: &SearchScratch,
        faults: &FaultSet,
    ) -> SearchScratch {
        let cold = orch.search_scratch(req, faults);
        assert_eq!(patched.raw, cold.raw);
        assert_eq!(patched.expanded, cold.expanded);
        assert_eq!(patched.domains.len(), cold.domains.len());
        let segments = patched.segments().zip(cold.segments());
        for (seg, (p, c)) in segments.enumerate() {
            assert_eq!(p.raw, c.raw, "segment {seg} raw placement");
            assert_eq!(p.aligned, c.aligned, "segment {seg} aligned placement");
            assert_eq!(p.raw_nodes, c.raw_nodes, "segment {seg} raw count");
            assert_eq!(
                p.aligned_nodes, c.aligned_nodes,
                "segment {seg} aligned count"
            );
            assert_eq!(p.summary, c.summary, "segment {seg} summary");
        }
        assert_eq!(patched.segment_count(), cold.segment_count());
        assert_eq!(patched.suffixes, cold.suffixes);
        assert_eq!(patched.raw_prefix, cold.raw_prefix);
        assert_eq!(patched.aligned_prefix, cold.aligned_prefix);
        cold
    }

    /// Every constraint count of the search range, `0..=total`.
    fn constraint_counts(orch: &FatTreeOrchestrator) -> std::ops::RangeInclusive<usize> {
        0..=orch.segment_constraints() + orch.alignment_constraints()
    }

    fn orchestrator() -> FatTreeOrchestrator {
        // 512 nodes, 16 per ToR, 8 ToRs per aggregation domain (so one sub-line
        // segment can host a full 8-node TP group, as in the paper's 8k-GPU
        // setup).
        FatTreeOrchestrator::new(FatTree::new(512, 16, 8).unwrap()).unwrap()
    }

    fn request(job_nodes: usize) -> OrchestrationRequest {
        OrchestrationRequest {
            job_nodes,
            nodes_per_group: 8,
            k: 2,
        }
    }

    #[test]
    fn constraint_pools_match_layout() {
        let orch = orchestrator();
        assert_eq!(orch.alignment_constraints(), 4);
        assert_eq!(orch.segment_constraints(), 4 * 16);
    }

    #[test]
    fn healthy_cluster_satisfies_large_jobs_with_full_constraints() {
        let orch = orchestrator();
        let placement = orch.orchestrate(&request(384), &FaultSet::new()).unwrap();
        assert!(placement.nodes_placed() >= 384);
        assert!(placement.validate(8, &BTreeSet::new()).is_ok());
    }

    #[test]
    fn orchestrated_placement_has_near_zero_cross_tor_traffic() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..10).map(|i| NodeId(i * 37)));
        let placement = orch.orchestrate(&request(400), &faults).unwrap();
        let rate = cross_tor_rate(&placement, orch.fat_tree(), &TrafficModel::paper_tp32());
        assert!(
            rate < 0.02,
            "optimized cross-ToR rate should be near zero, got {rate}"
        );
    }

    #[test]
    fn relaxing_constraints_increases_capacity() {
        let orch = orchestrator();
        // Concentrated faults in domain 0 make constrained placement expensive.
        let faults = FaultSet::from_nodes((0..32).map(NodeId));
        let req = request(400);
        let strict = orch.placement_with_constraints(
            &req,
            &faults,
            orch.segment_constraints() + orch.alignment_constraints(),
        );
        let relaxed = orch.placement_with_constraints(&req, &faults, 0);
        assert!(relaxed.nodes_placed() >= strict.nodes_placed());
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        let orch = orchestrator();
        assert!(orch.orchestrate(&request(1000), &FaultSet::new()).is_err());
        // Invalid request parameters are rejected too.
        let bad = OrchestrationRequest {
            job_nodes: 0,
            nodes_per_group: 8,
            k: 2,
        };
        assert!(orch.orchestrate(&bad, &FaultSet::new()).is_err());
    }

    #[test]
    fn parallel_search_matches_sequential() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..24).map(|i| NodeId(i * 17)));
        let req = request(400);
        let seq = orch.orchestrate(&req, &faults).unwrap();
        let par = orch.orchestrate_par(&req, &faults, 4).unwrap();
        assert_eq!(seq, par);
        let wide = orch.orchestrate_par(&req, &faults, 16).unwrap();
        assert_eq!(seq, wide);
    }

    #[test]
    fn probe_ladder_is_sane() {
        assert_eq!(FatTreeOrchestrator::probe_ladder(3, 3), vec![3]);
        assert_eq!(FatTreeOrchestrator::probe_ladder(0, 2), vec![0, 1, 2]);
        let ladder = FatTreeOrchestrator::probe_ladder(0, 68);
        assert_eq!(ladder.first(), Some(&0));
        assert_eq!(ladder.last(), Some(&68));
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        assert!(ladder.len() <= FatTreeOrchestrator::SEARCH_PROBES);
    }

    #[test]
    fn cached_search_matches_uncached_probes_for_any_thread_count() {
        // Memoization invariance: every probe of the constraint ladder places
        // identically with and without the per-search cache, and the full
        // search result is identical for 1 / 4 / 16 threads.
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..30).map(|i| NodeId(i * 13)));
        let req = request(360);
        let scratch = orch.search_scratch(&req, &faults);
        let total = orch.segment_constraints() + orch.alignment_constraints();
        for n in 0..=total {
            let cached = orch.placement_with_constraints_cached(&req, &scratch, n);
            let uncached = orch.placement_with_constraints(&req, &faults, n);
            assert_eq!(cached, uncached, "constraint count {n}");
        }
        let seq = orch.orchestrate_par(&req, &faults, 1).unwrap();
        for threads in [4usize, 16] {
            assert_eq!(
                seq,
                orch.orchestrate_par(&req, &faults, threads).unwrap(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn one_scratch_serves_every_job_size_with_unchanged_faults() {
        // The scratch depends only on (k, nodes_per_group, faults): reusing
        // one scratch across consecutive searches with different job sizes
        // must match a fresh scratch per search, including the infeasible
        // outcome past the cluster's capacity.
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..20).map(|i| NodeId(i * 19)));
        let scratch = orch.search_scratch(&request(1), &faults);
        for job_nodes in [8usize, 64, 200, 360, 480, 1000] {
            let req = request(job_nodes);
            let (reused, probes) = orch.orchestrate_with_scratch(&req, &scratch, 1);
            assert!(probes > 0, "job_nodes {job_nodes}");
            assert_eq!(
                reused,
                orch.orchestrate_par(&req, &faults, 1),
                "job_nodes {job_nodes}"
            );
        }
    }

    #[test]
    fn empty_delta_patch_reuses_every_segment() {
        let orch = orchestrator();
        let req = request(360);
        let faults = FaultSet::from_nodes((0..20).map(|i| NodeId(i * 23)));
        let scratch = orch.search_scratch(&req, &faults);
        let (patched, stats) = orch.patch_scratch(&req, &scratch, &faults);
        assert_eq!(stats.domains_patched, 0);
        assert_eq!(stats.segments_reorchestrated, 0);
        assert_eq!(stats.segments_reused, scratch.segment_count());
        assert_matches_cold_rebuild(&orch, &req, &patched, &faults);
    }

    #[test]
    fn full_delta_patch_matches_cold_rebuild_exactly() {
        // A delta flipping a node in every sub-line of every domain dirties
        // every segment; the patched scratch must still equal a cold rebuild.
        let orch = orchestrator();
        let req = request(360);
        let old = FaultSet::from_nodes([NodeId(5)]);
        let scratch = orch.search_scratch(&req, &old);
        let p = orch.deployment().sublines();
        let new = FaultSet::from_nodes((0..orch.fat_tree().nodes() / p).map(|t| NodeId(t * p)));
        let (patched, stats) = orch.patch_scratch(&req, &scratch, &new);
        assert_eq!(stats.domains_patched, orch.alignment_constraints());
        assert_eq!(stats.segments_reorchestrated, scratch.segment_count());
        assert_eq!(stats.segments_reused, 0);
        assert_matches_cold_rebuild(&orch, &req, &patched, &new);
    }

    #[test]
    fn small_delta_patch_reorchestrates_only_touched_sublines() {
        let orch = orchestrator();
        let req = request(360);
        let faults = FaultSet::from_nodes([NodeId(40), NodeId(300)]);
        let scratch = orch.search_scratch(&req, &faults);
        // One added fault: it dirties its own sub-line's raw variant and, via
        // the ToR expansion, the aligned variants of its rack peers' sub-lines
        // — never a segment of another domain.
        let mut bumped = faults.clone();
        bumped.add(NodeId(129));
        let (patched, stats) = orch.patch_scratch(&req, &scratch, &bumped);
        assert_eq!(stats.domains_patched, 1);
        assert!(stats.segments_reorchestrated <= orch.deployment().sublines());
        assert_eq!(
            stats.segments_reused + stats.segments_reorchestrated,
            scratch.segment_count()
        );
        assert_matches_cold_rebuild(&orch, &req, &patched, &bumped);
    }

    #[test]
    fn occupy_release_round_trip_returns_to_the_prior_fingerprint() {
        let orch = orchestrator();
        let req = request(360);
        let base = FaultSet::from_nodes((0..12).map(|i| NodeId(i * 31)));
        let origin = orch.search_scratch(&req, &base);
        // Occupy a handful of nodes, then release them: the fingerprint is
        // back to `base` and the twice-patched scratch must equal the origin.
        let mut occupied = base.clone();
        for id in [64usize, 65, 200, 450] {
            occupied.add(NodeId(id));
        }
        let (mid, _) = orch.patch_scratch(&req, &origin, &occupied);
        assert_matches_cold_rebuild(&orch, &req, &mid, &occupied);
        let (back, _) = orch.patch_scratch(&req, &mid, &base);
        assert_eq!(back.raw, origin.raw);
        assert_matches_cold_rebuild(&orch, &req, &back, &base);
    }

    #[test]
    fn tail_faults_beyond_the_domains_are_patched_raw() {
        // Ids past the last aggregation domain (out-of-cluster trace ids) sit
        // in the unexpanded tail of every effective set; a delta there must
        // splice raw bits and reuse every segment.
        let orch = orchestrator();
        let req = request(360);
        let faults = FaultSet::from_nodes([NodeId(3), NodeId(550)]);
        let scratch = orch.search_scratch(&req, &faults);
        let mut moved = faults.clone();
        moved.remove(NodeId(550));
        moved.add(NodeId(600));
        let (patched, stats) = orch.patch_scratch(&req, &scratch, &moved);
        assert_eq!(stats.domains_patched, 0);
        assert_eq!(stats.segments_reorchestrated, 0);
        assert_matches_cold_rebuild(&orch, &req, &patched, &moved);
    }

    #[test]
    fn multisection_finds_the_largest_feasible_value_for_any_thread_count() {
        for threshold in [0usize, 1, 17, 68, 69] {
            let seq = FatTreeOrchestrator::multisection(0, 68, 1, |x| x < threshold);
            let par = FatTreeOrchestrator::multisection(0, 68, 4, |x| x < threshold);
            assert_eq!(seq.best, threshold.checked_sub(1), "threshold {threshold}");
            assert_eq!(seq.best, par.best);
            assert_eq!(seq.ladder, par.ladder);
            assert_eq!(par.evaluated, par.ladder);
            assert!(seq.evaluated <= seq.ladder);
        }
        let empty = FatTreeOrchestrator::multisection(1, 0, 1, |_| true);
        assert_eq!((empty.best, empty.ladder, empty.evaluated), (None, 0, 0));
    }

    #[test]
    fn counts_are_memoized_in_the_scratch() {
        // Counts read only the scratch: two searches of different job sizes
        // on one shared scratch see the materialized placements' counts.
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..30).map(|i| NodeId(i * 13)));
        let scratch = orch.search_scratch(&request(360), &faults);
        for req in [request(360), request(64)] {
            let (best, _) = orch.constraint_search(&req, &scratch, 1);
            assert!(best.is_some(), "job {}", req.job_nodes);
            for n in constraint_counts(&orch) {
                let placed = orch.placement_with_constraints_cached(&req, &scratch, n);
                assert_eq!(
                    orch.placed_nodes(&req, &scratch, n),
                    placed.nodes_placed(),
                    "job {} constraint count {n}",
                    req.job_nodes
                );
            }
        }
    }

    /// Layouts `(nodes, nodes_per_tor, tors_per_domain)` with full racks and
    /// domains, a partial last domain, and trailing partial racks.
    const LAYOUTS: [(usize, usize, usize); 4] =
        [(512, 16, 8), (600, 16, 4), (515, 4, 3), (97, 5, 2)];

    fn layout(pick: usize) -> FatTreeOrchestrator {
        let (nodes, per_tor, per_domain) = LAYOUTS[pick];
        FatTreeOrchestrator::new(FatTree::new(nodes, per_tor, per_domain).unwrap()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The count-only probe is the materializing probe's node count, for
        /// every constraint count, K and group size — including fault ids
        /// past the last aggregation domain.
        #[test]
        fn memoized_counts_match_materialized_placements(
            fault_ids in proptest::collection::vec(0usize..600, 0..80),
            k in 1usize..=3,
            m_pick in 0usize..3,
        ) {
            let orch = orchestrator();
            let req = OrchestrationRequest {
                job_nodes: 1,
                nodes_per_group: [4usize, 8, 16][m_pick],
                k,
            };
            let faults = FaultSet::from_nodes(fault_ids.into_iter().map(NodeId));
            let scratch = orch.search_scratch(&req, &faults);
            for n in constraint_counts(&orch) {
                let oracle = orch.placement_with_constraints(&req, &faults, n).nodes_placed();
                prop_assert_eq!(orch.placed_nodes(&req, &scratch, n), oracle, "n {}", n);
            }
        }

        /// The O(p) count is the O(cluster) residual walk's count and the
        /// uncached placement's node count, for every constraint count, on
        /// layouts with partial racks and partial last domains, K from 1 to
        /// 4, group sizes from 1 to 16 and fault ids past the cluster.
        #[test]
        fn summed_counts_match_the_residual_walk_and_uncached_placements(
            pick in 0usize..LAYOUTS.len(),
            fault_draws in proptest::collection::vec(0usize..10_000, 0..80),
            k in 1usize..=4,
            m_pick in 0usize..4,
        ) {
            let orch = layout(pick);
            let nodes = orch.fat_tree().nodes();
            let req = OrchestrationRequest {
                job_nodes: 1,
                nodes_per_group: [1usize, 3, 8, 16][m_pick],
                k,
            };
            // Ids up to a quarter past the cluster.
            let faults =
                FaultSet::from_nodes(fault_draws.iter().map(|&d| NodeId(d % (nodes + nodes / 4))));
            let scratch = orch.search_scratch(&req, &faults);
            for n in constraint_counts(&orch) {
                let count = orch.placed_nodes(&req, &scratch, n);
                prop_assert_eq!(count, orch.placed_nodes_by_walk(&req, &scratch, n), "n {}", n);
                let uncached = orch.placement_with_constraints(&req, &faults, n);
                prop_assert_eq!(count, uncached.nodes_placed(), "n {}", n);
            }
        }

        /// Deciding probes by counts changes nothing: outcome and probe
        /// count match the materializing search, for 1 and 4 threads, on one
        /// shared scratch across job sizes.
        #[test]
        fn count_search_matches_the_materializing_oracle(
            fault_ids in proptest::collection::vec(0usize..600, 0..80),
            k in 1usize..=3,
            m_pick in 0usize..3,
            job_sizes in proptest::collection::vec(1usize..560, 1..6),
        ) {
            let orch = orchestrator();
            let nodes_per_group = [4usize, 8, 16][m_pick];
            let faults = FaultSet::from_nodes(fault_ids.into_iter().map(NodeId));
            let template = OrchestrationRequest { job_nodes: 1, nodes_per_group, k };
            let shared = orch.search_scratch(&template, &faults);
            let oracle_scratch = orch.search_scratch(&template, &faults);
            for job_nodes in job_sizes {
                let req = OrchestrationRequest { job_nodes, nodes_per_group, k };
                for threads in [1usize, 4] {
                    let (fast, fast_probes) = orch.orchestrate_with_scratch(&req, &shared, threads);
                    let (slow, slow_probes) =
                        orch.orchestrate_with_scratch_oracle(&req, &oracle_scratch, threads);
                    prop_assert_eq!(fast, slow, "job {} threads {}", job_nodes, threads);
                    prop_assert_eq!(fast_probes, slow_probes, "job {} threads {}", job_nodes, threads);
                }
            }
        }

        /// After a delta, every count a patched scratch gives equals the cold
        /// rebuild's, on every layout.
        #[test]
        fn patched_counts_match_cold_rebuild_counts(
            pick in 0usize..LAYOUTS.len(),
            initial in proptest::collection::vec(0usize..10_000, 0..40),
            delta in proptest::collection::vec((0usize..10_000, 0usize..2), 1..16),
            k in 1usize..=3,
        ) {
            let orch = layout(pick);
            let nodes = orch.fat_tree().nodes();
            let id = |draw: usize| NodeId(draw % (nodes + nodes / 4));
            let req = OrchestrationRequest { job_nodes: 1, nodes_per_group: 8, k };
            let mut live = FaultSet::from_nodes(initial.into_iter().map(id));
            let old = orch.search_scratch(&req, &live);
            for (draw, flag) in delta {
                if flag == 1 {
                    live.add(id(draw));
                } else {
                    live.remove(id(draw));
                }
            }
            let (patched, _) = orch.patch_scratch(&req, &old, &live);
            let cold = assert_matches_cold_rebuild(&orch, &req, &patched, &live);
            for n in constraint_counts(&orch) {
                prop_assert_eq!(
                    orch.placed_nodes(&req, &patched, n),
                    orch.placed_nodes(&req, &cold, n),
                    "n {}", n
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The incremental-publish pin: chained patches over random delta
        /// sequences stay bit-identical to cold rebuilds — scratch fields,
        /// search answers and probe counts alike, for 1 and 4 threads.
        #[test]
        fn chained_patches_match_cold_rebuilds_over_random_deltas(
            initial in proptest::collection::vec(0usize..600, 0..40),
            deltas in proptest::collection::vec(
                proptest::collection::vec((0usize..600, 0usize..2), 1..12),
                1..5,
            ),
        ) {
            let orch = orchestrator();
            let req = request(360);
            let mut live = FaultSet::from_nodes(initial.into_iter().map(NodeId));
            let mut scratch = orch.search_scratch(&req, &live);
            for delta in deltas {
                for (id, flag) in delta {
                    if flag == 1 {
                        live.add(NodeId(id));
                    } else {
                        live.remove(NodeId(id));
                    }
                }
                let (patched, stats) = orch.patch_scratch(&req, &scratch, &live);
                prop_assert_eq!(
                    stats.segments_reused + stats.segments_reorchestrated,
                    scratch.segment_count()
                );
                let cold = assert_matches_cold_rebuild(&orch, &req, &patched, &live);
                for threads in [1usize, 4] {
                    let (fast, fast_probes) =
                        orch.orchestrate_with_scratch(&req, &patched, threads);
                    let (slow, slow_probes) =
                        orch.orchestrate_with_scratch(&req, &cold, threads);
                    prop_assert_eq!(fast, slow, "threads {}", threads);
                    prop_assert_eq!(fast_probes, slow_probes, "threads {}", threads);
                }
                scratch = patched;
            }
        }
    }

    #[test]
    fn placement_never_uses_faulty_nodes() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..40).map(|i| NodeId(i * 11)));
        let placement = orch.orchestrate(&request(300), &faults).unwrap();
        let faulty: BTreeSet<NodeId> = faults.iter().collect();
        assert!(placement.validate(8, &faulty).is_ok());
    }

    #[test]
    fn groups_respect_the_requested_size() {
        let orch = orchestrator();
        let placement = orch.orchestrate(&request(128), &FaultSet::new()).unwrap();
        assert!(placement.groups.iter().all(|g| g.len() == 8));
        assert_eq!(placement.len(), 16);
    }
}
