//! Search for the largest orchestratable job (the capacity-planning question
//! behind Figs 15 / 17b: "how big a job can this faulty cluster still place?").
//!
//! Feasibility of a job size is decided by `Orchestration-Fat-Tree`'s
//! constraint search alone ([`FatTreeOrchestrator`]'s count-only probes: a
//! probe sums placed-node counts, it never builds a placement). Like the
//! constraint search in [`FatTreeOrchestrator::orchestrate_par`], the
//! job-size search is a fixed-ladder multisection: every round probes up to
//! [`FatTreeOrchestrator::SEARCH_PROBES`] evenly spaced job sizes and fans
//! the independent feasibility checks out over scoped threads. The ladder
//! never depends on the thread count, so the result is identical for
//! `--threads 1` and `--threads N`. Only the winning job size is
//! materialized into the reported placement.
//!
//! Because the orchestrator's per-search scratch depends only on
//! `(k, nodes_per_group, faults)` — never on the probed job size — the whole
//! job-size ladder shares **one** scratch: every constraint search of every
//! job size counts against the same segment caches and run summaries.

use crate::fat_tree::{FatTreeOrchestrator, OrchestrationRequest, SearchScratch};
use crate::scheme::PlacementScheme;
use topology::FaultSet;

/// The outcome of [`max_orchestratable_job`].
#[derive(Debug, Clone)]
pub struct MaxJobReport {
    /// The largest feasible job size, in nodes (a multiple of
    /// `nodes_per_group`); zero when not even one TP group fits.
    pub job_nodes: usize,
    /// The placement realising that job.
    pub placement: Option<PlacementScheme>,
    /// How many job sizes the search probed (ladder positions, each one
    /// constraint search).
    pub probes: usize,
}

/// Finds the largest job (in nodes, quantised to whole TP groups) that
/// `orchestrator` can place under `faults`, fanning the per-round feasibility
/// probes out over up to `threads` scoped threads.
pub fn max_orchestratable_job(
    orchestrator: &FatTreeOrchestrator,
    nodes_per_group: usize,
    k: usize,
    faults: &FaultSet,
    threads: usize,
) -> MaxJobReport {
    // One scratch for the whole ladder. A degenerate geometry
    // (`nodes_per_group == 0` or `k == 0`) cannot build a scratch; every
    // job size then fails request validation, so the search runs without
    // one and each probe is infeasible.
    let template = OrchestrationRequest {
        job_nodes: nodes_per_group.max(1),
        nodes_per_group,
        k,
    };
    let scratch = template
        .validate()
        .ok()
        .map(|_| orchestrator.search_scratch(&template, faults));
    max_job_search(orchestrator, nodes_per_group, k, scratch.as_ref(), threads)
}

/// [`max_orchestratable_job`] against a caller-provided scratch (the
/// placement service's path, where one scratch per `(k, nodes_per_group)` key
/// is shared across a whole query batch). The caller guarantees the scratch
/// was built for the same `k` / `nodes_per_group` against the fault set being
/// queried, and that both are positive. Probes run sequentially — the service
/// fans out across queries, not inside one.
pub(crate) fn max_job_with_scratch(
    orchestrator: &FatTreeOrchestrator,
    nodes_per_group: usize,
    k: usize,
    scratch: &SearchScratch,
) -> MaxJobReport {
    debug_assert!(nodes_per_group > 0 && k > 0);
    max_job_search(orchestrator, nodes_per_group, k, Some(scratch), 1)
}

/// The job-size multisection shared by both entry points: a `g`-group job
/// is feasible when its constraint search finds a constraint count, and the
/// reported probe count is the number of job sizes on the ladder — it
/// depends only on which sizes are feasible, never on `threads`.
fn max_job_search(
    orchestrator: &FatTreeOrchestrator,
    nodes_per_group: usize,
    k: usize,
    scratch: Option<&SearchScratch>,
    threads: usize,
) -> MaxJobReport {
    let total_groups = orchestrator.fat_tree().nodes() / nodes_per_group.max(1);
    let request = |groups: usize| OrchestrationRequest {
        job_nodes: groups * nodes_per_group,
        nodes_per_group,
        k,
    };
    let feasible = |groups: usize| {
        scratch.is_some_and(|scratch| {
            orchestrator
                .constraint_search(&request(groups), scratch, 1)
                .0
                .is_some()
        })
    };
    let search = FatTreeOrchestrator::multisection(1, total_groups, threads, feasible);
    // The winner's constraint search only counts; its one materialization
    // is the report's placement.
    let placement = search.best.zip(scratch).and_then(|(groups, scratch)| {
        orchestrator
            .orchestrate_with_scratch(&request(groups), scratch, 1)
            .0
            .ok()
    });
    MaxJobReport {
        job_nodes: search.best.map_or(0, |groups| groups * nodes_per_group),
        placement,
        probes: search.ladder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::par::par_map;
    use hbd_types::NodeId;
    use proptest::prelude::*;
    use topology::FatTree;

    fn orchestrator() -> FatTreeOrchestrator {
        FatTreeOrchestrator::new(FatTree::new(512, 16, 8).unwrap()).unwrap()
    }

    /// The materializing job-size search: every probe runs the
    /// materializing constraint search and carries its placement. The
    /// oracle the count-decided search is pinned to.
    fn max_job_oracle(
        orchestrator: &FatTreeOrchestrator,
        nodes_per_group: usize,
        k: usize,
        scratch: &SearchScratch,
        threads: usize,
    ) -> MaxJobReport {
        let total_groups = orchestrator.fat_tree().nodes() / nodes_per_group;
        let try_groups = |groups: usize| -> Option<PlacementScheme> {
            let request = OrchestrationRequest {
                job_nodes: groups * nodes_per_group,
                nodes_per_group,
                k,
            };
            orchestrator
                .orchestrate_with_scratch_oracle(&request, scratch, 1)
                .0
                .ok()
        };
        let (mut low, mut high) = (1usize, total_groups);
        let mut best: Option<(usize, PlacementScheme)> = None;
        let mut probes_spent = 0usize;
        while low <= high {
            let probes = FatTreeOrchestrator::probe_ladder(low, high);
            probes_spent += probes.len();
            let placements = par_map(threads, &probes, |_, &g| try_groups(g));
            let hit = probes
                .iter()
                .zip(placements)
                .rev()
                .find_map(|(&g, placement)| placement.map(|p| (g, p)));
            match hit {
                Some((g, placement)) => {
                    if let Some(&next) = probes.iter().find(|&&p| p > g) {
                        high = next - 1;
                    }
                    best = Some((g, placement));
                    low = g + 1;
                }
                None => {
                    if low <= 1 {
                        break;
                    }
                    high = low - 1;
                }
            }
        }
        MaxJobReport {
            job_nodes: best.as_ref().map_or(0, |(g, _)| g * nodes_per_group),
            placement: best.map(|(_, placement)| placement),
            probes: probes_spent,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Count-decided job-size probes change nothing: the shared-scratch
        /// and public searches match the materializing oracle on job size,
        /// probe count and placement, for 1 and 4 threads.
        #[test]
        fn max_job_search_matches_the_materializing_oracle(
            fault_ids in proptest::collection::vec(0usize..600, 0..120),
            k in 1usize..=3,
            m_pick in 0usize..3,
        ) {
            let orch = orchestrator();
            let nodes_per_group = [4usize, 8, 16][m_pick];
            let faults = FaultSet::from_nodes(fault_ids.into_iter().map(NodeId));
            let template = OrchestrationRequest { job_nodes: 1, nodes_per_group, k };
            let oracle_scratch = orch.search_scratch(&template, &faults);
            let oracle = max_job_oracle(&orch, nodes_per_group, k, &oracle_scratch, 1);
            let shared = max_job_with_scratch(
                &orch,
                nodes_per_group,
                k,
                &orch.search_scratch(&template, &faults),
            );
            prop_assert_eq!(shared.job_nodes, oracle.job_nodes);
            prop_assert_eq!(shared.probes, oracle.probes);
            prop_assert_eq!(&shared.placement, &oracle.placement);
            for threads in [1usize, 4] {
                let public = max_orchestratable_job(&orch, nodes_per_group, k, &faults, threads);
                prop_assert_eq!(public.job_nodes, oracle.job_nodes, "threads {}", threads);
                prop_assert_eq!(public.probes, oracle.probes, "threads {}", threads);
                prop_assert_eq!(&public.placement, &oracle.placement, "threads {}", threads);
                let threaded = max_job_oracle(&orch, nodes_per_group, k, &oracle_scratch, threads);
                prop_assert_eq!(threaded.probes, oracle.probes, "threads {}", threads);
            }
        }
    }

    #[test]
    fn healthy_cluster_supports_every_group() {
        let orch = orchestrator();
        let report = max_orchestratable_job(&orch, 8, 2, &FaultSet::new(), 1);
        assert_eq!(report.job_nodes, 512);
        assert!(report.placement.is_some());
        assert!(report.probes > 0);
    }

    #[test]
    fn result_is_maximal_and_thread_count_invariant() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..40).map(|i| NodeId(i * 11)));
        let seq = max_orchestratable_job(&orch, 8, 2, &faults, 1);
        let par = max_orchestratable_job(&orch, 8, 2, &faults, 4);
        assert_eq!(seq.job_nodes, par.job_nodes);
        assert_eq!(seq.probes, par.probes);
        assert!(seq.job_nodes > 0);
        assert!(seq.job_nodes < 512, "40 faulty nodes must cost capacity");
        // Maximality: one more group must be infeasible.
        let request = OrchestrationRequest {
            job_nodes: seq.job_nodes + 8,
            nodes_per_group: 8,
            k: 2,
        };
        assert!(orch.orchestrate(&request, &faults).is_err());
    }

    #[test]
    fn shared_scratch_path_matches_the_public_search() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..25).map(|i| NodeId(i * 7)));
        let template = OrchestrationRequest {
            job_nodes: 8,
            nodes_per_group: 8,
            k: 2,
        };
        let scratch = orch.search_scratch(&template, &faults);
        let shared = max_job_with_scratch(&orch, 8, 2, &scratch);
        let public = max_orchestratable_job(&orch, 8, 2, &faults, 1);
        assert_eq!(shared.job_nodes, public.job_nodes);
        assert_eq!(shared.probes, public.probes);
        assert_eq!(shared.placement, public.placement);
    }

    #[test]
    fn degenerate_geometry_is_rejected_not_panicked() {
        let orch = orchestrator();
        let report = max_orchestratable_job(&orch, 0, 2, &FaultSet::new(), 1);
        assert_eq!(report.job_nodes, 0);
        let report = max_orchestratable_job(&orch, 8, 0, &FaultSet::new(), 2);
        assert_eq!(report.job_nodes, 0);
    }

    #[test]
    fn fully_faulty_cluster_supports_nothing() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..512).map(NodeId));
        let report = max_orchestratable_job(&orch, 8, 2, &faults, 2);
        assert_eq!(report.job_nodes, 0);
        assert!(report.placement.is_none());
    }
}
