//! `serve_steady` and `serve_churn`: one closed-loop caller sending batches
//! of placement queries to `orchestrator::service::PlacementService` on a
//! datacenter-scale Fat-Tree snapshot, with fault/repair and job churn
//! published through `SnapshotStore::publish_delta` either rarely (steady)
//! or before every batch (churn).

use crate::report::Outcome;
use crate::sys::{self, Fnv, Meter};
use crate::trace::Tracer;
use bench::experiments::ext_service_throughput::random_query;
use infinitehbd::dcn::jobmix::ExclusionLedger;
use infinitehbd::fault::{generate_events, GeneratorConfig, NodeEvent, NodeEventKind};
use infinitehbd::hbd_types::epoch::Versioned;
use infinitehbd::hbd_types::{stream_seed, NodeId, Seconds};
use infinitehbd::orchestrator::search::max_orchestratable_job;
use infinitehbd::orchestrator::service::{
    BatchReport, ClusterSnapshot, ModeledLatency, PlacementAnswer, PlacementQuery,
    PlacementService, SnapshotDelta, SnapshotStore,
};
use infinitehbd::orchestrator::{
    FatTreeOrchestrator, OrchestrationRequest, PlacementScheme, TpGroup,
};
use infinitehbd::topology::{FatTree, FaultSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Fat-Tree size (16 nodes per ToR, 8 ToRs per aggregation domain).
    pub nodes: usize,
    /// A delta is published before every `publish_every`-th batch.
    pub publish_every: usize,
    /// Every `job_every`-th publish also starts or ends a one-ToR job
    /// (0: no job churn).
    pub job_every: usize,
    /// Batches whose answers are fingerprinted and whose counters are
    /// reported: a fixed prefix, so both repeat exactly for a given seed
    /// whatever the machine's speed.
    pub prefix: usize,
    /// Answers re-derived by the single-query oracles, per query kind.
    pub samples_per_kind: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
}

/// Queries per `answer_batch` call.
const BATCH: usize = 32;
/// Fault/repair exclusion flips carried by each published delta.
const FAULT_FLIPS: usize = 8;
const NODES_PER_TOR: usize = 16;
const TORS_PER_DOMAIN: usize = 8;
/// Steady-state fault ratio of the fault/repair process (and so of the
/// initial snapshot).
const FAULT_RATIO: f64 = 0.02;
/// The initial snapshot is the fault process's state after this long, by
/// which it is stationary (node states independent, ~`FAULT_RATIO` down).
const WARM_HOURS: f64 = 24.0;
const HORIZON_HOURS: f64 = 96.0;
/// Jobs running at once under job churn.
const MAX_JOBS: usize = 8;
/// Every `SAMPLE_EVERY`-th batch offers one answer to the oracle sample.
const SAMPLE_EVERY: usize = 8;

impl ServeConfig {
    /// `serve_steady`: at most 2 % of batches follow a (fault-only) publish.
    pub fn steady() -> Self {
        ServeConfig {
            nodes: 16384,
            publish_every: 50,
            job_every: 0,
            prefix: 64,
            samples_per_kind: 4,
            setups: 5,
        }
    }

    /// `serve_churn`: a fault/repair and job delta before every batch.
    pub fn churn() -> Self {
        ServeConfig {
            publish_every: 1,
            job_every: 4,
            ..Self::steady()
        }
    }
}

/// The seeded fault/repair stream and one-ToR jobs that feed the exclusion
/// ledger; each call to [`Churn::next_delta`] drains one publish's delta.
struct Churn {
    events: Vec<NodeEvent>,
    /// First edge after the warm-up cut; the stream wraps back to it.
    first: usize,
    cursor: usize,
    running: VecDeque<(usize, PlacementScheme)>,
    busy_tors: BTreeSet<usize>,
    publishes: usize,
    rng: StdRng,
}

impl Churn {
    /// Builds the stream and returns it with the initial fault set.
    fn new(nodes: usize, seed: u64) -> (Churn, FaultSet) {
        let events = generate_events(
            &GeneratorConfig {
                nodes,
                duration: Seconds::from_hours(HORIZON_HOURS),
                steady_state_fault_ratio: FAULT_RATIO,
                mean_time_to_repair: Seconds::from_hours(1.0),
            },
            stream_seed(seed, 1),
        )
        .expect("valid fault process");
        let cut = Seconds::from_hours(WARM_HOURS).value();
        let mut faults = FaultSet::new();
        let mut first = events.len();
        for (i, event) in events.iter().enumerate() {
            if event.at.value() >= cut {
                first = i;
                break;
            }
            match event.kind {
                NodeEventKind::Fault => faults.add(event.node),
                NodeEventKind::Repair => faults.remove(event.node),
            };
        }
        assert!(first < events.len(), "fault stream outlasts the warm-up");
        let churn = Churn {
            events,
            first,
            cursor: first,
            running: VecDeque::new(),
            busy_tors: BTreeSet::new(),
            publishes: 0,
            rng: StdRng::seed_from_u64(stream_seed(seed, 4)),
        };
        (churn, faults)
    }

    /// Feeds the ledger until `FAULT_FLIPS` exclusion flips are pending,
    /// plus a job start or end every `job_every`-th call, and takes the
    /// pending delta.
    fn next_delta(&mut self, ledger: &mut ExclusionLedger, config: &ServeConfig) -> SnapshotDelta {
        while ledger.pending_delta().len() < FAULT_FLIPS {
            let event = self.events[self.cursor];
            self.cursor += 1;
            if self.cursor == self.events.len() {
                self.cursor = self.first;
            }
            ledger.apply_availability_burst([(event.node, event.kind == NodeEventKind::Fault)]);
        }
        self.publishes += 1;
        if config.job_every > 0 && self.publishes.is_multiple_of(config.job_every) {
            if self.running.len() < MAX_JOBS {
                let tors = config.nodes / NODES_PER_TOR;
                let tor = loop {
                    let tor = self.rng.gen_range(0..tors);
                    if self.busy_tors.insert(tor) {
                        break tor;
                    }
                };
                // One job of two 8-node TP groups filling the ToR.
                let base = tor * NODES_PER_TOR;
                let scheme = PlacementScheme::from_groups(
                    (0..2)
                        .map(|g| TpGroup::new((0..8).map(|n| NodeId(base + g * 8 + n)).collect()))
                        .collect(),
                );
                ledger.place(&scheme);
                self.running.push_back((tor, scheme));
            } else if let Some((tor, scheme)) = self.running.pop_front() {
                ledger.release(&scheme);
                self.busy_tors.remove(&tor);
            }
        }
        ledger.take_pending_delta()
    }
}

/// Everything a run needs before timing starts.
struct Fixture {
    store: Arc<SnapshotStore>,
    service: PlacementService,
    ledger: ExclusionLedger,
    churn: Churn,
    queries: StdRng,
}

fn set_up(config: &ServeConfig, seed: u64, threads: usize) -> Fixture {
    let orchestrator = Arc::new(
        FatTreeOrchestrator::new(
            FatTree::new(config.nodes, NODES_PER_TOR, TORS_PER_DOMAIN).expect("valid fat-tree"),
        )
        .expect("orchestrator"),
    );
    let (churn, faults) = Churn::new(config.nodes, seed);
    let store = Arc::new(SnapshotStore::new(
        Arc::clone(&orchestrator),
        faults.clone(),
    ));
    let service = PlacementService::new(Arc::clone(&store));
    // Warm-up: the first (cold) scratch builds. Every `Place` and `MaxJob`
    // shape of the query mix once, and no what-if, so that the set-up does
    // the same work whatever the seed.
    service.answer_batch(&warm_up_batch(config.nodes), threads);
    Fixture {
        store,
        service,
        ledger: ExclusionLedger::with_faults(&faults),
        churn,
        queries: StdRng::seed_from_u64(stream_seed(seed, 2)),
    }
}

/// One query of every `Place` and `MaxJob` shape `random_query` draws.
fn warm_up_batch(nodes: usize) -> Vec<PlacementQuery> {
    let mut batch = Vec::new();
    for nodes_per_group in [8usize, 16] {
        for fraction in [8usize, 4, 2] {
            batch.push(PlacementQuery::Place(OrchestrationRequest {
                job_nodes: ((nodes / fraction) / nodes_per_group).max(1) * nodes_per_group,
                nodes_per_group,
                k: 2,
            }));
        }
        batch.push(PlacementQuery::MaxJob {
            nodes_per_group,
            k: 2,
        });
    }
    batch
}

/// One answer kept for the oracle check, with the snapshot it was answered on.
#[derive(Debug, Clone)]
pub struct Sample {
    pub snapshot: Arc<Versioned<ClusterSnapshot>>,
    pub query: PlacementQuery,
    pub answer: PlacementAnswer,
}

/// Re-derives one answer with the single-query oracles of the orchestrator
/// crate against the sample's own snapshot.
pub fn oracle_answer(
    orchestrator: &FatTreeOrchestrator,
    faults: &FaultSet,
    query: &PlacementQuery,
    threads: usize,
) -> PlacementAnswer {
    match query {
        PlacementQuery::Place(request) => {
            PlacementAnswer::Placement(orchestrator.orchestrate_par(request, faults, threads))
        }
        PlacementQuery::MaxJob { nodes_per_group, k } => PlacementAnswer::MaxJob {
            job_nodes: max_orchestratable_job(orchestrator, *nodes_per_group, *k, faults, threads)
                .job_nodes,
        },
        PlacementQuery::WhatIf {
            request,
            extra_faults,
        } => {
            let mut merged = faults.clone();
            merged.union_with(extra_faults);
            PlacementAnswer::Placement(orchestrator.orchestrate_par(request, &merged, threads))
        }
    }
}

fn kind_index(query: &PlacementQuery) -> usize {
    match query {
        PlacementQuery::Place(_) => 0,
        PlacementQuery::MaxJob { .. } => 1,
        PlacementQuery::WhatIf { .. } => 2,
    }
}

const ORACLE_SPANS: [&str; 3] = ["oracle.place", "oracle.max_job", "oracle.what_if"];

/// Checks every sample against the oracles; returns how many disagree.
pub fn check_samples(samples: &[Sample], threads: usize, tracer: &mut Tracer) -> u64 {
    let mut wrong = 0;
    tracer.open("serve.check", 0);
    for (i, sample) in samples.iter().enumerate() {
        let snapshot = &sample.snapshot.value;
        let expected = tracer.span(ORACLE_SPANS[kind_index(&sample.query)], i as u64, || {
            oracle_answer(
                snapshot.orchestrator(),
                snapshot.faults(),
                &sample.query,
                threads,
            )
        });
        wrong += u64::from(expected != sample.answer);
    }
    tracer.close();
    wrong
}

fn hash_answer(h: &mut Fnv, answer: &PlacementAnswer) {
    match answer {
        PlacementAnswer::Placement(Ok(scheme)) => {
            h.u64(1);
            for group in &scheme.groups {
                h.u64(group.nodes.len() as u64);
                for node in &group.nodes {
                    h.u64(node.index() as u64);
                }
            }
        }
        PlacementAnswer::Placement(Err(error)) => {
            h.u64(2);
            h.bytes(error.to_string().as_bytes());
        }
        PlacementAnswer::MaxJob { job_nodes } => {
            h.u64(3);
            h.u64(*job_nodes as u64);
        }
    }
}

/// Keeps a seeded uniform sample of `cap` candidates per query kind.
struct Reservoir {
    cap: usize,
    seen: [usize; 3],
    kept: [Vec<Sample>; 3],
    rng: StdRng,
}

impl Reservoir {
    fn offer(&mut self, sample: Sample) {
        let kind = kind_index(&sample.query);
        self.seen[kind] += 1;
        if self.kept[kind].len() < self.cap {
            self.kept[kind].push(sample);
        } else {
            let slot = self.rng.gen_range(0..self.seen[kind]);
            if slot < self.cap {
                self.kept[kind][slot] = sample;
            }
        }
    }

    fn into_samples(self) -> Vec<Sample> {
        self.kept.into_iter().flatten().collect()
    }
}

/// Prefix counters of the answered batches.
#[derive(Debug, Default)]
struct PrefixCounts {
    batches: usize,
    queries: usize,
    shared_builds: usize,
    shared_reuses: usize,
    private_builds: usize,
    probes: usize,
    shared_state_queries: usize,
    repeated_shapes: usize,
    what_ifs: usize,
    publishes: usize,
    flips: usize,
}

/// Runs one serving workload for `seconds` and checks its answers.
pub fn run(
    config: &ServeConfig,
    seed: u64,
    seconds: f64,
    threads: usize,
    tracer: &mut Tracer,
) -> Outcome {
    let traced = tracer.enabled();
    let mut meter = Meter::new();
    let mut setups = Vec::with_capacity(config.setups);
    let mut fixture = None;
    for _ in 0..config.setups.max(1) {
        drop(fixture.take());
        let (fresh, timing) = meter.time(|| set_up(config, seed, threads));
        fixture = Some(fresh);
        setups.push(timing);
    }
    let Fixture {
        store,
        service,
        mut ledger,
        mut churn,
        mut queries,
    } = fixture.expect("at least one set-up");
    let model = ModeledLatency::for_cluster(config.nodes);

    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut ops = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut modeled_us = 0.0f64;
    let mut fresh_ms = Vec::new();
    let mut warm_ms = Vec::new();
    let mut publish_us = Vec::new();
    let mut counts = PrefixCounts::default();
    let mut fingerprint = Fnv::default();
    let mut shapes_this_epoch: BTreeSet<(usize, usize, usize, usize)> = BTreeSet::new();
    let mut reservoir = Reservoir {
        cap: config.samples_per_kind,
        seen: [0; 3],
        kept: Default::default(),
        rng: StdRng::seed_from_u64(stream_seed(seed, 5)),
    };
    let tally_before = service.patch_tally();
    let mut tally_prefix = tally_before;

    let usage_before = sys::self_usage();
    let wall = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while wall.elapsed() < budget || i < config.prefix {
        // Inputs are generated outside the operation's timer.
        let batch: Vec<PlacementQuery> = (0..BATCH)
            .map(|_| random_query(&mut queries, config.nodes))
            .collect();
        let delta = (i + 1)
            .is_multiple_of(config.publish_every)
            .then(|| churn.next_delta(&mut ledger, config));

        // Traced runs trace every other batch; the rest measure the tracing
        // overhead by difference.
        let trace_this = traced && i.is_multiple_of(2);
        tracer.set_enabled(trace_this);
        let op = i as u64;
        let ((report, publish_time, answer_ms), timing) = meter.time(|| {
            tracer.open("serve.batch", op);
            let publish_time = delta.as_ref().map(|delta| {
                let t = Instant::now();
                tracer.span("store.publish_delta", op, || store.publish_delta(delta));
                t.elapsed()
            });
            let answer_start = Instant::now();
            let report: BatchReport = tracer.span("service.answer_batch", op, || {
                service.answer_batch(&batch, threads)
            });
            let answer_ms = answer_start.elapsed().as_secs_f64() * 1e3;
            tracer.close();
            (report, publish_time, answer_ms)
        });
        tracer.set_enabled(traced);

        ops.push(timing);
        if trace_this {
            traced_ms.push(timing.scaled_s * 1e3);
        } else {
            untraced_ms.push(timing.scaled_s * 1e3);
        }
        modeled_us += model.batch_service_us(&report);
        if let Some(t) = publish_time {
            publish_us.push(t.as_secs_f64() * 1e6);
        }
        if delta.is_some() {
            fresh_ms.push(answer_ms);
            shapes_this_epoch.clear();
        } else {
            warm_ms.push(answer_ms);
        }

        // Correctness of the batch as a whole.
        attempted += batch.len() as u64;
        let answered_epoch = store.epoch();
        if report.answers.len() != batch.len() || report.epoch != answered_epoch {
            failed += batch.len() as u64;
        } else {
            failed += report.stats.rejected as u64;
        }

        if i < config.prefix {
            counts.batches += 1;
            counts.queries += batch.len();
            counts.shared_builds += report.stats.shared_scratch_builds;
            counts.shared_reuses += report.stats.shared_scratch_reuses;
            counts.private_builds += report.stats.private_scratch_builds;
            counts.probes += report.stats.probes;
            if let Some(delta) = &delta {
                counts.publishes += 1;
                counts.flips += delta.len();
            }
            fingerprint.u64(report.epoch);
            for answer in &report.answers {
                hash_answer(&mut fingerprint, answer);
            }
            for query in &batch {
                let shape = match query {
                    PlacementQuery::Place(r) => Some((0, r.k, r.nodes_per_group, r.job_nodes)),
                    PlacementQuery::MaxJob { nodes_per_group, k } => {
                        Some((1, *k, *nodes_per_group, 0))
                    }
                    PlacementQuery::WhatIf { .. } => {
                        counts.what_ifs += 1;
                        None
                    }
                };
                if let Some(shape) = shape {
                    counts.shared_state_queries += 1;
                    counts.repeated_shapes += usize::from(!shapes_this_epoch.insert(shape));
                }
            }
            if i + 1 == config.prefix {
                tally_prefix = service.patch_tally();
            }
        }

        if i % SAMPLE_EVERY == SAMPLE_EVERY - 1 && report.answers.len() == batch.len() {
            let pick = reservoir.rng.gen_range(0..batch.len());
            reservoir.offer(Sample {
                snapshot: store.load(),
                query: batch[pick].clone(),
                answer: report.answers[pick].clone(),
            });
        }
        i += 1;
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let usage_after = sys::self_usage();

    let samples = reservoir.into_samples();
    let wrong = check_samples(&samples, threads, tracer);
    failed += wrong;

    let mut out = Outcome::new(attempted, failed);
    out.set_timings(&setups, &ops, attempted as f64, &meter);
    out.set("peak_rss_mb", usage_after.peak_rss_mb);

    out.set(
        "par.cpu_util",
        sys::ratio(
            usage_after.cpu_s - usage_before.cpu_s,
            wall_s * threads as f64,
        ),
    );
    out.set("store.publish_us_p50", sys::median(&publish_us));
    out.set(
        "store.publishes",
        sys::ratio(counts.publishes as f64, counts.batches as f64),
    );
    out.set(
        "store.flips_per_publish",
        sys::ratio(counts.flips as f64, counts.publishes as f64),
    );
    out.set("service.fresh_batch_ms_p50", sys::median(&fresh_ms));
    out.set("service.warm_batch_ms_p50", sys::median(&warm_ms));
    let per_batch = |n: usize| sys::ratio(n as f64, counts.batches as f64);
    out.set("service.shared_builds", per_batch(counts.shared_builds));
    out.set("service.shared_reuses", per_batch(counts.shared_reuses));
    out.set("service.private_builds", per_batch(counts.private_builds));
    out.set(
        "service.probes_per_query",
        sys::ratio(counts.probes as f64, counts.queries as f64),
    );
    out.set(
        "service.shape_repeat_frac",
        sys::ratio(
            counts.repeated_shapes as f64,
            counts.shared_state_queries as f64,
        ),
    );
    out.set(
        "service.whatif_frac",
        sys::ratio(counts.what_ifs as f64, counts.queries as f64),
    );
    out.set(
        "service.modeled_over_measured",
        sys::ratio(modeled_us, ops.iter().map(|t| t.cpu_s).sum::<f64>() * 1e6),
    );
    let patched = tally_prefix.patched_builds - tally_before.patched_builds;
    let cold = tally_prefix.cold_builds - tally_before.cold_builds;
    let reorchestrated =
        tally_prefix.stats.segments_reorchestrated - tally_before.stats.segments_reorchestrated;
    let reused = tally_prefix.stats.segments_reused - tally_before.stats.segments_reused;
    let domains = tally_prefix.stats.domains_patched - tally_before.stats.domains_patched;
    out.set("scratch.patched", per_batch(patched));
    out.set("scratch.cold", per_batch(cold));
    out.set("scratch.segments_reorchestrated", per_batch(reorchestrated));
    out.set("scratch.domains_patched", per_batch(domains));
    out.set(
        "scratch.segment_reuse_frac",
        sys::ratio(reused as f64, (reused + reorchestrated) as f64),
    );
    if traced {
        out.set(
            "oracle.place_ms_p50",
            sys::median(&tracer.durations_us("oracle.place")) / 1e3,
        );
        out.set(
            "oracle.max_job_ms_p50",
            sys::median(&tracer.durations_us("oracle.max_job")) / 1e3,
        );
        out.set_overhead(&traced_ms, &untraced_ms);
        out.set_self_times(tracer);
    }
    out.note(
        "answer_fingerprint",
        format!("{:016x}", fingerprint.finish()),
    );
    out.note("fingerprint_batches", counts.batches.to_string());
    out.note("batches", i.to_string());
    out.note("oracle_checks", samples.len().to_string());
    out.note("oracle_mismatches", wrong.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(config: ServeConfig) -> ServeConfig {
        ServeConfig {
            nodes: 1024,
            prefix: 12,
            samples_per_kind: 2,
            setups: 1,
            ..config
        }
    }

    #[test]
    fn churn_publishes_every_batch_and_answers_match_the_oracles() {
        let config = small(ServeConfig::churn());
        let mut tracer = Tracer::new(false);
        let out = run(&config, 7, 0.0, 2, &mut tracer);
        assert_eq!(out.failed, 0);
        assert_eq!(out.get("store.publishes"), 1.0);
        assert!(out.get("store.flips_per_publish") >= FAULT_FLIPS as f64);
        assert_eq!(out.note_value("oracle_mismatches"), "0");
    }

    #[test]
    fn answers_do_not_depend_on_the_thread_count() {
        for config in [ServeConfig::steady(), ServeConfig::churn()] {
            let config = small(config);
            let one = run(&config, 11, 0.0, 1, &mut Tracer::new(false));
            let two = run(&config, 11, 0.0, 2, &mut Tracer::new(false));
            assert_eq!(
                one.note_value("answer_fingerprint"),
                two.note_value("answer_fingerprint")
            );
            assert_eq!(
                one.get("service.probes_per_query"),
                two.get("service.probes_per_query")
            );
        }
    }

    #[test]
    fn an_injected_wrong_answer_is_counted() {
        let config = small(ServeConfig::steady());
        let fixture = set_up(&config, 3, 1);
        let query = PlacementQuery::MaxJob {
            nodes_per_group: 8,
            k: 2,
        };
        let report = fixture
            .service
            .answer_batch(std::slice::from_ref(&query), 1);
        let right = Sample {
            snapshot: fixture.store.load(),
            query,
            answer: report.answers[0].clone(),
        };
        let PlacementAnswer::MaxJob { job_nodes } = right.answer else {
            panic!("max-job query answered in kind");
        };
        let mut wrong = right.clone();
        wrong.answer = PlacementAnswer::MaxJob {
            job_nodes: job_nodes + 8,
        };
        let mut tracer = Tracer::new(true);
        assert_eq!(
            check_samples(std::slice::from_ref(&right), 1, &mut tracer),
            0
        );
        assert_eq!(check_samples(&[right, wrong], 1, &mut tracer), 1);
        assert_eq!(tracer.durations_us("oracle.max_job").len(), 3);
    }
}
