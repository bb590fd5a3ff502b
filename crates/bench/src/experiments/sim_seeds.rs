//! Extension experiment: seeded adversarial-schedule sweep of the
//! control-plane simulator (`control::sim`).
//!
//! Six message-fault profiles — from a clean channel to a hostile one mixing
//! delay jitter, reordering, duplication and loss — each replay the same kind
//! of renewal-process fault schedule across hundreds of master seeds. Every
//! run checks the convergence invariant (deployed fabric state ≡ the failover
//! planner's plan for the final fault set), so the table is a machine-checked
//! claim: *zero* violations over every seeded ordering. A failing seed can be
//! replayed in isolation with `experiments --sim-seed N --sim-profile NAME`.
//!
//! All aggregate columns are integer sums over per-seed integer counters, so
//! the table is bit-stable across `--threads` by construction.

use crate::registry::RunCtx;
use crate::Table;
use infinitehbd::control::sim;
use infinitehbd::control::{ControlLatencies, MessageFaults, SimConfig};
use infinitehbd::hbd_types::par::par_map_seeded;
use infinitehbd::hbd_types::Seconds;

/// The deployment and fault-arrival regime every profile replays: a 48-node
/// K=3 ring with latencies compressed until recoveries genuinely overlap
/// (≈70 availability edges per 600 s schedule, each landing while earlier
/// commands are still in flight on the slower channels).
pub fn base_config() -> SimConfig {
    SimConfig {
        nodes: 48,
        gpus_per_node: 4,
        k: 3,
        fault_ratio: 0.15,
        mean_time_to_repair: Seconds(150.0),
        horizon: Seconds(600.0),
        latencies: ControlLatencies {
            detection: Seconds(0.5),
            planning: Seconds(0.05),
            dispatch: Seconds(0.02),
        },
        message_faults: MessageFaults::reliable(),
    }
}

/// The named message-fault profiles of the sweep (also the values accepted by
/// the driver's `--sim-profile` flag).
pub fn profiles() -> Vec<(&'static str, MessageFaults)> {
    let jitter = MessageFaults {
        delay_min: Seconds(0.05),
        delay_max: Seconds(0.5),
        reorder: 0.0,
        drop: 0.0,
        duplicate: 0.0,
        ack_timeout: Seconds(1.0),
        max_retries: 4,
    };
    vec![
        ("clean", MessageFaults::reliable()),
        ("jitter", jitter),
        (
            "reorder",
            MessageFaults {
                reorder: 0.3,
                ..jitter
            },
        ),
        (
            "drop",
            MessageFaults {
                drop: 0.25,
                ..jitter
            },
        ),
        (
            "duplicate",
            MessageFaults {
                duplicate: 0.25,
                ..jitter
            },
        ),
        ("adversarial", MessageFaults::adversarial()),
    ]
}

/// Looks a profile up by name.
pub fn profile(name: &str) -> Option<MessageFaults> {
    profiles()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, mf)| mf)
}

/// Per-seed integer counters, aggregated per profile row.
#[derive(Default)]
struct ProfileTotals {
    converged: usize,
    violations: usize,
    arrivals: usize,
    commands: usize,
    sends: usize,
    retries: usize,
    dropped: usize,
    duplicates: usize,
    stale: usize,
    superseded: usize,
}

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let seeds_per_profile = ctx.count(200);
    let profiles = profiles();
    let base = base_config();

    // Flat (profile, seed) grid: the item index — not the thread schedule —
    // fixes each run's master seed.
    let grid: Vec<(usize, u64)> = (0..profiles.len())
        .flat_map(|p| (0..seeds_per_profile as u64).map(move |s| (p, s)))
        .collect();
    let runs = par_map_seeded(ctx.threads, ctx.seed, &grid, |_, &(p, _), master| {
        let mut config = base;
        config.message_faults = profiles[p].1;
        let report = sim::run(&config, master).expect("sim config is valid");
        (
            p,
            report.final_converged as usize,
            report.invariant_violations,
            report.arrivals,
            report.commands_issued,
            report.sends,
            report.retries,
            report.commands_dropped,
            report.duplicates_injected,
            report.delivered_stale,
            report.superseded,
        )
    });

    let mut totals: Vec<ProfileTotals> = (0..profiles.len()).map(|_| Default::default()).collect();
    for (p, conv, viol, arr, cmd, sends, retries, dropped, dup, stale, sup) in runs {
        let t = &mut totals[p];
        t.converged += conv;
        t.violations += viol;
        t.arrivals += arr;
        t.commands += cmd;
        t.sends += sends;
        t.retries += retries;
        t.dropped += dropped;
        t.duplicates += dup;
        t.stale += stale;
        t.superseded += sup;
    }

    let header = [
        "profile",
        "seeds",
        "converged",
        "violations",
        "arrivals",
        "commands",
        "sends",
        "retries",
        "dropped",
        "duplicated",
        "stale rx",
        "superseded",
    ];
    let rows = profiles
        .iter()
        .zip(&totals)
        .map(|((name, _), t)| {
            vec![
                name.to_string(),
                seeds_per_profile.to_string(),
                t.converged.to_string(),
                t.violations.to_string(),
                t.arrivals.to_string(),
                t.commands.to_string(),
                t.sends.to_string(),
                t.retries.to_string(),
                t.dropped.to_string(),
                t.duplicates.to_string(),
                t.stale.to_string(),
                t.superseded.to_string(),
            ]
        })
        .collect();
    vec![Table::new(
        format!(
            "Extension: control-plane simulator convergence over {} seeded orderings \
             (48 nodes, K=3, 6 channel profiles)",
            profiles.len() * seeds_per_profile
        ),
        &header,
        rows,
    )]
}
