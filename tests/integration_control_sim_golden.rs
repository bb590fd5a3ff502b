//! Golden pins for `control::sim`: the full `SimReport` of fixed seeded runs,
//! timeline included, must stay bit-identical.
//!
//! The `sim_seeds` table only shows per-profile sums, so a change that
//! reorders directives (and with them command ids, RNG draws and every
//! timestamp) could leave the table untouched. Each case hashes the report's
//! whole `serde_json` form with FNV-1a, so any change to any field or event
//! fails here. A deliberate behaviour change must refresh the hashes and say
//! why.

use bench::experiments::sim_seeds;
use infinitehbd::control::{sim, SimConfig};
use infinitehbd::hbd_types::stream_seed;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs profile `name` of the `sim_seeds` sweep on a `nodes`-node ring and
/// returns the FNV-1a hash of the report's JSON.
fn report_hash(name: &str, nodes: usize, seed: u64) -> u64 {
    let config = SimConfig {
        nodes,
        message_faults: sim_seeds::profile(name).expect("known profile"),
        ..sim_seeds::base_config()
    };
    let report = sim::run(&config, stream_seed(7, seed)).expect("valid config");
    assert!(report.final_converged, "{name}@{nodes}");
    assert_eq!(report.invariant_violations, 0, "{name}@{nodes}");
    fnv1a(serde_json::to_string(&report).unwrap().as_bytes())
}

fn check(cases: &[(&str, usize, u64, u64)]) {
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|&(name, nodes, seed, want)| {
            let got = report_hash(name, nodes, seed);
            (got != want).then(|| format!("{name}@{nodes} seed {seed}: got {got:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

#[test]
fn every_sim_seeds_profile_at_48_nodes_is_pinned() {
    check(&[
        ("clean", 48, 0, 0x98e1_f5ac_8e34_a472),
        ("jitter", 48, 1, 0xde59_992e_fe2d_e55c),
        ("reorder", 48, 2, 0xbfac_098c_0d4a_d9f7),
        ("drop", 48, 3, 0x04df_14a8_ae64_2af4),
        ("duplicate", 48, 4, 0x3835_43ac_3206_1dbb),
        ("adversarial", 48, 5, 0x58ec_c904_8fa7_c8d4),
    ]);
}

#[test]
fn two_profiles_at_256_nodes_are_pinned() {
    check(&[
        ("reorder", 256, 6, 0xc1be_26e4_58ef_ec6b),
        ("adversarial", 256, 7, 0xfdc0_8b92_f0da_9588),
    ]);
}
