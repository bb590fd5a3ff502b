//! The experiment harness.
//!
//! Every table and figure of the paper's evaluation is one **registered
//! experiment** ([`registry`]): a named function from a [`registry::RunCtx`]
//! (seed, thread count, scale factor) to a list of [`Table`]s. The
//! `experiments` driver binary is the one entry point: it runs the whole
//! registry in-process, regenerating `EXPERIMENTS.md` and a machine-readable
//! `bench_results.json`, or previews a selection with `--only <name>`.
//!
//! Every experiment is deterministic in `(seed, scale)` and **invariant in the
//! thread count**: stochastic sweeps draw from per-shard RNG streams derived
//! from the master seed (see `hbd_types::par`), so `--threads 1` and
//! `--threads N` produce byte-identical JSON — the property the
//! workspace-level `integration_determinism` suite asserts for every
//! registered experiment.

pub mod experiments;
pub mod registry;
pub mod table;

pub use table::Table;

/// Formats a float with the given number of decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_rounds_to_requested_precision() {
        assert_eq!(fmt(2.4652, 2), "2.47");
        assert_eq!(fmt(0.4821, 4), "0.4821");
    }
}
