//! The experiment registry: every table/figure of the paper's evaluation,
//! name → runner function, in one catalogue that the `experiments` driver,
//! the determinism test suite and the benchmark harness all share. The
//! catalogue itself is the `registry!` list in [`experiments`], which also
//! declares each experiment's module, so every name is written once.

use crate::experiments;
use crate::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything an experiment run depends on. Experiments must be deterministic
/// in `(seed, scale)` and invariant in `threads`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCtx {
    /// RNG master seed; per-shard streams are derived from it via
    /// [`stream_seed`](infinitehbd::hbd_types::par::stream_seed).
    pub seed: u64,
    /// Worker threads for the parallel sweeps.
    pub threads: usize,
    /// Scale factor on sample counts / trial counts / trace lengths
    /// (`1.0` = paper-sized, smaller = proportionally cheaper smoke run).
    pub scale: f64,
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx {
            seed: 42,
            threads: 1,
            scale: 1.0,
        }
    }
}

impl RunCtx {
    /// The experiment's master RNG (for experiments that sample sequentially).
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// Scales an iteration count (samples, trials, bits), never below 1.
    pub fn count(&self, full: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(1)
    }

    /// Scales a trace duration in days, never below two days (the fault
    /// generator needs room for at least a couple of repair cycles).
    pub fn days(&self, full: f64) -> f64 {
        (full * self.scale).max(2.0)
    }

    /// Scales a sweep-point list by keeping a proportional prefix (at least
    /// one point) — how smoke runs trim the expensive outer loops of an
    /// experiment without changing any retained point.
    pub fn select<'a, T>(&self, items: &'a [T]) -> &'a [T] {
        let keep = ((items.len() as f64 * self.scale).ceil() as usize).clamp(1, items.len());
        &items[..keep]
    }
}

/// A registered experiment.
pub struct Experiment {
    /// Stable name — identical to the experiment's module name, and what
    /// `experiments --only <name>` selects.
    pub name: &'static str,
    /// Which part of the evaluation the experiment reproduces.
    pub group: &'static str,
    /// One-line description for `EXPERIMENTS.md` and `--list`.
    pub summary: &'static str,
    /// The runner.
    pub run: fn(&RunCtx) -> Vec<Table>,
}

/// Every experiment of the evaluation, in EXPERIMENTS.md presentation order.
pub fn all() -> &'static [Experiment] {
    experiments::ALL
}

/// Looks an experiment up by exact name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    all().iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_experiments_with_unique_names() {
        let experiments = all();
        assert_eq!(experiments.len(), 37);
        let mut names: Vec<&str> = experiments.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), experiments.len());
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("fig14_waste_vs_fault").is_some());
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn ctx_scaling_helpers_are_sane() {
        let ctx = RunCtx {
            seed: 1,
            threads: 2,
            scale: 0.1,
        };
        assert_eq!(ctx.count(348), 35);
        assert_eq!(ctx.count(1), 1);
        assert!((ctx.days(348.0) - 34.8).abs() < 1e-9);
        assert_eq!(ctx.days(10.0), 2.0);
        let items = [1, 2, 3, 4, 5];
        assert_eq!(ctx.select(&items), &[1]);
        let full = RunCtx::default();
        assert_eq!(full.select(&items), &items);
    }
}
