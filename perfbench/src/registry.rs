//! `registry`: the full experiment registry at full scale, run in-process
//! through `bench::registry` (the runner the `experiments` driver calls),
//! with every experiment's tables checked against its section of the
//! committed `EXPERIMENTS.md`.
//!
//! The registry's inputs are fixed by the committed `EXPERIMENTS.md` (the
//! driver's default seed and full scale), so `--seed` does not change this
//! workload. Nothing is written: the repository's `EXPERIMENTS.md` and
//! `bench_results.json` stay as they are.

use crate::report::Outcome;
use crate::sys::{self, Meter, Timing};
use crate::trace::Tracer;
use bench::registry::{self as experiments, Experiment, RunCtx};
use bench::table::Table;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// Scale of the warm-up pass each set-up runs.
const WARM_SCALE: f64 = 0.05;

/// Splits an `EXPERIMENTS.md` into its per-experiment sections (`### name`
/// up to the next heading); the text before the first section is keyed "".
pub fn sections(markdown: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut name = String::new();
    let mut body = String::new();
    for line in markdown.lines() {
        let heading = line.strip_prefix("### ");
        if heading.is_some() || line.starts_with("## ") {
            if !name.is_empty() || !body.is_empty() {
                out.entry(std::mem::take(&mut name))
                    .or_insert_with(String::new)
                    .push_str(&std::mem::take(&mut body));
            }
            name = heading.unwrap_or("").trim().to_string();
        }
        body.push_str(line);
        body.push('\n');
    }
    out.entry(name).or_insert_with(String::new).push_str(&body);
    out
}

/// The section of `EXPERIMENTS.md` the driver writes for one experiment.
pub fn render_section(experiment: &Experiment, tables: &[Table]) -> String {
    let mut out = format!("### {}\n\n{}\n\n", experiment.name, experiment.summary);
    for table in tables {
        out.push_str(&table.to_markdown());
        out.push('\n');
    }
    out
}

/// Whether an experiment's tables match its committed section.
pub fn matches_committed(
    committed: &BTreeMap<String, String>,
    experiment: &Experiment,
    tables: &[Table],
) -> bool {
    committed
        .get(experiment.name)
        .is_some_and(|section| section.trim_end() == render_section(experiment, tables).trim_end())
}

/// Runs the registry workload for `seconds` from the checkout at `root`.
pub fn run(
    root: &Path,
    seconds: f64,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let traced = tracer.enabled();
    let path = root.join("EXPERIMENTS.md");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{} is not a checkout of the repository: cannot read {}: {e}",
            root.display(),
            path.display()
        )
    })?;
    let committed = sections(&text);
    let ctx = RunCtx {
        threads,
        ..RunCtx::default()
    };
    let warm = RunCtx {
        scale: WARM_SCALE,
        ..ctx
    };
    let registry = experiments::all();
    // The committed file must come from the parameters regenerated here.
    let parameters = format!("seed `{}`, scale `{}`", ctx.seed, ctx.scale);
    let mut attempted = 1u64;
    let mut failed = u64::from(!text.contains(&parameters));

    let mut meter = Meter::new();
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        // Timed experiment by experiment, like a pass.
        let mut total = Timing::default();
        for experiment in registry {
            let (_, timing) = meter.time(|| (experiment.run)(&warm));
            total = total + timing;
        }
        setups.push(total);
    }

    let mut passes: Vec<Timing> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut per_experiment: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let usage_before = sys::self_usage();
    let wall = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut pass = 0u64;
    while pass == 0 || wall.elapsed() < budget {
        let trace_this = traced && pass.is_multiple_of(2);
        tracer.set_enabled(trace_this);
        tracer.open("registry.pass", pass);
        let mut total = Timing::default();
        for experiment in registry {
            let (tables, timing) =
                meter.time(|| tracer.span("registry.experiment", pass, || (experiment.run)(&ctx)));
            let ok = tracer.span("registry.check", pass, || {
                matches_committed(&committed, experiment, &tables)
            });
            attempted += 1;
            failed += u64::from(!ok);
            total = total + timing;
            per_experiment
                .entry(experiment.name)
                .or_default()
                .push(timing.scaled_s * 1e3);
        }
        tracer.close();
        tracer.set_enabled(traced);
        if trace_this {
            traced_ms.push(total.scaled_s * 1e3);
        } else {
            untraced_ms.push(total.scaled_s * 1e3);
        }
        passes.push(total);
        pass += 1;
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let usage_after = sys::self_usage();

    let mut out = Outcome::new(attempted, failed);
    out.set_timings(&setups, &passes, passes.len() as f64, &meter);
    out.set("peak_rss_mb", usage_after.peak_rss_mb);
    if traced {
        out.set(
            "par.cpu_util",
            sys::ratio(
                usage_after.cpu_s - usage_before.cpu_s,
                wall_s * threads as f64,
            ),
        );
        let cpu_s: Vec<f64> = passes.iter().map(|t| t.cpu_s).collect();
        out.set("registry.cpu_s", sys::median(&cpu_s));
        for (name, ms) in &per_experiment {
            out.set(&format!("registry.{name}_ms"), sys::median(ms));
        }
        out.set_overhead(&traced_ms, &untraced_ms);
        out.set_self_times(tracer);
    }
    out.note("passes", pass.to_string());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str =
        "# EXPERIMENTS\n\nintro\n\n## Group\n\n### alpha\n\n| a |\n\n### beta\n\n| b |\n";

    #[test]
    fn sections_split_at_experiment_and_group_headings() {
        let split = sections(DOC);
        assert_eq!(split["alpha"], "### alpha\n\n| a |\n\n");
        assert_eq!(split["beta"], "### beta\n\n| b |\n");
        assert!(split[""].starts_with("# EXPERIMENTS"));
    }

    #[test]
    fn the_committed_file_splits_into_every_registered_experiment() {
        let committed = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../EXPERIMENTS.md"),
        )
        .expect("committed EXPERIMENTS.md");
        let sections = sections(&committed);
        for experiment in bench::registry::all() {
            assert!(
                sections.contains_key(experiment.name),
                "{}",
                experiment.name
            );
        }
    }

    #[test]
    fn a_rendered_experiment_matches_its_committed_section() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../EXPERIMENTS.md"),
        )
        .expect("committed EXPERIMENTS.md");
        let committed = sections(&text);
        let experiment = experiments::find("table8_bom").expect("registered");
        let tables = (experiment.run)(&RunCtx::default());
        assert!(matches_committed(&committed, experiment, &tables));
        let mut wrong = tables.clone();
        wrong[0] = Table::new("injected", &["x"], vec![vec!["1".to_string()]]);
        assert!(!matches_committed(&committed, experiment, &wrong));
    }
}
