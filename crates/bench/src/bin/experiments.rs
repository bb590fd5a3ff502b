//! The evaluation driver and the one entry point of the harness: runs every
//! registered experiment in-process, regenerates `EXPERIMENTS.md` and writes
//! a machine-readable `bench_results.json` (per-experiment wall-clock
//! included) for trend tracking.
//!
//! ```text
//! cargo run --release --bin experiments -- --threads 4
//! cargo run --release --bin experiments -- --scale 0.05 --md EXPERIMENTS.smoke.md --out smoke.json
//! cargo run --release --bin experiments -- --only fig14_waste_vs_fault --seed 7
//! cargo run --release --bin experiments -- --only table6_cost_power --json
//! cargo run --release --bin experiments -- --only fig17
//! cargo run --release --bin experiments -- --list
//! ```
//!
//! With `--only <name>` the run is a partial preview: results go to stdout
//! only and no files are written (a partial `EXPERIMENTS.md` would
//! masquerade as the full evaluation). A name that matches an experiment
//! exactly selects that experiment alone; any other value selects every
//! experiment whose name contains it (`--only fig17` runs the four Fig 17
//! sweeps).
//!
//! With `--sim-seed <N> --sim-profile <name>` the driver instead replays
//! exactly one ordering of the control-plane fault-injection simulator (the
//! `sim_seeds` experiment's configuration under the named message-fault
//! profile), prints the full report and exits non-zero if the convergence
//! invariant was violated — the one-command reproduction path for any failing
//! seed the sweep reports. The two flags are only meaningful together, so
//! giving exactly one of them is a usage error.
//!
//! Exit status: 0 on success, 2 on a usage error (reported before any
//! experiment runs), 1 when a run fails — a replayed seed violates its
//! invariant, or an output file cannot be written.

use bench::experiments::sim_seeds;
use bench::registry::{self, Experiment, RunCtx};
use bench::Table;
use std::time::Instant;

const USAGE: &str = "usage: experiments [--seed <u64>] [--threads <n>] [--scale <f64>] \
     [--json] [--only <name>] [--md <path>] [--out <path>] [--bench-json <path>] \
     [--compare <old bench_results.json>] [--warn-over <factor>] [--list] \
     [--sim-seed <u64> --sim-profile <name>]";

/// The parsed and validated command line.
struct DriverArgs {
    /// Seed, worker threads and scale factor of the run.
    ctx: RunCtx,
    /// Print the collated JSON to stdout.
    json: bool,
    /// The experiments to run: the whole registry, or the `--only` selection.
    selected: Vec<&'static Experiment>,
    /// `--only` was given: a stdout preview that writes no files.
    partial: bool,
    md_path: String,
    out_path: String,
    /// The criterion records read from `--bench-json`.
    microbenches: Vec<serde_json::Value>,
    /// The `--compare` path and the wall-clocks read from it (or why they
    /// could not be read).
    compare: Option<(String, Result<WallClocks, String>)>,
    warn_over: Option<f64>,
    list: bool,
    /// `--sim-seed` and `--sim-profile`, which only come together.
    sim: Option<(u64, String)>,
}

/// Parses and validates the command line. Every usage error surfaces here,
/// before any experiment runs: a malformed, missing or unknown flag, flags
/// that only make sense together, an `--only` that selects nothing, an
/// unknown simulator profile, and `--bench-json` / `--warn-over` inputs that
/// cannot be used.
fn parse(argv: &[String]) -> Result<DriverArgs, String> {
    let mut ctx = RunCtx::default();
    let mut json = false;
    let mut only = None;
    let mut md_path = "EXPERIMENTS.md".to_string();
    let mut out_path = "bench_results.json".to_string();
    let mut bench_json = None;
    let mut compare = None;
    let mut warn_over = None;
    let mut list = false;
    let mut sim_seed = None;
    let mut sim_profile = None;
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--seed" => ctx.seed = parsed(flag, &value()?, "a u64")?,
            "--threads" => {
                ctx.threads = parsed(flag, &value()?, "a positive integer")?;
                if ctx.threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--scale" => {
                let text = value()?;
                ctx.scale = parsed(flag, &text, "a float")?;
                if !(ctx.scale > 0.0 && ctx.scale.is_finite()) {
                    return Err(format!(
                        "--scale must be a positive finite number, got {text}"
                    ));
                }
            }
            "--json" => json = true,
            "--only" => only = Some(value()?),
            "--md" => md_path = value()?,
            "--out" => out_path = value()?,
            "--bench-json" => bench_json = Some(value()?),
            "--compare" => compare = Some(value()?),
            "--warn-over" => {
                let text = value()?;
                match text.parse::<f64>() {
                    Ok(factor) if factor >= 1.0 => warn_over = Some(factor),
                    _ => return Err(format!("--warn-over needs a factor >= 1.0, got '{text}'")),
                }
            }
            "--sim-seed" => sim_seed = Some(parsed(flag, &value()?, "a u64")?),
            "--sim-profile" => sim_profile = Some(value()?),
            "--list" => list = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let sim = match (sim_seed, sim_profile) {
        (Some(seed), Some(profile)) => {
            if sim_seeds::profile(&profile).is_none() {
                let known: Vec<&str> = sim_seeds::profiles().iter().map(|(n, _)| *n).collect();
                return Err(format!(
                    "unknown --sim-profile '{profile}' (known: {})",
                    known.join(", ")
                ));
            }
            Some((seed, profile))
        }
        (Some(_), None) => {
            return Err(
                "--sim-seed requires --sim-profile <name> (run the sim_seeds \
                        experiment or see its module docs for the profile names)"
                    .to_string(),
            )
        }
        (None, Some(_)) => {
            return Err(
                "--sim-profile is only meaningful together with --sim-seed <u64>".to_string(),
            )
        }
        (None, None) => None,
    };
    let compare = compare.map(|path| {
        let baseline = read_wall_clocks(&path);
        (path, baseline)
    });
    if warn_over.is_some() {
        match &compare {
            None => {
                return Err(
                    "--warn-over needs a --compare <old bench_results.json> baseline \
                            to check against"
                        .to_string(),
                )
            }
            Some((_, Err(error))) => return Err(format!("--warn-over baseline {error}")),
            Some((_, Ok(_))) => {}
        }
    }
    let microbenches = match bench_json.as_deref() {
        Some(path) => load_microbenches(path)?,
        None => Vec::new(),
    };
    Ok(DriverArgs {
        ctx,
        json,
        selected: select(only.as_deref())?,
        partial: only.is_some(),
        md_path,
        out_path,
        microbenches,
        compare,
        warn_over,
        list,
        sim,
    })
}

/// Parses a flag's value, naming the flag and the expected type on failure.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str, expected: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("malformed {flag} value '{value}' (expected {expected})"))
}

/// The experiments an `--only` value selects: the exact match if there is
/// one, otherwise every experiment whose name contains the value. Without
/// `--only`, the whole registry.
fn select(only: Option<&str>) -> Result<Vec<&'static Experiment>, String> {
    let Some(needle) = only else {
        return Ok(registry::all().iter().collect());
    };
    if needle.is_empty() {
        return Err("--only needs a non-empty experiment name (try --list)".to_string());
    }
    if let Some(exact) = registry::find(needle) {
        return Ok(vec![exact]);
    }
    let matches: Vec<_> = registry::all()
        .iter()
        .filter(|e| e.name.contains(needle))
        .collect();
    if matches.is_empty() {
        return Err(format!(
            "--only '{needle}' matches no experiment (try --list)"
        ));
    }
    Ok(matches)
}

/// `(experiment name, wall_ms)` pairs of an older `bench_results.json`.
type WallClocks = Vec<(String, f64)>;

/// Reads the experiment wall-clocks of an older `bench_results.json`: the
/// file must be readable, parse as JSON and hold at least one.
fn read_wall_clocks(path: &str) -> Result<WallClocks, String> {
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("{path} is unreadable: {error}"))?;
    let old: serde_json::Value = serde_json::from_str(&text)
        .map_err(|error| format!("{path} is malformed JSON: {error}"))?;
    let clocks: WallClocks = old
        .get("experiments")
        .and_then(|e| e.as_array())
        .map(|records| {
            records
                .iter()
                .filter_map(|record| {
                    Some((
                        record.get("name")?.as_str()?.to_string(),
                        record.get("wall_ms")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    if clocks.is_empty() {
        return Err(format!(
            "{path} has no experiment wall-clocks to compare against"
        ));
    }
    Ok(clocks)
}

/// Reads the JSON-lines file the criterion shim appends to (one record per
/// micro-benchmark, see `CRITERION_JSON` in `shims/criterion`). A missing or
/// malformed file is an error: the flag promises baselines.
fn load_microbenches(path: &str) -> Result<Vec<serde_json::Value>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read --bench-json {path}: {e}"))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            serde_json::from_str(line)
                .map_err(|e| format!("malformed record in --bench-json {path}: {e}"))
        })
        .collect()
}

struct ExperimentRun {
    experiment: &'static Experiment,
    wall_ms: f64,
    tables: Vec<Table>,
}

/// Replays one seeded ordering of the control-plane simulator with the
/// `sim_seeds` experiment's exact configuration, printing the full report.
/// Exit status 0 = converged with zero invariant violations, 1 = violated (or
/// the simulation failed to run) — so a failing seed from the sweep
/// reproduces with a single command.
fn replay_sim_seed(seed: u64, profile_name: &str) -> ! {
    use infinitehbd::control::sim;

    let mut config = sim_seeds::base_config();
    config.message_faults = sim_seeds::profile(profile_name).expect("validated at parse");
    let report = sim::run(&config, seed).unwrap_or_else(|error| {
        eprintln!("error: simulation failed to run: {error}");
        std::process::exit(1);
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("serialisable report")
    );
    let ok = report.final_converged && report.invariant_violations == 0;
    eprintln!(
        "sim-seed {seed} profile '{profile_name}': {} ({} arrivals, {} commands, {} sends, \
         {} invariant violation(s), end time {:.3} s)",
        if ok {
            "CONVERGED"
        } else {
            "INVARIANT VIOLATED"
        },
        report.arrivals,
        report.commands_issued,
        report.sends,
        report.invariant_violations,
        report.end_time.value()
    );
    std::process::exit(if ok { 0 } else { 1 });
}

/// Writes one output file, or reports the failure and exits 1.
fn write_output(path: &str, contents: String) {
    if let Err(error) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {error}");
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some((seed, profile)) = &args.sim {
        replay_sim_seed(*seed, profile);
    }
    if args.list {
        for experiment in registry::all() {
            println!(
                "{:28} {:22} {}",
                experiment.name, experiment.group, experiment.summary
            );
        }
        return;
    }

    let ctx = args.ctx;
    let total_start = Instant::now();
    let mut runs: Vec<ExperimentRun> = Vec::with_capacity(args.selected.len());
    for &experiment in &args.selected {
        let start = Instant::now();
        let tables = (experiment.run)(&ctx);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "ran {:28} {:>9.1} ms  ({} table{})",
            experiment.name,
            wall_ms,
            tables.len(),
            if tables.len() == 1 { "" } else { "s" }
        );
        runs.push(ExperimentRun {
            experiment,
            wall_ms,
            tables,
        });
    }
    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;

    match &args.compare {
        Some((path, Ok(old_runs))) => {
            print_wall_clock_deltas(path, old_runs, &runs, args.warn_over)
        }
        Some((_, Err(error))) => eprintln!("compare: {error} (skipping)"),
        None => {}
    }

    let collated = serde_json::to_string_pretty(&collate_json(&ctx, &runs, &args.microbenches))
        .expect("serialisable");
    if args.json {
        println!("{collated}");
    }

    if args.partial {
        if !args.json {
            for run in &runs {
                for table in &run.tables {
                    table.print_text();
                }
            }
        }
        eprintln!("partial run (--only): EXPERIMENTS.md / bench_results.json not written");
        return;
    }

    write_output(&args.md_path, render_markdown(&ctx, &runs));
    write_output(&args.out_path, format!("{collated}\n"));
    eprintln!(
        "wrote {} and {} ({} experiments, {:.1} s total)",
        args.md_path,
        args.out_path,
        runs.len(),
        total_ms / 1e3
    );
}

/// Prints per-experiment wall-clock deltas against an older
/// `bench_results.json` to stderr. Strictly informational and non-fatal —
/// wall-clock is machine-dependent, so the report surfaces regressions for a
/// human (or CI log reader) without gating anything. (Without `--warn-over`,
/// a baseline that cannot be read degrades to a one-line skip in `main`.)
///
/// With `warn_over = Some(factor)` the report additionally ends with a
/// visible summary of every experiment whose wall-clock grew to at least
/// `factor ×` its baseline (still non-fatal; sub-millisecond regressions are
/// ignored as timer noise).
fn print_wall_clock_deltas(
    path: &str,
    old_runs: &[(String, f64)],
    runs: &[ExperimentRun],
    warn_over: Option<f64>,
) {
    eprintln!("compare: wall-clock vs {path} (informational, machine-dependent)");
    let mut old_total = 0.0;
    let mut new_total = 0.0;
    let mut regressions: Vec<(&str, f64, f64)> = Vec::new();
    for run in runs {
        match old_runs
            .iter()
            .find(|(name, _)| *name == run.experiment.name)
        {
            Some(&(_, old_ms)) => {
                let delta = if old_ms > 0.0 {
                    (run.wall_ms - old_ms) / old_ms * 100.0
                } else {
                    0.0
                };
                old_total += old_ms;
                new_total += run.wall_ms;
                eprintln!(
                    "  {:28} {:>9.1} -> {:>9.1} ms  {:>+7.1}%",
                    run.experiment.name, old_ms, run.wall_ms, delta
                );
                if let Some(factor) = warn_over {
                    // Sub-millisecond experiments regress by whole factors on
                    // timer noise alone; only flag measurable growth.
                    if old_ms > 0.0 && run.wall_ms >= old_ms * factor && run.wall_ms - old_ms >= 1.0
                    {
                        regressions.push((run.experiment.name, old_ms, run.wall_ms));
                    }
                }
            }
            None => eprintln!(
                "  {:28}       new -> {:>9.1} ms",
                run.experiment.name, run.wall_ms
            ),
        }
    }
    if old_total > 0.0 {
        eprintln!(
            "  {:28} {:>9.1} -> {:>9.1} ms  {:>+7.1}%  (experiments present in both)",
            "total",
            old_total,
            new_total,
            (new_total - old_total) / old_total * 100.0
        );
    }
    if let Some(factor) = warn_over {
        if regressions.is_empty() {
            eprintln!("warn-over: no experiment regressed by {factor}x or more");
        } else {
            eprintln!(
                "warn-over: {} experiment(s) at or over the {factor}x wall-clock threshold \
                 (non-fatal):",
                regressions.len()
            );
            for (name, old_ms, new_ms) in &regressions {
                eprintln!(
                    "  {:28} {:>9.1} -> {:>9.1} ms  ({:.1}x)",
                    name,
                    old_ms,
                    new_ms,
                    new_ms / old_ms
                );
            }
        }
    }
}

/// The machine-readable collation (`bench_results.json`): run parameters,
/// per-experiment wall-clock, every table, and (with `--bench-json`) the
/// criterion micro-bench baselines.
fn collate_json(
    ctx: &RunCtx,
    runs: &[ExperimentRun],
    microbenches: &[serde_json::Value],
) -> serde_json::Value {
    let experiments: Vec<serde_json::Value> = runs
        .iter()
        .map(|run| {
            let tables: Vec<serde_json::Value> = run.tables.iter().map(Table::to_json).collect();
            serde_json::json!({
                "name": run.experiment.name,
                "group": run.experiment.group,
                "summary": run.experiment.summary,
                "wall_ms": run.wall_ms,
                "tables": tables,
            })
        })
        .collect();
    serde_json::json!({
        "seed": ctx.seed,
        "scale": ctx.scale,
        "threads": ctx.threads,
        "experiments": experiments,
        "microbenches": microbenches,
    })
}

/// The regenerated `EXPERIMENTS.md`. Deliberately free of wall-clock numbers
/// so that re-running with the same seed/scale reproduces the file
/// byte-for-byte.
fn render_markdown(ctx: &RunCtx, runs: &[ExperimentRun]) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS\n\n");
    out.push_str(
        "Every table and figure of the paper's evaluation, regenerated mechanically by the\n\
         experiment registry (`crates/bench/src/registry.rs`). Do not edit by hand — refresh with:\n\n\
         ```bash\ncargo run --release --bin experiments -- --threads <N>\n```\n\n",
    );
    out.push_str(&format!(
        "Parameters of this run: seed `{}`, scale `{}`, {} experiments. Per-experiment\n\
         wall-clock times and the same tables in machine-readable form are written to\n\
         `bench_results.json` alongside this file.\n\n",
        ctx.seed,
        ctx.scale,
        runs.len()
    ));
    out.push_str(
        "`bench_results.json` schema: a top-level object with `seed`, `scale` and `threads`\n\
         (the run parameters), `experiments` — one record per registered experiment with\n\
         `name`, `group`, `summary`, `wall_ms` (wall-clock of the run, machine-dependent)\n\
         and `tables` (the same tables as below, each `{experiment, rows}` with one\n\
         column-name → cell object per row) —\n\
         and `microbenches`: the criterion micro-bench baselines collected by\n\
         `cargo bench` with `CRITERION_JSON` set and folded in via `--bench-json`, one\n\
         record per benchmark with `bench` (label), `mean_ns`, `min_ns`, `p50_ns`,\n\
         `p99_ns`, `samples` and —\n\
         for groups that declare a throughput — `throughput_per_sec` / `throughput_unit`\n\
         (empty when the driver runs without `--bench-json`). `--compare <old json>`\n\
         additionally prints per-experiment wall-clock deltas against an older\n\
         `bench_results.json` to stderr (informational only); `--warn-over <factor>`\n\
         appends a visible — still non-fatal — summary of the experiments whose\n\
         wall-clock reached `factor`x their baseline.\n\n",
    );

    out.push_str("## Index\n\n| experiment | group | summary |\n| --- | --- | --- |\n");
    for run in runs {
        out.push_str(&format!(
            "| [`{name}`](#{name}) | {} | {} |\n",
            run.experiment.group,
            run.experiment.summary,
            name = run.experiment.name
        ));
    }
    out.push('\n');

    let mut current_group = "";
    for run in runs {
        if run.experiment.group != current_group {
            current_group = run.experiment.group;
            out.push_str(&format!("## {current_group}\n\n"));
        }
        out.push_str(&format!(
            "### {}\n\n{}\n\n",
            run.experiment.name, run.experiment.summary
        ));
        for table in &run.tables {
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &str) -> Vec<String> {
        args.split_whitespace().map(str::to_string).collect()
    }

    fn parse_ok(args: &str) -> DriverArgs {
        parse(&argv(args)).unwrap_or_else(|message| panic!("'{args}' must parse: {message}"))
    }

    fn parse_err(args: &str) -> String {
        match parse(&argv(args)) {
            Ok(_) => panic!("'{args}' must be rejected"),
            Err(message) => message,
        }
    }

    fn names(selected: &[&Experiment]) -> Vec<&'static str> {
        selected.iter().map(|e| e.name).collect()
    }

    #[test]
    fn parse_reads_every_flag() {
        let args = parse_ok(
            "--seed 7 --threads 4 --scale 0.5 --json --only fig14_waste_vs_fault \
             --md a.md --out b.json --list",
        );
        assert_eq!(
            args.ctx,
            RunCtx {
                seed: 7,
                threads: 4,
                scale: 0.5
            }
        );
        assert!(args.json && args.partial && args.list);
        assert_eq!(names(&args.selected), ["fig14_waste_vs_fault"]);
        assert_eq!(
            (args.md_path.as_str(), args.out_path.as_str()),
            ("a.md", "b.json")
        );

        let defaults = parse_ok("");
        assert_eq!(defaults.ctx, RunCtx::default());
        assert!(!defaults.json && !defaults.partial && !defaults.list);
        assert_eq!(defaults.selected.len(), registry::all().len());
        assert_eq!(defaults.md_path, "EXPERIMENTS.md");
    }

    #[test]
    fn malformed_seed_is_an_error_not_a_silent_default() {
        let err = parse_err("--seed not-a-number");
        assert!(err.contains("malformed --seed"), "{err}");
        // A missing value is an error too.
        let err = parse_err("--seed");
        assert!(err.contains("--seed requires a value"), "{err}");
    }

    #[test]
    fn malformed_threads_and_scale_are_errors() {
        assert!(parse_err("--threads zero").contains("malformed --threads"));
        assert!(parse_err("--threads 0").contains("at least 1"));
        assert!(parse_err("--scale -1").contains("positive finite"));
        assert!(parse_err("--scale nope").contains("malformed --scale"));
    }

    #[test]
    fn unknown_arguments_are_errors() {
        let err = parse_err("--seed 7 --no-such-flag");
        assert!(err.contains("unknown argument '--no-such-flag'"), "{err}");
        let err = parse_err("fig14");
        assert!(err.contains("unknown argument 'fig14'"), "{err}");
    }

    #[test]
    fn only_falls_back_to_substrings_when_no_name_matches_exactly() {
        // `appg_alltoall` is also a substring of `appg_alltoall_fastswitch`.
        let exact = parse_ok("--only appg_alltoall");
        assert_eq!(names(&exact.selected), ["appg_alltoall"]);
        let substring = parse_ok("--only appg_");
        assert_eq!(
            names(&substring.selected),
            ["appg_alltoall", "appg_alltoall_fastswitch"]
        );
    }
}
