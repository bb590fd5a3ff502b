//! The repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_steady --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare A.json B.json
//! ```
//!
//! A run prints a progress summary to stderr, then two lines to stdout: the
//! full stamped record of the run, and last the result object
//! (`correct`, `attempted`, `failed`, `metrics`). The record is also written
//! to `perfbench/out/`, with the spans of a traced run. See `README.md`.

mod control_sim;
mod registry;
mod report;
mod serve;
mod stamp;
mod sys;
mod trace;

use report::Outcome;
use serde_json::{Map, Value};
use stamp::{int, num, text};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["serve_steady", "serve_churn", "control_sim", "registry"];

const USAGE: &str = "usage: perfbench --workload <serve_steady|serve_churn|control_sim|registry> \
     --seed <u64> --seconds <s> --trace <0|1> [--threads <n>]\n       \
     perfbench compare <before.json> <after.json>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    // One worker thread unless asked: the end-to-end times are on-CPU times,
    // which count a fan-out's work but not its parallel speed-up, and a
    // second busy thread on a small shared machine only adds noise.
    let mut threads = 1;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if (0.0..=3600.0).contains(&s) => seconds = Some(s),
                _ => return Err(format!("bad --seconds '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
            },
            "--threads" => match value.parse::<usize>() {
                Ok(n) if (1..=1024).contains(&n) => threads = n,
                _ => return Err(format!("bad --threads '{value}'")),
            },
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
    })
}

fn run_workload(args: &Args, root: &Path, tracer: &mut Tracer) -> Result<Outcome, String> {
    Ok(match args.workload.as_str() {
        "serve_steady" => serve::run(
            &serve::ServeConfig::steady(),
            args.seed,
            args.seconds,
            args.threads,
            tracer,
        ),
        "serve_churn" => serve::run(
            &serve::ServeConfig::churn(),
            args.seed,
            args.seconds,
            args.threads,
            tracer,
        ),
        "control_sim" => control_sim::run(
            &control_sim::ControlConfig::standard(),
            args.seed,
            args.seconds,
            args.threads,
            tracer,
        ),
        "registry" => registry::run(root, args.seconds, args.threads, tracer)?,
        other => unreachable!("workload '{other}' was validated"),
    })
}

/// The metrics a result line reports: every end-to-end metric untraced,
/// every per-layer metric traced.
fn reported(out: &Outcome, traced: bool) -> Vec<(String, f64, &'static str)> {
    if traced {
        report::per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let value = out.get(&name);
                (name, value, unit)
            })
            .collect()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(name, unit, _)| {
                assert!(out.has(name), "workload measured end-to-end metric {name}");
                (name.to_string(), out.get(name), unit)
            })
            .collect()
    }
}

/// The workload-specific names of the wall-clock end-to-end figures.
fn aliases(workload: &str, out: &Outcome) -> Map<String, Value> {
    let p50 = out.get("wall.op_p50_ms");
    let p90 = out.get("wall.op_p90_ms");
    let rate = out.get("wall.work_per_s");
    let pairs: Vec<(&str, f64)> = match workload {
        "serve_steady" | "serve_churn" => {
            vec![("qps", rate), ("batch_p50_ms", p50), ("batch_p90_ms", p90)]
        }
        "control_sim" => vec![
            ("sims_per_s", rate),
            ("sim_p50_ms", p50),
            ("sim_p90_ms", p90),
        ],
        _ => vec![("registry_s", p50 / 1e3)],
    };
    pairs
        .into_iter()
        .map(|(k, v)| (k.to_string(), num(v)))
        .collect()
}

fn record(args: &Args, root: &Path, out: &Outcome) -> Value {
    let mut r = Map::new();
    r.insert("workload".into(), text(args.workload.as_str()));
    r.insert("seed".into(), int(args.seed));
    r.insert("seconds".into(), num(args.seconds));
    r.insert("trace".into(), Value::Bool(args.trace));
    r.insert(
        "stamp".into(),
        Value::Object(stamp::stamp(root, args.threads)),
    );
    r.insert("attempted".into(), int(out.attempted));
    r.insert("failed".into(), int(out.failed));
    r.insert("error_frac".into(), num(out.error_frac()));
    let inputs = report::INPUTS
        .iter()
        .filter(|name| out.has(name))
        .map(|name| (name.to_string(), num(out.get(name))))
        .collect();
    r.insert("inputs".into(), Value::Object(inputs));
    r.insert(
        "aliases".into(),
        Value::Object(aliases(&args.workload, out)),
    );
    let metrics = out
        .values()
        .iter()
        .map(|(k, v)| (k.clone(), num(*v)))
        .collect();
    r.insert("metrics".into(), Value::Object(metrics));
    let notes = out
        .notes()
        .iter()
        .map(|(k, v)| (k.clone(), text(v.as_str())))
        .collect();
    r.insert("notes".into(), Value::Object(notes));
    Value::Object(r)
}

fn result_line(out: &Outcome, traced: bool) -> Value {
    let metrics = reported(out, traced)
        .into_iter()
        .map(|(name, value, unit)| {
            let mut m = Map::new();
            m.insert("value".into(), num(value));
            m.insert("unit".into(), text(unit));
            (name, Value::Object(m))
        })
        .collect();
    let mut r = Map::new();
    r.insert("correct".into(), Value::Bool(out.failed == 0));
    r.insert("attempted".into(), int(out.attempted));
    r.insert("failed".into(), int(out.failed));
    r.insert("metrics".into(), Value::Object(metrics));
    Value::Object(r)
}

fn write_out(root: &Path, name: &str, contents: &str) {
    let dir = root.join("perfbench/out");
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(dir.join(name), contents));
    if let Err(e) = written {
        eprintln!("warning: cannot write perfbench/out/{name}: {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 3 && argv[0] == "compare" {
        return match stamp::compare(&argv[1], &argv[2]) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("error: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let out = match run_workload(&args, &root, &mut tracer) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let record = record(&args, &root, &out);
    let record_text = serde_json::to_string(&record).expect("serialisable");
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    write_out(&root, &format!("{tag}.json"), &record_text);
    if args.trace {
        write_out(&root, &format!("{tag}-spans.json"), &tracer.to_json());
    }
    for (name, value) in out.values() {
        eprintln!("{name:40} {value:.6}");
    }
    eprintln!(
        "{}: attempted {} failed {} error_frac {}",
        args.workload,
        out.attempted,
        out.failed,
        out.error_frac()
    );
    println!("{record_text}");
    println!(
        "{}",
        serde_json::to_string(&result_line(&out, args.trace)).expect("serialisable")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse(&argv(
            "--workload registry --seed 3 --seconds 10 --trace 1 --threads 1",
        ))
        .expect("valid");
        assert_eq!(args.workload, "registry");
        assert_eq!(args.seed, 3);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        assert_eq!(args.threads, 1);
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload registry --seed x --seconds 1 --trace 0",
            "--workload registry --seed 1 --seconds -1 --trace 0",
            "--workload registry --seed 1 --seconds 1 --trace 2",
            "--workload registry --seed 1 --seconds 1",
            "--workload registry --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut out = Outcome::new(10, 1);
        for (name, _, _) in report::END_TO_END {
            out.set(name, 1.5);
        }
        let line = result_line(&out, false);
        let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
        let traced = result_line(&out, true);
        let metrics = traced
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), report::per_layer().len());
    }
}
