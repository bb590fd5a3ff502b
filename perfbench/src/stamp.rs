//! The stamp every result carries (machine, toolchain, build profile,
//! source version) and the comparison of two sets of results, which refuses
//! results whose machine stamps differ.

use crate::sys::{self, Fnv};
use serde_json::{Map, Number, Value};
use std::path::Path;
use std::process::Command;

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

pub fn int(n: u64) -> Value {
    Value::Number(Number::from_u64(n))
}

pub fn num(x: f64) -> Value {
    Value::Number(Number::from_f64(x))
}

/// The stamp fields that must agree before two results may be compared.
pub const MACHINE_KEYS: [&str; 5] = ["nproc", "threads", "cpu", "rustc", "profile"];

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV digest of the sources the benchmark builds from, so results from a
/// checkout without git history still name the code they measured.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if name == "target" || name == "out" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "shims", "src", "perfbench"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            h.bytes(
                file.strip_prefix(root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.u64(bytes.len() as u64);
            h.bytes(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

/// The stamp of a run from the checkout at `root` with `threads` threads.
pub fn stamp(root: &Path, threads: usize) -> Map<String, Value> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_commit = command_line("git", &["rev-parse", "--show-toplevel"], root)
        .filter(|top| Path::new(top).canonicalize().ok() == root.canonicalize().ok())
        .and_then(|_| command_line("git", &["rev-parse", "HEAD"], root));
    let mut out = Map::new();
    out.insert("nproc".into(), int(nproc as u64));
    out.insert("threads".into(), int(threads as u64));
    out.insert("cpu".into(), text(cpu_model()));
    out.insert(
        "rustc".into(),
        text(command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".to_string())),
    );
    out.insert(
        "profile".into(),
        text(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    out.insert("git_commit".into(), git_commit.map_or(Value::Null, text));
    out.insert("source_digest".into(), text(source_digest(root)));
    out
}

/// Loads records from a file holding one record or an array of them.
fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let records = match value {
        Value::Array(items) => items,
        record => vec![record],
    };
    if records.is_empty() || records.iter().any(|r| r.get("stamp").is_none()) {
        return Err(format!("{path}: not a perfbench record"));
    }
    Ok(records)
}

fn machine(record: &Value) -> Vec<String> {
    MACHINE_KEYS
        .iter()
        .map(|k| {
            record.get("stamp").and_then(|s| s.get(k)).map_or_else(
                || "null".to_string(),
                |v| serde_json::to_string(v).unwrap_or_default(),
            )
        })
        .collect()
}

/// Compares the per-metric medians of two sets of records of one workload.
/// Returns the report, or an error if the machine stamps or workloads
/// differ.
pub fn compare(before: &str, after: &str) -> Result<String, String> {
    let a = load(before)?;
    let b = load(after)?;
    let reference = machine(&a[0]);
    for record in a.iter().chain(&b) {
        let m = machine(record);
        if m != reference {
            let diffs: Vec<String> = MACHINE_KEYS
                .iter()
                .zip(reference.iter().zip(&m))
                .filter(|(_, (x, y))| x != y)
                .map(|(k, (x, y))| format!("{k}: {x} vs {y}"))
                .collect();
            return Err(format!(
                "machine stamps differ ({}); refusing to compare",
                diffs.join(", ")
            ));
        }
    }
    let workload = |r: &Value| {
        r.get("workload")
            .and_then(|w| w.as_str())
            .map(str::to_string)
    };
    if a.iter().chain(&b).any(|r| workload(r) != workload(&a[0])) {
        return Err("records of different workloads; refusing to compare".to_string());
    }
    let medians = |records: &[Value]| {
        let mut by_name: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
        for record in records {
            if let Some(metrics) = record.get("metrics").and_then(|m| m.as_object()) {
                for (name, v) in metrics.iter() {
                    if let Some(v) = v.as_f64() {
                        by_name.entry(name.clone()).or_default().push(v);
                    }
                }
            }
        }
        by_name
            .into_iter()
            .map(|(k, v)| (k, (sys::median(&v), v.len())))
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    let (ma, mb) = (medians(&a), medians(&b));
    let mut out = format!(
        "workload {} — medians of {} vs {} runs\n",
        workload(&a[0]).unwrap_or_default(),
        a.len(),
        b.len()
    );
    for (name, (va, _)) in &ma {
        if let Some((vb, _)) = mb.get(name) {
            let change = if *va != 0.0 {
                format!("{:+.1}%", (vb / va - 1.0) * 100.0)
            } else {
                "-".into()
            };
            out.push_str(&format!("{name:40} {va:>14.4} {vb:>14.4} {change:>9}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, cpu: &str, latency: f64) -> String {
        let path = dir.join(name);
        let text = format!(
            r#"{{"workload": "w", "stamp": {{"nproc": 2, "threads": 2, "cpu": "{cpu}", "rustc": "r", "profile": "release"}}, "metrics": {{"norm_op_p50_ms": {latency}}}}}"#
        );
        std::fs::write(&path, text).expect("write record");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn results_from_different_machines_are_refused() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("stamp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let a = write(&dir, "a.json", "x", 10.0);
        let b = write(&dir, "b.json", "x", 12.0);
        let c = write(&dir, "c.json", "y", 12.0);
        let report = compare(&a, &b).expect("same machine");
        assert!(report.contains("+20.0%"), "{report}");
        assert!(compare(&a, &c).unwrap_err().contains("cpu"));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn stamp_names_the_machine_and_build() {
        let s = stamp(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .expect("repo root"),
            2,
        );
        for key in MACHINE_KEYS {
            assert!(s.contains_key(key), "{key}");
        }
        assert!(s.contains_key("source_digest"));
    }
}
