//! Regression tests for the `experiments` driver's flag validation.
//!
//! Every case here used to be silently accepted (and silently misbehave):
//! a lone `--sim-profile` was ignored, a lone `--sim-seed` picked a profile
//! on its own, `--warn-over` without a `--compare` baseline only printed a
//! note after running everything, and a `--warn-over` pointed at a missing
//! or malformed baseline degraded to an informational skip — turning the
//! gating flag into a no-op exactly when the baseline was broken. All of
//! them must now fail fast with exit code 2 and a clear message, *before*
//! any experiment runs (which also keeps these spawned-process tests cheap).
//!
//! The last tests pin `--only` as the way to run one experiment (an exact
//! name selects that experiment alone; an empty value is a usage error) and
//! that an output file that cannot be written is a clean exit 1, not a panic.

use std::process::{Command, Output};

fn run_driver(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("driver binary spawns")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let output = run_driver(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{args:?} must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?} stderr must mention '{needle}', got: {stderr}"
    );
    assert!(
        stderr.contains("usage: experiments"),
        "{args:?} stderr must include the usage line, got: {stderr}"
    );
}

#[test]
fn sim_seed_without_sim_profile_is_rejected() {
    assert_usage_error(&["--sim-seed", "7"], "--sim-seed requires --sim-profile");
}

#[test]
fn sim_profile_without_sim_seed_is_rejected() {
    assert_usage_error(
        &["--sim-profile", "adversarial"],
        "--sim-profile is only meaningful together with --sim-seed",
    );
}

#[test]
fn unknown_sim_profile_is_rejected_with_the_known_names() {
    let output = run_driver(&["--sim-seed", "7", "--sim-profile", "no-such-profile"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown --sim-profile 'no-such-profile'")
            && stderr.contains("adversarial"),
        "must list the known profiles, got: {stderr}"
    );
}

#[test]
fn warn_over_without_compare_is_rejected() {
    assert_usage_error(&["--warn-over", "2.0"], "--warn-over needs a --compare");
}

#[test]
fn warn_over_with_a_missing_baseline_is_rejected() {
    assert_usage_error(
        &[
            "--compare",
            "this-baseline-does-not-exist.json",
            "--warn-over",
            "2.0",
        ],
        "is unreadable",
    );
}

#[test]
fn warn_over_with_a_malformed_baseline_is_rejected() {
    let dir = std::env::temp_dir().join("driver_flags_malformed");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("baseline.json");
    std::fs::write(&path, "{ not json").expect("write baseline");
    assert_usage_error(
        &["--compare", path.to_str().unwrap(), "--warn-over", "2.0"],
        "malformed JSON",
    );
}

#[test]
fn warn_over_with_an_empty_baseline_is_rejected() {
    let dir = std::env::temp_dir().join("driver_flags_empty");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("baseline.json");
    std::fs::write(&path, r#"{"experiments": []}"#).expect("write baseline");
    assert_usage_error(
        &["--compare", path.to_str().unwrap(), "--warn-over", "2.0"],
        "has no experiment wall-clocks",
    );
}

#[test]
fn warn_over_still_validates_its_factor() {
    assert_usage_error(&["--warn-over", "0.5"], "--warn-over needs a factor >= 1.0");
}

#[test]
fn an_unmatched_only_filter_is_rejected() {
    assert_usage_error(
        &["--only", "no_such_experiment_name"],
        "matches no experiment",
    );
}

#[test]
fn unknown_flags_are_rejected() {
    assert_usage_error(&["--no-such-flag"], "unknown argument '--no-such-flag'");
}

#[test]
fn an_empty_only_filter_is_rejected() {
    assert_usage_error(&["--only", ""], "--only needs a non-empty experiment name");
}

#[test]
fn an_exact_only_name_runs_that_experiment_alone() {
    // `appg_alltoall` is also a prefix of `appg_alltoall_fastswitch`, which a
    // substring match would run too.
    let output = run_driver(&["--only", "appg_alltoall", "--scale", "0.05", "--json"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let json: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&output.stdout))
        .expect("--json prints one JSON document");
    let names: Vec<&str> = json
        .get("experiments")
        .and_then(|e| e.as_array())
        .expect("experiments array")
        .iter()
        .map(|record| {
            record
                .get("name")
                .and_then(|n| n.as_str())
                .expect("named record")
        })
        .collect();
    assert_eq!(names, ["appg_alltoall"]);
}

#[test]
fn an_unwritable_output_path_fails_without_a_panic() {
    // A regular file used as a directory component can never be written
    // through.
    let dir = std::env::temp_dir().join("driver_flags_unwritable");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("not_a_dir");
    std::fs::write(&file, "").expect("write placeholder");
    let md = file.join("E.md");
    let md = md.to_str().unwrap();
    let output = run_driver(&["--scale", "0.01", "--md", md]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("error: cannot write {md}")),
        "got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "got: {stderr}");
}
