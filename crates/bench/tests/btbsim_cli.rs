//! The `btbsim` binary end to end: policy names are resolved once, at
//! argument parsing, so an unknown name is a usage error before any
//! simulation, and every known name runs and prints a labelled report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use btb_trace::write_binary;
use btb_workloads::{AppSpec, InputConfig};
use thermometer::policy_kind::POLICY_NAMES;

/// Writes a small kafka trace under a per-test temp dir and returns its
/// path.
fn small_trace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btbsim-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("kafka.btbt");
    let trace = AppSpec::by_name("kafka")
        .expect("built-in app")
        .generate(InputConfig::input(1), 5_000);
    let mut file = std::fs::File::create(&path).expect("create trace file");
    write_binary(&mut file, &trace).expect("write trace");
    path
}

fn btbsim(trace: &Path, policy: &str) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_btbsim"))
        .arg(trace)
        .args(["--policy", policy, "--threads", "1"])
        .output()
        .expect("btbsim starts");
    // Best-effort cleanup of the per-test temp dir.
    let _ = std::fs::remove_dir_all(trace.parent().expect("trace has a dir"));
    out
}

#[test]
fn an_unknown_policy_is_a_usage_error_listing_the_vocabulary() {
    let out = btbsim(&small_trace("unknown"), "lru,nosuch");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "no report before the error: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown policy nosuch"), "{stderr}");
    assert!(stderr.contains(&POLICY_NAMES.join(", ")), "{stderr}");
}

#[test]
fn each_named_policy_prints_a_labelled_report() {
    let out = btbsim(&small_trace("labels"), "lru,thermometer");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let labels: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("policy"))
        .map(str::trim)
        .collect();
    assert_eq!(labels, ["LRU", "Thermometer"], "{stdout}");
}
