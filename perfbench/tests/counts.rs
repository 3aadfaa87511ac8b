//! The benchmark's own checks. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! For every workload: two runs with one seed report identical
//! deterministic counts and fingerprints (one of them traced, so tracing
//! cannot change what is simulated), and a second, held-out seed passes
//! every output check too.

use perfbench::workloads::{run_named, NAMES};
use perfbench::{Options, RunResult, END_TO_END, PER_LAYER};

/// The default seed, and the held-out one later claims must also hold on.
const SEEDS: (u64, u64) = (7, 8);

fn run(name: &str, seed: u64, trace: bool) -> RunResult {
    let opts = Options { seed, seconds: 0.0, trace, out_dir: None };
    let result = run_named(name, &opts).expect("known workload");
    assert!(result.correct, "{name} seed {seed} failed its checks:\n{}", result.lines.join("\n"));
    assert_eq!(result.failed, 0);
    assert!(result.attempted > 0);
    result
}

fn counts_repeat_and_held_out_seed_passes(name: &str) {
    let untraced = run(name, SEEDS.0, false);
    let traced = run(name, SEEDS.0, true);
    assert_eq!(untraced.counts, traced.counts, "{name}: counts changed between runs");
    assert_eq!(untraced.fingerprint, traced.fingerprint, "{name}: simulated results changed");
    assert!(untraced.counts.values().any(|&v| v > 0.0), "{name}: no counts recorded");
    for (metric, value, _) in &untraced.metrics {
        assert!(value.is_finite() && *value > 0.0, "{name}: {metric} = {value}");
    }
    run(name, SEEDS.1, false);
}

#[test]
fn replay_light_repeats() {
    counts_repeat_and_held_out_seed_passes("replay_light");
}

#[test]
fn replay_overload_repeats() {
    counts_repeat_and_held_out_seed_passes("replay_overload");
}

#[test]
fn codesign_repeats() {
    counts_repeat_and_held_out_seed_passes("codesign");
}

#[test]
fn dse_search_repeats() {
    counts_repeat_and_held_out_seed_passes("dse_search");
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> =
        NAMES.iter().copied().chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0)).collect();
    for name in &names {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "BENCHMARK.json lacks {name}");
    }
    assert_eq!(json.matches("\"name\":").count(), names.len(), "BENCHMARK.json lists extra names");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json gives {name} another unit than {unit}");
    }
}
