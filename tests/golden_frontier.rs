//! The golden-frontier gate: the Fig 12 Pareto frontier serialized by the
//! DSE engine must match the checked-in golden byte for byte, so any
//! drift in the analytical model, the area/energy tables, or the JSON
//! layer fails the build instead of silently shipping wrong figures.
//!
//! To bless an *intentional* model change, regenerate the golden with
//! `FUSEMAX_UPDATE_GOLDEN=1 cargo test --test golden_frontier` and commit
//! the diff.

use fusemax::dse::{frontiers_only_json, DesignSpace, Sweeper};
use fusemax::model::ModelParams;
use std::path::Path;

mod common;

const GOLDEN_PATH: &str = "tests/golden/fig12_frontier.json";

/// The exact JSON the current model produces for the paper's Fig 12
/// space (`DesignSpace::new()`: six array dims × +Binding × four models
/// × 256K tokens).
fn current_fig12_json() -> String {
    let sweeper = Sweeper::new(ModelParams::default());
    frontiers_only_json(&sweeper.sweep(&DesignSpace::new()))
}

#[test]
fn fig12_frontier_matches_the_checked_in_golden() {
    common::check_golden(GOLDEN_PATH, &current_fig12_json(), "golden_frontier");
}

#[test]
fn golden_serialization_is_reproducible_within_a_run() {
    // Two independent sweeps (fresh caches) serialize byte-identically —
    // the property the CI diff relies on.
    assert_eq!(current_fig12_json(), current_fig12_json());
}

#[test]
fn golden_file_is_stat_free_and_wellformed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(root.join(GOLDEN_PATH)).expect("golden present");
    assert!(golden.starts_with("{\"frontiers\":["));
    assert!(!golden.contains("elapsed_s"), "timings would break determinism");
    for model in ["BERT", "TrXL", "T5", "XLM"] {
        assert!(golden.contains(&format!("\"model\":\"{model}\"")), "{model} missing");
    }
}
