//! Golden gates for every reproduced figure beyond Fig 12: the Fig 1b,
//! Fig 6, Fig 7, Fig 8/9, Fig 10/11, and Table 1 render outputs must
//! match their checked-in goldens byte for byte, so drift anywhere in the
//! analytical model, the energy tables, or the renderers fails the build
//! instead of silently shipping wrong curves (the Fig 12 frontier gate
//! lives in `tests/golden_frontier.rs`).
//!
//! To bless an *intentional* model change, regenerate every golden with
//! `FUSEMAX_UPDATE_GOLDEN=1 cargo test --test golden_figures` and commit
//! the diff.
//!
//! Each test also writes the *current* render to `target/figures/` so CI
//! can upload the artifacts whether or not the diff passes.

use fusemax::eval::fig8_9::{figure, Metric, Scope};
use fusemax::eval::{fig1b, fig6, fig7, table1};
use fusemax::model::ModelParams;
use fusemax::workloads::TransformerConfig;
use std::path::{Path, PathBuf};

mod common;

/// CSV renders are used for the grids: `Grid::to_csv` formats every value
/// with Rust's shortest-round-trip `f64` formatting, so the bytes are a
/// deterministic function of the model — exactly what a golden diff needs.
fn panels_csv(panels: &[fusemax::eval::render::Grid]) -> String {
    panels.iter().map(|g| g.to_csv()).collect::<Vec<_>>().join("\n")
}

/// The current bytes of one gated render.
fn current(name: &str) -> String {
    let params = ModelParams::default();
    match name {
        "fig1b_compute.csv" => {
            let grids: Vec<fusemax::eval::render::Grid> =
                TransformerConfig::all().iter().map(fig1b::fig1b).collect();
            panels_csv(&grids)
        }
        "fig10_11_e2e.csv" => format!(
            "{}\n{}",
            panels_csv(&figure(Scope::EndToEnd, Metric::Speedup, &params)),
            panels_csv(&figure(Scope::EndToEnd, Metric::EnergyUse, &params)),
        ),
        "fig6_utilization.csv" => format!(
            "{}\n{}",
            panels_csv(&fig6::fig6(fig6::Array::OneD, &params)),
            panels_csv(&fig6::fig6(fig6::Array::TwoD, &params)),
        ),
        "fig7_einsum_share.csv" => panels_csv(&fig7::fig7(&params)),
        "fig8_9_attention.csv" => format!(
            "{}\n{}",
            panels_csv(&figure(Scope::Attention, Metric::Speedup, &params)),
            panels_csv(&figure(Scope::Attention, Metric::EnergyUse, &params)),
        ),
        "table1.txt" => table1::render(&table1::table1().expect("pass analysis")),
        other => panic!("no golden render named {other:?}"),
    }
}

/// Diffs `name` against its golden, blessing it when
/// `FUSEMAX_UPDATE_GOLDEN` is set, and always leaving the current render
/// under `target/figures/` for artifact upload.
fn gate(name: &str) {
    let rendered = current(name);

    let out_dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/figures");
    std::fs::create_dir_all(&out_dir).expect("create target/figures");
    std::fs::write(out_dir.join(name), &rendered).expect("write current render");

    common::check_golden(&format!("tests/golden/{name}"), &rendered, "golden_figures");
}

#[test]
fn fig1b_compute_matches_the_golden() {
    gate("fig1b_compute.csv");
}

#[test]
fn fig10_11_e2e_matches_the_golden() {
    gate("fig10_11_e2e.csv");
}

#[test]
fn fig6_utilization_matches_the_golden() {
    gate("fig6_utilization.csv");
}

#[test]
fn fig7_einsum_share_matches_the_golden() {
    gate("fig7_einsum_share.csv");
}

#[test]
fn fig8_9_attention_matches_the_golden() {
    gate("fig8_9_attention.csv");
}

#[test]
fn table1_matches_the_golden() {
    gate("table1.txt");
}

#[test]
fn golden_renders_are_reproducible_within_a_run() {
    // Two independent renders are byte-identical — the property the CI
    // diff relies on.
    for name in [
        "fig1b_compute.csv",
        "fig6_utilization.csv",
        "fig7_einsum_share.csv",
        "fig8_9_attention.csv",
        "fig10_11_e2e.csv",
        "table1.txt",
    ] {
        assert_eq!(current(name), current(name), "{name} is not deterministic");
    }
}

#[test]
fn golden_files_are_wellformed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (name, needles) in [
        ("fig1b_compute.csv", &["Fig 1b", "BERT", "XLM", "Attn", "Linear"][..]),
        ("fig6_utilization.csv", &["Fig 6a", "Fig 6b", "BERT", "XLM"][..]),
        ("fig7_einsum_share.csv", &["Fig 7", "QK", "idle"][..]),
        ("fig8_9_attention.csv", &["Fig 8", "Fig 9", "T5"][..]),
        ("fig10_11_e2e.csv", &["Fig 10", "Fig 11", "TrXL"][..]),
        ("table1.txt", &["Table I", "3-pass", "1-pass", "FlashAttention-2"][..]),
    ] {
        let golden = std::fs::read_to_string(root.join("tests/golden").join(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        for needle in needles {
            assert!(golden.contains(needle), "{name} lacks {needle:?}");
        }
    }
}
