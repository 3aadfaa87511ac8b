//! Design-space exploration with the `fusemax-dse` engine: sweep
//! architectures × configurations × workloads, report the per-model
//! area/latency/energy Pareto frontiers, demonstrate pruning and the
//! evaluation cache, and replay the winners on the spatial simulator.
//!
//! Run with `cargo run --example design_space`.

use fusemax::arch::{ArchConfig, AreaModel};
use fusemax::dse::{
    frontier_json, frontiers_only_json, validate_top_k, DesignSpace, Sweeper, ARRAY_DIMS,
};
use fusemax::eval::fig12;
use fusemax::model::{ConfigKind, ModelParams};

fn main() {
    let params = ModelParams::default();
    let sweeper = Sweeper::new(params.clone());

    // --- 1. The classic Fig 12 view, now a slice of the DSE sweep. ---
    let curves = fig12::fig12(&params);
    print!("{}", fig12::render(&curves));

    // The iso-area comparison backing the headline numbers (§VI-A).
    let area = AreaModel::default();
    let fusemax = area.chip_area_mm2(&ArchConfig::fusemax_cloud());
    let flat = area.chip_area_mm2(&ArchConfig::flat_cloud());
    println!("\nIso-area check: FuseMax cloud = {:.0} mm², FLAT cloud = {:.0} mm²", fusemax, flat);
    println!("FuseMax is {:.1}% smaller (paper reports 6.4%).", 100.0 * (1.0 - fusemax / flat));

    // --- 2. The full search: four configurations, four models, six chip
    //        sizes, two sequence lengths. ---
    let space = DesignSpace::new()
        .with_array_dims(ARRAY_DIMS)
        .with_kinds([
            ConfigKind::Unfused,
            ConfigKind::Flat,
            ConfigKind::FuseMaxArch,
            ConfigKind::FuseMaxBinding,
        ])
        .with_seq_lens([1 << 16, 1 << 18]);
    println!("\nSweeping {} candidate designs...", space.len());

    let outcome = sweeper.sweep(&space);
    println!(
        "evaluated {} points in {:.2?} ({:.0} points/s); {} Pareto-optimal survive",
        outcome.stats.evaluated,
        outcome.stats.elapsed,
        outcome.stats.points_per_sec(),
        outcome.frontier_points().len(),
    );
    for group in &outcome.frontiers {
        let by_kind = |kind: ConfigKind| {
            group.frontier.points().iter().filter(|e| e.point.kind == kind).count()
        };
        println!(
            "  {:<5} @ {:>7} tokens: frontier {:>2}/{} (+Binding holds {}, FLAT {}, unfused {})",
            group.model,
            group.seq_len,
            group.frontier.len(),
            outcome.stats.candidates / outcome.frontiers.len(),
            by_kind(ConfigKind::FuseMaxBinding),
            by_kind(ConfigKind::Flat),
            by_kind(ConfigKind::Unfused),
        );
    }

    // --- 3. Pruning: the same space searched with dominance cutoffs. ---
    let pruning_sweeper = Sweeper::new(params.clone());
    let pruned = pruning_sweeper.sweep_pruned(&space);
    println!(
        "\nPruned search: {} evaluated, {} skipped by dominance bounds (of {}).",
        pruned.stats.evaluated, pruned.stats.pruned, pruned.stats.candidates
    );

    // --- 4. The cache: re-sweeping is free. ---
    let again = sweeper.sweep(&space);
    println!(
        "Re-sweep: {} cache hits, {} evaluations, {:.2?}.",
        again.stats.cache_hits, again.stats.evaluated, again.stats.elapsed
    );

    // --- 5. Replay the analytical winners on the spatial simulator. ---
    println!("\nValidating 3 top frontier designs (per-group winners first) on the simulator:");
    for validation in validate_top_k(&outcome, 3) {
        println!("  {validation}");
    }

    // --- 6. Export the frontiers for plotting / bench trajectories, and
    //        the deterministic Fig 12 frontier CI diffs against the
    //        checked-in golden (tests/golden/fig12_frontier.json). ---
    let json = frontier_json(&outcome);
    let path = std::path::Path::new("target").join("dse_frontier.json");
    if std::fs::create_dir_all("target").and_then(|_| std::fs::write(&path, &json)).is_ok() {
        println!("\nFrontier JSON ({} bytes) written to {}.", json.len(), path.display());
    } else {
        println!("\nFrontier JSON ({} bytes) follows:\n{json}", json.len());
    }
    let fig12_json = frontiers_only_json(&sweeper.sweep(&DesignSpace::new()));
    let fig12_path = std::path::Path::new("target").join("fig12_frontier.json");
    if std::fs::write(&fig12_path, &fig12_json).is_ok() {
        println!("Fig 12 golden frontier written to {}.", fig12_path.display());
    }
}
