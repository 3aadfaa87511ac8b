//! Cross-crate integration of the design-space exploration engine: the
//! issue's acceptance criteria, end to end — a ≥500-point space across four
//! configurations and four workloads, a non-empty three-objective Pareto
//! frontier whose Fig 12 slice matches the legacy curve exactly,
//! bit-identical cache replays, and the simulator validation hook.

use fusemax::dse::{
    dominates, validate_top_k, DesignSpace, Objectives, Sweeper, ValidationStatus, ARRAY_DIMS,
};
use fusemax::eval::fig12;
use fusemax::model::{ConfigKind, ModelParams};
use fusemax::workloads::{TransformerConfig, SEQ_LENGTHS};

/// The four-configuration sweep the issue specifies: unfused, FLAT,
/// FuseMax serialized (+Architecture), FuseMax pipelined (+Binding).
const SWEPT_KINDS: [ConfigKind; 4] =
    [ConfigKind::Unfused, ConfigKind::Flat, ConfigKind::FuseMaxArch, ConfigKind::FuseMaxBinding];

/// 6 dims × 4 kinds × 4 workloads × 6 lengths = 576 candidate designs.
fn big_space() -> DesignSpace {
    DesignSpace::new()
        .with_array_dims(ARRAY_DIMS)
        .with_kinds(SWEPT_KINDS)
        .with_workloads(TransformerConfig::all())
        .with_seq_lens(SEQ_LENGTHS)
}

#[test]
fn sweeps_over_500_points_across_four_kinds_and_workloads() {
    let space = big_space();
    assert!(space.len() >= 500, "space has only {} points", space.len());

    let sweeper = Sweeper::new(ModelParams::default());
    let outcome = sweeper.sweep(&space);
    assert_eq!(outcome.evaluations.len(), space.len());
    assert_eq!(outcome.stats.evaluated, space.len());

    // Every kind and every workload really got evaluated.
    for kind in SWEPT_KINDS {
        assert!(outcome.evaluations.iter().any(|e| e.point.kind == kind), "{kind} missing");
    }
    for workload in TransformerConfig::all() {
        assert!(
            outcome.evaluations.iter().any(|e| e.point.workload.name == workload.name),
            "{} missing",
            workload.name
        );
    }

    // A non-empty three-objective frontier, internally consistent.
    let frontier = outcome.frontier_points();
    assert!(!frontier.is_empty());
    for point in &frontier {
        let [area, latency, energy] = point.objectives();
        assert!(area > 0.0 && latency > 0.0 && energy > 0.0);
    }
    // Frontier members of one group never dominate each other.
    for group in &outcome.frontiers {
        let pts = group.frontier.points();
        for a in pts {
            for b in pts {
                if !std::ptr::eq(a, b) {
                    assert!(!dominates(&a.objectives(), &b.objectives()));
                }
            }
        }
    }
}

#[test]
fn fig12_slice_of_the_sweep_matches_the_legacy_curve_exactly() {
    let params = ModelParams::default();
    let sweeper = Sweeper::new(params.clone());
    let seq_len = 1 << 18;

    for cfg in TransformerConfig::all() {
        // The engine's fig12-equivalent slice…
        let slice = sweeper
            .sweep(&DesignSpace::new().with_workloads([cfg.clone()]).with_seq_lens([seq_len]));
        // …must equal the published fig12_curve output point for point.
        let legacy = fig12::fig12_curve(&cfg, seq_len, &params);
        assert_eq!(slice.evaluations.len(), legacy.len());
        for (evaluation, point) in slice.evaluations.iter().zip(&legacy) {
            assert_eq!(evaluation.point.array_dim, point.array_dim, "{}", cfg.name);
            assert_eq!(
                evaluation.area_cm2.to_bits(),
                point.area_cm2.to_bits(),
                "{} area at {}",
                cfg.name,
                point.array_dim
            );
            assert_eq!(
                evaluation.latency_s.to_bits(),
                point.latency_s.to_bits(),
                "{} latency at {}",
                cfg.name,
                point.array_dim
            );
        }

        // All six legacy ARRAY_DIMS points are Pareto-optimal (bigger chips
        // are strictly faster), so the frontier holds every one of them.
        let group = &slice.frontiers[0];
        assert_eq!(group.frontier.len(), ARRAY_DIMS.len(), "{}", cfg.name);
        for &dim in &ARRAY_DIMS {
            assert!(
                group.frontier.points().iter().any(|e| e.point.array_dim == dim),
                "{}: {dim}x{dim} missing from the frontier",
                cfg.name
            );
        }
    }
}

#[test]
fn repeated_sweeps_serve_bit_identical_reports_from_the_cache() {
    let space = big_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let first = sweeper.sweep(&space);
    let second = sweeper.sweep(&space);

    assert_eq!(second.stats.cache_hits, space.len());
    assert_eq!(second.stats.evaluated, 0);
    assert_eq!(sweeper.cache().len(), space.len());
    for (a, b) in first.evaluations.iter().zip(&second.evaluations) {
        // Same allocation, hence bit-identical by construction…
        assert!(std::sync::Arc::ptr_eq(a, b));
        // …and verifiably so on the wire format.
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a.report.cycles.to_bits(), b.report.cycles.to_bits());
    }
}

#[test]
fn pruned_search_agrees_with_the_exhaustive_frontier() {
    let space = big_space();
    let exhaustive = Sweeper::new(ModelParams::default()).sweep(&space);
    let pruned = Sweeper::new(ModelParams::default()).sweep_pruned(&space);

    // Pruning must skip work (that is its point) without changing any
    // frontier.
    assert!(pruned.stats.pruned > 0, "no candidate was pruned");
    assert!(pruned.stats.evaluated < space.len());
    for group in &exhaustive.frontiers {
        let other = pruned
            .frontier_for(&group.model, group.seq_len)
            .unwrap_or_else(|| panic!("missing group {} @ {}", group.model, group.seq_len));
        let mut a: Vec<[f64; 3]> = group.frontier.points().iter().map(|p| p.objectives()).collect();
        let mut b: Vec<[f64; 3]> = other.frontier.points().iter().map(|p| p.objectives()).collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b, "{} @ {}", group.model, group.seq_len);
    }
}

#[test]
fn top_designs_survive_simulator_replay() {
    let outcome = Sweeper::new(ModelParams::default()).sweep(&big_space());
    let validations = validate_top_k(&outcome, 3);
    assert_eq!(validations.len(), 3);
    for validation in &validations {
        assert!(validation.passed(), "{validation}");
        // The fastest designs are FuseMax designs, which have a real
        // spatial binding — so they are simulated, not waved through.
        assert_eq!(validation.status, ValidationStatus::Confirmed, "{validation}");
    }
}

#[test]
fn frontier_json_round_trips_key_facts() {
    let outcome = Sweeper::new(ModelParams::default()).sweep(
        &DesignSpace::new()
            .with_array_dims([64, 256])
            .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
            .with_seq_lens([1 << 16]),
    );
    let json = fusemax::dse::frontier_json(&outcome);
    for model in ["BERT", "TrXL", "T5", "XLM"] {
        assert!(json.contains(&format!("\"model\":\"{model}\"")), "{model} missing");
    }
    assert!(json.contains("\"seq_len\":65536"));
    assert!(json.contains("\"candidates\":16"));
}
