//! Guided-search throughput and quality: random vs genetic vs annealing
//! over the extended Fig 12 space at a 25% evaluation budget, against the
//! exhaustive sweep as ground truth — plus warm-cache reruns, the path a
//! second figure regeneration takes.

use criterion::Criterion;
use fusemax_dse::search::{
    convergence, hypervolume_fraction, GeneticSearch, RandomSearch, SearchBudget, SearchStrategy,
    SimulatedAnnealing, SnapPolicy,
};
use fusemax_dse::{DesignSpace, Sweeper};
use fusemax_model::{ConfigKind, ModelParams};
use fusemax_workloads::TransformerConfig;
use std::hint::black_box;
use std::time::Duration;

/// The extended Fig 12 search space (180 points, one frontier group).
fn search_space() -> DesignSpace {
    DesignSpace::new()
        .with_kinds(ConfigKind::all())
        .with_workloads([TransformerConfig::bert()])
        .with_frequencies_hz([None, Some(470e6)])
        .with_buffer_scales([0.5, 1.0, 2.0])
}

fn strategies(seed: u64) -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(RandomSearch::new(seed)),
        Box::new(GeneticSearch::new(seed)),
        Box::new(SimulatedAnnealing::new(seed)),
    ]
}

fn bench_strategies(c: &mut Criterion) {
    let space = search_space();
    let budget = SearchBudget::fraction(&space, 0.25);
    let mut group =
        c.benchmark_group(format!("dse_search_{}of{}", budget.evaluations, space.len()));
    group.measurement_time(Duration::from_secs(3)).sample_size(20);
    for strategy in strategies(7) {
        // Cold: every run pays for its own evaluations.
        group.bench_function(format!("{}_cold", strategy.name()), |b| {
            b.iter(|| {
                let sweeper = Sweeper::new(ModelParams::default());
                black_box(strategy.search(&sweeper, &space, budget))
            })
        });
    }
    // Warm: the shared cache already holds the whole space, so a guided
    // run is pure bookkeeping (the figure-regeneration path).
    let warm = Sweeper::new(ModelParams::default());
    let _ = warm.sweep(&space);
    for strategy in strategies(7) {
        group.bench_function(format!("{}_warm", strategy.name()), |b| {
            b.iter(|| black_box(strategy.search(&warm, &space, budget)))
        });
    }
    group.finish();
}

/// Continuous (off-grid) vs snap-to-grid annealing, plus the
/// multi-fidelity screened variant — the cost side of the tentpole's
/// quality claims (honors `FUSEMAX_BENCH_SMOKE` via the criterion stub
/// like every other case).
fn bench_continuous_vs_grid(c: &mut Criterion) {
    let space = search_space();
    let budget = SearchBudget::fraction(&space, 0.25);
    let mut group = c.benchmark_group("dse_annealing_offgrid");
    group.measurement_time(Duration::from_secs(3)).sample_size(20);
    for (label, annealer) in [
        ("grid_cold", SimulatedAnnealing::new(7)),
        ("continuous_cold", SimulatedAnnealing::new(7).with_snap_policy(SnapPolicy::Continuous)),
        (
            "continuous_screened_cold",
            SimulatedAnnealing::new(7)
                .with_snap_policy(SnapPolicy::Continuous)
                .with_screening(true),
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let sweeper = Sweeper::new(ModelParams::default());
                black_box(annealer.search(&sweeper, &space, budget))
            })
        });
    }
    group.finish();
}

fn main() {
    fusemax_bench::banner(
        "DSE guided search",
        "random / genetic / annealing vs the exhaustive frontier at a 25% budget",
    );

    // Headline quality numbers for the bench trajectory.
    let space = search_space();
    let budget = SearchBudget::fraction(&space, 0.25);
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);
    println!(
        "space: {} points | budget: {} evaluations | exhaustive frontier: {} designs",
        space.len(),
        budget.evaluations,
        exhaustive.frontier_points().len(),
    );
    for strategy in strategies(7) {
        let cold = Sweeper::new(ModelParams::default());
        let outcome = strategy.search(&cold, &space, budget);
        let fraction = hypervolume_fraction(&outcome.frontiers, &exhaustive);
        let curve = convergence(&outcome, &exhaustive, 9);
        let to_90 =
            curve.evaluations_to_reach(0.9).map_or_else(|| "never".to_string(), |n| n.to_string());
        println!(
            "{:>10}: {:5.1}% of exhaustive hypervolume in {} evaluations \
             (90% after {} evals, frontier {})",
            strategy.name(),
            fraction * 100.0,
            outcome.stats.requested,
            to_90,
            outcome.frontier_points().len(),
        );
    }

    // Off-grid and screened headline: what the continuous relaxation and
    // the lower-bound filter buy at the same seed and budget.
    let continuous = SimulatedAnnealing::new(7).with_snap_policy(SnapPolicy::Continuous);
    let cold = Sweeper::new(ModelParams::default());
    let outcome = continuous.search(&cold, &space, budget);
    let off_grid = outcome.evaluations.iter().filter(|e| !space.is_on_grid(&e.point)).count();
    println!(
        "continuous: {:5.1}% of the grid hypervolume, {} of {} evaluations off-grid",
        hypervolume_fraction(&outcome.frontiers, &exhaustive) * 100.0,
        off_grid,
        outcome.stats.requested,
    );
    let screened_strategy = SimulatedAnnealing::new(7).with_screening(true);
    let cold = Sweeper::new(ModelParams::default());
    let screened = screened_strategy.search(&cold, &space, budget);
    println!(
        "screened:   {:5.1}% of the grid hypervolume, {} full evaluations, {} rejected by bound",
        hypervolume_fraction(&screened.frontiers, &exhaustive) * 100.0,
        screened.stats.evaluated,
        screened.stats.screened,
    );

    let mut criterion = Criterion::default();
    bench_strategies(&mut criterion);
    bench_continuous_vs_grid(&mut criterion);

    fusemax_bench::paper_note(
        "the paper's Fig 12 sweeps 6 hand-picked arrays exhaustively; the guided strategies \
         recover ≥90% of the extended space's Pareto hypervolume from a quarter of the \
         evaluations (off-grid annealing routinely dominates grid frontier points), and the \
         lower-bound screen rejects provably-dominated candidates before the model runs.",
    );
}
