//! Acceptance suite for the guided design-space search subsystem: every
//! strategy is deterministic given a seed, shares the exhaustive sweep's
//! [`EvalCache`] (a guided run after a full sweep performs **zero** new
//! model evaluations), and recovers ≥90% of the exhaustive Pareto
//! hypervolume on the Fig 12 space within a 25% evaluation budget.

use fusemax::dse::search::{
    convergence, hypervolume_fraction, GeneticSearch, RandomSearch, SearchBudget, SearchStrategy,
    SimulatedAnnealing, SnapPolicy,
};
use fusemax::dse::{dominates, DesignSpace, EvalCache, Objectives, PointKey, Sweeper};
use fusemax::model::{ConfigKind, ModelParams};
use fusemax::workloads::TransformerConfig;
use proptest::prelude::*;
use std::collections::HashSet;

/// The Fig 12 acceptance space: the paper's six array dimensions at 256K
/// tokens, widened with the full configuration axis and the
/// frequency/buffer knobs so a guided search has real decisions to make.
/// 6 dims × 5 kinds × 2 frequencies × 3 buffer scales = 180 candidates,
/// one `(BERT, 256K)` frontier group.
fn fig12_space() -> DesignSpace {
    DesignSpace::new()
        .with_kinds(ConfigKind::all())
        .with_workloads([TransformerConfig::bert()])
        .with_frequencies_hz([None, Some(470e6)])
        .with_buffer_scales([0.5, 1.0, 2.0])
}

/// A multi-group space (2 workloads × 2 lengths) for the group-handling
/// tests.
fn multi_group_space() -> DesignSpace {
    DesignSpace::new()
        .with_kinds([
            ConfigKind::Unfused,
            ConfigKind::Flat,
            ConfigKind::FuseMaxArch,
            ConfigKind::FuseMaxBinding,
        ])
        .with_workloads([TransformerConfig::bert(), TransformerConfig::xlm()])
        .with_seq_lens([1 << 14, 1 << 18])
}

/// The three strategies under test, seeded identically.
fn strategies(seed: u64) -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(RandomSearch::new(seed)),
        Box::new(GeneticSearch::new(seed)),
        Box::new(SimulatedAnnealing::new(seed)),
    ]
}

#[test]
fn every_strategy_recovers_90pct_hypervolume_at_quarter_budget() {
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);
    let budget = SearchBudget::fraction(&space, 0.25);
    assert_eq!(budget.evaluations, 45);

    for strategy in strategies(7) {
        // Fresh sweeper per strategy: no help from the exhaustive cache,
        // the budget is all the strategy gets.
        let cold = Sweeper::new(ModelParams::default());
        let outcome = strategy.search(&cold, &space, budget);
        assert!(outcome.stats.requested <= budget.evaluations, "{} overspent", strategy.name());
        assert_eq!(
            outcome.stats.evaluated,
            outcome.stats.requested,
            "{} had no cache to draw from",
            strategy.name()
        );
        let fraction = hypervolume_fraction(&outcome.frontiers, &exhaustive);
        assert!(
            fraction >= 0.90,
            "{} recovered only {:.1}% of the exhaustive hypervolume with {} evaluations",
            strategy.name(),
            fraction * 100.0,
            outcome.stats.requested
        );
    }
}

#[test]
fn guided_run_after_a_full_sweep_performs_zero_new_evaluations() {
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    sweeper.sweep(&space);
    let cached = sweeper.cache().len();

    for strategy in strategies(3) {
        let outcome = strategy.search(&sweeper, &space, SearchBudget::fraction(&space, 0.25));
        assert!(outcome.stats.requested > 0);
        assert_eq!(
            outcome.stats.evaluated,
            0,
            "{} re-ran the model despite a fully warmed shared cache",
            strategy.name()
        );
        assert_eq!(outcome.stats.cache_hits, outcome.stats.requested, "{}", strategy.name());
    }
    assert_eq!(sweeper.cache().len(), cached, "guided runs must not grow a complete cache");
}

#[test]
fn exhaustive_sweep_reuses_guided_evaluations() {
    // Sharing goes both ways: a full sweep after a guided run gets the
    // guided evaluations for free.
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let guided =
        GeneticSearch::new(11).search(&sweeper, &space, SearchBudget::fraction(&space, 0.25));
    let outcome = sweeper.sweep(&space);
    assert_eq!(outcome.stats.cache_hits, guided.stats.requested);
    assert_eq!(outcome.stats.evaluated, space.len() - guided.stats.requested);
}

#[test]
fn strategies_are_deterministic_given_a_seed() {
    let space = fig12_space();
    for strategy in ["random", "genetic", "annealing"] {
        let run = |seed: u64| {
            let sweeper = Sweeper::new(ModelParams::default());
            let s: Box<dyn SearchStrategy> = match strategy {
                "random" => Box::new(RandomSearch::new(seed)),
                "genetic" => Box::new(GeneticSearch::new(seed)),
                _ => Box::new(SimulatedAnnealing::new(seed)),
            };
            s.search(&sweeper, &space, SearchBudget::evaluations(30))
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.evaluations.len(), b.evaluations.len(), "{strategy}");
        for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
            assert_eq!(x.point, y.point, "{strategy} diverged");
            assert_eq!(x.latency_s.to_bits(), y.latency_s.to_bits(), "{strategy}");
        }
        let c = run(6);
        assert!(
            a.evaluations.iter().zip(&c.evaluations).any(|(x, y)| x.point != y.point),
            "{strategy}: different seeds explored identically"
        );
    }
}

#[test]
fn multi_group_spaces_get_per_group_frontiers() {
    let space = multi_group_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);
    assert_eq!(exhaustive.frontiers.len(), 4);

    for strategy in strategies(7) {
        let cold = Sweeper::new(ModelParams::default());
        let outcome = strategy.search(&cold, &space, SearchBudget::fraction(&space, 0.25));
        let fraction = hypervolume_fraction(&outcome.frontiers, &exhaustive);
        assert!(
            fraction >= 0.80,
            "{}: {:.1}% over {} groups",
            strategy.name(),
            fraction * 100.0,
            outcome.frontiers.len()
        );
    }
}

#[test]
fn convergence_harness_tracks_hypervolume_vs_evaluations() {
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);

    for strategy in strategies(7) {
        let outcome = strategy.search(&sweeper, &space, SearchBudget::fraction(&space, 0.25));
        let curve = convergence(&outcome, &exhaustive, 9);
        assert_eq!(curve.strategy, strategy.name());
        assert!(!curve.samples.is_empty());
        for w in curve.samples.windows(2) {
            assert!(w[0].evaluations < w[1].evaluations);
            assert!(
                w[0].fraction <= w[1].fraction + 1e-12,
                "{}: hypervolume shrank",
                strategy.name()
            );
        }
        let final_fraction = curve.final_fraction();
        assert_eq!(final_fraction, hypervolume_fraction(&outcome.frontiers, &exhaustive));
        let to_90 = curve.evaluations_to_reach(0.9);
        assert!(
            to_90.is_some_and(|n| n <= outcome.stats.requested),
            "{} never reached 90% (final {:.3})",
            strategy.name(),
            final_fraction
        );
    }
}

#[test]
fn continuous_annealing_dominates_the_grid_frontier_off_grid() {
    // The tentpole acceptance: a SnapPolicy::Continuous annealing run on
    // the Fig 12 space must find at least one genuinely off-grid design
    // that Pareto-dominates a point on the exhaustive *grid* frontier —
    // proof that the grid cannot express the true frontier.
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);
    let grid_frontier = exhaustive.frontier_points();

    let cold = Sweeper::new(ModelParams::default());
    let outcome = SimulatedAnnealing::new(1).with_snap_policy(SnapPolicy::Continuous).search(
        &cold,
        &space,
        SearchBudget::fraction(&space, 0.25),
    );

    let off_grid: Vec<_> =
        outcome.evaluations.iter().filter(|e| !space.is_on_grid(&e.point)).collect();
    assert!(!off_grid.is_empty(), "a continuous run never left the grid");

    let dominators = off_grid
        .iter()
        .filter(|e| grid_frontier.iter().any(|g| dominates(&e.objectives(), &g.objectives())))
        .count();
    assert!(
        dominators >= 1,
        "no off-grid design dominated a grid frontier point ({} off-grid evaluations)",
        off_grid.len()
    );

    // And the run still scores against the exhaustive grid baseline.
    let fraction = hypervolume_fraction(&outcome.frontiers, &exhaustive);
    assert!(
        fraction >= 0.90,
        "continuous run recovered only {:.1}% of the grid hypervolume",
        fraction * 100.0
    );
    let curve = convergence(&outcome, &exhaustive, 9);
    assert_eq!(curve.final_fraction(), fraction, "convergence must use the same scoring");
}

#[test]
fn continuous_genetic_search_evaluates_off_grid_children() {
    let space = fig12_space();
    let cold = Sweeper::new(ModelParams::default());
    let outcome = GeneticSearch::new(7).with_snap_policy(SnapPolicy::Continuous).search(
        &cold,
        &space,
        SearchBudget::fraction(&space, 0.5),
    );
    let off_grid = outcome.evaluations.iter().filter(|e| !space.is_on_grid(&e.point)).count();
    assert!(off_grid > 0, "no jittered child was evaluated off-grid");
}

#[test]
fn continuous_strategies_are_deterministic_per_seed() {
    let space = fig12_space();
    let run = |seed: u64| {
        let sweeper = Sweeper::new(ModelParams::default());
        SimulatedAnnealing::new(seed).with_snap_policy(SnapPolicy::Continuous).search(
            &sweeper,
            &space,
            SearchBudget::evaluations(30),
        )
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.evaluations.len(), b.evaluations.len());
    for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
        assert_eq!(x.point, y.point, "continuous annealing diverged");
        assert_eq!(x.latency_s.to_bits(), y.latency_s.to_bits());
    }
    let c = run(6);
    assert!(
        a.evaluations.iter().zip(&c.evaluations).any(|(x, y)| x.point != y.point),
        "different seeds explored identically"
    );
}

#[test]
fn screening_cuts_full_evaluations_at_equal_hypervolume() {
    // The multi-fidelity acceptance: with the lower-bound screen on, a
    // budget 20% below the unscreened PR-2 baseline (45 evaluations at
    // 25%) must still recover ≥90% of the exhaustive hypervolume — the
    // screen spends cheap bound checks instead of model evaluations on
    // provably-dominated candidates.
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);
    let baseline = SearchBudget::fraction(&space, 0.25);
    assert_eq!(baseline.evaluations, 45);
    let reduced = SearchBudget::evaluations(baseline.evaluations * 4 / 5);
    assert_eq!(reduced.evaluations, 36);

    let screened: Vec<Box<dyn SearchStrategy>> = vec![
        Box::new(RandomSearch::new(7).with_screening(true)),
        Box::new(GeneticSearch::new(7).with_screening(true)),
        Box::new(SimulatedAnnealing::new(7).with_screening(true)),
    ];
    for strategy in screened {
        let cold = Sweeper::new(ModelParams::default());
        let outcome = strategy.search(&cold, &space, reduced);
        // The cut itself: the run may not exceed the reduced budget (so
        // relative to the 45-evaluation PR-2 baseline it spent ≥20%
        // less), and — the non-vacuous half — the screen must have
        // absorbed real load: the proposals it rejected, had they been
        // evaluated instead, would have overflowed the reduced budget.
        assert!(
            outcome.stats.evaluated <= reduced.evaluations,
            "{}: overspent the reduced budget",
            strategy.name()
        );
        assert!(
            outcome.stats.evaluated + outcome.stats.screened > reduced.evaluations,
            "{}: the screen diverted nothing ({} evaluated + {} screened ≤ {} budget)",
            strategy.name(),
            outcome.stats.evaluated,
            outcome.stats.screened,
            reduced.evaluations
        );
        assert!(
            outcome.stats.screened > 0,
            "{}: the lower-bound screen never rejected anything",
            strategy.name()
        );
        assert!(
            outcome.stats.screened <= reduced.cheap,
            "{}: screening overspent the cheap budget",
            strategy.name()
        );
        let fraction = hypervolume_fraction(&outcome.frontiers, &exhaustive);
        assert!(
            fraction >= 0.90,
            "{}: only {:.1}% of the exhaustive hypervolume with screening on",
            strategy.name(),
            fraction * 100.0
        );
    }
}

#[test]
fn screened_rejections_never_evict_real_frontier_points() {
    // Soundness: screening only rejects candidates whose *optimistic*
    // bound is dominated, so every design on the unscreened frontier
    // is either found or dominated by the screened run's frontier...
    // but with a reduced trajectory the screened run may simply not
    // visit a point. What must hold unconditionally: every screened
    // run's frontier point is a real evaluation, and the screen itself
    // charged no model evaluations.
    let space = fig12_space();
    let cold = Sweeper::new(ModelParams::default());
    let outcome = RandomSearch::new(3).with_screening(true).search(
        &cold,
        &space,
        SearchBudget::evaluations(30),
    );
    assert_eq!(
        outcome.stats.evaluated + outcome.stats.cache_hits,
        outcome.stats.requested,
        "screened rejections must not be charged as requests"
    );
    for group in &outcome.frontiers {
        for point in group.frontier.points() {
            assert!(outcome.evaluations.iter().any(|e| std::sync::Arc::ptr_eq(e, point)));
        }
    }
}

#[test]
fn off_grid_evaluations_replay_from_the_shared_cache() {
    // Off-grid entries are cached like grid entries, under canonical
    // keys: a second continuous run on the warm sweeper evaluates nothing
    // and returns the same points, bit for bit.
    let space = fig12_space();
    let warm = Sweeper::new(ModelParams::default());
    let run = || {
        SimulatedAnnealing::new(1).with_snap_policy(SnapPolicy::Continuous).search(
            &warm,
            &space,
            SearchBudget::evaluations(25),
        )
    };
    let first = run();
    assert!(first.evaluations.iter().any(|e| !space.is_on_grid(&e.point)));
    let replay = run();
    assert_eq!(replay.stats.evaluated, 0, "off-grid replay must be free from the shared cache");
    assert_eq!(replay.evaluations.len(), first.evaluations.len());
    for (a, b) in first.evaluations.iter().zip(&replay.evaluations) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a.area_cm2.to_bits(), b.area_cm2.to_bits());
    }
}

/// The ISSUE-5 determinism contract: the batched/parallel evaluation path
/// must be bit-identical to the serial path per seed — same evaluations in
/// the same order (latency bits included), same budget accounting, same
/// frontiers. `Sweeper::with_parallelism(false)` is the serial reference;
/// the default sweeper fans batches and annealing chains across all cores.
#[test]
fn parallel_runs_are_bit_identical_to_serial_per_seed() {
    type StrategyMaker = Box<dyn Fn() -> Box<dyn SearchStrategy>>;
    let space = fig12_space();
    let multi = multi_group_space();
    let configs: Vec<(&str, StrategyMaker)> = vec![
        ("random", Box::new(|| Box::new(RandomSearch::new(7)))),
        ("random+screen", Box::new(|| Box::new(RandomSearch::new(7).with_screening(true)))),
        ("genetic", Box::new(|| Box::new(GeneticSearch::new(7)))),
        ("genetic+screen", Box::new(|| Box::new(GeneticSearch::new(7).with_screening(true)))),
        (
            "genetic+continuous",
            Box::new(|| Box::new(GeneticSearch::new(7).with_snap_policy(SnapPolicy::Continuous))),
        ),
        ("annealing", Box::new(|| Box::new(SimulatedAnnealing::new(7)))),
        (
            "annealing+continuous+clockbw",
            Box::new(|| {
                Box::new(
                    SimulatedAnnealing::new(7)
                        .with_snap_policy(SnapPolicy::Continuous)
                        .with_clock_bw_relaxation(true),
                )
            }),
        ),
    ];
    // Every configuration at budget 40 on both spaces, plus a genetic run
    // over half the Fig 12 space and annealing chains over all five kinds,
    // two workloads and two lengths.
    let annealing_space = DesignSpace::new()
        .with_kinds(ConfigKind::all())
        .with_workloads([TransformerConfig::bert(), TransformerConfig::xlm()])
        .with_seq_lens([1 << 14, 1 << 18]);
    let genetic: StrategyMaker = Box::new(|| Box::new(GeneticSearch::new(7)));
    let annealing: StrategyMaker = Box::new(|| Box::new(SimulatedAnnealing::new(7)));
    let mut runs: Vec<(&DesignSpace, usize, &str, &StrategyMaker)> = Vec::new();
    for space in [&space, &multi] {
        runs.extend(configs.iter().map(|(name, make)| (space, 40, *name, make)));
    }
    runs.push((&space, 90, "genetic (budget 90)", &genetic));
    runs.push((&annealing_space, 80, "annealing (budget 80)", &annealing));
    for (space, budget, name, make) in runs {
        let serial_sweeper = Sweeper::new(ModelParams::default()).with_parallelism(false);
        let parallel_sweeper = Sweeper::new(ModelParams::default());
        let budget = SearchBudget::evaluations(budget);
        let serial = make().search(&serial_sweeper, space, budget);
        let parallel = make().search(&parallel_sweeper, space, budget);

        assert_eq!(serial.stats.requested, parallel.stats.requested, "{name}: budget");
        assert_eq!(serial.stats.evaluated, parallel.stats.evaluated, "{name}: evaluated");
        assert_eq!(serial.stats.screened, parallel.stats.screened, "{name}: screened");
        assert_eq!(serial.stats.revisits, parallel.stats.revisits, "{name}: revisits");
        assert_eq!(serial.stats.proposals, parallel.stats.proposals, "{name}: proposals");
        assert_eq!(serial.evaluations.len(), parallel.evaluations.len(), "{name}: length");
        for (a, b) in serial.evaluations.iter().zip(&parallel.evaluations) {
            assert_eq!(a.point, b.point, "{name}: evaluation order diverged");
            assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits(), "{name}: latency bits");
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "{name}: energy bits");
        }
        assert_eq!(serial.frontiers.len(), parallel.frontiers.len(), "{name}: groups");
        for (ga, gb) in serial.frontiers.iter().zip(&parallel.frontiers) {
            assert_eq!(ga.model, gb.model, "{name}: group order");
            assert_eq!(ga.seq_len, gb.seq_len, "{name}: group order");
            assert_eq!(ga.frontier.len(), gb.frontier.len(), "{name}: frontier size");
        }
    }
}

/// Without screening, the random searcher's batch size is invisible in
/// results (samples are drawn, charged, and recorded in draw order for
/// any batch size) — and parallel ≡ serial holds at every batch size.
/// With screening, batch size is a documented configuration knob.
#[test]
fn random_batch_size_is_invisible_without_screening() {
    let space = fig12_space();
    let budget = SearchBudget::evaluations(40);
    let reference = RandomSearch::new(7).with_batch(1).search(
        &Sweeper::new(ModelParams::default()).with_parallelism(false),
        &space,
        budget,
    );
    for batch in [2usize, 5, 16, 64] {
        for parallel in [false, true] {
            let sweeper = Sweeper::new(ModelParams::default()).with_parallelism(parallel);
            let run = RandomSearch::new(7).with_batch(batch).search(&sweeper, &space, budget);
            assert_eq!(run.evaluations.len(), reference.evaluations.len(), "batch {batch}");
            for (a, b) in reference.evaluations.iter().zip(&run.evaluations) {
                assert_eq!(a.point, b.point, "batch {batch} parallel {parallel}");
                assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
            }
            assert_eq!(run.stats.requested, reference.stats.requested);
        }
    }
}

/// The batched genetic searcher must actually batch: at least one
/// multi-point flush per generation (seed generation included), visible
/// through the new batch counters.
#[test]
fn genetic_search_issues_multi_point_batches_every_generation() {
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let outcome = GeneticSearch::new(1).search(&sweeper, &space, SearchBudget::evaluations(60));
    // 60 evaluations at population 16 is a seed batch plus ≥ 2 breeding
    // generations; every one must have flushed as a single multi-point
    // batch.
    assert!(
        outcome.stats.multi_point_batches >= 3,
        "only {} multi-point batches across the run",
        outcome.stats.multi_point_batches
    );
    assert!(outcome.stats.batches >= outcome.stats.multi_point_batches);
}

#[test]
fn eval_cache_type_is_exported_for_external_tools() {
    // The cache is part of the public API surface.
    let cache = EvalCache::new();
    assert!(cache.is_empty());
}

/// Distinct design points of `space`: grid cells whose axes repeat a
/// value materialize the same point.
fn distinct_points(space: &DesignSpace) -> usize {
    space.points().iter().map(PointKey::of).collect::<HashSet<_>>().len()
}

/// An array-dimension axis that repeats values gives 30 grid cells but
/// only 20 distinct points, so a budget clamped to the cells can never be
/// spent. The genetic searcher used to breed revisits here forever; a
/// generation that stages no new point is now a stall, and the search
/// stops once every distinct point is known.
#[test]
fn genetic_search_stops_once_repeated_axis_values_cover_the_grid() {
    let space = DesignSpace::new()
        .with_workloads([TransformerConfig::bert()])
        .with_kinds(ConfigKind::all())
        .with_array_dims([64, 64, 128, 256, 512, 512]);
    assert_eq!((space.len(), distinct_points(&space)), (30, 20));
    let sweeper = Sweeper::new(ModelParams::default());
    let outcome = GeneticSearch::new(1).search(&sweeper, &space, SearchBudget::evaluations(100));
    assert_eq!(outcome.stats.requested, 20);
    assert_eq!(outcome.evaluations.len(), 20);
}

/// A small grid space from generated axis picks. Any axis may repeat a
/// value, so some spaces hold fewer distinct points than cells, and a
/// repeated workload or sequence length names one `(workload, seq_len)`
/// frontier group twice.
fn small_space(
    dims: &[usize],
    kinds: &[usize],
    scales: &[usize],
    workloads: &[usize],
    seq_lens: &[usize],
) -> DesignSpace {
    let models = [TransformerConfig::bert(), TransformerConfig::xlm()];
    DesignSpace::new()
        .with_array_dims(dims.iter().map(|&i| [32, 64, 128, 256][i]))
        .with_kinds(kinds.iter().map(|&i| ConfigKind::all()[i]))
        .with_buffer_scales(scales.iter().map(|&i| [0.5, 1.0, 2.0][i]))
        .with_workloads(workloads.iter().map(|&i| models[i].clone()))
        .with_seq_lens(seq_lens.iter().map(|&i| [1 << 14, 1 << 18][i]))
}

/// Proposal bound per unit of `min(evaluations + cheap, len) + 1`, from
/// the loop caps, where `m = min(evaluations, len)`:
///
/// * random: at most `64m + 256` samples (its attempt cap), so 256;
/// * annealing: a chain with share `s ≥ 1` draws one start, at most
///   `32s + 64` moves and at most one restart per move, so
///   `64s + 129 ≤ 193s`; chains with no share draw nothing, and the
///   shares sum to `m`, so 193;
/// * genetic, at population `P` (clamped to ≥ 2): the seed generation
///   draws at most `64P + 256` genomes. A generation breeds until it has
///   `P` children or `16P` failures in a row, at most `P + 16P(P + 1) + 1`
///   draws, plus one immigrant. Every generation but the last adds a
///   point to the run's seen or screened set, which holds at most
///   `min(evaluations + cheap, len)` points, so
///   `16P² + 81P + 258` per unit.
fn proposals_per_unit(strategy: &str, population: usize) -> usize {
    let p = population.max(2);
    match strategy {
        "random" => 256,
        "annealing" => 193,
        "genetic" => 16 * p * p + 81 * p + 258,
        other => panic!("no proposal bound for {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every strategy terminates within a budget-proportional number of
    /// proposals on small grid spaces — repeated axis values and budgets
    /// far past the space included — requests no more than its budget or
    /// the distinct points, returns one frontier per distinct
    /// `(workload, seq_len)` at most, and a covering genetic run requests
    /// (or screens) every distinct point.
    #[test]
    fn every_strategy_does_bounded_work_on_small_spaces(
        dims in prop::collection::vec(0usize..4, 1..4),
        kinds in prop::collection::vec(0usize..5, 1..3),
        scales in prop::collection::vec(0usize..3, 1..3),
        workloads in prop::collection::vec(0usize..2, 1..3),
        seq_lens in prop::collection::vec(0usize..2, 1..3),
        seed in 0u64..1_000_000,
    ) {
        let space = small_space(&dims, &kinds, &scales, &workloads, &seq_lens);
        let (len, distinct) = (space.len(), distinct_points(&space));
        // Without screening the cache state cannot change a trajectory,
        // so those runs share one sweeper. Screened runs start cold: the
        // screen only tests points the cache does not hold.
        let shared = Sweeper::new(ModelParams::default());
        for budget in [1, len / 2, len, 10 * len, usize::MAX].map(SearchBudget::evaluations) {
            for screening in [false, true] {
                let strategies: [Box<dyn SearchStrategy>; 3] = [
                    Box::new(RandomSearch::new(seed).with_screening(screening)),
                    Box::new(GeneticSearch::new(seed).with_screening(screening)),
                    Box::new(SimulatedAnnealing::new(seed).with_screening(screening)),
                ];
                for strategy in &strategies {
                    let cold = Sweeper::new(ModelParams::default());
                    let sweeper = if screening { &cold } else { &shared };
                    let outcome = strategy.search(sweeper, &space, budget);
                    let stats = &outcome.stats;
                    let name = strategy.name();
                    let case = format!(
                        "{name} on {dims:?}/{kinds:?}/{scales:?}/{workloads:?}/{seq_lens:?}, \
                         seed {seed}, budget {}, screening {screening}",
                        budget.evaluations
                    );
                    let groups: HashSet<(&str, usize)> =
                        outcome.frontiers.iter().map(|g| (g.model.as_str(), g.seq_len)).collect();
                    prop_assert_eq!(groups.len(), outcome.frontiers.len(), "{case}: repeated group");
                    prop_assert!(stats.requested <= budget.evaluations.min(distinct), "{case}");
                    // Every candidate the session classified was drawn.
                    let staged = stats.requested + stats.revisits + stats.screened;
                    let units = budget.evaluations.saturating_add(budget.cheap).min(len) + 1;
                    // 16: the population `GeneticSearch::new` breeds.
                    let bound = proposals_per_unit(name, 16) * units;
                    prop_assert!(
                        (staged..=bound).contains(&stats.proposals),
                        "{case}: {} proposals, {staged} staged, bound {bound}",
                        stats.proposals
                    );
                    if name == "genetic" && budget.evaluations >= distinct {
                        prop_assert_eq!(stats.requested + stats.screened, distinct, "{case}");
                        if !screening {
                            prop_assert_eq!(stats.requested, distinct, "{case}");
                        }
                    }
                }
            }
        }
    }
}
