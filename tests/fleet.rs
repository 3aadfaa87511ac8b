//! Fleet-serving gates (ISSUE 8):
//!
//! * conservation proptests — every request is routed exactly once
//!   under every router policy, a healthy replicated fleet equals
//!   independent plain-sim replays of its routed shares (reports,
//!   attributions and exact merged quantiles), and seed-identical fleet
//!   replays are bit-identical (disaggregation included);
//! * the tentpole acceptance — a seeded guided search with the serving
//!   objective **in the loop** over the fleet-extended Fig 12 space
//!   finds, at fixed total silicon, a multi-chip configuration whose
//!   SLA-feasible goodput strictly beats the best single-chip
//!   whole-area design on a mixed 512/4096 trace, bit-identically
//!   across replays and across the parallel/serial switch;
//! * the fleet golden — a seeded replicated + disaggregated run renders
//!   a checked-in report (regenerate with
//!   `FUSEMAX_UPDATE_GOLDEN=1 cargo test --test fleet`).

use fusemax::dse::search::{GeneticSearch, SearchBudget, SearchStrategy};
use fusemax::dse::{DesignSpace, FleetSpec, RouterPolicy, Sweeper};
use fusemax::model::{ConfigKind, ModelParams};
use fusemax::serve::{
    Arrivals, FaultStats, Fleet, LatencyStats, LengthMix, QueueOrder, SchedulerPolicy,
    ServeObjective, ServeSim, Sla, Trace, TrafficSpec,
};
use fusemax::workloads::TransformerConfig;
use proptest::prelude::*;
use std::sync::Arc;

mod common;

/// The acceptance trace family: mostly short prompts, a long tail.
fn mixed_spec(rate: f64, requests: usize) -> TrafficSpec {
    TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s: rate },
        prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
        output_mix: LengthMix::uniform([8, 32]),
        requests,
    }
}

fn binding_replica() -> ServeSim {
    binding_replica_under(SchedulerPolicy::unbounded())
}

fn binding_replica_under(policy: SchedulerPolicy) -> ServeSim {
    let kind = ConfigKind::FuseMaxBinding;
    ServeSim::builder(kind, kind.default_arch(), TransformerConfig::bert(), ModelParams::default())
        .policy(policy)
        .build()
}

const ROUTERS: [RouterPolicy; 3] =
    [RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded, RouterPolicy::ShortestPrompt];

/// Whole-prompt FCFS, chunk512/SPF and whole-prompt SPF.
fn policies() -> [SchedulerPolicy; 3] {
    let spf = QueueOrder::ShortestPromptFirst;
    [
        SchedulerPolicy::unbounded(),
        SchedulerPolicy::chunked(512).with_queue_order(spf),
        SchedulerPolicy::unbounded().with_queue_order(spf),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: whatever the trace, replica count, and router,
    /// every request lands on exactly one in-range replica, and routing
    /// is a pure function of (trace, fleet).
    #[test]
    fn every_request_is_routed_exactly_once(
        seed in 0u64..1_000_000_000,
        rate in 50.0f64..1200.0,
        requests in 1usize..48,
        replicas in 1usize..6,
        router_choice in 0usize..3,
    ) {
        let trace = mixed_spec(rate, requests).generate(seed);
        let spec = FleetSpec::replicated(replicas).with_router(ROUTERS[router_choice]);
        let fleet = Fleet::new(spec, binding_replica());
        let routes = fleet.route(&trace);
        prop_assert_eq!(routes.len(), trace.len(), "one route per request");
        prop_assert!(routes.iter().all(|&k| k < replicas), "route out of range");
        prop_assert_eq!(routes.clone(), fleet.route(&trace), "routing must replay identically");
        // The run itself conserves requests: completions across the
        // fleet equal the trace, with every latency sample present.
        let detailed = fleet.run_detailed(&trace);
        prop_assert_eq!(detailed.merged.completed, requests);
        prop_assert_eq!(detailed.replicas.iter().map(|r| r.completed).sum::<usize>(), requests);
        prop_assert_eq!(detailed.merged.ttft.samples, requests);
        prop_assert_eq!(detailed.merged.e2e.samples, requests);
    }

    /// The replicated-fleet reference: a healthy replicated fleet is
    /// exactly independent plain-sim replays of each routed share. Every
    /// replica report equals its share's replay, the attributions are
    /// the shares' attributions in replica order, and merged fleet
    /// quantiles are **exact** — identical to quantiles of the
    /// concatenated raw per-request samples (never an average of
    /// per-replica summaries).
    #[test]
    fn merged_quantiles_equal_concatenated_sample_quantiles(
        seed in 0u64..1_000_000_000,
        requests in 2usize..40,
        replicas in 2usize..5,
        router_choice in 0usize..3,
        policy_choice in 0usize..3,
    ) {
        let trace = mixed_spec(400.0, requests).generate(seed);
        let policy = policies()[policy_choice];
        let replica = || binding_replica_under(policy);
        let spec = FleetSpec::replicated(replicas).with_router(ROUTERS[router_choice]);
        let fleet = Fleet::new(spec, replica());
        let detailed = fleet.run_detailed(&trace);

        let routes = fleet.route(&trace);
        prop_assert_eq!(&detailed.routes, &routes);
        prop_assert_eq!(detailed.faults, FaultStats::default());
        prop_assert!(detailed.shed_ids.is_empty());
        prop_assert_eq!(detailed.kv_transfer_bytes, 0);
        prop_assert_eq!(detailed.replicas.len(), replicas);
        let costs = replica().service_times(&trace);
        let (mut ttft, mut tpot, mut e2e) = (Vec::new(), Vec::new(), Vec::new());
        let mut attributions = Vec::new();
        for k in 0..replicas {
            let sub = Trace {
                requests: trace
                    .requests
                    .iter()
                    .zip(&routes)
                    .filter(|(_, &r)| r == k)
                    .map(|(q, _)| *q)
                    .collect(),
            };
            let (report, samples) = replica().run_sampled_with(&costs, &sub);
            prop_assert_eq!(&detailed.replicas[k], &report, "replica {} under {}", k, policy);
            ttft.extend(samples.ttft);
            tpot.extend(samples.tpot);
            e2e.extend(samples.e2e);
            attributions.extend(samples.attributions);
        }
        prop_assert_eq!(&detailed.attributions, &attributions);
        prop_assert_eq!(LatencyStats::of(&mut ttft), detailed.merged.ttft);
        prop_assert_eq!(LatencyStats::of(&mut tpot), detailed.merged.tpot);
        prop_assert_eq!(LatencyStats::of(&mut e2e), detailed.merged.e2e);
    }

    /// Seed-identical fleet replays are bit-identical, for replicated
    /// and disaggregated topologies alike — and a 1-chip fleet IS the
    /// plain simulator, bit for bit.
    #[test]
    fn fleet_replays_are_bit_identical(
        seed in 0u64..1_000_000_000,
        requests in 1usize..32,
        topology in 0usize..4,
    ) {
        let trace = mixed_spec(300.0, requests).generate(seed);
        let spec = [
            FleetSpec::single(),
            FleetSpec::replicated(3),
            FleetSpec::disaggregated(1, 2),
            FleetSpec::disaggregated(2, 2).with_router(RouterPolicy::LeastLoaded),
        ][topology];
        let fleet = Fleet::new(spec, binding_replica());
        let a = fleet.run_detailed(&trace);
        let b = Fleet::new(spec, binding_replica()).run_detailed(&trace);
        prop_assert_eq!(&a, &b, "fleet replay drifted for {}", spec);
        if spec.is_single() {
            prop_assert_eq!(a.merged, binding_replica().run(&trace));
        }
    }
}

/// The ISSUE 8 acceptance criterion: with the serving objective inside
/// the search loop, a seeded guided search over the fleet-extended
/// Fig 12 space finds — at fixed total silicon — a multi-chip
/// configuration whose SLA-feasible goodput strictly beats the best
/// single-chip whole-area design, and the whole trajectory is
/// bit-identical across replays and the parallel/serial switch.
#[test]
fn in_loop_fleet_search_beats_the_best_single_chip_at_iso_area() {
    let params = ModelParams::default();
    let trace = mixed_spec(500.0, 80).generate(7);
    // Tight enough that no single small chip survives: the feasible set
    // is the big chip and the fleets, so the merit comparison really is
    // "one big chip vs N small ones".
    let sla = Sla::p99_ttft(0.05);

    // The fleet axis enumerates ways to spend the whole ~9 cm2 area
    // budget: one 512 chip, four 256 chips (either router), or a
    // 1-prefill + 3-decode disaggregated quad.
    let fleet_axis = [
        FleetSpec::single(),
        FleetSpec::replicated(4),
        FleetSpec::replicated(4).with_router(RouterPolicy::LeastLoaded),
        FleetSpec::disaggregated(1, 3),
    ];
    let space = DesignSpace::new()
        .with_workloads([TransformerConfig::bert()])
        .with_seq_lens([1 << 18])
        .with_array_dims([128, 256, 512])
        .with_fleets(fleet_axis);

    let run = |parallel: bool| {
        let objective =
            Arc::new(ServeObjective::new(trace.clone(), sla).with_params(params.clone()));
        let sweeper =
            Sweeper::new(params.clone()).with_parallelism(parallel).with_objective(objective);
        GeneticSearch::new(11).search(&sweeper, &space, SearchBudget::evaluations(45))
    };

    let outcome = run(true);
    let (winner, merit) =
        outcome.objective_best.clone().expect("the objective is tracked in the loop");
    assert!(merit.feasible, "the in-loop winner must meet the SLA");
    assert!(
        !winner.point.fleet.is_single(),
        "under heavy mixed traffic the winner must be a fleet, got {}",
        winner.point.fleet
    );

    // Bit-identical replay, and parallel ≡ serial trajectories.
    for (label, replay) in [("replay", run(true)), ("serial", run(false))] {
        let (w, m) = replay.objective_best.expect("objective tracked");
        assert_eq!(winner.point, w.point, "{label} found a different winner");
        assert_eq!(merit, m, "{label} merit drifted");
    }

    // The iso-area shoot-out: the best single chip may spend the whole
    // area budget; the fleet winner must not exceed it by more than the
    // design-space granularity allows (4x256 vs 1x512 is within 8%) —
    // and must still complete strictly more requests per second.
    let single_space = DesignSpace::new()
        .with_workloads([TransformerConfig::bert()])
        .with_seq_lens([1 << 18])
        .with_array_dims([128, 256, 512]);
    let sweep = Sweeper::new(params.clone()).sweep(&single_space);
    let objective = ServeObjective::new(trace.clone(), sla).with_params(params.clone());
    let (single_best, single_score) = objective.rank(&sweep.evaluations, &params).remove(0);
    assert!(single_best.point.fleet.is_single());

    let winner_score = objective.score_point(&winner.point, winner.area_cm2, &params);
    assert!(
        winner.area_cm2 <= single_best.area_cm2 * 1.10,
        "iso-area violated: fleet spends {:.2} cm2 vs the single chip's {:.2} cm2",
        winner.area_cm2,
        single_best.area_cm2
    );
    assert!(
        winner_score.report.goodput_rps > single_score.report.goodput_rps,
        "fleet goodput {:.1} r/s must strictly beat the single chip's {:.1} r/s",
        winner_score.report.goodput_rps,
        single_score.report.goodput_rps
    );
    assert!(
        winner_score.goodput_per_cm2 > single_score.goodput_per_cm2,
        "per-silicon merit must favor the fleet at iso-area"
    );
}

/// Renders the canonical seeded fleet runs as a deterministic report.
fn fleet_acceptance_report() -> String {
    let trace = mixed_spec(300.0, 40).generate(7);
    let mut out = String::new();
    for spec in [
        FleetSpec::replicated(3).with_router(RouterPolicy::LeastLoaded),
        FleetSpec::disaggregated(1, 2),
    ] {
        let detailed = Fleet::new(spec, binding_replica()).run_detailed(&trace);
        out.push_str(&format!("== fleet {spec} ==\n{}", detailed.merged));
        if detailed.kv_transfer_bytes > 0 {
            out.push_str(&format!(
                "kv transfer: {} bytes, {:.6}s\n",
                detailed.kv_transfer_bytes, detailed.kv_transfer_s
            ));
        }
        for (k, r) in detailed.replicas.iter().enumerate() {
            out.push_str(&format!(
                "chip {k}: completed={} iters={} busy={:.6}s p99_ttft={:.6}s\n",
                r.completed, r.iterations, r.busy_s, r.ttft.p99
            ));
        }
    }
    out
}

/// The fleet golden gate: the seeded replicated + disaggregated report
/// must match the checked-in artifact byte for byte.
#[test]
fn seeded_fleet_report_matches_the_checked_in_golden() {
    common::check_golden("tests/golden/fleet_report.txt", &fleet_acceptance_report(), "fleet");
}
