//! Fault-injection gates (ISSUE 10):
//!
//! * conservation proptests — under any fault timeline, router policy,
//!   and topology (replicated or disaggregated), every request either
//!   completes or is shed **exactly once**, retry attempts stay within
//!   the budget, K/V residency stays within every survivor's buffer,
//!   retried attributions still fold bit-exactly, and faulted replays
//!   are bit-identical;
//! * a whole fleet down at once — every chip fail-stops at one instant
//!   and none recovers, yet every request still completes or is shed
//!   exactly once, within the retry budget and a counted iteration bound;
//! * the no-op contract — on replicated fleets, which run one path, a
//!   timeline that changes nothing reproduces the empty spec's run byte
//!   for byte;
//! * the tentpole acceptance — the same seeded guided search that picks
//!   a lone big chip under the fault-free objective picks an N+1
//!   redundant fleet once a single-failure scenario enters the
//!   objective, at iso-area, with a test-asserted worst-case merit
//!   margin, bit-identically across replays and the parallel/serial
//!   switch;
//! * the fault golden — a seeded fail-stop-plus-recovery run renders a
//!   checked-in report (regenerate with
//!   `FUSEMAX_UPDATE_GOLDEN=1 cargo test --test fault`).

use fusemax::dse::search::{GeneticSearch, SearchBudget, SearchStrategy};
use fusemax::dse::{DesignSpace, FleetSpec, QueueOrder, RouterPolicy, SchedulerPolicy, Sweeper};
use fusemax::model::{ConfigKind, ModelParams};
use fusemax::serve::{
    Arrivals, FaultSpec, Fleet, LengthMix, RetryPolicy, ScenarioRanking, ServeObjective, ServeSim,
    Sla, TrafficSpec,
};
use fusemax::telemetry::{Event, ServeEvent, VecSink};
use fusemax::workloads::TransformerConfig;
use proptest::prelude::*;
use std::collections::HashMap;
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
    policy_replica(SchedulerPolicy::unbounded())
}

fn policy_replica(policy: SchedulerPolicy) -> ServeSim {
    let kind = ConfigKind::FuseMaxBinding;
    ServeSim::builder(kind, kind.default_arch(), TransformerConfig::bert(), ModelParams::default())
        .policy(policy)
        .build()
}

const ROUTERS: [RouterPolicy; 3] =
    [RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded, RouterPolicy::ShortestPrompt];

/// Replicated and disaggregated shapes the fault proptests sweep.
fn topologies() -> [FleetSpec; 4] {
    [
        FleetSpec::replicated(2),
        FleetSpec::replicated(3),
        FleetSpec::disaggregated(1, 2),
        FleetSpec::disaggregated(2, 2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation under failure: whatever the fault timeline, router,
    /// and topology, every request completes XOR is shed exactly once;
    /// retry attempts never exceed the budget; K/V residency stays
    /// within every chip's buffer; every attribution (retry bucket
    /// included) folds bit-exactly; and the faulted replay is
    /// bit-identical.
    #[test]
    fn faulted_fleets_conserve_and_bound_retries(
        seed in 0u64..1_000_000_000,
        rate in 300.0f64..2000.0,
        requests in 6usize..40,
        topology in 0usize..4,
        router_choice in 0usize..3,
        frac in 0.1f64..0.9,
        budget in 1usize..4,
        victim_pick in 0usize..8,
    ) {
        let trace = mixed_spec(rate, requests).generate(seed);
        let spec = topologies()[topology].with_router(ROUTERS[router_choice]);
        let victim = victim_pick % spec.chips();
        let faults = FaultSpec::none()
            .down(frac * trace.last_arrival_s(), victim)
            .with_retry(RetryPolicy { budget, ..RetryPolicy::default() })
            .with_shed_watermark(0.25);
        prop_assert!(faults.validate(trace.last_arrival_s()).is_ok());

        let fleet = Fleet::new(spec, binding_replica()).with_faults(faults.clone());
        let a = fleet.run_detailed(&trace);

        // Complete XOR shed, exactly once — ids partition the trace.
        let mut ids: Vec<usize> = a.attributions.iter().map(|t| t.req).collect();
        ids.extend(&a.shed_ids);
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..requests).collect::<Vec<_>>());
        prop_assert_eq!(a.merged.completed + a.faults.shed, requests);
        prop_assert_eq!(a.faults.shed, a.shed_ids.len());

        // Residency stays within every chip's admission bound.
        for r in &a.replicas {
            prop_assert!(r.peak_resident_bytes <= r.buffer_bytes);
        }

        // Every attribution still folds bit-exactly, retry bucket and all.
        for t in &a.attributions {
            prop_assert!(t.validate().is_ok(), "attribution broke: {:?}", t);
        }

        // Faulted replays are bit-identical.
        let b = Fleet::new(spec, binding_replica()).with_faults(faults.clone()).run_detailed(&trace);
        prop_assert_eq!(&a, &b, "faulted replay drifted for {}", spec);

        // Retry attempts stay within the budget — checked on the
        // narrated events, per request — and instrumentation never
        // changes the report.
        let (recorder, sink) = VecSink::recorder();
        let traced = Fleet::new(spec, binding_replica())
            .with_recorder(recorder)
            .with_faults(faults)
            .run_detailed(&trace);
        prop_assert_eq!(&traced.merged, &a.merged);
        prop_assert_eq!(traced.faults, a.faults);
        let mut attempts: HashMap<u64, usize> = HashMap::new();
        for event in sink.events() {
            if let Event::Serve { kind: ServeEvent::Retry { req, attempt, delay_s }, .. } = event {
                prop_assert!(attempt <= budget, "attempt {} over budget {}", attempt, budget);
                prop_assert!(delay_s > 0.0);
                let seen = attempts.entry(req).or_insert(0);
                *seen += 1;
                prop_assert!(*seen <= budget, "request {} retried {} times", req, seen);
            }
        }
        prop_assert!(a.faults.retries <= requests * budget);
    }

    /// The no-op contract: a non-empty timeline that changes nothing is
    /// validated, narrated and compiled into segments, and must still
    /// reproduce the empty spec's whole report, per-chip event streams
    /// included, for every replicated topology, router and queue policy.
    /// Both run the one replicated path. (Disaggregated fleets still
    /// split: under the empty spec they take the fault-free handoff
    /// policy, so a no-op timeline is not a no-op there; see ROADMAP
    /// item 2.)
    #[test]
    fn a_no_op_fault_timeline_is_byte_identical_to_the_fault_free_path(
        seed in 0u64..1_000_000_000,
        requests in 1usize..32,
        topology in 0usize..2,
    ) {
        let trace = mixed_spec(400.0, requests).generate(seed);
        let spf = QueueOrder::ShortestPromptFirst;
        let policies = [
            SchedulerPolicy::unbounded(),
            SchedulerPolicy::chunked(512).with_queue_order(spf),
            SchedulerPolicy::unbounded().with_queue_order(spf),
        ];
        let no_ops = [FaultSpec::none().throttle(0.0, 0, 1.0), FaultSpec::none().up(0.0, 0)];
        for router in ROUTERS {
            for policy in policies {
                let spec = topologies()[topology].with_router(router);
                let run = |faults: &FaultSpec| {
                    let (recorder, _sink) = VecSink::recorder();
                    Fleet::new(spec, policy_replica(policy))
                        .with_recorder(recorder)
                        .with_faults(faults.clone())
                        .run_detailed(&trace)
                };
                let fault_free = run(&FaultSpec::none());
                for no_op in &no_ops {
                    prop_assert_eq!(
                        &run(no_op),
                        &fault_free,
                        "{} changed the run for {} under {}",
                        no_op.render_events(),
                        spec,
                        policy
                    );
                }
            }
        }
    }

    /// Degraded modes (clock throttle, DRAM brownout) slow the fleet
    /// down without losing anything: every request still completes, and
    /// the degraded makespan is never shorter than the healthy one.
    #[test]
    fn degradation_slows_but_conserves(
        seed in 0u64..1_000_000_000,
        requests in 4usize..24,
        slowdown in 1.5f64..6.0,
    ) {
        let trace = mixed_spec(600.0, requests).generate(seed);
        let spec = FleetSpec::replicated(2);
        let healthy = Fleet::new(spec, binding_replica()).run_detailed(&trace);
        let faults = FaultSpec::none()
            .throttle(0.0, 0, slowdown)
            .brownout(0.0, 1, slowdown);
        let degraded = Fleet::new(spec, binding_replica())
            .with_faults(faults)
            .run_detailed(&trace);
        prop_assert_eq!(degraded.merged.completed, requests);
        prop_assert_eq!(degraded.faults.shed, 0);
        prop_assert!(
            degraded.merged.makespan_s >= healthy.merged.makespan_s,
            "degrading the fleet shortened the run: {} < {}",
            degraded.merged.makespan_s, healthy.merged.makespan_s
        );
    }
}

/// Every chip fail-stops at the same instant and none recovers, on every
/// topology and router: each request completes XOR is shed exactly once,
/// retries stay within the budget, and the engines stop after a number
/// of iterations the trace bounds. Under whole-prompt prefill each
/// committed iteration advances every request it holds by its prompt or
/// one output token, so one attempt runs at most `1 + output_tokens`
/// iterations across its prefill and decode chips.
#[test]
fn a_fleet_with_every_chip_down_at_once_sheds_or_completes_each_request_once() {
    let requests = 40;
    let trace = mixed_spec(800.0, requests).generate(7);
    let horizon = trace.last_arrival_s();
    let budget = 2;
    let max_output = trace.requests.iter().map(|r| r.output_tokens).max().expect("requests");
    for frac in [0.25, 0.5, 0.75] {
        for topology in topologies() {
            for router in ROUTERS {
                let spec = topology.with_router(router);
                let faults = (0..spec.chips())
                    .fold(FaultSpec::none(), |f, chip| f.down(frac * horizon, chip))
                    .with_retry(RetryPolicy { budget, ..RetryPolicy::default() });
                assert!(faults.validate(horizon).is_ok());
                let run =
                    Fleet::new(spec, binding_replica()).with_faults(faults).run_detailed(&trace);
                let case = format!("{spec}, all down at {frac} of the trace");

                let mut ids: Vec<usize> = run.attributions.iter().map(|t| t.req).collect();
                ids.extend(&run.shed_ids);
                ids.sort_unstable();
                assert_eq!(ids, (0..requests).collect::<Vec<_>>(), "{case}");
                assert_eq!(run.merged.completed + run.faults.shed, requests, "{case}");
                assert!(run.faults.shed > 0, "{case}: a dead fleet must shed");
                assert!(run.faults.retries <= requests * budget, "{case}");
                let attempts = requests + run.faults.retries;
                assert!(
                    run.merged.iterations <= attempts * (1 + max_output),
                    "{case}: {} iterations for {attempts} attempts",
                    run.merged.iterations
                );
            }
        }
    }
}

/// The ISSUE 10 acceptance criterion: the fault-free serving objective
/// crowns one big chip; adding a single-failure scenario to the same
/// seeded in-loop search makes it pick the N+1 redundant fleet at
/// iso-area, with a worst-case merit margin the test asserts — and the
/// whole trajectory is bit-identical across replays and the
/// parallel/serial switch.
#[test]
fn availability_aware_search_prefers_redundancy_at_iso_area() {
    let params = ModelParams::default();
    let trace = mixed_spec(300.0, 60).generate(7);
    let sla = Sla::p99_ttft(0.02);

    // One 512 chip (~8.7 cm2) vs four 256 chips (~9.4 cm2): the two
    // ways to spend the area budget. The lone 256 chip misses the SLA
    // at this load, so the fault-free contest is big-chip vs fleet.
    let space = DesignSpace::new()
        .with_workloads([TransformerConfig::bert()])
        .with_seq_lens([1 << 18])
        .with_array_dims([256, 512])
        .with_fleets([FleetSpec::single(), FleetSpec::replicated(4)]);

    // The failure scenario: replica 0 fail-stops mid-trace and never
    // recovers. Fast retry so surviving chips can still absorb the
    // displaced work inside the SLA.
    let kill = FaultSpec::single_failure(0.5 * trace.last_arrival_s(), 0)
        .with_retry(RetryPolicy { base_backoff_s: 0.002, multiplier: 2.0, budget: 3 })
        .with_shed_watermark(0.1);
    let scenarios = vec![FaultSpec::none(), kill];

    let run = |parallel: bool, scenarios: Vec<FaultSpec>| {
        let mut objective = ServeObjective::new(trace.clone(), sla).with_params(params.clone());
        if !scenarios.is_empty() {
            objective = objective.with_fault_scenarios(scenarios, ScenarioRanking::WorstCase);
        }
        let sweeper = Sweeper::new(params.clone())
            .with_parallelism(parallel)
            .with_objective(Arc::new(objective));
        GeneticSearch::new(11).search(&sweeper, &space, SearchBudget::evaluations(16))
    };

    // Fault-free: the single big chip wins on silicon efficiency.
    let clean = run(true, Vec::new());
    let (clean_winner, clean_merit) = clean.objective_best.expect("objective tracked in the loop");
    assert!(clean_merit.feasible, "the fault-free winner must meet the SLA");
    assert!(
        clean_winner.point.fleet.is_single(),
        "fault-free, one big chip must win, got {}",
        clean_winner.point.fleet
    );

    // Availability-aware: the same search now prefers N+1 redundancy.
    let aware = run(true, scenarios.clone());
    let (aware_winner, aware_merit) = aware.objective_best.expect("objective tracked in the loop");
    assert!(
        aware_merit.feasible,
        "the availability-aware winner must meet the SLA in every scenario"
    );
    assert!(
        !aware_winner.point.fleet.is_single(),
        "under a single-failure scenario the winner must be a redundant fleet, got {}",
        aware_winner.point.fleet
    );

    // Iso-area: redundancy may not cost more than the grid granularity
    // allows (4x256 vs 1x512 is within 8%).
    assert!(
        aware_winner.area_cm2 <= clean_winner.area_cm2 * 1.10,
        "iso-area violated: {:.2} cm2 vs {:.2} cm2",
        aware_winner.area_cm2,
        clean_winner.area_cm2
    );

    // The margin: under the failure scenarios, the redundant winner's
    // worst-case merit beats the fault-free winner's by at least 20%.
    let judge = ServeObjective::new(trace.clone(), sla)
        .with_params(params.clone())
        .with_fault_scenarios(scenarios.clone(), ScenarioRanking::WorstCase);
    let aware_worst = judge.score_point(&aware_winner.point, aware_winner.area_cm2, &params);
    let clean_worst = judge.score_point(&clean_winner.point, clean_winner.area_cm2, &params);
    assert!(
        aware_worst.goodput_per_cm2 >= 1.2 * clean_worst.goodput_per_cm2,
        "worst-case margin too thin: redundant {:.3} vs single {:.3} r/s/cm2",
        aware_worst.goodput_per_cm2,
        clean_worst.goodput_per_cm2
    );

    // Bit-identical replays, and parallel ≡ serial trajectories.
    for (label, replay) in
        [("replay", run(true, scenarios.clone())), ("serial", run(false, scenarios))]
    {
        let (w, m) = replay.objective_best.expect("objective tracked");
        assert_eq!(aware_winner.point, w.point, "{label} found a different winner");
        assert_eq!(aware_merit, m, "{label} merit drifted");
    }
}

/// Renders the canonical seeded fault runs as a deterministic report.
fn fault_acceptance_report() -> String {
    let trace = mixed_spec(800.0, 48).generate(7);
    let horizon = trace.last_arrival_s();
    let mut out = String::new();
    let runs: [(FleetSpec, FaultSpec); 2] = [
        (
            // Fail-stop plus recovery on a replicated trio.
            FleetSpec::replicated(3).with_router(RouterPolicy::LeastLoaded),
            FaultSpec::none().down(0.3 * horizon, 1).up(0.7 * horizon, 1),
        ),
        (
            // A decode-chip death on a disaggregated quad, with shedding.
            FleetSpec::disaggregated(2, 2),
            FaultSpec::none()
                .down(0.4 * horizon, 3)
                .with_retry(RetryPolicy { base_backoff_s: 0.01, multiplier: 2.0, budget: 2 })
                .with_shed_watermark(0.5),
        ),
    ];
    for (spec, faults) in runs {
        let detailed =
            Fleet::new(spec, binding_replica()).with_faults(faults.clone()).run_detailed(&trace);
        out.push_str(&format!(
            "== fleet {spec} | faults {} ==\n{}",
            faults.render_events(),
            detailed.merged
        ));
        out.push_str(&format!("faults: {}\n", detailed.faults));
        if !detailed.shed_ids.is_empty() {
            out.push_str(&format!("shed ids: {:?}\n", detailed.shed_ids));
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

/// The fault golden gate: the seeded fault-injected report must match
/// the checked-in artifact byte for byte.
#[test]
fn seeded_fault_report_matches_the_checked_in_golden() {
    common::check_golden("tests/golden/fault_report.txt", &fault_acceptance_report(), "fault");
}
