//! Acceptance and invariant tests for the serving subsystem (ISSUE 4):
//!
//! * conservation proptests — every generated request completes exactly
//!   once, residency never exceeds the buffer-derived capacity, and
//!   identical seeds yield bit-identical [`ServeReport`]s;
//! * the tentpole acceptance — on a seeded mixed prefill/decode trace
//!   over the Fig 12 design space, `ServeObjective` ranking selects a
//!   *different* best design than fixed-sequence-length latency ranking,
//!   and replaying the same trace twice reproduces the report exactly
//!   (p99 included);
//! * the scheduler-policy acceptance (ISSUE 7) — a seeded search over
//!   the policy-extended Fig 12 space finds a (hardware, scheduler) pair
//!   whose SLA-feasible goodput per area beats the best fixed
//!   whole-prompt/FCFS configuration, chunked replays conserve requests
//!   and respect the per-iteration token budget, and an explicit
//!   `SchedulerPolicy::unbounded()` reproduces the checked-in golden
//!   serve trace byte for byte;
//! * shared model results — a `ServeObjective` computes each
//!   (chip, sequence length) once, across policies, fleets and fault
//!   scenarios.

use fusemax::dse::search::{GeneticSearch, SearchBudget, SearchStrategy};
use fusemax::dse::{DesignSpace, FrontierGroup, PointKey, Sweeper};
use fusemax::model::{ConfigKind, ModelParams};
use fusemax::serve::{
    Arrivals, FaultSpec, FleetSpec, LengthMix, QueueOrder, RouterPolicy, ScenarioRanking,
    SchedulerPolicy, ServeObjective, ServeSim, Sla, Trace, TrafficSpec,
};
use fusemax::telemetry::{serve_trace_json, Event, ServeEvent, VecSink};
use fusemax::workloads::TransformerConfig;
use proptest::prelude::*;
use std::collections::HashSet;

fn mixed_spec(rate: f64, requests: usize) -> TrafficSpec {
    TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s: rate },
        prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
        output_mix: LengthMix::uniform([8, 32]),
        requests,
    }
}

/// The Fig 12 BERT frontier, the acceptance criterion's design space.
fn bert_frontier() -> Vec<std::sync::Arc<fusemax::dse::Evaluation>> {
    let space = DesignSpace::new().with_workloads([TransformerConfig::bert()]);
    let outcome = Sweeper::new(ModelParams::default()).sweep(&space);
    outcome.frontier_for("BERT", 1 << 18).expect("BERT group").frontier.points().to_vec()
}

#[test]
fn serving_ranking_differs_from_latency_ranking_on_a_mixed_trace() {
    let params = ModelParams::default();
    let evaluations = bert_frontier();
    assert_eq!(evaluations.len(), 6, "the Fig 12 family is entirely Pareto-optimal");

    // Fixed-sequence-length ranking: the biggest chip always wins.
    let latency_best =
        evaluations.iter().min_by(|a, b| a.latency_s.total_cmp(&b.latency_s)).unwrap();
    assert_eq!(latency_best.point.array_dim, 512);

    // Served-traffic ranking under an interactive mix and a p99 TTFT SLA:
    // the winner is the *smallest* chip that keeps up with the load —
    // a genuinely different selection.
    let trace = mixed_spec(150.0, 60).generate(7);
    let objective = ServeObjective::new(trace, Sla::p99_ttft(0.25));
    let (serve_best, best_score) = objective.rank(&evaluations, &params).remove(0);
    assert!(best_score.meets_sla, "some design must meet the SLA");
    assert_ne!(
        serve_best.point.array_dim, latency_best.point.array_dim,
        "the serving winner must differ from the latency winner on this mix"
    );

    // Sanity on the ordering semantics: every SLA-meeting design ranks
    // above every SLA-missing one, and the winner has the best
    // goodput-per-area among the feasible set.
    let ranked = objective.rank(&evaluations, &params);
    let feasible: Vec<_> = ranked.iter().filter(|(_, s)| s.meets_sla).collect();
    assert!(!feasible.is_empty());
    for (_, s) in &feasible {
        assert!(best_score.goodput_per_cm2 >= s.goodput_per_cm2 - 1e-12);
    }
}

#[test]
fn replaying_the_same_trace_is_bit_identical_including_p99() {
    let params = ModelParams::default();
    let evaluations = bert_frontier();
    let trace = mixed_spec(150.0, 60).generate(7);

    // The trace itself regenerates identically...
    assert_eq!(trace, mixed_spec(150.0, 60).generate(7));

    // ...and every design's report replays bit-for-bit, exact quantiles
    // included.
    for e in &evaluations {
        let sim = ServeSim::for_point(&e.point, &params);
        let a = sim.run(&trace);
        let b = sim.run(&trace);
        assert_eq!(a, b, "replay diverged on {}", e.point.arch.name);
        assert_eq!(a.ttft.p99.to_bits(), b.ttft.p99.to_bits(), "p99 TTFT bits");
        assert_eq!(a.tpot.p99.to_bits(), b.tpot.p99.to_bits(), "p99 TPOT bits");
    }

    // The full objective ranking is reproducible too.
    let objective = ServeObjective::new(trace, Sla::p99_ttft(0.25));
    let x = objective.rank(&evaluations, &params);
    let y = objective.rank(&evaluations, &params);
    for ((ex, sx), (ey, sy)) in x.iter().zip(&y) {
        assert_eq!(ex.point, ey.point);
        assert_eq!(sx, sy);
    }
}

#[test]
fn service_time_table_replay_is_bit_identical_with_zero_in_loop_model_calls() {
    // The ISSUE-5 serve acceptance: a replay through a precomputed
    // ServiceTimeTable must reproduce the existing reports bit-for-bit
    // (p99 included) while performing zero e2e_report_on calls inside the
    // iteration loop — every model call happens at table build time.
    let params = ModelParams::default();
    let trace = mixed_spec(150.0, 60).generate(7);
    for e in &bert_frontier() {
        let sim = ServeSim::for_point(&e.point, &params);
        let table = sim.service_times(&trace);
        assert!(table.model_evaluations() > 0, "table must precompute something");

        let via_table = sim.run_with(&table, &trace);
        assert_eq!(
            table.misses(),
            0,
            "{}: the iteration loop fell back to the model",
            e.point.arch.name
        );

        // Bit-identical to the plain run (which builds its own table) —
        // the golden serving behavior is unchanged.
        let plain = sim.run(&trace);
        assert_eq!(via_table, plain, "{}", e.point.arch.name);
        assert_eq!(via_table.ttft.p99.to_bits(), plain.ttft.p99.to_bits());
        assert_eq!(via_table.tpot.p99.to_bits(), plain.tpot.p99.to_bits());
        assert_eq!(via_table.e2e.p99.to_bits(), plain.e2e.p99.to_bits());

        // Replaying through the same table again is free and identical.
        assert_eq!(sim.run_with(&table, &trace), via_table);
        assert_eq!(table.misses(), 0);
    }
}

#[test]
fn parallel_objective_ranking_matches_the_serial_path_bit_for_bit() {
    let params = ModelParams::default();
    let evaluations = bert_frontier();
    let trace = mixed_spec(150.0, 60).generate(7);
    let parallel = ServeObjective::new(trace.clone(), Sla::p99_ttft(0.25));
    let serial = parallel.clone().with_parallelism(false);
    let a = parallel.rank(&evaluations, &params);
    let b = serial.rank(&evaluations, &params);
    assert_eq!(a.len(), b.len());
    for ((ea, sa), (eb, sb)) in a.iter().zip(&b) {
        assert_eq!(ea.point, eb.point, "ranking order diverged");
        assert_eq!(sa, sb, "scores diverged");
        assert_eq!(sa.report.ttft.p99.to_bits(), sb.report.ttft.p99.to_bits());
    }
}

#[test]
fn bursty_traffic_stresses_the_tail_harder_than_poisson() {
    // Same mean rate, same lengths: bursts must not change *what*
    // completes, only the tail latency.
    let params = ModelParams::default();
    let sim = ServeSim::builder(
        ConfigKind::FuseMaxBinding,
        ConfigKind::FuseMaxBinding.default_arch(),
        TransformerConfig::bert(),
        params.clone(),
    )
    .build();
    let poisson = mixed_spec(120.0, 80).generate(3);
    let bursty = TrafficSpec {
        arrivals: Arrivals::Bursty { rate_per_s: 120.0, burst: 16 },
        ..mixed_spec(120.0, 80)
    }
    .generate(3);
    let p = sim.run(&poisson);
    let b = sim.run(&bursty);
    assert_eq!(p.completed, 80);
    assert_eq!(b.completed, 80);
    assert!(
        b.ttft.p99 > p.ttft.p99 * 0.5,
        "burst p99 {} collapsed below half the Poisson p99 {}",
        b.ttft.p99,
        p.ttft.p99
    );
}

#[test]
fn explicit_unbounded_policy_reproduces_the_golden_serve_trace_byte_for_byte() {
    // The chunk-size = ∞ replay contract: setting the policy explicitly
    // (rather than relying on the default) must reproduce the checked-in
    // pre-policy golden trace byte for byte — the scheduler rewrite is
    // invisible until a finite chunk budget or non-FCFS order opts in.
    let trace = TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s: 400.0 },
        prompt_mix: LengthMix::new([(256, 3.0), (1024, 1.0)]),
        output_mix: LengthMix::uniform([2, 6]),
        requests: 12,
    }
    .generate(7);
    let (recorder, sink) = VecSink::recorder();
    ServeSim::builder(
        ConfigKind::FuseMaxBinding,
        ConfigKind::FuseMaxBinding.default_arch(),
        TransformerConfig::bert(),
        ModelParams::default(),
    )
    .policy(SchedulerPolicy::unbounded())
    .recorder(recorder)
    .build()
    .run(&trace);

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_trace.json");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden_path.display()));
    assert_eq!(
        serve_trace_json(&sink.events()),
        golden,
        "explicit SchedulerPolicy::unbounded() drifted from the pre-policy golden trace"
    );
}

/// The ISSUE-7 scheduler policies the co-design acceptance searches over:
/// the whole-prompt baseline plus chunked / reordered / admission-gated
/// variants.
fn policy_axis() -> [SchedulerPolicy; 6] {
    [
        SchedulerPolicy::unbounded(),
        SchedulerPolicy::chunked(256),
        SchedulerPolicy::chunked(512),
        SchedulerPolicy::chunked(512).with_queue_order(QueueOrder::ShortestPromptFirst),
        SchedulerPolicy::unbounded().with_queue_order(QueueOrder::ShortestPromptFirst),
        SchedulerPolicy::chunked(512).with_waiting_served_ratio(1.5),
    ]
}

#[test]
fn codesigned_scheduler_beats_the_best_whole_prompt_fcfs_configuration() {
    // The ISSUE-7 tentpole acceptance. Under a 300 req/s mixed 512/4096
    // trace and a 45 ms p99 TTFT SLA, whole-prompt prefill on the
    // goodput-optimal dim-256 chip lets long prompts block short ones
    // just past the SLA, so a fixed-FCFS whole-prompt design must retreat
    // to the dim-512 chip (~4x the area) to stay feasible. A seeded
    // search that co-designs hardware AND scheduler keeps the small chip
    // and fixes the tail with a chunked prefill budget instead.
    let params = ModelParams::default();
    let trace = mixed_spec(300.0, 60).generate(7);
    let objective = ServeObjective::new(trace, Sla::p99_ttft(0.045));

    // Baseline: exhaustively sweep the whole-prompt/FCFS Fig 12 space,
    // so the co-designed winner is measured against the *true* best
    // fixed-scheduler configuration, not a search artifact.
    let fixed_space =
        DesignSpace::new().with_workloads([TransformerConfig::bert()]).with_seq_lens([1 << 18]);
    let fixed = Sweeper::new(params.clone()).sweep(&fixed_space);
    let (fixed_best, fixed_score) = objective.rank(&fixed.evaluations, &params).remove(0);
    assert!(fixed_score.meets_sla, "some whole-prompt design must be feasible");
    assert!(fixed_best.point.policy.is_unbounded());
    assert_eq!(fixed_best.point.array_dim, 512, "whole-prompt must retreat to the big chip");

    // Co-design: a seeded guided search over the policy-extended space.
    let space = fixed_space.clone().with_policies(policy_axis());
    let outcome = GeneticSearch::new(7).search(
        &Sweeper::new(params.clone()),
        &space,
        SearchBudget::evaluations(60),
    );
    let (best, score) = objective.rank(&outcome.evaluations, &params).remove(0);

    assert!(score.meets_sla, "the co-designed winner must be SLA-feasible");
    assert!(
        !best.point.policy.is_unbounded(),
        "the winner must use a chunked policy, got {}",
        best.point.policy
    );
    assert_eq!(best.point.array_dim, 256, "chunking must keep the small chip feasible");
    assert!(
        score.goodput_per_cm2 > 2.0 * fixed_score.goodput_per_cm2,
        "co-design ({:.2} gp/cm2) must beat the best whole-prompt/FCFS config ({:.2} gp/cm2)",
        score.goodput_per_cm2,
        fixed_score.goodput_per_cm2
    );

    // The mechanism, pinned: on the winner's chip the *same hardware*
    // with whole-prompt FCFS misses the SLA.
    let mut whole = best.point.clone();
    whole.policy = SchedulerPolicy::unbounded();
    let whole_score = objective.score_point(&whole, best.area_cm2, &params);
    assert!(
        !whole_score.meets_sla,
        "whole-prompt on dim 256 must miss the SLA (p99 {:.4})",
        whole_score.report.ttft.p99
    );
    assert!(whole_score.report.ttft.p99 > score.report.ttft.p99);

    // One model call per (chip, length): the 43 scorings above would build
    // tables worth 450 calls, but their six chips need only 17 lengths
    // each (the multiples of 256 up to 4096, plus the 8192 decode bucket).
    let scored = fixed.evaluations.iter().chain(&outcome.evaluations).map(|e| &e.point);
    let direct: usize = scored
        .chain([&whole])
        .map(|p| {
            ServeSim::for_point(p, &params).service_times(objective.trace()).model_evaluations()
        })
        .sum();
    assert_eq!(objective.model_calls(), 6 * 17);
    assert!(
        4 * objective.model_calls() <= direct,
        "{} model calls for scorings whose own tables cost {direct}",
        objective.model_calls()
    );
}

/// Each group's frontier as a set of design identities.
fn frontier_keys(groups: &[FrontierGroup]) -> Vec<(String, usize, HashSet<PointKey>)> {
    groups
        .iter()
        .map(|g| {
            let keys = g.frontier.points().iter().map(|e| PointKey::of(&e.point)).collect();
            (g.model.clone(), g.seq_len, keys)
        })
        .collect()
}

#[test]
fn genetic_search_covers_the_codesign_space_at_every_seed() {
    // The co-design acceptance space (36 points) at budget 60. The budget
    // clamps to the space, so the last unseen points must come from stall
    // immigrants: breeding revisits until one lands took 121,032 revisits
    // at seed 7 and 650,248 at seed 3. Every seed requests all 36 points
    // with fewer revisits than points.
    let params = ModelParams::default();
    let space = DesignSpace::new()
        .with_workloads([TransformerConfig::bert()])
        .with_seq_lens([1 << 18])
        .with_policies(policy_axis());
    let sweeper = Sweeper::new(params);
    let exhaustive = sweeper.sweep(&space);
    let expected = frontier_keys(&exhaustive.frontiers);
    for seed in 0..12 {
        let outcome =
            GeneticSearch::new(seed).search(&sweeper, &space, SearchBudget::evaluations(60));
        assert_eq!(outcome.stats.requested, 36, "seed {seed}");
        assert!(
            outcome.stats.revisits < space.len(),
            "seed {seed}: {} revisits",
            outcome.stats.revisits
        );
        // On 36 points a population of 16 breeds many copies of its own
        // members; they are dropped before staging but still proposals.
        let staged = outcome.stats.requested + outcome.stats.revisits;
        assert!(outcome.stats.proposals > 2 * staged, "seed {seed}: {:?}", outcome.stats);
        assert_eq!(
            frontier_keys(&outcome.frontiers),
            expected,
            "seed {seed}: frontier differs from the exhaustive sweep"
        );
    }
}

#[test]
fn codesign_ranking_computes_each_chip_length_once() {
    // The 144-point co-design space (6 dims x 6 policies x 4 fleets): a
    // table per scoring costs 1,632 model calls, the 6 x 17 distinct
    // (chip, length) pairs 102 — and a worst-case objective replaying two
    // fault scenarios per scoring needs no more.
    let params = ModelParams::default();
    let trace = mixed_spec(300.0, 60).generate(7);
    let space = DesignSpace::new()
        .with_workloads([TransformerConfig::bert()])
        .with_seq_lens([1 << 18])
        .with_policies(policy_axis())
        .with_fleets([
            FleetSpec::single(),
            FleetSpec::replicated(4),
            FleetSpec::replicated(4).with_router(RouterPolicy::LeastLoaded),
            FleetSpec::disaggregated(1, 3),
        ]);
    let evaluations = Sweeper::new(params.clone()).sweep(&space).evaluations;
    assert_eq!(evaluations.len(), 144);
    let direct: usize = evaluations
        .iter()
        .map(|e| ServeSim::for_point(&e.point, &params).service_times(&trace).model_evaluations())
        .sum();
    assert_eq!(direct, 1632);

    let fault_free = ServeObjective::new(trace.clone(), Sla::p99_ttft(0.045));
    fault_free.rank(&evaluations, &params);
    assert!(fault_free.model_calls() <= 102, "{} model calls", fault_free.model_calls());

    let kill = FaultSpec::single_failure(0.5 * trace.last_arrival_s(), 0);
    let worst = ServeObjective::new(trace, Sla::p99_ttft(0.045))
        .with_fault_scenarios([FaultSpec::none(), kill], ScenarioRanking::WorstCase);
    worst.rank(&evaluations, &params);
    assert!(worst.model_calls() <= fault_free.model_calls());
}

/// How many times each request of an `n`-request trace was admitted.
fn admissions(events: &[Event], n: usize) -> Vec<usize> {
    let mut admitted = vec![0; n];
    for event in events {
        if let Event::Serve { kind: ServeEvent::Admit { req }, .. } = event {
            admitted[*req as usize] += 1;
        }
    }
    admitted
}

/// The most iterations a replay of `trace` may take with `chunk`-token
/// prefill chunks (`usize::MAX` for whole prompts). Every iteration
/// advances some resident request by one prefill chunk or one output
/// token, and a request needs `⌈prompt / chunk⌉` chunks and
/// `max(output, 1)` tokens.
fn iteration_bound(trace: &Trace, chunk: usize) -> usize {
    trace.requests.iter().map(|r| r.prompt_tokens.div_ceil(chunk) + r.output_tokens.max(1)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every request is admitted and completes exactly
    /// once, residency never exceeds the buffer-derived capacity
    /// (oversized singletons excepted by construction), the iteration
    /// count stays within the work bound, and the report's totals add up.
    #[test]
    fn serve_sim_conserves_requests(
        seed in 0u64..1_000_000_000,
        rate in 5.0f64..2000.0,
        requests in 1usize..60,
        dim_choice in 0usize..3,
        kind_choice in 0usize..2,
        short in 64usize..1024,
        long in 1024usize..8192,
        out_a in 1usize..64,
        out_b in 1usize..64,
    ) {
        let spec = TrafficSpec {
            arrivals: Arrivals::Poisson { rate_per_s: rate },
            prompt_mix: LengthMix::new([(short, 2.0), (long, 1.0)]),
            output_mix: LengthMix::uniform([out_a, out_b]),
            requests,
        };
        let trace = spec.generate(seed);
        prop_assert_eq!(trace.len(), requests);

        let kind = [ConfigKind::Flat, ConfigKind::FuseMaxBinding][kind_choice];
        let dim = [64usize, 128, 256][dim_choice];
        let space = DesignSpace::new()
            .with_array_dims([dim])
            .with_kinds([kind])
            .with_workloads([TransformerConfig::bert()]);
        let point = space.points().remove(0);
        let (recorder, sink) = VecSink::recorder();
        let sim = ServeSim::builder_for_point(&point, &ModelParams::default())
            .recorder(recorder)
            .build();
        let report = sim.run(&trace);

        // Every request is admitted and completes exactly once, in
        // bounded work.
        prop_assert_eq!(admissions(&sink.events(), requests), vec![1; requests]);
        prop_assert!(report.iterations <= iteration_bound(&trace, usize::MAX));
        prop_assert_eq!(report.completed, requests);
        prop_assert_eq!(report.ttft.samples, requests);
        prop_assert_eq!(report.e2e.samples, requests);
        prop_assert_eq!(report.output_tokens, trace.total_output_tokens());

        // Residency never exceeds the buffer-derived capacity; a single
        // oversized request is the only sanctioned excursion.
        let per_token = TransformerConfig::bert().kv_bytes_per_token(2)
            / TransformerConfig::bert().layers as u64;
        let largest = trace
            .requests
            .iter()
            .map(|r| (r.prompt_tokens + r.output_tokens) as u64 * per_token)
            .max()
            .unwrap_or(0);
        prop_assert!(
            report.peak_resident_bytes <= report.buffer_bytes.max(largest),
            "peak {} exceeds buffer {} (largest request {})",
            report.peak_resident_bytes,
            report.buffer_bytes,
            largest
        );

        // Time accounting is sane.
        prop_assert!(report.makespan_s >= trace.last_arrival_s() - 1e-12);
        prop_assert!(report.busy_s <= report.makespan_s + 1e-9);
        prop_assert!(report.utilization > 0.0 && report.utilization <= 1.0 + 1e-12);

        // Identical seed: bit-identical report.
        prop_assert_eq!(report, sim.run(&spec.generate(seed)));
    }

    /// Chunked-trace conservation (ISSUE 7): under arbitrary scheduler
    /// policies every request is still admitted and completes exactly
    /// once within the iteration work bound, each request's prefill
    /// chunks sum to exactly its prompt, no iteration grants more prefill
    /// tokens than the chunk budget, residency stays within the
    /// buffer-derived bound, and every admission takes the queue order's
    /// first waiting request — the smallest `(prompt_tokens, id)` under
    /// SPF, the earliest arrival under FCFS.
    #[test]
    fn chunked_serve_sim_conserves_requests_and_respects_the_budget(
        seed in 0u64..1_000_000_000,
        rate in 20.0f64..1500.0,
        requests in 1usize..40,
        dim_choice in 0usize..3,
        chunk in 128usize..2048,
        ratio in 0.0f64..2.0,
        spf in 0usize..2,
    ) {
        let spec = TrafficSpec {
            arrivals: Arrivals::Poisson { rate_per_s: rate },
            prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
            output_mix: LengthMix::uniform([8, 32]),
            requests,
        };
        let trace = spec.generate(seed);

        let order = if spf == 1 { QueueOrder::ShortestPromptFirst } else { QueueOrder::Fcfs };
        let policy = SchedulerPolicy::chunked(chunk)
            .with_waiting_served_ratio(ratio)
            .with_queue_order(order);
        let dim = [64usize, 128, 256][dim_choice];
        let space = DesignSpace::new()
            .with_array_dims([dim])
            .with_workloads([TransformerConfig::bert()]);
        let point = space.points().remove(0);
        let (recorder, sink) = VecSink::recorder();
        let sim = ServeSim::builder_for_point(&point, &ModelParams::default())
            .policy(policy)
            .recorder(recorder)
            .build();
        let report = sim.run(&trace);

        // Every request is admitted and completes exactly once, in
        // bounded work, all tokens accounted for.
        prop_assert_eq!(admissions(&sink.events(), requests), vec![1; requests]);
        prop_assert!(report.iterations <= iteration_bound(&trace, chunk));
        prop_assert_eq!(report.completed, requests);
        prop_assert_eq!(report.ttft.samples, requests);
        prop_assert_eq!(report.output_tokens, trace.total_output_tokens());

        // Residency never exceeds the buffer-derived capacity (one
        // oversized request is the only sanctioned excursion).
        let per_token = TransformerConfig::bert().kv_bytes_per_token(2)
            / TransformerConfig::bert().layers as u64;
        let largest = trace
            .requests
            .iter()
            .map(|r| (r.prompt_tokens + r.output_tokens) as u64 * per_token)
            .max()
            .unwrap_or(0);
        prop_assert!(report.peak_resident_bytes <= report.buffer_bytes.max(largest));

        // Walk the event stream: per-request chunk sums must equal the
        // prompt, no iteration may grant more than the chunk budget, and
        // each admission must be the first of the arrived, unadmitted
        // requests by `(order key, id)`. The 512/4096 prompt mix makes
        // SPF ties common, so this pins their arrival-order tie-break.
        let mut prefilled = std::collections::HashMap::new();
        let mut waiting = std::collections::BTreeSet::new();
        let order_key = |req: u64| match order {
            QueueOrder::Fcfs => 0,
            QueueOrder::ShortestPromptFirst => trace.requests[req as usize].prompt_tokens,
        };
        let mut iter_tokens = 0usize;
        let mut completions = 0usize;
        for event in sink.events() {
            match event {
                Event::Serve { kind: ServeEvent::Arrive { req }, .. } => {
                    waiting.insert((order_key(req), req));
                }
                Event::Serve { kind: ServeEvent::Admit { req }, .. } => {
                    let first = waiting.pop_first().map(|(_, first)| first);
                    prop_assert_eq!(first, Some(req), "{} admitted out of queue order", req);
                }
                Event::Serve { kind: ServeEvent::PrefillChunk { req, tokens, remaining }, .. } => {
                    prop_assert!(tokens <= chunk, "chunk {} exceeds budget {}", tokens, chunk);
                    iter_tokens += tokens;
                    let total = prefilled.entry(req).or_insert(0usize);
                    *total += tokens;
                    let prompt = trace.requests[req as usize].prompt_tokens;
                    prop_assert_eq!(prompt - *total, remaining, "remaining counter drifted");
                }
                Event::Serve { kind: ServeEvent::DecodeIter { .. }, .. } => {
                    prop_assert!(
                        iter_tokens <= chunk,
                        "iteration granted {} prefill tokens over budget {}",
                        iter_tokens,
                        chunk
                    );
                    iter_tokens = 0;
                }
                Event::Serve { kind: ServeEvent::Complete { .. }, .. } => completions += 1,
                _ => {}
            }
        }
        prop_assert_eq!(completions, requests, "every request completes exactly once");
        for (req, total) in prefilled {
            prop_assert_eq!(
                total,
                trace.requests[req as usize].prompt_tokens,
                "request {}'s chunks must sum to its prompt",
                req
            );
        }

        // Identical seed and policy: bit-identical report.
        let replay = ServeSim::builder_for_point(&point, &ModelParams::default())
            .policy(
                SchedulerPolicy::chunked(chunk).with_waiting_served_ratio(ratio).with_queue_order(order),
            )
            .build()
            .run(&spec.generate(seed));
        prop_assert_eq!(report, replay);
    }
}
