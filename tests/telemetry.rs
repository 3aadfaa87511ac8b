//! Telemetry gates: instrumentation must be *free* (bit-identical
//! results with and without a recorder), *deterministic* (byte-identical
//! event streams across replays and across the parallel/serial switch),
//! and *exportable* (the seeded serve traces — whole-prompt/FCFS and
//! chunked/SPF — round-trip the checked-in golden Chrome-trace JSON byte
//! for byte). The seeded search, serve and faulted-fleet counts match
//! `tests/golden/bench_baseline.json` exactly.
//!
//! To bless an intentional engine change, regenerate the goldens with
//! `FUSEMAX_UPDATE_GOLDEN=1 cargo test --test telemetry` and commit the
//! diff.

use fusemax::dse::search::{
    GeneticSearch, SearchBudget, SearchStats, SearchStrategy, SimulatedAnnealing,
};
use fusemax::dse::{DesignSpace, FrontierGroup, Sweeper};
use fusemax::dse::{QueueOrder, SchedulerPolicy};
use fusemax::model::{ConfigKind, ModelParams};
use fusemax::serve::{Arrivals, FaultSpec, Fleet, FleetSpec, LengthMix, ServeSim, TrafficSpec};
use fusemax::telemetry::{
    event_json, serve_trace_json, validate_chrome_trace, Event, Metrics, SearchBudgetAttribution,
    ServeEvent, VecSink,
};
use fusemax::workloads::TransformerConfig;
use proptest::prelude::*;

mod common;

/// The seeded BERT trace on the +Binding design under `policy`,
/// instrumented end to end.
fn seeded_events(rate_per_s: f64, requests: usize, policy: SchedulerPolicy) -> Vec<Event> {
    let trace = TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s },
        prompt_mix: LengthMix::new([(256, 3.0), (1024, 1.0)]),
        output_mix: LengthMix::uniform([2, 6]),
        requests,
    }
    .generate(7);
    let (recorder, sink) = VecSink::recorder();
    ServeSim::builder(
        ConfigKind::FuseMaxBinding,
        ConfigKind::FuseMaxBinding.default_arch(),
        TransformerConfig::bert(),
        ModelParams::default(),
    )
    .policy(policy)
    .recorder(recorder)
    .build()
    .run(&trace);
    sink.events()
}

/// The canonical seeded serving run: a small bursty trace under the
/// default whole-prompt/FCFS scheduler.
fn seeded_serve_events() -> Vec<Event> {
    seeded_events(400.0, 12, SchedulerPolicy::unbounded())
}

/// The chunk512/SPF policy of the scheduler golden, with a waiting/served
/// admission ratio.
fn spf_policy(ratio: f64) -> SchedulerPolicy {
    SchedulerPolicy::chunked(512)
        .with_queue_order(QueueOrder::ShortestPromptFirst)
        .with_waiting_served_ratio(ratio)
}

#[test]
fn seeded_serve_trace_matches_the_checked_in_golden() {
    common::check_golden(
        "tests/golden/serve_trace.json",
        &serve_trace_json(&seeded_serve_events()),
        "telemetry",
    );
}

#[test]
fn seeded_spf_serve_trace_matches_the_checked_in_golden() {
    // A trace dense enough to queue, so the stream carries enqueue/dequeue,
    // prefill chunks, waiting depth, SPF reordering and the admission-ratio
    // gate.
    let events = seeded_events(3000.0, 60, spf_policy(1.2));
    let serve_kinds: Vec<&ServeEvent> = events
        .iter()
        .filter_map(|e| match e {
            Event::Serve { kind, .. } => Some(kind),
            _ => None,
        })
        .collect();
    let ids = |pick: fn(&ServeEvent) -> Option<u64>| -> Vec<u64> {
        serve_kinds.iter().filter_map(|&k| pick(k)).collect()
    };
    let enqueued = ids(|k| match k {
        ServeEvent::Enqueue { req } => Some(*req),
        _ => None,
    });
    let dequeued = ids(|k| match k {
        ServeEvent::Dequeue { req } => Some(*req),
        _ => None,
    });
    assert_eq!(enqueued.len(), 60);
    assert_eq!(dequeued.len(), 60);
    assert_ne!(enqueued, dequeued, "the trace must queue deeply enough for SPF to reorder");
    assert!(serve_kinds
        .iter()
        .any(|k| matches!(k, ServeEvent::PrefillChunk { remaining, .. } if *remaining > 0)));
    assert!(serve_kinds
        .iter()
        .any(|k| matches!(k, ServeEvent::WaitingDepth { depth } if *depth > 0)));
    assert_ne!(
        render(&events),
        render(&seeded_events(3000.0, 60, spf_policy(0.0))),
        "the admission ratio must gate at least one admission"
    );
    let json = serve_trace_json(&events);
    validate_chrome_trace(&json).expect("exported trace is valid");
    common::check_golden("tests/golden/serve_trace_spf.json", &json, "telemetry");
}

#[test]
fn golden_serve_trace_passes_the_validity_gate() {
    let events = seeded_serve_events();
    let n = validate_chrome_trace(&serve_trace_json(&events)).expect("exported trace is valid");
    assert!(n > 0, "trace must carry timestamped events");
    // And the export is a pure function of the event stream.
    assert_eq!(serve_trace_json(&events), serve_trace_json(&seeded_serve_events()));
}

#[test]
fn serve_metrics_agree_with_the_event_stream() {
    let events = seeded_serve_events();
    let metrics = Metrics::from_events(&events);
    assert_eq!(metrics.counter("serve.arrivals"), 12);
    assert_eq!(metrics.counter("serve.admissions"), 12);
    assert_eq!(metrics.counter("serve.completions"), 12);
    assert!(metrics.counter("serve.iterations") >= 12 / 2);
    assert!(metrics.gauge("serve.batch_mean").expect("derived gauge present") >= 1.0);
}

/// The seeded telemetry counts of three instrumented runs, gated byte for
/// byte against `tests/golden/bench_baseline.json` at its printed
/// precision:
///
/// * `GeneticSearch` seeds 7 then 9 at budget 90 on one sweeper over the
///   180-point Fig 12 space, so the second run's cache hits measure reuse;
/// * a 120-request BERT replay on the 256×256 design;
/// * an 80-request 4-replica fleet with two mid-trace fail-stops (one
///   recovers) under a 0.6 shed watermark, so retries and sheds count.
///
/// The search runs' `SearchStats` must also agree with the event-derived
/// budget attribution the golden records.
#[test]
fn seeded_telemetry_counts_match_the_bench_baseline_golden() {
    let space = DesignSpace::new()
        .with_kinds(ConfigKind::all())
        .with_workloads([TransformerConfig::bert()])
        .with_frequencies_hz([None, Some(470e6)])
        .with_buffer_scales([0.5, 1.0, 2.0]);
    let (recorder, search_sink) = VecSink::recorder();
    let sweeper = Sweeper::new(ModelParams::default()).with_recorder(recorder);
    let budget = SearchBudget::evaluations(90);
    let runs = [7, 9].map(|seed| GeneticSearch::new(seed).search(&sweeper, &space, budget).stats);

    let traffic = |rate_per_s, requests, seed| {
        TrafficSpec {
            arrivals: Arrivals::Poisson { rate_per_s },
            prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
            output_mix: LengthMix::uniform([8, 32]),
            requests,
        }
        .generate(seed)
    };
    let params = ModelParams::default();
    let point = DesignSpace::new().with_workloads([TransformerConfig::bert()]).points().remove(4);
    let (recorder, serve_sink) = VecSink::recorder();
    ServeSim::builder_for_point(&point, &params)
        .recorder(recorder)
        .build()
        .run(&traffic(150.0, 120, 7));

    let fleet_trace = traffic(2000.0, 80, 11);
    let horizon_s = fleet_trace.last_arrival_s();
    let faults = FaultSpec::none()
        .down(0.25 * horizon_s, 1)
        .down(0.45 * horizon_s, 2)
        .up(0.7 * horizon_s, 2)
        .with_shed_watermark(0.6);
    let (recorder, fleet_sink) = VecSink::recorder();
    Fleet::new(FleetSpec::replicated(4), ServeSim::for_point(&point, &params))
        .with_recorder(recorder)
        .with_faults(faults)
        .run_detailed(&fleet_trace);

    let mut events = search_sink.events();
    events.extend(serve_sink.events());
    events.extend(fleet_sink.events());
    let metrics = Metrics::from_events(&events);
    let a = SearchBudgetAttribution::from_events(&events);
    let total = |count: fn(&SearchStats) -> usize| runs.iter().map(count).sum::<usize>() as u64;
    assert_eq!(total(|s| s.requested), a.staged);
    assert_eq!(total(|s| s.evaluated), a.full_evals);
    assert_eq!(total(|s| s.cache_hits), a.cache_hits);
    assert_eq!(total(|s| s.batches), a.flushes);
    assert_eq!(total(|s| s.screened), a.screened_out);

    let counts = format!(
        concat!(
            "{{\"search_cache_hit_ratio\":{:.4},\"search_flush_batch_mean\":{:.3},",
            "\"serve_batch_mean\":{:.3},\"serve_retries\":{},\"serve_sheds\":{},",
            "\"events\":{},\"staged\":{},\"screened_out\":{},\"cache_hits\":{},",
            "\"full_evals\":{},\"flushes\":{},\"chains\":{}}}\n"
        ),
        metrics.gauge("search.cache.hit_ratio").expect("derived gauge present"),
        metrics.histogram("search.flush_batch").expect("flushes recorded").mean(),
        metrics.gauge("serve.batch_mean").expect("derived gauge present"),
        metrics.counter("serve.retries"),
        metrics.counter("serve.sheds"),
        events.len(),
        a.staged,
        a.screened_out,
        a.cache_hits,
        a.full_evals,
        a.flushes,
        a.chains,
    );
    common::check_golden("tests/golden/bench_baseline.json", &counts, "telemetry");
}

/// Collapses frontiers to comparable bits: instrumentation must not move
/// a single ULP anywhere.
fn fingerprint(frontiers: &[FrontierGroup]) -> Vec<(String, usize, String, u64, u64, u64)> {
    frontiers
        .iter()
        .flat_map(|g| {
            g.frontier.sorted_by(0).into_iter().map(|e| {
                (
                    g.model.clone(),
                    g.seq_len,
                    e.point.arch.name.clone(),
                    e.area_cm2.to_bits(),
                    e.latency_s.to_bits(),
                    e.energy_j.to_bits(),
                )
            })
        })
        .collect()
}

fn small_space() -> DesignSpace {
    DesignSpace::new().with_kinds(ConfigKind::all()).with_workloads([TransformerConfig::bert()])
}

#[test]
fn instrumented_guided_search_is_bit_identical_to_uninstrumented() {
    let space = small_space();
    let budget = SearchBudget::fraction(&space, 0.5);
    let strategy = SimulatedAnnealing::new(7).with_screening(true);

    let plain = strategy.search(&Sweeper::new(ModelParams::default()), &space, budget);
    let (recorder, sink) = VecSink::recorder();
    let traced = strategy.search(
        &Sweeper::new(ModelParams::default()).with_recorder(recorder),
        &space,
        budget,
    );

    assert_eq!(fingerprint(&plain.frontiers), fingerprint(&traced.frontiers));
    assert_eq!(plain.stats.requested, traced.stats.requested);
    assert_eq!(plain.stats.evaluated, traced.stats.evaluated);
    assert!(plain.events.is_empty(), "no recorder, no buffered events");
    assert!(!traced.events.is_empty(), "instrumented search must emit events");
    assert_eq!(sink.len(), traced.events.len(), "root session publishes its whole stream");
}

fn render(events: &[Event]) -> String {
    events.iter().map(event_json).collect::<Vec<_>>().join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline determinism contract: for any seed, the parallel
    /// annealing run (strided chains, rayon-evaluated flushes) emits the
    /// byte-identical event stream of its serial reference.
    #[test]
    fn parallel_and_serial_event_streams_are_identical(seed in 0u64..1024) {
        let space = small_space();
        let budget = SearchBudget::fraction(&space, 0.4);
        let strategy = SimulatedAnnealing::new(seed).with_screening(true);

        let run = |parallel: bool| {
            let (recorder, _sink) = VecSink::recorder();
            let sweeper = Sweeper::new(ModelParams::default())
                .with_parallelism(parallel)
                .with_recorder(recorder);
            strategy.search(&sweeper, &space, budget)
        };
        let par = run(true);
        let ser = run(false);

        prop_assert!(!par.events.is_empty());
        prop_assert_eq!(render(&par.events), render(&ser.events));
        prop_assert_eq!(fingerprint(&par.frontiers), fingerprint(&ser.frontiers));
    }

    /// Serve event streams are a pure function of the trace seed.
    #[test]
    fn serve_event_streams_replay_byte_identically(seed in 0u64..1024) {
        let trace = TrafficSpec {
            arrivals: Arrivals::Poisson { rate_per_s: 300.0 },
            prompt_mix: LengthMix::fixed(256),
            output_mix: LengthMix::uniform([2, 4]),
            requests: 8,
        }
        .generate(seed);
        let run = || {
            let (recorder, sink) = VecSink::recorder();
            ServeSim::builder(
                ConfigKind::FuseMaxBinding,
                ConfigKind::FuseMaxBinding.default_arch(),
                TransformerConfig::bert(),
                ModelParams::default(),
            )
            .recorder(recorder)
            .build()
            .run(&trace);
            sink.events()
        };
        prop_assert_eq!(render(&run()), render(&run()));
    }
}
