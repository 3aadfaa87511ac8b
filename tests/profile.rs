//! Profile gates: exact cost attribution must stay *exact* — every
//! [`fusemax::model::CostNode`] tree folds bit-identically to its total,
//! every serve [`LatencyAttribution`] folds bit-identically to its
//! request's measured TTFT and end-to-end latency (across scheduler
//! policies, replicated fleets, and disaggregated P:D topologies), and
//! the `explain` report reproduces its checked-in golden byte for byte.
//!
//! To bless an intentional model/engine change, regenerate with
//! `FUSEMAX_UPDATE_GOLDEN=1 cargo test --test profile` and commit the
//! diff.

use fusemax::eval::explain::explain;
use fusemax::model::{attention_report, e2e_report, ConfigKind, ModelParams};
use fusemax::serve::{
    Arrivals, FaultSpec, Fleet, FleetSpec, LatencyAttribution, LatencyStats, LengthMix, QueueOrder,
    RouterPolicy, SchedulerPolicy, ServeSim, SlaForensics, TrafficSpec,
};
use fusemax::telemetry::{roofline_csv, roofline_json, validate_folded_stacks};
use fusemax::workloads::TransformerConfig;
use proptest::prelude::*;
use std::path::Path;

mod common;

#[test]
fn explain_report_matches_the_checked_in_golden() {
    let artifacts = explain(&ModelParams::default());

    // Always leave the current render (and the profile artifacts) under
    // target/profile for CI upload, pass or fail.
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/profile");
    std::fs::create_dir_all(&out_dir).expect("create target/profile");
    std::fs::write(out_dir.join("explain.txt"), &artifacts.text).expect("write explain");
    std::fs::write(out_dir.join("flamegraph.folded"), &artifacts.folded).expect("write folded");
    std::fs::write(out_dir.join("roofline.json"), roofline_json(&artifacts.roofline))
        .expect("write roofline json");
    std::fs::write(out_dir.join("roofline.csv"), roofline_csv(&artifacts.roofline))
        .expect("write roofline csv");

    common::check_golden("tests/golden/explain.txt", &artifacts.text, "profile");
}

#[test]
fn explain_flamegraph_and_roofline_artifacts_are_valid() {
    let artifacts = explain(&ModelParams::default());
    let stacks = validate_folded_stacks(&artifacts.folded).expect("valid folded stacks");
    assert!(stacks >= 2, "the e2e tree must yield several leaf stacks");
    assert!(artifacts.folded.contains("e2e;attention;compute_2d;QK"));
    assert_eq!(artifacts.roofline.len(), 5);
    let json = roofline_json(&artifacts.roofline);
    assert!(json.contains("\"machine_balance\""));
    assert_eq!(roofline_csv(&artifacts.roofline).lines().count(), 6);
}

/// The bit-exactness contract every attribution must satisfy, plus the
/// cross-check against the run's own sample vectors: attribution e2e
/// values (an unordered multiset — attributions retire in completion
/// order, sample vectors are sorted) must reproduce the report's exact
/// quantiles bit for bit.
fn check_attributions(
    attributions: &[LatencyAttribution],
    expected_completed: usize,
    expected_e2e: &LatencyStats,
    expected_ttft: &LatencyStats,
) {
    assert_eq!(attributions.len(), expected_completed);
    for a in attributions {
        a.validate().expect("attribution folds bit-exactly");
    }
    let mut e2e: Vec<f64> = attributions.iter().map(|a| a.e2e_s).collect();
    assert_eq!(&LatencyStats::of(&mut e2e), expected_e2e, "e2e multiset drifted");
    let mut ttft: Vec<f64> = attributions.iter().filter_map(|a| a.ttft_s).collect();
    assert_eq!(&LatencyStats::of(&mut ttft), expected_ttft, "ttft multiset drifted");
}

fn mixed_trace(rate: f64, requests: usize, seed: u64) -> fusemax::serve::Trace {
    TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s: rate },
        prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
        output_mix: LengthMix::uniform([4, 16]),
        requests,
    }
    .generate(seed)
}

fn replica() -> ServeSim {
    let kind = ConfigKind::FuseMaxBinding;
    ServeSim::builder(kind, kind.default_arch(), TransformerConfig::bert(), ModelParams::default())
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cost trees fold bit-exactly for every dataflow kind, workload,
    /// and sequence length — attention and end-to-end alike.
    #[test]
    fn cost_breakdowns_sum_exactly_across_kinds(
        seq_exp in 10usize..16,
        widx in 0usize..4,
    ) {
        let params = ModelParams::default();
        let cfg = TransformerConfig::all()[widx].clone();
        let seq_len = 1 << seq_exp;
        for kind in ConfigKind::all() {
            let arch = kind.default_arch();
            let att = attention_report(kind, &cfg, seq_len, None, &params);
            att.cost_breakdown(&arch).validate().expect("attention tree folds bit-exactly");
            let e2e = e2e_report(kind, &cfg, seq_len, &params);
            e2e.cost_breakdown(&arch).validate().expect("e2e tree folds bit-exactly");
        }
    }

    /// Latency attributions fold bit-exactly under every scheduler
    /// policy, and their multiset reproduces the run's exact quantiles.
    #[test]
    fn latency_attribution_sums_exactly_across_policies(
        seed in 0u64..256,
        rate in 100.0f64..600.0,
        chunk in prop_oneof![Just(0usize), 256usize..2048],
        spf in prop_oneof![Just(false), Just(true)],
    ) {
        let trace = mixed_trace(rate, 30, seed);
        let order = if spf { QueueOrder::ShortestPromptFirst } else { QueueOrder::Fcfs };
        let policy = if chunk > 0 {
            SchedulerPolicy::chunked(chunk)
        } else {
            SchedulerPolicy::unbounded()
        }
        .with_queue_order(order);
        let kind = ConfigKind::FuseMaxBinding;
        let sim = ServeSim::builder(
            kind,
            kind.default_arch(),
            TransformerConfig::bert(),
            ModelParams::default(),
        )
        .policy(policy)
        .build();
        let (report, samples) = sim.run_sampled_with(&sim.service_times(&trace), &trace);
        check_attributions(&samples.attributions, report.completed, &report.e2e, &report.ttft);
    }

    /// Fleet attributions fold bit-exactly across replicated fleets and
    /// every router policy.
    #[test]
    fn fleet_attribution_sums_exactly_across_routers(
        seed in 0u64..256,
        n in 1usize..5,
        router in prop_oneof![
            Just(RouterPolicy::RoundRobin),
            Just(RouterPolicy::LeastLoaded),
            Just(RouterPolicy::ShortestPrompt),
        ],
    ) {
        let trace = mixed_trace(400.0, 30, seed);
        let fleet = Fleet::new(FleetSpec::replicated(n).with_router(router), replica());
        let detailed = fleet.run_detailed(&trace);
        check_attributions(
            &detailed.attributions,
            detailed.merged.completed,
            &detailed.merged.e2e,
            &detailed.merged.ttft,
        );
        // Imbalance attribution conserves busy time: shares sum to 1.
        let shares: f64 = detailed.imbalance().iter().map(|r| r.busy_share).sum();
        prop_assert!((shares - 1.0).abs() < 1e-9);
        prop_assert!(detailed.imbalance_ratio() >= 1.0 - 1e-12);
    }

    /// Disaggregated P:D attributions fold bit-exactly: TTFT buckets come
    /// from the prefill stage, the K/V wire is charged explicitly, and
    /// the decode residual closes the end-to-end sum.
    #[test]
    fn disaggregated_attribution_sums_exactly(
        seed in 0u64..256,
        p in 1usize..3,
        d in 1usize..4,
    ) {
        let trace = mixed_trace(300.0, 24, seed);
        let fleet = Fleet::new(FleetSpec::disaggregated(p, d), replica());
        let detailed = fleet.run_detailed(&trace);
        check_attributions(
            &detailed.attributions,
            detailed.merged.completed,
            &detailed.merged.e2e,
            &detailed.merged.ttft,
        );
        // Multi-token requests must carry the explicit K/V wire charge.
        let charged: f64 = detailed.attributions.iter().map(|a| a.kv_handoff_s).sum();
        prop_assert!(charged > 0.0);
    }

    /// Faulted fleet attributions still fold bit-exactly: retry wait and
    /// re-prefill time land in the named `retry` bucket (never inflating
    /// `queue_wait`), and the attribution multiset reproduces the faulted
    /// run's exact quantiles.
    #[test]
    fn faulted_fleet_attribution_folds_the_retry_bucket_exactly(
        seed in 0u64..256,
        n in 2usize..5,
        frac in 0.2f64..0.8,
    ) {
        let trace = mixed_trace(1500.0, 40, seed);
        let faults = FaultSpec::single_failure(frac * trace.last_arrival_s(), 1);
        let fleet = Fleet::new(FleetSpec::replicated(n), replica()).with_faults(faults);
        let detailed = fleet.run_detailed(&trace);
        check_attributions(
            &detailed.attributions,
            detailed.merged.completed,
            &detailed.merged.e2e,
            &detailed.merged.ttft,
        );
        // The retry bucket is always present in the fold; a run that
        // actually retried must attribute nonzero seconds to it.
        for a in &detailed.attributions {
            prop_assert!(a.retry_s >= 0.0);
            prop_assert!(a.e2e_components().iter().any(|(name, _)| *name == "retry"));
        }
        if detailed.faults.retries > 0 {
            prop_assert!(
                detailed.attributions.iter().any(|a| a.retry_s > 0.0),
                "retries fired but no completion carries retry seconds"
            );
        }
    }

    /// SLA forensics name a dominant bucket for every violator, and the
    /// dominant bucket's seconds never exceed the violator's TTFT.
    #[test]
    fn sla_forensics_name_a_dominant_bucket(seed in 0u64..256) {
        let trace = mixed_trace(500.0, 30, seed);
        let sim = replica();
        let (report, samples) = sim.run_sampled_with(&sim.service_times(&trace), &trace);
        let forensics = SlaForensics::over_ttft(&samples.attributions, report.ttft.p50);
        for v in &forensics.violators {
            prop_assert!(v.ttft_s > report.ttft.p50);
            prop_assert!(v.dominant_s <= v.ttft_s + 1e-12);
            prop_assert!(["queue_wait", "prefill", "stall"].contains(&v.dominant));
        }
        let rendered = forensics.render();
        prop_assert!(rendered.contains("violator"));
    }
}
