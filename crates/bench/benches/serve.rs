//! Serving-simulator throughput: trace generation, single-design
//! simulation at several chip sizes, and the full SLA-aware re-ranking of
//! the Fig 12 family — the serving counterpart of the DSE benches.

use criterion::{BenchmarkId, Criterion};
use fusemax_dse::{DesignSpace, Sweeper};
use fusemax_model::{ConfigKind, ModelParams};
use fusemax_serve::{Arrivals, LengthMix, ServeObjective, ServeSim, Sla, Trace, TrafficSpec};
use fusemax_workloads::TransformerConfig;
use std::hint::black_box;
use std::time::Duration;

fn trace(requests: usize) -> Trace {
    TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s: 150.0 },
        prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
        output_mix: LengthMix::uniform([8, 32]),
        requests,
    }
    .generate(7)
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_trace_gen");
    group.measurement_time(Duration::from_secs(2)).sample_size(20);
    for requests in [100usize, 1000] {
        group.bench_function(BenchmarkId::from_parameter(requests), |b| {
            b.iter(|| black_box(trace(requests)))
        });
    }
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let t = trace(200);
    let bert = TransformerConfig::bert();
    let params = ModelParams::default();
    let mut group = c.benchmark_group("serve_sim_200req");
    group.measurement_time(Duration::from_secs(3)).sample_size(15);
    for dim in [64usize, 256] {
        let space = DesignSpace::new().with_array_dims([dim]).with_workloads([bert.clone()]);
        let point = space.points().remove(0);
        let sim = ServeSim::for_point(&point, &params);
        group.bench_function(BenchmarkId::new("binding", format!("{dim}x{dim}")), |b| {
            b.iter(|| black_box(sim.run(&t)))
        });
    }
    let flat = ServeSim::builder(
        ConfigKind::Flat,
        ConfigKind::Flat.default_arch(),
        bert.clone(),
        params.clone(),
    )
    .build();
    group.bench_function(BenchmarkId::new("flat", "256x256"), |b| {
        b.iter(|| black_box(flat.run(&t)))
    });
    group.finish();
}

fn bench_objective_ranking(c: &mut Criterion) {
    let params = ModelParams::default();
    let space = DesignSpace::new().with_workloads([TransformerConfig::bert()]);
    let sweeper = Sweeper::new(params.clone());
    let outcome = sweeper.sweep(&space);
    let objective = ServeObjective::new(trace(60), Sla::p99_ttft(0.25));
    let mut group = c.benchmark_group("serve_rank_fig12");
    group.measurement_time(Duration::from_secs(3)).sample_size(10);
    group.bench_function("rank_6_designs", |b| {
        b.iter(|| black_box(objective.rank(&outcome.evaluations[..6], &params)))
    });
    group.finish();

    // Headline lines for the bench log.
    let ranked = objective.rank(&outcome.evaluations[..6], &params);
    let (best, score) = &ranked[0];
    println!(
        "[headline] serving winner: {} ({:.1} req/s, p99 TTFT {:.3}s, SLA {})",
        best.point.arch.name,
        score.report.goodput_rps,
        score.report.ttft.p99,
        if score.meets_sla { "met" } else { "missed" },
    );
}

fn all(c: &mut Criterion) {
    fusemax_bench::banner("serve", "traffic-driven serving simulator throughput");
    bench_trace_generation(c);
    bench_simulation(c);
    bench_objective_ranking(c);
}

criterion::criterion_group!(benches, all);
criterion::criterion_main!(benches);
