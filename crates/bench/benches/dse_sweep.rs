//! Design-space sweep throughput: serial vs. rayon-parallel evaluation of
//! the full `ARRAY_DIMS × 4 kinds × 4 models × SEQ_LENGTHS` space
//! (576 points), plus cache-served re-sweeps — and the frontier JSON
//! emitted for the `BENCH_*.json` trajectory files.

use criterion::Criterion;
use fusemax_dse::{frontier_json, DesignSpace, Sweeper, ARRAY_DIMS};
use fusemax_model::{ConfigKind, ModelParams};
use fusemax_workloads::{TransformerConfig, SEQ_LENGTHS};
use std::hint::black_box;
use std::time::Duration;

fn full_space() -> DesignSpace {
    DesignSpace::new()
        .with_array_dims(ARRAY_DIMS)
        .with_kinds([
            ConfigKind::Unfused,
            ConfigKind::Flat,
            ConfigKind::FuseMaxArch,
            ConfigKind::FuseMaxBinding,
        ])
        .with_workloads(TransformerConfig::all())
        .with_seq_lens(SEQ_LENGTHS)
}

fn bench_sweep_modes(c: &mut Criterion) {
    let space = full_space();
    let mut group = c.benchmark_group(format!("dse_sweep_{}pts", space.len()));
    group.measurement_time(Duration::from_secs(3)).sample_size(20);
    // Fresh sweeper per iteration: every point is really evaluated.
    group.bench_function("serial", |b| {
        b.iter(|| {
            let sweeper = Sweeper::new(ModelParams::default()).with_parallelism(false);
            black_box(sweeper.sweep(&space))
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            let sweeper = Sweeper::new(ModelParams::default()).with_parallelism(true);
            black_box(sweeper.sweep(&space))
        })
    });
    group.bench_function("pruned", |b| {
        b.iter(|| {
            let sweeper = Sweeper::new(ModelParams::default());
            black_box(sweeper.sweep_pruned(&space))
        })
    });
    // Warm cache: the figure-regeneration path after the first sweep.
    let warm = Sweeper::new(ModelParams::default());
    let _ = warm.sweep(&space);
    group.bench_function("cached_resweep", |b| b.iter(|| black_box(warm.sweep(&space))));
    group.finish();
}

fn main() {
    fusemax_bench::banner(
        "DSE sweep",
        "serial vs parallel design-space throughput + frontier export",
    );

    // Headline throughput comparison, printed in points/sec for the bench
    // trajectory.
    let space = full_space();
    let serial_outcome = Sweeper::new(ModelParams::default()).with_parallelism(false).sweep(&space);
    let parallel_outcome =
        Sweeper::new(ModelParams::default()).with_parallelism(true).sweep(&space);
    let pruned_outcome = Sweeper::new(ModelParams::default()).sweep_pruned(&space);
    println!(
        "space: {} points | serial {:.0} pts/s | parallel {:.0} pts/s ({:.1}x, {} threads) | \
         pruned search evaluates {} ({} skipped)",
        space.len(),
        serial_outcome.stats.points_per_sec(),
        parallel_outcome.stats.points_per_sec(),
        parallel_outcome.stats.points_per_sec() / serial_outcome.stats.points_per_sec(),
        rayon::current_num_threads(),
        pruned_outcome.stats.evaluated,
        pruned_outcome.stats.pruned,
    );
    println!(
        "frontier: {} Pareto-optimal designs across {} (model, seq_len) groups",
        parallel_outcome.frontier_points().len(),
        parallel_outcome.frontiers.len(),
    );

    // Emit the frontier JSON consumed by the BENCH_*.json trajectories.
    // `cargo bench` runs with the package dir as CWD, so resolve the
    // workspace target dir explicitly.
    let json = frontier_json(&parallel_outcome);
    let target = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let path = target.join("dse_frontier.json");
    match std::fs::create_dir_all(&target).and_then(|_| std::fs::write(&path, &json)) {
        Ok(()) => println!("frontier JSON ({} bytes) -> {}", json.len(), path.display()),
        Err(err) => println!("frontier JSON not written ({err}); {} bytes generated", json.len()),
    }

    let mut criterion = Criterion::default();
    bench_sweep_modes(&mut criterion);

    fusemax_bench::paper_note(
        "the engine generalizes Fig 12: the paper sweeps 6 hand-picked FuseMax arrays at 256K; \
         this sweeps 576 designs over four configurations, four models, and six lengths, \
         and prunes provably-dominated candidates before evaluation.",
    );
}
