//! Guided design-space search with the `fusemax-dse` search subsystem:
//! random sampling, genetic search, and simulated annealing explore the
//! extended Fig 12 space on a quarter of the exhaustive budget, share one
//! evaluation cache, and are scored by the hypervolume convergence
//! harness against the exhaustive Pareto frontier.
//!
//! Run with `cargo run --example guided_search`. Pass `--continuous` to
//! let the annealer and the genetic searcher evaluate genuinely off-grid
//! designs (non-power-of-two arrays, arbitrary buffer bytes), and
//! `--screen` to reject provably-dominated candidates through the
//! zero-cost lower bound before the model runs. Pass `--trace-out PATH`
//! (or set the `FUSEMAX_TRACE` environment variable) to export each
//! strategy's staging/cache/frontier/convergence events as a
//! Chrome-trace/Perfetto JSON timeline (open at
//! <https://ui.perfetto.dev> or chrome://tracing) plus a metrics
//! snapshot at `target/telemetry_summary.json`.

use fusemax::dse::search::{
    convergence, hypervolume_fraction, record_convergence, GeneticSearch, RandomSearch,
    SearchBudget, SearchStrategy, SimulatedAnnealing, SnapPolicy,
};
use fusemax::dse::{DesignSpace, Sweeper};
use fusemax::model::{ConfigKind, ModelParams};
use fusemax::telemetry::{search_trace_json, Event, Metrics, VecSink};
use fusemax::workloads::TransformerConfig;

/// `--flag <value>` from argv as a string, falling back to `env`.
fn str_arg(name: &str, env: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next() {
                return Some(v);
            }
        } else if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(v.to_string());
        }
    }
    std::env::var(env).ok().filter(|v| !v.is_empty())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let continuous = args.iter().any(|a| a == "--continuous");
    let screen = args.iter().any(|a| a == "--screen");
    let trace_out = str_arg("--trace-out", "FUSEMAX_TRACE");
    let snap = if continuous { SnapPolicy::Continuous } else { SnapPolicy::Grid };
    // The extended Fig 12 space: the paper's six array dims at 256K
    // tokens, widened with all five configurations and frequency/buffer
    // knobs — 180 candidates instead of 6.
    let space = DesignSpace::new()
        .with_kinds(ConfigKind::all())
        .with_workloads([TransformerConfig::bert()])
        .with_frequencies_hz([None, Some(470e6)])
        .with_buffer_scales([0.5, 1.0, 2.0]);

    // Ground truth: the exhaustive sweep (what Fig 12 would have cost).
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);
    println!(
        "Exhaustive: {} evaluations -> {} Pareto-optimal designs in {:.2?}.\n",
        exhaustive.stats.evaluated,
        exhaustive.frontier_points().len(),
        exhaustive.stats.elapsed,
    );

    // Guided: a quarter of the budget, cold caches — each strategy pays
    // for exactly what it explores.
    let budget = SearchBudget::fraction(&space, 0.25);
    println!(
        "Guided runs at {} of {} evaluations{}{}:",
        budget.evaluations,
        space.len(),
        if continuous { ", off-grid (--continuous)" } else { "" },
        if screen { ", lower-bound screened (--screen)" } else { "" },
    );
    let strategies: Vec<Box<dyn SearchStrategy>> = vec![
        Box::new(RandomSearch::new(7).with_screening(screen)),
        Box::new(GeneticSearch::new(7).with_snap_policy(snap).with_screening(screen)),
        Box::new(SimulatedAnnealing::new(7).with_snap_policy(snap).with_screening(screen)),
    ];
    let mut tracks: Vec<(String, Vec<Event>)> = Vec::new();
    for strategy in &strategies {
        let mut cold = Sweeper::new(ModelParams::default());
        if trace_out.is_some() {
            // An enabled recorder makes sessions buffer their event
            // streams into the outcome; results are unchanged.
            let (recorder, _sink) = VecSink::recorder();
            cold = cold.with_recorder(recorder);
        }
        let outcome = strategy.search(&cold, &space, budget);
        let fraction = hypervolume_fraction(&outcome.frontiers, &exhaustive);
        let curve = convergence(&outcome, &exhaustive, 9);
        if trace_out.is_some() {
            let mut stream = outcome.events.clone();
            let (recorder, sink) = VecSink::recorder();
            record_convergence(&curve, &recorder);
            stream.extend(sink.events());
            tracks.push((strategy.name().to_string(), stream));
        }
        println!(
            "  {:>10}: {:5.1}% of the exhaustive hypervolume ({} evaluations from {} proposals, \
             {:.2?})",
            strategy.name(),
            fraction * 100.0,
            outcome.stats.requested,
            outcome.stats.proposals,
            outcome.stats.elapsed,
        );
        if screen {
            println!(
                "             lower-bound filter rejected {} candidates before the model ran",
                outcome.stats.screened,
            );
        }
        if continuous {
            let off_grid =
                outcome.evaluations.iter().filter(|e| !space.is_on_grid(&e.point)).count();
            println!(
                "             {} of {} evaluated designs are off-grid",
                off_grid, outcome.stats.requested,
            );
        }
        let bars: Vec<String> = curve
            .samples
            .iter()
            .map(|s| format!("{:>3}:{:3.0}%", s.evaluations, s.fraction * 100.0))
            .collect();
        println!("             convergence  {}", bars.join("  "));
    }

    // Shared cache: a guided run over the already-swept sweeper touches
    // the model zero times.
    println!("\nShared-cache replay (after the exhaustive sweep):");
    for strategy in &strategies {
        let outcome = strategy.search(&sweeper, &space, budget);
        println!(
            "  {:>10}: {} requested, {} fresh evaluations, {} cache hits",
            strategy.name(),
            outcome.stats.requested,
            outcome.stats.evaluated,
            outcome.stats.cache_hits,
        );
    }

    // Export one convergence track per strategy plus a metrics snapshot.
    if let Some(path) = &trace_out {
        let refs: Vec<(&str, &[Event])> =
            tracks.iter().map(|(name, events)| (name.as_str(), events.as_slice())).collect();
        std::fs::write(path, search_trace_json(&refs)).expect("write trace file");
        // The snapshot summarizes the traced runs alone: folding in the
        // exhaustive sweeper's cache would count another run's lookups.
        let all: Vec<Event> = tracks.iter().flat_map(|(_, events)| events.clone()).collect();
        let metrics = Metrics::from_events(&all);
        let summary = std::path::Path::new("target").join("telemetry_summary.json");
        std::fs::create_dir_all("target").expect("create target/");
        std::fs::write(&summary, metrics.summary_json()).expect("write telemetry summary");
        println!(
            "\nWrote {} search events to {path} (open at https://ui.perfetto.dev) and metrics \
             to {}.",
            all.len(),
            summary.display(),
        );
    }

    // What the search actually found: the best designs by latency.
    let group = &exhaustive.frontiers[0];
    println!("\nExhaustive frontier of {} @ {} tokens:", group.model, group.seq_len);
    for e in group.frontier.sorted_by(0).into_iter().take(5) {
        println!(
            "  {:<22} {:<14} area {:6.2} cm²  latency {:9.3e} s  energy {:9.3e} J",
            e.point.arch.name,
            e.point.kind.label(),
            e.area_cm2,
            e.latency_s,
            e.energy_j,
        );
    }
}
