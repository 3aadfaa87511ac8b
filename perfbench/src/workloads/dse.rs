//! `dse_search`: search bookkeeping and sweeps, with no serving. A unit is
//! one distinct design point requested by a search or enumerated by a
//! sweep.

use super::{eval_bits, record_search, record_search_layers};
use crate::span::Tracer;
use crate::{Fnv, Record, Workload};
use fusemax_dse::search::{
    GeneticSearch, RandomSearch, SearchBudget, SearchStats, SearchStrategy, SimulatedAnnealing,
    SnapPolicy,
};
use fusemax_dse::{
    DesignSpace, Evaluation, FrontierGroup, QueueOrder, SchedulerPolicy, SweepStats, Sweeper,
};
use fusemax_model::{ConfigKind, ModelParams};
use fusemax_workloads::TransformerConfig;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The scheduler co-design acceptance search always runs with its own
/// seed: its revisit count swings 50x between seeds, which would drown
/// the timing. The other searches take the run's seed.
const ACCEPTANCE_SEED: u64 = 7;

/// The search-and-sweep workload.
pub struct DseSearch;

/// Inputs of `dse_search`.
pub struct DseInputs {
    seed: u64,
    /// BERT at 256K tokens x 6 array dims x 6 scheduler policies.
    acceptance: DesignSpace,
    /// The Fig 12 all-kinds space: 5 kinds x 6 dims x 2 clocks x 3 buffers.
    fig12: DesignSpace,
    /// Kinds x 4 models x 6 sequence lengths x 3 clocks x 4 buffer scales
    /// x 32 array dims.
    wide: DesignSpace,
}

/// One search's bookkeeping and result summary.
pub struct SearchRun {
    label: &'static str,
    stats: SearchStats,
    /// The budget covers the whole (grid) space.
    covers: bool,
    space_len: usize,
    best_latency: f64,
    frontier: u64,
    nonfinite: usize,
}

/// One sweep's bookkeeping and frontier fingerprint.
pub struct SweepRun {
    stats: SweepStats,
    frontier: u64,
    cache_entries: usize,
    nonfinite: usize,
}

/// Outputs of one `dse_search` pass.
pub struct DseOutput {
    searches: Vec<SearchRun>,
    sweep: SweepRun,
    pruned: SweepRun,
}

/// Order-free fingerprint of per-group frontiers: groups by name and
/// length, points by design identity.
fn frontier_fingerprint(groups: &[FrontierGroup]) -> u64 {
    let mut groups: Vec<&FrontierGroup> = groups.iter().collect();
    groups.sort_by(|a, b| (&a.model, a.seq_len).cmp(&(&b.model, b.seq_len)));
    let mut h = Fnv::default();
    for g in groups {
        g.model.hash(&mut h);
        h.u64(g.seq_len as u64);
        let mut points: Vec<u64> = g
            .frontier
            .points()
            .iter()
            .map(|e| {
                let mut p = Fnv::default();
                eval_bits(&mut p, e);
                p.finish()
            })
            .collect();
        points.sort_unstable();
        points.iter().for_each(|&x| h.u64(x));
    }
    h.0
}

fn nonfinite(evaluations: &[Arc<Evaluation>]) -> usize {
    evaluations
        .iter()
        .filter(|e| [e.area_cm2, e.latency_s, e.energy_j].iter().any(|x| !x.is_finite()))
        .count()
}

fn best_latency(evaluations: &[Arc<Evaluation>]) -> f64 {
    evaluations.iter().map(|e| e.latency_s).fold(f64::INFINITY, f64::min)
}

fn run_search(
    tr: &Tracer,
    label: &'static str,
    entry: &'static str,
    strategy: &dyn SearchStrategy,
    space: &DesignSpace,
    budget: SearchBudget,
) -> SearchRun {
    let sweeper = Sweeper::new(ModelParams::default());
    let outcome = tr.span("search", entry, || strategy.search(&sweeper, space, budget));
    SearchRun {
        label,
        covers: budget.evaluations >= space.len(),
        space_len: space.len(),
        best_latency: best_latency(&outcome.evaluations),
        frontier: frontier_fingerprint(&outcome.frontiers),
        nonfinite: nonfinite(&outcome.evaluations),
        stats: outcome.stats,
    }
}

fn run_sweep(tr: &Tracer, pruned: bool, space: &DesignSpace) -> SweepRun {
    let sweeper = Sweeper::new(ModelParams::default());
    let outcome = if pruned {
        tr.span("sweep", "Sweeper::sweep_pruned", || sweeper.sweep_pruned(space))
    } else {
        tr.span("sweep", "Sweeper::sweep", || sweeper.sweep(space))
    };
    SweepRun {
        frontier: frontier_fingerprint(&outcome.frontiers),
        cache_entries: sweeper.cache().len(),
        nonfinite: nonfinite(&outcome.evaluations),
        stats: outcome.stats,
    }
}

impl Workload for DseSearch {
    type Inputs = DseInputs;
    type Output = DseOutput;

    fn setup(&self, seed: u64, _tr: &Tracer) -> DseInputs {
        let policies = [
            SchedulerPolicy::unbounded(),
            SchedulerPolicy::chunked(256),
            SchedulerPolicy::chunked(512),
            SchedulerPolicy::chunked(512).with_queue_order(QueueOrder::ShortestPromptFirst),
            SchedulerPolicy::unbounded().with_queue_order(QueueOrder::ShortestPromptFirst),
            SchedulerPolicy::chunked(512).with_waiting_served_ratio(1.5),
        ];
        let bert = || DesignSpace::new().with_workloads([TransformerConfig::bert()]);
        DseInputs {
            seed,
            acceptance: bert().with_seq_lens([1 << 18]).with_policies(policies),
            fig12: bert()
                .with_kinds(ConfigKind::all())
                .with_frequencies_hz([None, Some(470e6)])
                .with_buffer_scales([0.5, 1.0, 2.0]),
            wide: DesignSpace::new()
                .with_kinds(ConfigKind::all())
                .with_workloads(TransformerConfig::all())
                .with_seq_lens((0..6).map(|k| 1 << (10 + 2 * k)))
                .with_frequencies_hz([None, Some(470e6), Some(940e6)])
                .with_buffer_scales([0.5, 1.0, 2.0, 4.0])
                .with_array_dims((1..=32).map(|k| 16 * k)),
        }
    }

    fn pass(&self, inp: &DseInputs, tr: &Tracer) -> DseOutput {
        let seed = inp.seed;
        let full = SearchBudget::evaluations(60);
        let quarter = SearchBudget::fraction(&inp.fig12, 0.25);
        let (ga, rs, sa) =
            ("GeneticSearch::search", "RandomSearch::search", "SimulatedAnnealing::search");
        let searches = vec![
            run_search(
                tr,
                "genetic (acceptance, seed 7)",
                ga,
                &GeneticSearch::new(ACCEPTANCE_SEED),
                &inp.acceptance,
                full,
            ),
            run_search(tr, "random", rs, &RandomSearch::new(seed), &inp.acceptance, full),
            run_search(tr, "annealing", sa, &SimulatedAnnealing::new(seed), &inp.acceptance, full),
            run_search(
                tr,
                "genetic screened",
                ga,
                &GeneticSearch::new(seed).with_screening(true),
                &inp.fig12,
                quarter,
            ),
            run_search(
                tr,
                "annealing screened",
                sa,
                &SimulatedAnnealing::new(seed).with_screening(true),
                &inp.fig12,
                quarter,
            ),
            run_search(
                tr,
                "annealing continuous",
                sa,
                &SimulatedAnnealing::new(seed).with_snap_policy(SnapPolicy::Continuous),
                &inp.fig12,
                quarter,
            ),
        ];
        DseOutput {
            searches,
            sweep: run_sweep(tr, false, &inp.wide),
            pruned: run_sweep(tr, true, &inp.wide),
        }
    }

    fn units(&self, out: &DseOutput) -> u64 {
        let requested: usize = out.searches.iter().map(|s| s.stats.requested).sum();
        (requested + out.sweep.stats.candidates + out.pruned.stats.candidates) as u64
    }

    fn fingerprint(&self, out: &DseOutput) -> u64 {
        let mut h = Fnv::default();
        for s in &out.searches {
            h.u64(s.frontier);
            h.f64(s.best_latency);
            h.u64(s.stats.requested as u64);
        }
        h.u64(out.sweep.frontier);
        h.u64(out.pruned.frontier);
        h.0
    }

    fn verify(&self, inp: &DseInputs, out: &DseOutput, tr: &Tracer, rec: &mut Record) {
        // Every search whose budget covers its space reaches the
        // exhaustive best; one that requested every point also has the
        // exhaustive frontier.
        let (exhaustive, _) = tr.check_call("sweep", "Sweeper::sweep", || {
            Sweeper::new(ModelParams::default()).sweep(&inp.acceptance)
        });
        let best = best_latency(&exhaustive.evaluations);
        let frontier = frontier_fingerprint(&exhaustive.frontiers);
        for s in out.searches.iter().filter(|s| s.covers) {
            rec.check(s.best_latency.to_bits() == best.to_bits(), || {
                format!("{}: best latency {} s, exhaustive {best} s", s.label, s.best_latency)
            });
            if s.stats.requested == s.space_len {
                rec.check(s.frontier == frontier, || {
                    format!("{}: frontier differs from exhaustive", s.label)
                });
            }
        }
        rec.check(out.sweep.frontier == out.pruned.frontier, || {
            "sweep and sweep_pruned frontiers differ".to_string()
        });
        rec.check(out.sweep.stats.evaluated == out.sweep.stats.candidates, || {
            format!(
                "cold sweep evaluated {} of {} points",
                out.sweep.stats.evaluated, out.sweep.stats.candidates
            )
        });

        for s in &out.searches {
            record_search(rec, s.label, &s.stats);
            rec.offered += s.stats.requested as u64;
            rec.lost += s.nonfinite as u64;
        }
        for s in [&out.sweep, &out.pruned] {
            rec.add("sweep.points", s.stats.candidates as f64);
            rec.add("sweep.pruned", s.stats.pruned as f64);
            rec.add("sweep.cache_entries", s.cache_entries as f64);
            rec.offered += s.stats.evaluated as u64;
            rec.lost += s.nonfinite as u64;
        }
        record_search_layers(tr, rec, out.sweep.stats.evaluated + out.pruned.stats.evaluated);
    }
}
