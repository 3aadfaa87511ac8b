//! The sweep engine: evaluates design points through the analytical model
//! (sweeps serially; batched search evaluations optionally rayon-parallel),
//! maintains per-workload Pareto frontiers, and prunes provably-dominated
//! points before paying for their evaluation.

use crate::cache::{EvalCache, PointKey};
use crate::objective::Objective;
use crate::pareto::{Objectives, ParetoFrontier};
use crate::space::{AxisIndex, DesignPoint, DesignSpace, GridWalk};
use fusemax_arch::{AreaModel, EnergyTable};
use fusemax_model::{attention_report, AttentionReport, AttnWork, ModelParams};
use fusemax_telemetry::{Event, Recorder, SearchEvent};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fully-evaluated design point: the three minimized objectives plus the
/// underlying analytical report.
///
/// `latency_s` and `energy_j` cover the *full model's* attention (all
/// layers at the workload's batch size), matching Fig 12's y-axis;
/// `area_cm2` is the chip area of [`DesignPoint::arch`] multiplied by
/// [`crate::FleetSpec::chips`] — the *total* silicon the design buys, so
/// a 4-replica fleet of small chips competes against one big chip at
/// equal area. Latency and energy stay per-chip: they describe one
/// replica running the workload, which is exactly what the serving layer
/// replicates.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The design evaluated.
    pub point: DesignPoint,
    /// Total fleet silicon in cm² — per-chip area × replica count
    /// (objective 0).
    pub area_cm2: f64,
    /// Full-model attention latency in seconds (objective 1).
    pub latency_s: f64,
    /// Full-model attention energy in joules (objective 2).
    pub energy_j: f64,
    /// The per-layer analytical report behind the objectives.
    pub report: AttentionReport,
}

impl Objectives<3> for Evaluation {
    fn objectives(&self) -> [f64; 3] {
        [self.area_cm2, self.latency_s, self.energy_j]
    }
}

/// The Pareto frontier of one `(workload, seq_len)` group.
///
/// Frontiers are kept per workload/length pair because dominance across
/// *different* workloads is meaningless: a smaller model is cheaper to run
/// on every chip, which says nothing about which chip to build.
#[derive(Debug, Clone)]
pub struct FrontierGroup {
    /// Workload name (`BERT`, `TrXL`, `T5`, `XLM`, …).
    pub model: String,
    /// Sequence length of this group.
    pub seq_len: usize,
    /// The non-dominated (area, latency, energy) set.
    pub frontier: ParetoFrontier<Arc<Evaluation>, 3>,
}

/// Bookkeeping of one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Points the space enumerated.
    pub candidates: usize,
    /// Points whose cache lookup missed and that were not pruned. A key
    /// repeated within the space counts at each occurrence, though
    /// [`Sweeper::sweep`] models it once and shares the evaluation.
    pub evaluated: usize,
    /// Points skipped by dominance pruning (never evaluated).
    pub pruned: usize,
    /// Points served from the evaluation cache.
    pub cache_hits: usize,
    /// Wall-clock time of the sweep.
    pub elapsed: Duration,
}

impl SweepStats {
    /// Evaluated-point throughput (cached and pruned points excluded).
    pub fn points_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.evaluated as f64 / secs
        }
    }
}

/// Everything a sweep returns: the evaluations, the per-group frontiers,
/// and the stats.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One evaluation per *non-pruned* candidate. [`Sweeper::sweep`]
    /// evaluates everything and keeps [`DesignSpace::points`] order;
    /// [`Sweeper::sweep_pruned`] skips dominated candidates and yields
    /// survivors in its search order (strongest configurations first).
    pub evaluations: Vec<Arc<Evaluation>>,
    /// Per-`(workload, seq_len)` Pareto frontiers, in first-seen order.
    pub frontiers: Vec<FrontierGroup>,
    /// Sweep bookkeeping.
    pub stats: SweepStats,
}

impl SweepOutcome {
    /// The frontier of one workload/length group, if that group was swept.
    pub fn frontier_for(&self, model: &str, seq_len: usize) -> Option<&FrontierGroup> {
        self.frontiers.iter().find(|g| g.model == model && g.seq_len == seq_len)
    }

    /// The union of all group frontiers.
    pub fn frontier_points(&self) -> Vec<&Arc<Evaluation>> {
        self.frontiers.iter().flat_map(|g| g.frontier.points()).collect()
    }

    /// Up to `k` frontier designs worth replaying on the cycle-accurate
    /// simulator ([`crate::validate_top_k`]): every group's
    /// lowest-latency winner first, then every group's runner-up, and so
    /// on (latency is only comparable *within* a `(workload, seq_len)`
    /// group, so a plain global sort would hand all `k` slots to the
    /// cheapest workload's group).
    pub fn top_k(&self, k: usize) -> Vec<&Arc<Evaluation>> {
        let mut by_group: Vec<Vec<&Arc<Evaluation>>> = self
            .frontiers
            .iter()
            .map(|g| {
                let mut pts: Vec<&Arc<Evaluation>> = g.frontier.points().iter().collect();
                pts.sort_by(|a, b| a.latency_s.total_cmp(&b.latency_s));
                pts
            })
            .collect();
        let mut out = Vec::new();
        let mut rank = 0;
        while out.len() < k {
            let mut took_any = false;
            for group in &mut by_group {
                if let Some(&p) = group.get(rank) {
                    out.push(p);
                    took_any = true;
                    if out.len() == k {
                        break;
                    }
                }
            }
            if !took_any {
                break;
            }
            rank += 1;
        }
        out
    }
}

/// The sweep engine: owns the model parameterization, the cost models, and
/// the evaluation cache.
///
/// The cache is keyed by the full design-point identity ([`PointKey`]);
/// because a `Sweeper` owns exactly one immutable [`ModelParams`] /
/// [`AreaModel`], cached entries can never mix parameterizations.
///
/// # Example
///
/// ```
/// use fusemax_dse::{DesignSpace, Sweeper};
/// use fusemax_model::ModelParams;
///
/// let sweeper = Sweeper::new(ModelParams::default());
/// let outcome = sweeper.sweep(&DesignSpace::new()); // the Fig 12 space
/// assert_eq!(outcome.evaluations.len(), 24);
/// // Every curve point is Pareto-optimal: bigger chips are faster.
/// assert_eq!(outcome.frontier_points().len(), 24);
/// ```
pub struct Sweeper {
    params: ModelParams,
    area_model: AreaModel,
    energy_table: EnergyTable,
    cache: EvalCache,
    parallel: bool,
    recorder: Recorder,
    objective: Option<Arc<dyn Objective>>,
}

impl std::fmt::Debug for Sweeper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweeper")
            .field("params", &self.params)
            .field("area_model", &self.area_model)
            .field("cache", &self.cache)
            .field("parallel", &self.parallel)
            .field("objective", &self.objective.as_ref().map(|o| o.name()))
            .finish_non_exhaustive()
    }
}

impl Sweeper {
    /// A sweeper with default cost models, an empty cache and parallel
    /// batch evaluation.
    pub fn new(params: ModelParams) -> Self {
        Sweeper {
            params,
            area_model: AreaModel::default(),
            energy_table: EnergyTable::default(),
            cache: EvalCache::new(),
            parallel: true,
            recorder: Recorder::disabled(),
            objective: None,
        }
    }

    /// Attaches a telemetry recorder. Instrumentation never changes
    /// results — frontiers, stats, and cache contents are bit-identical
    /// with or without a recorder; events are emitted only from serial,
    /// deterministically-ordered code paths (the sweep's space-order
    /// classification loop, the search session's staging/fold loops), so
    /// the stream itself replays byte-identically for a given seed.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached telemetry recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Switches [`Sweeper::evaluate_many`] — the batch evaluation that
    /// guided searches flush through — and the annealing chains between
    /// rayon-parallel (`true`, the default) and serial. Results are
    /// identical either way; only wall-clock time changes. Sweeps are
    /// serial whatever this says.
    pub fn with_parallelism(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Whether [`Sweeper::evaluate_many`] evaluates cache misses on all
    /// cores (`true`, the default) or serially. The batched search
    /// session and the parallel annealing chains consult this, so a
    /// single switch flips every guided search between the parallel path
    /// and its bit-identical serial reference.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Replaces the area model (Fig 12 sensitivity studies).
    pub fn with_area_model(mut self, area_model: AreaModel) -> Self {
        self.area_model = area_model;
        self
    }

    /// Attaches a scalar [`Objective`] that the search `Session`
    /// scores every finished evaluation against, in its serial fold — so
    /// guided strategies climb the objective *in the loop* instead of
    /// re-ranking a finished frontier. The raw Pareto machinery is
    /// unaffected; without an objective, search behaves exactly as
    /// before (trajectory-preserving by construction).
    pub fn with_objective(mut self, objective: Arc<dyn Objective>) -> Self {
        self.objective = Some(objective);
        self
    }

    /// The attached in-loop objective, if any.
    pub fn objective(&self) -> Option<&Arc<dyn Objective>> {
        self.objective.as_ref()
    }

    /// The model parameterization this sweeper evaluates under.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The evaluation cache (hit/miss counters included).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Evaluates one point through the analytical model, bypassing the
    /// cache, and moves the point into its evaluation. Pure: identical
    /// inputs give identical outputs.
    fn compute(&self, point: DesignPoint) -> Evaluation {
        let report: AttentionReport = attention_report(
            point.kind,
            &point.workload,
            point.seq_len,
            Some(&point.arch),
            &self.params,
        );
        let layers = point.workload.layers as f64;
        Evaluation {
            area_cm2: self.area_model.chip_area_cm2(&point.arch) * point.fleet.chips() as f64,
            latency_s: point.arch.cycles_to_seconds(report.cycles * layers),
            energy_j: report.energy.total_pj() * layers * 1e-12,
            report,
            point,
        }
    }

    /// Evaluates one point through the cache: a hit returns the *same*
    /// [`Arc`] as the first evaluation (bit-identical by construction).
    pub fn evaluate(&self, point: &DesignPoint) -> Arc<Evaluation> {
        self.evaluate_classified(point).0
    }

    /// Like [`Sweeper::evaluate`], additionally reporting whether this
    /// call ran the analytical model (`true`) or was served from the
    /// cache (`false`) — one [`EvalCache::get_or_insert_with`] lock round
    /// instead of a separate `contains` peek.
    pub fn evaluate_classified(&self, point: &DesignPoint) -> (Arc<Evaluation>, bool) {
        self.cache.get_or_insert_with(PointKey::of(point), || self.compute(point.clone()))
    }

    /// Evaluates `points` through the cache — misses on all cores when
    /// parallelism is on — returning `(evaluation, fresh)` per point in
    /// input order. Results are independent of the thread count: every
    /// evaluation is a pure function of its point, and ordering is
    /// restored by the rayon stub's order-preserving collect.
    pub fn evaluate_many(&self, points: &[DesignPoint]) -> Vec<(Arc<Evaluation>, bool)> {
        if self.parallel && points.len() > 1 {
            points.par_iter().map(|p| self.evaluate_classified(p)).collect()
        } else {
            points.iter().map(|p| self.evaluate_classified(p)).collect()
        }
    }

    /// An optimistic component-wise lower bound on `point`'s objectives,
    /// computable *without* running the model:
    ///
    /// * **area** — exact (the area model is closed-form);
    /// * **latency** — the roofline floor over work no mapping of this
    ///   configuration can avoid: 2D PE-ops (tensor-product MACCs, plus the
    ///   chained-MACC exponentials the FuseMax kinds place on the 2D
    ///   array), the configuration's compulsory 1D softmax ops, and its
    ///   compulsory DRAM traffic (the unfused baseline *must* spill `QK`
    ///   and `A` between phases — 4 bytes per iteration-space point on top
    ///   of the Q/K/V/AV reads; FLAT *must* pay its buffer solver's
    ///   regime-aware traffic — re-streamed `K`/`V` or spilled fibers —
    ///   once the sequence no longer fits on chip, via
    ///   [`fusemax_model::flat_dram_floor_per_head`]);
    /// * **energy** — the same compulsory op and traffic counts priced by
    ///   the energy table.
    ///
    /// Every real evaluation satisfies `objectives()[i] >= lower_bound[i]`
    /// (the floors only count work each configuration's model provably
    /// charges), which is what makes frontier-based pruning sound
    /// ([`ParetoFrontier::admits`]).
    pub fn lower_bound(&self, point: &DesignPoint) -> [f64; 3] {
        use fusemax_model::ConfigKind::*;

        let arch = &point.arch;
        let et = &self.energy_table;
        let work = AttnWork::from_workload(&point.workload, point.seq_len);
        let layers = point.workload.layers as f64;
        let pts = work.points();
        let word = arch.word_bytes as f64;
        let maccs = work.matmul_maccs();
        let io_bytes = work.input_output_bytes(word);
        let sub_exp = self.params.sub_exp_cycles();
        let baseline_ops = self.params.baseline_softmax_ops_per_point;

        // Compulsory work by configuration (floors of the closed-form
        // models in `fusemax_model::{unfused, flat, fusemax}`).
        let (ops_2d, ops_1d, divs, spill_bytes) = match point.kind {
            // 3-pass softmax on the 1D array: `baseline_ops` per point, one
            // of them a division. Unfused additionally writes+reads QK and
            // A between phases.
            Unfused => (maccs, (baseline_ops - 1.0) * pts, pts, 4.0 * word * pts),
            // FLAT's buffer solver is closed-form, so its regime-aware
            // DRAM charge (K/V re-streams or fiber spills past the
            // resident regime) is itself a computable floor — much tighter
            // than compulsory traffic alone at long sequence lengths.
            Flat => {
                let solver_bytes = work.batch_heads
                    * fusemax_model::flat_dram_floor_per_head(&work, arch, &self.params);
                let restream_bytes = (solver_bytes - io_bytes).max(0.0);
                (maccs, (baseline_ops - 1.0) * pts, pts, restream_bytes)
            }
            // 1-pass cascade on FLAT PEs: ≥ LM+SLN+SLD per point on the 1D
            // array, divisions deferred to F per query.
            FuseMaxCascade => (maccs, 3.0 * pts, work.batch_heads * work.f * work.l, 0.0),
            // FuseMax PEs: max/sub-exp/add join the MACCs on the 2D array
            // (E + F + 2 + sub_exp PE-ops per point); the 1D array carries
            // the per-(m1, p) corrections, ≥ (3 + sub_exp + 2F)/M0 ops per
            // point, plus the deferred divisions.
            FuseMaxArch | FuseMaxBinding => (
                maccs + (2.0 + sub_exp) * pts,
                (3.0 + sub_exp + 2.0 * work.f) * pts / arch.array_rows as f64,
                work.batch_heads * work.f * work.l,
                0.0,
            ),
        };
        let dram_floor = io_bytes + spill_bytes;
        // Every model stages at least its DRAM traffic through the global
        // buffer; the baselines and +Cascade additionally pass QK and SN
        // through it (write + read each).
        let gbuf_floor = match point.kind {
            Unfused | Flat | FuseMaxCascade => dram_floor + 4.0 * word * pts,
            FuseMaxArch | FuseMaxBinding => dram_floor,
        };

        // +Binding hides the deferred divisions in 1D slack, so they count
        // toward its energy floor but not its cycle floor.
        let cycle_divs = if point.kind == FuseMaxBinding { 0.0 } else { divs };
        let cycle_floor = (ops_2d / arch.pe_count_2d() as f64)
            .max((ops_1d + cycle_divs) / arch.vector_pes as f64)
            .max(dram_floor / arch.dram_bytes_per_cycle());
        let latency_lb = arch.cycles_to_seconds(cycle_floor * layers);

        let energy_lb = (ops_2d * et.macc_pj
            + ops_1d * et.vector_op_pj
            + divs * et.div_pj
            + 2.0 * word * ops_2d * et.rf_pj_per_byte
            + gbuf_floor * et.gbuf_pj_per_byte
            + dram_floor * et.dram_pj_per_byte)
            * layers
            * 1e-12;

        [self.area_model.chip_area_cm2(arch) * point.fleet.chips() as f64, latency_lb, energy_lb]
    }

    /// Sweeps the whole space serially, evaluating **every** candidate
    /// (no pruning, so the result doubles as ground truth for figures like
    /// Fig 12 that plot dominated points too). Results come back in space
    /// order.
    ///
    /// Two passes over the grid: the first looks every point up in the
    /// cache, the second models the misses in space order. A key that
    /// repeats within the space (two points with the same model-visible
    /// identity) therefore misses at each occurrence and counts toward
    /// [`SweepStats::evaluated`] each time, but it is modeled once: the
    /// later slots share the first occurrence's `Arc`.
    pub fn sweep(&self, space: &DesignSpace) -> SweepOutcome {
        let start = Instant::now();
        let grid = GridWalk::new(space);
        let candidates = space.len();

        // Serve cache hits first so only misses pay for evaluation. This
        // classification loop runs in space order, so the cache events it
        // emits are deterministic.
        let mut slots: Vec<Option<Arc<Evaluation>>> = Vec::with_capacity(candidates);
        let mut evaluated = 0;
        for (i, index) in grid.indices().enumerate() {
            let tick = i as u64 + 1;
            match self.cache.get(&grid.key(index)) {
                Some(hit) => {
                    self.recorder.emit(|| Event::search(tick, SearchEvent::CacheHit));
                    slots.push(Some(hit));
                }
                None => {
                    self.recorder.emit(|| Event::search(tick, SearchEvent::CacheMiss));
                    slots.push(None);
                    evaluated += 1;
                }
            }
        }
        let cache_hits = candidates - evaluated;
        self.recorder
            .emit(|| Event::search(candidates as u64, SearchEvent::FlushBatch { size: evaluated }));

        // One lock for the whole pass, the map grown once for the misses.
        let mut map = self.cache.map();
        map.reserve(evaluated);
        for (slot, index) in slots.iter_mut().zip(grid.indices()) {
            if slot.is_none() {
                let entry = map
                    .entry(grid.key(index))
                    .or_insert_with(|| Arc::new(self.compute(grid.point(index))));
                *slot = Some(Arc::clone(entry));
            }
        }
        drop(map);

        let evaluations: Vec<Arc<Evaluation>> =
            slots.into_iter().map(|s| s.expect("every slot filled")).collect();
        let mut groups = Groups::of(space);
        for (n, (evaluation, index)) in evaluations.iter().zip(grid.indices()).enumerate() {
            let frontier = groups.frontier(index);
            let admitted = frontier.insert(Arc::clone(evaluation));
            self.recorder.emit(|| {
                Event::search(
                    n as u64 + 1,
                    SearchEvent::FrontierInsert { admitted, frontier_len: frontier.len() },
                )
            });
        }

        SweepOutcome {
            evaluations,
            frontiers: groups.frontiers,
            stats: SweepStats {
                candidates,
                evaluated,
                pruned: 0,
                cache_hits,
                elapsed: start.elapsed(),
            },
        }
    }

    /// Sweeps the space with dominance pruning: before evaluating a
    /// candidate, its [`Sweeper::lower_bound`] is tested against the
    /// group's running frontier, and provably-dominated candidates are
    /// skipped entirely. The returned frontiers are identical to
    /// [`Sweeper::sweep`]'s; `evaluations` contains only the points that
    /// survived the cutoff (pruning is what you want for *search*; use the
    /// full sweep when a figure needs dominated points plotted too).
    ///
    /// Pruning is sequential by nature: each decision depends on the
    /// frontier so far.
    pub fn sweep_pruned(&self, space: &DesignSpace) -> SweepOutcome {
        let start = Instant::now();
        let grid = GridWalk::new(space);
        let mut groups = Groups::of(space);
        let mut evaluations = Vec::new();
        let mut pruned = 0usize;
        let mut evaluated = 0usize;
        let mut cache_hits = 0usize;

        // Evaluate the strongest configurations first (otherwise in space
        // order): a +Binding design evaluated early is what proves the
        // dominated baselines not worth evaluating at all.
        for index in grid.strongest_first() {
            let frontier = groups.frontier(index);
            let key = grid.key(index);
            let tick = (evaluated + cache_hits) as u64 + 1;
            self.recorder.emit(|| Event::search(tick, SearchEvent::Staged));
            let evaluation = if let Some(hit) = self.cache.get(&key) {
                cache_hits += 1;
                self.recorder.emit(|| Event::search(tick, SearchEvent::CacheHit));
                hit
            } else {
                let point = grid.point(index);
                if !frontier.admits(&self.lower_bound(&point)) {
                    pruned += 1;
                    self.recorder.emit(|| Event::search(tick, SearchEvent::ScreenedOut));
                    continue;
                }
                evaluated += 1;
                self.recorder.emit(|| Event::search(tick, SearchEvent::CacheMiss));
                self.cache.insert(key, Arc::new(self.compute(point)))
            };
            let admitted = frontier.insert(Arc::clone(&evaluation));
            self.recorder.emit(|| {
                Event::search(
                    tick,
                    SearchEvent::FrontierInsert { admitted, frontier_len: frontier.len() },
                )
            });
            evaluations.push(evaluation);
        }

        SweepOutcome {
            evaluations,
            frontiers: groups.frontiers,
            stats: SweepStats {
                candidates: space.len(),
                evaluated,
                pruned,
                cache_hits,
                elapsed: start.elapsed(),
            },
        }
    }
}

/// Finds or creates the frontier group of `(model, seq_len)`.
pub(crate) fn group_index(
    frontiers: &mut Vec<FrontierGroup>,
    model: &str,
    seq_len: usize,
) -> usize {
    match frontiers.iter().position(|g| g.model == model && g.seq_len == seq_len) {
        Some(i) => i,
        None => {
            frontiers.push(FrontierGroup {
                model: model.to_string(),
                seq_len,
                frontier: ParetoFrontier::new(),
            });
            frontiers.len() - 1
        }
    }
}

/// A sweep's frontier groups, found by grid index instead of by name.
struct Groups {
    /// In first-seen order. Both sweep orders meet the `(workload,
    /// seq_len)` index pairs in index order, so this is the order a
    /// point-by-point [`group_index`] would create them in.
    frontiers: Vec<FrontierGroup>,
    /// The group of each index pair, at `workload × seq_lens + seq_len`.
    of_pair: Vec<usize>,
    seq_lens: usize,
}

impl Groups {
    /// No groups for an empty space, which has no points to group.
    fn of(space: &DesignSpace) -> Self {
        let mut frontiers = Vec::new();
        let of_pair = if space.is_empty() {
            Vec::new()
        } else {
            space
                .workloads()
                .iter()
                .flat_map(|w| space.seq_lens().iter().map(move |&seq_len| (w.name, seq_len)))
                .map(|(model, seq_len)| group_index(&mut frontiers, model, seq_len))
                .collect()
        };
        Groups { frontiers, of_pair, seq_lens: space.seq_lens().len() }
    }

    /// The running frontier of the group `index` belongs to.
    fn frontier(&mut self, [wi, si, ..]: AxisIndex) -> &mut ParetoFrontier<Arc<Evaluation>, 3> {
        &mut self.frontiers[self.of_pair[wi * self.seq_lens + si]].frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{arch_for, DesignSpace};
    use fusemax_model::ConfigKind;
    use fusemax_workloads::TransformerConfig;
    use proptest::prelude::*;

    fn small_space() -> DesignSpace {
        DesignSpace::new()
            .with_array_dims([64, 128, 256])
            .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
            .with_workloads([TransformerConfig::bert()])
            .with_seq_lens([1 << 14])
    }

    #[test]
    fn sweep_evaluates_every_point_once() {
        let sweeper = Sweeper::new(ModelParams::default());
        let outcome = sweeper.sweep(&small_space());
        assert_eq!(outcome.stats.candidates, 6);
        assert_eq!(outcome.stats.evaluated, 6);
        assert_eq!(outcome.stats.cache_hits, 0);
        assert_eq!(outcome.evaluations.len(), 6);
        assert_eq!(outcome.frontiers.len(), 1);
    }

    #[test]
    fn objectives_are_positive_and_bounded_below() {
        let sweeper = Sweeper::new(ModelParams::default());
        for evaluation in &sweeper.sweep(&small_space()).evaluations {
            let [area, latency, energy] = evaluation.objectives();
            assert!(area > 0.0 && latency > 0.0 && energy > 0.0);
            let lb = sweeper.lower_bound(&evaluation.point);
            assert!(area >= lb[0] * (1.0 - 1e-12), "area {} < bound {}", area, lb[0]);
            assert!(latency >= lb[1] * (1.0 - 1e-12), "latency {} < bound {}", latency, lb[1]);
            assert!(energy >= lb[2] * (1.0 - 1e-12), "energy {} < bound {}", energy, lb[2]);
        }
    }

    #[test]
    fn second_sweep_is_all_cache_hits_and_shares_allocations() {
        let sweeper = Sweeper::new(ModelParams::default());
        let first = sweeper.sweep(&small_space());
        let second = sweeper.sweep(&small_space());
        assert_eq!(second.stats.cache_hits, 6);
        assert_eq!(second.stats.evaluated, 0);
        for (a, b) in first.evaluations.iter().zip(&second.evaluations) {
            assert!(Arc::ptr_eq(a, b), "cache must return the same allocation");
        }
    }

    #[test]
    fn a_key_repeated_within_one_sweep_misses_at_each_occurrence() {
        // Slots 0/1 (FLAT) and 3/4 (+Binding) are dim-64 twins with one key
        // each. The sweep looks every point up before it evaluates any, so
        // a cold sweep misses on both twins and counts both as evaluated,
        // then models each key once and shares it between the twins.
        use fusemax_telemetry::VecSink;
        let space = small_space().with_array_dims([64, 64, 128]);
        let (recorder, sink) = VecSink::recorder();
        let sweeper = Sweeper::new(ModelParams::default()).with_recorder(recorder);
        let cold = sweeper.sweep(&space);
        assert_eq!(cold.stats.candidates, 6);
        assert_eq!(cold.stats.evaluated, 6);
        assert_eq!(cold.stats.cache_hits, 0);

        let events = sink.events();
        let mut expected: Vec<Event> =
            (1..=6).map(|tick| Event::search(tick, SearchEvent::CacheMiss)).collect();
        expected.push(Event::search(6, SearchEvent::FlushBatch { size: 6 }));
        assert_eq!(events[..7], expected[..]);
        assert!(events[7..]
            .iter()
            .all(|e| matches!(e, Event::Search { kind: SearchEvent::FrontierInsert { .. }, .. })));

        assert_eq!(sweeper.cache().len(), 4);
        for twin in [0, 3] {
            let (a, b) = (&cold.evaluations[twin], &cold.evaluations[twin + 1]);
            assert_eq!(a.point.array_dim, 64);
            assert!(Arc::ptr_eq(a, b), "dim-64 twins at slots {twin} and {}", twin + 1);
        }

        let warm = sweeper.sweep(&space);
        assert_eq!(warm.stats.cache_hits, 6);
        assert_eq!(warm.stats.evaluated, 0);
    }

    /// `sweep_pruned` as it was before the grid walk: materialize every
    /// point, stable-sort the strongest kinds first, and find each point's
    /// group by name. The oracle for the walk's evaluation order.
    fn sweep_pruned_reference(sweeper: &Sweeper, space: &DesignSpace) -> SweepOutcome {
        let mut points = space.points();
        let candidates = points.len();
        points.sort_by_key(|p| std::cmp::Reverse(p.kind));
        let mut evaluations = Vec::new();
        let mut frontiers: Vec<FrontierGroup> = Vec::new();
        let (mut pruned, mut evaluated, mut cache_hits) = (0, 0, 0);
        for point in points {
            let group = group_index(&mut frontiers, point.workload.name, point.seq_len);
            let key = PointKey::of(&point);
            let tick = (evaluated + cache_hits) as u64 + 1;
            sweeper.recorder.emit(|| Event::search(tick, SearchEvent::Staged));
            let evaluation = if let Some(hit) = sweeper.cache.get(&key) {
                cache_hits += 1;
                sweeper.recorder.emit(|| Event::search(tick, SearchEvent::CacheHit));
                hit
            } else {
                if !frontiers[group].frontier.admits(&sweeper.lower_bound(&point)) {
                    pruned += 1;
                    sweeper.recorder.emit(|| Event::search(tick, SearchEvent::ScreenedOut));
                    continue;
                }
                evaluated += 1;
                sweeper.recorder.emit(|| Event::search(tick, SearchEvent::CacheMiss));
                sweeper.cache.insert(key, Arc::new(sweeper.compute(point)))
            };
            let admitted = frontiers[group].frontier.insert(Arc::clone(&evaluation));
            let frontier_len = frontiers[group].frontier.len();
            sweeper.recorder.emit(|| {
                Event::search(tick, SearchEvent::FrontierInsert { admitted, frontier_len })
            });
            evaluations.push(evaluation);
        }
        SweepOutcome {
            evaluations,
            frontiers,
            stats: SweepStats { candidates, evaluated, pruned, cache_hits, ..Default::default() },
        }
    }

    /// Everything of an outcome that must match bit for bit: each
    /// evaluation's point and objective bits, each group's frontier, and
    /// the stats but for wall time.
    fn fingerprint(outcome: &SweepOutcome) -> impl PartialEq + std::fmt::Debug {
        let bits = |e: &Arc<Evaluation>| (e.point.clone(), e.objectives().map(f64::to_bits));
        let s = &outcome.stats;
        (
            outcome.evaluations.iter().map(bits).collect::<Vec<_>>(),
            outcome
                .frontiers
                .iter()
                .map(|g| {
                    (g.model.clone(), g.seq_len, g.frontier.points().iter().map(bits).collect())
                })
                .collect::<Vec<(String, usize, Vec<_>)>>(),
            [s.candidates, s.evaluated, s.pruned, s.cache_hits],
        )
    }

    #[test]
    fn pruned_walk_matches_the_materialize_and_sort_reference() {
        // An unsorted kinds axis that repeats FLAT, a repeated length, and
        // two clocks that alias: both families run at 940 MHz stock.
        use fusemax_telemetry::VecSink;
        let space = DesignSpace::new()
            .with_array_dims([32, 64, 128, 256])
            .with_kinds([
                ConfigKind::Flat,
                ConfigKind::FuseMaxBinding,
                ConfigKind::Flat,
                ConfigKind::Unfused,
            ])
            .with_workloads([TransformerConfig::bert(), TransformerConfig::t5()])
            .with_seq_lens([1 << 12, 1 << 16, 1 << 12])
            .with_frequencies_hz([None, Some(940e6)]);
        let (walk_recorder, walk_sink) = VecSink::recorder();
        let (reference_recorder, reference_sink) = VecSink::recorder();
        let walk = Sweeper::new(ModelParams::default()).with_recorder(walk_recorder);
        let reference = Sweeper::new(ModelParams::default()).with_recorder(reference_recorder);
        for pass in ["cold", "warm"] {
            let got = walk.sweep_pruned(&space);
            let want = sweep_pruned_reference(&reference, &space);
            assert_eq!(fingerprint(&got), fingerprint(&want), "{pass} sweep");
            assert_eq!(walk_sink.events(), reference_sink.events(), "{pass} events");
            assert!(got.stats.pruned > 0 && got.stats.cache_hits > 0, "{pass}: {:?}", got.stats);
            let counters = |s: &Sweeper| (s.cache().hits(), s.cache().misses(), s.cache().len());
            assert_eq!(counters(&walk), counters(&reference), "{pass} cache");
        }
    }

    #[test]
    fn an_empty_space_sweeps_to_nothing_whatever_its_other_axes_hold() {
        // No workload empties the space; the zero array dimension must
        // then never reach `arch_for`, which rejects it.
        let space = DesignSpace::new().with_array_dims([0]).with_workloads([]);
        let sweeper = Sweeper::new(ModelParams::default());
        for outcome in [sweeper.sweep(&space), sweeper.sweep_pruned(&space)] {
            assert!(outcome.evaluations.is_empty() && outcome.frontiers.is_empty());
            let s = outcome.stats;
            assert_eq!([s.candidates, s.evaluated, s.pruned, s.cache_hits], [0; 4]);
        }
        assert!(sweeper.cache().is_empty());
        assert!(space.points().is_empty());
        assert!(!space.is_on_grid(&DesignSpace::new().point_at([0; 8])));
    }

    #[test]
    fn pruned_sweep_reproduces_the_full_frontier() {
        let space = DesignSpace::new()
            .with_array_dims([32, 64, 128, 256])
            .with_kinds(ConfigKind::all())
            .with_workloads([TransformerConfig::bert(), TransformerConfig::t5()])
            .with_seq_lens([1 << 14, 1 << 16]);
        let full = Sweeper::new(ModelParams::default()).sweep(&space);
        let pruned = Sweeper::new(ModelParams::default()).sweep_pruned(&space);
        assert_eq!(full.frontiers.len(), pruned.frontiers.len());
        for group in &full.frontiers {
            let other = pruned.frontier_for(&group.model, group.seq_len).unwrap();
            let mut a: Vec<[f64; 3]> =
                group.frontier.points().iter().map(|p| p.objectives()).collect();
            let mut b: Vec<[f64; 3]> =
                other.frontier.points().iter().map(|p| p.objectives()).collect();
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(a, b, "pruning changed the {} frontier", group.model);
        }
        assert_eq!(
            pruned.stats.evaluated + pruned.stats.pruned + pruned.stats.cache_hits,
            pruned.stats.candidates
        );
    }

    #[test]
    fn top_k_returns_the_fastest_frontier_designs() {
        let sweeper = Sweeper::new(ModelParams::default());
        let outcome = sweeper.sweep(&small_space());
        let top = outcome.top_k(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].latency_s <= top[1].latency_s);
        let fastest =
            outcome.frontier_points().iter().map(|e| e.latency_s).fold(f64::INFINITY, f64::min);
        assert_eq!(top[0].latency_s, fastest);
    }

    #[test]
    fn top_k_takes_every_groups_winner_before_any_runner_up() {
        let space = DesignSpace::new()
            .with_array_dims([64, 256])
            .with_workloads([TransformerConfig::bert(), TransformerConfig::xlm()])
            .with_seq_lens([1 << 12, 1 << 18]);
        let outcome = Sweeper::new(ModelParams::default()).sweep(&space);
        assert_eq!(outcome.frontiers.len(), 4);

        // Latency is only comparable within a group; the top-4 must be the
        // four group winners, not four designs from the cheapest group.
        let top = outcome.top_k(4);
        let mut groups: Vec<(&str, usize)> =
            top.iter().map(|e| (e.point.workload.name, e.point.seq_len)).collect();
        groups.sort();
        groups.dedup();
        assert_eq!(groups.len(), 4, "each group contributes its winner");
        for e in &top {
            let group = outcome.frontier_for(e.point.workload.name, e.point.seq_len).unwrap();
            let fastest =
                group.frontier.points().iter().map(|p| p.latency_s).fold(f64::INFINITY, f64::min);
            assert_eq!(e.latency_s, fastest, "not the group winner");
        }

        // Asking for more than the frontier holds returns everything once.
        let all = outcome.top_k(usize::MAX);
        assert_eq!(all.len(), outcome.frontier_points().len());
    }

    #[test]
    fn flat_lower_bound_is_tight_in_the_restream_regime() {
        // At 1M tokens FLAT is memory bound, and the bound's DRAM floor is
        // the buffer solver's exact regime-aware charge — so the latency
        // and energy floors essentially coincide with the evaluated cost.
        let sweeper = Sweeper::new(ModelParams::default());
        let point = DesignPoint {
            arch: arch_for(ConfigKind::Flat, 256),
            kind: ConfigKind::Flat,
            workload: TransformerConfig::bert(),
            seq_len: 1 << 20,
            array_dim: 256,
            policy: Default::default(),
            fleet: Default::default(),
        };
        let evaluation = sweeper.evaluate(&point);
        let lb = sweeper.lower_bound(&point);
        assert!(lb[1] <= evaluation.latency_s * (1.0 + 1e-12));
        assert!(lb[2] <= evaluation.energy_j * (1.0 + 1e-12));
        assert!(lb[1] / evaluation.latency_s > 0.99, "latency floor is loose");
        assert!(lb[2] / evaluation.energy_j > 0.99, "energy floor is loose");
    }

    #[test]
    fn tight_flat_bound_prunes_long_sequence_flat_points() {
        // The ROADMAP item: dominance pruning must now skip long-sequence
        // FLAT candidates too, not only compulsory-traffic-bounded ones.
        let space = DesignSpace::new()
            .with_array_dims([16, 32, 64, 128, 256, 512])
            .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
            .with_workloads([TransformerConfig::bert()])
            .with_seq_lens([1 << 20]);
        let pruned = Sweeper::new(ModelParams::default()).sweep_pruned(&space);
        let flat_pruned = pruned.stats.pruned;
        assert!(flat_pruned > 0, "no long-sequence FLAT candidate was pruned");
        // And pruning still reproduces the exhaustive frontier.
        let full = Sweeper::new(ModelParams::default()).sweep(&space);
        for group in &full.frontiers {
            let other = pruned.frontier_for(&group.model, group.seq_len).unwrap();
            assert_eq!(group.frontier.len(), other.frontier.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Property: the optimistic bound never exceeds the true evaluated
        /// cost — over random array dims (powers of two and not), kinds,
        /// workloads, sequence lengths, buffer scales, and frequencies.
        /// This is the soundness contract `sweep_pruned` relies on.
        #[test]
        fn lower_bound_never_exceeds_true_cost(
            dim in 16usize..512,
            kind_idx in 0usize..5,
            workload_idx in 0usize..4,
            seq_exp in 10u32..21,
            buf_scale in 0.25f64..4.0,
            freq_choice in 0usize..3,
        ) {
            let kind = ConfigKind::all()[kind_idx];
            let workload = TransformerConfig::all()[workload_idx].clone();
            let mut arch = arch_for(kind, dim);
            arch.global_buffer_bytes =
                (arch.global_buffer_bytes as f64 * buf_scale).ceil() as u64;
            if let Some(hz) = [None, Some(470e6), Some(1.2e9)][freq_choice] {
                arch.frequency_hz = hz;
            }
            let point = DesignPoint {
                arch,
                kind,
                workload,
                seq_len: 1usize << seq_exp,
                array_dim: dim,
                policy: Default::default(),
                fleet: Default::default(),
            };
            let sweeper = Sweeper::new(ModelParams::default());
            let evaluation = sweeper.evaluate(&point);
            let lb = sweeper.lower_bound(&point);
            let [area, latency, energy] = evaluation.objectives();
            prop_assert!(area >= lb[0] * (1.0 - 1e-12), "area {} < {}", area, lb[0]);
            prop_assert!(latency >= lb[1] * (1.0 - 1e-12), "latency {} < {}", latency, lb[1]);
            prop_assert!(energy >= lb[2] * (1.0 - 1e-12), "energy {} < {}", energy, lb[2]);
        }
    }

    #[test]
    fn fleet_area_is_per_chip_area_times_chip_count() {
        use crate::space::FleetSpec;
        let sweeper = Sweeper::new(ModelParams::default());
        let mut point = DesignPoint {
            arch: arch_for(ConfigKind::FuseMaxBinding, 128),
            kind: ConfigKind::FuseMaxBinding,
            workload: TransformerConfig::bert(),
            seq_len: 1 << 14,
            array_dim: 128,
            policy: Default::default(),
            fleet: FleetSpec::single(),
        };
        let single = sweeper.evaluate(&point);
        point.fleet = FleetSpec::replicated(4);
        let fleet = sweeper.evaluate(&point);
        assert_eq!(fleet.area_cm2, single.area_cm2 * 4.0);
        // Per-replica latency/energy are unchanged: a fleet buys
        // throughput with silicon, not faster single chips.
        assert_eq!(fleet.latency_s, single.latency_s);
        assert_eq!(fleet.energy_j, single.energy_j);
        // The lower bound tracks total silicon too (pruning soundness).
        assert_eq!(sweeper.lower_bound(&point)[0], fleet.area_cm2);
        point.fleet = FleetSpec::disaggregated(1, 3);
        assert_eq!(sweeper.evaluate(&point).area_cm2, single.area_cm2 * 4.0);
    }

    #[test]
    fn frontier_groups_split_by_workload_and_length() {
        let space = DesignSpace::new()
            .with_array_dims([64, 256])
            .with_workloads([TransformerConfig::bert(), TransformerConfig::xlm()])
            .with_seq_lens([1 << 12, 1 << 16]);
        let outcome = Sweeper::new(ModelParams::default()).sweep(&space);
        assert_eq!(outcome.frontiers.len(), 4);
        // Within each group the two dims trade area against latency, so
        // both survive.
        for group in &outcome.frontiers {
            assert_eq!(group.frontier.len(), 2, "{} @ {}", group.model, group.seq_len);
        }
    }
}
