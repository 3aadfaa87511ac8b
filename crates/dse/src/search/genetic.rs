//! Genetic / evolutionary search over the design-space axes: tournament
//! selection on Pareto-rank fitness, uniform crossover, and axis-aware
//! mutation (ordered knobs step to neighboring grid values, categorical
//! knobs resample).

use crate::objective::{MeritScore, Objective};
use crate::pareto::pareto_ranks;
use crate::search::relax::SnapPolicy;
use crate::search::strategy::{
    random_genome, weighted_log_cost, SearchBudget, SearchOutcome, SearchStrategy, Session,
    SessionEval, StagedEval,
};
use crate::space::{arch_for, AxisIndex, Candidate, DesignSpace};
use crate::sweep::{Evaluation, Sweeper};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Axes whose values are ordered (stepping ±1 is a meaningful "nudge"):
/// sequence length (1), array dimension (3), buffer scale (5). Workload
/// (0), kind (2), frequency (4), scheduler policy (6), and fleet shape
/// (7) are treated as categorical.
const ORDERED_AXES: [bool; 8] = [false, true, false, true, false, true, false, false];

/// Under [`SnapPolicy::Continuous`], the probability that a bred child is
/// jittered off-grid instead of evaluated at its grid genome.
const OFFGRID_RATE: f64 = 0.35;

/// Multi-objective genetic search with Pareto-rank fitness.
///
/// Each genome is an [`AxisIndex`] into the space's six axes. Fitness is
/// the genome's non-domination front *within its `(workload, seq_len)`
/// group* (dominance across groups is meaningless), with a balanced
/// log-scalarization as the tie-break. Selection is `tournament`-way,
/// crossover is uniform per axis, and mutation nudges ordered axes by ±1
/// while resampling categorical ones.
///
/// **Stalls.** A generation that stages no new point — every child a
/// revisit of a point the run has already seen, or no child at all — is a
/// stall, not progress. On a stall the searcher injects one immigrant: a
/// grid genome the run has not seen, screened or staged (a few uniform
/// draws, then a scan of the rest of the grid). Once every distinct grid
/// point is known the search stops, so a budget larger than the space's
/// distinct points (the budget clamps to grid cells, and an axis may
/// repeat a value) ends the run instead of spinning. Generations that
/// stage a new point never touch this path, and the immigrant consumes
/// RNG only on a stall, so a seeded trajectory depends on the rule only
/// from its first stall on. A run whose budget covers the space requests
/// every distinct point, so it finds the exhaustive frontier.
/// [`crate::search::SearchStats::proposals`] counts every seed genome,
/// bred child and immigrant, including children dropped before staging
/// as copies of population members.
///
/// Deterministic per seed; all evaluations flow through the shared
/// [`crate::EvalCache`].
///
/// # Example
///
/// ```
/// use fusemax_dse::search::{GeneticSearch, SearchBudget, SearchStrategy};
/// use fusemax_dse::{DesignSpace, Sweeper};
/// use fusemax_model::{ConfigKind, ModelParams};
///
/// let space = DesignSpace::new().with_kinds(ConfigKind::all());
/// let sweeper = Sweeper::new(ModelParams::default());
/// let outcome =
///     GeneticSearch::new(7).search(&sweeper, &space, SearchBudget::fraction(&space, 0.25));
/// assert!(outcome.stats.requested <= 30);
/// assert!(!outcome.frontier_points().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct GeneticSearch {
    seed: u64,
    population: usize,
    mutation_rate: f64,
    tournament: usize,
    snap: SnapPolicy,
    screening: bool,
}

impl GeneticSearch {
    /// A genetic searcher with the default knobs: population 16,
    /// mutation rate 0.25, binary tournaments, on-grid evaluation, no
    /// screening.
    pub fn new(seed: u64) -> Self {
        GeneticSearch {
            seed,
            population: 16,
            mutation_rate: 0.25,
            tournament: 2,
            snap: SnapPolicy::Grid,
            screening: false,
        }
    }

    /// Replaces the snap policy. Under [`SnapPolicy::Continuous`] the
    /// breeding loop jitters a fraction of children (35%) off-grid:
    /// the grid genome stays the crossover substrate,
    /// but the evaluated design perturbs the array dimension and buffer
    /// bytes geometrically within ±half an octave — so the population can
    /// hold (and select for) designs the grid cannot express.
    pub fn with_snap_policy(mut self, snap: SnapPolicy) -> Self {
        self.snap = snap;
        self
    }

    /// Enables the multi-fidelity lower-bound screen: provably-dominated
    /// children are rejected against [`SearchBudget::cheap`] instead of
    /// costing a model evaluation.
    pub fn with_screening(mut self, screening: bool) -> Self {
        self.screening = screening;
        self
    }

    /// Replaces the population size (clamped to ≥ 2 at search time).
    pub fn with_population(mut self, population: usize) -> Self {
        self.population = population;
        self
    }

    /// Replaces the per-axis mutation probability.
    pub fn with_mutation_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "mutation rate must be a probability");
        self.mutation_rate = rate;
        self
    }

    /// Replaces the tournament size (clamped to ≥ 2 at search time).
    pub fn with_tournament(mut self, tournament: usize) -> Self {
        self.tournament = tournament;
        self
    }
}

/// One population member: the grid genome it breeds through, the
/// candidate actually evaluated (equal to `Grid(genome)` unless the child
/// was jittered off-grid), and its evaluation.
#[derive(Clone)]
struct Member {
    genome: AxisIndex,
    candidate: Candidate,
    evaluation: Arc<Evaluation>,
}

/// A staged member-to-be: revisits resolve immediately, fresh points wait
/// for the generation's batch flush.
enum Slot {
    Ready(Arc<Evaluation>),
    Pending(usize),
}

/// A bred child awaiting its generation's batch evaluation.
struct ChildSlot {
    genome: AxisIndex,
    candidate: Candidate,
    slot: Slot,
}

/// Resolves staged children against the flushed batch, preserving
/// proposal order.
fn resolve(slots: Vec<ChildSlot>, batch: Vec<Arc<Evaluation>>) -> Vec<Member> {
    slots
        .into_iter()
        .map(|c| Member {
            genome: c.genome,
            candidate: c.candidate,
            evaluation: match c.slot {
                Slot::Ready(e) => e,
                Slot::Pending(i) => Arc::clone(&batch[i]),
            },
        })
        .collect()
}

/// Jitters a grid genome's hardware knobs off-grid: the array dimension
/// and buffer bytes move geometrically within ±half an octave of their
/// grid values (the categorical axes stay indexed). Half an octave is the
/// farthest any off-grid value sits from its nearest grid anchor on a
/// power-of-two grid, so jittered children blanket the gaps without
/// abandoning the neighborhood selection chose.
fn offgrid_jitter(rng: &mut StdRng, space: &DesignSpace, genome: &AxisIndex) -> Candidate {
    let [wi, si, ki, di, fi, bi, pi, gi] = *genome;
    let dim_base = space.array_dims()[di] as f64;
    let array_dim = (dim_base * 2f64.powf(rng.gen_range(-0.5..0.5))).round().max(1.0) as usize;
    let base = arch_for(space.kinds()[ki], array_dim).global_buffer_bytes as f64;
    let scale = space.buffer_scales()[bi];
    let buffer_bytes = (base * scale * 2f64.powf(rng.gen_range(-0.5..0.5))).ceil().max(1.0) as u64;
    Candidate::OffGrid {
        workload: wi,
        seq_len: si,
        kind: ki,
        frequency: fi,
        array_dim,
        buffer_bytes,
        frequency_hz: None,
        dram_bw_bytes_per_sec: None,
        policy: pi,
        fleet: gi,
    }
}

/// Per-member Pareto front index, computed *within* each member's
/// `(workload, seq_len)` group.
fn grouped_ranks(members: &[Member]) -> Vec<usize> {
    let mut ranks = vec![0usize; members.len()];
    let mut groups: Vec<(&str, usize, Vec<usize>)> = Vec::new();
    for (i, m) in members.iter().enumerate() {
        let key = (m.evaluation.point.workload.name, m.evaluation.point.seq_len);
        match groups.iter_mut().find(|(n, l, _)| *n == key.0 && *l == key.1) {
            Some((_, _, idxs)) => idxs.push(i),
            None => groups.push((key.0, key.1, vec![i])),
        }
    }
    for (_, _, idxs) in &groups {
        let objs: Vec<[f64; 3]> = idxs
            .iter()
            .map(|&i| {
                let e = &members[i].evaluation;
                [e.area_cm2, e.latency_s, e.energy_j]
            })
            .collect();
        for (&i, r) in idxs.iter().zip(pareto_ranks(&objs)) {
            ranks[i] = r;
        }
    }
    ranks
}

/// Balanced log-scalarization used as the rank tie-break.
fn scalar(e: &Evaluation) -> f64 {
    weighted_log_cost(&[e.area_cm2, e.latency_s, e.energy_j], &[1.0, 1.0, 1.0])
}

/// Per-member fitness ranks by the sweeper's in-loop objective: the best
/// [`MeritScore`] gets rank 0. The sort is stable, so tied scores keep
/// member order and rankings stay deterministic. (Objective
/// implementations memoize per design point, so re-ranking each
/// generation costs lookups, not simulations.)
fn objective_ranks(members: &[Member], objective: &dyn Objective) -> Vec<usize> {
    let scores: Vec<MeritScore> = members.iter().map(|m| objective.score(&m.evaluation)).collect();
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let mut ranks = vec![0usize; members.len()];
    for (rank, &i) in order.iter().enumerate() {
        ranks[i] = rank;
    }
    ranks
}

/// Picks the fitter of `k` random members: lowest front, then lowest
/// scalar cost.
fn tournament_pick(rng: &mut StdRng, members: &[Member], ranks: &[usize], k: usize) -> usize {
    let mut best = rng.gen_range(0..members.len());
    for _ in 1..k {
        let challenger = rng.gen_range(0..members.len());
        let better = ranks[challenger] < ranks[best]
            || (ranks[challenger] == ranks[best]
                && scalar(&members[challenger].evaluation) < scalar(&members[best].evaluation));
        if better {
            best = challenger;
        }
    }
    best
}

/// Uniform crossover: each axis comes from either parent with equal
/// probability. The policy (6) and fleet (7) axes only draw when they
/// have alternatives — a draw on a singleton axis would still consume
/// RNG state and shift the seeded trajectories of every pre-existing
/// space.
fn crossover(rng: &mut StdRng, a: &AxisIndex, b: &AxisIndex, lens: &AxisIndex) -> AxisIndex {
    let mut child = *a;
    for (axis, (slot, &gene)) in child.iter_mut().zip(b.iter()).enumerate() {
        if axis >= 6 && lens[axis] <= 1 {
            continue;
        }
        if rng.gen_bool(0.5) {
            *slot = gene;
        }
    }
    child
}

/// Mutates each axis with probability `rate`: ordered axes step ±1
/// (clamped), categorical axes resample uniformly.
fn mutate(rng: &mut StdRng, genome: &mut AxisIndex, lens: &AxisIndex, rate: f64) {
    for axis in 0..8 {
        if lens[axis] <= 1 || !rng.gen_bool(rate) {
            continue;
        }
        if ORDERED_AXES[axis] {
            let up = rng.gen_bool(0.5);
            genome[axis] = if up {
                (genome[axis] + 1).min(lens[axis] - 1)
            } else {
                genome[axis].saturating_sub(1)
            };
        } else {
            genome[axis] = rng.gen_range(0..lens[axis]);
        }
    }
}

impl SearchStrategy for GeneticSearch {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn search(
        &self,
        sweeper: &Sweeper,
        space: &DesignSpace,
        budget: SearchBudget,
    ) -> SearchOutcome {
        let mut session = Session::new(sweeper, space, budget).with_screening(self.screening);
        if self.snap == SnapPolicy::Continuous {
            // Off-grid children can outnumber the grid; the space-size
            // clamp would be wrong.
            session = session.without_space_clamp(budget);
        }
        if space.is_empty() {
            return session.finish(self.name());
        }
        let lens = space.axis_lens();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let pop_target = self.population.clamp(2, session.remaining().max(2));
        let tournament = self.tournament.max(2);

        // Seed generation: random distinct genomes, staged and evaluated
        // as one batch (staging charges the budget and consumes the RNG
        // exactly as per-point evaluation would; only the model runs are
        // deferred to the flush).
        let mut seeds: Vec<ChildSlot> = Vec::with_capacity(pop_target);
        let mut attempts = 0usize;
        while seeds.len() < pop_target && !session.exhausted() && attempts < pop_target * 64 + 256 {
            attempts += 1;
            session.count_proposals(1);
            let genome = random_genome(&mut rng, &lens);
            if seeds.iter().any(|s| s.genome == genome) {
                continue;
            }
            let candidate = Candidate::Grid(genome);
            match session.stage_candidate(&candidate) {
                StagedEval::Ready(evaluation) => {
                    seeds.push(ChildSlot { genome, candidate, slot: Slot::Ready(evaluation) })
                }
                StagedEval::Pending(i) => {
                    seeds.push(ChildSlot { genome, candidate, slot: Slot::Pending(i) })
                }
                StagedEval::Screened => {}
                StagedEval::Exhausted => break,
            }
        }
        let mut population: Vec<Member> = resolve(seeds, session.flush());

        // With an in-loop objective attached, selection pressure follows
        // the scalar merit instead of the Pareto fronts — the strategy
        // climbs SLA-feasible goodput per cm² (or whatever the objective
        // encodes) directly.
        let rank_members = |members: &[Member]| match sweeper.objective() {
            Some(objective) => objective_ranks(members, objective.as_ref()),
            None => grouped_ranks(members),
        };

        while !session.exhausted() && !population.is_empty() {
            let ranks = rank_members(&population);
            let mut children: Vec<ChildSlot> = Vec::with_capacity(pop_target);
            let mut stall = 0usize;
            while children.len() < pop_target && !session.exhausted() && stall < pop_target * 16 {
                session.count_proposals(1);
                let pa = tournament_pick(&mut rng, &population, &ranks, tournament);
                let pb = tournament_pick(&mut rng, &population, &ranks, tournament);
                let mut child =
                    crossover(&mut rng, &population[pa].genome, &population[pb].genome, &lens);
                mutate(&mut rng, &mut child, &lens, self.mutation_rate);
                let candidate = if self.snap == SnapPolicy::Continuous && rng.gen_bool(OFFGRID_RATE)
                {
                    offgrid_jitter(&mut rng, space, &child)
                } else {
                    Candidate::Grid(child)
                };
                let known = population.iter().any(|m| m.candidate == candidate)
                    || children.iter().any(|m| m.candidate == candidate);
                if known {
                    stall += 1;
                    continue;
                }
                match session.stage_candidate(&candidate) {
                    StagedEval::Ready(evaluation) => {
                        children.push(ChildSlot {
                            genome: child,
                            candidate,
                            slot: Slot::Ready(evaluation),
                        });
                        stall = 0;
                    }
                    StagedEval::Pending(i) => {
                        children.push(ChildSlot {
                            genome: child,
                            candidate,
                            slot: Slot::Pending(i),
                        });
                        stall = 0;
                    }
                    StagedEval::Screened => {
                        stall += 1;
                        continue;
                    }
                    StagedEval::Exhausted => break,
                }
            }
            // A generation that staged no new point is a stall, whether it
            // bred only revisits or nothing at all: breeding has stopped
            // finding new points, and its children are dropped. Reopen the
            // search with an immigrant the run has not seen, or stop once
            // the grid is covered.
            if !children.iter().any(|c| matches!(c.slot, Slot::Pending(_))) {
                let Some(genome) = session.unseen_genome(&mut rng) else {
                    break;
                };
                session.count_proposals(1);
                let candidate = Candidate::Grid(genome);
                if let SessionEval::Evaluated(evaluation) = session.evaluate_candidate(&candidate) {
                    population.push(Member { genome, candidate, evaluation });
                }
                continue;
            }
            // The generation's offspring evaluate as one parallel batch.
            population.extend(resolve(children, session.flush()));

            // Environmental selection: survivors by (front, scalar cost).
            let ranks = rank_members(&population);
            let mut order: Vec<usize> = (0..population.len()).collect();
            order.sort_by(|&a, &b| {
                ranks[a].cmp(&ranks[b]).then(
                    scalar(&population[a].evaluation).total_cmp(&scalar(&population[b].evaluation)),
                )
            });
            order.truncate(pop_target);
            population = order.into_iter().map(|i| population[i].clone()).collect();
        }
        session.finish(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusemax_model::{ConfigKind, ModelParams};
    use fusemax_workloads::TransformerConfig;

    fn space() -> DesignSpace {
        DesignSpace::new()
            .with_array_dims([16, 32, 64, 128, 256, 512])
            .with_kinds(ConfigKind::all())
            .with_workloads([TransformerConfig::bert()])
            .with_seq_lens([1 << 18])
            .with_buffer_scales([0.5, 1.0, 2.0])
    }

    #[test]
    fn respects_the_budget_exactly() {
        let sweeper = Sweeper::new(ModelParams::default());
        let outcome =
            GeneticSearch::new(3).search(&sweeper, &space(), SearchBudget::evaluations(20));
        assert_eq!(outcome.stats.requested, 20);
        assert_eq!(outcome.evaluations.len(), 20);
    }

    #[test]
    fn deterministic_per_seed() {
        let sweeper = Sweeper::new(ModelParams::default());
        let a = GeneticSearch::new(9).search(&sweeper, &space(), SearchBudget::evaluations(25));
        let b = GeneticSearch::new(9).search(&sweeper, &space(), SearchBudget::evaluations(25));
        for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
            assert_eq!(x.point, y.point);
        }
    }

    #[test]
    fn mutation_respects_axis_bounds() {
        let mut rng = StdRng::seed_from_u64(17);
        let lens = space().axis_lens();
        let mut genome = [0usize; 8];
        for _ in 0..500 {
            mutate(&mut rng, &mut genome, &lens, 1.0);
            for (axis, &v) in genome.iter().enumerate() {
                assert!(v < lens[axis], "axis {axis} escaped its range");
            }
        }
    }

    #[test]
    fn evolution_concentrates_on_the_strong_kinds() {
        // With Pareto-rank selection pressure, late evaluations should be
        // dominated by FuseMax kinds (the baselines lose every tournament
        // at equal scale).
        let sweeper = Sweeper::new(ModelParams::default());
        let outcome =
            GeneticSearch::new(1).search(&sweeper, &space(), SearchBudget::evaluations(60));
        let late = &outcome.evaluations[outcome.evaluations.len() / 2..];
        let fusemax = late.iter().filter(|e| e.point.kind.is_fusemax()).count();
        assert!(
            fusemax * 2 > late.len(),
            "only {fusemax}/{} late evaluations explored FuseMax kinds",
            late.len()
        );
    }
}
