//! The [`SearchStrategy`] contract and the budgeted evaluation session
//! every guided strategy drives its exploration through.
//!
//! A strategy never talks to the analytical model directly: it proposes
//! [`AxisIndex`] genomes to a [`Session`], which materializes the design
//! point, charges the budget, and routes the evaluation through the owning
//! [`Sweeper`]'s shared [`crate::EvalCache`] — so guided and exhaustive
//! runs reuse each other's results, and a guided run over an
//! already-swept space performs zero new model evaluations.

use crate::cache::PointKey;
use crate::objective::MeritScore;
use crate::space::{AxisIndex, Candidate, DesignPoint, DesignSpace};
use crate::sweep::{group_index, Evaluation, FrontierGroup, Sweeper};
use fusemax_telemetry::{Event, SearchEvent};
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much exploration a guided run may spend.
///
/// The budget counts **distinct design points requested** — whether the
/// shared cache already held them or the analytical model had to run.
/// Re-requesting a point the run has already seen is free (strategies
/// revisit neighborhoods constantly; charging them would punish the
/// search shape rather than the work).
///
/// `cheap` is the **separate multi-fidelity budget**: when a strategy
/// runs with screening enabled (`with_screening(true)`), candidates whose
/// closed-form [`Sweeper::lower_bound`] is already dominated by the
/// running frontier are rejected *without* a model evaluation and charged
/// here instead of against `evaluations` — the guided-order mirror of
/// [`Sweeper::sweep_pruned`]. Once `cheap` is spent the screen switches
/// off and candidates pay full price again, so a run can never stall on
/// free rejections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum number of distinct design points the run may request.
    pub evaluations: usize,
    /// Maximum number of candidates the lower-bound screen may reject
    /// for free (ignored when the strategy does not screen).
    pub cheap: usize,
}

impl SearchBudget {
    /// How many cheap lower-bound screenings each full evaluation buys by
    /// default. A bound is arithmetic on closed-form floors — orders of
    /// magnitude cheaper than the model — so the default is generous.
    const CHEAP_PER_EVALUATION: usize = 8;

    /// A budget of `n` distinct evaluations (and `8n` cheap screenings).
    pub fn evaluations(n: usize) -> Self {
        SearchBudget { evaluations: n, cheap: n.saturating_mul(Self::CHEAP_PER_EVALUATION) }
    }

    /// A budget covering `fraction` of `space` (rounded up, at least 1) —
    /// the acceptance suite's "25% of the exhaustive sweep" is
    /// `SearchBudget::fraction(&space, 0.25)`.
    pub fn fraction(space: &DesignSpace, fraction: f64) -> Self {
        let n = (space.len() as f64 * fraction).ceil().max(1.0) as usize;
        Self::evaluations(n)
    }

    /// Replaces the cheap screening budget.
    pub fn with_cheap(mut self, cheap: usize) -> Self {
        self.cheap = cheap;
        self
    }
}

/// Bookkeeping of one guided run.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Distinct design points requested (charged against the budget).
    pub requested: usize,
    /// Fresh analytical-model evaluations (shared-cache misses).
    pub evaluated: usize,
    /// Requests served by the shared [`crate::EvalCache`] without running
    /// the model — e.g. everything, after an exhaustive sweep warmed it.
    pub cache_hits: usize,
    /// Repeat requests for points this run had already seen (free).
    pub revisits: usize,
    /// Candidates rejected by the multi-fidelity lower-bound screen —
    /// their closed-form [`Sweeper::lower_bound`] was already dominated
    /// by the running frontier, so the model never ran. Charged against
    /// [`SearchBudget::cheap`], not against `evaluations`.
    pub screened: usize,
    /// Evaluation batches flushed (every flush, including single-point
    /// ones — the serial path is a sequence of 1-point batches).
    pub batches: usize,
    /// Flushes that evaluated ≥ 2 points at once — the batches that
    /// actually exploit the parallel workers. The batched genetic
    /// searcher issues at least one per generation (test-enforced).
    pub multi_point_batches: usize,
    /// Candidates the strategy drew: random samples, seed genomes, bred
    /// children, immigrants, annealing moves and restarts. Counts the
    /// draws that never reach the session too (a genetic child that
    /// duplicates a population member is dropped before staging), so
    /// `requested / proposals` is the share of the search's work that
    /// found a new point. Bounded per strategy by a budget-proportional
    /// constant (test-enforced).
    pub proposals: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl SearchStats {
    /// Merges `other` into `self` (chain-parallel strategies combine
    /// per-chain stats in chain order; `elapsed` is kept by the caller,
    /// which owns the wall clock).
    pub(crate) fn absorb(&mut self, other: &SearchStats) {
        self.requested += other.requested;
        self.evaluated += other.evaluated;
        self.cache_hits += other.cache_hits;
        self.revisits += other.revisits;
        self.screened += other.screened;
        self.batches += other.batches;
        self.multi_point_batches += other.multi_point_batches;
        self.proposals += other.proposals;
    }
}

/// Everything a guided run returns: the evaluations in request order, the
/// per-`(workload, seq_len)` Pareto frontiers, and the stats.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Which strategy produced this outcome.
    pub strategy: String,
    /// One evaluation per distinct requested point, in request order — so
    /// the prefix of length `k` is exactly what the strategy knew after
    /// spending `k` evaluations (the convergence harness relies on this).
    pub evaluations: Vec<Arc<Evaluation>>,
    /// Per-`(workload, seq_len)` Pareto frontiers, in first-seen order.
    pub frontiers: Vec<FrontierGroup>,
    /// Run bookkeeping.
    pub stats: SearchStats,
    /// The telemetry events this run emitted, in deterministic order
    /// (staging/fold order; chain-parallel strategies concatenate their
    /// chains' streams in chain order). Empty unless the sweeper carries
    /// an enabled [`fusemax_telemetry::Recorder`]. Ticks are each
    /// session's charged-evaluation count, so per-chain streams restart
    /// their clocks — the Perfetto exporter sorts by tick per track.
    pub events: Vec<Event>,
    /// The best design by the sweeper's in-loop [`crate::Objective`], if
    /// one was attached: scored in the serial fold as evaluations land,
    /// ties keeping the earlier design — so the winner is a deterministic
    /// function of the seed, bit-identical serially or in parallel.
    /// `None` when the sweeper carries no objective.
    pub objective_best: Option<(Arc<Evaluation>, MeritScore)>,
}

impl SearchOutcome {
    /// The frontier of one workload/length group, if the run touched it.
    pub fn frontier_for(&self, model: &str, seq_len: usize) -> Option<&FrontierGroup> {
        self.frontiers.iter().find(|g| g.model == model && g.seq_len == seq_len)
    }

    /// The union of all group frontiers.
    pub fn frontier_points(&self) -> Vec<&Arc<Evaluation>> {
        self.frontiers.iter().flat_map(|g| g.frontier.points()).collect()
    }
}

/// A guided exploration policy over a [`DesignSpace`].
///
/// Implementations are deterministic functions of their configuration
/// (including the seed): calling [`SearchStrategy::search`] twice with the
/// same sweeper state, space, and budget produces identical outcomes.
pub trait SearchStrategy {
    /// Short strategy name for reports (`"random"`, `"genetic"`, …).
    fn name(&self) -> &'static str;

    /// Explores `space` through `sweeper` until `budget` is spent (or the
    /// strategy converges), returning the evaluations and frontiers found.
    ///
    /// A run also ends once the grid is covered, so a budget larger than
    /// the space's distinct points never spins: the genetic searcher
    /// stops when no grid point is left unseen, and the other strategies
    /// stop at proposal caps proportional to their budget. Every run
    /// draws a number of [`SearchStats::proposals`] bounded by its budget
    /// (test-enforced).
    fn search(&self, sweeper: &Sweeper, space: &DesignSpace, budget: SearchBudget)
        -> SearchOutcome;
}

/// What a [`Session`] did with one proposed candidate.
#[derive(Debug)]
pub(crate) enum SessionEval {
    /// The candidate was evaluated (fresh, cached, or a free revisit).
    Evaluated(Arc<Evaluation>),
    /// The multi-fidelity screen rejected the candidate: its optimistic
    /// lower bound is already dominated by the running frontier, so it
    /// provably cannot join it. No model evaluation ran; the cheap budget
    /// was charged. The strategy should treat this like a rejected move.
    Screened,
    /// The evaluation budget is spent; no new points will be evaluated.
    Exhausted,
}

/// What a [`Session`] did with one *staged* candidate (the batched
/// counterpart of [`SessionEval`]): staging charges the budget and
/// classifies immediately — so a strategy's control flow (stall counters,
/// exhaustion checks, RNG consumption) is identical to the serial path —
/// but defers the model run to the next [`Session::flush`].
#[derive(Debug)]
pub(crate) enum StagedEval {
    /// Already evaluated this run (a free revisit); resolved immediately.
    Ready(Arc<Evaluation>),
    /// Charged and queued: `flush()` returns this batch's evaluations in
    /// staging order, and the wrapped index addresses this candidate's.
    Pending(usize),
    /// Rejected by the multi-fidelity screen (see
    /// [`SessionEval::Screened`]). Within a batch the screen tests
    /// against the frontier as of the last flush — deferred evaluations
    /// cannot tighten it mid-batch — which is the one documented
    /// divergence from the serial path's per-point frontier updates.
    Screened,
    /// The evaluation budget is spent.
    Exhausted,
}

/// The budgeted evaluation session shared by every strategy: deduplicates
/// requests, charges the budget, maintains running frontiers, screens
/// candidates through the closed-form lower bound when asked to, and
/// splits shared-cache reuse from fresh model evaluations in the stats.
pub(crate) struct Session<'a> {
    sweeper: &'a Sweeper,
    space: &'a DesignSpace,
    budget: usize,
    cheap_budget: usize,
    screening: bool,
    seen: HashMap<PointKey, Arc<Evaluation>>,
    rejected: HashSet<PointKey>,
    /// Charged-but-not-yet-evaluated points, in staging order.
    pending: Vec<DesignPoint>,
    /// Key → index into `pending`, so same-batch re-proposals dedup to
    /// one charge.
    pending_index: HashMap<PointKey, usize>,
    evaluations: Vec<Arc<Evaluation>>,
    frontiers: Vec<FrontierGroup>,
    /// Running in-loop objective winner (see
    /// [`SearchOutcome::objective_best`]).
    objective_best: Option<(Arc<Evaluation>, MeritScore)>,
    stats: SearchStats,
    start: Instant,
    /// Locally-buffered telemetry (empty when the sweeper's recorder is
    /// disabled). Buffering instead of emitting inline is what keeps the
    /// stream deterministic under chain parallelism: every session owns
    /// its own buffer, and streams merge in `absorb_outcome` call order.
    events: Vec<Event>,
    tracing: bool,
    /// Whether `finish` publishes the buffer to the sweeper's recorder.
    /// Chain sessions are buffered (`false`): only the root session
    /// publishes, once, after the deterministic merge.
    publish: bool,
    /// Grid enumeration index below which every point is known to this
    /// run (see [`Session::unseen_genome`]). Knowledge only grows, so
    /// the scan never revisits a prefix.
    grid_cursor: usize,
}

/// How many uniform draws [`Session::unseen_genome`] tries before it
/// scans the grid: while much of the grid is unknown a draw almost always
/// lands on an unseen point, so the scan only runs near coverage.
const UNSEEN_DRAWS: usize = 64;

impl<'a> Session<'a> {
    /// Opens a session. The effective budget is clamped to the space size
    /// (a space can never yield more distinct points than it holds).
    pub(crate) fn new(sweeper: &'a Sweeper, space: &'a DesignSpace, budget: SearchBudget) -> Self {
        Session {
            sweeper,
            space,
            budget: budget.evaluations.min(space.len()),
            cheap_budget: budget.cheap,
            screening: false,
            seen: HashMap::new(),
            rejected: HashSet::new(),
            pending: Vec::new(),
            pending_index: HashMap::new(),
            evaluations: Vec::new(),
            frontiers: Vec::new(),
            objective_best: None,
            stats: SearchStats::default(),
            start: Instant::now(),
            events: Vec::new(),
            tracing: sweeper.recorder().is_enabled(),
            publish: true,
            grid_cursor: 0,
        }
    }

    /// Marks this session as a *chain* session: its events stay buffered
    /// in the outcome and are **not** published to the recorder at
    /// finish — the root session absorbs and publishes them after the
    /// deterministic chain-order merge.
    pub(crate) fn buffered(mut self) -> Self {
        self.publish = false;
        self
    }

    /// Buffers a search event at the current charged-evaluation tick.
    fn trace(&mut self, kind: SearchEvent) {
        if self.tracing {
            self.events.push(Event::search(self.stats.requested as u64, kind));
        }
    }

    /// Marks this session's stream as belonging to annealing chain
    /// `chain`: chain streams merge in chain order, so the marker at the
    /// head of each buffer partitions the merged stream into per-chain
    /// segments deterministically.
    pub(crate) fn mark_chain(&mut self, chain: u64) {
        self.trace(SearchEvent::ChainStart { chain });
    }

    /// Lifts the space-size clamp on the evaluation budget. Off-grid
    /// ([`crate::search::SnapPolicy::Continuous`]) runs can evaluate more
    /// distinct designs than the grid enumerates, so for them the clamp
    /// is wrong, not conservative.
    pub(crate) fn without_space_clamp(mut self, budget: SearchBudget) -> Self {
        self.budget = budget.evaluations;
        self
    }

    /// Enables the multi-fidelity lower-bound screen (see
    /// [`SessionEval::Screened`]).
    pub(crate) fn with_screening(mut self, screening: bool) -> Self {
        self.screening = screening;
        self
    }

    /// The sweeper this session evaluates through (strategies reach its
    /// in-loop objective here).
    pub(crate) fn sweeper(&self) -> &'a Sweeper {
        self.sweeper
    }

    /// `true` once the budget is spent: further *new* points are refused.
    pub(crate) fn exhausted(&self) -> bool {
        self.stats.requested >= self.budget
    }

    /// Distinct evaluations still affordable.
    pub(crate) fn remaining(&self) -> usize {
        self.budget - self.stats.requested
    }

    /// Distinct evaluations charged so far.
    #[cfg(test)]
    pub(crate) fn requested(&self) -> usize {
        self.stats.requested
    }

    /// Counts `n` candidates the strategy drew ([`SearchStats::proposals`]).
    /// Pure bookkeeping: it never touches the RNG or the budget.
    pub(crate) fn count_proposals(&mut self, n: usize) {
        self.stats.proposals += n;
    }

    /// `true` when this run has seen, screened or staged the point `key`
    /// names — anything that re-proposing it would only revisit.
    fn knows(&self, key: &PointKey) -> bool {
        self.seen.contains_key(key)
            || self.rejected.contains(key)
            || self.pending_index.contains_key(key)
    }

    /// A grid genome whose point this run has not seen, screened or
    /// staged: up to 64 uniform draws from `rng`, then one pass over the
    /// rest of the grid in enumeration order. `None` once every grid
    /// point is known — the grid is covered, and a strategy that needs a
    /// new point should stop. Genomes are compared by their points'
    /// keys, so an axis that repeats a value cannot hide a covered grid.
    ///
    /// Across a run the scan visits each grid index at most once: the
    /// points below the cursor were known when it passed them, and a
    /// known point stays known.
    pub(crate) fn unseen_genome(&mut self, rng: &mut impl Rng) -> Option<AxisIndex> {
        let lens = self.space.axis_lens();
        for _ in 0..UNSEEN_DRAWS {
            let genome = random_genome(rng, &lens);
            if !self.knows(&PointKey::of(&self.space.point_at(genome))) {
                return Some(genome);
            }
        }
        while self.grid_cursor < self.space.len() {
            let genome = grid_genome(self.grid_cursor, &lens);
            if !self.knows(&PointKey::of(&self.space.point_at(genome))) {
                return Some(genome);
            }
            self.grid_cursor += 1;
        }
        None
    }

    /// Evaluates the design point addressed by `genome` — the on-grid
    /// shorthand for [`Session::evaluate_candidate`]. Returns `None` when
    /// the budget is exhausted *or* the screen rejected the point (with
    /// screening off — every pre-screening caller — only exhaustion).
    #[cfg(test)]
    pub(crate) fn evaluate(&mut self, genome: AxisIndex) -> Option<Arc<Evaluation>> {
        match self.evaluate_candidate(&Candidate::Grid(genome)) {
            SessionEval::Evaluated(e) => Some(e),
            SessionEval::Screened | SessionEval::Exhausted => None,
        }
    }

    /// Evaluates `candidate` immediately: the serial path, equivalent to
    /// staging it and flushing a 1-point batch. Revisits are free and
    /// always served; a new point is screened if screening is on (cheap
    /// budget permitting), then evaluated through the shared cache and
    /// charged against the budget.
    ///
    /// Any candidates already staged are flushed along with this one (the
    /// session maintains one evaluation order, so an immediate request
    /// cannot jump the queue).
    pub(crate) fn evaluate_candidate(&mut self, candidate: &Candidate) -> SessionEval {
        match self.stage_candidate(candidate) {
            StagedEval::Ready(e) => SessionEval::Evaluated(e),
            StagedEval::Screened => SessionEval::Screened,
            StagedEval::Exhausted => SessionEval::Exhausted,
            StagedEval::Pending(i) => {
                let batch = self.flush();
                SessionEval::Evaluated(Arc::clone(&batch[i]))
            }
        }
    }

    /// Stages `candidate` for the next [`Session::flush`]: deduplicates
    /// against everything this run has seen (revisits are free), screens
    /// through the closed-form lower bound when enabled, and charges the
    /// budget — all immediately and in proposal order, so seeded control
    /// flow is independent of when the batch is flushed. Only the model
    /// run itself is deferred.
    pub(crate) fn stage_candidate(&mut self, candidate: &Candidate) -> StagedEval {
        let point = self.space.materialize(candidate);
        let key = PointKey::of(&point);
        if let Some(known) = self.seen.get(&key) {
            self.stats.revisits += 1;
            return StagedEval::Ready(Arc::clone(known));
        }
        if self.rejected.contains(&key) {
            // Re-proposing an already-screened point is free, like any
            // other revisit — and still a rejection.
            self.stats.revisits += 1;
            return StagedEval::Screened;
        }
        if let Some(&i) = self.pending_index.get(&key) {
            // Same-batch duplicate: one charge, one evaluation.
            self.stats.revisits += 1;
            return StagedEval::Pending(i);
        }
        if self.exhausted() {
            return StagedEval::Exhausted;
        }
        // Screen only points the model would actually run for: cache hits
        // are free anyway, and `sweep_pruned` orders its checks the same
        // way. Screening against the *running* frontier is sound exactly
        // as pruning is: a candidate whose optimistic bound is already
        // dominated can never enter the final frontier. (Evaluations
        // pending in this batch are not in the frontier yet; the screen
        // sees the state as of the last flush.)
        if self.screening
            && self.stats.screened < self.cheap_budget
            && !self.sweeper.cache().contains(&key)
        {
            let group = group_index(&mut self.frontiers, point.workload.name, point.seq_len);
            if !self.frontiers[group].frontier.admits(&self.sweeper.lower_bound(&point)) {
                self.stats.screened += 1;
                self.rejected.insert(key);
                self.trace(SearchEvent::ScreenedOut);
                return StagedEval::Screened;
            }
        }
        self.stats.requested += 1;
        self.trace(SearchEvent::Staged);
        let i = self.pending.len();
        self.pending_index.insert(key, i);
        self.pending.push(point);
        StagedEval::Pending(i)
    }

    /// Evaluates everything staged since the last flush — cache misses on
    /// all the sweeper's cores — and folds the results into the session in
    /// staging order (seen set, per-group frontiers, the request-ordered
    /// evaluation list, fresh-vs-cached stats). Returns the batch's
    /// evaluations so callers can resolve their [`StagedEval::Pending`]
    /// indices. Deterministic by construction: classification and charging
    /// happened at staging time, evaluations are pure, and the rayon stub
    /// collects in input order — so thread count never leaks into results.
    pub(crate) fn flush(&mut self) -> Vec<Arc<Evaluation>> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let batch = std::mem::take(&mut self.pending);
        self.pending_index.clear();
        self.stats.batches += 1;
        if batch.len() >= 2 {
            self.stats.multi_point_batches += 1;
        }
        self.trace(SearchEvent::FlushBatch { size: batch.len() });
        let results = self.sweeper.evaluate_many(&batch);
        let mut out = Vec::with_capacity(results.len());
        // This fold runs serially in staging order whatever the worker
        // count, so the hit/miss classification (the `fresh` bit) and the
        // frontier-insert events below are deterministic — never emit
        // them from inside the concurrent cache.
        for (evaluation, fresh) in results {
            if fresh {
                self.stats.evaluated += 1;
                self.trace(SearchEvent::CacheMiss);
            } else {
                self.stats.cache_hits += 1;
                self.trace(SearchEvent::CacheHit);
            }
            self.seen.insert(PointKey::of(&evaluation.point), Arc::clone(&evaluation));
            let point = &evaluation.point;
            let group = group_index(&mut self.frontiers, point.workload.name, point.seq_len);
            let admitted = self.frontiers[group].frontier.insert(Arc::clone(&evaluation));
            if self.tracing {
                let frontier_len = self.frontiers[group].frontier.len();
                self.trace(SearchEvent::FrontierInsert { admitted, frontier_len });
            }
            // In-loop objective scoring lives here, in the serial fold:
            // the score is a pure function of the evaluation and the fold
            // runs in staging order whatever the worker count, so the
            // running best is part of the replay contract. Ties keep the
            // earlier design (strictly-better replaces).
            if let Some(objective) = self.sweeper.objective() {
                let score = objective.score(&evaluation);
                let better = match &self.objective_best {
                    Some((_, best)) => score.beats(best),
                    None => true,
                };
                if better {
                    self.objective_best = Some((Arc::clone(&evaluation), score));
                }
            }
            self.evaluations.push(Arc::clone(&evaluation));
            out.push(evaluation);
        }
        out
    }

    /// Evaluates `candidates` as one batch: stages each in input order
    /// (deduplicating keys, screening, charging the budget exactly as the
    /// serial path would), flushes the misses through the parallel
    /// workers, and returns one [`SessionEval`] per input candidate. This
    /// is the native entry point for population-at-a-time strategies and
    /// for future batch consumers (coordinate-descent refinement,
    /// serving-objective search).
    pub(crate) fn evaluate_batch(&mut self, candidates: &[Candidate]) -> Vec<SessionEval> {
        let staged: Vec<StagedEval> = candidates.iter().map(|c| self.stage_candidate(c)).collect();
        let batch = self.flush();
        staged
            .into_iter()
            .map(|s| match s {
                StagedEval::Ready(e) => SessionEval::Evaluated(e),
                StagedEval::Pending(i) => SessionEval::Evaluated(Arc::clone(&batch[i])),
                StagedEval::Screened => SessionEval::Screened,
                StagedEval::Exhausted => SessionEval::Exhausted,
            })
            .collect()
    }

    /// Closes the session into an outcome, flushing anything still
    /// staged. Root sessions publish their buffered event stream to the
    /// sweeper's recorder here — exactly once, after every merge — so
    /// the recorder sees one deterministic stream per run.
    pub(crate) fn finish(mut self, strategy: &str) -> SearchOutcome {
        self.flush();
        self.stats.elapsed = self.start.elapsed();
        if self.publish {
            self.sweeper.recorder().publish(self.events.iter().cloned());
        }
        SearchOutcome {
            strategy: strategy.to_string(),
            evaluations: self.evaluations,
            frontiers: self.frontiers,
            stats: self.stats,
            events: self.events,
            objective_best: self.objective_best,
        }
    }

    /// Folds a finished chain outcome into this session, in call order:
    /// the chain-parallel annealer runs one independent session per
    /// `(workload, seq_len)` group on pre-split budgets and RNG streams,
    /// then merges the outcomes back deterministically.
    pub(crate) fn absorb_outcome(&mut self, outcome: SearchOutcome) {
        self.stats.absorb(&outcome.stats);
        self.events.extend(outcome.events);
        // Chains merge in call order; a later chain's winner replaces
        // only on a strictly better score, mirroring the fold's tie rule.
        if let Some((evaluation, score)) = outcome.objective_best {
            let better = match &self.objective_best {
                Some((_, best)) => score.beats(best),
                None => true,
            };
            if better {
                self.objective_best = Some((evaluation, score));
            }
        }
        self.evaluations.extend(outcome.evaluations.iter().cloned());
        for group in outcome.frontiers {
            debug_assert!(
                !self
                    .frontiers
                    .iter()
                    .any(|g| g.model == group.model && g.seq_len == group.seq_len),
                "chains are per-group; merged groups must be disjoint"
            );
            self.frontiers.push(group);
        }
        for evaluation in outcome.evaluations {
            self.seen.insert(PointKey::of(&evaluation.point), evaluation);
        }
    }
}

/// A uniformly random genome over the space's axis cardinalities.
///
/// The policy axis (slot 6) and the fleet axis (slot 7) are drawn only
/// when they actually offer a choice: the seeded RNG consumes one step
/// per `gen_range` call even on a single-value axis, so an unconditional
/// draw would shift every downstream sample and change the pre-existing
/// seeded trajectories. Spaces with singleton policy/fleet axes
/// therefore reproduce the historical streams exactly.
pub(crate) fn random_genome(rng: &mut impl Rng, lens: &AxisIndex) -> AxisIndex {
    let mut genome = [0usize; 8];
    for (slot, &n) in genome.iter_mut().zip(lens.iter()).take(6) {
        *slot = rng.gen_range(0..n);
    }
    for axis in 6..8 {
        if lens[axis] > 1 {
            genome[axis] = rng.gen_range(0..lens[axis]);
        }
    }
    genome
}

/// The genome at position `index` of [`DesignSpace::points`]'s
/// enumeration order (the last axis varies fastest).
fn grid_genome(mut index: usize, lens: &AxisIndex) -> AxisIndex {
    let mut genome = [0usize; 8];
    for (slot, &n) in genome.iter_mut().zip(lens.iter()).rev() {
        *slot = index % n;
        index /= n;
    }
    genome
}

/// A weighted log-scalarization of a (positive) objective vector:
/// `Σ wᵢ·ln(objᵢ)`. Monotone per objective, scale-free across objectives
/// (halving latency is worth the same wherever it happens), so it makes a
/// stable annealing energy and a reasonable rank tie-break.
pub(crate) fn weighted_log_cost(objectives: &[f64; 3], weights: &[f64; 3]) -> f64 {
    objectives.iter().zip(weights.iter()).map(|(o, w)| w * o.max(f64::MIN_POSITIVE).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusemax_model::{ConfigKind, ModelParams};
    use fusemax_workloads::TransformerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> DesignSpace {
        DesignSpace::new()
            .with_array_dims([64, 128, 256])
            .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
            .with_workloads([TransformerConfig::bert()])
            .with_seq_lens([1 << 14])
    }

    #[test]
    fn budget_fraction_rounds_up() {
        let s = space();
        assert_eq!(SearchBudget::fraction(&s, 0.25).evaluations, 2);
        assert_eq!(SearchBudget::fraction(&s, 1e-9).evaluations, 1);
        assert_eq!(SearchBudget::fraction(&s, 1.0).evaluations, 6);
    }

    #[test]
    fn budgets_carry_a_separate_cheap_allowance() {
        let b = SearchBudget::evaluations(10);
        assert_eq!(b.cheap, 80, "default: 8 cheap screenings per evaluation");
        assert_eq!(b.with_cheap(3).cheap, 3);
        assert_eq!(SearchBudget::fraction(&space(), 1.0).cheap, 48);
    }

    #[test]
    fn screening_rejects_dominated_candidates_without_charge() {
        let sweeper = Sweeper::new(ModelParams::default());
        let s = space();
        let mut session =
            Session::new(&sweeper, &s, SearchBudget::evaluations(6)).with_screening(true);
        // Evaluate the strongest design first: +Binding at 256 dominates
        // every FLAT candidate's optimistic bound at smaller-or-equal
        // area... establish the frontier, then propose a FLAT point whose
        // bound is dominated.
        assert!(session.evaluate([0, 0, 1, 0, 0, 0, 0, 0]).is_some(), "+Binding @ 64");
        assert!(session.evaluate([0, 0, 1, 1, 0, 0, 0, 0]).is_some(), "+Binding @ 128");
        let before = session.requested();
        let verdict = session.evaluate_candidate(&Candidate::Grid([0, 0, 0, 0, 0, 0, 0, 0]));
        match verdict {
            SessionEval::Screened => {
                assert_eq!(session.requested(), before, "screening must not charge the budget");
                // Re-proposing the rejected point is a free revisit.
                let again = session.evaluate_candidate(&Candidate::Grid([0, 0, 0, 0, 0, 0, 0, 0]));
                assert!(matches!(again, SessionEval::Screened));
                let outcome = session.finish("test");
                assert_eq!(outcome.stats.screened, 1);
                assert_eq!(outcome.stats.revisits, 1);
            }
            // The bound may legitimately admit the FLAT point (bounds are
            // optimistic); then it must have been evaluated and charged.
            SessionEval::Evaluated(_) => assert_eq!(session.requested(), before + 1),
            SessionEval::Exhausted => panic!("budget cannot be exhausted after 2 of 6"),
        }
    }

    #[test]
    fn exhausted_cheap_budget_turns_the_screen_off() {
        let sweeper = Sweeper::new(ModelParams::default());
        let s = space();
        let mut session = Session::new(&sweeper, &s, SearchBudget::evaluations(6).with_cheap(0))
            .with_screening(true);
        // cheap = 0: nothing can be screened, every candidate pays full
        // price exactly as with screening off.
        for di in 0..3 {
            for ki in 0..2 {
                assert!(session.evaluate([0, 0, ki, di, 0, 0, 0, 0]).is_some());
            }
        }
        let outcome = session.finish("test");
        assert_eq!(outcome.stats.screened, 0);
        assert_eq!(outcome.stats.requested, 6);
    }

    #[test]
    fn unclamped_sessions_accept_more_than_the_space_size() {
        let sweeper = Sweeper::new(ModelParams::default());
        let s = space();
        let budget = SearchBudget::evaluations(50);
        let session = Session::new(&sweeper, &s, budget).without_space_clamp(budget);
        assert_eq!(session.remaining(), 50, "off-grid runs may exceed the grid size");
    }

    #[test]
    fn session_charges_distinct_points_only() {
        let sweeper = Sweeper::new(ModelParams::default());
        let s = space();
        let mut session = Session::new(&sweeper, &s, SearchBudget::evaluations(3));
        assert!(session.evaluate([0, 0, 0, 0, 0, 0, 0, 0]).is_some());
        assert!(session.evaluate([0, 0, 0, 0, 0, 0, 0, 0]).is_some(), "revisits are free");
        assert!(session.evaluate([0, 0, 1, 1, 0, 0, 0, 0]).is_some());
        assert!(session.evaluate([0, 0, 1, 2, 0, 0, 0, 0]).is_some());
        assert!(session.exhausted());
        assert!(session.evaluate([0, 0, 0, 1, 0, 0, 0, 0]).is_none(), "budget refuses new points");
        assert!(session.evaluate([0, 0, 0, 0, 0, 0, 0, 0]).is_some(), "revisits still served");
        let outcome = session.finish("test");
        assert_eq!(outcome.stats.requested, 3);
        assert_eq!(outcome.stats.evaluated, 3);
        assert_eq!(outcome.stats.revisits, 2);
        assert_eq!(outcome.evaluations.len(), 3);
        assert_eq!(outcome.frontiers.len(), 1);
    }

    #[test]
    fn session_reuses_a_warm_shared_cache() {
        let sweeper = Sweeper::new(ModelParams::default());
        let s = space();
        sweeper.sweep(&s);
        let mut session = Session::new(&sweeper, &s, SearchBudget::evaluations(6));
        for ki in 0..2 {
            for di in 0..3 {
                session.evaluate([0, 0, ki, di, 0, 0, 0, 0]);
            }
        }
        let outcome = session.finish("test");
        assert_eq!(outcome.stats.requested, 6);
        assert_eq!(outcome.stats.evaluated, 0, "everything must come from the shared cache");
        assert_eq!(outcome.stats.cache_hits, 6);
    }

    #[test]
    fn budget_is_clamped_to_the_space() {
        let sweeper = Sweeper::new(ModelParams::default());
        let s = space();
        let session = Session::new(&sweeper, &s, SearchBudget::evaluations(1_000_000));
        assert_eq!(session.remaining(), 6);
    }

    #[test]
    fn grid_genomes_follow_the_enumeration_order() {
        let s = space().with_buffer_scales([0.5, 1.0]);
        let lens = s.axis_lens();
        for (i, point) in s.points().iter().enumerate() {
            assert_eq!(&s.point_at(grid_genome(i, &lens)), point, "index {i}");
        }
    }

    #[test]
    fn unseen_genomes_cover_each_distinct_point_once_then_run_out() {
        // Six grid cells, four distinct points: both dim-64 cells of a kind
        // materialize one point. Screened points count as known too.
        let s = space().with_array_dims([64, 64, 256]);
        let sweeper = Sweeper::new(ModelParams::default());
        let mut session =
            Session::new(&sweeper, &s, SearchBudget::evaluations(6)).with_screening(true);
        let mut rng = StdRng::seed_from_u64(3);
        let mut found = HashSet::new();
        while let Some(genome) = session.unseen_genome(&mut rng) {
            assert!(found.insert(PointKey::of(&s.point_at(genome))), "{genome:?} was known");
            session.evaluate_candidate(&Candidate::Grid(genome));
        }
        assert_eq!(found.len(), 4);
        assert_eq!(session.requested() + session.stats.screened, 4);
    }

    #[test]
    fn random_genomes_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let lens = space().axis_lens();
        for _ in 0..200 {
            let g = random_genome(&mut rng, &lens);
            for (i, &v) in g.iter().enumerate() {
                assert!(v < lens[i]);
            }
        }
    }

    #[test]
    fn log_cost_is_monotone_and_weighted() {
        let w = [1.0, 1.0, 1.0];
        assert!(weighted_log_cost(&[1.0, 2.0, 3.0], &w) < weighted_log_cost(&[1.0, 2.0, 4.0], &w));
        let latency_only = [0.0, 1.0, 0.0];
        assert_eq!(weighted_log_cost(&[9.0, 1.0, 9.0], &latency_only), 0.0);
    }
}
