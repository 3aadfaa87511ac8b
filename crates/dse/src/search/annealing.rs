//! Simulated annealing over the continuous-knob relaxation: a Metropolis
//! walker in log₂(array dim) × log₂(buffer scale) space (plus categorical
//! kind/frequency flips), snapping each proposal to the grid for
//! evaluation.

use crate::objective::Objective;
use crate::search::relax::{Relaxation, SnapPolicy};
use crate::search::strategy::{
    weighted_log_cost, SearchBudget, SearchOutcome, SearchStrategy, Session, SessionEval,
};
use crate::space::{arch_for, Candidate, DesignSpace};
use crate::sweep::{Evaluation, Sweeper};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Simulated annealing over the continuous-knob relaxation.
///
/// One independent chain runs per `(workload, seq_len)` group (objectives
/// are only comparable within a group), splitting the budget evenly. Each
/// chain walks the [`Relaxation`]'s continuous knobs with Gaussian-ish
/// steps, flips the categorical kind/frequency axes occasionally, and
/// accepts uphill moves with probability `exp(-Δ/T)` under a geometric
/// cooling schedule. The chain energy is a *randomly weighted*
/// log-scalarization, re-drawn on every restart, so successive restarts
/// pull the walker toward different corners of the Pareto surface instead
/// of repeatedly converging to one compromise point.
///
/// Under the default [`SnapPolicy::Grid`] every proposal snaps to the
/// nearest grid point before evaluation (the PR-2 behavior). Under
/// [`SnapPolicy::Continuous`] proposals are evaluated **off-grid** at
/// integer array-dimension / byte buffer resolution
/// ([`Candidate::OffGrid`]): the walker can refine *between* grid values
/// and routinely finds designs that dominate grid frontier points — e.g.
/// a buffer fractionally smaller than stock at identical latency.
/// [`SimulatedAnnealing::with_screening`] adds the multi-fidelity
/// lower-bound filter: proposals whose closed-form optimistic bound is
/// already dominated by the running frontier are rejected without paying
/// for the model, charged to [`SearchBudget::cheap`] instead.
///
/// Deterministic per seed; all evaluations flow through the shared
/// [`crate::EvalCache`].
///
/// # Example
///
/// ```
/// use fusemax_dse::search::{SearchBudget, SearchStrategy, SimulatedAnnealing};
/// use fusemax_dse::{DesignSpace, Sweeper};
/// use fusemax_model::{ConfigKind, ModelParams};
///
/// let space = DesignSpace::new().with_kinds(ConfigKind::all());
/// let sweeper = Sweeper::new(ModelParams::default());
/// let outcome =
///     SimulatedAnnealing::new(7).search(&sweeper, &space, SearchBudget::fraction(&space, 0.25));
/// assert!(!outcome.frontier_points().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    seed: u64,
    initial_temp: f64,
    cooling: f64,
    step_octaves: f64,
    snap: SnapPolicy,
    screening: bool,
    clock_bw: bool,
}

impl SimulatedAnnealing {
    /// An annealer with the default schedule: T₀ = 1.0, cooling 0.9 per
    /// accepted-or-rejected move, steps of up to ±1 octave per knob,
    /// snap-to-grid evaluation, no screening.
    pub fn new(seed: u64) -> Self {
        SimulatedAnnealing {
            seed,
            initial_temp: 1.0,
            cooling: 0.9,
            step_octaves: 1.0,
            snap: SnapPolicy::Grid,
            screening: false,
            clock_bw: false,
        }
    }

    /// Additionally relaxes the clock and DRAM-bandwidth knobs
    /// ([`Relaxation::freq_bounds`] / [`Relaxation::bw_bounds`]) under
    /// [`SnapPolicy::Continuous`]: the walker carries continuous
    /// log₂(Hz) and log₂(bytes/s) coordinates and proposes
    /// [`Candidate::OffGrid`] designs with concrete `frequency_hz` /
    /// `dram_bw_bytes_per_sec` overrides, so a continuous run can trade
    /// clock rate against memory bandwidth the way it already trades
    /// array size against buffer capacity. No effect under
    /// [`SnapPolicy::Grid`].
    pub fn with_clock_bw_relaxation(mut self, clock_bw: bool) -> Self {
        self.clock_bw = clock_bw;
        self
    }

    /// Replaces the snap policy: [`SnapPolicy::Continuous`] evaluates
    /// proposals off-grid instead of snapping them to the grid.
    pub fn with_snap_policy(mut self, snap: SnapPolicy) -> Self {
        self.snap = snap;
        self
    }

    /// Enables the multi-fidelity lower-bound screen: provably-dominated
    /// proposals are rejected against [`SearchBudget::cheap`] instead of
    /// costing a model evaluation.
    pub fn with_screening(mut self, screening: bool) -> Self {
        self.screening = screening;
        self
    }

    /// Replaces the initial temperature.
    pub fn with_initial_temp(mut self, temp: f64) -> Self {
        assert!(temp > 0.0, "temperature must be positive");
        self.initial_temp = temp;
        self
    }

    /// Replaces the geometric cooling factor (`0 < cooling < 1`).
    pub fn with_cooling(mut self, cooling: f64) -> Self {
        assert!((0.0..1.0).contains(&cooling) && cooling > 0.0, "cooling must be in (0, 1)");
        self.cooling = cooling;
        self
    }

    /// Replaces the maximum continuous step, in octaves.
    pub fn with_step_octaves(mut self, octaves: f64) -> Self {
        assert!(octaves > 0.0, "step size must be positive");
        self.step_octaves = octaves;
        self
    }
}

/// The walker's state: continuous coordinates plus categorical indices.
/// The clock/bandwidth coordinates are carried always but only drawn,
/// stepped, and emitted when the strategy's clock/bandwidth relaxation is
/// on — keeping the RNG stream (and therefore every seeded result) of
/// runs without it unchanged. The scheduler-policy index follows the same
/// rule: it is only drawn and flipped when the space carries more than
/// one policy, so singleton-policy runs reproduce the pre-policy
/// trajectories bit-for-bit — and the fleet index follows the policy
/// rule in turn.
#[derive(Debug, Clone, Copy)]
struct WalkerState {
    dim_log2: f64,
    buf_log2: f64,
    kind_idx: usize,
    freq_idx: usize,
    policy_idx: usize,
    fleet_idx: usize,
    freq_log2: f64,
    bw_log2: f64,
    clock_bw: bool,
}

impl WalkerState {
    /// The candidate this state proposes for fixed workload/length: the
    /// nearest grid point under [`SnapPolicy::Grid`], the off-grid design
    /// at integer/byte resolution under [`SnapPolicy::Continuous`].
    fn candidate(
        &self,
        space: &DesignSpace,
        relax: &Relaxation,
        snap: SnapPolicy,
        wi: usize,
        si: usize,
    ) -> Candidate {
        match snap {
            SnapPolicy::Grid => Candidate::Grid([
                wi,
                si,
                self.kind_idx,
                relax.snap_dim(self.dim_log2),
                self.freq_idx,
                relax.snap_buffer(self.buf_log2),
                self.policy_idx,
                self.fleet_idx,
            ]),
            SnapPolicy::Continuous => {
                let array_dim = relax.continuous_dim(self.dim_log2);
                let base = arch_for(space.kinds()[self.kind_idx], array_dim).global_buffer_bytes;
                let (frequency_hz, dram_bw_bytes_per_sec) = if self.clock_bw {
                    (
                        Some(relax.continuous_frequency_hz(self.freq_log2)),
                        Some(relax.continuous_dram_bw(self.bw_log2)),
                    )
                } else {
                    (None, None)
                };
                Candidate::OffGrid {
                    workload: wi,
                    seq_len: si,
                    kind: self.kind_idx,
                    frequency: self.freq_idx,
                    array_dim,
                    buffer_bytes: relax.continuous_buffer_bytes(base, self.buf_log2),
                    frequency_hz,
                    dram_bw_bytes_per_sec,
                    policy: self.policy_idx,
                    fleet: self.fleet_idx,
                }
            }
        }
    }
}

/// Random simplex weights: three positive weights summing to 3 (so the
/// balanced case is `[1, 1, 1]`), drawn per restart.
fn random_weights(rng: &mut StdRng) -> [f64; 3] {
    let mut w = [0.0f64; 3];
    let mut total = 0.0;
    for slot in &mut w {
        // Offset away from zero so no objective is ever fully ignored.
        *slot = 0.15 + rng.gen_range(0.0..1.0);
        total += *slot;
    }
    for slot in &mut w {
        *slot *= 3.0 / total;
    }
    w
}

/// The chain energy of one evaluation under `weights`.
fn energy(evaluation: &Evaluation, weights: &[f64; 3]) -> f64 {
    weighted_log_cost(&[evaluation.area_cm2, evaluation.latency_s, evaluation.energy_j], weights)
}

/// The chain energy under an in-loop [`Objective`]: minimizing energy
/// maximizes the merit, and every infeasible design sits a constant
/// plateau above every feasible one — so the walker first descends
/// *toward* feasibility (higher merit among the infeasible, e.g.
/// less-negative tail latency), then climbs merit inside the feasible
/// region.
fn objective_energy(objective: &dyn Objective, evaluation: &Evaluation) -> f64 {
    let score = objective.score(evaluation);
    if score.feasible {
        -score.merit
    } else {
        1e9 - score.merit
    }
}

/// A chain's move cap for a budget share of `share` distinct points:
/// small per-group subspaces can be fully explored long before the share
/// is spent, so the walker stops after 32 moves per point (plus 64)
/// instead of spinning. Saturating, because a continuous run does not
/// clamp its budget to the grid and its share may be `usize::MAX`.
fn move_cap(share: usize) -> usize {
    share.saturating_mul(32).saturating_add(64)
}

impl SearchStrategy for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "annealing"
    }

    fn search(
        &self,
        sweeper: &Sweeper,
        space: &DesignSpace,
        budget: SearchBudget,
    ) -> SearchOutcome {
        let mut session = Session::new(sweeper, space, budget).with_screening(self.screening);
        if self.snap == SnapPolicy::Continuous {
            // Off-grid runs can evaluate more distinct designs than the
            // grid enumerates; the space-size clamp would be wrong.
            session = session.without_space_clamp(budget);
        }
        if space.is_empty() {
            return session.finish(self.name());
        }
        let relax = Relaxation::new(space);
        let [n_workloads, n_seq_lens, ..] = space.axis_lens();

        // One chain per distinct `(workload name, seq_len)`, the key
        // frontier groups use: an axis that repeats a value names one
        // group twice, and two chains on one group would each return a
        // frontier for it. Each group keeps its first index pair.
        let group_of =
            |(wi, si): (usize, usize)| (space.workloads()[wi].name, space.seq_lens()[si]);
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for pair in (0..n_workloads).flat_map(|wi| (0..n_seq_lens).map(move |si| (wi, si))) {
            if !groups.iter().any(|&g| group_of(g) == group_of(pair)) {
                groups.push(pair);
            }
        }

        // Pre-split the budget (and the cheap screening budget) evenly
        // across the chains, and give every chain its own seeded RNG
        // stream — chain 0 keeps the strategy seed, so single-group runs
        // reproduce the serial-era trajectories bit-for-bit. Pre-splitting
        // is what lets the chains run on parallel workers while staying
        // bit-identical to running them one after another: no chain's
        // accepted-state sequence can depend on another chain's timing.
        let mut shares = Vec::with_capacity(groups.len());
        let mut remaining = session.remaining();
        let mut cheap_remaining = budget.cheap;
        for chain_no in 0..groups.len() {
            let share = remaining.div_ceil(groups.len() - chain_no);
            let cheap = cheap_remaining.div_ceil(groups.len() - chain_no);
            remaining -= share;
            cheap_remaining -= cheap;
            shares.push((share, cheap));
        }

        let run_chain = |chain_no: usize| -> SearchOutcome {
            let (wi, si) = groups[chain_no];
            let (share, cheap) = shares[chain_no];
            let chain_budget = SearchBudget { evaluations: share, cheap };
            // `.buffered()`: chain sessions keep their telemetry in the
            // outcome instead of publishing — the root session publishes
            // the chain-order merge, so the stream is identical whether
            // the chains ran on parallel workers or one after another.
            let mut chain_session = Session::new(sweeper, space, chain_budget)
                .without_space_clamp(chain_budget)
                .with_screening(self.screening)
                .buffered();
            // Head-of-stream marker: the chain-order merge turns these
            // into deterministic per-chain segment boundaries, which the
            // Perfetto exporter renders as per-chain counter tracks.
            chain_session.mark_chain(chain_no as u64);
            // SplitMix64-style stream pre-split: chain i starts where a
            // generator seeded with `seed` lands after i state steps.
            let chain_seed =
                self.seed.wrapping_add((chain_no as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            self.run_chain(chain_session, space, &relax, wi, si, chain_seed)
        };

        let outcomes: Vec<SearchOutcome> = if sweeper.is_parallel() && groups.len() > 1 {
            // Chains are ragged (budgets differ, proposal caps trip at
            // different times), so interleave them across workers.
            (0..groups.len())
                .into_par_iter()
                .map(run_chain)
                .with_chunking(rayon::Chunking::Strided)
                .collect()
        } else {
            (0..groups.len()).map(run_chain).collect()
        };
        for outcome in outcomes {
            session.absorb_outcome(outcome);
        }
        session.finish(self.name())
    }
}

impl SimulatedAnnealing {
    /// Runs one Metropolis chain over its `(workload, seq_len)` group,
    /// spending at most its session's pre-split budget share from its own
    /// pre-split RNG stream.
    fn run_chain(
        &self,
        mut session: Session<'_>,
        space: &DesignSpace,
        relax: &Relaxation,
        wi: usize,
        si: usize,
        chain_seed: u64,
    ) -> SearchOutcome {
        // The chain's budget share: the session was built with exactly
        // this chain's pre-split allowance, and nothing has been spent.
        let share = session.remaining();
        if share == 0 {
            return session.finish(self.name());
        }
        let [_, _, n_kinds, _, n_freqs, _, n_policies, n_fleets] = space.axis_lens();
        let mut rng = StdRng::seed_from_u64(chain_seed);
        let (dim_lo, dim_hi) = relax.dim_bounds();
        let (buf_lo, buf_hi) = relax.buf_bounds();
        let (freq_lo, freq_hi) = relax.freq_bounds();
        let (bw_lo, bw_hi) = relax.bw_bounds();
        let clock_bw = self.clock_bw && self.snap == SnapPolicy::Continuous;

        let random_state = |rng: &mut StdRng| WalkerState {
            dim_log2: rng.gen_range(dim_lo..dim_hi),
            buf_log2: rng.gen_range(buf_lo..buf_hi),
            kind_idx: rng.gen_range(0..n_kinds),
            freq_idx: rng.gen_range(0..n_freqs),
            policy_idx: if n_policies > 1 { rng.gen_range(0..n_policies) } else { 0 },
            fleet_idx: if n_fleets > 1 { rng.gen_range(0..n_fleets) } else { 0 },
            freq_log2: if clock_bw {
                rng.gen_range(freq_lo..freq_hi)
            } else {
                relax.freq_log2_of(0)
            },
            bw_log2: if clock_bw { rng.gen_range(bw_lo..bw_hi) } else { relax.bw_log2_stock() },
            clock_bw,
        };

        // With an in-loop objective attached, the walker descends the
        // objective's energy landscape instead of the weighted
        // log-scalarization (the random weights are still drawn, so the
        // RNG stream — and every objective-free trajectory — is
        // unchanged).
        let objective = session.sweeper().objective().cloned();
        let chain_energy = |evaluation: &Evaluation, weights: &[f64; 3]| match &objective {
            Some(o) => objective_energy(o.as_ref(), evaluation),
            None => energy(evaluation, weights),
        };

        let mut weights = random_weights(&mut rng);
        let mut state = random_state(&mut rng);
        session.count_proposals(1);
        let mut current = match session
            .evaluate_candidate(&state.candidate(space, relax, self.snap, wi, si))
        {
            SessionEval::Evaluated(e) => e,
            // Unreachable today: each chain is the first visitor of
            // its (workload, seq_len) group, and an empty group
            // frontier admits every bound. Skip the chain rather than
            // walk without an energy, should a future change let a
            // warm frontier precede the chain.
            SessionEval::Screened | SessionEval::Exhausted => return session.finish(self.name()),
        };
        let mut current_energy = chain_energy(&current, &weights);
        let mut temp = self.initial_temp;
        let mut moves = 0usize;
        let cap = move_cap(share);

        // The chain session's whole budget is its share, so exhaustion is
        // exactly "share spent".
        while !session.exhausted() && moves < cap {
            moves += 1;
            session.count_proposals(1);
            let mut next = state;
            next.dim_log2 = (next.dim_log2 + rng.gen_range(-self.step_octaves..self.step_octaves))
                .clamp(dim_lo, dim_hi);
            next.buf_log2 = (next.buf_log2 + rng.gen_range(-self.step_octaves..self.step_octaves))
                .clamp(buf_lo, buf_hi);
            if clock_bw {
                // Clock and bandwidth live in half-octave-wide boxes,
                // so walk them at half the hardware-knob step.
                let half = self.step_octaves / 2.0;
                next.freq_log2 =
                    (next.freq_log2 + rng.gen_range(-half..half)).clamp(freq_lo, freq_hi);
                next.bw_log2 = (next.bw_log2 + rng.gen_range(-half..half)).clamp(bw_lo, bw_hi);
            }
            if n_kinds > 1 && rng.gen_bool(0.3) {
                next.kind_idx = rng.gen_range(0..n_kinds);
            }
            if n_freqs > 1 && rng.gen_bool(0.2) {
                next.freq_idx = rng.gen_range(0..n_freqs);
            }
            if n_policies > 1 && rng.gen_bool(0.2) {
                next.policy_idx = rng.gen_range(0..n_policies);
            }
            if n_fleets > 1 && rng.gen_bool(0.2) {
                next.fleet_idx = rng.gen_range(0..n_fleets);
            }
            let proposal = next.candidate(space, relax, self.snap, wi, si);
            let candidate = match session.evaluate_candidate(&proposal) {
                SessionEval::Evaluated(e) => e,
                // Provably dominated: reject the move without cooling
                // (no energy was compared) and keep walking.
                SessionEval::Screened => continue,
                SessionEval::Exhausted => break,
            };
            let candidate_energy = chain_energy(&candidate, &weights);
            let delta = candidate_energy - current_energy;
            let accept = delta <= 0.0 || rng.gen_range(0.0..1.0) < (-delta / temp).exp();
            if accept {
                state = next;
                current = candidate;
                current_energy = candidate_energy;
            }
            temp *= self.cooling;
            if temp < 1e-3 {
                // Frozen: restart toward a fresh Pareto corner.
                weights = random_weights(&mut rng);
                state = random_state(&mut rng);
                session.count_proposals(1);
                if let SessionEval::Evaluated(e) =
                    session.evaluate_candidate(&state.candidate(space, relax, self.snap, wi, si))
                {
                    current = e;
                    current_energy = chain_energy(&current, &weights);
                }
                temp = self.initial_temp;
            }
        }
        let _ = current;
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
    fn spends_at_most_the_budget() {
        let sweeper = Sweeper::new(ModelParams::default());
        let outcome =
            SimulatedAnnealing::new(2).search(&sweeper, &space(), SearchBudget::evaluations(30));
        assert!(outcome.stats.requested <= 30);
        assert!(outcome.stats.requested >= 10, "walker stalled early");
    }

    #[test]
    fn deterministic_per_seed() {
        let sweeper = Sweeper::new(ModelParams::default());
        let a =
            SimulatedAnnealing::new(5).search(&sweeper, &space(), SearchBudget::evaluations(20));
        let b =
            SimulatedAnnealing::new(5).search(&sweeper, &space(), SearchBudget::evaluations(20));
        for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
            assert_eq!(x.point, y.point);
        }
    }

    #[test]
    fn clock_bw_relaxation_walks_off_the_stock_clock_and_bandwidth() {
        let sweeper = Sweeper::new(ModelParams::default());
        let outcome = SimulatedAnnealing::new(4)
            .with_snap_policy(SnapPolicy::Continuous)
            .with_clock_bw_relaxation(true)
            .search(&sweeper, &space(), SearchBudget::evaluations(30));
        let off_clock =
            outcome.evaluations.iter().filter(|e| e.point.arch.frequency_hz != 940e6).count();
        let off_bw = outcome
            .evaluations
            .iter()
            .filter(|e| e.point.arch.dram_bw_bytes_per_sec != 400e9)
            .count();
        assert!(off_clock > 0, "no evaluated design left the stock clock");
        assert!(off_bw > 0, "no evaluated design left the stock bandwidth");
        // The knobs stay inside the half-octave-padded boxes.
        for e in &outcome.evaluations {
            let f = e.point.arch.frequency_hz;
            let bw = e.point.arch.dram_bw_bytes_per_sec;
            assert!(f >= 940e6 / 2f64.sqrt() - 1.0 && f <= 940e6 * 2f64.sqrt() + 1.0, "{f}");
            assert!(bw >= 400e9 / 2f64.sqrt() - 1.0 && bw <= 400e9 * 2f64.sqrt() + 1.0, "{bw}");
        }
    }

    #[test]
    fn clock_bw_relaxation_is_deterministic_and_off_by_default() {
        let sweeper = Sweeper::new(ModelParams::default());
        let strat = || {
            SimulatedAnnealing::new(6)
                .with_snap_policy(SnapPolicy::Continuous)
                .with_clock_bw_relaxation(true)
        };
        let a = strat().search(&sweeper, &space(), SearchBudget::evaluations(20));
        let b = strat().search(&sweeper, &space(), SearchBudget::evaluations(20));
        for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
            assert_eq!(x.point, y.point);
        }
        // Without the flag, continuous runs keep the stock clock/bandwidth.
        let plain = SimulatedAnnealing::new(6).with_snap_policy(SnapPolicy::Continuous).search(
            &sweeper,
            &space(),
            SearchBudget::evaluations(20),
        );
        for e in &plain.evaluations {
            assert_eq!(e.point.arch.frequency_hz, 940e6);
            assert_eq!(e.point.arch.dram_bw_bytes_per_sec, 400e9);
        }
    }

    #[test]
    fn move_cap_saturates_instead_of_overflowing() {
        assert_eq!(move_cap(0), 64);
        assert_eq!(move_cap(30), 30 * 32 + 64);
        // An unbounded continuous budget: no overflow, and no wrap to a
        // tiny cap.
        assert_eq!(move_cap(usize::MAX), usize::MAX);
        assert_eq!(move_cap(usize::MAX / 32), usize::MAX);
    }

    #[test]
    fn splits_budget_across_groups() {
        let sweeper = Sweeper::new(ModelParams::default());
        let multi = space()
            .with_workloads([TransformerConfig::bert(), TransformerConfig::xlm()])
            .with_seq_lens([1 << 14, 1 << 18]);
        let outcome =
            SimulatedAnnealing::new(8).search(&sweeper, &multi, SearchBudget::evaluations(40));
        assert_eq!(outcome.frontiers.len(), 4, "every (workload, seq_len) group gets a chain");
    }
}
