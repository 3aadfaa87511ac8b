//! Uniform random sampling — the baseline every guided strategy must
//! beat, and a surprisingly strong one when the budget is a sizable
//! fraction of the space.

use crate::search::strategy::{
    random_genome, SearchBudget, SearchOutcome, SearchStrategy, Session,
};
use crate::space::{Candidate, DesignSpace};
use crate::sweep::Sweeper;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How many samples are staged between batch flushes by default: enough
/// to keep every worker of a wide machine busy, small enough that the
/// screening frontier (when enabled) still tightens several times per
/// run. Fixed — never derived from the core count — so results are
/// machine-independent.
const DEFAULT_BATCH: usize = 16;

/// Uniform random sampling without replacement (duplicates are retried,
/// not charged), deterministic per seed.
///
/// Samples are staged and evaluated in multi-point batches (16 by
/// default, [`RandomSearch::with_batch`]) so cache misses run on all the
/// sweeper's cores; seeded results are identical to the one-at-a-time
/// serial path because staging charges the budget and consumes the RNG in
/// exactly the per-sample order.
///
/// # Example
///
/// ```
/// use fusemax_dse::search::{RandomSearch, SearchBudget, SearchStrategy};
/// use fusemax_dse::{DesignSpace, Sweeper};
/// use fusemax_model::ModelParams;
///
/// let space = DesignSpace::new();
/// let sweeper = Sweeper::new(ModelParams::default());
/// let outcome = RandomSearch::new(7).search(&sweeper, &space, SearchBudget::evaluations(6));
/// assert_eq!(outcome.stats.requested, 6);
/// assert!(!outcome.frontier_points().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RandomSearch {
    seed: u64,
    screening: bool,
    batch: usize,
}

impl RandomSearch {
    /// A random searcher drawing its stream from `seed`.
    pub fn new(seed: u64) -> Self {
        RandomSearch { seed, screening: false, batch: DEFAULT_BATCH }
    }

    /// Enables the multi-fidelity lower-bound screen: samples whose
    /// closed-form bound is already dominated by the running frontier are
    /// rejected against [`SearchBudget::cheap`] instead of costing a
    /// model evaluation. Screening tests against the frontier as of the
    /// last flushed batch, so a smaller [`RandomSearch::with_batch`]
    /// tightens the screen at the cost of shallower parallelism.
    pub fn with_screening(mut self, screening: bool) -> Self {
        self.screening = screening;
        self
    }

    /// Replaces the number of samples staged per batch flush (clamped to
    /// ≥ 1). Without screening the batch size cannot change results —
    /// samples are drawn, charged, and recorded in the same order for any
    /// batch size (and parallel ≡ serial is test-enforced at every batch
    /// size). **With screening on, batch size is part of the
    /// configuration**: the screen tests against the frontier as of the
    /// last flush, so different batch sizes reject different samples —
    /// deterministically, but not identically.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

/// How many samples a run with `remaining` affordable points may draw:
/// 64 per point plus 256, which bounds the rejection-sampling tail when
/// the budget approaches the space's distinct points. Saturating, so no
/// budget can overflow it.
fn attempt_cap(remaining: usize) -> usize {
    remaining.saturating_mul(64).saturating_add(256)
}

impl SearchStrategy for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn search(
        &self,
        sweeper: &Sweeper,
        space: &DesignSpace,
        budget: SearchBudget,
    ) -> SearchOutcome {
        let mut session = Session::new(sweeper, space, budget).with_screening(self.screening);
        if space.is_empty() {
            return session.finish(self.name());
        }
        let lens = space.axis_lens();
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Rejection-sample distinct points; the attempt cap bounds the
        // tail when the budget approaches the space size. Samples are
        // drawn in the serial order but evaluated as multi-point batches
        // (the batch charges the budget per sample, in draw order, so the
        // evaluated set is identical to the one-at-a-time path).
        let mut attempts = 0usize;
        let cap = attempt_cap(session.remaining());
        while !session.exhausted() && attempts < cap {
            let mut chunk = Vec::with_capacity(self.batch);
            while chunk.len() < self.batch && attempts < cap {
                attempts += 1;
                chunk.push(Candidate::Grid(random_genome(&mut rng, &lens)));
            }
            session.count_proposals(chunk.len());
            session.evaluate_batch(&chunk);
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
            .with_seq_lens([1 << 16])
    }

    #[test]
    fn spends_exactly_the_budget() {
        let sweeper = Sweeper::new(ModelParams::default());
        let outcome = RandomSearch::new(1).search(&sweeper, &space(), SearchBudget::evaluations(8));
        assert_eq!(outcome.stats.requested, 8);
        assert_eq!(outcome.evaluations.len(), 8);
    }

    #[test]
    fn deterministic_per_seed() {
        let sweeper = Sweeper::new(ModelParams::default());
        let a = RandomSearch::new(42).search(&sweeper, &space(), SearchBudget::evaluations(10));
        let b = RandomSearch::new(42).search(&sweeper, &space(), SearchBudget::evaluations(10));
        assert_eq!(a.evaluations.len(), b.evaluations.len());
        for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
            assert_eq!(x.point, y.point);
        }
        let c = RandomSearch::new(43).search(&sweeper, &space(), SearchBudget::evaluations(10));
        assert!(
            a.evaluations.iter().zip(&c.evaluations).any(|(x, y)| x.point != y.point),
            "different seeds should explore differently"
        );
    }

    #[test]
    fn saturates_small_spaces_without_spinning() {
        let sweeper = Sweeper::new(ModelParams::default());
        let tiny = space().with_array_dims([64]).with_kinds([ConfigKind::FuseMaxBinding]);
        let outcome = RandomSearch::new(5).search(&sweeper, &tiny, SearchBudget::evaluations(1000));
        assert_eq!(outcome.stats.requested, 1);
    }

    #[test]
    fn attempt_cap_saturates_instead_of_overflowing() {
        assert_eq!(attempt_cap(0), 256);
        assert_eq!(attempt_cap(8), 8 * 64 + 256);
        assert_eq!(attempt_cap(usize::MAX), usize::MAX);
        assert_eq!(attempt_cap(usize::MAX / 64), usize::MAX);
    }

    #[test]
    fn empty_space_yields_an_empty_outcome() {
        let sweeper = Sweeper::new(ModelParams::default());
        let empty = space().with_kinds([]);
        let outcome = RandomSearch::new(0).search(&sweeper, &empty, SearchBudget::evaluations(10));
        assert!(outcome.evaluations.is_empty());
        assert_eq!(outcome.stats.requested, 0);
    }
}
