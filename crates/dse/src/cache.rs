//! The keyed in-memory evaluation cache: repeated sweeps, guided
//! searches and figure regeneration on one [`crate::Sweeper`] reuse
//! analytical-model results instead of recomputing them.

use crate::space::{DesignPoint, FleetSpec, QueueOrder, SchedulerPolicy};
use crate::sweep::Evaluation;
use fusemax_arch::{ArchConfig, ExpCost};
use fusemax_model::ConfigKind;
use fusemax_workloads::TransformerConfig;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The full identity of a design point, hashed field-by-field (floating
/// knobs via their bit patterns) so two points collide exactly when every
/// model-visible input is identical.
///
/// [`fusemax_model::ModelParams`] is deliberately *not* part of the key:
/// a [`crate::Sweeper`] owns one immutable `ModelParams` alongside its
/// cache, so entries can never mix parameterizations.
///
/// The key owns no heap data (the workload name is the `&'static str`
/// of [`fusemax_workloads::TransformerConfig::name`]), so it is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PointKey {
    array_rows: usize,
    array_cols: usize,
    vector_pes: usize,
    global_buffer_bytes: u64,
    dram_bw_bits: u64,
    frequency_bits: u64,
    word_bytes: u64,
    pe_2d: fusemax_arch::PeKind,
    exp_cost: (u8, u32),
    kind: ConfigKind,
    model_name: &'static str,
    layers: usize,
    heads: usize,
    head_dim: usize,
    ffn_dim: usize,
    batch: usize,
    seq_len: usize,
    chunk_tokens: Option<usize>,
    waiting_ratio_bits: u64,
    queue_order: QueueOrder,
    fleet: FleetSpec,
}

impl PointKey {
    /// Builds the key for `point`.
    pub fn of(point: &DesignPoint) -> Self {
        PointKey::new(
            &point.arch,
            point.kind,
            &point.workload,
            point.seq_len,
            point.policy,
            point.fleet,
        )
    }

    /// The key of the point these fields make up, without building it.
    pub(crate) fn new(
        arch: &ArchConfig,
        kind: ConfigKind,
        workload: &TransformerConfig,
        seq_len: usize,
        policy: SchedulerPolicy,
        fleet: FleetSpec,
    ) -> Self {
        PointKey {
            array_rows: arch.array_rows,
            array_cols: arch.array_cols,
            vector_pes: arch.vector_pes,
            global_buffer_bytes: arch.global_buffer_bytes,
            dram_bw_bits: arch.dram_bw_bytes_per_sec.to_bits(),
            frequency_bits: arch.frequency_hz.to_bits(),
            word_bytes: arch.word_bytes,
            pe_2d: arch.pe_2d,
            exp_cost: match arch.exp_cost {
                ExpCost::SingleOp => (0, 0),
                ExpCost::ChainedMaccs(n) => (1, n),
            },
            kind,
            model_name: workload.name,
            layers: workload.layers,
            heads: workload.heads,
            head_dim: workload.head_dim,
            ffn_dim: workload.ffn_dim,
            batch: workload.batch,
            seq_len,
            chunk_tokens: policy.chunk_tokens,
            waiting_ratio_bits: policy.waiting_served_ratio.to_bits(),
            queue_order: policy.queue_order,
            fleet,
        }
    }
}

/// The cache map's hasher: rustc's Fx hash, one rotate, xor and multiply
/// per 8-byte word. A key is ~25 words of the program's own data, so
/// SipHash's resistance to crafted collisions buys nothing here but time,
/// and the map is never iterated, so the hasher orders nothing anyone
/// sees.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The cache's map from key to canonical evaluation.
pub(crate) type Map = HashMap<PointKey, Arc<Evaluation>, BuildHasherDefault<FxHasher>>;

/// A thread-safe map from [`PointKey`] to finished [`Evaluation`]s, with
/// hit/miss counters.
///
/// Entries are [`Arc`]-shared: a second sweep over the same space returns
/// clones of the *same* allocation, so reports are bit-identical by
/// construction.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: Mutex<Map>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The locked map. Nothing here counts the lookups a caller makes
    /// through it.
    pub(crate) fn map(&self) -> MutexGuard<'_, Map> {
        self.map.lock().expect("cache poisoned")
    }

    /// Looks up `key`, bumping the hit or miss counter.
    pub fn get(&self, key: &PointKey) -> Option<Arc<Evaluation>> {
        let found = self.map().get(key).cloned();
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores `evaluation` under `key`. If another thread raced us to the
    /// same key, the first insertion wins and its entry is returned, so
    /// every caller observes one canonical `Arc` per key.
    pub fn insert(&self, key: PointKey, evaluation: Arc<Evaluation>) -> Arc<Evaluation> {
        Arc::clone(self.map().entry(key).or_insert(evaluation))
    }

    /// Single-lookup fetch-or-compute: one lock round classifies the hit
    /// (bumping the hit/miss counters exactly as [`EvalCache::get`]);
    /// only on a miss does `compute` run — **outside** the lock — before
    /// a second lock round inserts the result. Returns the canonical
    /// `Arc` and whether *this call's* `compute` produced it (`false` on
    /// a hit or a lost insertion race), so callers classify shared-cache
    /// reuse versus fresh evaluation without a separate
    /// [`EvalCache::contains`] round.
    pub fn get_or_insert_with(
        &self,
        key: PointKey,
        compute: impl FnOnce() -> Evaluation,
    ) -> (Arc<Evaluation>, bool) {
        if let Some(hit) = self.get(&key) {
            return (hit, false);
        }
        let computed = Arc::new(compute());
        match self.map().entry(key) {
            Entry::Occupied(slot) => (Arc::clone(slot.get()), false),
            Entry::Vacant(slot) => (Arc::clone(slot.insert(computed)), true),
        }
    }

    /// `true` when `key` is cached, *without* bumping the hit/miss
    /// counters — the peek the search session's screening path uses to
    /// skip bound checks for points the model will not run anyway.
    pub fn contains(&self, key: &PointKey) -> bool {
        self.map().contains_key(key)
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached evaluations.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fold a cache's counters into a telemetry
/// [`Metrics`](fusemax_telemetry::Metrics) registry: the hit and miss
/// counters, the hit ratio and the entry count. The counters add to any
/// the registry already holds, and the ratio is re-derived from the sums
/// ([`Metrics::derive_gauges`](fusemax_telemetry::Metrics::derive_gauges)),
/// so it always describes the same lookups as the counters beside it.
pub fn record_cache_metrics(cache: &EvalCache, metrics: &mut fusemax_telemetry::Metrics) {
    metrics.inc("search.cache.hit", cache.hits());
    metrics.inc("search.cache.miss", cache.misses());
    metrics.derive_gauges();
    metrics.set_gauge("search.cache.entries", cache.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{arch_for, DesignPoint};
    use fusemax_model::ConfigKind;
    use fusemax_workloads::TransformerConfig;

    fn point(kind: ConfigKind, n: usize, seq_len: usize) -> DesignPoint {
        DesignPoint {
            arch: arch_for(kind, n),
            kind,
            workload: TransformerConfig::bert(),
            seq_len,
            array_dim: n,
            policy: Default::default(),
            fleet: Default::default(),
        }
    }

    #[test]
    fn identical_points_share_a_key() {
        let a = PointKey::of(&point(ConfigKind::Flat, 128, 1 << 14));
        let b = PointKey::of(&point(ConfigKind::Flat, 128, 1 << 14));
        assert_eq!(a, b);
    }

    #[test]
    fn every_axis_separates_keys() {
        let base = point(ConfigKind::Flat, 128, 1 << 14);
        let k = PointKey::of(&base);
        assert_ne!(k, PointKey::of(&point(ConfigKind::Flat, 256, 1 << 14)), "array dim");
        assert_ne!(k, PointKey::of(&point(ConfigKind::Unfused, 128, 1 << 14)), "kind");
        assert_ne!(k, PointKey::of(&point(ConfigKind::Flat, 128, 1 << 16)), "seq len");

        let mut other_model = base.clone();
        other_model.workload = TransformerConfig::xlm();
        assert_ne!(k, PointKey::of(&other_model), "workload");

        let mut other_freq = base.clone();
        other_freq.arch.frequency_hz = 470e6;
        assert_ne!(k, PointKey::of(&other_freq), "frequency");

        let mut other_policy = base.clone();
        other_policy.policy = crate::space::SchedulerPolicy::chunked(512);
        assert_ne!(k, PointKey::of(&other_policy), "scheduler policy");

        let mut other_order = base.clone();
        other_order.policy = crate::space::SchedulerPolicy::unbounded()
            .with_queue_order(QueueOrder::ShortestPromptFirst);
        assert_ne!(k, PointKey::of(&other_order), "queue order");

        let mut other_fleet = base.clone();
        other_fleet.fleet = crate::space::FleetSpec::replicated(4);
        assert_ne!(k, PointKey::of(&other_fleet), "fleet");

        let mut other_router = base.clone();
        other_router.fleet = crate::space::FleetSpec::replicated(4)
            .with_router(crate::space::RouterPolicy::LeastLoaded);
        assert_ne!(PointKey::of(&other_fleet), PointKey::of(&other_router), "router");

        let mut other_buf = base;
        other_buf.arch.global_buffer_bytes *= 2;
        assert_ne!(k, PointKey::of(&other_buf), "buffer");
    }

    #[test]
    fn arch_name_does_not_affect_the_key() {
        let a = point(ConfigKind::Flat, 128, 1 << 14);
        let mut b = a.clone();
        b.arch.name = "renamed".into();
        assert_eq!(PointKey::of(&a), PointKey::of(&b));
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = EvalCache::new();
        let key = PointKey::of(&point(ConfigKind::Flat, 64, 1 << 12));
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert!(cache.is_empty());
    }

    #[test]
    fn record_cache_metrics_surfaces_counts_and_ratio() {
        let cache = EvalCache::new();
        let key = PointKey::of(&point(ConfigKind::Flat, 64, 1 << 12));
        cache.get(&key); // miss
        let e = {
            use crate::sweep::Sweeper;
            use fusemax_model::ModelParams;
            Sweeper::new(ModelParams::default()).evaluate(&point(ConfigKind::Flat, 64, 1 << 12))
        };
        cache.insert(key, e);
        cache.get(&key); // hit
        let mut metrics = fusemax_telemetry::Metrics::new();
        record_cache_metrics(&cache, &mut metrics);
        assert_eq!(metrics.counter("search.cache.hit"), 1);
        assert_eq!(metrics.counter("search.cache.miss"), 1);
        assert_eq!(metrics.gauge("search.cache.hit_ratio"), Some(0.5));
        assert_eq!(metrics.gauge("search.cache.entries"), Some(1.0));
        // Folded into a registry that already counted two misses, the
        // ratio follows the summed counters, not this cache's alone.
        let mut metrics = fusemax_telemetry::Metrics::new();
        metrics.inc("search.cache.miss", 2);
        record_cache_metrics(&cache, &mut metrics);
        assert_eq!(metrics.counter("search.cache.miss"), 3);
        assert_eq!(metrics.gauge("search.cache.hit_ratio"), Some(0.25));
    }

    #[test]
    fn get_or_insert_with_is_one_canonical_arc_per_key() {
        use crate::sweep::Sweeper;
        use fusemax_model::ModelParams;
        let sweeper = Sweeper::new(ModelParams::default());
        let p = point(ConfigKind::Flat, 64, 1 << 12);
        let cache = EvalCache::new();
        let (first, fresh) =
            cache.get_or_insert_with(PointKey::of(&p), || (*sweeper.evaluate(&p)).clone());
        assert!(fresh, "first call must compute");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let (second, fresh) =
            cache.get_or_insert_with(PointKey::of(&p), || panic!("hit must not compute"));
        assert!(!fresh);
        assert!(Arc::ptr_eq(&first, &second), "one canonical Arc per key");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn off_grid_candidates_key_by_their_materialized_identity() {
        // The off-grid story: a grid candidate and the off-grid candidate
        // naming the same concrete design share one canonical key, while
        // any knob difference separates them.
        use crate::space::{Candidate, DesignSpace};
        let space = DesignSpace::new().with_array_dims([64, 256]);
        let stock = arch_for(ConfigKind::FuseMaxBinding, 256).global_buffer_bytes;
        let grid = space.materialize(&Candidate::Grid([0, 0, 0, 1, 0, 0, 0, 0]));
        let alias = space.materialize(&Candidate::OffGrid {
            workload: 0,
            seq_len: 0,
            kind: 0,
            frequency: 0,
            array_dim: 256,
            buffer_bytes: stock,
            frequency_hz: None,
            dram_bw_bytes_per_sec: None,
            policy: 0,
            fleet: 0,
        });
        assert_eq!(PointKey::of(&grid), PointKey::of(&alias));

        let shrunk = space.materialize(&Candidate::OffGrid {
            workload: 0,
            seq_len: 0,
            kind: 0,
            frequency: 0,
            array_dim: 256,
            buffer_bytes: stock - 1,
            frequency_hz: None,
            dram_bw_bytes_per_sec: None,
            policy: 0,
            fleet: 0,
        });
        assert_ne!(PointKey::of(&grid), PointKey::of(&shrunk));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A design point from raw off-grid knobs.
        fn off_grid_point(
            kind_idx: usize,
            dim: usize,
            buffer_bytes: u64,
            freq: f64,
            seq_len: usize,
        ) -> DesignPoint {
            let kind = ConfigKind::all()[kind_idx];
            let mut arch = arch_for(kind, dim);
            arch.global_buffer_bytes = buffer_bytes;
            arch.frequency_hz = freq;
            DesignPoint {
                arch,
                kind,
                workload: TransformerConfig::bert(),
                seq_len,
                array_dim: dim,
                policy: Default::default(),
                fleet: Default::default(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Distinct architectures never collide: two off-grid points
            /// share a key exactly when every model-visible knob is
            /// identical.
            #[test]
            fn distinct_arch_configs_never_collide(
                kind_a in 0usize..5, kind_b in 0usize..5,
                dim_a in 1usize..600, dim_b in 1usize..600,
                buf_a in 1u64..(64 << 20), buf_b in 1u64..(64 << 20),
                freq_idx_a in 0usize..3, freq_idx_b in 0usize..3,
                seq_exp_a in 10u32..21, seq_exp_b in 10u32..21,
            ) {
                let freqs = [940e6, 470e6, 1.2e9];
                let a = off_grid_point(
                    kind_a, dim_a, buf_a, freqs[freq_idx_a], 1usize << seq_exp_a);
                let b = off_grid_point(
                    kind_b, dim_b, buf_b, freqs[freq_idx_b], 1usize << seq_exp_b);
                let same_inputs = kind_a == kind_b
                    && dim_a == dim_b
                    && buf_a == buf_b
                    && freq_idx_a == freq_idx_b
                    && seq_exp_a == seq_exp_b;
                prop_assert_eq!(PointKey::of(&a) == PointKey::of(&b), same_inputs);
            }

            /// Materialized off-grid candidates with continuous clock and
            /// bandwidth overrides still key canonically: two candidates
            /// collide exactly when every materialized knob agrees — the
            /// contract that lets the relaxed frequency/bandwidth walker
            /// share one cache with everything else.
            #[test]
            fn materialized_off_grid_keys_never_collide(
                kind_a in 0usize..2, kind_b in 0usize..2,
                dim_a in 1usize..600, dim_b in 1usize..600,
                buf_a in 1u64..(64 << 20), buf_b in 1u64..(64 << 20),
                freq_a in 300.0e6f64..2.0e9, freq_b in 300.0e6f64..2.0e9,
                bw_a in 100.0e9f64..800.0e9, bw_b in 100.0e9f64..800.0e9,
            ) {
                use crate::space::{Candidate, DesignSpace};
                let space = DesignSpace::new()
                    .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding]);
                let candidate = |k, d, b, f, bw| Candidate::OffGrid {
                    workload: 0,
                    seq_len: 0,
                    kind: k,
                    frequency: 0,
                    array_dim: d,
                    buffer_bytes: b,
                    frequency_hz: Some(f),
                    dram_bw_bytes_per_sec: Some(bw),
                    policy: 0,
                    fleet: 0,
                };
                let a = space.materialize(&candidate(kind_a, dim_a, buf_a, freq_a, bw_a));
                let b = space.materialize(&candidate(kind_b, dim_b, buf_b, freq_b, bw_b));
                let same = kind_a == kind_b
                    && dim_a == dim_b
                    && buf_a == buf_b
                    && freq_a == freq_b
                    && bw_a == bw_b;
                prop_assert_eq!(PointKey::of(&a) == PointKey::of(&b), same);
            }

            /// On-grid keys are stable under addressing: the key of a
            /// grid point is a pure function of the materialized design,
            /// never of how it was addressed.
            #[test]
            fn grid_keys_are_stable_under_addressing(
                dim_idx in 0usize..3,
                kind_idx in 0usize..2,
                buf_idx in 0usize..2,
            ) {
                use crate::space::{Candidate, DesignSpace};
                let space = DesignSpace::new()
                    .with_array_dims([64, 128, 256])
                    .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
                    .with_buffer_scales([0.5, 1.0]);
                let index = [0, 0, kind_idx, dim_idx, 0, buf_idx, 0, 0];
                let via_point_at = PointKey::of(&space.point_at(index));
                let via_candidate =
                    PointKey::of(&space.materialize(&Candidate::Grid(index)));
                prop_assert_eq!(via_point_at, via_candidate);
            }
        }
    }
}
