//! A Timeloop-style mapping search for GEMMs on the spatial architecture.
//!
//! The paper "use\[s\] Timeloop to search for efficient mappings to perform
//! QK and AV" in the unfused baseline and "for optimal mappings for these
//! linear layers" (§VI-A/§VI-C). This module reproduces that role for the
//! class of kernels those searches cover: a single dense GEMM
//! `Z[m,n] = A[k,m] × B[k,n]` staged through the global buffer.
//!
//! A [`GemmMapping`] picks buffer-level tile sizes `(K1, M1, N1)`. The
//! standard tiled-GEMM traffic model applies:
//!
//! * `A` is re-read once per `N`-tile pass: `K·M·⌈N/N1⌉` words;
//! * `B` is re-read once per `M`-tile pass: `K·N·⌈M/M1⌉` words;
//! * `Z` is written once if `K` is untiled, otherwise partial sums spill:
//!   `M·N·(2·⌈K/K1⌉ − 1)` words.
//!
//! Tile candidates along each rank are the powers of two below its extent
//! plus the extent itself. A tiling fits when its live tiles fit the
//! global buffer twice over (double buffering). The search returns the
//! fitting tiling with the least DRAM traffic; ties go to the largest
//! `(K1, M1, N1)`.
//!
//! It does not enumerate every `(K1, M1, N1)`. With `(K1, M1)` fixed,
//! traffic never rises as `N1` grows (`A` takes fewer passes, `B` turns
//! resident only at `N1 = N`, `Z` does not depend on `N1`), while the
//! resident words `K1·M1 + (K1+M1)·N1` only rise. So only the largest
//! fitting `N1` can win, and it also wins the tie-break. The search visits
//! each `(K1, M1)` once and computes that `N1` in closed form: `N` itself
//! when it fits, otherwise the largest power of two that fits. The unit
//! tests keep the full enumeration as an oracle and check that both return
//! bit-identical mappings.

use crate::common::Machine;
use fusemax_arch::ArchConfig;
use std::fmt;

/// A dense GEMM `Z[m,n] = A[k,m] × B[k,n]` (paper Einsum 1's shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmProblem {
    /// Shared (reduction) rank extent.
    pub k: usize,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
}

impl GemmProblem {
    /// Creates a problem; all extents must be positive.
    ///
    /// # Panics
    ///
    /// Panics when any extent is zero.
    pub fn new(k: usize, m: usize, n: usize) -> Self {
        assert!(k > 0 && m > 0 && n > 0, "GEMM extents must be positive");
        Self { k, m, n }
    }

    /// Multiply–accumulate count.
    pub fn maccs(&self) -> f64 {
        self.k as f64 * self.m as f64 * self.n as f64
    }

    /// Compulsory traffic in words: every operand once, the output once.
    pub fn compulsory_words(&self) -> f64 {
        (self.k * self.m + self.k * self.n + self.m * self.n) as f64
    }
}

impl fmt::Display for GemmProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Z[{m},{n}] = A[{k},{m}] × B[{k},{n}]", k = self.k, m = self.m, n = self.n)
    }
}

/// One point in the mapping space: buffer-level tile sizes plus its cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmMapping {
    /// Tile extent along `K`.
    pub tile_k: usize,
    /// Tile extent along `M`.
    pub tile_m: usize,
    /// Tile extent along `N`.
    pub tile_n: usize,
    /// Total DRAM traffic in bytes under this mapping.
    pub dram_bytes: f64,
    /// Compute cycles on the 2D array.
    pub compute_cycles: f64,
    /// Roofline latency in cycles.
    pub cycles: f64,
}

impl GemmMapping {
    /// `true` when the mapping achieves compulsory-only traffic.
    pub fn is_compulsory(&self, problem: &GemmProblem, word_bytes: f64) -> bool {
        self.dram_bytes <= problem.compulsory_words() * word_bytes * (1.0 + 1e-9)
    }
}

impl fmt::Display for GemmMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tiles K1={} M1={} N1={}: {:.3e} B DRAM, {:.3e} cycles",
            self.tile_k, self.tile_m, self.tile_n, self.dram_bytes, self.cycles
        )
    }
}

/// Power-of-two candidates below `extent`, ascending, then `extent` itself.
fn tile_candidates(extent: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1), move |&t| (t < extent).then(|| t.saturating_mul(2).min(extent)))
}

/// The largest `N1` candidate whose tiles fit `capacity` words beside a
/// `k1×m1` tile of `A`, i.e. with `k1·m1 + (k1+m1)·N1 ≤ capacity`: `n`
/// itself when it fits, otherwise the largest power of two that fits.
/// `None` when not even `N1 = 1` fits.
fn largest_fitting_n1(n: usize, k1: usize, m1: usize, capacity: usize) -> Option<usize> {
    let room = capacity.checked_sub(k1.saturating_mul(m1))?;
    match room / (k1 + m1) {
        0 => None,
        fits if fits >= n => Some(n),
        fits => Some(1 << fits.ilog2()),
    }
}

/// Evaluates one tiling's traffic and latency. A fully-resident tensor
/// (its tile covers the whole tensor) is stationary: loaded exactly once.
fn evaluate(problem: &GemmProblem, m: &Machine, k1: usize, m1: usize, n1: usize) -> GemmMapping {
    let (k, mm, n) = (problem.k as f64, problem.m as f64, problem.n as f64);
    let passes_n = (n / n1 as f64).ceil();
    let passes_m = (mm / m1 as f64).ceil();
    let passes_k = (k / k1 as f64).ceil();
    let a_resident = k1 == problem.k && m1 == problem.m;
    let b_resident = k1 == problem.k && n1 == problem.n;
    let words_a = k * mm * if a_resident { 1.0 } else { passes_n };
    let words_b = k * n * if b_resident { 1.0 } else { passes_m };
    let words_z = mm * n * (2.0 * passes_k - 1.0);
    let dram_bytes = (words_a + words_b + words_z) * m.w;
    let compute_cycles = problem.maccs() / m.pe2;
    let cycles = compute_cycles.max(dram_bytes / m.bpc);
    GemmMapping { tile_k: k1, tile_m: m1, tile_n: n1, dram_bytes, compute_cycles, cycles }
}

/// Searches the tiling space for the minimum-traffic mapping that fits the
/// global buffer (double-buffered: two copies of each live tile).
///
/// Returns the fitting `(K1, M1, N1)` with the least DRAM traffic; ties go
/// to the largest `(K1, M1, N1)`. The search visits each `(K1, M1)` once
/// and evaluates only its largest fitting `N1`, which it computes rather
/// than scans (see the [module docs](crate::mapper)): at most one
/// evaluation per `(K1, M1)` instead of one per `(K1, M1, N1)`. The unit
/// tests check it bit for bit against the full enumeration.
///
/// Falls back to the `(1, 1, 1)` tiling if nothing fits (pathologically
/// small buffers).
///
/// # Panics
///
/// Panics when an extent is zero, which only a struct literal can build:
/// [`GemmProblem::new`] rejects it.
///
/// # Example
///
/// ```
/// use fusemax_arch::ArchConfig;
/// use fusemax_model::mapper::{search_gemm_mapping, GemmProblem};
///
/// // A BERT FFN matmul at L=4K, B=64: K=768, M=3072, N=262144.
/// let problem = GemmProblem::new(768, 3072, 1 << 18);
/// let mapping = search_gemm_mapping(&problem, &ArchConfig::fusemax_cloud());
/// // The 16 MB buffer is big enough to reach compulsory-only traffic.
/// assert!(mapping.is_compulsory(&problem, 2.0));
/// ```
pub fn search_gemm_mapping(problem: &GemmProblem, arch: &ArchConfig) -> GemmMapping {
    search_counted(problem, arch).0
}

/// [`search_gemm_mapping`], plus how many tilings it evaluated.
fn search_counted(problem: &GemmProblem, arch: &ArchConfig) -> (GemmMapping, usize) {
    assert!(problem.k > 0 && problem.m > 0 && problem.n > 0, "GEMM extents must be positive");
    let m = Machine::of(arch);
    // Resident word counts are integers, so comparing them with the floor
    // of the (possibly fractional) capacity is exact.
    let capacity = (m.buf / m.w / 2.0) as usize; // double buffering
    let mut best: Option<GemmMapping> = None;
    let mut evaluated = 0;
    for k1 in tile_candidates(problem.k) {
        for m1 in tile_candidates(problem.m) {
            // Resident words grow with M1: once N1 = 1 does not fit, no
            // larger M1 fits either.
            let Some(n1) = largest_fitting_n1(problem.n, k1, m1, capacity) else { break };
            let candidate = evaluate(problem, &m, k1, m1, n1);
            evaluated += 1;
            // Tilings arrive in ascending (K1, M1, N1) order, so a candidate
            // that ties the incumbent is the larger tiling and takes the tie.
            if best.is_none_or(|b| candidate.dram_bytes <= b.dram_bytes) {
                best = Some(candidate);
            }
        }
    }
    match best {
        Some(mapping) => (mapping, evaluated),
        None => (evaluate(problem, &m, 1, 1, 1), evaluated + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::layer_gemms;
    use fusemax_workloads::TransformerConfig;

    fn cloud() -> ArchConfig {
        ArchConfig::fusemax_cloud()
    }

    /// The oracle: enumerates every `(K1, M1, N1)` tiling and keeps the
    /// least-traffic one, ties to the larger tiling.
    fn brute_force_mapping(problem: &GemmProblem, arch: &ArchConfig) -> GemmMapping {
        /// Power-of-two candidates up to `extent` (always including `extent`).
        fn tile_candidates(extent: usize) -> Vec<usize> {
            let mut out = Vec::new();
            let mut t = 1usize;
            while t < extent {
                out.push(t);
                t *= 2;
            }
            out.push(extent);
            out
        }

        let m = Machine::of(arch);
        let capacity_words = m.buf / m.w / 2.0; // double buffering
        let mut best: Option<GemmMapping> = None;
        for &k1 in &tile_candidates(problem.k) {
            for &m1 in &tile_candidates(problem.m) {
                for &n1 in &tile_candidates(problem.n) {
                    let resident = (k1 * m1 + k1 * n1 + m1 * n1) as f64;
                    if resident > capacity_words {
                        continue;
                    }
                    let candidate = evaluate(problem, &m, k1, m1, n1);
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            candidate.dram_bytes < b.dram_bytes * (1.0 - 1e-12)
                                || (candidate.dram_bytes <= b.dram_bytes
                                    && (k1, m1, n1) > (b.tile_k, b.tile_m, b.tile_n))
                        }
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
            }
        }
        best.unwrap_or_else(|| evaluate(problem, &m, 1, 1, 1))
    }

    /// The four models' layer GEMMs at six lengths, plus every triple of
    /// synthetic extents; both include non-powers of two.
    fn grid_problems() -> Vec<GemmProblem> {
        let mut problems: Vec<GemmProblem> = TransformerConfig::all()
            .iter()
            .flat_map(|cfg| [1, 100, 1000, 4096, 1 << 16, 1 << 20].map(|l| layer_gemms(cfg, l)))
            .flatten()
            .collect();
        let extents = [1, 3, 8, 100, 3072, 1 << 20];
        for k in extents {
            for m in extents {
                problems.extend(extents.map(|n| GemmProblem::new(k, m, n)));
            }
        }
        problems
    }

    /// Five array sizes, each with buffers too small for any tile (0 and 3
    /// bytes), small fixed buffers, and its scaled buffer times 1/64, 0.3,
    /// 1 and 4. 19 bytes hold 4.75 words: rounding that capacity up would
    /// admit an `N1 = 2` tile that does not fit.
    fn grid_archs() -> Vec<ArchConfig> {
        let mut archs = Vec::new();
        for dim in [16, 64, 100, 256, 512] {
            let base = ArchConfig::fusemax_scaled(dim);
            let scaled = base.global_buffer_bytes as f64;
            let scaled_buffers = [1.0 / 64.0, 0.3, 1.0, 4.0].map(|s| (scaled * s) as u64);
            for bytes in [0, 3, 19, 64, 4096].into_iter().chain(scaled_buffers) {
                archs.push(ArchConfig { global_buffer_bytes: bytes, ..base.clone() });
            }
        }
        archs
    }

    #[test]
    fn pruned_search_matches_the_brute_force_bit_for_bit() {
        let bits = |g: &GemmMapping| {
            let costs = [g.dram_bytes, g.compute_cycles, g.cycles].map(f64::to_bits);
            (g.tile_k, g.tile_m, g.tile_n, costs)
        };
        let problems = grid_problems();
        let (mut fallbacks, mut fractional_fits, mut whole_n, mut split_n) = (0, 0, 0, 0);
        for arch in grid_archs() {
            let words = arch.global_buffer_bytes as f64 / arch.word_bytes as f64 / 2.0;
            for p in &problems {
                let got = search_gemm_mapping(p, &arch);
                let want = brute_force_mapping(p, &arch);
                assert_eq!(bits(&got), bits(&want), "{p} with {} B", arch.global_buffer_bytes);
                // Coverage: the fallback, a fractional capacity that fits
                // tiles, and both closed-form branches for N1.
                fallbacks += usize::from(words < 3.0);
                fractional_fits += usize::from(words >= 3.0 && words.fract() != 0.0);
                whole_n += usize::from(got.tile_n == p.n && !p.n.is_power_of_two());
                split_n += usize::from(words >= 3.0 && got.tile_n < p.n);
            }
        }
        assert!(fallbacks > 0 && fractional_fits > 0 && whole_n > 0 && split_n > 0);
    }

    #[test]
    fn search_work_is_bounded_and_independent_of_n() {
        let candidates = |extent: usize| extent.ilog2() as usize + 2;
        for arch in [cloud(), ArchConfig::fusemax_scaled(16)] {
            for (k, m) in [(1, 1), (3, 100), (768, 2304), (8192, 2048)] {
                let evaluated = |n| search_counted(&GemmProblem::new(k, m, n), &arch).1;
                let (short, long) = (evaluated(1 << 10), evaluated(1 << 40));
                assert_eq!(short, long, "K={k} M={m} on {}", arch.name);
                assert!(long <= candidates(k) * candidates(m), "K={k} M={m}: {long}");
            }
        }
    }

    #[test]
    fn candidates_cover_extent() {
        let candidates = |extent| tile_candidates(extent).collect::<Vec<_>>();
        assert_eq!(candidates(8), vec![1, 2, 4, 8]);
        assert_eq!(candidates(6), vec![1, 2, 4, 6]);
        assert_eq!(candidates(1), vec![1]);
    }

    #[test]
    fn traffic_is_at_least_compulsory() {
        let problems = grid_problems();
        for arch in grid_archs() {
            let word = arch.word_bytes as f64;
            for p in &problems {
                let m = search_gemm_mapping(p, &arch);
                assert!(m.dram_bytes >= p.compulsory_words() * word, "{p}: {m}");
            }
        }
    }

    #[test]
    fn doubling_the_buffer_never_adds_traffic() {
        let problems = grid_problems();
        for arch in grid_archs() {
            let doubled =
                ArchConfig { global_buffer_bytes: 2 * arch.global_buffer_bytes, ..arch.clone() };
            for p in &problems {
                let here = search_gemm_mapping(p, &arch).dram_bytes;
                let more = search_gemm_mapping(p, &doubled).dram_bytes;
                assert!(more <= here, "{p} with {} B", arch.global_buffer_bytes);
            }
        }
    }

    #[test]
    fn large_buffer_reaches_compulsory_traffic() {
        // A tile of B plus a K-strip of A fits easily: traffic is inputs +
        // output exactly once.
        let p = GemmProblem::new(768, 768, 1 << 14);
        let m = search_gemm_mapping(&p, &cloud());
        assert!(m.is_compulsory(&p, 2.0), "{m}");
    }

    #[test]
    fn shrinking_the_buffer_increases_traffic() {
        let p = GemmProblem::new(2048, 2048, 1 << 15);
        let big = search_gemm_mapping(&p, &cloud());
        let mut small_arch = cloud();
        small_arch.global_buffer_bytes = 64 << 10; // 64 KB
        let small = search_gemm_mapping(&p, &small_arch);
        assert!(
            small.dram_bytes > 2.0 * big.dram_bytes,
            "small {:.3e} vs big {:.3e}",
            small.dram_bytes,
            big.dram_bytes
        );
    }

    #[test]
    fn mapping_respects_the_capacity_constraint() {
        let problems = grid_problems();
        for arch in grid_archs() {
            let capacity_words = arch.global_buffer_bytes as f64 / arch.word_bytes as f64 / 2.0;
            for p in &problems {
                let m = search_gemm_mapping(p, &arch);
                let (k1, m1, n1) = (m.tile_k, m.tile_m, m.tile_n);
                let words = (k1 * m1 + k1 * n1 + m1 * n1) as f64;
                let fallback = capacity_words < 3.0 && (k1, m1, n1) == (1, 1, 1);
                assert!(words <= capacity_words || fallback, "{p}: {m}");
            }
        }
    }

    #[test]
    fn weight_stationary_gemms_are_compute_bound() {
        // An FFN-shaped GEMM (weights resident, a million tokens streamed)
        // reaches the compute roofline: the arithmetic intensity is D MACCs
        // per streamed word.
        let p = GemmProblem::new(768, 3072, 1 << 20);
        let m = search_gemm_mapping(&p, &cloud());
        assert!((m.cycles - m.compute_cycles).abs() < 1e-6 * m.cycles, "{m}");
        assert!(m.is_compulsory(&p, 2.0), "{m}");
    }

    #[test]
    fn search_is_deterministic() {
        let p = GemmProblem::new(768, 3072, 1 << 16);
        let a = search_gemm_mapping(&p, &cloud());
        let b = search_gemm_mapping(&p, &cloud());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _ = GemmProblem::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "GEMM extents must be positive")]
    fn search_rejects_zero_extents_from_a_struct_literal() {
        let _ = search_gemm_mapping(&GemmProblem { k: 0, m: 0, n: 4 }, &cloud());
    }

    #[test]
    fn display_forms() {
        let p = GemmProblem::new(2, 3, 4);
        assert!(p.to_string().contains("A[2,3]"));
        let m = search_gemm_mapping(&p, &cloud());
        assert!(m.to_string().contains("tiles"));
    }
}
