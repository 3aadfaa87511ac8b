//! The FLAT baseline: row-granularity fusion of QK → softmax → AV
//! (Kao et al., corrected per §VI-A).
//!
//! FLAT keeps a block of `R` query rows' `QK`/`SN` fibers resident on chip
//! (the 3-pass cascade's `O(M)` live footprint — see
//! `fusemax_core::footprint`) while streaming `K`/`V`. A buffer solver
//! chooses among three regimes:
//!
//! 1. **Resident** — `K`/`V` fit on chip alongside the rows: inputs are
//!    read once; compute bound.
//! 2. **Restream** — `K`/`V` no longer fit and are re-read once per row
//!    block; blocks shrink as `L` grows (`R ∝ buffer/L`), so traffic per
//!    point grows ∝ `L` — the memory-bandwidth cliff at ≥256K.
//! 3. **Spill** — alternatively spill the `QK`/`SN`/`A` fibers to DRAM and
//!    keep large row blocks. The solver picks whichever moves fewer bytes,
//!    which bounds how deep the cliff gets.

use crate::common::{rf_bytes, roofline, Machine};
use crate::config::ConfigKind;
use crate::params::ModelParams;
use crate::report::{AttentionReport, AttnWork};
use fusemax_arch::{ArchConfig, EnergyBreakdown, EnergyTable};

/// The buffer solver's outcome for one head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlatPlan {
    /// DRAM bytes per head.
    pub dram_per_head: f64,
    /// Which regime won.
    pub regime: FlatRegime,
}

/// FLAT's operating regime at a given sequence length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlatRegime {
    Resident,
    Restream,
    Spill,
}

/// Solves FLAT's buffer allocation for one head.
pub(crate) fn solve(work: &AttnWork, m: &Machine, params: &ModelParams) -> FlatPlan {
    let AttnWork { e, f, l, .. } = *work;
    let w = m.w;
    let usable = params.buffer_usable_frac * m.buf;
    let io_once = w * (3.0 * e * l + f * l); // Q, K, V in; AV out
    let kv = (e + f) * l * w;
    let rows_bytes = 2.0 * l * w; // one query row's QK + SN fibers

    // Regime 1: K/V resident next to at least flat_min_rows row blocks.
    if kv + params.flat_min_rows as f64 * rows_bytes <= usable {
        return FlatPlan { dram_per_head: io_once, regime: FlatRegime::Resident };
    }

    // Regime 2: re-stream K/V once per row block.
    let margin = (2.0 * 1024.0 * 1024.0_f64).min(0.25 * usable);
    let r_restream = ((usable - margin) / rows_bytes).floor().max(1.0);
    let blocks = (l / r_restream).ceil();
    let restream = io_once + (blocks - 1.0).max(0.0) * kv;

    // Regime 3: spill QK, SN, and A (write + read each) with K/V streamed
    // once per large block (rows bounded only by Q/AV residency).
    let r_spill = ((usable - margin) / ((e + f + 2.0) * w)).floor().max(1.0);
    let spill_blocks = (l / r_spill).ceil();
    let spill = io_once + 6.0 * w * l * l + (spill_blocks - 1.0).max(0.0) * kv;

    if restream <= spill {
        FlatPlan { dram_per_head: restream, regime: FlatRegime::Restream }
    } else {
        FlatPlan { dram_per_head: spill, regime: FlatRegime::Spill }
    }
}

/// The DRAM bytes per attention head FLAT's buffer solver charges on
/// `arch` — exactly the regime-aware minimum of the resident, re-stream,
/// and spill strategies computed by the module-level solver.
///
/// Exposed so search lower bounds (`fusemax_dse::Sweeper::lower_bound`)
/// can use the true re-streaming floor for long sequences instead of the
/// loose compulsory-traffic floor, without running the full model.
pub fn flat_dram_floor_per_head(work: &AttnWork, arch: &ArchConfig, params: &ModelParams) -> f64 {
    solve(work, &Machine::of(arch), params).dram_per_head
}

/// Models one layer of attention on FLAT.
pub(crate) fn model(work: &AttnWork, arch: &ArchConfig, params: &ModelParams) -> AttentionReport {
    let m = Machine::of(arch);
    let AttnWork { batch_heads: bh, e, f, l } = *work;
    let pts = work.points();
    let w = m.w;

    let c2d_qk = bh * e * l * l / m.pe2;
    let c2d_av = bh * f * l * l / m.pe2;
    let c2d = c2d_qk + c2d_av;
    let c1d = params.baseline_softmax_ops_per_point * pts / m.pe1;

    let plan = solve(work, &m, params);
    let dram_bytes = bh * plan.dram_per_head;
    // QK and SN pass through the global buffer (write + read each).
    let gbuf_bytes = dram_bytes + 4.0 * w * pts;

    let cycles = roofline(c2d, c1d, dram_bytes / m.bpc);

    let et = EnergyTable::default();
    let macc_ops = (e + f) * pts;
    let energy = EnergyBreakdown {
        macc_2d_pj: macc_ops * et.macc_pj,
        vector_1d_pj: (params.baseline_softmax_ops_per_point - 1.0) * pts * et.vector_op_pj
            + pts * et.div_pj,
        rf_pj: rf_bytes(macc_ops, w) * et.rf_pj_per_byte,
        gbuf_pj: gbuf_bytes * et.gbuf_pj_per_byte,
        dram_pj: dram_bytes * et.dram_pj_per_byte,
    };

    AttentionReport {
        kind: ConfigKind::Flat,
        cycles,
        busy_2d: c2d,
        busy_1d: c1d,
        dram_bytes,
        gbuf_bytes,
        energy,
        einsum_2d: [("QK", c2d_qk), ("LM", 0.0), ("SLN", 0.0), ("SLD", 0.0), ("SLNV/AV", c2d_av)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusemax_workloads::TransformerConfig;

    fn machine() -> Machine {
        Machine::of(&ArchConfig::flat_cloud())
    }

    fn work(l: usize) -> AttnWork {
        AttnWork::from_workload(&TransformerConfig::bert(), l)
    }

    fn report(l: usize) -> AttentionReport {
        model(&work(l), &ArchConfig::flat_cloud(), &ModelParams::default())
    }

    #[test]
    fn short_sequences_keep_kv_resident() {
        let p = solve(&work(1 << 10), &machine(), &ModelParams::default());
        assert_eq!(p.regime, FlatRegime::Resident);
        let p = solve(&work(1 << 14), &machine(), &ModelParams::default());
        assert_eq!(p.regime, FlatRegime::Resident);
    }

    #[test]
    fn long_sequences_leave_the_resident_regime() {
        // (E+F)·L·2B = 256K·... exceeds the 22 MB buffer beyond ~64K.
        let p = solve(&work(1 << 18), &machine(), &ModelParams::default());
        assert_ne!(p.regime, FlatRegime::Resident);
        let p = solve(&work(1 << 20), &machine(), &ModelParams::default());
        assert_ne!(p.regime, FlatRegime::Resident);
    }

    #[test]
    fn flat_is_1d_bound_at_short_lengths() {
        // Fig 6: FLAT's 1D array saturates while the 2D array idles.
        let r = report(1 << 12);
        assert!(r.util_1d() > 0.95, "util1d = {}", r.util_1d());
        assert!(r.util_2d() < 0.2, "util2d = {}", r.util_2d());
    }

    #[test]
    fn flat_2d_utilization_is_about_an_eighth_for_e64() {
        // (E+F)/PE2 compute vs 4 ops/point on 256 1D PEs → 128·256/(4·65536).
        let r = report(1 << 12);
        let expect = (128.0 * 256.0) / (4.0 * 65536.0);
        assert!((r.util_2d() - expect).abs() < 0.01, "{} vs {expect}", r.util_2d());
    }

    #[test]
    fn memory_cliff_appears_at_256k() {
        // Fig 6a: utilization drops for L ≥ 256K.
        let at_64k = report(1 << 16);
        let at_256k = report(1 << 18);
        assert!(at_64k.util_1d() > 0.9, "64K still compute bound: {}", at_64k.util_1d());
        assert!(at_256k.util_1d() < 0.7, "256K should be memory bound: {}", at_256k.util_1d());
    }

    #[test]
    fn dram_traffic_grows_superlinearly_past_the_cliff() {
        let a = report(1 << 16);
        let b = report(1 << 18);
        // Points grow 16×; traffic must grow faster than that.
        assert!(b.dram_bytes / a.dram_bytes > 16.0);
    }

    #[test]
    fn xlm_utilizes_the_2d_array_better() {
        // §VI-B: higher E/F gives the baselines higher intensity.
        let bert = report(1 << 12);
        let xlm_work = AttnWork::from_workload(&TransformerConfig::xlm(), 1 << 12);
        let xlm = model(&xlm_work, &ArchConfig::flat_cloud(), &ModelParams::default());
        assert!(xlm.util_2d() > 1.9 * bert.util_2d());
    }

    #[test]
    fn dram_floor_matches_the_model_exactly() {
        // The exported floor is the model's own DRAM charge, per head, in
        // every regime — resident, re-stream, and spill.
        for l in [1 << 12, 1 << 16, 1 << 18, 1 << 20] {
            let wk = work(l);
            let r = report(l);
            let floor =
                flat_dram_floor_per_head(&wk, &ArchConfig::flat_cloud(), &ModelParams::default());
            assert!((floor * wk.batch_heads - r.dram_bytes).abs() < 1.0, "L = {l}");
        }
    }

    #[test]
    fn solver_prefers_cheaper_strategy() {
        let m = machine();
        let p = ModelParams::default();
        for l in [1 << 18, 1 << 20] {
            let plan = solve(&work(l), &m, &p);
            // Recompute both strategies and confirm minimality.
            let wk = work(l);
            let usable = p.buffer_usable_frac * m.buf;
            let margin = (2.0 * 1024.0 * 1024.0_f64).min(0.25 * usable);
            let kv = (wk.e + wk.f) * wk.l * m.w;
            let io = m.w * (3.0 * wk.e + wk.f) * wk.l;
            let r_re = ((usable - margin) / (2.0 * wk.l * m.w)).floor().max(1.0);
            let restream = io + ((wk.l / r_re).ceil() - 1.0) * kv;
            let r_sp = ((usable - margin) / ((wk.e + wk.f + 2.0) * m.w)).floor().max(1.0);
            let spill = io + 6.0 * m.w * wk.l * wk.l + ((wk.l / r_sp).ceil() - 1.0) * kv;
            assert!((plan.dram_per_head - restream.min(spill)).abs() < 1.0);
        }
    }
}
