//! The three configurations that build up FuseMax (§VI-A): +Cascade,
//! +Architecture, and +Binding.

use crate::common::{rf_bytes, roofline, Machine};
use crate::config::ConfigKind;
use crate::params::ModelParams;
use crate::report::{AttentionReport, AttnWork};
use fusemax_arch::{ArchConfig, EnergyBreakdown, EnergyTable};

/// +Cascade: the 1-pass cascade mapped onto the FLAT architecture.
///
/// All softmax-side Einsums stay on the 1D array (the FLAT 2D PEs cannot
/// execute `max`/`exp`): per point `LM + SLN + SLD`, plus the per-tile
/// running corrections (`RM`, `PRM`, `SPD`, `RD`) and the
/// `F`-wide numerator rescales (`SPNV`, `RNV`) every `M0 = 64` rows — more
/// 1D work than FLAT's 3-pass softmax (hence the *lower* 2D utilization at
/// short L, Fig 6b), but the footprint no longer grows with `L`, so there
/// is no memory cliff.
pub(crate) fn cascade_on_flat(
    work: &AttnWork,
    arch: &ArchConfig,
    params: &ModelParams,
) -> AttentionReport {
    let m = Machine::of(arch);
    let AttnWork { batch_heads: bh, e, f, l } = *work;
    let pts = work.points();
    let w = m.w;
    let m0 = params.cascade_tile_m0 as f64;

    let c2d_qk = bh * e * l * l / m.pe2;
    let c2d_av = bh * f * l * l / m.pe2;
    let c2d = c2d_qk + c2d_av;

    // 1D ops (single-cycle ops on the FLAT vector PEs, like the baselines):
    // per point LM(1) + SLN(1) + SLD(1); per (m1, p) tile boundary
    // RM(1) + PRM(1) + SPD(1) + RD(1) + SPNV(F) + RNV(F); final divisions.
    let per_point = 3.0 * pts;
    let per_tile = (4.0 + 2.0 * f) * pts / m0;
    let divs = bh * f * l;
    let c1d = (per_point + per_tile + divs) / m.pe1;

    // One pass: inputs read once, output written once. Tiles stream
    // through the global buffer (the FLAT PEs lack register files for the
    // running tensors).
    let dram_bytes = work.input_output_bytes(w);
    let gbuf_bytes = dram_bytes + 4.0 * w * pts;

    let cycles = roofline(c2d, c1d, dram_bytes / m.bpc);

    let et = EnergyTable::default();
    let macc_ops = (e + f) * pts;
    let energy = EnergyBreakdown {
        macc_2d_pj: macc_ops * et.macc_pj,
        vector_1d_pj: (per_point + per_tile) * et.vector_op_pj + divs * et.div_pj,
        rf_pj: rf_bytes(macc_ops, w) * et.rf_pj_per_byte,
        gbuf_pj: gbuf_bytes * et.gbuf_pj_per_byte,
        dram_pj: dram_bytes * et.dram_pj_per_byte,
    };

    AttentionReport {
        kind: ConfigKind::FuseMaxCascade,
        cycles,
        busy_2d: c2d,
        busy_1d: c1d,
        dram_bytes,
        gbuf_bytes,
        energy,
        einsum_2d: [("QK", c2d_qk), ("LM", 0.0), ("SLN", 0.0), ("SLD", 0.0), ("SLNV/AV", c2d_av)],
    }
}

/// Tile-level costs shared by +Architecture and +Binding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileCosts {
    /// Tiles per attention head: `ceil(L/M0)·ceil(L/P0)`.
    pub tiles_per_head: f64,
    /// 2D-array cycles per tile.
    pub t2d: f64,
    /// 1D-array cycles per tile.
    pub t1d: f64,
    /// 2D per-tile cycles by Einsum: QK, LM, SLN, SLD, SLNV.
    pub split_2d: [f64; 5],
    /// 1D single-cycle-op count per tile (energy accounting).
    pub ops_1d_per_tile: f64,
}

/// Computes per-tile costs of the FuseMax mapping (`M0 = rows`,
/// `P0 = cols`, `M0×P0` = the 2D array, per Mapping 1).
pub(crate) fn tile_costs(work: &AttnWork, arch: &ArchConfig, params: &ModelParams) -> TileCosts {
    let m = Machine::of(arch);
    let AttnWork { e, f, l, .. } = *work;
    let m0 = arch.array_rows as f64;
    let p0 = arch.array_cols as f64;
    let tile_pts = m0 * p0;

    // 2D per-point costs (Einsums 44–49 mapped to the array): BQK (E
    // MACCs), LM (1 max, reduced spatially), SLN (sub + 6-MACC exp), SLD
    // (1 add, reduced spatially), SLNV (F MACCs).
    let sub_exp = params.sub_exp_cycles();
    let split = [e, 1.0, sub_exp, 1.0, f];
    let ops2d_pt: f64 = split.iter().sum();
    let t2d = ops2d_pt * tile_pts / m.pe2;

    // 1D per-(m1, p) costs (Einsums 46, 50–54 plus Einsum 55's divisions,
    // folded in): RM (1 max) + PRM (sub-exp) + SPD (1) + RD (1) +
    // SPNV (F) + RNV (F), for P0 values per tile.
    let ops1d_per_mp = 3.0 + sub_exp + 2.0 * f;
    let ops_1d_per_tile = ops1d_per_mp * p0;
    let t1d = ops_1d_per_tile / m.pe1;

    let tiles_per_head = (l / m0).ceil() * (l / p0).ceil();
    let scale = tile_pts / m.pe2; // 1 when the tile exactly covers the array
    TileCosts { tiles_per_head, t2d, t1d, split_2d: split.map(|s| s * scale), ops_1d_per_tile }
}

/// +Architecture: FuseMax PEs with a *serialized* binding — each `BQK` tile
/// is fully produced and consumed before the next starts (§VI-A), so every
/// tile pays the 2D work, then the 1D work, then the array fill/drain.
pub(crate) fn serialized(
    work: &AttnWork,
    arch: &ArchConfig,
    params: &ModelParams,
) -> AttentionReport {
    let tc = tile_costs(work, arch, params);
    let fill_drain = params.fill_drain_factor * (arch.array_rows + arch.array_cols) as f64;
    let epoch = tc.t2d + tc.t1d + fill_drain;
    build_report(ConfigKind::FuseMaxArch, work, arch, &tc, epoch, 0.0)
}

/// +Binding: the full FuseMax pipelined/interleaved binding (Fig 4). Fills
/// and drains hide behind the next tile's compute; each epoch costs the
/// *max* of the two arrays' tile work (they are nearly equal by design)
/// plus a small interleave overhead, and each head pays a pipeline warm-up.
pub(crate) fn pipelined(
    work: &AttnWork,
    arch: &ArchConfig,
    params: &ModelParams,
) -> AttentionReport {
    let tc = tile_costs(work, arch, params);
    let epoch = tc.t2d.max(tc.t1d) + params.interleave_overhead_cycles;
    build_report(ConfigKind::FuseMaxBinding, work, arch, &tc, epoch, params.pipeline_warmup_epochs)
}

fn build_report(
    kind: ConfigKind,
    work: &AttnWork,
    arch: &ArchConfig,
    tc: &TileCosts,
    epoch: f64,
    warmup_epochs: f64,
) -> AttentionReport {
    let m = Machine::of(arch);
    let AttnWork { batch_heads: bh, e, f, l } = *work;
    let pts = work.points();
    let w = m.w;

    let tiles = bh * tc.tiles_per_head;
    let mut cycles = bh * (tc.tiles_per_head + warmup_epochs) * epoch;

    // Einsum 55's divisions on the 1D array (F per query); they slot into
    // 1D slack under the pipelined binding and serialize otherwise.
    let div_cycles = bh * f * l / m.pe1;
    if kind == ConfigKind::FuseMaxArch {
        cycles += div_cycles;
    }

    // Inputs are read exactly once (the 1-pass cascade's footprint is
    // sequence-length independent) — FuseMax never spills intermediates.
    let dram_bytes = work.input_output_bytes(w);
    cycles = roofline(cycles, 0.0, dram_bytes / m.bpc);

    let busy_2d = tiles * tc.t2d;
    let busy_1d = (tiles * tc.t1d + div_cycles).min(cycles);

    // Q/K/V tiles staged through the global buffer per tile.
    let m0 = arch.array_rows as f64;
    let p0 = arch.array_cols as f64;
    let gbuf_bytes = dram_bytes + tiles * w * (e * p0 + (e + f) * m0);

    let et = EnergyTable::default();
    let ops2d = tiles * tc.t2d * m.pe2; // PE-ops, exp chained as MACCs
    let ops1d = tiles * tc.ops_1d_per_tile;
    let divs = bh * f * l;
    let energy = EnergyBreakdown {
        macc_2d_pj: ops2d * et.macc_pj,
        vector_1d_pj: ops1d * et.vector_op_pj + divs * et.div_pj,
        rf_pj: rf_bytes(ops2d + 2.0 * pts, w) * et.rf_pj_per_byte,
        gbuf_pj: gbuf_bytes * et.gbuf_pj_per_byte,
        dram_pj: dram_bytes * et.dram_pj_per_byte,
    };

    let split = tc.split_2d;
    AttentionReport {
        kind,
        cycles,
        busy_2d,
        busy_1d,
        dram_bytes,
        gbuf_bytes,
        energy,
        einsum_2d: [
            ("QK", tiles * split[0]),
            ("LM", tiles * split[1]),
            ("SLN", tiles * split[2]),
            ("SLD", tiles * split[3]),
            ("SLNV/AV", tiles * split[4]),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusemax_workloads::TransformerConfig;

    fn work(l: usize) -> AttnWork {
        AttnWork::from_workload(&TransformerConfig::bert(), l)
    }

    fn params() -> ModelParams {
        ModelParams::default()
    }

    #[test]
    fn tile_work_is_balanced_between_arrays() {
        // §V: "the green and blue time periods making up an epoch take
        // almost the same number of cycles" — E+F+9 ≈ (10+2F)·P0/PE1.
        for cfg in TransformerConfig::all() {
            let w = AttnWork::from_workload(&cfg, 1 << 16);
            let tc = tile_costs(&w, &ArchConfig::fusemax_cloud(), &params());
            let ratio = tc.t2d / tc.t1d;
            assert!((0.9..1.1).contains(&ratio), "{}: t2d/t1d = {ratio}", cfg.name);
        }
    }

    #[test]
    fn pipelined_reaches_high_utilization_at_long_lengths() {
        let r = pipelined(&work(1 << 20), &ArchConfig::fusemax_cloud(), &params());
        assert!(r.util_2d() > 0.95, "util2d = {}", r.util_2d());
        assert!(r.util_1d() > 0.9, "util1d = {}", r.util_1d());
    }

    #[test]
    fn pipelined_utilization_rises_with_length() {
        // Warm-up epochs are amortized as M1 grows (Fig 6b's +Binding
        // trend).
        let short = pipelined(&work(1 << 10), &ArchConfig::fusemax_cloud(), &params());
        let long = pipelined(&work(1 << 18), &ArchConfig::fusemax_cloud(), &params());
        assert!(short.util_2d() < long.util_2d());
        assert!(short.util_2d() > 0.5);
    }

    #[test]
    fn serialized_binding_stalls_both_arrays() {
        // Fig 6: +Architecture alone leaves both arrays under-utilized.
        let r = serialized(&work(1 << 16), &ArchConfig::fusemax_cloud(), &params());
        assert!(r.util_2d() < 0.4, "util2d = {}", r.util_2d());
        assert!(r.util_1d() < 0.4, "util1d = {}", r.util_1d());
        let p = pipelined(&work(1 << 16), &ArchConfig::fusemax_cloud(), &params());
        assert!(p.cycles < r.cycles, "binding must help");
    }

    #[test]
    fn cascade_on_flat_is_slower_than_flat_at_short_lengths() {
        // §VI-B: "+Cascade's 2D array utilization is lower than FLAT's at
        // short sequence lengths" because the 1-pass cascade adds compute.
        let c = cascade_on_flat(&work(1 << 12), &ArchConfig::flat_cloud(), &params());
        let f = crate::flat::model(&work(1 << 12), &ArchConfig::flat_cloud(), &params());
        assert!(c.cycles > f.cycles);
        assert!(c.util_2d() < f.util_2d());
    }

    #[test]
    fn cascade_on_flat_has_no_memory_cliff() {
        let short = cascade_on_flat(&work(1 << 14), &ArchConfig::flat_cloud(), &params());
        let long = cascade_on_flat(&work(1 << 20), &ArchConfig::flat_cloud(), &params());
        // Utilization is sequence-length independent (Fig 6a's +Cascade).
        assert!((short.util_1d() - long.util_1d()).abs() < 0.05);
        assert!(long.util_1d() > 0.95);
    }

    #[test]
    fn fusemax_dram_traffic_is_inputs_only() {
        let r = pipelined(&work(1 << 18), &ArchConfig::fusemax_cloud(), &params());
        let w = work(1 << 18);
        assert_eq!(r.dram_bytes, w.input_output_bytes(2.0));
    }

    #[test]
    fn fusemax_energy_is_dominated_by_2d_compute() {
        // §VI-B: "≥95% of the energy used by FuseMax ... goes to the MACC
        // functional units in the 2D array."
        let r = pipelined(&work(1 << 16), &ArchConfig::fusemax_cloud(), &params());
        let frac = r.energy.macc_2d_pj / r.energy.total_pj();
        assert!(frac > 0.9, "2D MACC fraction = {frac}");
    }

    #[test]
    fn einsum_breakdown_is_dominated_by_tensor_products() {
        // Fig 7: QK and SLNV/AV dominate the 2D array's active cycles.
        let r = pipelined(&work(1 << 16), &ArchConfig::fusemax_cloud(), &params());
        let total: f64 = r.einsum_2d.iter().map(|(_, c)| c).sum();
        let qk = r.einsum_2d.iter().find(|(n, _)| *n == "QK").unwrap().1;
        let slnv = r.einsum_2d.iter().find(|(n, _)| *n == "SLNV/AV").unwrap().1;
        assert!((qk + slnv) / total > 0.9);
        assert!((total - r.busy_2d).abs() / r.busy_2d < 1e-9);
    }

    #[test]
    fn scaled_arrays_stay_balanced() {
        // Fig 12's design family keeps the 2D/1D balance at every size.
        for n in [16, 64, 512] {
            let arch = ArchConfig::fusemax_scaled(n);
            let tc = tile_costs(&work(1 << 18), &arch, &params());
            let ratio = tc.t2d / tc.t1d;
            assert!((0.9..1.1).contains(&ratio), "n={n}: {ratio}");
        }
    }
}
