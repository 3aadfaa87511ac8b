//! The unfused baseline: QK, 3-pass softmax, and AV as sequential phases
//! (§VI-A "Unfused Baseline").

use crate::common::{rf_bytes, roofline, Machine};
use crate::config::ConfigKind;
use crate::params::ModelParams;
use crate::report::{AttentionReport, AttnWork};
use fusemax_arch::{ArchConfig, EnergyBreakdown, EnergyTable};

/// Models one layer of attention on the unfused baseline.
///
/// Each phase is scheduled independently (Timeloop-style optimal mappings
/// for QK and AV), proceeding sequentially with outputs written to memory
/// between phases. The softmax phase loads `M` fibers of the input on chip
/// one by one (§VI-A) — they fit in the global buffer at every evaluated
/// sequence length — so its DRAM traffic is one read of `QK` plus one write
/// of `A`.
pub(crate) fn model(work: &AttnWork, arch: &ArchConfig, params: &ModelParams) -> AttentionReport {
    let m = Machine::of(arch);
    let AttnWork { batch_heads: bh, e, f, l } = *work;
    let pts = work.points();
    let w = m.w;

    // Phase 1: QK[m,p] = Q·K. Reads Q and K, writes QK to DRAM.
    let c2d_qk = bh * e * l * l / m.pe2;
    let dram_qk = w * pts + bh * w * 2.0 * e * l;
    let t_qk = roofline(c2d_qk, 0.0, dram_qk / m.bpc);

    // Phase 2: 3-pass softmax on the 1D array, one op per Einsum point
    // (max, sub-exp, add, divide).
    let c1d = params.baseline_softmax_ops_per_point * pts / m.pe1;
    let dram_sm = 2.0 * w * pts; // read QK, write A
    let gbuf_sm = 4.0 * w * pts; // staged fiber + SN write/read + A staging
    let t_sm = roofline(0.0, c1d, dram_sm / m.bpc);

    // Phase 3: AV[f,p] = A·V. Reads A and V, writes AV.
    let c2d_av = bh * f * l * l / m.pe2;
    let dram_av = w * pts + bh * w * 2.0 * f * l;
    let t_av = roofline(c2d_av, 0.0, dram_av / m.bpc);

    let cycles = t_qk + t_sm + t_av;
    let dram_bytes = dram_qk + dram_sm + dram_av;
    let gbuf_bytes = dram_bytes + gbuf_sm;

    let et = EnergyTable::default();
    let macc_ops = (e + f) * pts;
    let softmax_div = pts;
    let softmax_ops = (params.baseline_softmax_ops_per_point - 1.0) * pts;
    let energy = EnergyBreakdown {
        macc_2d_pj: macc_ops * et.macc_pj,
        vector_1d_pj: softmax_ops * et.vector_op_pj + softmax_div * et.div_pj,
        rf_pj: rf_bytes(macc_ops, w) * et.rf_pj_per_byte,
        gbuf_pj: gbuf_bytes * et.gbuf_pj_per_byte,
        dram_pj: dram_bytes * et.dram_pj_per_byte,
    };

    AttentionReport {
        kind: ConfigKind::Unfused,
        cycles,
        busy_2d: c2d_qk + c2d_av,
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

    fn report(l: usize) -> AttentionReport {
        let bert = TransformerConfig::bert();
        let work = AttnWork::from_workload(&bert, l);
        model(&work, &ArchConfig::flat_cloud(), &ModelParams::default())
    }

    #[test]
    fn softmax_phase_dominates() {
        let r = report(1 << 16);
        // 1D softmax compute (4/256 cycles per point) exceeds both matmul
        // phases' memory time (~2B/425 per point each).
        assert!(r.busy_1d > r.busy_2d);
        assert!(r.util_1d() > 0.5, "util1d = {}", r.util_1d());
        assert!(r.util_2d() < 0.2, "util2d = {}", r.util_2d());
    }

    #[test]
    fn matmul_phases_are_memory_bound() {
        // Writing QK (2 bytes/point at 425 B/cycle) outweighs the 2D
        // compute (64 MACCs/point on 65536 PEs).
        let bert = TransformerConfig::bert();
        let work = AttnWork::from_workload(&bert, 1 << 16);
        let m = Machine::of(&ArchConfig::flat_cloud());
        let c2d_qk = work.batch_heads * work.e * work.l * work.l / m.pe2;
        let mem_qk = m.w * work.points() / m.bpc;
        assert!(mem_qk > c2d_qk);
    }

    #[test]
    fn cycles_scale_quadratically_with_length() {
        let a = report(1 << 12).cycles;
        let b = report(1 << 14).cycles;
        let ratio = b / a;
        assert!((ratio - 16.0).abs() < 1.0, "quadratic scaling, got {ratio}");
    }

    #[test]
    fn dram_traffic_includes_intermediate_spills() {
        let r = report(1 << 12);
        let bert = TransformerConfig::bert();
        let work = AttnWork::from_workload(&bert, 1 << 12);
        // At least QK written+read and A written+read: 4 bytes per point.
        assert!(r.dram_bytes >= 4.0 * work.points());
    }

    #[test]
    fn utilizations_bounded() {
        for l in [1 << 10, 1 << 14, 1 << 20] {
            let r = report(l);
            assert!(r.util_2d() > 0.0 && r.util_2d() <= 1.0);
            assert!(r.util_1d() > 0.0 && r.util_1d() <= 1.0);
        }
    }
}
