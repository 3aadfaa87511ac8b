//! The transformer's non-attention layers (projections, deprojection, FFN,
//! norms) — identical mappings for all configurations (§VI-C).

use crate::common::{rf_bytes, roofline, Machine};
use crate::mapper::{search_gemm_mapping, GemmMapping, GemmProblem};
use crate::params::ModelParams;
use fusemax_arch::{ArchConfig, EnergyBreakdown, EnergyTable};
use fusemax_workloads::TransformerConfig;

/// Modeled cost of one encoder layer's linear and elementwise parts.
#[derive(Debug, Clone)]
pub struct LinearReport {
    /// Total cycles.
    pub cycles: f64,
    /// 2D-array busy cycles (the matmuls).
    pub busy_2d: f64,
    /// 1D-array busy cycles (norms, residuals, activation).
    pub busy_1d: f64,
    /// DRAM traffic in bytes.
    pub dram_bytes: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// The searched mapping per GEMM: QKV projection, deprojection,
    /// FFN up, FFN down.
    pub gemm_mappings: Vec<GemmMapping>,
}

/// The four weight-times-activation GEMMs of one encoder layer, with
/// `N = B·L` tokens: Q/K/V projections (fused as one `D×3D` GEMM),
/// deprojection (`D×D`), and the two FFN matmuls (`D×Dff`, `Dff×D`).
pub fn layer_gemms(cfg: &TransformerConfig, seq_len: usize) -> Vec<GemmProblem> {
    let d = cfg.d_model;
    let dff = cfg.ffn_dim;
    let tokens = cfg.batch * seq_len;
    vec![
        GemmProblem::new(d, 3 * d, tokens),
        GemmProblem::new(d, d, tokens),
        GemmProblem::new(d, dff, tokens),
        GemmProblem::new(dff, d, tokens),
    ]
}

/// Models the weight-times-activation layers of one encoder layer.
///
/// Each GEMM's staging through the global buffer is the least-traffic
/// tiling that fits, found by the Timeloop-style [`search_gemm_mapping`]
/// (the paper: "We use Timeloop to search for optimal mappings for these
/// linear layers and use the same mappings for all three accelerator
/// configurations"); the elementwise norms/residuals/ReLU stream on the 1D
/// array concurrently (§IV-A: "the additional non-linearities have
/// negligible impact").
pub fn linear_report(
    cfg: &TransformerConfig,
    seq_len: usize,
    arch: &ArchConfig,
    _params: &ModelParams,
) -> LinearReport {
    let m = Machine::of(arch);
    let b = cfg.batch as f64;
    let d = cfg.d_model as f64;
    let dff = cfg.ffn_dim as f64;
    let l = seq_len as f64;
    let w = m.w;

    let problems = layer_gemms(cfg, seq_len);
    let gemm_mappings: Vec<GemmMapping> =
        problems.iter().map(|p| search_gemm_mapping(p, arch)).collect();
    let maccs: f64 = problems.iter().map(|p| p.maccs()).sum();
    let c2d = maccs / m.pe2;
    let dram_bytes: f64 = gemm_mappings.iter().map(|g| g.dram_bytes).sum();

    // Elementwise work: two norms (~5 ops/elem), two residuals, one ReLU.
    let other_ops = b * l * (12.0 * d + dff);
    let c1d = other_ops / m.pe1;

    let cycles = roofline(c2d, c1d, dram_bytes / m.bpc);

    // Everything staged through the buffer once on the way in and once on
    // the way out.
    let gbuf_bytes = 2.0 * dram_bytes;
    let et = EnergyTable::default();
    let energy = EnergyBreakdown {
        macc_2d_pj: maccs * et.macc_pj,
        vector_1d_pj: other_ops * et.vector_op_pj,
        rf_pj: rf_bytes(maccs, w) * et.rf_pj_per_byte,
        gbuf_pj: gbuf_bytes * et.gbuf_pj_per_byte,
        dram_pj: dram_bytes * et.dram_pj_per_byte,
    };

    LinearReport { cycles, busy_2d: c2d, busy_1d: c1d, dram_bytes, energy, gemm_mappings }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(l: usize) -> LinearReport {
        linear_report(
            &TransformerConfig::bert(),
            l,
            &ArchConfig::fusemax_cloud(),
            &ModelParams::default(),
        )
    }

    #[test]
    fn linear_cycles_scale_linearly_with_length() {
        let a = report(1 << 12);
        let b = report(1 << 16);
        let ratio = b.cycles / a.cycles;
        assert!((14.0..18.0).contains(&ratio), "linear scaling, got {ratio}");
    }

    #[test]
    fn matmuls_dominate_elementwise_work() {
        let r = report(1 << 14);
        assert!(r.busy_2d > 2.0 * r.busy_1d);
        // The elementwise work hides under the matmul roofline entirely.
        assert!(r.cycles >= r.busy_2d);
        assert!(r.busy_1d < r.cycles);
    }

    #[test]
    fn weights_amortize_over_the_batch() {
        // Activations dominate DRAM traffic at B=64.
        let cfg = TransformerConfig::bert();
        let m = Machine::of(&ArchConfig::fusemax_cloud());
        let weight_bytes = m.w
            * (4.0 * (cfg.d_model as f64).powi(2) + 2.0 * cfg.d_model as f64 * cfg.ffn_dim as f64);
        let r = report(1 << 14);
        assert!(r.dram_bytes > 10.0 * weight_bytes);
    }

    #[test]
    fn searched_mappings_reach_compulsory_traffic_on_the_cloud_chip() {
        // The 16 MB buffer suffices for every layer GEMM: the mapper should
        // find an inputs-once/outputs-once staging.
        let cfg = TransformerConfig::bert();
        let problems = layer_gemms(&cfg, 1 << 14);
        let r = report(1 << 14);
        for (p, g) in problems.iter().zip(&r.gemm_mappings) {
            assert!(g.is_compulsory(p, 2.0), "{p}: {g}");
        }
        assert_eq!(r.gemm_mappings.len(), 4);
    }

    #[test]
    fn energy_is_positive_and_compute_heavy() {
        let r = report(1 << 14);
        assert!(r.energy.total_pj() > 0.0);
        assert!(r.energy.compute_fraction() > 0.4);
    }
}
