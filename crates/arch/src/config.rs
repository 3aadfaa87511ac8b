//! Architecture configurations (Fig 2 parameters and Fig 12 scaling).

use crate::pe::{ExpCost, PeKind};

/// A spatial-array accelerator configuration.
///
/// # Example
///
/// ```
/// use fusemax_arch::ArchConfig;
///
/// let cfg = ArchConfig::fusemax_cloud();
/// assert_eq!(cfg.pe_count_2d(), 256 * 256);
/// // 400 GB/s at 940 MHz ≈ 425 bytes per cycle.
/// assert!((cfg.dram_bytes_per_cycle() - 425.5).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Configuration name for reports.
    pub name: String,
    /// 2D PE array rows.
    pub array_rows: usize,
    /// 2D PE array columns.
    pub array_cols: usize,
    /// Number of 1D (vector) PEs.
    pub vector_pes: usize,
    /// Global buffer capacity in bytes.
    pub global_buffer_bytes: u64,
    /// Off-chip bandwidth in bytes per second.
    pub dram_bw_bytes_per_sec: f64,
    /// Clock frequency in hertz.
    pub frequency_hz: f64,
    /// Datatype width in bytes (2 for fp16).
    pub word_bytes: u64,
    /// The 2D-array PE variant.
    pub pe_2d: PeKind,
    /// How exponentiation is charged on this architecture's arrays.
    pub exp_cost: ExpCost,
}

impl ArchConfig {
    /// The paper's FuseMax cloud configuration (Fig 2): 256×256 2D array
    /// with FuseMax PEs, 256 1D PEs, 16 MB global buffer, 400 GB/s DRAM,
    /// 940 MHz, fp16 words, exponentiation as 6 chained MACCs.
    pub fn fusemax_cloud() -> Self {
        Self {
            name: "fusemax-cloud".into(),
            array_rows: 256,
            array_cols: 256,
            vector_pes: 256,
            global_buffer_bytes: 16 << 20,
            dram_bw_bytes_per_sec: 400e9,
            frequency_hz: 940e6,
            word_bytes: 2,
            pe_2d: PeKind::FuseMaxPe,
            exp_cost: ExpCost::FUSEMAX,
        }
    }

    /// The FLAT cloud baseline: same arrays and memory system, plain MACC
    /// PEs, and a 22 MB global buffer — sized so that FuseMax's total chip
    /// area comes out 6.4 % smaller, matching the paper's iso-area setup
    /// (§VI-A chose FuseMax's buffer "so that the overall chip area was as
    /// close to FLAT's as possible"). Baseline softmax Einsums are charged
    /// one 1D op each (the Timeloop convention of the baselines), hence
    /// [`ExpCost::SingleOp`].
    pub fn flat_cloud() -> Self {
        Self {
            name: "flat-cloud".into(),
            array_rows: 256,
            array_cols: 256,
            vector_pes: 256,
            global_buffer_bytes: 22 << 20,
            dram_bw_bytes_per_sec: 400e9,
            frequency_hz: 940e6,
            word_bytes: 2,
            pe_2d: PeKind::FlatMacc,
            exp_cost: ExpCost::SingleOp,
        }
    }

    /// A FuseMax configuration scaled to an `n×n` 2D array, `n` 1D PEs, and
    /// a proportionally scaled global buffer — the Fig 12 design family
    /// ("varying the size of the PE array between 16×16 and 512×512 and
    /// setting the global and per-PE buffers to accommodate the resulting
    /// pipelined/interleaved binding").
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn fusemax_scaled(n: usize) -> Self {
        assert!(n > 0, "array dimension must be positive");
        let base = Self::fusemax_cloud();
        let scale = (n as f64 / 256.0).powi(2);
        Self {
            name: format!("fusemax-{n}x{n}"),
            array_rows: n,
            array_cols: n,
            vector_pes: n,
            global_buffer_bytes: ((16_u64 << 20) as f64 * scale).ceil() as u64,
            ..base
        }
    }

    /// Total 2D-array PEs.
    pub fn pe_count_2d(&self) -> usize {
        self.array_rows * self.array_cols
    }

    /// DRAM bandwidth in bytes per clock cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bw_bytes_per_sec / self.frequency_hz
    }

    /// Converts a cycle count to seconds at this configuration's clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / self.frequency_hz
    }

    /// Elements of the configured word size fitting in the global buffer.
    pub fn buffer_capacity_words(&self) -> u64 {
        self.global_buffer_bytes / self.word_bytes
    }

    /// How many serving requests of `bytes_each` on-chip state (K/V cache
    /// plus activations) fit in the global buffer simultaneously — the
    /// batch-size ceiling a continuous-batching scheduler must respect.
    /// At least 1: a request larger than the buffer streams through DRAM
    /// instead of being unservable.
    pub fn max_resident_requests(&self, bytes_each: u64) -> usize {
        if bytes_each == 0 {
            return usize::MAX;
        }
        ((self.global_buffer_bytes / bytes_each) as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::PeOp;

    #[test]
    fn cloud_matches_figure_2() {
        let c = ArchConfig::fusemax_cloud();
        assert_eq!(c.array_rows, 256);
        assert_eq!(c.array_cols, 256);
        assert_eq!(c.vector_pes, 256);
        assert_eq!(c.global_buffer_bytes, 16 * 1024 * 1024);
        assert_eq!(c.frequency_hz, 940e6);
        assert_eq!(c.pe_count_2d(), 65536);
    }

    #[test]
    fn fusemax_2d_array_supports_softmax_ops() {
        let c = ArchConfig::fusemax_cloud();
        assert!(c.pe_2d.supports(PeOp::Max));
        assert!(c.pe_2d.supports(PeOp::Exp));
        let f = ArchConfig::flat_cloud();
        assert!(!f.pe_2d.supports(PeOp::Max));
    }

    #[test]
    fn scaled_configs_scale_quadratically() {
        let half = ArchConfig::fusemax_scaled(128);
        assert_eq!(half.pe_count_2d(), 128 * 128);
        assert_eq!(half.vector_pes, 128);
        let full = ArchConfig::fusemax_scaled(256);
        assert_eq!(full.global_buffer_bytes, 16 << 20);
        assert!(
            (half.global_buffer_bytes as f64 / full.global_buffer_bytes as f64 - 0.25).abs() < 1e-6
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = ArchConfig::fusemax_scaled(0);
    }

    #[test]
    fn resident_request_capacity_floors_at_one() {
        let c = ArchConfig::fusemax_cloud();
        assert_eq!(c.max_resident_requests(1 << 20), 16);
        assert_eq!(c.max_resident_requests(64 << 20), 1, "oversized requests still run");
        assert_eq!(c.max_resident_requests(0), usize::MAX);
    }

    #[test]
    fn unit_conversions() {
        let c = ArchConfig::fusemax_cloud();
        assert!((c.cycles_to_seconds(940e6) - 1.0).abs() < 1e-12);
        assert_eq!(c.buffer_capacity_words(), (16 << 20) / 2);
    }
}
