//! Workload descriptors and model output reports.

use crate::config::ConfigKind;
use fusemax_arch::EnergyBreakdown;
use fusemax_workloads::TransformerConfig;
use std::fmt;

/// One layer's attention workload: `B·H` independent `E×M×P×F` attention
/// instances with `M = P = L` (self-attention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttnWork {
    /// Attention instances per layer (batch × heads).
    pub batch_heads: f64,
    /// Query/key embedding per head (`E`).
    pub e: f64,
    /// Value embedding per head (`F`, equal to `E` in these models).
    pub f: f64,
    /// Sequence length (`M = P = L`).
    pub l: f64,
}

impl AttnWork {
    /// Builds the per-layer attention workload of `cfg` at `seq_len`.
    pub fn from_workload(cfg: &TransformerConfig, seq_len: usize) -> Self {
        Self {
            batch_heads: cfg.batch_heads() as f64,
            e: cfg.head_dim as f64,
            f: cfg.head_dim as f64,
            l: seq_len as f64,
        }
    }

    /// Softmax iteration-space points per layer (`B·H·L²`).
    pub fn points(&self) -> f64 {
        self.batch_heads * self.l * self.l
    }

    /// Tensor-product MACCs per layer (`B·H·(E+F)·L²`).
    pub fn matmul_maccs(&self) -> f64 {
        (self.e + self.f) * self.points()
    }

    /// Bytes to read Q, K, V and write AV once, per layer.
    pub fn input_output_bytes(&self, word_bytes: f64) -> f64 {
        self.batch_heads * word_bytes * (3.0 * self.e * self.l + self.f * self.l)
    }
}

/// The modeled behavior of one layer of attention on one configuration.
#[derive(Debug, Clone)]
pub struct AttentionReport {
    /// Which configuration produced this report.
    pub kind: ConfigKind,
    /// Total cycles for the layer (all heads, full batch).
    pub cycles: f64,
    /// Cycles the 2D array spends computing.
    pub busy_2d: f64,
    /// Cycles the 1D array spends computing.
    pub busy_1d: f64,
    /// DRAM traffic in bytes.
    pub dram_bytes: f64,
    /// Global-buffer traffic in bytes.
    pub gbuf_bytes: f64,
    /// Energy breakdown for the layer.
    pub energy: EnergyBreakdown,
    /// 2D-array busy cycles attributed to each Einsum group (Fig 7):
    /// `QK`, `LM`, `SLN`, `SLD`, `SLNV/AV`.
    pub einsum_2d: [(&'static str, f64); 5],
}

impl AttentionReport {
    /// 2D-array utilization (busy / total).
    pub fn util_2d(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.busy_2d / self.cycles
        }
    }

    /// 1D-array utilization.
    pub fn util_1d(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.busy_1d / self.cycles
        }
    }

    /// Convenience accessor matching the doc examples.
    #[doc(hidden)]
    pub fn cycles(&self) -> f64 {
        self.cycles
    }
}

impl fmt::Display for AttentionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} cycles={:.3e} util2D={:.2} util1D={:.2} dram={:.2e}B energy={:.2e}pJ",
            self.kind.label(),
            self.cycles,
            self.util_2d(),
            self.util_1d(),
            self.dram_bytes,
            self.energy.total_pj()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attn_work_counts() {
        let bert = TransformerConfig::bert();
        let w = AttnWork::from_workload(&bert, 1024);
        assert_eq!(w.batch_heads, 768.0);
        assert_eq!(w.e, 64.0);
        assert_eq!(w.points(), 768.0 * 1024.0 * 1024.0);
        assert_eq!(w.matmul_maccs(), 128.0 * w.points());
        // Q + K + V + AV = 4 E·L words of 2 bytes each.
        assert_eq!(w.input_output_bytes(2.0), 768.0 * 2.0 * 4.0 * 64.0 * 1024.0);
    }

    #[test]
    fn utilizations_guard_division_by_zero() {
        let r = AttentionReport {
            kind: ConfigKind::Flat,
            cycles: 0.0,
            busy_2d: 0.0,
            busy_1d: 0.0,
            dram_bytes: 0.0,
            gbuf_bytes: 0.0,
            energy: EnergyBreakdown::default(),
            einsum_2d: ["QK", "LM", "SLN", "SLD", "SLNV/AV"].map(|name| (name, 0.0)),
        };
        assert_eq!(r.util_2d(), 0.0);
        assert_eq!(r.util_1d(), 0.0);
    }
}
