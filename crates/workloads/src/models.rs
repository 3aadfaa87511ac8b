//! The evaluated transformer encoder configurations (§VI-A).

use crate::flops::LayerOps;

/// The sequence lengths evaluated throughout the paper's figures.
pub const SEQ_LENGTHS: [usize; 6] = [1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20];

/// Human-readable label for a sequence length (`1K` … `1M`).
///
/// # Example
///
/// ```
/// assert_eq!(fusemax_workloads::seq_label(1 << 18), "256K");
/// ```
pub fn seq_label(l: usize) -> String {
    if l >= 1 << 20 {
        format!("{}M", l >> 20)
    } else if l >= 1 << 10 {
        format!("{}K", l >> 10)
    } else {
        format!("{l}")
    }
}

/// A transformer encoder configuration.
///
/// Hyperparameters follow the public model cards (the paper inherits
/// FLAT's workload set, §VI-A): `d_model = heads ×
/// head_dim`, and `head_dim` is the paper's `E = F` embedding per head
/// ("for the networks we evaluate, E = 64 or 128", §V).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Model name as used in the figures.
    pub name: &'static str,
    /// Encoder layers.
    pub layers: usize,
    /// Attention heads (`H`).
    pub heads: usize,
    /// Per-head embedding (`E = F`).
    pub head_dim: usize,
    /// Model width (`D = H·E`).
    pub d_model: usize,
    /// Feed-forward inner dimension.
    pub ffn_dim: usize,
    /// Batch size (`B`, 64 throughout the paper).
    pub batch: usize,
}

impl TransformerConfig {
    /// BERT-Base: 12 layers, 12 heads × 64, FFN 3072.
    pub fn bert() -> Self {
        Self {
            name: "BERT",
            layers: 12,
            heads: 12,
            head_dim: 64,
            d_model: 768,
            ffn_dim: 3072,
            batch: 64,
        }
    }

    /// TrXL-wt103: 18 layers, 16 heads × 64, FFN 4096.
    pub fn trxl() -> Self {
        Self {
            name: "TrXL",
            layers: 18,
            heads: 16,
            head_dim: 64,
            d_model: 1024,
            ffn_dim: 4096,
            batch: 64,
        }
    }

    /// T5-small (encoder only, as the paper evaluates): 6 layers,
    /// 8 heads × 64, FFN 2048.
    pub fn t5() -> Self {
        Self {
            name: "T5",
            layers: 6,
            heads: 8,
            head_dim: 64,
            d_model: 512,
            ffn_dim: 2048,
            batch: 64,
        }
    }

    /// XLM: 12 layers, 16 heads × 128 (the larger `E/F` the paper calls
    /// out), FFN 8192.
    pub fn xlm() -> Self {
        Self {
            name: "XLM",
            layers: 12,
            heads: 16,
            head_dim: 128,
            d_model: 2048,
            ffn_dim: 8192,
            batch: 64,
        }
    }

    /// All four evaluated models, in the figures' order.
    pub fn all() -> Vec<Self> {
        vec![Self::bert(), Self::trxl(), Self::t5(), Self::xlm()]
    }

    /// Attention instances per layer (`B × H`).
    pub fn batch_heads(&self) -> usize {
        self.batch * self.heads
    }

    /// The same model at a different batch size. Serving simulators model
    /// *per-request* service times, so they evaluate at `batch = 1` and
    /// let the scheduler decide how many requests share the chip.
    pub fn with_batch(&self, batch: usize) -> Self {
        Self { batch, ..self.clone() }
    }

    /// Bytes of K/V cache one token occupies across all layers and heads
    /// (`2 tensors × layers × H × E × word_bytes`) — what bounds how many
    /// requests can stay resident in an accelerator's global buffer
    /// during decode.
    pub fn kv_bytes_per_token(&self, word_bytes: u64) -> u64 {
        2 * self.layers as u64 * (self.heads * self.head_dim) as u64 * word_bytes
    }

    /// MACC-class operation counts for one encoder layer at sequence
    /// length `seq_len` (see [`LayerOps`]).
    pub fn layer_ops(&self, seq_len: usize) -> LayerOps {
        LayerOps::for_layer(self, seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d_model_is_heads_times_head_dim() {
        for cfg in TransformerConfig::all() {
            assert_eq!(cfg.d_model, cfg.heads * cfg.head_dim, "{}", cfg.name);
        }
    }

    #[test]
    fn head_dims_match_the_papers_e_values() {
        // §V: "For the networks we evaluate, E = 64 or 128."
        for cfg in TransformerConfig::all() {
            assert!(cfg.head_dim == 64 || cfg.head_dim == 128, "{}", cfg.name);
        }
        assert_eq!(TransformerConfig::xlm().head_dim, 128);
    }

    #[test]
    fn batch_is_64_everywhere() {
        for cfg in TransformerConfig::all() {
            assert_eq!(cfg.batch, 64);
        }
    }

    #[test]
    fn sequence_lengths_are_the_figures_sweep() {
        assert_eq!(SEQ_LENGTHS.len(), 6);
        assert_eq!(SEQ_LENGTHS[0], 1024);
        assert_eq!(SEQ_LENGTHS[5], 1048576);
        for w in SEQ_LENGTHS.windows(2) {
            assert_eq!(w[1], w[0] * 4, "lengths step by 4x");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(seq_label(1024), "1K");
        assert_eq!(seq_label(65536), "64K");
        assert_eq!(seq_label(1048576), "1M");
        assert_eq!(seq_label(512), "512");
    }

    #[test]
    fn with_batch_changes_only_the_batch() {
        let one = TransformerConfig::bert().with_batch(1);
        assert_eq!(one.batch, 1);
        assert_eq!(one.batch_heads(), 12);
        assert_eq!(TransformerConfig { batch: 64, ..one }, TransformerConfig::bert());
    }

    #[test]
    fn kv_bytes_count_both_tensors_across_layers() {
        // BERT fp16: 2 × 12 layers × 768 model width × 2 bytes = 36 KiB/token.
        assert_eq!(TransformerConfig::bert().kv_bytes_per_token(2), 2 * 12 * 768 * 2);
        // XLM's wider heads cost proportionally more.
        assert_eq!(TransformerConfig::xlm().kv_bytes_per_token(2), 2 * 12 * 2048 * 2);
    }

    #[test]
    fn four_models_in_order() {
        let names: Vec<&str> = TransformerConfig::all().iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["BERT", "TrXL", "T5", "XLM"]);
    }
}
