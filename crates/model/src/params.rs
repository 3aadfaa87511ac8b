//! Tunable modeling parameters; each field documents its default and why.

/// Knobs of the analytical model, exposed for the ablation benches.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// 1D ops charged per softmax point in the *baseline* (unfused/FLAT)
    /// models: one per Einsum iteration-space point (max, sub-exp, add,
    /// div), the Timeloop convention of the paper's baseline models.
    pub baseline_softmax_ops_per_point: f64,
    /// MACCs per exponential on FuseMax arrays (§V cites a 6-MACC design).
    pub exp_maccs: f64,
    /// Fraction of the global buffer usable for tensor residency (the rest
    /// holds staging/double buffers).
    pub buffer_usable_frac: f64,
    /// FLAT's minimum row-block granularity (its dataflow searches row
    /// granularities; below this the pipeline cannot be kept busy).
    pub flat_min_rows: usize,
    /// `M0` tile used when running the 1-pass cascade on the FLAT
    /// architecture (+Cascade), set by FLAT's row granularity.
    pub cascade_tile_m0: usize,
    /// Extra cycles per epoch for the interleaved binding (+Binding).
    pub interleave_overhead_cycles: f64,
    /// Software-pipeline warm-up depth in epochs, paid per attention head
    /// (+Binding).
    pub pipeline_warmup_epochs: f64,
    /// Fill plus drain cycles charged per tile by the *serialized* binding
    /// (+Architecture), as a multiple of `array_rows + array_cols`.
    pub fill_drain_factor: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        Self {
            baseline_softmax_ops_per_point: 4.0,
            exp_maccs: 6.0,
            buffer_usable_frac: 0.9,
            flat_min_rows: 64,
            cascade_tile_m0: 64,
            interleave_overhead_cycles: 2.0,
            pipeline_warmup_epochs: 4.0,
            fill_drain_factor: 1.0,
        }
    }
}

impl ModelParams {
    /// Cycles one sub-then-exp occupies a FuseMax PE (1 subtract plus the
    /// MACC chain).
    pub fn sub_exp_cycles(&self) -> f64 {
        1.0 + self.exp_maccs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_design_doc() {
        let p = ModelParams::default();
        assert_eq!(p.baseline_softmax_ops_per_point, 4.0);
        assert_eq!(p.exp_maccs, 6.0);
        assert_eq!(p.sub_exp_cycles(), 7.0);
        assert_eq!(p.flat_min_rows, 64);
    }
}
