//! The §VI headline numbers: averages of Figs 8–11 across all models and
//! sequence lengths.

use fusemax_model::{attention_report, e2e_report, ConfigKind, ModelParams};
use fusemax_workloads::{TransformerConfig, SEQ_LENGTHS};
use std::fmt;

/// FuseMax's headline comparison (paper §I/§VI: 6.7× at 79 % energy on
/// attention and 5.3× at 83 % on end-to-end inference vs FLAT; 10× / 77 %
/// and 7.6× / 82 % vs the unfused baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Mean attention speedup of +Binding over FLAT.
    pub attention_speedup_vs_flat: f64,
    /// Mean attention speedup of +Binding over the unfused baseline.
    pub attention_speedup_vs_unfused: f64,
    /// Mean attention energy of +Binding relative to FLAT.
    pub attention_energy_vs_flat: f64,
    /// Mean attention energy of +Binding relative to the unfused baseline.
    pub attention_energy_vs_unfused: f64,
    /// Mean end-to-end speedup over FLAT.
    pub e2e_speedup_vs_flat: f64,
    /// Mean end-to-end speedup over the unfused baseline.
    pub e2e_speedup_vs_unfused: f64,
    /// Mean end-to-end energy relative to FLAT.
    pub e2e_energy_vs_flat: f64,
    /// Mean end-to-end energy relative to the unfused baseline.
    pub e2e_energy_vs_unfused: f64,
}

impl fmt::Display for Headline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "attention: {:.1}x speedup vs FLAT ({:.0}% energy), {:.1}x vs unfused ({:.0}% energy)",
            self.attention_speedup_vs_flat,
            100.0 * self.attention_energy_vs_flat,
            self.attention_speedup_vs_unfused,
            100.0 * self.attention_energy_vs_unfused,
        )?;
        write!(
            f,
            "end-to-end: {:.1}x speedup vs FLAT ({:.0}% energy), {:.1}x vs unfused ({:.0}% energy)",
            self.e2e_speedup_vs_flat,
            100.0 * self.e2e_energy_vs_flat,
            self.e2e_speedup_vs_unfused,
            100.0 * self.e2e_energy_vs_unfused,
        )
    }
}

/// Computes the headline averages over all four models and six lengths.
pub fn headline(params: &ModelParams) -> Headline {
    let mut acc = [0.0f64; 8];
    let mut n = 0.0;
    for cfg in TransformerConfig::all() {
        for &l in &SEQ_LENGTHS {
            let a_unf = attention_report(ConfigKind::Unfused, &cfg, l, None, params);
            let a_flat = attention_report(ConfigKind::Flat, &cfg, l, None, params);
            let a_fm = attention_report(ConfigKind::FuseMaxBinding, &cfg, l, None, params);
            let e_unf = e2e_report(ConfigKind::Unfused, &cfg, l, params);
            let e_flat = e2e_report(ConfigKind::Flat, &cfg, l, params);
            let e_fm = e2e_report(ConfigKind::FuseMaxBinding, &cfg, l, params);
            acc[0] += a_flat.cycles / a_fm.cycles;
            acc[1] += a_unf.cycles / a_fm.cycles;
            acc[2] += a_fm.energy.total_pj() / a_flat.energy.total_pj();
            acc[3] += a_fm.energy.total_pj() / a_unf.energy.total_pj();
            acc[4] += e_flat.cycles / e_fm.cycles;
            acc[5] += e_unf.cycles / e_fm.cycles;
            acc[6] += e_fm.energy.total_pj() / e_flat.energy.total_pj();
            acc[7] += e_fm.energy.total_pj() / e_unf.energy.total_pj();
            n += 1.0;
        }
    }
    Headline {
        attention_speedup_vs_flat: acc[0] / n,
        attention_speedup_vs_unfused: acc[1] / n,
        attention_energy_vs_flat: acc[2] / n,
        attention_energy_vs_unfused: acc[3] / n,
        e2e_speedup_vs_flat: acc[4] / n,
        e2e_speedup_vs_unfused: acc[5] / n,
        e2e_energy_vs_flat: acc[6] / n,
        e2e_energy_vs_unfused: acc[7] / n,
    }
}

/// The serving headline: FuseMax+Binding versus FLAT under the canonical
/// mixed prefill/decode trace (a scenario the paper's fixed-sequence-length
/// figures cannot measure; see `crates/serve`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingHeadline {
    /// +Binding goodput relative to FLAT (higher is better).
    pub goodput_vs_flat: f64,
    /// +Binding p99 time-to-first-token relative to FLAT (lower is
    /// better).
    pub p99_ttft_vs_flat: f64,
    /// +Binding absolute p99 TTFT in seconds on the canonical trace.
    pub p99_ttft_s: f64,
}

impl fmt::Display for ServingHeadline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serving: {:.1}x goodput vs FLAT at {:.0}% of its p99 TTFT \
             (p99 {:.3}s on the canonical mixed trace)",
            self.goodput_vs_flat,
            100.0 * self.p99_ttft_vs_flat,
            self.p99_ttft_s,
        )
    }
}

/// The canonical mixed trace behind [`serving_headline`]: Poisson
/// arrivals, a 3:1 short/long prompt mix, short decode phases — enough
/// offered load to queue on FLAT without drowning either design.
pub fn canonical_trace() -> fusemax_serve::Trace {
    fusemax_serve::TrafficSpec {
        arrivals: fusemax_serve::Arrivals::Poisson { rate_per_s: 200.0 },
        prompt_mix: fusemax_serve::LengthMix::new([(512, 3.0), (4096, 1.0)]),
        output_mix: fusemax_serve::LengthMix::uniform([8, 32]),
        requests: 60,
    }
    .generate(2024)
}

/// Computes the serving headline: BERT on the iso-area cloud chips, FLAT
/// versus +Binding, over [`canonical_trace`].
pub fn serving_headline(params: &ModelParams) -> ServingHeadline {
    use fusemax_serve::ServeSim;
    let trace = canonical_trace();
    let bert = TransformerConfig::bert();
    let run = |kind: ConfigKind| {
        ServeSim::builder(kind, kind.default_arch(), bert.clone(), params.clone())
            .build()
            .run(&trace)
    };
    let flat = run(ConfigKind::Flat);
    let fusemax = run(ConfigKind::FuseMaxBinding);
    ServingHeadline {
        goodput_vs_flat: fusemax.goodput_rps / flat.goodput_rps,
        p99_ttft_vs_flat: fusemax.ttft.p99 / flat.ttft.p99,
        p99_ttft_s: fusemax.ttft.p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_headline_favors_fusemax() {
        let h = serving_headline(&ModelParams::default());
        assert!(h.goodput_vs_flat >= 1.0, "goodput ratio {}", h.goodput_vs_flat);
        assert!(
            h.p99_ttft_vs_flat < 1.0,
            "+Binding must cut FLAT's p99 TTFT, got {}",
            h.p99_ttft_vs_flat
        );
        assert!(h.p99_ttft_s > 0.0);
        let text = h.to_string();
        assert!(text.contains("serving:"), "{text}");
    }

    #[test]
    fn canonical_trace_is_stable() {
        assert_eq!(canonical_trace(), canonical_trace());
        assert_eq!(canonical_trace().len(), 60);
    }

    #[test]
    fn headline_shapes_match_the_paper() {
        // Paper: 6.7×/79% (attention) and 5.3×/83% (e2e) vs FLAT; 10×/77%
        // and 7.6×/82% vs unfused. Our substrate is an analytical model of
        // our own construction, so we check bands, not exact values (the
        // `headline_summary` bench prints the measured numbers).
        let h = headline(&ModelParams::default());
        assert!(
            (4.0..14.0).contains(&h.attention_speedup_vs_flat),
            "attention vs FLAT = {}",
            h.attention_speedup_vs_flat
        );
        assert!(
            (6.0..16.0).contains(&h.attention_speedup_vs_unfused),
            "attention vs unfused = {}",
            h.attention_speedup_vs_unfused
        );
        assert!(
            (0.5..0.95).contains(&h.attention_energy_vs_flat),
            "attention energy vs FLAT = {}",
            h.attention_energy_vs_flat
        );
        assert!(
            (0.4..0.95).contains(&h.attention_energy_vs_unfused),
            "attention energy vs unfused = {}",
            h.attention_energy_vs_unfused
        );
        assert!(h.e2e_speedup_vs_flat > 2.0);
        assert!(h.e2e_speedup_vs_unfused > 2.0);
        assert!(h.e2e_energy_vs_flat < 1.0);
        assert!(h.e2e_energy_vs_unfused < 1.0);
    }

    #[test]
    fn e2e_gains_are_smaller_than_attention_gains() {
        // Linear layers are identical across configs, diluting the ratio.
        let h = headline(&ModelParams::default());
        assert!(h.e2e_speedup_vs_unfused < h.attention_speedup_vs_unfused);
    }

    #[test]
    fn display_mentions_both_scopes() {
        let text = headline(&ModelParams::default()).to_string();
        assert!(text.contains("attention:"));
        assert!(text.contains("end-to-end:"));
    }
}
