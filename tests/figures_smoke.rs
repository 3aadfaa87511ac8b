//! Smoke tests: every figure/table generator produces well-formed output
//! with the paper's qualitative shapes (`tests/golden_figures.rs` pins
//! the exact renders).

use fusemax::eval::fig8_9::{figure, Metric, Scope};
use fusemax::eval::{fig12, fig1b, fig6, fig7, summary, table1};
use fusemax::model::ModelParams;
use fusemax::workloads::TransformerConfig;

#[test]
fn fig1b_all_models() {
    for cfg in TransformerConfig::all() {
        let g = fig1b::fig1b(&cfg);
        assert_eq!(g.rows.len(), 3);
        assert_eq!(g.cols.len(), 6);
        assert!(g.get("Attn", "1M").unwrap() > 0.9, "{}", cfg.name);
        assert!(!g.to_csv().is_empty());
    }
}

#[test]
fn fig6_both_arrays_have_four_panels_of_five_configs() {
    let params = ModelParams::default();
    for array in [fig6::Array::OneD, fig6::Array::TwoD] {
        let panels = fig6::fig6(array, &params);
        assert_eq!(panels.len(), 4);
        for p in &panels {
            assert_eq!(p.rows.len(), 5);
            assert_eq!(p.cols.len(), 6);
        }
    }
}

#[test]
fn fig7_active_shares_are_shaped_like_the_paper() {
    let params = ModelParams::default();
    let panels = fig7::fig7(&params);
    assert_eq!(panels.len(), 6);
    // At every length, +B's idle share is the smallest of the four configs.
    for panel in &panels {
        let idle_row = panel.rows.iter().position(|r| r == "idle").unwrap();
        let idle = &panel.values[idle_row];
        let b = idle[3];
        assert!(idle[..3].iter().all(|&x| x >= b - 1e-9), "{}: {idle:?}", panel.title);
    }
}

#[test]
fn figs_8_through_11_have_correct_shape() {
    let params = ModelParams::default();
    for (scope, metric) in [
        (Scope::Attention, Metric::Speedup),
        (Scope::Attention, Metric::EnergyUse),
        (Scope::EndToEnd, Metric::Speedup),
        (Scope::EndToEnd, Metric::EnergyUse),
    ] {
        let panels = figure(scope, metric, &params);
        assert_eq!(panels.len(), 4);
        for p in &panels {
            assert_eq!(p.rows.len(), 4); // FLAT, +C, +A, +B
            assert_eq!(p.cols.len(), 6);
            for row in &p.values {
                assert!(row.iter().all(|v| v.is_finite() && *v > 0.0), "{}", p.title);
            }
        }
    }
}

#[test]
fn fig12_has_pareto_structure_for_all_models() {
    let params = ModelParams::default();
    let curves = fig12::fig12(&params);
    assert_eq!(curves.len(), 4);
    for (name, points) in &curves {
        assert_eq!(points.len(), fig12::ARRAY_DIMS.len());
        for w in points.windows(2) {
            assert!(w[1].area_cm2 > w[0].area_cm2, "{name}");
            assert!(w[1].latency_s < w[0].latency_s, "{name}");
        }
    }
}

#[test]
fn table1_classifications_all_verified() {
    let rows = table1::table1().unwrap();
    assert_eq!(rows.len(), 9);
    assert!(rows.iter().all(|r| r.computed == r.expected));
}

#[test]
fn headline_matches_paper_bands() {
    // Paper §VI: 6.7× @ 79% (attention) and 5.3× @ 83% (e2e) vs FLAT;
    // 10× @ 77% and 7.6× @ 82% vs unfused. Our reproduction's bands:
    let h = summary::headline(&ModelParams::default());
    assert!((4.0..14.0).contains(&h.attention_speedup_vs_flat), "{h}");
    assert!((6.0..16.0).contains(&h.attention_speedup_vs_unfused), "{h}");
    assert!((0.5..0.95).contains(&h.attention_energy_vs_flat), "{h}");
    assert!((3.0..12.0).contains(&h.e2e_speedup_vs_flat), "{h}");
    assert!(h.e2e_energy_vs_flat < 1.0 && h.e2e_energy_vs_unfused < 1.0, "{h}");
}

#[test]
fn exp_cost_ablation_changes_fusemax_but_not_baselines() {
    // Sensitivity knob `ModelParams::exp_maccs`: the baselines charge 1-op
    // softmax Einsums regardless of exp_maccs; FuseMax pays for its MACC
    // chain.
    use fusemax::model::{attention_report, ConfigKind};
    let bert = TransformerConfig::bert();
    let cheap = ModelParams { exp_maccs: 1.0, ..ModelParams::default() };
    let default = ModelParams::default();
    let l = 1 << 16;

    let flat_a = attention_report(ConfigKind::Flat, &bert, l, None, &default);
    let flat_b = attention_report(ConfigKind::Flat, &bert, l, None, &cheap);
    assert_eq!(flat_a.cycles, flat_b.cycles);

    let fm_a = attention_report(ConfigKind::FuseMaxBinding, &bert, l, None, &default);
    let fm_b = attention_report(ConfigKind::FuseMaxBinding, &bert, l, None, &cheap);
    assert!(fm_b.cycles < fm_a.cycles, "cheaper exp must speed FuseMax up");
}
