//! Dependency-free JSON export of sweep results: the per-group Pareto
//! frontiers with sweep stats for external plotting, and the stat-free
//! form the checked-in Fig 12 golden is written in.

use crate::sweep::{Evaluation, SweepOutcome};
use fusemax_telemetry::json::{num, quoted};

fn evaluation_object(e: &Evaluation) -> String {
    format!(
        concat!(
            "{{\"model\":{},\"kind\":{},\"seq_len\":{},\"array_dim\":{},",
            "\"arch\":{},\"frequency_hz\":{},\"buffer_bytes\":{},",
            "\"area_cm2\":{},\"latency_s\":{},\"energy_j\":{},",
            "\"cycles_per_layer\":{},\"util_2d\":{},\"util_1d\":{}}}"
        ),
        quoted(e.point.workload.name),
        quoted(e.point.kind.label()),
        e.point.seq_len,
        e.point.array_dim,
        quoted(&e.point.arch.name),
        num(e.point.arch.frequency_hz),
        e.point.arch.global_buffer_bytes,
        num(e.area_cm2),
        num(e.latency_s),
        num(e.energy_j),
        num(e.report.cycles),
        num(e.report.util_2d()),
        num(e.report.util_1d()),
    )
}

/// Serializes an outcome's per-group Pareto frontiers (points sorted by
/// area, Fig 12 style) plus the sweep stats.
///
/// # Example
///
/// ```
/// use fusemax_dse::{frontier_json, DesignSpace, Sweeper};
/// use fusemax_model::ModelParams;
///
/// let outcome = Sweeper::new(ModelParams::default())
///     .sweep(&DesignSpace::new().with_array_dims([64, 128]));
/// let json = frontier_json(&outcome);
/// assert!(json.starts_with('{') && json.contains("\"frontiers\""));
/// ```
pub fn frontier_json(outcome: &SweepOutcome) -> String {
    let groups = frontier_groups_json(outcome);
    let stats = &outcome.stats;
    format!(
        concat!(
            "{{\"frontiers\":[{}],\"stats\":{{\"candidates\":{},\"evaluated\":{},",
            "\"pruned\":{},\"cache_hits\":{},\"elapsed_s\":{},\"points_per_sec\":{}}}}}"
        ),
        groups.join(","),
        stats.candidates,
        stats.evaluated,
        stats.pruned,
        stats.cache_hits,
        num(stats.elapsed.as_secs_f64()),
        num(stats.points_per_sec()),
    )
}

/// Serializes *only* the per-group frontiers — no stats, no timings — so
/// two sweeps of the same space produce byte-identical output. This is
/// the format of the checked-in golden frontier
/// (`tests/golden/fig12_frontier.json`) that CI diffs to catch
/// analytical-model drift.
pub fn frontiers_only_json(outcome: &SweepOutcome) -> String {
    format!("{{\"frontiers\":[{}]}}", frontier_groups_json(outcome).join(","))
}

/// The per-group frontier objects shared by both exports.
fn frontier_groups_json(outcome: &SweepOutcome) -> Vec<String> {
    let mut groups = Vec::with_capacity(outcome.frontiers.len());
    for group in &outcome.frontiers {
        let points: Vec<String> =
            group.frontier.sorted_by(0).into_iter().map(|e| evaluation_object(e)).collect();
        groups.push(format!(
            "{{\"model\":{},\"seq_len\":{},\"points\":[{}]}}",
            quoted(&group.model),
            group.seq_len,
            points.join(",")
        ));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;
    use crate::sweep::Sweeper;
    use fusemax_model::{ConfigKind, ModelParams};
    use fusemax_workloads::TransformerConfig;

    fn sample() -> SweepOutcome {
        Sweeper::new(ModelParams::default()).sweep(
            &DesignSpace::new()
                .with_array_dims([64, 128])
                .with_kinds([ConfigKind::FuseMaxBinding])
                .with_workloads([TransformerConfig::bert()]),
        )
    }

    #[test]
    fn json_shape_is_plausible() {
        let json = frontier_json(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"model\":\"BERT\"").count(), 3, "group + 2 points");
        assert!(json.contains("\"points_per_sec\""));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn braces_and_brackets_balance() {
        let json = frontier_json(&sample());
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        assert_eq!(json.chars().filter(|&c| c == '"').count() % 2, 0);
    }

    #[test]
    fn quoting_escapes_specials() {
        assert_eq!(quoted("plain"), "\"plain\"");
        assert_eq!(quoted("a\"b"), "\"a\\\"b\"");
        assert_eq!(quoted("a\\b"), "\"a\\\\b\"");
        assert_eq!(quoted("a\nb"), "\"a\\u000ab\"");
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert!(num(2.5).contains('e'));
    }

    #[test]
    fn frontiers_only_json_is_deterministic_and_stat_free() {
        let a = frontiers_only_json(&sample());
        let b = frontiers_only_json(&sample());
        assert_eq!(a, b, "same space must serialize byte-identically");
        assert!(!a.contains("elapsed_s") && !a.contains("stats"));
        assert!(a.contains("\"model\":\"BERT\""));
    }
}
