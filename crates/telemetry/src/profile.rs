//! Profile-oriented exports: flamegraph folded stacks, roofline tables,
//! and search-budget attribution.
//!
//! Everything here is a pure function of deterministic inputs — cost
//! trees flattened to leaf paths, analytical roofline points, or the
//! telemetry event stream — so every export is byte-reproducible and can
//! be golden-gated like the Chrome traces.
//!
//! * [`folded_stack_text`] renders leaf-path weights in the *folded
//!   stacks* format consumed by `inferno-flamegraph` / `flamegraph.pl`
//!   (`frame;frame;frame COUNT`, one line per unique stack).
//! * [`validate_folded_stacks`] is the parser-free validity gate CI runs
//!   on exported folded output, mirroring
//!   [`validate_chrome_trace`](crate::validate_chrome_trace).
//! * [`RooflinePoint`] plus [`roofline_json`] / [`roofline_csv`] export
//!   per-kernel operational-intensity tables for roofline plotting.
//! * [`SearchBudgetAttribution`] accounts for where a search budget went
//!   (screened, cache-served, fully evaluated) per strategy stream.

use std::collections::BTreeMap;

use crate::event::{num, quoted, Event, SearchEvent};

/// Render `(stack-path, weight)` leaves as inferno-style folded stacks.
///
/// Stack paths are `;`-separated frame chains, exactly as produced by a
/// cost tree's leaf flattening. Duplicate paths merge by summing their
/// weights before rounding; weights round to integer counts (the format
/// carries integers); zero-count and non-finite leaves are dropped.
/// Lines are sorted lexicographically by path, so the output is a pure
/// function of the leaf multiset.
pub fn folded_stack_text(leaves: &[(String, f64)]) -> String {
    let mut merged: BTreeMap<&str, f64> = BTreeMap::new();
    for (path, weight) in leaves {
        if weight.is_finite() {
            *merged.entry(path.as_str()).or_insert(0.0) += weight;
        }
    }
    let mut out = String::new();
    for (path, weight) in merged {
        let count = weight.round();
        if count >= 1.0 {
            out.push_str(path);
            out.push(' ');
            out.push_str(&format!("{}", count as u64));
            out.push('\n');
        }
    }
    out
}

/// Validate folded-stack text without a parser: the document must be
/// non-empty, every line must be `stack COUNT` with a positive integer
/// count, every frame in the `;`-separated stack must be non-empty and
/// free of leading/trailing whitespace, and stacks must appear in
/// strictly increasing lexicographic order (the exporter sorts and
/// merges, so any duplicate or misordering is a regression). Returns
/// the number of stack lines.
pub fn validate_folded_stacks(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_stack: Option<&str> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no count field: {line:?}", lineno + 1))?;
        let weight: u64 = weight
            .parse()
            .map_err(|e| format!("line {}: unparseable count {weight:?}: {e}", lineno + 1))?;
        if weight == 0 {
            return Err(format!("line {}: zero count (exporter drops zeros)", lineno + 1));
        }
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", lineno + 1));
        }
        for frame in stack.split(';') {
            if frame.is_empty() || frame.trim() != frame {
                return Err(format!("line {}: malformed frame {frame:?}", lineno + 1));
            }
        }
        if let Some(prev) = last_stack {
            if stack <= prev {
                return Err(format!(
                    "line {}: stacks not strictly sorted: {prev:?} then {stack:?}",
                    lineno + 1
                ));
            }
        }
        last_stack = Some(stack);
        count += 1;
    }
    if count == 0 {
        return Err("folded output has no stack lines".into());
    }
    Ok(count)
}

/// One kernel on a roofline plot: work, traffic, and which side of the
/// machine-balance ridge it lands on.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Kernel label (e.g. the einsum name).
    pub label: String,
    /// Floating-point operations (MACs counted as 2).
    pub flops: f64,
    /// Compulsory DRAM traffic in bytes.
    pub bytes: f64,
    /// Operational intensity, `flops / bytes`.
    pub intensity: f64,
    /// The machine's ridge point in flops per byte.
    pub machine_balance: f64,
    /// `true` when `intensity < machine_balance` (DRAM-limited).
    pub memory_bound: bool,
}

/// Roofline points as a deterministic JSON document
/// (`{"points":[{...},...]}`, shortest-round-trip floats, fixed field
/// order).
pub fn roofline_json(points: &[RooflinePoint]) -> String {
    let body: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"label\":{},\"flops\":{},\"bytes\":{},\"intensity\":{},\
                 \"machine_balance\":{},\"memory_bound\":{}}}",
                quoted(&p.label),
                num(p.flops),
                num(p.bytes),
                num(p.intensity),
                num(p.machine_balance),
                p.memory_bound
            )
        })
        .collect();
    format!("{{\"points\":[{}]}}", body.join(","))
}

/// Roofline points as CSV with a fixed header, one row per point.
pub fn roofline_csv(points: &[RooflinePoint]) -> String {
    let mut out = String::from("label,flops,bytes,intensity,machine_balance,memory_bound\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            p.label,
            num(p.flops),
            num(p.bytes),
            num(p.intensity),
            num(p.machine_balance),
            p.memory_bound
        ));
    }
    out
}

/// Where a search strategy's evaluation budget went, derived entirely
/// from its telemetry stream: every staged candidate is accounted to
/// exactly one of the screen, the shared cache, or a full model run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchBudgetAttribution {
    /// Candidates staged for evaluation (charged against the budget).
    pub staged: u64,
    /// Candidates rejected by the multi-fidelity screen before staging.
    pub screened_out: u64,
    /// Staged candidates served from the shared evaluation cache.
    pub cache_hits: u64,
    /// Staged candidates that ran the full analytical model.
    pub full_evals: u64,
    /// Batches flushed to the evaluation workers.
    pub flushes: u64,
    /// Annealing chains observed (0 for non-annealing strategies).
    pub chains: u64,
}

impl SearchBudgetAttribution {
    /// Tally one strategy's event stream. Serve events are ignored.
    pub fn from_events(events: &[Event]) -> Self {
        let mut a = SearchBudgetAttribution::default();
        for event in events {
            let Event::Search { kind, .. } = event else { continue };
            match kind {
                SearchEvent::Staged => a.staged += 1,
                SearchEvent::ScreenedOut => a.screened_out += 1,
                SearchEvent::CacheHit => a.cache_hits += 1,
                SearchEvent::CacheMiss => a.full_evals += 1,
                SearchEvent::FlushBatch { .. } => a.flushes += 1,
                SearchEvent::ChainStart { .. } => a.chains += 1,
                SearchEvent::FrontierInsert { .. } | SearchEvent::HypervolumeSample { .. } => {}
            }
        }
        a
    }

    /// Staged candidates that resolved (cache hit or full evaluation).
    pub fn resolved(&self) -> u64 {
        self.cache_hits + self.full_evals
    }

    /// This attribution as a deterministic JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"staged\":{},\"screened_out\":{},\"cache_hits\":{},\"full_evals\":{},\
             \"flushes\":{},\"chains\":{}}}",
            self.staged,
            self.screened_out,
            self.cache_hits,
            self.full_evals,
            self.flushes,
            self.chains
        )
    }
}

/// Per-strategy budget attribution for several streams as one JSON
/// document (`{"strategies":{"name":{...},...}}`, stream order kept).
pub fn search_budget_json(streams: &[(&str, &[Event])]) -> String {
    let body: Vec<String> = streams
        .iter()
        .map(|(name, events)| {
            format!("{}:{}", quoted(name), SearchBudgetAttribution::from_events(events).json())
        })
        .collect();
    format!("{{\"strategies\":{{{}}}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_output_merges_sorts_and_validates() {
        let leaves = vec![
            ("e2e;attention;compute_2d;QK".to_string(), 100.4),
            ("e2e;linear".to_string(), 50.0),
            ("e2e;attention;compute_2d;QK".to_string(), 0.6),
            ("e2e;attention;drain".to_string(), 0.2),
        ];
        let text = folded_stack_text(&leaves);
        assert_eq!(text, "e2e;attention;compute_2d;QK 101\ne2e;linear 50\n");
        assert_eq!(validate_folded_stacks(&text), Ok(2));
        assert_eq!(folded_stack_text(&leaves), text);
    }

    #[test]
    fn folded_validator_rejects_malformed_output() {
        assert!(validate_folded_stacks("").is_err(), "empty rejected");
        assert!(validate_folded_stacks("a;b\n").is_err(), "missing count rejected");
        assert!(validate_folded_stacks("a;b 0\n").is_err(), "zero count rejected");
        assert!(validate_folded_stacks("a;;b 3\n").is_err(), "empty frame rejected");
        assert!(validate_folded_stacks("b 1\na 2\n").is_err(), "unsorted rejected");
        assert!(validate_folded_stacks("a 1\na 2\n").is_err(), "duplicate rejected");
        assert_eq!(validate_folded_stacks("a 1\nb;c 2\n"), Ok(2));
    }

    #[test]
    fn roofline_exports_are_deterministic() {
        let points = vec![
            RooflinePoint {
                label: "QK".into(),
                flops: 1024.0,
                bytes: 64.0,
                intensity: 16.0,
                machine_balance: 308.0,
                memory_bound: true,
            },
            RooflinePoint {
                label: "AV".into(),
                flops: 4096.0,
                bytes: 8.0,
                intensity: 512.0,
                machine_balance: 308.0,
                memory_bound: false,
            },
        ];
        let json = roofline_json(&points);
        assert!(json.starts_with("{\"points\":["));
        assert!(json.contains("\"label\":\"QK\""));
        assert!(json.contains("\"memory_bound\":true"));
        assert_eq!(json, roofline_json(&points));
        let csv = roofline_csv(&points);
        assert!(csv.starts_with("label,flops,bytes,intensity,machine_balance,memory_bound\n"));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("AV,"));
    }

    #[test]
    fn budget_attribution_tallies_the_stream() {
        let events = vec![
            Event::search(0, SearchEvent::ChainStart { chain: 0 }),
            Event::search(0, SearchEvent::ScreenedOut),
            Event::search(1, SearchEvent::Staged),
            Event::search(1, SearchEvent::CacheMiss),
            Event::search(2, SearchEvent::Staged),
            Event::search(2, SearchEvent::CacheHit),
            Event::search(2, SearchEvent::FlushBatch { size: 2 }),
        ];
        let a = SearchBudgetAttribution::from_events(&events);
        assert_eq!(a.staged, 2);
        assert_eq!(a.screened_out, 1);
        assert_eq!(a.cache_hits, 1);
        assert_eq!(a.full_evals, 1);
        assert_eq!(a.flushes, 1);
        assert_eq!(a.chains, 1);
        assert_eq!(a.resolved(), a.staged);
        let json = search_budget_json(&[("annealing", &events)]);
        assert_eq!(
            json,
            "{\"strategies\":{\"annealing\":{\"staged\":2,\"screened_out\":1,\"cache_hits\":1,\
             \"full_evals\":1,\"flushes\":1,\"chains\":1}}}"
        );
    }
}
