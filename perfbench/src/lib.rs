//! Host-time benchmark of the fusemax simulator.
//!
//! Each workload is a batch job over inputs generated from a seed. A run
//! generates the inputs several times, repeats the job for the requested
//! number of seconds, checks the outputs with invariants, and reports what
//! the simulator cost its host: time, throughput and peak memory.
//! Simulated statistics only feed the checks and the fingerprints.
//!
//! Times are medians over the whole run (`setup_s`: of many setups spread
//! over the run, `wall_s`: of the passes after an untimed warm-up pass).
//! On a shared host, other tenants can slow a run for all of its length,
//! so no pass of it is fast; the median follows the load a run sees and
//! varies less between runs than the fastest repetition does.
//! `peak_rss_mib` is read after the setup and the warm-up pass, so it is
//! the peak of doing the job once, whatever number of passes the run fits
//! in.
//!
//! With tracing on, passes alternate between untraced and traced, the
//! traced ones record [`span::Span`]s around every call into a layer, and
//! the run reports per-layer metrics instead of the end-to-end ones.

pub mod span;
pub mod workloads;

use span::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `(name, unit)` of every end-to-end metric, reported with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("success_frac", "ratio"),
];

/// `(name, unit)` of every per-layer metric, reported with tracing on.
/// Layers a workload does not touch report 0. Metrics in `count` or
/// `bytes` are deterministic and also printed on every untraced run.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("traffic.requests", "count"),
    ("traffic.gen_s", "s"),
    ("model.e2e_us_per_call", "us"),
    ("table.build_s", "s"),
    ("sim.iterations", "count"),
    ("sim.busy_s", "s"),
    ("sim.ns_per_iter", "ns"),
    ("sim.spf.ns_per_iter", "ns"),
    ("sim.spf.scale_10x", "ratio"),
    ("fleet.busy_s", "s"),
    ("fleet.ns_per_iter", "ns"),
    ("fleet.route_s", "s"),
    ("fleet.imbalance_ratio", "ratio"),
    ("fleet.retries", "count"),
    ("fleet.shed", "count"),
    ("objective.scorings", "count"),
    ("objective.score_ms.p50", "ms"),
    ("objective.score_ms.p90", "ms"),
    ("objective.score_samples", "count"),
    ("objective.feasible_share", "ratio"),
    ("objective.rank_parallel_speedup", "ratio"),
    ("search.requested", "count"),
    ("search.evaluated", "count"),
    ("search.revisits", "count"),
    ("search.screened", "count"),
    ("search.batches", "count"),
    ("search.useful_share", "ratio"),
    ("search.busy_s", "s"),
    ("search.us_per_proposal", "us"),
    ("sweep.points", "count"),
    ("sweep.pruned", "count"),
    ("sweep.busy_s", "s"),
    ("sweep.points_per_s", "1/s"),
    ("sweep.cache_entries", "count"),
    ("telemetry.events", "count"),
    ("telemetry.export_s", "s"),
    ("telemetry.trace_bytes", "bytes"),
    ("telemetry.record_overhead", "ratio"),
    ("bench.trace_overhead_s", "s"),
];

/// Whether a per-layer metric is a deterministic count.
pub fn is_count(unit: &str) -> bool {
    unit == "count" || unit == "bytes"
}

/// FNV-1a, also usable as a [`Hasher`] for derived-`Hash` keys.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in one integer.
    pub fn u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Mixes in the bits of one float.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What one run's checks found: failures, deterministic counts, per-layer
/// timings, and the operations behind `success_frac`.
#[derive(Debug, Default)]
pub struct Record {
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Per-layer metric values by name (counts always, timings when traced).
    pub values: BTreeMap<&'static str, f64>,
    /// Simulated operations attempted (requests offered, evaluations made).
    pub offered: u64,
    /// Attempted operations that did not succeed (shed or lost requests,
    /// evaluations with non-finite objectives).
    pub lost: u64,
    /// Extra lines printed with the run (per-search breakdowns and such).
    pub notes: Vec<String>,
}

impl Record {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds `v` to a per-layer metric.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_insert(0.0) += v;
    }

    /// Sets a per-layer metric.
    pub fn set(&mut self, key: &'static str, v: f64) {
        self.values.insert(key, v);
    }
}

/// A benchmark workload: seeded inputs, a timed batch job, and its checks.
pub trait Workload {
    /// Everything generated from the seed before timing starts.
    type Inputs;
    /// What one pass of the job returns for checking.
    type Output;

    /// Generates the inputs (traces, spaces, fault timelines) from `seed`.
    fn setup(&self, seed: u64, tr: &Tracer) -> Self::Inputs;

    /// One pass of the timed batch job. Every cache starts empty.
    fn pass(&self, inputs: &Self::Inputs, tr: &Tracer) -> Self::Output;

    /// Units the pass completed (requests, scorings or design points).
    fn units(&self, out: &Self::Output) -> u64;

    /// Fingerprint of the simulated results (report and frontier bits).
    fn fingerprint(&self, out: &Self::Output) -> u64;

    /// Output checks and deterministic counts; when `tr` is on, also the
    /// probes and per-layer timings of the pass that produced `out`.
    fn verify(&self, inputs: &Self::Inputs, out: &Self::Output, tr: &Tracer, rec: &mut Record);
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its span file (`None`: nowhere).
    pub out_dir: Option<PathBuf>,
}

/// One run's result.
#[derive(Debug)]
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Units attempted over all passes.
    pub attempted: u64,
    /// Every unit attempted when a check failed, otherwise 0.
    pub failed: u64,
    /// `(name, value, unit)`: end-to-end metrics, or per-layer when traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Deterministic counts, by name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Fingerprint of the simulated results.
    pub fingerprint: u64,
    /// Human-readable report lines (counts, checks, the layer table).
    pub lines: Vec<String>,
}

/// Smallest value of a non-empty sample.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// After every pass the setup is repeated (at least once) for this long,
/// so its repetitions are drawn from the whole run, not from the first
/// moments of the process.
const SETUP_SLICE: Duration = Duration::from_millis(25);
/// Every run starts with an untimed warm-up pass. Untraced runs then time
/// at least this many passes; traced runs alternate traced and untraced
/// passes and end on the second traced one or later.
const MIN_PASSES: usize = 3;

/// Runs `w` under `opts`: setup, timed passes, checks.
pub fn run<W: Workload>(name: &'static str, w: &W, opts: &Options) -> RunResult {
    let tr = Tracer::default();

    // The inputs every pass uses; their setup is traced when tracing.
    tr.set_on(opts.trace);
    let t = Instant::now();
    let inputs = w.setup(opts.seed, &tr);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    tr.set_on(false);
    let setup_spans = tr.spans().len();

    // Timed passes. Traced runs alternate untraced and traced passes and
    // end on a traced one, whose spans the layer table is built from.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut passes = 0u64;
    let mut fingerprint = None;
    let mut mismatches = 0u64;
    let mut peak_rss = 0.0;
    let started = Instant::now();
    let out = loop {
        let tracing = opts.trace && passes % 2 == 1;
        if tracing {
            tr.truncate(setup_spans);
        }
        tr.set_op(passes + 1);
        tr.set_on(tracing);
        let t = Instant::now();
        let out = w.pass(&inputs, &tr);
        let wall = t.elapsed().as_secs_f64();
        tr.set_on(false);
        passes += 1;
        if passes == 1 {
            // The warm-up pass: the peak of doing the job once, untimed.
            peak_rss = peak_rss_mib();
        } else if tracing {
            traced.push(wall);
        } else {
            untraced.push(wall);
        }
        let fp = w.fingerprint(&out);
        if *fingerprint.get_or_insert(fp) != fp {
            mismatches += 1;
        }
        let slice = Instant::now();
        loop {
            let t = Instant::now();
            drop(w.setup(opts.seed, &tr));
            setup_s.push(t.elapsed().as_secs_f64());
            if slice.elapsed() >= SETUP_SLICE {
                break;
            }
        }
        let enough = if opts.trace {
            passes >= 4 && passes.is_multiple_of(2)
        } else {
            untraced.len() >= MIN_PASSES
        };
        if enough && started.elapsed().as_secs_f64() >= opts.seconds {
            break out;
        }
    };

    let mut rec = Record::default();
    tr.set_on(opts.trace);
    w.verify(&inputs, &out, &tr, &mut rec);
    tr.set_on(false);
    rec.check(mismatches == 0, || format!("{mismatches} passes fingerprinted differently"));
    let wall = quantile(&untraced, 0.5);

    let units = w.units(&out);
    let correct = rec.failures.is_empty();
    let attempted = units * passes;
    let mut lines = Vec::new();
    let counts: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .filter(|(_, unit)| is_count(unit))
        .map(|&(k, _)| (k, rec.values.get(k).copied().unwrap_or(0.0)))
        .collect();
    let fingerprint = fingerprint.unwrap_or(0);
    lines.push(format!(
        "{name} seed={} passes={passes} units/pass={units} fingerprint={fingerprint:016x}",
        opts.seed
    ));
    lines.push(format!(
        "counts: {}",
        counts.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
    ));
    let walls: Vec<String> = untraced.iter().map(|w| format!("{w:.4}")).collect();
    lines.push(format!(
        "untraced passes after warm-up n={} median={wall:.4} fastest={:.4} p90={:.4} threads={}, \
         walls (s): {}",
        untraced.len(),
        fastest(&untraced),
        quantile(&untraced, 0.9),
        rayon::current_num_threads(),
        walls.join(" ")
    ));
    lines.push(format!(
        "setup repetitions n={} median={:.3e} fastest={:.3e} p90={:.3e} (s); \
         VmHWM after the warm-up pass {peak_rss:.2} MiB, at the end {:.2} MiB",
        setup_s.len(),
        quantile(&setup_s, 0.5),
        fastest(&setup_s),
        quantile(&setup_s, 0.9),
        peak_rss_mib()
    ));
    lines.extend(rec.notes.iter().cloned());
    for f in &rec.failures {
        lines.push(format!("CHECK FAILED: {f}"));
    }

    let metrics = if opts.trace {
        let spans = tr.spans();
        let overhead = quantile(&traced, 0.5) - wall;
        rec.set("bench.trace_overhead_s", overhead);
        let gen_s = spans[..setup_spans]
            .iter()
            .filter(|s| s.layer == "traffic")
            .map(|s| s.secs())
            .sum::<f64>();
        rec.set("traffic.gen_s", gen_s);
        lines.extend(layer_table(name, &spans, overhead, wall));
        if let Some(dir) = &opts.out_dir {
            let path = dir.join(format!("spans_{name}_seed{}.json", opts.seed));
            match std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::write(&path, span::chrome_json(&spans)))
            {
                Ok(()) => {
                    lines.push(format!("spans: {} written to {}", spans.len(), path.display()))
                }
                Err(e) => lines.push(format!("spans: could not write {}: {e}", path.display())),
            }
        }
        PER_LAYER
            .iter()
            .map(|&(k, unit)| {
                (k, rec.values.get(k).copied().filter(|v| v.is_finite()).unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        let success = if correct && rec.offered > 0 {
            1.0 - rec.lost as f64 / rec.offered as f64
        } else if correct {
            1.0
        } else {
            0.0
        };
        vec![
            ("setup_s", quantile(&setup_s, 0.5), "s"),
            ("wall_s", wall, "s"),
            ("units_per_s", units as f64 / wall, "1/s"),
            ("peak_rss_mib", peak_rss, "MiB"),
            ("success_frac", success, "ratio"),
        ]
    };

    RunResult {
        correct,
        attempted,
        failed: if correct { 0 } else { attempted },
        metrics,
        counts,
        fingerprint,
        lines,
    }
}

/// The per-layer self-time table of a traced run, dominant layer first.
fn layer_table(name: &str, spans: &[span::Span], overhead: f64, untraced_wall: f64) -> Vec<String> {
    let mut rows: Vec<(&str, f64)> = span::self_time_by_layer(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = rows.iter().map(|r| r.1).sum();
    let mut lines =
        vec![format!("layer self time, {name} (last traced pass, probes as children):")];
    for (layer, secs) in &rows {
        lines.push(format!(
            "  {layer:<10} {:>10.4} s {:>6.1}%",
            secs,
            100.0 * secs / total.max(1e-12)
        ));
    }
    let mut dominant = String::new();
    if let Some((layer, secs)) = rows.first() {
        let _ = write!(
            dominant,
            "dominant layer: {layer} ({:.1}% of self time) | tracing overhead: {:+.4} s ({:+.1}% of untraced wall_s)",
            100.0 * secs / total.max(1e-12),
            overhead,
            100.0 * overhead / untraced_wall.max(1e-12),
        );
    }
    lines.push(dominant);
    lines
}

/// Renders the result as the one-line JSON object the benchmark ends with.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(k, v, unit)| format!("\"{k}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}", v + 0.0))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
