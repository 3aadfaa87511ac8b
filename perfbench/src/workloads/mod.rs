//! The four workloads and what they share: the acceptance traffic mix,
//! table bookkeeping, probes and fingerprints.

pub mod codesign;
pub mod dse;
pub mod replay;

use crate::span::{busy_by_layer, SpanId, Tracer};
use crate::{run, Fnv, Options, Record, RunResult};
use fusemax_dse::search::SearchStats;
use fusemax_dse::{DesignPoint, DesignSpace, Evaluation};
use fusemax_model::{e2e_report_on, ConfigKind, ModelParams};
use fusemax_serve::{
    Arrivals, LengthMix, ServeReport, ServeSim, ServiceTimeTable, Trace, TrafficSpec,
};
use fusemax_workloads::TransformerConfig;
use std::collections::{BTreeSet, HashSet};
use std::hash::Hash;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["replay_light", "replay_overload", "codesign", "dse_search"];

/// Runs the named workload, or `None` for an unknown name.
pub fn run_named(name: &str, opts: &Options) -> Option<RunResult> {
    Some(match name {
        "replay_light" => run("replay_light", &replay::Light, opts),
        "replay_overload" => run("replay_overload", &replay::Overload, opts),
        "codesign" => run("codesign", &codesign::Codesign, opts),
        "dse_search" => run("dse_search", &dse::DseSearch, opts),
        _ => return None,
    })
}

/// The acceptance tests' traffic: Poisson arrivals, 3:1 prompts of 512
/// and 4096 tokens, 8 or 32 output tokens.
pub fn mixed(rate_per_s: f64, requests: usize) -> TrafficSpec {
    TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s },
        prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
        output_mix: LengthMix::uniform([8, 32]),
        requests,
    }
}

/// Generates a trace inside a `traffic` span.
pub fn generate(tr: &Tracer, spec: &TrafficSpec, seed: u64) -> Trace {
    tr.span("traffic", "TrafficSpec::generate", || spec.generate(seed))
}

/// The one-chip 256x256 +Binding BERT design the replays serve on.
pub fn chip_256() -> DesignPoint {
    DesignSpace::new()
        .with_workloads([TransformerConfig::bert()])
        .with_seq_lens([1 << 18])
        .with_array_dims([256])
        .points()
        .remove(0)
}

/// Identity of a service-time table: chip, prefill chunk, and trace.
type TableKey = (ConfigKind, usize, u64, Option<usize>, usize);

/// The service-time tables a pass implies: one per replay, fleet run and
/// (design, scenario) scoring. The program counts no table builds, so
/// these figures describe the workload, not the program; they are printed
/// with every run and are not metrics.
#[derive(Default)]
pub struct Tables {
    keys: Vec<TableKey>,
    evaluations: u64,
}

impl Tables {
    /// Notes one table built for `point` under its own policy on trace
    /// number `trace_id`, which cost `evaluations` model calls.
    pub fn built(
        &mut self,
        point: &DesignPoint,
        chunk: Option<usize>,
        trace_id: usize,
        evaluations: usize,
    ) {
        self.keys.push(key(point, chunk, trace_id));
        self.evaluations += evaluations as u64;
    }

    /// Notes one table per `(point, trace)` pair, built under the point's
    /// own policy.
    pub fn count_builds<'a>(
        &mut self,
        builds: impl IntoIterator<Item = (&'a DesignPoint, usize)>,
        traces: &[&Trace],
    ) {
        for (point, trace_id) in builds {
            let chunk = point.policy.chunk_tokens;
            let evaluations = table_lengths(traces[trace_id], chunk).len();
            self.built(point, chunk, trace_id, evaluations);
        }
    }

    /// Prints the tables built, how many are distinct, the share that
    /// repeats an earlier one, and the model calls they imply.
    pub fn note(&self, rec: &mut Record) {
        let distinct = self.keys.iter().collect::<HashSet<_>>().len();
        let dup =
            if self.keys.is_empty() { 0.0 } else { 1.0 - distinct as f64 / self.keys.len() as f64 };
        rec.notes.push(format!(
            "workload structure (one table per replay, fleet run and scoring; not measured): \
             tables={} distinct={distinct} dup_share={dup:.3} model_calls={}",
            self.keys.len(),
            self.evaluations
        ));
    }
}

fn key(point: &DesignPoint, chunk: Option<usize>, trace_id: usize) -> TableKey {
    (point.kind, point.array_dim, point.arch.global_buffer_bytes, chunk, trace_id)
}

/// Probes a table build of `sim` (serving `point`) on `trace` under
/// `parent`, with its model calls probed beneath it. Does nothing when the
/// tracer is off.
pub fn probe_table(
    tr: &Tracer,
    rec: &mut Record,
    parent: Option<SpanId>,
    sim: &ServeSim,
    point: &DesignPoint,
    trace: &Trace,
) -> Option<(ServiceTimeTable, SpanId)> {
    let (table, id) =
        tr.probe(parent, "table", "ServeSim::service_times", || sim.service_times(trace))?;
    let chunk = sim.policy().chunk_tokens;
    probe_model(tr, rec, Some(id), point, trace, chunk, table.model_evaluations());
    Some((table, id))
}

/// The sequence lengths a table for `trace` under prefill chunk `chunk`
/// evaluates the model at: distinct prompts, the power-of-two decode
/// buckets over the decode contexts, and the chunk boundaries below each
/// prompt that are not prompts themselves (`ServiceTimeTable::build_with_policy`).
pub fn table_lengths(trace: &Trace, chunk: Option<usize>) -> Vec<usize> {
    let prompts: BTreeSet<usize> = trace.requests.iter().map(|r| r.prompt_tokens).collect();
    let mut lengths: Vec<usize> = prompts.iter().copied().collect();
    let decode = trace
        .requests
        .iter()
        .filter(|r| r.output_tokens >= 2)
        .map(|r| (r.prompt_tokens + 1, r.prompt_tokens + r.output_tokens - 1))
        .reduce(|(a, b), (c, d)| (a.min(c), b.max(d)));
    if let Some((lo, hi)) = decode {
        let top = hi.max(1).next_power_of_two();
        let mut bucket = lo.max(1).next_power_of_two();
        lengths.push(bucket);
        while bucket < top {
            bucket *= 2;
            lengths.push(bucket);
        }
    }
    if let Some(chunk) = chunk {
        let boundaries: BTreeSet<usize> =
            trace.requests.iter().flat_map(|r| (chunk..r.prompt_tokens).step_by(chunk)).collect();
        lengths.extend(boundaries.difference(&prompts));
    }
    lengths
}

/// One `e2e_report_on` probe per model call of the table built for
/// `trace` under prefill chunk `chunk`; checks that they number
/// `evaluations`, the table's own count.
pub fn probe_model(
    tr: &Tracer,
    rec: &mut Record,
    parent: Option<SpanId>,
    point: &DesignPoint,
    trace: &Trace,
    chunk: Option<usize>,
    evaluations: usize,
) {
    let params = ModelParams::default();
    let workload = point.workload.with_batch(1);
    let lengths = table_lengths(trace, chunk);
    rec.check(lengths.len() == evaluations, || {
        format!("model probes: {} lengths for a table of {evaluations} calls", lengths.len())
    });
    for len in lengths {
        tr.probe(parent, "model", "e2e_report_on", || {
            e2e_report_on(point.kind, &workload, len, &point.arch, &params)
        });
    }
}

/// Writes `model.e2e_us_per_call` from the model probes recorded so far.
pub fn record_model_probes(tr: &Tracer, rec: &mut Record) {
    let calls: Vec<f64> =
        tr.spans().iter().filter(|s| s.layer == "model").map(|s| s.secs()).collect();
    if !calls.is_empty() {
        rec.set("model.e2e_us_per_call", 1e6 * calls.iter().sum::<f64>() / calls.len() as f64);
    }
}

/// Adds one search's bookkeeping to the `search.*` counts and notes it.
pub fn record_search(rec: &mut Record, label: &str, st: &SearchStats) {
    rec.add("search.requested", st.requested as f64);
    rec.add("search.evaluated", st.evaluated as f64);
    rec.add("search.revisits", st.revisits as f64);
    rec.add("search.screened", st.screened as f64);
    rec.add("search.batches", st.batches as f64);
    rec.notes.push(format!(
        "search {label}: requested={} evaluated={} revisits={} screened={} batches={}",
        st.requested, st.evaluated, st.revisits, st.screened, st.batches
    ));
}

/// Writes `search.useful_share` and, when traced, the busy times of the
/// `search` and `sweep` spans (`swept`: points the sweeps evaluated).
pub fn record_search_layers(tr: &Tracer, rec: &mut Record, swept: usize) {
    let get = |rec: &Record, k| rec.values.get(k).copied().unwrap_or(0.0);
    let requested = get(rec, "search.requested");
    let proposals = requested + get(rec, "search.revisits") + get(rec, "search.screened");
    rec.set("search.useful_share", requested / proposals.max(1.0));
    if !tr.is_on() {
        return;
    }
    let busy = busy_by_layer(&tr.spans(), false);
    let search_s = busy.get("search").copied().unwrap_or(0.0);
    let sweep_s = busy.get("sweep").copied().unwrap_or(0.0);
    rec.set("search.busy_s", search_s);
    rec.set("search.us_per_proposal", 1e6 * search_s / proposals.max(1.0));
    rec.set("sweep.busy_s", sweep_s);
    rec.set("sweep.points_per_s", swept as f64 / sweep_s.max(1e-12));
}

/// Mixes a serve report's counts and exact statistics into `h`.
pub fn report_bits(h: &mut Fnv, r: &ServeReport) {
    for x in [r.completed, r.output_tokens, r.iterations, r.peak_batch] {
        h.u64(x as u64);
    }
    h.u64(r.peak_resident_bytes);
    for x in [r.makespan_s, r.busy_s, r.goodput_rps, r.utilization] {
        h.f64(x);
    }
    for stats in [&r.ttft, &r.tpot, &r.e2e] {
        for x in [stats.p50, stats.p95, stats.p99] {
            h.f64(x);
        }
    }
}

/// Mixes an evaluation's design identity and objective bits into `h`.
pub fn eval_bits(h: &mut Fnv, e: &Evaluation) {
    fusemax_dse::PointKey::of(&e.point).hash(h);
    for x in [e.area_cm2, e.latency_s, e.energy_j] {
        h.f64(x);
    }
}
