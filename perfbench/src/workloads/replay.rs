//! `replay_light` and `replay_overload`: trace replays on one chip and on
//! fleets. A unit is one simulated request offered to a replay.

use super::{
    chip_256, generate, mixed, probe_model, probe_table, record_model_probes, report_bits, Tables,
};
use crate::span::{busy_by_layer, SpanId, Tracer};
use crate::{Fnv, Record, Workload};
use fusemax_dse::{DesignPoint, FleetSpec, QueueOrder, RouterPolicy, SchedulerPolicy};
use fusemax_model::ModelParams;
use fusemax_serve::{FaultSpec, Fleet, ServeReport, ServeSim, Trace};
use fusemax_telemetry::{serve_trace_json, validate_chrome_trace, Metrics, VecSink};

/// Chunked 512-token prefill with shortest-prompt-first admission.
fn spf_policy() -> SchedulerPolicy {
    SchedulerPolicy::chunked(512).with_queue_order(QueueOrder::ShortestPromptFirst)
}

fn whole_sim(point: &DesignPoint) -> ServeSim {
    ServeSim::for_point(point, &ModelParams::default())
}

fn spf_sim(point: &DesignPoint) -> ServeSim {
    ServeSim::builder_for_point(point, &ModelParams::default()).policy(spf_policy()).build()
}

/// One replay through a table built for it.
pub struct Replay {
    report: ServeReport,
    evaluations: usize,
    misses: u64,
    /// Prefill chunk of the replaying policy, which the table covers.
    chunk: Option<usize>,
    table_span: Option<SpanId>,
    span: Option<SpanId>,
}

fn replay(tr: &Tracer, sim: &ServeSim, trace: &Trace) -> Replay {
    let (table, table_span) =
        tr.span_id("table", "ServeSim::service_times", || sim.service_times(trace));
    let (report, span) = tr.span_id("sim", "ServeSim::run_with", || sim.run_with(&table, trace));
    Replay {
        report,
        evaluations: table.model_evaluations(),
        misses: table.misses(),
        chunk: sim.policy().chunk_tokens,
        table_span,
        span,
    }
}

/// What the checks need from one fleet run.
pub struct FleetRun {
    merged: ServeReport,
    replica_iterations: u64,
    retries: usize,
    shed: usize,
    imbalance: f64,
    span: Option<SpanId>,
}

fn fleet_run(tr: &Tracer, fleet: &Fleet, trace: &Trace) -> FleetRun {
    let (d, span) = tr.span_id("fleet", "Fleet::run_detailed", || fleet.run_detailed(trace));
    FleetRun {
        replica_iterations: d.replicas.iter().map(|r| r.iterations as u64).sum(),
        retries: d.faults.retries,
        shed: d.faults.shed,
        imbalance: d.imbalance_ratio(),
        merged: d.merged,
        span,
    }
}

fn check_replay(rec: &mut Record, label: &str, r: &Replay, offered: usize) {
    rec.check(r.report.completed == offered, || {
        format!("{label}: completed {} of {offered} offered", r.report.completed)
    });
    rec.check(r.misses == 0, || format!("{label}: {} table misses on a prebuilt table", r.misses));
}

fn check_fleet(rec: &mut Record, label: &str, f: &FleetRun, offered: usize) {
    rec.check(f.merged.completed + f.shed == offered, || {
        format!("{label}: completed {} + shed {} != offered {offered}", f.merged.completed, f.shed)
    });
    rec.offered += offered as u64;
    rec.lost += f.shed as u64;
}

/// Per-iteration nanoseconds of `secs` over `iterations`.
fn ns_per(secs: f64, iterations: u64) -> f64 {
    if iterations == 0 {
        0.0
    } else {
        1e9 * secs / iterations as f64
    }
}

/// Probes a fleet run's table build and, for a replicated fleet, each
/// replica's replay of its routed share; times the public router alone.
fn probe_fleet(
    tr: &Tracer,
    fleet: &Fleet,
    run: &FleetRun,
    point: &DesignPoint,
    trace: &Trace,
    rec: &mut Record,
) {
    let Some((costs, _)) = probe_table(tr, rec, run.span, &whole_sim(point), point, trace) else {
        return;
    };
    let Some((routes, route_span)) = tr.probe(None, "fleet", "Fleet::route", || fleet.route(trace))
    else {
        return;
    };
    rec.set("fleet.route_s", tr.secs(Some(route_span)));
    if fleet.spec().prefill_decode.is_some() {
        return;
    }
    let sim = whole_sim(point);
    for k in 0..fleet.spec().replicas {
        let sub = Trace {
            requests: trace
                .requests
                .iter()
                .zip(&routes)
                .filter(|(_, &r)| r == k)
                .map(|(q, _)| *q)
                .collect(),
        };
        tr.probe(run.span, "sim", "ServeSim::run_sampled_with", || {
            sim.run_sampled_with(&costs, &sub)
        });
    }
}

/// Probes the model calls of each replay's own table.
fn probe_replays(
    tr: &Tracer,
    rec: &mut Record,
    point: &DesignPoint,
    replays: &[(&Replay, &Trace)],
) {
    for (r, trace) in replays {
        probe_model(tr, rec, r.table_span, point, trace, r.chunk, r.evaluations);
    }
}

/// Writes the busy-time metrics every replay workload shares.
fn record_busy(tr: &Tracer, rec: &mut Record, sim_iterations: u64, fleet_iterations: u64) {
    let spans = tr.spans();
    let direct = busy_by_layer(&spans, false);
    let all = busy_by_layer(&spans, true);
    let sim = direct.get("sim").copied().unwrap_or(0.0);
    let fleet = direct.get("fleet").copied().unwrap_or(0.0);
    rec.set("sim.busy_s", sim);
    rec.set("sim.ns_per_iter", ns_per(sim, sim_iterations));
    rec.set("fleet.busy_s", fleet);
    rec.set("fleet.ns_per_iter", ns_per(fleet, fleet_iterations));
    rec.set("table.build_s", all.get("table").copied().unwrap_or(0.0));
    record_model_probes(tr, rec);
}

/// ROADMAP's 10^5-request replay at light load (150 req/s).
pub struct Light;

const LIGHT_REQUESTS: usize = 100_000;
/// Requests of the recorded replay whose events are exported.
const PREFIX: usize = 2_000;
const REPLICAS: usize = 4;

/// Inputs of `replay_light`.
pub struct LightInputs {
    point: DesignPoint,
    trace: Trace,
    prefix: Trace,
    faults: FaultSpec,
}

/// Outputs of one `replay_light` pass.
pub struct LightOutput {
    whole: Replay,
    spf: Replay,
    healthy: FleetRun,
    faulted: FleetRun,
    recorded: Replay,
    recorded_completions: u64,
    recorded_iterations: u64,
    events: usize,
    trace_bytes: usize,
    validated: Result<usize, String>,
}

fn least_loaded() -> FleetSpec {
    FleetSpec::replicated(REPLICAS).with_router(RouterPolicy::LeastLoaded)
}

impl Workload for Light {
    type Inputs = LightInputs;
    type Output = LightOutput;

    fn setup(&self, seed: u64, tr: &Tracer) -> LightInputs {
        let trace = generate(tr, &mixed(150.0, LIGHT_REQUESTS), seed);
        let prefix = Trace { requests: trace.requests[..PREFIX].to_vec() };
        // Two fail-stops on seed-chosen replicas, one recovery, and a shed
        // watermark, at fixed fractions of the trace horizon.
        let h = trace.last_arrival_s();
        let a = (seed % REPLICAS as u64) as usize;
        let b = (a + 1 + (seed / REPLICAS as u64 % 3) as usize) % REPLICAS;
        let faults = FaultSpec::none()
            .down(0.25 * h, a)
            .down(0.45 * h, b)
            .up(0.7 * h, b)
            .with_shed_watermark(0.6);
        LightInputs { point: chip_256(), trace, prefix, faults }
    }

    fn pass(&self, inp: &LightInputs, tr: &Tracer) -> LightOutput {
        let whole = whole_sim(&inp.point);
        let fleet = Fleet::new(least_loaded(), whole.clone());
        let whole_replay = replay(tr, &whole, &inp.trace);
        let spf = replay(tr, &spf_sim(&inp.point), &inp.trace);
        let healthy = fleet_run(tr, &fleet, &inp.trace);
        let faulted = fleet_run(tr, &fleet.with_faults(inp.faults.clone()), &inp.trace);

        // One recorded replay of the prefix, exported as a Chrome trace.
        let (recorder, sink) = VecSink::recorder();
        let recorded_sim = ServeSim::builder_for_point(&inp.point, &ModelParams::default())
            .recorder(recorder)
            .build();
        let (table, table_span) = tr.span_id("table", "ServeSim::service_times", || {
            recorded_sim.service_times(&inp.prefix)
        });
        let (report, span) = tr
            .span_id("telemetry", "VecSink::record", || recorded_sim.run_with(&table, &inp.prefix));
        let events = tr.span("telemetry", "VecSink::events", || sink.events());
        let metrics =
            tr.span("telemetry", "Metrics::from_events", || Metrics::from_events(&events));
        let json = tr.span("telemetry", "serve_trace_json", || serve_trace_json(&events));
        let validated =
            tr.span("telemetry", "validate_chrome_trace", || validate_chrome_trace(&json));
        LightOutput {
            whole: whole_replay,
            spf,
            healthy,
            faulted,
            recorded: Replay {
                report,
                evaluations: table.model_evaluations(),
                misses: table.misses(),
                chunk: recorded_sim.policy().chunk_tokens,
                table_span,
                span,
            },
            recorded_completions: metrics.counter("serve.completions"),
            recorded_iterations: metrics.counter("serve.iterations"),
            events: events.len(),
            trace_bytes: json.len(),
            validated,
        }
    }

    fn units(&self, _out: &LightOutput) -> u64 {
        (4 * LIGHT_REQUESTS + PREFIX) as u64
    }

    fn fingerprint(&self, out: &LightOutput) -> u64 {
        let mut h = Fnv::default();
        for r in [
            &out.whole.report,
            &out.spf.report,
            &out.healthy.merged,
            &out.faulted.merged,
            &out.recorded.report,
        ] {
            report_bits(&mut h, r);
        }
        for x in [out.faulted.retries, out.faulted.shed, out.events, out.trace_bytes] {
            h.u64(x as u64);
        }
        h.0
    }

    fn verify(&self, inp: &LightInputs, out: &LightOutput, tr: &Tracer, rec: &mut Record) {
        let (n, p) = (inp.trace.len(), inp.prefix.len());
        check_replay(rec, "whole/fcfs", &out.whole, n);
        check_replay(rec, "chunk512/spf", &out.spf, n);
        check_replay(rec, "recorded prefix", &out.recorded, p);
        check_fleet(rec, "least-loaded fleet", &out.healthy, n);
        check_fleet(rec, "faulted fleet", &out.faulted, n);
        rec.offered += (2 * n + p) as u64;
        rec.check(out.recorded_completions == p as u64, || {
            format!("recorded events show {} completions, not {p}", out.recorded_completions)
        });
        rec.check(out.recorded_iterations == out.recorded.report.iterations as u64, || {
            "recorded events disagree with the report's iteration count".to_string()
        });
        rec.check(matches!(out.validated, Ok(n) if n > 0), || {
            format!("exported trace invalid: {:?}", out.validated)
        });

        let mut tables = Tables::default();
        tables.built(&inp.point, None, 0, out.whole.evaluations);
        tables.built(&inp.point, Some(512), 0, out.spf.evaluations);
        // Each fleet run builds its template's table for the whole trace.
        tables.built(&inp.point, None, 0, out.whole.evaluations);
        tables.built(&inp.point, None, 0, out.whole.evaluations);
        tables.built(&inp.point, None, 1, out.recorded.evaluations);
        tables.note(rec);
        let sim_iterations = (out.whole.report.iterations + out.spf.report.iterations) as u64;
        rec.set("traffic.requests", n as f64);
        rec.set("sim.iterations", sim_iterations as f64);
        rec.set("fleet.retries", out.faulted.retries as f64);
        rec.set("fleet.shed", out.faulted.shed as f64);
        rec.set("telemetry.events", out.events as f64);
        rec.set("telemetry.trace_bytes", out.trace_bytes as f64);
        if !tr.is_on() {
            return;
        }

        rec.set(
            "sim.spf.ns_per_iter",
            ns_per(tr.secs(out.spf.span), out.spf.report.iterations as u64),
        );
        rec.set("fleet.imbalance_ratio", out.healthy.imbalance);
        let export: f64 = tr
            .spans()
            .iter()
            .filter(|s| {
                !s.probe
                    && matches!(
                        s.name,
                        "Metrics::from_events" | "serve_trace_json" | "validate_chrome_trace"
                    )
            })
            .map(|s| s.secs())
            .sum();
        rec.set("telemetry.export_s", export);
        let whole = whole_sim(&inp.point);
        let fleet = Fleet::new(least_loaded(), whole.clone());
        probe_fleet(tr, &fleet, &out.healthy, &inp.point, &inp.trace, rec);
        probe_table(tr, rec, out.faulted.span, &whole, &inp.point, &inp.trace);
        let replays =
            [(&out.whole, &inp.trace), (&out.spf, &inp.trace), (&out.recorded, &inp.prefix)];
        probe_replays(tr, rec, &inp.point, &replays);
        // Recording cost: the same prefix replayed without a recorder.
        let table = whole.service_times(&inp.prefix);
        if let Some((_, plain)) =
            tr.probe(None, "sim", "ServeSim::run_with", || whole.run_with(&table, &inp.prefix))
        {
            let plain = tr.secs(Some(plain));
            rec.set(
                "telemetry.record_overhead",
                tr.secs(out.recorded.span) / plain.max(1e-12) - 1.0,
            );
        }
        let fleet_iterations = out.healthy.replica_iterations + out.faulted.replica_iterations;
        record_busy(tr, rec, sim_iterations, fleet_iterations);
    }
}

/// Overload (2000 req/s), where the waiting queue grows with the trace.
pub struct Overload;

const OVERLOAD_REQUESTS: usize = 20_000;
const OVERLOAD_RATE: f64 = 2000.0;

/// Inputs of `replay_overload`.
pub struct OverloadInputs {
    point: DesignPoint,
    trace: Trace,
    tenth: Trace,
}

/// Outputs of one `replay_overload` pass.
pub struct OverloadOutput {
    spf: Replay,
    spf_tenth: Replay,
    whole: Replay,
    fleet: FleetRun,
}

fn disaggregated() -> FleetSpec {
    FleetSpec::disaggregated(1, 3)
}

impl Workload for Overload {
    type Inputs = OverloadInputs;
    type Output = OverloadOutput;

    fn setup(&self, seed: u64, tr: &Tracer) -> OverloadInputs {
        OverloadInputs {
            point: chip_256(),
            trace: generate(tr, &mixed(OVERLOAD_RATE, OVERLOAD_REQUESTS), seed),
            tenth: generate(tr, &mixed(OVERLOAD_RATE, OVERLOAD_REQUESTS / 10), seed),
        }
    }

    fn pass(&self, inp: &OverloadInputs, tr: &Tracer) -> OverloadOutput {
        let spf = spf_sim(&inp.point);
        let whole = whole_sim(&inp.point);
        OverloadOutput {
            spf: replay(tr, &spf, &inp.trace),
            spf_tenth: replay(tr, &spf, &inp.tenth),
            whole: replay(tr, &whole, &inp.trace),
            fleet: fleet_run(tr, &Fleet::new(disaggregated(), whole), &inp.trace),
        }
    }

    fn units(&self, _out: &OverloadOutput) -> u64 {
        (3 * OVERLOAD_REQUESTS + OVERLOAD_REQUESTS / 10) as u64
    }

    fn fingerprint(&self, out: &OverloadOutput) -> u64 {
        let mut h = Fnv::default();
        for r in [&out.spf.report, &out.spf_tenth.report, &out.whole.report, &out.fleet.merged] {
            report_bits(&mut h, r);
        }
        h.0
    }

    fn verify(&self, inp: &OverloadInputs, out: &OverloadOutput, tr: &Tracer, rec: &mut Record) {
        let (n, m) = (inp.trace.len(), inp.tenth.len());
        check_replay(rec, "chunk512/spf", &out.spf, n);
        check_replay(rec, "chunk512/spf tenth", &out.spf_tenth, m);
        check_replay(rec, "whole/fcfs", &out.whole, n);
        check_fleet(rec, "1:3 disaggregated fleet", &out.fleet, n);
        rec.offered += (2 * n + m) as u64;

        let mut tables = Tables::default();
        tables.built(&inp.point, Some(512), 0, out.spf.evaluations);
        tables.built(&inp.point, Some(512), 1, out.spf_tenth.evaluations);
        tables.built(&inp.point, None, 0, out.whole.evaluations);
        tables.built(&inp.point, None, 0, out.whole.evaluations);
        tables.note(rec);
        let sim_iterations = (out.spf.report.iterations
            + out.spf_tenth.report.iterations
            + out.whole.report.iterations) as u64;
        rec.set("traffic.requests", (n + m) as f64);
        rec.set("sim.iterations", sim_iterations as f64);
        rec.set("fleet.retries", out.fleet.retries as f64);
        rec.set("fleet.shed", out.fleet.shed as f64);
        if !tr.is_on() {
            return;
        }

        let spf = tr.secs(out.spf.span);
        rec.set("sim.spf.ns_per_iter", ns_per(spf, out.spf.report.iterations as u64));
        rec.set("sim.spf.scale_10x", spf / tr.secs(out.spf_tenth.span).max(1e-12));
        let sim = busy_by_layer(&tr.spans(), false).get("sim").copied().unwrap_or(0.0);
        rec.notes.push(format!("chunk512/spf share of sim busy time: {:.3}", spf / sim.max(1e-12)));
        rec.set("fleet.imbalance_ratio", out.fleet.imbalance);
        let fleet = Fleet::new(disaggregated(), whole_sim(&inp.point));
        probe_fleet(tr, &fleet, &out.fleet, &inp.point, &inp.trace, rec);
        let replays =
            [(&out.spf, &inp.trace), (&out.spf_tenth, &inp.tenth), (&out.whole, &inp.trace)];
        probe_replays(tr, rec, &inp.point, &replays);
        record_busy(tr, rec, sim_iterations, out.fleet.replica_iterations);
    }
}
