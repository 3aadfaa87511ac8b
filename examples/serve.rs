//! Traffic-driven serving: drive design points with a seeded request
//! trace and pick the best *server* instead of the best single-point
//! latency.
//!
//! Run with `cargo run --release --example serve`. Optional flags:
//! `--requests N` (trace size, default 60), `--rate R` (requests/s,
//! default 150), `--seed S` (trace seed, default 7), `--sla MS`
//! (p99 TTFT ceiling in milliseconds, default 250),
//! `--chunk-tokens N` (prefill chunk budget per iteration; 0 = whole
//! prompt, the default), `--queue-order fcfs|spf` (waiting-queue
//! admission order, default FCFS), and `--trace-out PATH` (or the
//! `FUSEMAX_TRACE` environment variable) to export the +Binding serving
//! run as a Chrome-trace/Perfetto JSON timeline — open it at
//! <https://ui.perfetto.dev> or chrome://tracing — plus a metrics
//! snapshot at `target/telemetry_summary.json`.
//!
//! Fleet flags: `--replicas N` serves the trace on N data-parallel
//! copies of the +Binding chip, `--router rr|ll|sp` picks the routing
//! policy (round-robin, least-loaded, shortest-prompt), and
//! `--disaggregate P:D` dedicates P prefill chips feeding D decode
//! chips with the K/V handoff charged at DRAM bandwidth.
//! `--fleet-trace-out PATH` (or `FUSEMAX_FLEET_TRACE`) exports the
//! fleet run as a Perfetto timeline with one process per chip plus a
//! router track (and a fault track when faults are injected).
//!
//! Fault-injection flags (apply to the fleet run):
//! `--fault "t=2.5:replica=1:down"` injects a scripted fault timeline
//! (`;`-separated events; kinds: `down`, `up`, `throttle=X`,
//! `brownout=X`), `--fault-seed S` generates a seeded
//! single-failure-plus-recovery scenario instead, and
//! `--shed-watermark W` sheds displaced waiting work when surviving
//! capacity drops below fraction `W`. The run prints a fault-and-retry
//! summary (retries, sheds, availability).

use fusemax::dse::{DesignSpace, FleetSpec, RouterPolicy, Sweeper};
use fusemax::model::{ConfigKind, ModelParams};
use fusemax::serve::{
    Arrivals, FaultSpec, Fleet, LengthMix, QueueOrder, SchedulerPolicy, ServeObjective, ServeSim,
    Sla, TrafficSpec,
};
use fusemax::telemetry::{fleet_trace_json, serve_trace_json, Event, Metrics, VecSink};
use fusemax::workloads::TransformerConfig;

/// `--flag <value>` from argv, with a default.
fn arg(name: &str, default: f64) -> f64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        } else if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            if let Ok(v) = v.parse() {
                return v;
            }
        }
    }
    default
}

/// `--flag <value>` from argv as a string, falling back to `env`.
fn str_arg(name: &str, env: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next() {
                return Some(v);
            }
        } else if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(v.to_string());
        }
    }
    std::env::var(env).ok().filter(|v| !v.is_empty())
}

fn main() {
    let requests = arg("--requests", 60.0) as usize;
    let rate = arg("--rate", 150.0);
    let seed = arg("--seed", 7.0) as u64;
    let sla_s = arg("--sla", 250.0) / 1e3;
    let trace_out = str_arg("--trace-out", "FUSEMAX_TRACE");
    let chunk_tokens = arg("--chunk-tokens", 0.0) as usize;
    let queue_order = match str_arg("--queue-order", "FUSEMAX_QUEUE_ORDER").as_deref() {
        Some(tok) => QueueOrder::parse(tok)
            .unwrap_or_else(|| panic!("unknown --queue-order {tok:?} (expected fcfs or spf)")),
        None => QueueOrder::Fcfs,
    };
    let policy = if chunk_tokens > 0 {
        SchedulerPolicy::chunked(chunk_tokens)
    } else {
        SchedulerPolicy::unbounded()
    }
    .with_queue_order(queue_order);
    let params = ModelParams::default();

    // --- 1. A mixed interactive trace: mostly short prompts, a long tail. ---
    let spec = TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s: rate },
        prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
        output_mix: LengthMix::uniform([8, 32]),
        requests,
    };
    if let Err(e) = spec.validate() {
        panic!("invalid traffic spec: {e}");
    }
    let trace = spec.generate(seed);
    println!(
        "Trace: {} requests over {:.2}s ({:.0} req/s offered), {} prompt + {} output tokens",
        trace.len(),
        trace.last_arrival_s(),
        trace.offered_rate_rps(),
        trace.total_prompt_tokens(),
        trace.total_output_tokens(),
    );
    println!("Scheduler: {policy}");

    // --- 2. Iso-area cloud shoot-out: FLAT vs FuseMax+Binding on BERT. ---
    let bert = TransformerConfig::bert();
    let mean_tokens = spec.prompt_mix.mean() + spec.output_mix.mean();
    let mean_request_bytes =
        (mean_tokens * (bert.kv_bytes_per_token(2) / bert.layers as u64) as f64) as u64;
    for kind in [ConfigKind::Flat, ConfigKind::FuseMaxBinding] {
        let arch = kind.default_arch();
        println!(
            "\n[{}] buffer fits ~{} mean-size requests",
            kind.label(),
            arch.max_resident_requests(mean_request_bytes),
        );
        let builder = ServeSim::builder(kind, arch, bert.clone(), params.clone()).policy(policy);
        // Instrument the +Binding run when a trace path was requested;
        // telemetry is write-only, so the printed report is unchanged.
        let (sim, sink) = if trace_out.is_some() && kind == ConfigKind::FuseMaxBinding {
            let (recorder, sink) = VecSink::recorder();
            (builder.recorder(recorder).build(), Some(sink))
        } else {
            (builder.build(), None)
        };
        println!("{}", sim.run(&trace));
        if let (Some(path), Some(sink)) = (&trace_out, sink) {
            let events = sink.events();
            std::fs::write(path, serve_trace_json(&events)).expect("write trace file");
            let summary = std::path::Path::new("target").join("telemetry_summary.json");
            std::fs::create_dir_all("target").expect("create target/");
            std::fs::write(&summary, Metrics::from_events(&events).summary_json())
                .expect("write telemetry summary");
            println!(
                "Wrote {} serve events to {path} (open at https://ui.perfetto.dev) \
                 and metrics to {}.",
                events.len(),
                summary.display(),
            );
        }
    }

    // --- 3. Fleet serving: data-parallel replicas / disaggregation. ---
    let replicas = arg("--replicas", 1.0) as usize;
    let router = match str_arg("--router", "FUSEMAX_ROUTER").as_deref() {
        Some(tok) => RouterPolicy::parse(tok)
            .unwrap_or_else(|| panic!("unknown --router {tok:?} (expected rr, ll, or sp)")),
        None => RouterPolicy::RoundRobin,
    };
    let fleet_spec = match str_arg("--disaggregate", "FUSEMAX_DISAGGREGATE") {
        Some(pd) => {
            let (p, d) = pd.split_once(':').expect("--disaggregate expects P:D, e.g. 1:3");
            FleetSpec::disaggregated(
                p.parse().expect("prefill chip count"),
                d.parse().expect("decode chip count"),
            )
        }
        None => FleetSpec::replicated(replicas),
    }
    .with_router(router);
    if let Err(e) = fleet_spec.validate() {
        panic!("invalid fleet spec: {e}");
    }
    // Fault injection: a scripted timeline (--fault) or a seeded
    // single-failure-plus-recovery scenario (--fault-seed), validated
    // against the trace horizon before the fleet ever runs.
    let horizon_s = trace.last_arrival_s();
    let mut faults = match str_arg("--fault", "FUSEMAX_FAULT") {
        Some(text) => {
            FaultSpec::parse_events(&text).unwrap_or_else(|e| panic!("invalid --fault events: {e}"))
        }
        None => match str_arg("--fault-seed", "FUSEMAX_FAULT_SEED") {
            Some(s) => FaultSpec::seeded(
                s.parse().expect("--fault-seed expects an integer"),
                fleet_spec.chips(),
                horizon_s.max(f64::MIN_POSITIVE),
            ),
            None => FaultSpec::none(),
        },
    };
    if let Some(w) = str_arg("--shed-watermark", "FUSEMAX_SHED_WATERMARK") {
        faults = faults.with_shed_watermark(w.parse().expect("--shed-watermark expects a number"));
    }
    if let Err(e) = faults.validate(horizon_s) {
        panic!("invalid fault spec: {e}");
    }
    if !faults.is_empty() && fleet_spec.is_single() {
        println!("\nNote: fault injection needs a fleet — add --replicas N or --disaggregate P:D.");
    }
    let fleet_trace_out = str_arg("--fleet-trace-out", "FUSEMAX_FLEET_TRACE");
    if !fleet_spec.is_single() {
        let kind = ConfigKind::FuseMaxBinding;
        let replica = ServeSim::builder(kind, kind.default_arch(), bert.clone(), params.clone())
            .policy(policy)
            .build();
        let mut fleet = Fleet::new(fleet_spec, replica).with_faults(faults.clone());
        let fleet_sink = if fleet_trace_out.is_some() {
            let (recorder, sink) = VecSink::recorder();
            fleet = fleet.with_recorder(recorder);
            Some(sink)
        } else {
            None
        };
        let detailed = fleet.run_detailed(&trace);
        println!("\n[{} fleet {fleet_spec}] merged report:", kind.label());
        println!("{}", detailed.merged);
        if detailed.kv_transfer_bytes > 0 {
            println!(
                "K/V handoff: {:.1} MiB over the wire, {:.4}s at DRAM bandwidth",
                detailed.kv_transfer_bytes as f64 / (1 << 20) as f64,
                detailed.kv_transfer_s,
            );
        }
        println!("Per-chip breakdown:");
        for (k, r) in detailed.replicas.iter().enumerate() {
            println!(
                "  chip {k}: {} completed, {:.2} req/s goodput, {:.0}% busy, p99 TTFT {:.4}s",
                r.completed,
                r.goodput_rps,
                r.utilization * 100.0,
                r.ttft.p99,
            );
        }
        if !faults.is_empty() {
            println!(
                "Fault injection ({} scripted events: {}): {}",
                faults.events.len(),
                faults.render_events(),
                detailed.faults,
            );
            if !detailed.shed_ids.is_empty() {
                println!("  shed request ids: {:?}", detailed.shed_ids);
            }
        }
        if let (Some(path), Some(sink)) = (&fleet_trace_out, fleet_sink) {
            let router_events = sink.events();
            let mut streams: Vec<(&str, &[Event])> = vec![("router", &router_events)];
            for (name, events) in &detailed.replica_events {
                streams.push((name.as_str(), events));
            }
            std::fs::write(path, fleet_trace_json(&streams)).expect("write fleet trace file");
            println!(
                "Wrote fleet trace ({} router events, {} chip tracks) to {path}.",
                router_events.len(),
                streams.len() - 1,
            );
        }
    }

    // --- 4. SLA-aware design selection over the Fig 12 chip family. ---
    let space = DesignSpace::new().with_workloads([bert.clone()]);
    let outcome = Sweeper::new(params.clone()).sweep(&space);
    let group = outcome.frontier_for("BERT", 1 << 18).expect("BERT group swept");
    let evaluations: Vec<_> = group.frontier.points().to_vec();

    let objective = ServeObjective::new(trace, Sla::p99_ttft(sla_s));
    let ranked = objective.rank(&evaluations, &params);
    println!("\nFig 12 BERT family re-ranked by served-traffic merit (SLA: p99 TTFT <= {sla_s}s):");
    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>10} {:>6}",
        "design", "area cm2", "goodput r/s", "p99 TTFT s", "r/s/cm2", "SLA"
    );
    for (e, score) in &ranked {
        println!(
            "{:<22} {:>8.2} {:>12.2} {:>12.4} {:>10.3} {:>6}",
            e.point.arch.name,
            e.area_cm2,
            score.report.goodput_rps,
            score.report.ttft.p99,
            score.goodput_per_cm2,
            if score.meets_sla { "yes" } else { "NO" },
        );
    }
    println!(
        "ranked {} designs with {} analytical-model calls",
        ranked.len(),
        objective.model_calls()
    );

    // --- 5. The punchline: serving merit vs single-point latency. ---
    let latency_best = evaluations
        .iter()
        .min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
        .expect("non-empty frontier");
    let (serve_best, _) = &ranked[0];
    println!(
        "\nLatency ranking (fixed 256K tokens) picks {}; serving ranking picks {}.",
        latency_best.point.arch.name, serve_best.point.arch.name
    );
    if latency_best.point.array_dim != serve_best.point.array_dim {
        println!(
            "Once a chip keeps up with the offered load inside the SLA, extra silicon \
             only costs area — the serving winner is the smaller design."
        );
    }
}
