//! Fleet-scale serving: a deterministic router shards one [`Trace`]
//! across N replica chips of the same design, per-replica reports merge
//! into one fleet-level [`ServeReport`] with **exact** quantiles, and a
//! disaggregated topology dedicates prefill chips feeding decode chips
//! with the K/V handoff charged at DRAM bandwidth.
//!
//! # Routing
//!
//! All three [`RouterPolicy`]s are pure functions of the trace and the
//! design (no RNG), so a fleet replay is bit-identical by construction:
//!
//! * **Round-robin** — request `i` (in arrival order) goes to replica
//!   `i mod N`.
//! * **Least-loaded** — greedy assignment to the replica with the
//!   smallest accumulated *estimated* service seconds (from the shared
//!   [`ServiceTimeTable`]), ties to the lowest index.
//! * **Shortest-prompt** — length-class affinity: requests are ranked by
//!   prompt length and split into N contiguous classes, so short prompts
//!   share replicas instead of queueing behind long ones.
//!
//! # Merging
//!
//! Fleet quantiles are computed over the **union of raw per-request
//! samples** ([`crate::RunSamples`]), never by averaging per-replica
//! summaries — so the merged p99 is exactly the p99 of the whole trace.
//! A 1-replica fleet reproduces the plain [`ServeSim`] report
//! bit-for-bit (test-enforced).
//!
//! # Disaggregation
//!
//! Under [`FleetSpec::disaggregated`]`(p, d)`, the router shards
//! arrivals across the `p` prefill chips, which serve prompt-only work;
//! each finished prompt's K/V cache (the full-model
//! [`fusemax_workloads::TransformerConfig::kv_bytes_per_token`] ×
//! prompt tokens) then crosses to a decode chip in time
//! `bytes / dram_bw_bytes_per_sec`, and the `d` decode chips run the
//! engine in decode-only mode. TTFT comes from the prefill stage,
//! TPOT from the decode stage, and end-to-end latency spans both plus
//! the transfer wire time.

use crate::attribution::LatencyAttribution;
use crate::fault::{FaultKind, FaultSpec, Segment};
use crate::report::{FaultStats, LatencyStats, ServeReport};
use crate::sim::{RunSamples, ServeSim};
use crate::table::ServiceTimeTable;
use crate::traffic::{Request, Trace};
use fusemax_dse::{DesignPoint, FleetSpec, RouterPolicy};
use fusemax_model::ModelParams;
use fusemax_telemetry::{Event, Recorder, ServeEvent, VecSink};
use std::collections::HashMap;

/// A data-parallel (or prefill/decode-disaggregated) fleet of identical
/// replica chips serving one trace.
///
/// # Example
///
/// ```
/// use fusemax_model::{ConfigKind, ModelParams};
/// use fusemax_serve::{Arrivals, Fleet, FleetSpec, LengthMix, ServeSim, TrafficSpec};
/// use fusemax_workloads::TransformerConfig;
///
/// let trace = TrafficSpec {
///     arrivals: Arrivals::Poisson { rate_per_s: 120.0 },
///     prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
///     output_mix: LengthMix::uniform([8, 32]),
///     requests: 60,
/// }
/// .generate(7);
///
/// let replica = ServeSim::builder(
///     ConfigKind::FuseMaxBinding,
///     ConfigKind::FuseMaxBinding.default_arch(),
///     TransformerConfig::bert(),
///     ModelParams::default(),
/// )
/// .build();
/// let fleet = Fleet::new(FleetSpec::replicated(4), replica);
/// let report = fleet.run(&trace);
/// assert_eq!(report.completed, 60);
/// assert_eq!(report, fleet.run(&trace), "fleet replay is bit-identical");
/// ```
#[derive(Debug, Clone)]
pub struct Fleet {
    spec: FleetSpec,
    template: ServeSim,
    recorder: Recorder,
    faults: FaultSpec,
}

/// A fleet run's full breakdown: the merged fleet-level report plus
/// per-replica reports, the router's assignment, K/V-transfer totals,
/// and (when traced) each replica's event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The fleet-level report: summed throughput work, max makespan,
    /// utilization over all chips, exact quantiles over the union of
    /// per-request samples.
    pub merged: ServeReport,
    /// One report per chip — replicas in index order; for a
    /// disaggregated fleet, the `p` prefill chips then the `d` decode
    /// chips.
    pub replicas: Vec<ServeReport>,
    /// Stage-1 replica index per trace request (arrival order) — for a
    /// disaggregated fleet, the prefill-chip assignment.
    pub routes: Vec<usize>,
    /// Total K/V bytes moved between prefill and decode chips (0 for
    /// non-disaggregated fleets).
    pub kv_transfer_bytes: u64,
    /// Total wire seconds of K/V transfer at DRAM bandwidth (0 for
    /// non-disaggregated fleets).
    pub kv_transfer_s: f64,
    /// `(track name, events)` per chip when the fleet carries an enabled
    /// recorder (empty otherwise) — feed alongside the router stream to
    /// [`fusemax_telemetry::fleet_trace_json`].
    pub replica_events: Vec<(String, Vec<Event>)>,
    /// Per-request exact latency attributions over the whole fleet. For
    /// a disaggregated fleet each multi-token request's TTFT buckets come
    /// from its prefill chip, the K/V wire is charged explicitly, and the
    /// decode bucket absorbs the decode chip's own queue wait. Under
    /// fault injection, retried requests carry the named `retry` bucket
    /// and shed requests carry no attribution at all.
    pub attributions: Vec<LatencyAttribution>,
    /// Fault-handling counters: retries dispatched, requests shed, and
    /// availability. The [`Default`] value for fault-free runs.
    pub faults: FaultStats,
    /// Trace request ids shed under fault injection (ascending; empty
    /// for fault-free runs). `completed + shed_ids.len()` always equals
    /// the trace length — the conservation contract.
    pub shed_ids: Vec<usize>,
}

/// One chip's share of the fleet's work: the imbalance row of
/// [`FleetReport::imbalance`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaImbalance {
    /// Chip index (prefill chips before decode chips when disaggregated).
    pub replica: usize,
    /// Requests this chip completed.
    pub completed: usize,
    /// Busy seconds on this chip.
    pub busy_s: f64,
    /// This chip's fraction of the fleet's total busy seconds.
    pub busy_share: f64,
    /// This chip's own utilization (busy over its makespan).
    pub utilization: f64,
}

impl FleetReport {
    /// Attributes fleet imbalance per replica: each chip's completed
    /// requests, busy seconds, share of total busy time, and utilization
    /// — the forensic view behind a skewed router assignment.
    pub fn imbalance(&self) -> Vec<ReplicaImbalance> {
        let total_busy: f64 = self.replicas.iter().map(|r| r.busy_s).sum();
        self.replicas
            .iter()
            .enumerate()
            .map(|(replica, r)| ReplicaImbalance {
                replica,
                completed: r.completed,
                busy_s: r.busy_s,
                busy_share: if total_busy > 0.0 { r.busy_s / total_busy } else { 0.0 },
                utilization: r.utilization,
            })
            .collect()
    }

    /// Max-over-mean busy seconds across chips: `1.0` is a perfectly
    /// balanced fleet; `N` means one chip did all the work.
    pub fn imbalance_ratio(&self) -> f64 {
        if self.replicas.is_empty() {
            return 1.0;
        }
        let mean: f64 =
            self.replicas.iter().map(|r| r.busy_s).sum::<f64>() / self.replicas.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        self.replicas.iter().map(|r| r.busy_s).fold(0.0f64, f64::max) / mean
    }
}

impl Fleet {
    /// A fleet of `spec.chips()` copies of `replica` (its design,
    /// scheduler policy, and workload are shared by every chip).
    pub fn new(spec: FleetSpec, replica: ServeSim) -> Self {
        Fleet { spec, template: replica, recorder: Recorder::disabled(), faults: FaultSpec::none() }
    }

    /// The fleet a DSE design point describes: the point's per-chip
    /// design under its fleet axis (`point.fleet`).
    pub fn for_point(point: &DesignPoint, params: &ModelParams) -> Self {
        Fleet::new(point.fleet, ServeSim::for_point(point, params))
    }

    /// Attaches a telemetry recorder. The fleet emits router events
    /// ([`ServeEvent::Route`], [`ServeEvent::KvTransfer`]) into it, and
    /// [`FleetReport::replica_events`] additionally captures each chip's
    /// own stream. Instrumentation never changes the report.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Injects a deterministic fault timeline. A non-empty spec is
    /// validated against the trace horizon at run time; an empty spec
    /// ([`FaultSpec::none`]) is the no-op. There is one replicated path,
    /// so a replicated timeline that changes nothing reproduces the empty
    /// spec's run byte-for-byte (test-enforced). Disaggregated fleets
    /// still split: under the empty spec they run the fault-free
    /// handoff policy (ROADMAP item 2).
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The fleet shape.
    pub fn spec(&self) -> FleetSpec {
        self.spec
    }

    /// The fault timeline this fleet replays under.
    pub fn faults(&self) -> &FaultSpec {
        &self.faults
    }

    /// The stage-1 router assignment for `trace`: one replica index per
    /// request, in arrival order. Every request is routed exactly once
    /// — the conservation property the fleet proptests pin down. For a
    /// disaggregated fleet this is the prefill-chip assignment.
    pub fn route(&self, trace: &Trace) -> Vec<usize> {
        let costs = match self.spec.router {
            RouterPolicy::LeastLoaded => Some(self.template.service_times(trace)),
            _ => None,
        };
        self.stage1_routes(trace, costs.as_ref())
    }

    /// Serves `trace` on the fleet and returns the merged fleet-level
    /// report.
    pub fn run(&self, trace: &Trace) -> ServeReport {
        self.run_detailed(trace).merged
    }

    /// Serves `trace` and returns the full per-replica breakdown.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty fault spec fails
    /// [`FaultSpec::validate`] against the trace horizon.
    pub fn run_detailed(&self, trace: &Trace) -> FleetReport {
        self.run_detailed_with(&self.template.service_times(trace), trace)
    }

    /// [`Fleet::run_detailed`] on a prebuilt table for `trace` — how a
    /// [`crate::ServeObjective`] scoring hands its one table to every
    /// fault scenario's replay.
    pub(crate) fn run_detailed_with(&self, costs: &ServiceTimeTable, trace: &Trace) -> FleetReport {
        if !self.faults.is_empty() {
            if let Err(e) = self.faults.validate(trace.last_arrival_s()) {
                panic!("invalid fault spec: {e}");
            }
        }
        match self.spec.prefill_decode {
            None => self.run_replicated(trace, costs),
            // Two disaggregated policies: the fault-aware one places
            // decode handoffs by chip health in prefill-completion order,
            // the fault-free one routes them with the fleet's router in
            // handoff-arrival order (ROADMAP item 2).
            Some((p, d)) if self.faults.is_empty() => {
                self.run_disaggregated(trace, costs, p.max(1), d.max(1))
            }
            Some((p, d)) => self.run_disaggregated_faulted(trace, costs, p.max(1), d.max(1)),
        }
    }

    /// How many chips stage-1 routing spreads over.
    fn stage1_width(&self) -> usize {
        match self.spec.prefill_decode {
            Some((p, _)) => p.max(1),
            None => self.spec.replicas.max(1),
        }
    }

    fn stage1_routes(&self, trace: &Trace, costs: Option<&ServiceTimeTable>) -> Vec<usize> {
        let est = |r: &Request| -> f64 {
            let costs = costs.expect("least-loaded routing needs a service-time table");
            let decode = if r.output_tokens >= 2 {
                (r.output_tokens - 1) as f64 * costs.decode_seconds(r.prompt_tokens + 1)
            } else {
                0.0
            };
            costs.prefill_seconds(r.prompt_tokens) + decode
        };
        route_requests(self.spec.router, &trace.requests, self.stage1_width(), &est)
    }

    /// One replica chip's run over its sub-trace, optionally traced.
    fn run_replica(
        &self,
        name: String,
        sub: &Trace,
        costs: &ServiceTimeTable,
        start_prefilled: bool,
        replica_events: &mut Vec<(String, Vec<Event>)>,
    ) -> (ServeReport, RunSamples) {
        let (recorder, sink) = if self.recorder.is_enabled() {
            let (recorder, sink) = VecSink::recorder();
            (recorder, Some(sink))
        } else {
            (Recorder::disabled(), None)
        };
        let sim = self.template.fleet_replica(recorder, start_prefilled);
        let out = sim.run_sampled_with(costs, sub);
        if let Some(sink) = sink {
            replica_events.push((name, sink.events()));
        }
        out
    }

    fn run_disaggregated(
        &self,
        trace: &Trace,
        costs: &ServiceTimeTable,
        p: usize,
        d: usize,
    ) -> FleetReport {
        let routes = self.stage1_routes(trace, Some(costs));

        // Stage 1: the prefill chips serve prompt-only versions of every
        // request (prefill produces the first token, so `output = 1`
        // completes exactly at prefill end).
        let mut prefill_subs: Vec<Trace> = vec![Trace::default(); p];
        for (i, r) in trace.requests.iter().enumerate() {
            let (at, req, replica) = (r.arrival_s, r.id as u64, routes[i]);
            self.recorder.emit(|| Event::serve(at, ServeEvent::Route { req, replica }));
            prefill_subs[replica].requests.push(Request { output_tokens: 1, ..*r });
        }

        let mut replicas = Vec::with_capacity(p + d);
        let mut replica_events = Vec::new();
        let mut ttft = Vec::with_capacity(trace.len());
        let mut done_at: HashMap<usize, f64> = HashMap::with_capacity(trace.len());
        let mut prefill_attr: HashMap<usize, LatencyAttribution> =
            HashMap::with_capacity(trace.len());
        for (k, sub) in prefill_subs.iter().enumerate() {
            let (report, samples) =
                self.run_replica(format!("prefill {k}"), sub, costs, false, &mut replica_events);
            replicas.push(report);
            ttft.extend_from_slice(&samples.ttft);
            done_at.extend(samples.completions.iter().copied());
            prefill_attr.extend(samples.attributions.into_iter().map(|a| (a.req, a)));
        }

        // Requests whose single output token was produced by prefill are
        // done; the rest hand their K/V cache to a decode chip, charged
        // at DRAM bandwidth. The full-model cache moves — every layer's
        // K/V for the prompt — not just the per-layer resident slice.
        let arch = self.template.arch();
        let kv_per_token = self.template.workload().kv_bytes_per_token(arch.word_bytes);
        let dram_bw = arch.dram_bw_bytes_per_sec;
        let mut e2e: Vec<f64> = Vec::with_capacity(trace.len());
        let mut attributions: Vec<LatencyAttribution> = Vec::with_capacity(trace.len());
        let (mut kv_transfer_bytes, mut kv_transfer_s) = (0u64, 0.0f64);
        let mut kv_seconds_of: HashMap<usize, f64> = HashMap::new();
        let mut decode_all: Vec<Request> = Vec::new();
        for r in &trace.requests {
            let prefill_done = done_at[&r.id];
            if r.output_tokens <= 1 {
                e2e.push(prefill_done - r.arrival_s);
                // Prefill produced the whole output: the prefill-stage
                // attribution is the request's attribution.
                if let Some(a) = prefill_attr.remove(&r.id) {
                    attributions.push(a);
                }
                continue;
            }
            let bytes = kv_per_token * r.prompt_tokens as u64;
            let seconds = bytes as f64 / dram_bw;
            kv_transfer_bytes += bytes;
            kv_transfer_s += seconds;
            kv_seconds_of.insert(r.id, seconds);
            let req = r.id as u64;
            self.recorder.emit(|| {
                Event::serve(prefill_done, ServeEvent::KvTransfer { req, bytes, seconds })
            });
            decode_all.push(Request { arrival_s: prefill_done + seconds, ..*r });
        }
        // The engine consumes arrivals in order; handoffs are not in
        // trace order, so sort (ties by id — deterministic).
        decode_all.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));

        // Stage 2: route the handoffs across the decode chips and run
        // them decode-only.
        let est = |r: &Request| -> f64 {
            (r.output_tokens - 1) as f64 * costs.decode_seconds(r.prompt_tokens + 1)
        };
        let decode_routes = route_requests(self.spec.router, &decode_all, d, &est);
        let mut decode_subs: Vec<Trace> = vec![Trace::default(); d];
        for (j, r) in decode_all.iter().enumerate() {
            let (at, req, replica) = (r.arrival_s, r.id as u64, p + decode_routes[j]);
            self.recorder.emit(|| Event::serve(at, ServeEvent::Route { req, replica }));
            decode_subs[decode_routes[j]].requests.push(*r);
        }
        let arrival_of: HashMap<usize, f64> =
            trace.requests.iter().map(|r| (r.id, r.arrival_s)).collect();
        let mut tpot = Vec::new();
        let mut output_tokens: usize =
            trace.requests.iter().filter(|r| r.output_tokens <= 1).map(|r| r.output_tokens).sum();
        for (k, sub) in decode_subs.iter().enumerate() {
            let (report, samples) =
                self.run_replica(format!("decode {k}"), sub, costs, true, &mut replica_events);
            output_tokens += report.output_tokens;
            replicas.push(report);
            tpot.extend_from_slice(&samples.tpot);
            for &(id, done) in &samples.completions {
                let e2e_s = done - arrival_of[&id];
                e2e.push(e2e_s);
                attributions.push(LatencyAttribution::with_kv_handoff(
                    &prefill_attr[&id],
                    kv_seconds_of[&id],
                    e2e_s,
                ));
            }
        }

        let completed = e2e.len();
        let merged =
            merge_reports(&replicas, self.spec.chips(), completed, output_tokens, ttft, tpot, e2e);
        FleetReport {
            merged,
            replicas,
            routes,
            kv_transfer_bytes,
            kv_transfer_s,
            replica_events,
            attributions,
            faults: FaultStats::default(),
            shed_ids: Vec::new(),
        }
    }

    /// Narrates the fault timeline (in replay order) onto the fleet
    /// recorder before any routing — the stream-order contract in
    /// `docs/DETERMINISM.md`.
    fn narrate_faults(&self, chips: usize) {
        for e in self.faults.ordered_events() {
            let replica = e.replica % chips;
            let t = e.t_s;
            match e.kind {
                FaultKind::Down => {
                    self.recorder.emit(|| Event::serve(t, ServeEvent::ReplicaDown { replica }));
                }
                FaultKind::Up => {
                    self.recorder.emit(|| Event::serve(t, ServeEvent::ReplicaUp { replica }));
                }
                FaultKind::Throttle { slowdown } => {
                    self.recorder.emit(|| {
                        Event::serve(t, ServeEvent::Degraded { replica, slowdown, dram: false })
                    });
                }
                FaultKind::Brownout { slowdown } => {
                    self.recorder.emit(|| {
                        Event::serve(t, ServeEvent::Degraded { replica, slowdown, dram: true })
                    });
                }
            }
        }
    }

    /// The replicated path: one segment sweep over the whole fleet, with
    /// in-sweep retry/re-route of displaced requests. A healthy fleet
    /// runs one window per chip over its routed share, so its report is
    /// exactly independent replays of the shares (test-enforced).
    fn run_replicated(&self, trace: &Trace, costs: &ServiceTimeTable) -> FleetReport {
        let n = self.spec.replicas.max(1);
        let segs = self.faults.segments(n);
        self.narrate_faults(n);
        let mut routes = self.stage1_routes(trace, Some(costs));
        let mut aggs: Vec<ChipAgg> = (0..n).map(|_| ChipAgg::default()).collect();
        let mut chip_events: Vec<Vec<Event>> = vec![Vec::new(); n];
        let mut attributions = Vec::with_capacity(trace.len());
        let (mut ttft, mut e2e) =
            (Vec::with_capacity(trace.len()), Vec::with_capacity(trace.len()));
        let out = self.sweep_stage(
            trace.requests.iter().map(|&req| PendInst {
                req,
                orig_arrival_s: req.arrival_s,
                attempt: 0,
            }),
            &mut routes,
            &segs,
            0,
            costs,
            false,
            true,
            &mut aggs,
            &mut chip_events,
            &mut |done, base| {
                let attr = done.attribution(base);
                if let Some(t) = attr.ttft_s {
                    ttft.push(t);
                }
                e2e.push(attr.e2e_s);
                attributions.push(attr);
            },
        );
        debug_assert!(out.displaced.is_empty(), "in-stage retry never displaces");

        let tpot: Vec<f64> = aggs.iter().flat_map(|a| a.tpot.iter().copied()).collect();
        let buffer = self.template.arch().global_buffer_bytes;
        let replicas: Vec<ServeReport> = aggs.into_iter().map(|a| a.report(buffer)).collect();
        let completed = attributions.len();
        let output_tokens = replicas.iter().map(|r| r.output_tokens).sum();
        let merged =
            merge_reports(&replicas, self.spec.chips(), completed, output_tokens, ttft, tpot, e2e);
        let mut shed_ids = out.shed;
        shed_ids.sort_unstable();
        let replica_events = self.name_chip_events(chip_events, |k| format!("replica {k}"));
        FleetReport {
            merged,
            replicas,
            routes,
            kv_transfer_bytes: 0,
            kv_transfer_s: 0.0,
            replica_events,
            attributions,
            faults: FaultStats::of(completed, out.retries, shed_ids.len()),
            shed_ids,
        }
    }

    /// The failure-aware disaggregated path. Each round sweeps the
    /// prefill chips (with in-stage retry — a prefill-chip death never
    /// disturbs the decode chips, which simply drain), hands completed
    /// prompts' K/V caches to health-aware decode chips, and sweeps the
    /// decode chips *without* in-stage retry: a decode-chip death loses
    /// the K/V cache, so the displaced requests re-enter the next round
    /// at the prefill stage — the honest re-prefill charge.
    fn run_disaggregated_faulted(
        &self,
        trace: &Trace,
        costs: &ServiceTimeTable,
        p: usize,
        d: usize,
    ) -> FleetReport {
        let segs = self.faults.segments(p + d);
        let (pre_segs, dec_segs) = segs.split_at(p);
        self.narrate_faults(p + d);

        let arch = self.template.arch();
        let kv_per_token = self.template.workload().kv_bytes_per_token(arch.word_bytes);
        let dram_bw = arch.dram_bw_bytes_per_sec;
        let orig_of: HashMap<usize, Request> = trace.requests.iter().map(|r| (r.id, *r)).collect();

        let mut aggs: Vec<ChipAgg> = (0..p + d).map(|_| ChipAgg::default()).collect();
        let mut chip_events: Vec<Vec<Event>> = vec![Vec::new(); p + d];
        let mut attributions: Vec<LatencyAttribution> = Vec::with_capacity(trace.len());
        let mut routes = Vec::new();
        let mut shed_ids: Vec<usize> = Vec::new();
        let mut retries = 0usize;
        let mut output_tokens = 0usize;
        let (mut kv_transfer_bytes, mut kv_transfer_s) = (0u64, 0.0f64);
        let mut dec_assigned = vec![0usize; d];

        // Round 0 serves the whole trace; later rounds re-prefill the
        // requests a decode-chip death displaced. Attempts are bounded by
        // the retry budget, so the loop terminates.
        let mut pending: Vec<PendInst> = trace
            .requests
            .iter()
            .map(|r| PendInst {
                req: Request { output_tokens: 1, ..*r },
                orig_arrival_s: r.arrival_s,
                attempt: 0,
            })
            .collect();
        let mut round = 0usize;
        while !pending.is_empty() {
            pending.sort_by(|a, b| {
                a.req.arrival_s.total_cmp(&b.req.arrival_s).then(a.req.id.cmp(&b.req.id))
            });
            let tmp = Trace { requests: pending.iter().map(|i| i.req).collect() };
            let mut placed = self.stage1_routes(&tmp, Some(costs));
            let mut prefilled = Vec::new();
            let out = self.sweep_stage(
                std::mem::take(&mut pending),
                &mut placed,
                pre_segs,
                0,
                costs,
                false,
                true,
                &mut aggs[..p],
                &mut chip_events[..p],
                &mut |done, attr| prefilled.push((done, attr)),
            );
            if round == 0 {
                routes = placed;
            }
            shed_ids.extend(out.shed);
            retries += out.retries;

            // Handoffs: completed prompts with more tokens to decode move
            // their full-model K/V cache to a health-aware decode chip at
            // DRAM bandwidth, scaled by the destination's brownout.
            let mut dec_insts: Vec<PendInst> = Vec::new();
            let mut dec_chip_of: HashMap<usize, usize> = HashMap::new();
            let mut kv_seconds_of: HashMap<usize, f64> = HashMap::new();
            let mut pre_attr_of: HashMap<usize, LatencyAttribution> = HashMap::new();
            for (inst, attr) in prefilled {
                let (orig, done) = (orig_of[&inst.id], inst.done_s);
                if orig.output_tokens <= 1 {
                    output_tokens += orig.output_tokens;
                    attributions.push(inst.attribution(attr));
                    continue;
                }
                let Some((k, _, _)) = place_balanced(dec_segs, &dec_assigned, done) else {
                    // No decode chip is ever up again: the prompt's output
                    // can never be generated.
                    let req = orig.id as u64;
                    self.recorder.emit(|| Event::serve(done, ServeEvent::Shed { req }));
                    shed_ids.push(orig.id);
                    continue;
                };
                dec_assigned[k] += 1;
                let bytes = kv_per_token * orig.prompt_tokens as u64;
                let (_, _, dram_mult) = covering_multipliers(&dec_segs[k], done);
                let seconds = bytes as f64 / dram_bw * dram_mult;
                kv_transfer_bytes += bytes;
                kv_transfer_s += seconds;
                kv_seconds_of.insert(orig.id, seconds);
                pre_attr_of.insert(orig.id, attr);
                dec_chip_of.insert(orig.id, k);
                let req = orig.id as u64;
                self.recorder
                    .emit(|| Event::serve(done, ServeEvent::KvTransfer { req, bytes, seconds }));
                dec_insts.push(PendInst {
                    req: Request { arrival_s: done + seconds, ..orig },
                    orig_arrival_s: inst.orig_arrival_s,
                    attempt: inst.attempt,
                });
            }
            dec_insts.sort_by(|a, b| {
                a.req.arrival_s.total_cmp(&b.req.arrival_s).then(a.req.id.cmp(&b.req.id))
            });
            let mut dec_base: Vec<usize> =
                dec_insts.iter().map(|i| dec_chip_of[&i.req.id]).collect();

            // Stage 2: decode on the surviving decode chips — no in-stage
            // retry, because a decode-chip death loses the K/V cache and
            // the displaced requests must re-prefill next round.
            let dec_out = self.sweep_stage(
                dec_insts,
                &mut dec_base,
                dec_segs,
                p,
                costs,
                true,
                false,
                &mut aggs[p..],
                &mut chip_events[p..],
                &mut |inst, _| {
                    let pre = &pre_attr_of[&inst.id];
                    let composed = LatencyAttribution::with_kv_handoff(
                        pre,
                        kv_seconds_of[&inst.id],
                        inst.done_s - pre.arrival_s,
                    );
                    output_tokens += orig_of[&inst.id].output_tokens;
                    attributions.push(inst.attribution(composed));
                },
            );
            shed_ids.extend(dec_out.shed);
            retries += dec_out.retries;
            pending = dec_out
                .displaced
                .into_iter()
                .map(|i| PendInst { req: Request { output_tokens: 1, ..i.req }, ..i })
                .collect();
            round += 1;
        }

        let (mut ttft, mut e2e) = (Vec::new(), Vec::new());
        for a in &attributions {
            if let Some(t) = a.ttft_s {
                ttft.push(t);
            }
            e2e.push(a.e2e_s);
        }
        let tpot: Vec<f64> = aggs.iter().flat_map(|a| a.tpot.iter().copied()).collect();
        let buffer = self.template.arch().global_buffer_bytes;
        let replicas: Vec<ServeReport> = aggs.into_iter().map(|a| a.report(buffer)).collect();
        let completed = attributions.len();
        let merged =
            merge_reports(&replicas, self.spec.chips(), completed, output_tokens, ttft, tpot, e2e);
        shed_ids.sort_unstable();
        let replica_events = self.name_chip_events(chip_events, |k| {
            if k < p {
                format!("prefill {k}")
            } else {
                format!("decode {}", k - p)
            }
        });
        FleetReport {
            merged,
            replicas,
            routes,
            kv_transfer_bytes,
            kv_transfer_s,
            replica_events,
            attributions,
            faults: FaultStats::of(completed, retries, shed_ids.len()),
            shed_ids,
        }
    }

    /// Serves one stage's instances across `segs.len()` chips that may
    /// fail and recover. Each instance is placed at its arrival into an
    /// up-time window (its route in `routes` if alive, the next alive chip
    /// otherwise, the earliest future window failing that, shed failing
    /// *that*), and `routes` is overwritten with the chip it landed on.
    /// Windows run in order of their failure time so requests a death
    /// displaces can re-enter a later window, and each request is handed
    /// to `retire` with the engine's attribution as its window completes
    /// it. With `retry_in_stage` the displaced are re-routed here
    /// (replicated fleets, prefill chips); without it they bubble out in
    /// [`StageOutcome::displaced`] with their attempt already bumped and
    /// their arrival set to the backed-off re-admission time (decode
    /// chips, whose losses must re-prefill).
    #[allow(clippy::too_many_arguments)]
    fn sweep_stage(
        &self,
        instances: impl IntoIterator<Item = PendInst>,
        routes: &mut [usize],
        segs: &[Vec<Segment>],
        chip_offset: usize,
        costs: &ServiceTimeTable,
        start_prefilled: bool,
        retry_in_stage: bool,
        aggs: &mut [ChipAgg],
        chip_events: &mut [Vec<Event>],
        retire: &mut dyn FnMut(Retired, LatencyAttribution),
    ) -> StageOutcome {
        let n = segs.len();
        let mut buckets: Vec<Vec<Vec<Request>>> =
            segs.iter().map(|chip| vec![Vec::new(); chip.len()]).collect();
        // `(original arrival, attempt)` of the placed instances whose
        // arrival moved: a retry, a handoff, or a placement clamped to a
        // later window. Every other instance retires as its engine run saw
        // it, at its trace arrival and attempt 0, with no lookup at all
        // while nothing has moved (a healthy fleet).
        let mut moved: HashMap<usize, (f64, usize)> = HashMap::new();
        let mut assigned = vec![0usize; n];
        let mut out = StageOutcome::default();

        for (inst, route) in instances.into_iter().zip(routes.iter_mut()) {
            let (t, req) = (inst.req.arrival_s, inst.req.id as u64);
            match place_from(segs, *route, t) {
                Some((k, s, at)) => {
                    let replica = chip_offset + k;
                    self.recorder.emit(|| Event::serve(t, ServeEvent::Route { req, replica }));
                    assigned[k] += 1;
                    *route = k;
                    if at != inst.orig_arrival_s || inst.attempt > 0 {
                        moved.insert(inst.req.id, (inst.orig_arrival_s, inst.attempt));
                    }
                    buckets[k][s].push(Request { arrival_s: at, ..inst.req });
                }
                None => {
                    self.recorder.emit(|| Event::serve(t, ServeEvent::Shed { req }));
                    out.shed.push(inst.req.id);
                }
            }
        }

        // Windows in order of their failure instant (ties to the lower
        // chip), so a window's losses only ever target later windows.
        let mut order: Vec<(usize, usize)> =
            (0..n).flat_map(|k| (0..segs[k].len()).map(move |s| (k, s))).collect();
        order.sort_by(|&(ka, sa), &(kb, sb)| {
            segs[ka][sa].end_s.total_cmp(&segs[kb][sb].end_s).then(ka.cmp(&kb)).then(sa.cmp(&sb))
        });
        for (k, s) in order {
            let mut sub = Trace { requests: std::mem::take(&mut buckets[k][s]) };
            if sub.is_empty() {
                continue;
            }
            sub.requests.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
            let (recorder, sink) = if self.recorder.is_enabled() {
                let (recorder, sink) = VecSink::recorder();
                (recorder, Some(sink))
            } else {
                (Recorder::disabled(), None)
            };
            let sim = self.template.fleet_replica(recorder, start_prefilled);
            let run = sim.run_window(costs, &sub, &segs[k][s]);
            if let Some(sink) = sink {
                chip_events[k].extend(sink.events());
            }
            aggs[k].absorb(run.report, &run.samples);
            for (&(id, done_s), attr) in
                run.samples.completions.iter().zip(run.samples.attributions)
            {
                debug_assert_eq!(attr.req, id);
                let origin = if moved.is_empty() { None } else { moved.remove(&id) };
                let (orig_arrival_s, attempt) = origin.unwrap_or((attr.arrival_s, 0));
                retire(Retired { id, orig_arrival_s, attempt, done_s }, attr);
            }
            if run.lost_active.is_empty() && run.lost_waiting.is_empty() {
                continue;
            }

            // The window's failure displaced work. In-flight requests lost
            // their K/V; waiting ones may be shed under the watermark when
            // surviving capacity falls too low.
            let dead_at = segs[k][s].end_s;
            let survivors =
                segs.iter().filter(|chip| chip.iter().any(|seg| seg.covers(dead_at))).count();
            let shed_waiting = match self.faults.shed_watermark {
                Some(w) => (survivors as f64) < w * n as f64,
                None => false,
            };
            let by_id: HashMap<usize, Request> = sub.requests.iter().map(|r| (r.id, *r)).collect();
            let mut lost_active = run.lost_active;
            lost_active.sort_unstable();
            let mut lost_waiting = run.lost_waiting;
            lost_waiting.sort_unstable();
            let losses = lost_active
                .into_iter()
                .map(|id| (id, false))
                .chain(lost_waiting.into_iter().map(|id| (id, true)));
            for (id, waiting) in losses {
                let lost = *by_id.get(&id).expect("loss for a request of this window");
                let (orig_arrival_s, attempt) = moved.remove(&id).unwrap_or((lost.arrival_s, 0));
                let req = id as u64;
                if waiting && shed_waiting {
                    self.recorder.emit(|| Event::serve(dead_at, ServeEvent::Shed { req }));
                    out.shed.push(id);
                    continue;
                }
                let attempt = attempt + 1;
                if attempt > self.faults.retry.budget {
                    self.recorder.emit(|| Event::serve(dead_at, ServeEvent::Shed { req }));
                    out.shed.push(id);
                    continue;
                }
                let delay_s = self.faults.retry.delay_s(attempt);
                let eff = dead_at + delay_s;
                if retry_in_stage {
                    // Only count (and narrate) a retry that actually lands
                    // somewhere; a fleet with no future capacity sheds.
                    match place_balanced(segs, &assigned, eff) {
                        Some((k2, s2, at)) => {
                            out.retries += 1;
                            self.recorder.emit(|| {
                                Event::serve(dead_at, ServeEvent::Retry { req, attempt, delay_s })
                            });
                            let replica = chip_offset + k2;
                            self.recorder
                                .emit(|| Event::serve(eff, ServeEvent::Route { req, replica }));
                            assigned[k2] += 1;
                            moved.insert(id, (orig_arrival_s, attempt));
                            buckets[k2][s2].push(Request { arrival_s: at, ..lost });
                        }
                        None => {
                            self.recorder.emit(|| Event::serve(dead_at, ServeEvent::Shed { req }));
                            out.shed.push(id);
                        }
                    }
                } else {
                    out.retries += 1;
                    self.recorder.emit(|| {
                        Event::serve(dead_at, ServeEvent::Retry { req, attempt, delay_s })
                    });
                    out.displaced.push(PendInst {
                        req: Request { arrival_s: eff, ..lost },
                        orig_arrival_s,
                        attempt,
                    });
                }
            }
        }
        out
    }

    /// Labels the per-chip event streams for [`FleetReport::replica_events`]
    /// — one `(name, events)` entry per chip when traced (even for chips
    /// that stayed idle), none otherwise.
    fn name_chip_events(
        &self,
        chip_events: Vec<Vec<Event>>,
        name: impl Fn(usize) -> String,
    ) -> Vec<(String, Vec<Event>)> {
        if !self.recorder.is_enabled() {
            return Vec::new();
        }
        chip_events.into_iter().enumerate().map(|(k, events)| (name(k), events)).collect()
    }
}

/// One not-yet-completed request instance entering a
/// [`Fleet::sweep_stage`]: the request as the next engine run will see it
/// (its arrival is the effective re-admission time after any backoff or
/// K/V handoff), the original trace arrival, and how many retry attempts
/// it has consumed.
#[derive(Debug, Clone, Copy)]
struct PendInst {
    req: Request,
    orig_arrival_s: f64,
    attempt: usize,
}

/// A request instance as a [`Fleet::sweep_stage`] window completes it:
/// its trace id, original trace arrival, retry attempts consumed, and
/// completion time.
#[derive(Debug, Clone, Copy)]
struct Retired {
    id: usize,
    orig_arrival_s: f64,
    attempt: usize,
    done_s: f64,
}

impl Retired {
    /// The attribution the instance finally reports: `base` when the
    /// request never waited on a failure, otherwise `base` re-timed
    /// against the original arrival with the backoff and lost work in the
    /// named `retry` bucket.
    fn attribution(&self, base: LatencyAttribution) -> LatencyAttribution {
        if self.attempt > 0 || base.arrival_s > self.orig_arrival_s {
            LatencyAttribution::with_retry(
                &base,
                base.arrival_s - self.orig_arrival_s,
                self.orig_arrival_s,
                self.done_s - self.orig_arrival_s,
            )
        } else {
            base
        }
    }
}

/// One chip's window reports and samples across the engine runs its
/// up-time windows produce.
#[derive(Debug, Clone, Default)]
struct ChipAgg {
    windows: Vec<ServeReport>,
    ttft: Vec<f64>,
    tpot: Vec<f64>,
    e2e: Vec<f64>,
}

impl ChipAgg {
    fn absorb(&mut self, report: ServeReport, samples: &RunSamples) {
        self.windows.push(report);
        self.ttft.extend_from_slice(&samples.ttft);
        self.tpot.extend_from_slice(&samples.tpot);
        self.e2e.extend_from_slice(&samples.e2e);
    }

    /// The chip's report: its windows merged as a one-chip fleet, with
    /// the chip's buffer even when no window ran.
    fn report(self, buffer_bytes: u64) -> ServeReport {
        let ChipAgg { windows, ttft, tpot, e2e } = self;
        let completed = windows.iter().map(|w| w.completed).sum();
        let output_tokens = windows.iter().map(|w| w.output_tokens).sum();
        ServeReport {
            buffer_bytes,
            ..merge_reports(&windows, 1, completed, output_tokens, ttft, tpot, e2e)
        }
    }
}

/// What one [`Fleet::sweep_stage`] pass produced besides its completions.
#[derive(Debug, Default)]
struct StageOutcome {
    /// Instances displaced by a failure when `retry_in_stage` is off:
    /// attempt already bumped, arrival set to the re-admission time.
    displaced: Vec<PendInst>,
    /// Request ids shed in this stage.
    shed: Vec<usize>,
    /// Retry attempts dispatched.
    retries: usize,
}

/// The first chip at or after `base` (cyclically) with an up-time window
/// covering `t`; failing that, the earliest future window with the
/// arrival clamped to its start; `None` when no chip is ever up again.
fn place_from(segs: &[Vec<Segment>], base: usize, t: f64) -> Option<(usize, usize, f64)> {
    let n = segs.len();
    for j in 0..n {
        let k = (base + j) % n;
        if let Some(s) = segs[k].iter().position(|seg| seg.covers(t)) {
            return Some((k, s, t));
        }
    }
    future_window(segs, t)
}

/// The covering chip with the fewest placements so far (ties to the
/// lowest index); failing that, the earliest future window.
fn place_balanced(
    segs: &[Vec<Segment>],
    assigned: &[usize],
    t: f64,
) -> Option<(usize, usize, f64)> {
    let mut best: Option<(usize, usize)> = None;
    for (k, chip) in segs.iter().enumerate() {
        if let Some(s) = chip.iter().position(|seg| seg.covers(t)) {
            let better = match best {
                Some((bk, _)) => (assigned[k], k) < (assigned[bk], bk),
                None => true,
            };
            if better {
                best = Some((k, s));
            }
        }
    }
    match best {
        Some((k, s)) => Some((k, s, t)),
        None => future_window(segs, t),
    }
}

/// The earliest up-time window opening strictly after `t` (ties to the
/// lowest chip), with the placement time clamped to the window start.
fn future_window(segs: &[Vec<Segment>], t: f64) -> Option<(usize, usize, f64)> {
    let mut best: Option<(f64, usize, usize)> = None;
    for (k, chip) in segs.iter().enumerate() {
        for (s, seg) in chip.iter().enumerate() {
            if seg.start_s > t {
                let better = match best {
                    Some((bt, bk, _)) => (seg.start_s, k) < (bt, bk),
                    None => true,
                };
                if better {
                    best = Some((seg.start_s, k, s));
                }
                break; // windows are time-ordered per chip
            }
        }
    }
    best.map(|(start, k, s)| (k, s, start))
}

/// The `(step_time, compute, dram)` multipliers of the window covering
/// `t` (healthy `1.0`s when no window covers it — e.g. a K/V transfer
/// aimed at a window that opens later).
fn covering_multipliers(chip: &[Segment], t: f64) -> (f64, f64, f64) {
    chip.iter().find(|seg| seg.covers(t)).map_or((t, 1.0, 1.0), |seg| seg.multipliers_at(t))
}

/// Deterministic assignment of `reqs` (arrival order) to `n` chips.
/// `est` supplies the service-seconds estimate least-loaded routing
/// accumulates; the other policies never call it.
fn route_requests(
    policy: RouterPolicy,
    reqs: &[Request],
    n: usize,
    est: &dyn Fn(&Request) -> f64,
) -> Vec<usize> {
    if n <= 1 {
        return vec![0; reqs.len()];
    }
    match policy {
        RouterPolicy::RoundRobin => (0..reqs.len()).map(|i| i % n).collect(),
        RouterPolicy::LeastLoaded => {
            let mut load = vec![0.0f64; n];
            reqs.iter()
                .map(|r| {
                    let k = (0..n)
                        .min_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)))
                        .expect("n >= 1");
                    load[k] += est(r);
                    k
                })
                .collect()
        }
        RouterPolicy::ShortestPrompt => {
            // Length-class affinity: rank by prompt length (ties by
            // position) and split the ranking into n contiguous classes.
            let mut order: Vec<usize> = (0..reqs.len()).collect();
            order.sort_by_key(|&i| (reqs[i].prompt_tokens, i));
            let per = reqs.len().div_ceil(n);
            let mut routes = vec![0usize; reqs.len()];
            for (rank, &i) in order.iter().enumerate() {
                routes[i] = (rank / per.max(1)).min(n - 1);
            }
            routes
        }
    }
}

/// The fleet-level report: work sums, the fleet makespan (max over
/// chips), utilization normalized by chip count, and exact quantiles
/// over the concatenated raw samples. With one chip this reproduces the
/// plain simulator's report bit-for-bit.
fn merge_reports(
    replicas: &[ServeReport],
    chips: usize,
    completed: usize,
    output_tokens: usize,
    mut ttft: Vec<f64>,
    mut tpot: Vec<f64>,
    mut e2e: Vec<f64>,
) -> ServeReport {
    let iterations: usize = replicas.iter().map(|r| r.iterations).sum();
    // From +0.0, so a chip that never ran reports 0 busy seconds, not -0.
    let busy = replicas.iter().fold(0.0f64, |busy, r| busy + r.busy_s);
    let makespan = replicas.iter().map(|r| r.makespan_s).fold(0.0f64, f64::max);
    ServeReport {
        completed,
        output_tokens,
        iterations,
        makespan_s: makespan,
        busy_s: busy,
        goodput_rps: if makespan > 0.0 { completed as f64 / makespan } else { 0.0 },
        token_throughput_per_s: if makespan > 0.0 { output_tokens as f64 / makespan } else { 0.0 },
        utilization: if makespan > 0.0 { busy / (chips as f64 * makespan) } else { 0.0 },
        peak_resident_bytes: replicas.iter().map(|r| r.peak_resident_bytes).max().unwrap_or(0),
        peak_batch: replicas.iter().map(|r| r.peak_batch).max().unwrap_or(0),
        buffer_bytes: replicas.first().map_or(0, |r| r.buffer_bytes),
        ttft: LatencyStats::of(&mut ttft),
        tpot: LatencyStats::of(&mut tpot),
        e2e: LatencyStats::of(&mut e2e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RetryPolicy;
    use crate::traffic::{Arrivals, LengthMix, TrafficSpec};
    use fusemax_dse::{QueueOrder, SchedulerPolicy};
    use fusemax_model::ConfigKind;
    use fusemax_workloads::TransformerConfig;

    fn replica() -> ServeSim {
        replica_under(SchedulerPolicy::unbounded())
    }

    fn replica_under(policy: SchedulerPolicy) -> ServeSim {
        let kind = ConfigKind::FuseMaxBinding;
        ServeSim::builder(
            kind,
            kind.default_arch(),
            TransformerConfig::bert(),
            ModelParams::default(),
        )
        .policy(policy)
        .build()
    }

    fn mixed_trace(rate: f64, requests: usize) -> Trace {
        TrafficSpec {
            arrivals: Arrivals::Poisson { rate_per_s: rate },
            prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
            output_mix: LengthMix::uniform([4, 16]),
            requests,
        }
        .generate(23)
    }

    #[test]
    fn a_single_replica_fleet_is_bit_identical_to_the_plain_sim() {
        let trace = mixed_trace(200.0, 50);
        let plain = replica().run(&trace);
        for router in [RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded] {
            let fleet = Fleet::new(FleetSpec::single().with_router(router), replica());
            assert_eq!(fleet.run(&trace), plain, "router {router:?}");
        }
    }

    #[test]
    fn every_router_routes_every_request_exactly_once() {
        let trace = mixed_trace(400.0, 60);
        for router in
            [RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded, RouterPolicy::ShortestPrompt]
        {
            let fleet = Fleet::new(FleetSpec::replicated(4).with_router(router), replica());
            let routes = fleet.route(&trace);
            assert_eq!(routes.len(), trace.len());
            assert!(routes.iter().all(|&k| k < 4), "replica index out of range");
            let counts = routes.iter().fold(vec![0usize; 4], |mut c, &k| {
                c[k] += 1;
                c
            });
            assert_eq!(counts.iter().sum::<usize>(), trace.len());
            assert_eq!(routes, fleet.route(&trace), "routing must be deterministic");
        }
    }

    #[test]
    fn round_robin_cycles_and_shortest_prompt_groups_by_length() {
        let trace = mixed_trace(400.0, 40);
        let rr = Fleet::new(FleetSpec::replicated(3), replica()).route(&trace);
        assert!(rr.iter().enumerate().all(|(i, &k)| k == i % 3));

        let sp = Fleet::new(
            FleetSpec::replicated(2).with_router(RouterPolicy::ShortestPrompt),
            replica(),
        )
        .route(&trace);
        // All short prompts land strictly before long ones in rank order:
        // no long prompt maps to a lower class than any short prompt.
        let max_short = trace
            .requests
            .iter()
            .zip(&sp)
            .filter(|(r, _)| r.prompt_tokens == 512)
            .map(|(_, &k)| k)
            .max()
            .unwrap();
        let min_long = trace
            .requests
            .iter()
            .zip(&sp)
            .filter(|(r, _)| r.prompt_tokens == 4096)
            .map(|(_, &k)| k)
            .min()
            .unwrap();
        assert!(max_short <= min_long, "length classes must be contiguous");
    }

    #[test]
    fn merged_quantiles_are_exact_over_the_union_of_samples() {
        let trace = mixed_trace(500.0, 60);
        let fleet = Fleet::new(FleetSpec::replicated(3), replica());
        let detailed = fleet.run_detailed(&trace);

        // Recompute from scratch: shard the trace by the public route,
        // run each shard on a plain sim, concatenate raw samples.
        let routes = fleet.route(&trace);
        let costs = replica().service_times(&trace);
        let (mut ttft, mut e2e) = (Vec::new(), Vec::new());
        let mut completed = 0;
        for k in 0..3 {
            let sub = Trace {
                requests: trace
                    .requests
                    .iter()
                    .zip(&routes)
                    .filter(|(_, &r)| r == k)
                    .map(|(q, _)| *q)
                    .collect(),
            };
            let (report, samples) = replica().run_sampled_with(&costs, &sub);
            completed += report.completed;
            ttft.extend(samples.ttft);
            e2e.extend(samples.e2e);
        }
        assert_eq!(completed, detailed.merged.completed);
        assert_eq!(LatencyStats::of(&mut ttft), detailed.merged.ttft);
        assert_eq!(LatencyStats::of(&mut e2e), detailed.merged.e2e);
    }

    #[test]
    fn fleet_replays_are_bit_identical_and_tracing_changes_nothing() {
        let trace = mixed_trace(300.0, 50);
        for spec in [
            FleetSpec::replicated(4).with_router(RouterPolicy::LeastLoaded),
            FleetSpec::disaggregated(1, 3),
        ] {
            let fleet = Fleet::new(spec, replica());
            let a = fleet.run_detailed(&trace);
            let b = fleet.run_detailed(&trace);
            assert_eq!(a, b, "{spec}");
            let (recorder, sink) = VecSink::recorder();
            let traced = Fleet::new(spec, replica()).with_recorder(recorder);
            let t = traced.run_detailed(&trace);
            assert_eq!(t.merged, a.merged, "tracing must not change the report ({spec})");
            assert_eq!(t.replica_events.len(), spec.chips());
            assert!(
                sink.events()
                    .iter()
                    .any(|e| matches!(e, Event::Serve { kind: ServeEvent::Route { .. }, .. })),
                "router must emit Route events"
            );
        }
    }

    #[test]
    fn disaggregation_completes_everything_and_charges_the_kv_wire() {
        let trace = mixed_trace(300.0, 50);
        let fleet = Fleet::new(FleetSpec::disaggregated(2, 2), replica());
        let detailed = fleet.run_detailed(&trace);
        assert_eq!(detailed.merged.completed, 50);
        assert_eq!(detailed.replicas.len(), 4);
        assert_eq!(detailed.merged.ttft.samples, 50, "every prompt prefills on stage 1");
        assert!(detailed.kv_transfer_bytes > 0);
        assert!(detailed.kv_transfer_s > 0.0);
        // The wire time really is bytes over DRAM bandwidth.
        let bw = replica().arch().dram_bw_bytes_per_sec;
        let expected: f64 = detailed.kv_transfer_bytes as f64 / bw;
        assert!((detailed.kv_transfer_s - expected).abs() < 1e-9 * expected.max(1.0));
        // End-to-end latency includes both stages plus the wire, so the
        // fleet e2e mean can never beat the prefill-only stage's.
        assert!(detailed.merged.e2e.mean >= detailed.merged.ttft.mean);
    }

    #[test]
    fn a_no_op_fault_timeline_reproduces_the_fault_free_run_byte_for_byte() {
        // A non-empty timeline that changes nothing (a x1.0 throttle, an
        // `up` for a chip that is up) is validated, narrated and compiled
        // into segments, and must still reproduce the empty spec's
        // replicated run: reports and per-chip event streams. Both run
        // the one replicated path. Disaggregated fleets are left out:
        // there the empty spec takes the fault-free handoff policy
        // (ROADMAP item 2).
        let trace = mixed_trace(300.0, 50);
        let spf = QueueOrder::ShortestPromptFirst;
        for policy in [
            SchedulerPolicy::unbounded(),
            SchedulerPolicy::chunked(512).with_queue_order(spf),
            SchedulerPolicy::unbounded().with_queue_order(spf),
        ] {
            for router in
                [RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded, RouterPolicy::ShortestPrompt]
            {
                let spec = FleetSpec::replicated(3).with_router(router);
                let run = |faults: FaultSpec| {
                    let (recorder, _sink) = VecSink::recorder();
                    let fleet = Fleet::new(spec, replica_under(policy)).with_recorder(recorder);
                    fleet.with_faults(faults).run_detailed(&trace)
                };
                let fault_free = run(FaultSpec::none());
                assert_eq!(fault_free.replica_events.len(), 3);
                for no_op in [FaultSpec::none().throttle(0.0, 0, 1.0), FaultSpec::none().up(0.0, 0)]
                {
                    assert_eq!(run(no_op), fault_free, "{spec} {policy}");
                }
            }
        }
    }

    #[test]
    fn a_replica_death_conserves_requests_and_narrates_retries() {
        let trace = mixed_trace(2000.0, 60);
        let spec = FleetSpec::replicated(2);
        let faults = FaultSpec::single_failure(trace.last_arrival_s() * 0.5, 1);
        let fleet = Fleet::new(spec, replica()).with_faults(faults.clone());
        let a = fleet.run_detailed(&trace);
        // Conservation: every trace id completes XOR is shed, exactly once.
        let mut ids: Vec<usize> = a.attributions.iter().map(|at| at.req).collect();
        ids.extend(&a.shed_ids);
        ids.sort_unstable();
        assert_eq!(ids, (0..60).collect::<Vec<_>>());
        assert_eq!(a.merged.completed + a.shed_ids.len(), 60);
        assert!(a.faults.retries > 0, "a mid-trace death must displace in-flight work");
        // Displaced survivors carry the named retry bucket, and every
        // attribution still folds bit-exactly.
        for at in &a.attributions {
            at.validate().unwrap();
        }
        assert!(a.attributions.iter().any(|at| at.retry_s > 0.0));
        // Bit-identical replay.
        assert_eq!(a, fleet.run_detailed(&trace));
        // Tracing narrates the fault and changes nothing.
        let (recorder, sink) = VecSink::recorder();
        let traced = Fleet::new(spec, replica()).with_faults(faults).with_recorder(recorder);
        let t = traced.run_detailed(&trace);
        assert_eq!(t.merged, a.merged);
        assert_eq!(t.replica_events.len(), spec.chips());
        let events = sink.events();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Serve { kind: ServeEvent::ReplicaDown { replica: 1 }, .. }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Serve { kind: ServeEvent::Retry { .. }, .. })));
    }

    #[test]
    fn disaggregated_prefill_and_decode_deaths_both_conserve() {
        let trace = mixed_trace(800.0, 40);
        let t_down = trace.last_arrival_s() * 0.5;
        // Chip 0 is a prefill chip, chip 2 the first decode chip of 2p+2d.
        for victim in [0usize, 2] {
            let fleet = Fleet::new(FleetSpec::disaggregated(2, 2), replica())
                .with_faults(FaultSpec::single_failure(t_down, victim));
            let a = fleet.run_detailed(&trace);
            let mut ids: Vec<usize> = a.attributions.iter().map(|at| at.req).collect();
            ids.extend(&a.shed_ids);
            ids.sort_unstable();
            assert_eq!(ids, (0..40).collect::<Vec<_>>(), "victim chip {victim}");
            for at in &a.attributions {
                at.validate().unwrap();
            }
            assert_eq!(a, fleet.run_detailed(&trace), "victim chip {victim}");
        }
    }

    #[test]
    fn the_watermark_sheds_waiting_work_and_a_zero_budget_sheds_everything_displaced() {
        let trace = mixed_trace(2000.0, 40);
        let t_down = trace.last_arrival_s() * 0.5;
        // Budget 0 + watermark 1.0: every displaced request is shed, none
        // retried.
        let faults = FaultSpec::single_failure(t_down, 1)
            .with_retry(RetryPolicy { budget: 0, ..RetryPolicy::default() })
            .with_shed_watermark(1.0);
        let fleet = Fleet::new(FleetSpec::replicated(2), replica()).with_faults(faults);
        let a = fleet.run_detailed(&trace);
        assert_eq!(a.faults.retries, 0);
        assert!(!a.shed_ids.is_empty(), "a heavy-load death with budget 0 must shed");
        assert!(a.faults.availability < 1.0);
        assert_eq!(a.merged.completed + a.shed_ids.len(), 40);
        // With a generous budget and no watermark, the same death sheds
        // nothing: everything displaced is retried onto the survivor.
        let retried = Fleet::new(FleetSpec::replicated(2), replica())
            .with_faults(FaultSpec::single_failure(t_down, 1))
            .run_detailed(&trace);
        assert!(retried.shed_ids.is_empty());
        assert_eq!(retried.merged.completed, 40);
        assert!(retried.faults.retries > 0);
        assert_eq!(retried.faults.availability, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid fault spec")]
    fn invalid_fault_specs_panic_at_run_time() {
        let trace = mixed_trace(300.0, 10);
        Fleet::new(FleetSpec::replicated(2), replica())
            .with_faults(FaultSpec::single_failure(1e9, 0))
            .run(&trace);
    }

    #[test]
    fn recovery_heals_the_fleet_mid_trace() {
        let trace = mixed_trace(800.0, 60);
        let horizon = trace.last_arrival_s();
        let bounce = FaultSpec::none().down(horizon * 0.3, 1).up(horizon * 0.6, 1);
        let fleet = Fleet::new(FleetSpec::replicated(2), replica()).with_faults(bounce);
        let a = fleet.run_detailed(&trace);
        assert_eq!(a.merged.completed + a.shed_ids.len(), 60);
        // The healed chip serves again after recovery: its report shows
        // work, and requests arriving at/after the recovery instant can
        // route to it.
        assert!(a.replicas[1].completed > 0, "chip 1 must serve before death or after recovery");
        assert_eq!(a, fleet.run_detailed(&trace));
    }

    #[test]
    fn more_replicas_cut_tail_latency_under_heavy_load() {
        let trace = mixed_trace(800.0, 60);
        let one = Fleet::new(FleetSpec::single(), replica()).run(&trace);
        let four = Fleet::new(FleetSpec::replicated(4), replica()).run(&trace);
        assert!(
            four.ttft.p99 < one.ttft.p99,
            "4x fleet p99 TTFT {} must beat 1x {}",
            four.ttft.p99,
            one.ttft.p99
        );
        assert!(four.goodput_rps >= one.goodput_rps);
    }
}
