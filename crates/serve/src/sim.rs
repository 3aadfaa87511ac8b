//! The deterministic serving engine: iteration-granularity continuous
//! batching of prefill and decode phases over one design point, with
//! per-phase service times taken from the analytical model.
//!
//! The engine advances in *iterations* (the Orca/vLLM scheduling shape):
//! each iteration prefills the requests admitted since the last one and
//! decodes one token for every resident request, taking time equal to the
//! sum of the per-phase service costs. Admission is byte-granular: each
//! request reserves its per-layer K/V footprint in the design's global
//! buffer and the queue stalls when the buffer is full (the
//! uniform-request-size shorthand is
//! [`fusemax_arch::ArchConfig::max_resident_requests`]) — which is what
//! couples the serving behavior to the *architecture* rather than to a
//! fixed batch-size knob.
//!
//! # The scheduler policy
//!
//! A [`SchedulerPolicy`] changes *when* prefill work runs, not what it
//! costs in total:
//!
//! * **Chunked prefill** (`chunk_tokens = Some(c)`): each iteration may
//!   spend at most `c` prompt tokens on prefill, split into per-request
//!   chunks that stay aligned to multiples of `c` (plus each prompt's
//!   final remainder) — so a long prompt no longer monopolizes an entire
//!   iteration and decode latency for resident requests stays bounded.
//! * **Admission ratio** (`waiting_served_ratio = r > 0`): a non-empty
//!   engine only admits when the waiting queue holds at least `r ×` the
//!   resident count, batching admissions the way TGI's router batches
//!   prefills.
//! * **Queue order**: FCFS or shortest-prompt-first.
//!
//! The default [`SchedulerPolicy::unbounded`] (whole-prompt chunks, FCFS,
//! greedy admission) reproduces the pre-policy engine **byte-for-byte**:
//! same float-summation order, same event sequence — the golden serve
//! trace gate enforces this.

use crate::attribution::LatencyAttribution;
use crate::fault::Segment;
use crate::report::{LatencyStats, ServeReport};
use crate::table::ServiceTimeTable;
use crate::traffic::{Request, Trace};
use fusemax_arch::ArchConfig;
use fusemax_dse::{DesignPoint, QueueOrder, SchedulerPolicy};
use fusemax_model::{ConfigKind, ModelParams};
use fusemax_telemetry::{Event, Recorder, ServeEvent};
use fusemax_workloads::TransformerConfig;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One resident request mid-flight.
struct Active {
    /// Index into the trace's request list.
    idx: usize,
    /// `false` until the prefill phase has covered the whole prompt.
    prefilled: bool,
    /// Output tokens still to decode after the prefill token.
    remaining: usize,
    /// Current context length in tokens.
    context: usize,
    /// Prompt tokens already prefilled (only advances in chunks under a
    /// chunked policy; jumps straight to the prompt length otherwise).
    prefilled_tokens: usize,
    /// Buffer bytes reserved for this request's peak K/V state.
    kv_bytes: u64,
    /// Wall-clock time the first output token appeared.
    first_token_s: f64,
    /// Wall-clock time this request was admitted (attribution only).
    admit_s: f64,
    /// Prefill service seconds charged to this request so far
    /// (attribution only; never feeds back into the report's floats).
    prefill_busy_s: f64,
    /// Recorded time-to-first-token (attribution only).
    ttft_s: f64,
}

/// The waiting queue, and the one place the queue order is decided.
///
/// Requests are keyed `(order key, trace index)`: the order key is the
/// prompt length under shortest-prompt-first and 0 under FCFS, so FCFS
/// is arrival order and SPF breaks ties by arrival. A min-heap on that key
/// makes each admission O(log n) in the queue length.
struct WaitingQueue {
    order: QueueOrder,
    heap: BinaryHeap<Reverse<(usize, usize)>>,
}

impl WaitingQueue {
    fn new(order: QueueOrder) -> Self {
        WaitingQueue { order, heap: BinaryHeap::new() }
    }

    /// Enqueues trace request `idx`.
    fn push(&mut self, idx: usize, req: &Request) {
        let key = match self.order {
            QueueOrder::Fcfs => 0,
            QueueOrder::ShortestPromptFirst => req.prompt_tokens,
        };
        self.heap.push(Reverse((key, idx)));
    }

    /// The trace index the policy admits next.
    fn peek(&self) -> Option<usize> {
        self.heap.peek().map(|&Reverse((_, idx))| idx)
    }

    /// Dequeues the request [`peek`](Self::peek) returned.
    fn pop(&mut self) {
        self.heap.pop();
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every waiting trace index, in ascending (arrival) order.
    fn ascending(&self) -> Vec<usize> {
        let mut waiting: Vec<usize> = self.heap.iter().map(|&Reverse((_, idx))| idx).collect();
        waiting.sort_unstable();
        waiting
    }
}

/// A deterministic discrete-event serving simulator for one design point.
///
/// Replaying the same [`Trace`] twice produces bit-identical
/// [`ServeReport`]s: the engine is single-threaded, allocates no
/// randomness of its own, and its service times are pure functions of the
/// analytical model.
///
/// # Example
///
/// ```
/// use fusemax_model::{ConfigKind, ModelParams};
/// use fusemax_serve::{Arrivals, LengthMix, ServeSim, TrafficSpec};
/// use fusemax_workloads::TransformerConfig;
///
/// let trace = TrafficSpec {
///     arrivals: Arrivals::Poisson { rate_per_s: 50.0 },
///     prompt_mix: LengthMix::fixed(512),
///     output_mix: LengthMix::fixed(16),
///     requests: 40,
/// }
/// .generate(7);
///
/// let sim = ServeSim::builder(
///     ConfigKind::FuseMaxBinding,
///     ConfigKind::FuseMaxBinding.default_arch(),
///     TransformerConfig::bert(),
///     ModelParams::default(),
/// )
/// .build();
/// let report = sim.run(&trace);
/// assert_eq!(report.completed, 40);
/// assert_eq!(report, sim.run(&trace), "replay is bit-identical");
/// ```
#[derive(Debug, Clone)]
pub struct ServeSim {
    kind: ConfigKind,
    arch: ArchConfig,
    workload: TransformerConfig,
    params: ModelParams,
    policy: SchedulerPolicy,
    recorder: Recorder,
    /// Decode-chip mode for disaggregated fleets: admitted requests
    /// arrive with their prompt already prefilled elsewhere, so they go
    /// straight to decode and contribute no TTFT sample of their own.
    start_prefilled: bool,
}

/// The one construction path for [`ServeSim`]: pick a policy and a
/// recorder, then [`build`](ServeSimBuilder::build). Every replay of the
/// built simulator goes through the precomputed [`ServiceTimeTable`]
/// path ([`ServeSim::run`] builds the table, [`ServeSim::run_with`]
/// reuses one).
#[derive(Debug, Clone)]
pub struct ServeSimBuilder {
    sim: ServeSim,
}

impl ServeSimBuilder {
    /// Replaces the scheduler policy. [`SchedulerPolicy::unbounded`]
    /// (the default) reproduces the pre-policy engine byte-for-byte.
    pub fn policy(mut self, policy: SchedulerPolicy) -> Self {
        self.sim.policy = policy;
        self
    }

    /// Attaches a telemetry recorder: every replay emits arrival,
    /// admission, prefill, decode-iteration, completion, and queue-depth
    /// events at **simulated** timestamps. Instrumentation never changes
    /// the report — the engine is single-threaded and the recorder is
    /// write-only — so instrumented and uninstrumented replays are
    /// bit-identical (test-enforced), and the event stream itself replays
    /// byte-identically for a given trace.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.sim.recorder = recorder;
        self
    }

    /// The finished simulator.
    ///
    /// # Panics
    ///
    /// Panics when the configured scheduler policy is invalid (e.g. a
    /// zero-token prefill chunk). Use
    /// [`try_build`](ServeSimBuilder::try_build) to get the violation as
    /// a typed error instead.
    pub fn build(self) -> ServeSim {
        match self.try_build() {
            Ok(sim) => sim,
            Err(e) => panic!("invalid serve configuration: {e}"),
        }
    }

    /// The finished simulator, or the first configuration violation —
    /// the non-panicking [`build`](ServeSimBuilder::build) for
    /// configurations assembled from external input (CLI flags, JSON)
    /// rather than the asserting constructors.
    pub fn try_build(self) -> Result<ServeSim, fusemax_dse::SpecError> {
        self.sim.policy.validate()?;
        Ok(self.sim)
    }
}

impl ServeSim {
    /// A builder for a simulator for `kind` running on `arch`, serving
    /// `workload` — by default under the whole-prompt/FCFS scheduler
    /// ([`SchedulerPolicy::unbounded`]) with telemetry disabled.
    pub fn builder(
        kind: ConfigKind,
        arch: ArchConfig,
        workload: TransformerConfig,
        params: ModelParams,
    ) -> ServeSimBuilder {
        ServeSimBuilder {
            sim: ServeSim {
                kind,
                arch,
                workload,
                params,
                policy: SchedulerPolicy::unbounded(),
                recorder: Recorder::disabled(),
                start_prefilled: false,
            },
        }
    }

    /// The scheduler policy replays run under.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// A simulator for a DSE design point: the point's configuration,
    /// architecture, workload, **and scheduler policy** — so
    /// policy-extended searches co-design hardware and scheduler through
    /// the same serving objective. (The point's *fleet* axis is the
    /// [`crate::Fleet`] layer's concern: this is one replica chip.)
    pub fn for_point(point: &DesignPoint, params: &ModelParams) -> Self {
        Self::builder_for_point(point, params).build()
    }

    /// A builder seeded from a DSE design point — [`ServeSim::for_point`]
    /// plus the ability to override the scheduler policy or attach a
    /// telemetry recorder before building.
    pub fn builder_for_point(point: &DesignPoint, params: &ModelParams) -> ServeSimBuilder {
        Self::builder(point.kind, point.arch.clone(), point.workload.clone(), params.clone())
            .policy(point.policy)
    }

    /// A copy of this simulator re-armed as one fleet replica chip: same
    /// design, fresh recorder, optionally in decode-only
    /// (`start_prefilled`) mode.
    pub(crate) fn fleet_replica(&self, recorder: Recorder, start_prefilled: bool) -> ServeSim {
        let mut sim = self.clone();
        sim.recorder = recorder;
        sim.start_prefilled = start_prefilled;
        sim
    }

    /// The workload being served.
    pub(crate) fn workload(&self) -> &TransformerConfig {
        &self.workload
    }

    /// The architecture being served.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Buffer bytes one request of `prompt + output` tokens reserves: its
    /// peak *per-layer* K/V footprint. Layers execute one at a time, so
    /// only the current layer's K/V slice must be buffer-resident per
    /// request; the full-model cache
    /// ([`TransformerConfig::kv_bytes_per_token`]) streams through DRAM.
    fn request_kv_bytes(&self, prompt: usize, output: usize) -> u64 {
        let per_token =
            self.workload.kv_bytes_per_token(self.arch.word_bytes) / self.workload.layers as u64;
        (prompt + output) as u64 * per_token
    }

    /// Precomputes every service time a replay of `trace` on this design
    /// needs ([`ServiceTimeTable`]): build once, replay many times — the
    /// serving objective's per-frontier-member replays and repeated
    /// what-if runs stop re-deriving the same model results.
    pub fn service_times(&self, trace: &Trace) -> ServiceTimeTable {
        ServiceTimeTable::build_with_policy(
            self.kind,
            self.arch.clone(),
            &self.workload,
            self.params.clone(),
            trace,
            &self.policy,
        )
    }

    /// Serves `trace` to completion and reports throughput, utilization,
    /// and exact latency quantiles. Builds a fresh [`ServiceTimeTable`]
    /// for the trace; use [`ServeSim::run_with`] to amortize the table
    /// across replays.
    pub fn run(&self, trace: &Trace) -> ServeReport {
        self.run_with(&self.service_times(trace), trace)
    }

    /// Serves `trace` using precomputed service times. The iteration loop
    /// performs **zero** analytical-model calls when `table` covers the
    /// trace (it always does for a table built by
    /// [`ServeSim::service_times`] on the same trace — assert with
    /// [`ServiceTimeTable::misses`]); reports are bit-identical to
    /// [`ServeSim::run`] either way because fallback lookups compute the
    /// exact same values.
    pub fn run_with(&self, costs: &ServiceTimeTable, trace: &Trace) -> ServeReport {
        self.run_sampled_with(costs, trace).0
    }

    /// [`ServeSim::run_with`], additionally returning the raw
    /// per-request samples behind the report's quantiles — the fleet
    /// layer merges replicas by concatenating these and recomputing
    /// exact quantiles over the union, so fleet-level tails are never
    /// approximated from per-replica summaries.
    ///
    /// A fault-free replay runs the engine's one iteration loop — the
    /// loop the fleet runs every replica's up-time windows through — in a
    /// window that is healthy forever: `×1.0` multipliers are exact in
    /// IEEE 754 and the infinite horizon is never reached.
    pub fn run_sampled_with(
        &self,
        costs: &ServiceTimeTable,
        trace: &Trace,
    ) -> (ServeReport, RunSamples) {
        let out = self.run_window(costs, trace, &Segment::healthy_from(0.0));
        (out.report, out.samples)
    }

    /// Serves `trace` during one up-time `window` of a replica: the
    /// chip may be degraded (compute throttle scales prefill and
    /// decode, DRAM brownout additionally scales decode) and fail-stops
    /// at `window.end_s`.
    ///
    /// Semantics:
    ///
    /// * Iterations are atomic. An iteration that would finish after the
    ///   fail-stop instant never commits — the chip dies at its last
    ///   committed iteration boundary, in-flight requests (including any
    ///   admitted this iteration) lose their K/V state and are returned in
    ///   `lost_active`, and waiting/unarrived requests in `lost_waiting`.
    /// * Degradation multipliers are the window's step in force at each
    ///   iteration's start time. A healthy step multiplies by exactly
    ///   1.0, which leaves every service time bit-identical.
    /// * Prefill telemetry for an iteration is buffered and published
    ///   only when the iteration commits, so the event stream never
    ///   narrates work the dead chip didn't do. Arrival and admission
    ///   events stay inline — they are real history even when the chip
    ///   later dies.
    pub(crate) fn run_window(
        &self,
        costs: &ServiceTimeTable,
        trace: &Trace,
        window: &Segment,
    ) -> WindowOutcome {
        let reqs = &trace.requests;
        let buffer = self.arch.global_buffer_bytes;
        let horizon = window.end_s;
        let steps = &window.slowdowns;
        let mut step_at = 0usize;

        let mut clock = 0.0f64;
        let mut busy = 0.0f64;
        let mut next = 0usize; // next trace request not yet arrived
        let mut queue = WaitingQueue::new(self.policy.queue_order);
        let mut active: Vec<Active> = Vec::new();
        let mut resident_bytes = 0u64;
        let mut peak_resident_bytes = 0u64;
        let mut peak_batch = 0usize;
        let mut iterations = 0usize;

        let mut ttft = Vec::with_capacity(reqs.len());
        let mut e2e = Vec::with_capacity(reqs.len());
        let mut tpot = Vec::new();
        let mut completions: Vec<(usize, f64)> = Vec::with_capacity(reqs.len());
        let mut attributions: Vec<LatencyAttribution> = Vec::with_capacity(reqs.len());
        let mut completed = 0usize;
        let mut output_tokens = 0usize;
        let mut died = false;

        let unbounded = self.policy.is_unbounded();
        let ratio = self.policy.waiting_served_ratio;
        // Per-iteration buffers, cleared rather than reallocated.
        let mut granted: Vec<Option<usize>> = Vec::new();
        let mut charged: Vec<f64> = Vec::new();
        // Prefill narration held back until the iteration commits.
        let mut pending: Vec<Event> = Vec::new();
        let narrate = self.recorder.is_enabled();

        loop {
            // Pull every request that has arrived by now into the
            // policy-ordered waiting queue.
            while next < reqs.len() && reqs[next].arrival_s <= clock {
                let (at, req) = (reqs[next].arrival_s, reqs[next].id as u64);
                self.recorder.emit(|| Event::serve(at, ServeEvent::Arrive { req }));
                if !unbounded {
                    self.recorder.emit(|| Event::serve(at, ServeEvent::Enqueue { req }));
                }
                queue.push(next, &reqs[next]);
                next += 1;
            }
            if active.is_empty() && queue.is_empty() {
                if next >= reqs.len() {
                    break;
                }
                if reqs[next].arrival_s >= horizon {
                    // The chip dies before the next arrival; everything
                    // still to come was routed to a corpse.
                    died = true;
                    break;
                }
                // Idle: jump to the next arrival.
                clock = reqs[next].arrival_s;
                continue;
            }

            // Continuous batching: admit the policy's next waiting request
            // while its K/V state fits in the global buffer (and, under a
            // positive waiting/served ratio, while the queue is deep
            // enough relative to the resident batch). An empty engine
            // always admits its first request — one larger than the
            // buffer streams through DRAM rather than being unservable.
            while let Some(i) = queue.peek() {
                let bytes = self.request_kv_bytes(reqs[i].prompt_tokens, reqs[i].output_tokens);
                if !active.is_empty() && resident_bytes + bytes > buffer {
                    break;
                }
                if ratio > 0.0
                    && !active.is_empty()
                    && (queue.len() as f64) < ratio * active.len() as f64
                {
                    break;
                }
                queue.pop();
                let req = reqs[i].id as u64;
                if !unbounded {
                    self.recorder.emit(|| Event::serve(clock, ServeEvent::Dequeue { req }));
                }
                self.recorder.emit(|| Event::serve(clock, ServeEvent::Admit { req }));
                resident_bytes += bytes;
                active.push(Active {
                    idx: i,
                    prefilled: self.start_prefilled,
                    // Prefill produces the first output token; a
                    // hand-built request with `output_tokens = 0` behaves
                    // like 1 rather than underflowing.
                    remaining: reqs[i].output_tokens.saturating_sub(1),
                    context: if self.start_prefilled {
                        reqs[i].prompt_tokens + 1
                    } else {
                        reqs[i].prompt_tokens
                    },
                    prefilled_tokens: if self.start_prefilled { reqs[i].prompt_tokens } else { 0 },
                    kv_bytes: bytes,
                    // In decode-only mode the first token already exists;
                    // clocking it at admission makes TPOT measure this
                    // chip's decode cadence.
                    first_token_s: if self.start_prefilled { clock } else { 0.0 },
                    admit_s: clock,
                    prefill_busy_s: 0.0,
                    ttft_s: 0.0,
                });
            }
            peak_resident_bytes = peak_resident_bytes.max(resident_bytes);
            peak_batch = peak_batch.max(active.len());

            // One engine iteration under the degradation step in force at
            // its start (the clock never runs backwards): prefill the newly
            // admitted (whole prompts, or token-budgeted chunks) × compute,
            // and decode one token per prefilled resident × compute × dram.
            // `granted` records each unprefilled request's prompt-token
            // progress (`None` = starved by the chunk budget), `charged`
            // its prefill seconds (attribution only).
            while step_at + 1 < steps.len() && steps[step_at + 1].0 <= clock {
                step_at += 1;
            }
            let (_, compute_mult, dram_mult) = steps[step_at];
            let mut step = 0.0f64;
            let mut chunk_budget = self.policy.chunk_tokens.unwrap_or(0);
            granted.clear();
            charged.clear();
            for a in &active {
                let mut cost = 0.0f64;
                let grant = if a.prefilled {
                    step += costs.decode_seconds(a.context) * compute_mult * dram_mult;
                    None
                } else if let Some(chunk) = self.policy.chunk_tokens {
                    let need = a.context - a.prefilled_tokens;
                    let want = need.min(chunk);
                    if need == 0 {
                        // Hand-built zero-length prompt: completes free.
                        Some(0)
                    } else if want <= chunk_budget {
                        chunk_budget -= want;
                        let (req, context) = (reqs[a.idx].id as u64, a.context);
                        if narrate {
                            if a.prefilled_tokens == 0 {
                                pending.push(Event::serve(
                                    clock,
                                    ServeEvent::PrefillStart { req, context },
                                ));
                            }
                            let (tokens, remaining) = (want, need - want);
                            pending.push(Event::serve(
                                clock,
                                ServeEvent::PrefillChunk { req, tokens, remaining },
                            ));
                        }
                        cost = costs
                            .prefill_chunk_seconds(a.prefilled_tokens, a.prefilled_tokens + want)
                            * compute_mult;
                        step += cost;
                        Some(want)
                    } else {
                        None
                    }
                } else {
                    let (req, context) = (reqs[a.idx].id as u64, a.context);
                    if narrate {
                        pending
                            .push(Event::serve(clock, ServeEvent::PrefillStart { req, context }));
                    }
                    cost = costs.prefill_seconds(a.context) * compute_mult;
                    step += cost;
                    Some(a.context)
                };
                granted.push(grant);
                charged.push(cost);
            }
            if clock + step > horizon {
                // The chip fail-stops mid-iteration: nothing commits.
                died = true;
                break;
            }
            if narrate {
                self.recorder.publish(pending.drain(..));
            }
            clock += step;
            busy += step;
            iterations += 1;
            let (batch, resident_kv, depth) = (active.len(), resident_bytes, queue.len());
            self.recorder
                .emit(|| Event::serve(clock, ServeEvent::DecodeIter { batch, resident_kv }));
            self.recorder.emit(|| Event::serve(clock, ServeEvent::QueueDepthSample { depth }));
            if !unbounded {
                self.recorder.emit(|| Event::serve(clock, ServeEvent::WaitingDepth { depth }));
            }

            // Apply the iteration's outcomes.
            for ((a, grant), &cost) in active.iter_mut().zip(&granted).zip(&charged) {
                if a.prefilled {
                    // Saturating: a decode-only request hand-built with
                    // `output_tokens <= 1` decodes once instead of
                    // underflowing (normal-mode requests always carry
                    // `remaining >= 1` here).
                    a.remaining = a.remaining.saturating_sub(1);
                    a.context += 1;
                    continue;
                }
                let Some(tokens) = *grant else { continue };
                a.prefill_busy_s += cost;
                a.prefilled_tokens += tokens;
                if a.prefilled_tokens >= reqs[a.idx].prompt_tokens {
                    a.prefilled = true;
                    a.first_token_s = clock;
                    a.context += 1;
                    let req = reqs[a.idx].id as u64;
                    self.recorder.emit(|| Event::serve(clock, ServeEvent::PrefillEnd { req }));
                    let t = clock - reqs[a.idx].arrival_s;
                    a.ttft_s = t;
                    ttft.push(t);
                }
            }
            // Retire finished requests in one order-preserving sweep
            // (prefill covers the first output token, so `remaining == 0`
            // right after prefill is complete for single-token outputs).
            active.retain(|a| {
                if !(a.prefilled && a.remaining == 0) {
                    return true;
                }
                let r = &reqs[a.idx];
                let req = r.id as u64;
                self.recorder.emit(|| Event::serve(clock, ServeEvent::Complete { req }));
                resident_bytes -= a.kv_bytes;
                completed += 1;
                output_tokens += r.output_tokens;
                completions.push((r.id, clock));
                let e2e_s = clock - r.arrival_s;
                e2e.push(e2e_s);
                attributions.push(LatencyAttribution::from_run(
                    r.id,
                    r.arrival_s,
                    a.admit_s,
                    a.prefill_busy_s,
                    if self.start_prefilled { None } else { Some(a.ttft_s) },
                    e2e_s,
                ));
                if r.output_tokens > 1 {
                    tpot.push((clock - a.first_token_s) / (r.output_tokens - 1) as f64);
                }
                false
            });
        }

        // On a fail-stop everything still on the chip loses its K/V state;
        // everything waiting (or not yet arrived but routed here) never ran.
        let (mut lost_active, mut lost_waiting) = (Vec::new(), Vec::new());
        if died {
            lost_active.extend(active.iter().map(|a| reqs[a.idx].id));
            lost_waiting.extend(queue.ascending().into_iter().map(|i| reqs[i].id));
            lost_waiting.extend(reqs[next..].iter().map(|r| r.id));
        }

        let makespan = clock;
        let report = ServeReport {
            completed,
            output_tokens,
            iterations,
            makespan_s: makespan,
            busy_s: busy,
            goodput_rps: if makespan > 0.0 { completed as f64 / makespan } else { 0.0 },
            token_throughput_per_s: if makespan > 0.0 {
                output_tokens as f64 / makespan
            } else {
                0.0
            },
            utilization: if makespan > 0.0 { busy / makespan } else { 0.0 },
            peak_resident_bytes,
            peak_batch,
            buffer_bytes: buffer,
            ttft: LatencyStats::of(&mut ttft),
            tpot: LatencyStats::of(&mut tpot),
            e2e: LatencyStats::of(&mut e2e),
        };
        WindowOutcome {
            report,
            samples: RunSamples { ttft, tpot, e2e, completions, attributions },
            lost_active,
            lost_waiting,
        }
    }
}

/// What one up-time window's run produced: the survivor's report and
/// samples, plus the trace request ids displaced by a fail-stop (empty
/// when the replica outlived its sub-trace).
#[derive(Debug, Clone)]
pub(crate) struct WindowOutcome {
    /// The replica's report over the requests it actually served.
    pub report: ServeReport,
    /// Raw samples behind the report (completed requests only).
    pub samples: RunSamples,
    /// Requests resident (K/V lost) at the fail-stop instant.
    pub lost_active: Vec<usize>,
    /// Requests waiting or not yet arrived at the fail-stop instant.
    pub lost_waiting: Vec<usize>,
}

/// The raw per-request samples behind a [`ServeReport`]: what
/// [`LatencyStats`] summarized (sample vectors are returned sorted, as
/// the quantile pass left them) plus each request's completion time.
/// Fleet merges concatenate these across replicas and recompute exact
/// quantiles over the union.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSamples {
    /// Time-to-first-token samples, one per prefilled request.
    pub ttft: Vec<f64>,
    /// Mean time-per-output-token samples, one per multi-token request.
    pub tpot: Vec<f64>,
    /// End-to-end latency samples, one per completed request.
    pub e2e: Vec<f64>,
    /// `(request id, completion time)` in retirement order.
    pub completions: Vec<(usize, f64)>,
    /// Per-request exact latency attributions, in retirement order.
    pub attributions: Vec<LatencyAttribution>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{Arrivals, LengthMix, TrafficSpec};

    fn bert_builder(kind: ConfigKind) -> ServeSimBuilder {
        ServeSim::builder(
            kind,
            kind.default_arch(),
            TransformerConfig::bert(),
            ModelParams::default(),
        )
    }

    fn bert_sim(kind: ConfigKind) -> ServeSim {
        bert_builder(kind).build()
    }

    #[test]
    fn try_build_rejects_invalid_policies_with_a_typed_error() {
        let zero_chunk = SchedulerPolicy { chunk_tokens: Some(0), ..SchedulerPolicy::default() };
        let err = bert_builder(ConfigKind::FuseMaxBinding).policy(zero_chunk).try_build();
        assert_eq!(err.unwrap_err(), fusemax_dse::SpecError::EmptyPrefillChunk);

        let bad_ratio =
            SchedulerPolicy { waiting_served_ratio: f64::NAN, ..SchedulerPolicy::default() };
        let err = bert_builder(ConfigKind::FuseMaxBinding).policy(bad_ratio).try_build();
        assert_eq!(err.unwrap_err(), fusemax_dse::SpecError::BadAdmissionRatio);

        assert!(bert_builder(ConfigKind::FuseMaxBinding)
            .policy(SchedulerPolicy::chunked(128))
            .try_build()
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid serve configuration")]
    fn build_panics_on_an_invalid_policy() {
        let zero_chunk = SchedulerPolicy { chunk_tokens: Some(0), ..SchedulerPolicy::default() };
        let _ = bert_builder(ConfigKind::FuseMaxBinding).policy(zero_chunk).build();
    }

    fn small_trace(rate: f64, requests: usize) -> Trace {
        TrafficSpec {
            arrivals: Arrivals::Poisson { rate_per_s: rate },
            prompt_mix: LengthMix::new([(256, 3.0), (1024, 1.0)]),
            output_mix: LengthMix::uniform([4, 16]),
            requests,
        }
        .generate(11)
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let report = bert_sim(ConfigKind::FuseMaxBinding).run(&small_trace(100.0, 60));
        assert_eq!(report.completed, 60);
        assert_eq!(report.ttft.samples, 60);
        assert_eq!(report.e2e.samples, 60);
        assert!(report.makespan_s > 0.0);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0 + 1e-12);
    }

    #[test]
    fn replay_is_bit_identical() {
        let sim = bert_sim(ConfigKind::FuseMaxBinding);
        let trace = small_trace(200.0, 50);
        assert_eq!(sim.run(&trace), sim.run(&trace));
    }

    #[test]
    fn empty_traces_produce_empty_reports() {
        let report = bert_sim(ConfigKind::FuseMaxBinding).run(&Trace::default());
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan_s, 0.0);
        assert_eq!(report.goodput_rps, 0.0);
        assert_eq!(report.ttft.p99, 0.0);
    }

    #[test]
    fn batching_respects_the_buffer() {
        let report = bert_sim(ConfigKind::FuseMaxBinding).run(&small_trace(10_000.0, 80));
        // Every request here fits individually, so residency must never
        // exceed the buffer.
        assert!(report.peak_resident_bytes <= report.buffer_bytes);
        assert!(report.peak_batch >= 2, "heavy offered load must actually batch");
    }

    #[test]
    fn light_load_keeps_latency_near_service_time() {
        // One request at a time: TTFT equals the prefill service time.
        let trace = Trace {
            requests: vec![crate::traffic::Request {
                id: 0,
                arrival_s: 0.0,
                prompt_tokens: 512,
                output_tokens: 1,
            }],
        };
        let sim = bert_sim(ConfigKind::FuseMaxBinding);
        let report = sim.run(&trace);
        assert_eq!(report.completed, 1);
        assert_eq!(report.ttft.p50, report.makespan_s);
        assert_eq!(report.tpot.samples, 0, "single-token outputs have no decode phase");
    }

    #[test]
    fn faster_configurations_serve_with_lower_tail_latency() {
        let trace = small_trace(500.0, 40);
        let flat = bert_sim(ConfigKind::Flat).run(&trace);
        let fusemax = bert_sim(ConfigKind::FuseMaxBinding).run(&trace);
        assert!(
            fusemax.ttft.p99 < flat.ttft.p99,
            "+Binding p99 TTFT {} must beat FLAT {}",
            fusemax.ttft.p99,
            flat.ttft.p99
        );
        assert!(fusemax.goodput_rps >= flat.goodput_rps);
    }

    #[test]
    fn zero_output_hand_built_requests_complete_at_prefill() {
        // TrafficSpec clamps outputs to >= 1, but hand-built traces can
        // carry 0; the engine must treat that like 1, not underflow,
        // whether the prompt prefills whole or in 16-token chunks.
        let trace = Trace {
            requests: vec![crate::traffic::Request {
                id: 0,
                arrival_s: 0.0,
                prompt_tokens: 64,
                output_tokens: 0,
            }],
        };
        let chunked = SchedulerPolicy::chunked(16);
        for (policy, iterations) in [
            (SchedulerPolicy::unbounded(), 1),
            (chunked, 4),
            (chunked.with_queue_order(QueueOrder::ShortestPromptFirst), 4),
        ] {
            let report =
                bert_builder(ConfigKind::FuseMaxBinding).policy(policy).build().run(&trace);
            assert_eq!(report.completed, 1, "{policy:?}");
            assert_eq!(report.iterations, iterations, "{policy:?}");
        }
    }

    #[test]
    fn instrumented_runs_are_bit_identical_to_uninstrumented() {
        use fusemax_telemetry::VecSink;
        let trace = small_trace(300.0, 50);
        let plain = bert_sim(ConfigKind::FuseMaxBinding);
        let (recorder, sink) = VecSink::recorder();
        let traced = bert_builder(ConfigKind::FuseMaxBinding).recorder(recorder).build();
        assert_eq!(plain.run(&trace), traced.run(&trace));
        assert!(!sink.is_empty(), "instrumented run must actually emit events");
    }

    #[test]
    fn event_stream_replays_byte_identically() {
        use fusemax_telemetry::{event_json, VecSink};
        let trace = small_trace(300.0, 50);
        let render =
            |events: &[Event]| events.iter().map(event_json).collect::<Vec<_>>().join("\n");
        let (r1, s1) = VecSink::recorder();
        bert_builder(ConfigKind::FuseMaxBinding).recorder(r1).build().run(&trace);
        let (r2, s2) = VecSink::recorder();
        bert_builder(ConfigKind::FuseMaxBinding).recorder(r2).build().run(&trace);
        assert_eq!(render(&s1.events()), render(&s2.events()));
    }

    #[test]
    fn event_stream_is_request_conserving() {
        use fusemax_telemetry::VecSink;
        let trace = small_trace(500.0, 40);
        let (recorder, sink) = VecSink::recorder();
        let report =
            bert_builder(ConfigKind::FuseMaxBinding).recorder(recorder).build().run(&trace);
        let count = |pick: &dyn Fn(&ServeEvent) -> bool| {
            sink.events()
                .iter()
                .filter(|e| matches!(e, Event::Serve { kind, .. } if pick(kind)))
                .count()
        };
        let arrivals = count(&|k| matches!(k, ServeEvent::Arrive { .. }));
        let admissions = count(&|k| matches!(k, ServeEvent::Admit { .. }));
        let prefill_starts = count(&|k| matches!(k, ServeEvent::PrefillStart { .. }));
        let prefill_ends = count(&|k| matches!(k, ServeEvent::PrefillEnd { .. }));
        let completions = count(&|k| matches!(k, ServeEvent::Complete { .. }));
        let iterations = count(&|k| matches!(k, ServeEvent::DecodeIter { .. }));
        assert_eq!(arrivals, 40);
        assert_eq!(admissions, 40);
        assert_eq!(prefill_starts, 40);
        assert_eq!(prefill_ends, 40);
        assert_eq!(completions, report.completed);
        assert_eq!(iterations, report.iterations);
    }

    #[test]
    fn whole_prompt_chunks_reproduce_the_default_report_bit_for_bit() {
        // A chunk budget at least as large as every prompt degenerates to
        // whole-prompt prefill: every chunk covers [0, P), which charges
        // exactly `prefill_seconds(P)` — so the report (including float
        // bits) matches the default engine even though the event stream
        // gains PrefillChunk markers.
        let trace = small_trace(300.0, 50);
        let plain = bert_sim(ConfigKind::FuseMaxBinding);
        let chunked = bert_builder(ConfigKind::FuseMaxBinding)
            .policy(SchedulerPolicy::chunked(1 << 20))
            .build();
        assert_eq!(plain.run(&trace), chunked.run(&trace));
    }

    #[test]
    fn chunked_replays_complete_every_request_with_zero_table_misses() {
        let trace = small_trace(400.0, 60);
        let sim = bert_builder(ConfigKind::FuseMaxBinding)
            .policy(SchedulerPolicy::chunked(192).with_waiting_served_ratio(1.2))
            .build();
        let costs = sim.service_times(&trace);
        let report = sim.run_with(&costs, &trace);
        assert_eq!(report.completed, 60);
        assert_eq!(costs.misses(), 0, "policy-aware table must cover chunked replays");
        // Chunking splits prefill across iterations, so the engine runs
        // more of them than the whole-prompt scheduler.
        let whole = bert_sim(ConfigKind::FuseMaxBinding).run(&trace);
        assert!(report.iterations > whole.iterations);
    }

    #[test]
    fn chunked_policies_emit_chunk_and_queue_events() {
        use fusemax_telemetry::VecSink;
        let trace = small_trace(400.0, 40);
        let (recorder, sink) = VecSink::recorder();
        let report = bert_builder(ConfigKind::FuseMaxBinding)
            .policy(SchedulerPolicy::chunked(256))
            .recorder(recorder)
            .build()
            .run(&trace);
        let count = |pick: &dyn Fn(&ServeEvent) -> bool| {
            sink.events()
                .iter()
                .filter(|e| matches!(e, Event::Serve { kind, .. } if pick(kind)))
                .count()
        };
        // Still exactly one PrefillStart (and one PrefillEnd) per request;
        // the chunk stream carries the partial progress.
        assert_eq!(count(&|k| matches!(k, ServeEvent::PrefillStart { .. })), 40);
        assert_eq!(count(&|k| matches!(k, ServeEvent::PrefillEnd { .. })), 40);
        assert_eq!(count(&|k| matches!(k, ServeEvent::Enqueue { .. })), 40);
        assert_eq!(count(&|k| matches!(k, ServeEvent::Dequeue { .. })), 40);
        assert!(
            count(&|k| matches!(k, ServeEvent::PrefillChunk { .. })) > 40,
            "sub-prompt chunks must emit more chunk events than requests"
        );
        // Per-chunk tokens never exceed the budget, and per-iteration
        // chunk totals never exceed it either.
        let mut iter_total = 0usize;
        for e in sink.events() {
            match e {
                Event::Serve { kind: ServeEvent::PrefillChunk { tokens, .. }, .. } => {
                    assert!(tokens <= 256);
                    iter_total += tokens;
                    assert!(iter_total <= 256, "iteration chunk budget exceeded");
                }
                Event::Serve { kind: ServeEvent::DecodeIter { .. }, .. } => iter_total = 0,
                _ => {}
            }
        }
        assert_eq!(report.completed, 40);
    }

    #[test]
    fn shortest_prompt_first_prefers_short_prompts_under_contention() {
        // Two long prompts arrive just before a short one; under
        // contention SPF admits the short prompt ahead of the second
        // long one, cutting its TTFT.
        let mk = |id, at, prompt| crate::traffic::Request {
            id,
            arrival_s: at,
            prompt_tokens: prompt,
            output_tokens: 4,
        };
        let trace = Trace { requests: vec![mk(0, 0.0, 4096), mk(1, 0.0, 4096), mk(2, 0.0, 128)] };
        // Shrink the buffer so the three requests cannot all be resident.
        let mut arch = ConfigKind::FuseMaxBinding.default_arch();
        let bert = TransformerConfig::bert();
        let per_token = bert.kv_bytes_per_token(arch.word_bytes) / bert.layers as u64;
        arch.global_buffer_bytes = per_token * 4200;
        let sim = |order| {
            ServeSim::builder(
                ConfigKind::FuseMaxBinding,
                arch.clone(),
                bert.clone(),
                ModelParams::default(),
            )
            .policy(SchedulerPolicy::unbounded().with_queue_order(order))
        };
        use fusemax_telemetry::VecSink;
        let ttft_of = |order| {
            let (recorder, sink) = VecSink::recorder();
            sim(order).recorder(recorder).build().run(&trace);
            sink.events()
                .iter()
                .filter_map(|e| match e {
                    Event::Serve { t_s, kind: ServeEvent::PrefillEnd { req: 2 } } => Some(*t_s),
                    _ => None,
                })
                .next()
                .expect("request 2 must prefill")
        };
        let fcfs = ttft_of(QueueOrder::Fcfs);
        let spf = ttft_of(QueueOrder::ShortestPromptFirst);
        assert!(spf < fcfs, "SPF first token {spf} must beat FCFS {fcfs} for the short prompt");
    }

    #[test]
    fn waiting_served_ratio_delays_admission() {
        let trace = small_trace(2000.0, 40);
        let greedy = bert_sim(ConfigKind::FuseMaxBinding).run(&trace);
        use fusemax_telemetry::VecSink;
        let (recorder, sink) = VecSink::recorder();
        let gated = bert_builder(ConfigKind::FuseMaxBinding)
            .policy(SchedulerPolicy::unbounded().with_waiting_served_ratio(4.0))
            .recorder(recorder)
            .build()
            .run(&trace);
        // Everyone still completes; the ratio only re-times admissions.
        assert_eq!(gated.completed, greedy.completed);
        let waiting_samples = sink
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Serve { kind: ServeEvent::WaitingDepth { .. }, .. }))
            .count();
        assert!(waiting_samples > 0, "non-default policies must sample waiting depth");
    }

    #[test]
    fn sampled_runs_return_the_quantile_sample_multisets() {
        let trace = small_trace(300.0, 40);
        let sim = bert_sim(ConfigKind::FuseMaxBinding);
        let costs = sim.service_times(&trace);
        let (report, samples) = sim.run_sampled_with(&costs, &trace);
        assert_eq!(report, sim.run_with(&costs, &trace));
        assert_eq!(samples.e2e.len(), report.completed);
        assert_eq!(samples.completions.len(), report.completed);
        let mut e2e = samples.e2e.clone();
        assert_eq!(LatencyStats::of(&mut e2e), report.e2e);
        for &(id, done) in &samples.completions {
            let r = trace.requests.iter().find(|r| r.id == id).expect("completion id in trace");
            assert!(done >= r.arrival_s, "completion precedes arrival");
        }
    }

    #[test]
    fn decode_only_mode_skips_prefill_and_measures_decode_cadence() {
        use fusemax_telemetry::VecSink;
        let mk = |id, at, prompt, output| crate::traffic::Request {
            id,
            arrival_s: at,
            prompt_tokens: prompt,
            output_tokens: output,
        };
        let trace = Trace { requests: vec![mk(0, 0.0, 512, 8), mk(1, 0.01, 256, 4)] };
        let (recorder, sink) = VecSink::recorder();
        let sim = bert_sim(ConfigKind::FuseMaxBinding).fleet_replica(recorder, true);
        let costs = sim.service_times(&trace);
        let (report, samples) = sim.run_sampled_with(&costs, &trace);
        assert_eq!(report.completed, 2);
        assert_eq!(report.ttft.samples, 0, "decode chips never produce first tokens");
        assert_eq!(samples.tpot.len(), 2);
        let prefills = sink
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Serve { kind: ServeEvent::PrefillStart { .. }, .. }
                        | Event::Serve { kind: ServeEvent::PrefillEnd { .. }, .. }
                )
            })
            .count();
        assert_eq!(prefills, 0, "decode-only streams carry no prefill events");
        // Each request decodes output - 1 tokens: 7 + 3 iterations'
        // worth of work, but batched iterations may overlap them.
        assert!(report.iterations >= 7);
    }

    /// A window up from t = 0 that fail-stops at `end_s` under one
    /// constant `(compute, dram)` step.
    fn window(end_s: f64, compute: f64, dram: f64) -> Segment {
        Segment { start_s: 0.0, end_s, slowdowns: vec![(0.0, compute, dram)] }
    }

    #[test]
    fn a_fail_stop_loses_residents_and_waiters_exactly_once() {
        // Dense enough that requests queue behind the batch, so SPF
        // reorders admissions and a fail-stop strands queued requests.
        let trace = small_trace(3000.0, 60);
        let spf = QueueOrder::ShortestPromptFirst;
        let mut whole_prompt_completions = Vec::new();
        for policy in [
            SchedulerPolicy::unbounded(),
            SchedulerPolicy::chunked(512).with_queue_order(spf),
            SchedulerPolicy::unbounded().with_queue_order(spf),
        ] {
            let sim = bert_builder(ConfigKind::FuseMaxBinding).policy(policy).build();
            let costs = sim.service_times(&trace);
            let healthy = sim.run_window(&costs, &trace, &Segment::healthy_from(0.0));
            assert!(
                healthy.lost_active.is_empty() && healthy.lost_waiting.is_empty(),
                "{policy}: a healthy window loses nothing"
            );
            assert_eq!(healthy.report.completed, 60, "{policy}");
            if policy.chunk_tokens.is_none() {
                whole_prompt_completions.push(healthy.samples.completions.clone());
            }
            let mid = healthy.report.makespan_s / 2.0;
            let faults = window(mid, 1.0, 1.0);
            let outcome = sim.run_window(&costs, &trace, &faults);
            assert!(
                outcome.report.completed < 60,
                "{policy}: a mid-trace death must lose requests"
            );
            assert!(
                outcome.report.makespan_s <= mid,
                "{policy}: no work commits past the fail-stop"
            );
            assert!(
                outcome.lost_waiting.iter().any(|&id| trace.requests[id].arrival_s <= mid),
                "{policy}: the fail-stop must strand requests already queued"
            );
            assert!(
                outcome.lost_waiting.windows(2).all(|w| w[0] < w[1]),
                "{policy}: waiting requests are lost in arrival order"
            );
            // Conservation: completed + lost covers the trace exactly once.
            let mut ids: Vec<usize> =
                outcome.samples.completions.iter().map(|&(id, _)| id).collect();
            ids.extend(&outcome.lost_active);
            ids.extend(&outcome.lost_waiting);
            ids.sort_unstable();
            assert_eq!(ids, (0..60).collect::<Vec<_>>(), "{policy}");
            // Replay is bit-identical.
            let again = sim.run_window(&costs, &trace, &faults);
            assert_eq!(again.report, outcome.report, "{policy}");
            assert_eq!(again.lost_active, outcome.lost_active, "{policy}");
            assert_eq!(again.lost_waiting, outcome.lost_waiting, "{policy}");
        }
        assert_ne!(
            whole_prompt_completions[0], whole_prompt_completions[1],
            "the trace must queue deeply enough for SPF to reorder admissions"
        );
    }

    #[test]
    fn degradation_multipliers_slow_the_replica_down() {
        let trace = small_trace(300.0, 40);
        let sim = bert_sim(ConfigKind::FuseMaxBinding);
        let costs = sim.service_times(&trace);
        let healthy = sim.run_window(&costs, &trace, &Segment::healthy_from(0.0));
        let slow = sim.run_window(&costs, &trace, &window(f64::INFINITY, 2.0, 1.0));
        assert_eq!(slow.report.completed, 40, "degraded chips still finish");
        assert!(slow.report.makespan_s > healthy.report.makespan_s);
        assert!(slow.report.busy_s > healthy.report.busy_s);
        let brown = sim.run_window(&costs, &trace, &window(f64::INFINITY, 1.0, 4.0));
        assert!(
            brown.report.busy_s > healthy.report.busy_s,
            "brownouts slow bandwidth-bound decode"
        );
        assert!(
            brown.report.busy_s < slow.report.busy_s * 4.0,
            "brownouts must not scale compute-bound prefill"
        );
    }

    #[test]
    fn dead_chips_do_not_narrate_uncommitted_prefill() {
        use fusemax_telemetry::VecSink;
        let trace = small_trace(300.0, 40);
        let (recorder, sink) = VecSink::recorder();
        let sim = bert_builder(ConfigKind::FuseMaxBinding).recorder(recorder).build();
        let costs = sim.service_times(&trace);
        let outcome = sim.run_window(&costs, &trace, &window(0.05, 1.0, 1.0));
        let starts = sink
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Serve { kind: ServeEvent::PrefillStart { .. }, .. }))
            .count();
        let ends = sink
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Serve { kind: ServeEvent::PrefillEnd { .. }, .. }))
            .count();
        assert_eq!(starts, ends, "published prefill starts must all have committed");
        assert_eq!(ends, outcome.report.ttft.samples);
    }

    #[test]
    fn oversized_requests_still_run_alone() {
        // A prompt whose K/V exceeds the buffer must be admitted solo.
        let trace = Trace {
            requests: vec![
                crate::traffic::Request {
                    id: 0,
                    arrival_s: 0.0,
                    prompt_tokens: 1 << 13,
                    output_tokens: 2,
                },
                crate::traffic::Request {
                    id: 1,
                    arrival_s: 0.0,
                    prompt_tokens: 64,
                    output_tokens: 2,
                },
            ],
        };
        let sim = bert_sim(ConfigKind::FuseMaxBinding);
        let bert = TransformerConfig::bert();
        let kv = bert.kv_bytes_per_token(2) / bert.layers as u64 * (1 << 13);
        assert!(kv > sim.arch().global_buffer_bytes, "test premise: request exceeds buffer");
        let report = sim.run(&trace);
        assert_eq!(report.completed, 2);
    }
}
