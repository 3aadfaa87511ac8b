#![warn(missing_docs)]

//! Traffic-driven serving simulation over the FuseMax analytical model:
//! drive any design point with a seeded, replayable request trace and
//! measure what the paper's fixed-sequence-length figures cannot — how
//! the design behaves under a realistic mix of prefill and decode work.
//!
//! The paper (and [`fusemax_dse`]'s objectives) evaluate each design at
//! one sequence length. Real attention serving is a *mixture*: prompts of
//! many lengths arriving stochastically, each followed by a decode phase
//! whose per-token cost is orders of magnitude below the prefill's. A
//! design that wins at one fixed length can lose badly under such a mix —
//! and the only way to see it is to simulate the queueing.
//!
//! # The pieces
//!
//! * [`TrafficSpec`] / [`Trace`] — seeded request generation: Poisson or
//!   bursty [`Arrivals`], configurable prompt/output [`LengthMix`]es.
//!   Traces are plain data; the same trace replays against any design.
//! * [`ServeSim`] — a deterministic continuous-batching engine. Phase
//!   service times come from the analytical model
//!   ([`fusemax_model::e2e_report_on`], amortized per token for decode);
//!   admission is byte-granular against the design's global buffer —
//!   each request reserves its per-layer K/V footprint
//!   ([`fusemax_arch::ArchConfig::max_resident_requests`] is the
//!   uniform-request-size shorthand for the same bound).
//! * [`SchedulerPolicy`] (re-exported from [`fusemax_dse`], where it is a
//!   searchable design-space axis) — chunked prefill with a per-iteration
//!   token budget, a TGI-style waiting/served admission ratio, and FCFS
//!   vs shortest-prompt-first [`QueueOrder`]. The default
//!   [`SchedulerPolicy::unbounded`] reproduces the whole-prompt engine
//!   byte-for-byte.
//! * [`ServiceTimeTable`] — every model call a trace replay needs,
//!   precomputed ([`ServeSim::service_times`]) so the iteration loop is
//!   pure lookups and repeated replays ([`ServeSim::run_with`]) pay the
//!   model exactly once per design.
//! * [`ServeReport`] — goodput, token throughput, utilization, and exact
//!   nearest-rank p50/p95/p99 latency quantiles ([`LatencyStats`]) for
//!   TTFT, per-output-token latency, and end-to-end time.
//! * [`Fleet`] — fleet-scale serving: a deterministic router
//!   ([`RouterPolicy`]) shards one trace across N replica chips
//!   ([`FleetSpec::replicated`]) or across dedicated prefill chips
//!   feeding decode chips with the K/V handoff charged at DRAM
//!   bandwidth ([`FleetSpec::disaggregated`]); per-replica reports merge
//!   into a fleet-level [`ServeReport`] with exact quantiles over the
//!   union of raw samples ([`FleetReport`]).
//! * [`ServeObjective`] — the DSE bridge. As a
//!   [`fusemax_dse::Objective`] handed to
//!   [`fusemax_dse::Sweeper::with_objective`], every search strategy
//!   optimizes SLA-feasible goodput per total cm² *in the loop*, with
//!   the fleet shape searchable like any other axis; post hoc,
//!   [`ServeObjective::rank`] re-ranks swept
//!   [`fusemax_dse::Evaluation`]s by the same merit ([`Sla`],
//!   [`ServeScore`]).
//!
//! # Example
//!
//! ```
//! use fusemax_model::ModelParams;
//! use fusemax_serve::{Arrivals, LengthMix, ServeObjective, Sla, TrafficSpec};
//! use fusemax_workloads::TransformerConfig;
//!
//! // A light interactive mix: short prompts, short answers.
//! let trace = TrafficSpec {
//!     arrivals: Arrivals::Poisson { rate_per_s: 25.0 },
//!     prompt_mix: LengthMix::new([(256, 3.0), (1024, 1.0)]),
//!     output_mix: LengthMix::uniform([8, 32]),
//!     requests: 40,
//! }
//! .generate(7);
//!
//! // Sweep the Fig 12 chip family for BERT, then pick the best *server*.
//! let params = ModelParams::default();
//! let space = fusemax_dse::DesignSpace::new()
//!     .with_workloads([TransformerConfig::bert()]);
//! let outcome = fusemax_dse::Sweeper::new(params.clone()).sweep(&space);
//!
//! let objective = ServeObjective::new(trace, Sla::p99_ttft(0.25));
//! let (best, score) = objective.rank(&outcome.evaluations, &params).remove(0);
//! assert!(score.report.completed == 40);
//! // The serving winner is typically NOT the biggest (latency-best) chip.
//! assert!(best.point.array_dim <= 512);
//! ```

mod attribution;
mod fault;
mod fleet;
mod objective;
mod report;
mod sim;
mod table;
mod traffic;

pub use attribution::{LatencyAttribution, SlaForensics, SlaViolation, LATENCY_BUCKETS};
pub use fault::{FaultEvent, FaultKind, FaultSpec, FaultSpecError, RetryPolicy};
pub use fleet::{Fleet, FleetReport, ReplicaImbalance};
pub use fusemax_dse::{FleetSpec, QueueOrder, RouterPolicy, SchedulerPolicy, SpecError};
pub use objective::{ScenarioRanking, ServeObjective, ServeScore, Sla};
pub use report::{FaultStats, LatencyStats, ServeReport};
pub use sim::{RunSamples, ServeSim, ServeSimBuilder};
pub use table::ServiceTimeTable;
pub use traffic::{Arrivals, LengthMix, Request, Trace, TrafficSpec};
