#![warn(missing_docs)]

//! Design-space exploration over the FuseMax analytical model: enumerate a
//! space of candidate accelerators, evaluate them through
//! [`fusemax_model`], keep multi-objective Pareto frontiers, prune
//! provably-dominated candidates before paying for them, and cache every
//! evaluation so repeated sweeps (figure regeneration, interactive
//! narrowing) are free.
//!
//! This is the searching counterpart to the paper's Fig 12: where the
//! evaluation section sweeps six hand-picked array sizes for one
//! configuration, this crate sweeps the cartesian space of architecture and
//! workload knobs and reports what is actually Pareto-optimal.
//!
//! # Search-space grammar
//!
//! A [`DesignSpace`] is the cartesian product of eight axes; each `with_*`
//! builder method replaces one axis and every combination becomes one
//! [`DesignPoint`]:
//!
//! ```text
//! space       := array_dims × kinds × workloads × seq_lens
//!                × frequencies × buffer_scales × policies × fleets
//! array_dim   := n                  -- n×n 2D PEs, n 1D PEs, buffer ∝ n²
//!                                      (Fig 12 default: 16, 32, …, 512)
//! kind        := Unfused | Flat | FuseMaxCascade
//!              | FuseMaxArch | FuseMaxBinding
//!                                   -- FuseMax kinds run on the FuseMax
//!                                      chip, the rest on the FLAT chip
//!                                      (see [`arch_for`])
//! workload    := TransformerConfig  -- BERT / TrXL / T5 / XLM or custom
//! seq_len     := tokens             -- paper sweep: 1K … 1M
//! frequency   := None | Some(hz)    -- None keeps the family's stock clock
//! buffer_scale:= ×f                 -- multiplier on the scaled buffer
//! policy      := SchedulerPolicy    -- serving-scheduler knobs (prefill
//!                                      chunk budget, admission ratio,
//!                                      queue order); default is the
//!                                      single legacy whole-prompt/FCFS
//!                                      policy, which changes nothing
//! fleet       := FleetSpec          -- how many replica chips serve the
//!                                      trace and how requests route to
//!                                      them (or a prefill/decode split);
//!                                      default is the 1-chip fleet, which
//!                                      changes nothing. Area becomes
//!                                      *total* fleet silicon.
//! ```
//!
//! Evaluating a point yields an [`Evaluation`] with three **minimized**
//! objectives — chip area (cm²), full-model attention latency (s), and
//! full-model attention energy (J) — compared by Pareto dominance in
//! [`ParetoFrontier`], one frontier per `(workload, seq_len)` group
//! (dominance across different workloads is meaningless).
//!
//! # Engine
//!
//! [`Sweeper::sweep`] evaluates every point, serially and in space order,
//! and is the ground truth used by `fusemax_eval::fig12`.
//! [`Sweeper::sweep_pruned`] additionally tests each candidate's
//! closed-form optimistic bound ([`Sweeper::lower_bound`]) against the
//! running frontier and skips candidates that provably cannot be
//! Pareto-optimal, so dominated subspaces are never evaluated at all.
//! Both paths share the keyed [`EvalCache`]; a second sweep over any
//! overlapping space returns the *same* [`std::sync::Arc`] allocations,
//! bit-identical by construction.
//!
//! Analytical winners should not be trusted blindly: [`validate_top_k`]
//! replays the best frontier designs through the discrete-event simulator
//! in [`fusemax_spatial`], confirming the schedule computes reference
//! attention numerics and that its cycle count is sane.
//!
//! # Guided search
//!
//! When the axes multiply past what exhaustive enumeration should pay
//! for, the [`search`] module explores on a budget: random sampling,
//! genetic search with Pareto-rank fitness, and simulated annealing over
//! a continuous-knob relaxation — all deterministic per seed, all
//! sharing the sweeper's [`EvalCache`] with exhaustive runs, and all
//! scored by the fraction of the exhaustive Pareto hypervolume they
//! recover ([`search::hypervolume_fraction`], [`search::convergence`]).
//!
//! Under [`search::SnapPolicy::Continuous`] the annealer and the genetic
//! searcher evaluate genuinely **off-grid** designs
//! ([`Candidate::OffGrid`]: any array dimension, any buffer byte count) —
//! the model accepts them, the cache keys them canonically, and they
//! routinely dominate grid frontier points. With `with_screening(true)`
//! any strategy additionally rejects candidates whose zero-cost
//! [`Sweeper::lower_bound`] is already dominated by the running frontier,
//! charged to a separate cheap budget ([`search::SearchBudget::cheap`])
//! instead of a model evaluation.
//!
//! # Objectives in the loop
//!
//! [`Sweeper::with_objective`] attaches a scalar [`Objective`] (e.g.
//! `fusemax_serve::ServeObjective`: SLA-feasible goodput per total cm²)
//! that the search session scores every landing evaluation against, in
//! its deterministic serial fold. Strategies then climb the objective
//! *inside* the loop — genetic selection ranks by [`MeritScore`],
//! annealing descends the objective's energy landscape — and the winner
//! comes back as [`search::SearchOutcome::objective_best`]. Without an
//! objective attached, nothing changes (trajectories are preserved
//! bit-for-bit).
//!
//! # Example
//!
//! ```
//! use fusemax_dse::{DesignSpace, Sweeper};
//! use fusemax_model::{ConfigKind, ModelParams};
//!
//! // All five configurations × three chip sizes on BERT at 64K tokens.
//! let space = DesignSpace::new()
//!     .with_array_dims([64, 128, 256])
//!     .with_kinds(ConfigKind::all())
//!     .with_workloads([fusemax_workloads::TransformerConfig::bert()])
//!     .with_seq_lens([1 << 16]);
//!
//! let sweeper = Sweeper::new(ModelParams::default());
//! let outcome = sweeper.sweep(&space);
//! assert_eq!(outcome.evaluations.len(), 15);
//!
//! // +Binding dominates the baselines at equal scale, so the frontier is
//! // thinner than the space.
//! let frontier = &outcome.frontiers[0].frontier;
//! assert!(!frontier.is_empty() && frontier.len() < 15);
//!
//! // A second sweep is pure cache hits.
//! let again = sweeper.sweep(&space);
//! assert_eq!(again.stats.cache_hits, 15);
//! ```

mod cache;
mod json;
mod objective;
mod pareto;
pub mod search;
mod space;
mod sweep;
mod validate;

pub use cache::{record_cache_metrics, EvalCache, PointKey};
pub use json::{frontier_json, frontiers_only_json};
pub use objective::{MeritScore, Objective};
pub use pareto::{dominates, pareto_ranks, Objectives, ParetoFrontier};
pub use space::{
    arch_for, AxisIndex, Candidate, DesignPoint, DesignSpace, FleetSpec, QueueOrder, RouterPolicy,
    SchedulerPolicy, SpecError,
};
pub use sweep::{Evaluation, FrontierGroup, SweepOutcome, SweepStats, Sweeper};
pub use validate::{validate_top_k, Validation, ValidationStatus};

/// The array dimensions of the paper's Fig 12 family (16×16 … 512×512) —
/// the default [`DesignSpace`] dimension axis.
pub const ARRAY_DIMS: [usize; 6] = [16, 32, 64, 128, 256, 512];
