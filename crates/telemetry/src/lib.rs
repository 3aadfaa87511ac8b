//! `fusemax-telemetry`: deterministic tracing, metrics, and Perfetto
//! timeline export for the FuseMax search and serving stack.
//!
//! The crate is deliberately zero-dependency and wall-clock-free: search
//! events are keyed by evaluation count and serve events by simulated
//! time, so an instrumented run replayed with the same seed emits a
//! byte-identical event stream — the stream is an artifact like any
//! other, golden-gated and diffable in CI.
//!
//! The three layers:
//!
//! - [`Event`] / [`SearchEvent`] / [`ServeEvent`] — the typed vocabulary,
//!   recorded through a [`Recorder`] into a [`TelemetrySink`] (every
//!   caller uses [`VecSink`]); [`event_json`] renders one event as one
//!   deterministic JSON object. The default recorder is disabled: `emit`
//!   is a single branch and the event closure never runs.
//! - [`Metrics`] — monotonic counters, gauges, and fixed-bucket
//!   [`Histogram`]s (cache hits and misses, screen-reject rate, batch
//!   and queue-depth distributions), built from a stream with
//!   [`Metrics::from_events`] and snapshotted as deterministic JSON with
//!   [`Metrics::summary_json`].
//! - [`serve_trace_json`] / [`fleet_trace_json`] / [`search_trace_json`]
//!   — Chrome-trace JSON for `chrome://tracing` /
//!   <https://ui.perfetto.dev> (fleet runs render one process per
//!   replica chip plus a router process with `Route`/`KvTransfer`
//!   spans), with [`validate_chrome_trace`] as the parser-free validity
//!   gate CI runs on every exported trace.
//! - [`folded_stack_text`] / [`roofline_json`] / [`roofline_csv`] /
//!   [`SearchBudgetAttribution`] — profile exports: inferno-format
//!   flamegraph stacks (gated by [`validate_folded_stacks`]), roofline
//!   tables, and per-strategy search-budget accounting, all pure
//!   functions of deterministic inputs.

#![warn(missing_docs)]

mod event;
mod metrics;
mod perfetto;
mod profile;
mod sink;

pub use event::{event_json, Event, SearchEvent, ServeEvent};
pub use metrics::{Histogram, Metrics};
pub use perfetto::{
    fleet_trace_json, search_trace_json, serve_trace_json, validate_chrome_trace, ChromeTrace,
};
pub use profile::{
    folded_stack_text, roofline_csv, roofline_json, search_budget_json, validate_folded_stacks,
    RooflinePoint, SearchBudgetAttribution,
};
pub use sink::{Recorder, TelemetrySink, VecSink};

/// The JSON scalar writers every exporter in the workspace shares
/// (telemetry streams and snapshots, the DSE frontier files),
/// so equal values always serialize to equal bytes.
pub mod json {
    pub use crate::event::{num, quoted};
}
