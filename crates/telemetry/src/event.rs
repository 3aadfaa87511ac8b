//! The typed event vocabulary: everything the search and serving stacks
//! can say about themselves, keyed by **deterministic** clocks.
//!
//! Search events are keyed by *evaluation count* (how many distinct design
//! points the run had charged when the event fired) and serve events by
//! *simulated seconds* — never by wall clock — so an instrumented run
//! replayed with the same seed emits a byte-identical stream, and the
//! stream itself can be golden-gated like any other artifact.

use std::fmt::Write as _;

/// One telemetry event from either instrumented subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A design-space-search event at `tick` distinct evaluations charged.
    Search {
        /// Distinct design points the session had charged when the event
        /// fired (the search-side deterministic clock).
        tick: u64,
        /// What happened.
        kind: SearchEvent,
    },
    /// A serving-simulator event at `t_s` simulated seconds.
    Serve {
        /// Simulated time in seconds (the serve-side deterministic clock).
        t_s: f64,
        /// What happened.
        kind: ServeEvent,
    },
}

impl Event {
    /// A search event at `tick` charged evaluations.
    pub fn search(tick: u64, kind: SearchEvent) -> Self {
        Event::Search { tick, kind }
    }

    /// A serve event at `t_s` simulated seconds.
    pub fn serve(t_s: f64, kind: ServeEvent) -> Self {
        Event::Serve { t_s, kind }
    }
}

/// What a guided search or sweep can report. Emitted in proposal/staging
/// order by the session, which is serial by construction — so the stream
/// is identical across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchEvent {
    /// A candidate was staged for evaluation (charged against the budget).
    Staged,
    /// The multi-fidelity lower-bound screen rejected a candidate before
    /// the model ran.
    ScreenedOut,
    /// A staged point resolved from the shared evaluation cache.
    CacheHit,
    /// A staged point missed the shared cache and ran the model.
    CacheMiss,
    /// A staged batch was flushed to the (possibly parallel) workers.
    FlushBatch {
        /// Number of design points evaluated in the batch.
        size: usize,
    },
    /// An evaluation was offered to its group's Pareto frontier.
    FrontierInsert {
        /// `true` when the point joined the frontier (possibly evicting
        /// dominated members), `false` when it was dominated on arrival.
        admitted: bool,
        /// Frontier size after the insertion.
        frontier_len: usize,
    },
    /// One sample of a hypervolume convergence curve.
    HypervolumeSample {
        /// Fraction of the exhaustive reference hypervolume recovered.
        fraction: f64,
    },
    /// An annealing chain started walking its `(workload, seq_len)`
    /// group. Chain sessions are buffered and merged in chain order, so
    /// the marker partitions the merged stream into per-chain segments
    /// deterministically.
    ChainStart {
        /// Chain index (group order: workloads-major, seq-lens-minor).
        chain: u64,
    },
}

/// What the serving simulator can report, all at simulated timestamps.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// A request arrived (timestamped with its trace arrival time).
    Arrive {
        /// Trace request id.
        req: u64,
    },
    /// A request was admitted into the resident batch.
    Admit {
        /// Trace request id.
        req: u64,
    },
    /// A request's prefill phase entered the current engine iteration.
    PrefillStart {
        /// Trace request id.
        req: u64,
        /// Context length (prompt tokens) being prefilled.
        context: usize,
    },
    /// A request's prefill phase completed (first token produced).
    PrefillEnd {
        /// Trace request id.
        req: u64,
    },
    /// One engine iteration completed.
    DecodeIter {
        /// Resident requests processed this iteration.
        batch: usize,
        /// Bytes of K/V state resident in the global buffer.
        resident_kv: u64,
    },
    /// A request finished its last output token and retired.
    Complete {
        /// Trace request id.
        req: u64,
    },
    /// Waiting-queue depth after this iteration's admissions.
    QueueDepthSample {
        /// Requests waiting for admission.
        depth: usize,
    },
    /// A partial prefill chunk ran in the current engine iteration.
    /// Only chunked-prefill scheduler policies emit this; whole-prompt
    /// prefill describes itself with `PrefillStart`/`PrefillEnd` alone,
    /// so default-policy streams are byte-identical to the pre-scheduler
    /// traces.
    PrefillChunk {
        /// Trace request id.
        req: u64,
        /// Prompt tokens prefilled by this chunk.
        tokens: usize,
        /// Prompt tokens still unprefilled after this chunk.
        remaining: usize,
    },
    /// A request entered the policy-ordered waiting queue (non-default
    /// scheduler policies only).
    Enqueue {
        /// Trace request id.
        req: u64,
    },
    /// A request left the waiting queue for admission (non-default
    /// scheduler policies only).
    Dequeue {
        /// Trace request id.
        req: u64,
    },
    /// Policy-ordered waiting-queue depth after this iteration's
    /// admissions (non-default scheduler policies only).
    WaitingDepth {
        /// Requests held in the waiting queue.
        depth: usize,
    },
    /// The fleet router assigned a request to a replica (fleet runs
    /// only; single-chip streams never carry this, so their traces stay
    /// byte-identical to the pre-fleet goldens).
    Route {
        /// Trace request id.
        req: u64,
        /// Replica index the request was routed to.
        replica: usize,
    },
    /// A prefill chip handed a request's K/V cache to a decode chip
    /// (disaggregated fleets only), charged at DRAM bandwidth.
    KvTransfer {
        /// Trace request id.
        req: u64,
        /// Bytes of K/V state moved.
        bytes: u64,
        /// Wire time of the transfer in seconds.
        seconds: f64,
    },
    /// A replica chip failed stop (fault-injected runs only; fault-free
    /// streams never carry any of the fault events, so legacy traces stay
    /// byte-identical).
    ReplicaDown {
        /// Fleet chip index that died.
        replica: usize,
    },
    /// A failed replica chip recovered and rejoined the fleet
    /// (fault-injected runs only).
    ReplicaUp {
        /// Fleet chip index that recovered.
        replica: usize,
    },
    /// A replica chip entered a degraded mode — clock throttle or
    /// DRAM-bandwidth brownout (fault-injected runs only).
    Degraded {
        /// Fleet chip index degraded.
        replica: usize,
        /// Service-time multiplier (`>= 1.0`; `1.0` clears the mode).
        slowdown: f64,
        /// `true` for a DRAM-bandwidth brownout, `false` for a clock
        /// throttle.
        dram: bool,
    },
    /// A request lost to a replica failure re-entered the router's queue
    /// after its exponential-backoff delay (fault-injected runs only).
    Retry {
        /// Trace request id.
        req: u64,
        /// Attempt number this retry starts (the first retry is 1).
        attempt: usize,
        /// Backoff delay before re-admission, in seconds.
        delay_s: f64,
    },
    /// A request was shed — dropped without completing — because its
    /// retry budget ran out or surviving capacity fell below the
    /// load-shedding watermark (fault-injected runs only).
    Shed {
        /// Trace request id.
        req: u64,
    },
}

/// A finite `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent). Shortest-round-trip formatting, so identical
/// values always serialize to identical bytes.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".into()
    }
}

/// A string as a JSON string literal.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One event as a single JSON object, for line-per-event dumps and diffs.
/// Field order is fixed, floats use shortest-round-trip formatting: two
/// identical events always serialize to identical bytes.
pub fn event_json(event: &Event) -> String {
    match event {
        Event::Search { tick, kind } => {
            let body = match kind {
                SearchEvent::Staged => "\"kind\":\"staged\"".to_string(),
                SearchEvent::ScreenedOut => "\"kind\":\"screened_out\"".to_string(),
                SearchEvent::CacheHit => "\"kind\":\"cache_hit\"".to_string(),
                SearchEvent::CacheMiss => "\"kind\":\"cache_miss\"".to_string(),
                SearchEvent::FlushBatch { size } => {
                    format!("\"kind\":\"flush_batch\",\"size\":{size}")
                }
                SearchEvent::FrontierInsert { admitted, frontier_len } => format!(
                    "\"kind\":\"frontier_insert\",\"admitted\":{admitted},\"frontier_len\":{frontier_len}"
                ),
                SearchEvent::HypervolumeSample { fraction } => {
                    format!("\"kind\":\"hypervolume_sample\",\"fraction\":{}", num(*fraction))
                }
                SearchEvent::ChainStart { chain } => {
                    format!("\"kind\":\"chain_start\",\"chain\":{chain}")
                }
            };
            format!("{{\"type\":\"search\",\"tick\":{tick},{body}}}")
        }
        Event::Serve { t_s, kind } => {
            let body = match kind {
                ServeEvent::Arrive { req } => format!("\"kind\":\"arrive\",\"req\":{req}"),
                ServeEvent::Admit { req } => format!("\"kind\":\"admit\",\"req\":{req}"),
                ServeEvent::PrefillStart { req, context } => {
                    format!("\"kind\":\"prefill_start\",\"req\":{req},\"context\":{context}")
                }
                ServeEvent::PrefillEnd { req } => {
                    format!("\"kind\":\"prefill_end\",\"req\":{req}")
                }
                ServeEvent::DecodeIter { batch, resident_kv } => {
                    format!(
                        "\"kind\":\"decode_iter\",\"batch\":{batch},\"resident_kv\":{resident_kv}"
                    )
                }
                ServeEvent::Complete { req } => format!("\"kind\":\"complete\",\"req\":{req}"),
                ServeEvent::QueueDepthSample { depth } => {
                    format!("\"kind\":\"queue_depth\",\"depth\":{depth}")
                }
                ServeEvent::PrefillChunk { req, tokens, remaining } => {
                    format!(
                        "\"kind\":\"prefill_chunk\",\"req\":{req},\"tokens\":{tokens},\
                         \"remaining\":{remaining}"
                    )
                }
                ServeEvent::Enqueue { req } => format!("\"kind\":\"enqueue\",\"req\":{req}"),
                ServeEvent::Dequeue { req } => format!("\"kind\":\"dequeue\",\"req\":{req}"),
                ServeEvent::WaitingDepth { depth } => {
                    format!("\"kind\":\"waiting_depth\",\"depth\":{depth}")
                }
                ServeEvent::Route { req, replica } => {
                    format!("\"kind\":\"route\",\"req\":{req},\"replica\":{replica}")
                }
                ServeEvent::KvTransfer { req, bytes, seconds } => {
                    format!(
                        "\"kind\":\"kv_transfer\",\"req\":{req},\"bytes\":{bytes},\"seconds\":{}",
                        num(*seconds)
                    )
                }
                ServeEvent::ReplicaDown { replica } => {
                    format!("\"kind\":\"replica_down\",\"replica\":{replica}")
                }
                ServeEvent::ReplicaUp { replica } => {
                    format!("\"kind\":\"replica_up\",\"replica\":{replica}")
                }
                ServeEvent::Degraded { replica, slowdown, dram } => {
                    format!(
                        "\"kind\":\"degraded\",\"replica\":{replica},\"slowdown\":{},\
                         \"dram\":{dram}",
                        num(*slowdown)
                    )
                }
                ServeEvent::Retry { req, attempt, delay_s } => {
                    format!(
                        "\"kind\":\"retry\",\"req\":{req},\"attempt\":{attempt},\"delay_s\":{}",
                        num(*delay_s)
                    )
                }
                ServeEvent::Shed { req } => format!("\"kind\":\"shed\",\"req\":{req}"),
            };
            format!("{{\"type\":\"serve\",\"t_s\":{},{body}}}", num(*t_s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_is_stable_and_typed() {
        let e = Event::search(3, SearchEvent::CacheHit);
        assert_eq!(event_json(&e), "{\"type\":\"search\",\"tick\":3,\"kind\":\"cache_hit\"}");
        let e = Event::serve(0.5, ServeEvent::DecodeIter { batch: 4, resident_kv: 1024 });
        assert_eq!(
            event_json(&e),
            "{\"type\":\"serve\",\"t_s\":5e-1,\"kind\":\"decode_iter\",\"batch\":4,\"resident_kv\":1024}"
        );
    }

    #[test]
    fn identical_events_serialize_identically() {
        let a = Event::serve(1.0 / 3.0, ServeEvent::QueueDepthSample { depth: 2 });
        let b = Event::serve(1.0 / 3.0, ServeEvent::QueueDepthSample { depth: 2 });
        assert_eq!(a, b);
        assert_eq!(event_json(&a), event_json(&b));
    }

    #[test]
    fn fault_events_serialize_with_fixed_field_order() {
        let cases = [
            (
                ServeEvent::ReplicaDown { replica: 2 },
                "{\"type\":\"serve\",\"t_s\":5e-1,\"kind\":\"replica_down\",\"replica\":2}",
            ),
            (
                ServeEvent::ReplicaUp { replica: 2 },
                "{\"type\":\"serve\",\"t_s\":5e-1,\"kind\":\"replica_up\",\"replica\":2}",
            ),
            (
                ServeEvent::Degraded { replica: 1, slowdown: 2.0, dram: true },
                "{\"type\":\"serve\",\"t_s\":5e-1,\"kind\":\"degraded\",\"replica\":1,\
                 \"slowdown\":2e0,\"dram\":true}",
            ),
            (
                ServeEvent::Retry { req: 7, attempt: 1, delay_s: 0.05 },
                "{\"type\":\"serve\",\"t_s\":5e-1,\"kind\":\"retry\",\"req\":7,\"attempt\":1,\
                 \"delay_s\":5e-2}",
            ),
            (
                ServeEvent::Shed { req: 9 },
                "{\"type\":\"serve\",\"t_s\":5e-1,\"kind\":\"shed\",\"req\":9}",
            ),
        ];
        for (kind, expected) in cases {
            assert_eq!(event_json(&Event::serve(0.5, kind)), expected);
        }
    }

    #[test]
    fn non_finite_timestamps_become_null() {
        let e = Event::serve(f64::NAN, ServeEvent::Arrive { req: 0 });
        assert!(event_json(&e).contains("\"t_s\":null"));
    }

    #[test]
    fn quoting_escapes_json_specials() {
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
