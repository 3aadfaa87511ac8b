//! Chrome-trace / Perfetto JSON export.
//!
//! The exported files load directly in `chrome://tracing` or
//! <https://ui.perfetto.dev>: a `ServeSim` run renders as one timeline
//! track per resident batch slot (request lifetime spans with nested
//! prefill spans) plus counter tracks (batch size, resident K/V bytes,
//! queue depth); a search run renders as per-strategy convergence tracks
//! (hypervolume fraction, frontier size, cumulative cache traffic)
//! against the evaluation-count clock.
//!
//! Timed events are stably sorted by timestamp before serialization, so
//! file-order timestamps are monotone — the property the CI validity
//! gate asserts — and the bytes are a pure function of the event stream.

use crate::event::{num, quoted, Event, SearchEvent, ServeEvent};

/// Incremental builder for a Chrome-trace JSON document.
///
/// Metadata records (process/thread names) serialize first; timed records
/// are stably sorted by timestamp, so ties keep insertion order and the
/// output is deterministic.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    meta: Vec<String>,
    timed: Vec<(f64, String)>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Name the process `pid`.
    pub fn process(&mut self, pid: u64, name: &str) {
        self.meta.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
            quoted(name)
        ));
    }

    /// Name thread `tid` of process `pid`.
    pub fn thread(&mut self, pid: u64, tid: u64, name: &str) {
        self.meta.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            quoted(name)
        ));
    }

    /// A complete ("X") span: `[ts_us, ts_us + dur_us]` on one track.
    /// `args` is a pre-rendered JSON object body (may be empty).
    pub fn complete(
        &mut self,
        name: &str,
        pid: u64,
        tid: u64,
        ts_us: f64,
        dur_us: f64,
        args: &str,
    ) {
        self.timed.push((
            ts_us,
            format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{{args}}}}}",
                quoted(name),
                num(ts_us),
                num(dur_us.max(0.0))
            ),
        ));
    }

    /// An instant ("i") marker on one track.
    pub fn instant(&mut self, name: &str, pid: u64, tid: u64, ts_us: f64, args: &str) {
        self.timed.push((
            ts_us,
            format!(
                "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\"s\":\"t\",\
                 \"args\":{{{args}}}}}",
                quoted(name),
                num(ts_us)
            ),
        ));
    }

    /// A counter ("C") sample: one series named `name` with value `value`.
    pub fn counter(&mut self, name: &str, pid: u64, ts_us: f64, value: f64) {
        self.timed.push((
            ts_us,
            format!(
                "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\"args\":{{{}:{}}}}}",
                quoted(name),
                num(ts_us),
                quoted(name),
                num(value)
            ),
        ));
    }

    /// Serialize: metadata first, then timed events stably sorted by
    /// timestamp (ties keep insertion order). The records go straight
    /// into one string sized up front, so the export holds the document
    /// once besides its records.
    pub fn to_json(&self) -> String {
        let mut timed: Vec<&(f64, String)> = self.timed.iter().collect();
        timed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite trace timestamps"));
        let records = || self.meta.iter().chain(timed.iter().map(|(_, json)| json));
        let (open, close) = ("{\"traceEvents\":[", "]}");
        let len = open.len() + records().map(|r| r.len() + 1).sum::<usize>() + close.len();
        let mut json = String::with_capacity(len);
        json.push_str(open);
        for (i, record) in records().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(record);
        }
        json.push_str(close);
        json
    }
}

const SERVE_PID: u64 = 1;
const ARRIVAL_TID: u64 = 1000;
const WAITING_TID: u64 = 1001;
const ROUTER_TID: u64 = 1002;
const FAULT_TID: u64 = 1003;

/// A prefill window mid-flight: `(start_ts, context_tokens, end_ts)`.
type PrefillWindow = (f64, usize, Option<f64>);
/// One occupied batch slot: `(req, admit_ts, prefill window)`.
type SlotState = (u64, f64, Option<PrefillWindow>);

/// Render a `ServeSim` event stream as a Chrome trace: one thread track
/// per resident batch slot (requests claim the lowest free slot on admit
/// and release it on completion), an arrivals track, a scheduler track
/// (waiting-queue enqueue/dequeue markers and prefill-chunk instants),
/// and counter tracks for batch size, resident K/V bytes, queue depth,
/// and waiting depth. Timestamps are simulated seconds scaled to trace
/// microseconds.
pub fn serve_trace_json(events: &[Event]) -> String {
    let mut trace = ChromeTrace::new();
    add_serve_stream(&mut trace, SERVE_PID, "serve", events);
    trace.to_json()
}

/// Render a fleet run as a Chrome trace: each named stream (the router's
/// `Route`/`KvTransfer` stream plus one serve stream per replica chip)
/// becomes its own trace process, so a disaggregated fleet shows prefill
/// chips, decode chips, and the K/V handoffs between them on one
/// timeline. Stream order fixes the process ids, so the bytes are a pure
/// function of the input.
pub fn fleet_trace_json(streams: &[(&str, &[Event])]) -> String {
    let mut trace = ChromeTrace::new();
    for (idx, (name, events)) in streams.iter().enumerate() {
        add_serve_stream(&mut trace, idx as u64 + 1, name, events);
    }
    trace.to_json()
}

/// One serve event stream rendered as one trace process (`pid`).
fn add_serve_stream(trace: &mut ChromeTrace, pid: u64, name: &str, events: &[Event]) {
    let us = |t_s: f64| t_s * 1e6;
    trace.process(pid, name);
    trace.thread(pid, ARRIVAL_TID, "arrivals");

    // slot -> (req, admit_ts, prefill window) for in-flight requests.
    let mut slots: Vec<Option<SlotState>> = Vec::new();
    let mut slot_of = std::collections::HashMap::new();
    let mut named_slots = 0usize;
    let mut named_scheduler = false;
    let mut named_router = false;
    let mut named_fault = false;
    let mut last_t = 0.0f64;

    for event in events {
        let Event::Serve { t_s, kind } = event else { continue };
        let t = us(*t_s);
        last_t = last_t.max(t);
        match kind {
            ServeEvent::Arrive { req } => {
                trace.instant("arrive", pid, ARRIVAL_TID, t, &format!("\"req\":{req}"));
            }
            ServeEvent::Admit { req } => {
                let slot = slots.iter().position(Option::is_none).unwrap_or_else(|| {
                    slots.push(None);
                    slots.len() - 1
                });
                while named_slots <= slot {
                    trace.thread(pid, named_slots as u64, &format!("slot {named_slots}"));
                    named_slots += 1;
                }
                slots[slot] = Some((*req, t, None));
                slot_of.insert(*req, slot);
            }
            ServeEvent::PrefillStart { req, context } => {
                if let Some(&slot) = slot_of.get(req) {
                    if let Some((_, _, prefill @ None)) = &mut slots[slot] {
                        *prefill = Some((t, *context, None));
                    }
                }
            }
            ServeEvent::PrefillEnd { req } => {
                if let Some(&slot) = slot_of.get(req) {
                    if let Some((_, _, Some((_, _, end @ None)))) = &mut slots[slot] {
                        *end = Some(t);
                    }
                }
            }
            ServeEvent::Complete { req } => {
                if let Some(slot) = slot_of.remove(req) {
                    if let Some((req, admit, prefill)) = slots[slot].take() {
                        close_request(trace, pid, slot as u64, req, admit, t, prefill);
                    }
                }
            }
            ServeEvent::DecodeIter { batch, resident_kv } => {
                trace.counter("batch", pid, t, *batch as f64);
                trace.counter("resident_kv", pid, t, *resident_kv as f64);
            }
            ServeEvent::QueueDepthSample { depth } => {
                trace.counter("queue_depth", pid, t, *depth as f64);
            }
            ServeEvent::PrefillChunk { req, tokens, remaining } => {
                if let Some(&slot) = slot_of.get(req) {
                    trace.instant(
                        &format!("chunk {req}"),
                        pid,
                        slot as u64,
                        t,
                        &format!("\"req\":{req},\"tokens\":{tokens},\"remaining\":{remaining}"),
                    );
                }
            }
            ServeEvent::Enqueue { req } => {
                if !named_scheduler {
                    trace.thread(pid, WAITING_TID, "scheduler");
                    named_scheduler = true;
                }
                trace.instant("enqueue", pid, WAITING_TID, t, &format!("\"req\":{req}"));
            }
            ServeEvent::Dequeue { req } => {
                if !named_scheduler {
                    trace.thread(pid, WAITING_TID, "scheduler");
                    named_scheduler = true;
                }
                trace.instant("dequeue", pid, WAITING_TID, t, &format!("\"req\":{req}"));
            }
            ServeEvent::WaitingDepth { depth } => {
                trace.counter("waiting_depth", pid, t, *depth as f64);
            }
            ServeEvent::Route { req, replica } => {
                if !named_router {
                    trace.thread(pid, ROUTER_TID, "router");
                    named_router = true;
                }
                trace.instant(
                    &format!("route {replica}"),
                    pid,
                    ROUTER_TID,
                    t,
                    &format!("\"req\":{req},\"replica\":{replica}"),
                );
            }
            ServeEvent::KvTransfer { req, bytes, seconds } => {
                if !named_router {
                    trace.thread(pid, ROUTER_TID, "router");
                    named_router = true;
                }
                trace.complete(
                    &format!("kv {req}"),
                    pid,
                    ROUTER_TID,
                    t,
                    us(*seconds),
                    &format!("\"req\":{req},\"bytes\":{bytes}"),
                );
            }
            ServeEvent::ReplicaDown { replica } => {
                if !named_fault {
                    trace.thread(pid, FAULT_TID, "faults");
                    named_fault = true;
                }
                trace.instant(
                    &format!("down {replica}"),
                    pid,
                    FAULT_TID,
                    t,
                    &format!("\"replica\":{replica}"),
                );
            }
            ServeEvent::ReplicaUp { replica } => {
                if !named_fault {
                    trace.thread(pid, FAULT_TID, "faults");
                    named_fault = true;
                }
                trace.instant(
                    &format!("up {replica}"),
                    pid,
                    FAULT_TID,
                    t,
                    &format!("\"replica\":{replica}"),
                );
            }
            ServeEvent::Degraded { replica, slowdown, dram } => {
                if !named_fault {
                    trace.thread(pid, FAULT_TID, "faults");
                    named_fault = true;
                }
                trace.instant(
                    &format!("degraded {replica}"),
                    pid,
                    FAULT_TID,
                    t,
                    &format!(
                        "\"replica\":{replica},\"slowdown\":{},\"dram\":{dram}",
                        num(*slowdown)
                    ),
                );
            }
            ServeEvent::Retry { req, attempt, delay_s } => {
                if !named_fault {
                    trace.thread(pid, FAULT_TID, "faults");
                    named_fault = true;
                }
                trace.complete(
                    &format!("retry {req}"),
                    pid,
                    FAULT_TID,
                    t,
                    us(*delay_s),
                    &format!("\"req\":{req},\"attempt\":{attempt}"),
                );
            }
            ServeEvent::Shed { req } => {
                if !named_fault {
                    trace.thread(pid, FAULT_TID, "faults");
                    named_fault = true;
                }
                trace.instant(&format!("shed {req}"), pid, FAULT_TID, t, &format!("\"req\":{req}"));
            }
        }
    }
    // Close any request still resident when the stream ends so its span
    // is visible rather than silently dropped.
    for (slot, state) in slots.iter_mut().enumerate() {
        if let Some((req, admit, prefill)) = state.take() {
            close_request(trace, pid, slot as u64, req, admit, last_t, prefill);
        }
    }
}

fn close_request(
    trace: &mut ChromeTrace,
    pid: u64,
    slot: u64,
    req: u64,
    admit_us: f64,
    end_us: f64,
    prefill: Option<(f64, usize, Option<f64>)>,
) {
    trace.complete(
        &format!("req {req}"),
        pid,
        slot,
        admit_us,
        end_us - admit_us,
        &format!("\"req\":{req}"),
    );
    if let Some((start, context, end)) = prefill {
        let end = end.unwrap_or(end_us);
        trace.complete(
            &format!("prefill {req}"),
            pid,
            slot,
            start,
            end - start,
            &format!("\"req\":{req},\"context\":{context}"),
        );
    }
}

/// Render one or more search strategies' event streams as per-strategy
/// convergence tracks: each strategy becomes a trace process with
/// counter tracks for hypervolume fraction, frontier size, and
/// cumulative cache hits/misses, all against the evaluation-count clock
/// (one evaluation = one trace microsecond).
///
/// Streams carrying [`SearchEvent::ChainStart`] markers (annealing runs)
/// additionally get per-chain cumulative cache tracks (`cache_hits c3`)
/// that reset at each chain boundary, plus a `chain` counter stepping
/// through chain indices — so chain-local cache behaviour is visible
/// next to the run-wide totals. Streams without markers render exactly
/// as before.
pub fn search_trace_json(streams: &[(&str, &[Event])]) -> String {
    let mut trace = ChromeTrace::new();
    for (idx, (strategy, events)) in streams.iter().enumerate() {
        let pid = idx as u64 + 1;
        trace.process(pid, strategy);
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut chain: Option<u64> = None;
        let (mut chain_hits, mut chain_misses) = (0u64, 0u64);
        for event in *events {
            let Event::Search { tick, kind } = event else { continue };
            let t = *tick as f64;
            match kind {
                SearchEvent::HypervolumeSample { fraction } => {
                    trace.counter("hypervolume", pid, t, *fraction);
                }
                SearchEvent::FrontierInsert { frontier_len, .. } => {
                    trace.counter("frontier_len", pid, t, *frontier_len as f64);
                }
                SearchEvent::CacheHit => {
                    hits += 1;
                    trace.counter("cache_hits", pid, t, hits as f64);
                    if let Some(c) = chain {
                        chain_hits += 1;
                        trace.counter(&format!("cache_hits c{c}"), pid, t, chain_hits as f64);
                    }
                }
                SearchEvent::CacheMiss => {
                    misses += 1;
                    trace.counter("cache_misses", pid, t, misses as f64);
                    if let Some(c) = chain {
                        chain_misses += 1;
                        trace.counter(&format!("cache_misses c{c}"), pid, t, chain_misses as f64);
                    }
                }
                SearchEvent::FlushBatch { size } => {
                    trace.counter("flush_batch", pid, t, *size as f64);
                }
                SearchEvent::ChainStart { chain: c } => {
                    chain = Some(*c);
                    chain_hits = 0;
                    chain_misses = 0;
                    trace.counter("chain", pid, t, *c as f64);
                }
                SearchEvent::Staged | SearchEvent::ScreenedOut => {}
            }
        }
    }
    trace.to_json()
}

/// Validate an exported Chrome trace without a JSON parser: the document
/// must carry the `traceEvents` envelope, contain at least one timed
/// record, and list `"ts"` values in non-decreasing file order (the
/// exporter sorts, so any regression shows up here). Returns the number
/// of timed records.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    if !json.starts_with("{\"traceEvents\":[") {
        return Err("missing {\"traceEvents\":[ envelope".into());
    }
    if !json.ends_with("]}") {
        return Err("unterminated traceEvents array".into());
    }
    let mut count = 0usize;
    let mut last = f64::NEG_INFINITY;
    let mut rest = json;
    while let Some(pos) = rest.find("\"ts\":") {
        rest = &rest[pos + 5..];
        let end = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        let ts: f64 =
            rest[..end].parse().map_err(|e| format!("unparseable ts {:?}: {e}", &rest[..end]))?;
        if !ts.is_finite() {
            return Err(format!("non-finite ts at record {count}"));
        }
        if ts < last {
            return Err(format!("ts went backwards at record {count}: {last} -> {ts}"));
        }
        last = ts;
        count += 1;
    }
    if count == 0 {
        return Err("trace has no timed events".into());
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_stream() -> Vec<Event> {
        vec![
            Event::serve(0.0, ServeEvent::Arrive { req: 0 }),
            Event::serve(0.0, ServeEvent::Admit { req: 0 }),
            Event::serve(0.0, ServeEvent::PrefillStart { req: 0, context: 128 }),
            Event::serve(0.01, ServeEvent::PrefillEnd { req: 0 }),
            Event::serve(0.01, ServeEvent::DecodeIter { batch: 1, resident_kv: 4096 }),
            Event::serve(0.01, ServeEvent::QueueDepthSample { depth: 0 }),
            Event::serve(0.05, ServeEvent::Complete { req: 0 }),
        ]
    }

    #[test]
    fn serve_trace_is_valid_and_has_slot_tracks() {
        let json = serve_trace_json(&serve_stream());
        let timed = validate_chrome_trace(&json).expect("valid trace");
        assert!(timed >= 5);
        assert!(json.contains("\"slot 0\""));
        assert!(json.contains("\"req 0\""));
        assert!(json.contains("\"prefill 0\""));
        assert!(json.contains("\"queue_depth\""));
    }

    #[test]
    fn serve_trace_closes_unfinished_requests() {
        let mut events = serve_stream();
        events.pop(); // drop the Complete
        let json = serve_trace_json(&events);
        assert!(json.contains("\"req 0\""), "open request must still get a span");
        validate_chrome_trace(&json).expect("valid trace");
    }

    #[test]
    fn slots_are_reused_after_completion() {
        let mut events = serve_stream();
        events.push(Event::serve(0.06, ServeEvent::Admit { req: 1 }));
        events.push(Event::serve(0.09, ServeEvent::Complete { req: 1 }));
        let json = serve_trace_json(&events);
        assert!(json.contains("\"slot 0\""));
        assert!(!json.contains("\"slot 1\""), "second request should reuse the freed slot");
    }

    #[test]
    fn search_trace_tracks_convergence_per_strategy() {
        let a = vec![
            Event::search(1, SearchEvent::CacheMiss),
            Event::search(5, SearchEvent::HypervolumeSample { fraction: 0.5 }),
            Event::search(9, SearchEvent::HypervolumeSample { fraction: 0.9 }),
        ];
        let b =
            vec![Event::search(4, SearchEvent::FrontierInsert { admitted: true, frontier_len: 2 })];
        let json = search_trace_json(&[("random", &a), ("genetic", &b)]);
        validate_chrome_trace(&json).expect("valid trace");
        assert!(json.contains("\"random\""));
        assert!(json.contains("\"genetic\""));
        assert!(json.contains("\"hypervolume\""));
        assert!(json.contains("\"frontier_len\""));
    }

    #[test]
    fn search_trace_adds_per_chain_tracks_on_chain_markers() {
        let a = vec![
            Event::search(0, SearchEvent::ChainStart { chain: 0 }),
            Event::search(1, SearchEvent::CacheMiss),
            Event::search(2, SearchEvent::CacheHit),
            Event::search(2, SearchEvent::ChainStart { chain: 1 }),
            Event::search(3, SearchEvent::CacheHit),
        ];
        let json = search_trace_json(&[("annealing", &a)]);
        validate_chrome_trace(&json).expect("valid trace");
        assert!(json.contains("\"chain\""));
        assert!(json.contains("\"cache_hits c0\""));
        assert!(json.contains("\"cache_hits c1\""));
        assert!(json.contains("\"cache_misses c0\""));
        // Run-wide cumulative tracks are still present alongside.
        assert!(json.contains("\"cache_hits\""));
        // No markers -> no chain tracks (legacy streams unchanged).
        let b = vec![Event::search(1, SearchEvent::CacheHit)];
        let json = search_trace_json(&[("random", &b)]);
        assert!(!json.contains(" c0\""));
        assert!(!json.contains("\"chain\""));
    }

    #[test]
    fn fleet_trace_renders_router_and_replica_processes() {
        let router = vec![
            Event::serve(0.0, ServeEvent::Route { req: 0, replica: 1 }),
            Event::serve(0.02, ServeEvent::KvTransfer { req: 0, bytes: 4096, seconds: 0.001 }),
        ];
        let replica = serve_stream();
        let json = fleet_trace_json(&[("router", &router), ("replica 0", &replica)]);
        validate_chrome_trace(&json).expect("valid trace");
        assert!(json.contains("\"router\""));
        assert!(json.contains("\"replica 0\""));
        assert!(json.contains("\"route 1\""));
        assert!(json.contains("\"kv 0\""));
        assert_eq!(json, fleet_trace_json(&[("router", &router), ("replica 0", &replica)]));
    }

    #[test]
    fn fault_events_render_on_a_dedicated_fault_track() {
        let router = vec![
            Event::serve(0.0, ServeEvent::Route { req: 0, replica: 1 }),
            Event::serve(0.5, ServeEvent::ReplicaDown { replica: 1 }),
            Event::serve(0.5, ServeEvent::Retry { req: 0, attempt: 1, delay_s: 0.05 }),
            Event::serve(0.5, ServeEvent::Shed { req: 3 }),
            Event::serve(0.6, ServeEvent::Degraded { replica: 0, slowdown: 2.0, dram: true }),
            Event::serve(0.9, ServeEvent::ReplicaUp { replica: 1 }),
        ];
        let json = fleet_trace_json(&[("router", &router)]);
        validate_chrome_trace(&json).expect("valid trace");
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"down 1\""));
        assert!(json.contains("\"up 1\""));
        assert!(json.contains("\"retry 0\""));
        assert!(json.contains("\"shed 3\""));
        assert!(json.contains("\"degraded 0\""));
        // Fault-free streams never name the track.
        let clean = serve_trace_json(&serve_stream());
        assert!(!clean.contains("\"faults\""));
    }

    #[test]
    fn exporter_output_is_deterministic() {
        let events = serve_stream();
        assert_eq!(serve_trace_json(&events), serve_trace_json(&events));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err(), "empty trace rejected");
        let backwards = "{\"traceEvents\":[{\"ts\":2,\"ph\":\"i\"},{\"ts\":1,\"ph\":\"i\"}]}";
        assert!(validate_chrome_trace(backwards).is_err(), "non-monotone ts rejected");
    }

    #[test]
    fn validator_accepts_exponent_timestamps() {
        let json = "{\"traceEvents\":[{\"ts\":5e-1,\"ph\":\"i\"},{\"ts\":1e4,\"ph\":\"i\"}]}";
        assert_eq!(validate_chrome_trace(json), Ok(2));
    }
}
