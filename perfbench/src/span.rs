//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] is off by default; while off, [`Tracer::span`] is a plain
//! call and [`Tracer::probe`] does nothing. While on, every span records
//! its layer, entry point, start, end, parent and operation id in memory.
//!
//! Some layers only run nested inside another layer's call (tables and
//! replays inside `ServeObjective::rank`, for example). A *probe* re-times
//! such work through its own public entry point on the same inputs, after
//! the pass, and names the span whose internals it re-times as its parent.
//! Probes never count towards a pass's wall time.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer the entry point belongs to (`sim`, `table`, ...).
    pub layer: &'static str,
    /// The public entry point called.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, or for a probe the span it re-times.
    pub parent: Option<SpanId>,
    /// The benchmark operation (setup = 0, pass k = k + 1) it belongs to.
    pub op: u64,
    /// Whether this span re-times nested work outside the timed pass.
    pub probe: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    on: Cell<bool>,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<SpanId>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            on: Cell::new(false),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Starts or stops recording.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Tags the spans recorded from now on with operation id `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Drops every span recorded after the first `len`.
    pub fn truncate(&self, len: usize) {
        self.spans.borrow_mut().truncate(len);
        self.stack.borrow_mut().clear();
    }

    /// Duration of span `id` in seconds (0 for `None`).
    pub fn secs(&self, id: Option<SpanId>) -> f64 {
        id.map_or(0.0, |id| self.spans.borrow()[id].secs())
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn record<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
        probe: bool,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op.get(),
                probe,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        (out, id)
    }

    /// Calls `f`, recording a span when on.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_id(layer, name, f).0
    }

    /// [`Tracer::span`], also returning the span's id when on.
    pub fn span_id<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Option<SpanId>) {
        if !self.is_on() {
            return (f(), None);
        }
        let parent = self.stack.borrow().last().copied();
        let (out, id) = self.record(layer, name, parent, false, f);
        (out, Some(id))
    }

    /// When on, calls `f` as a probe re-timing work nested in `parent`
    /// (`None`: work outside the pass). When off, does nothing.
    pub fn probe<T>(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> Option<(T, SpanId)> {
        self.is_on().then(|| self.record(layer, name, parent, true, f))
    }

    /// Calls `f` for an output check, recorded as an unparented probe when
    /// on (checks run outside the timed pass).
    pub fn check_call<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Option<SpanId>) {
        if self.is_on() {
            let (out, id) = self.record(layer, name, None, true, f);
            (out, Some(id))
        } else {
            (f(), None)
        }
    }
}

/// Sum of span durations per layer, counting a span only when no ancestor
/// belongs to the same layer (so nested calls are not counted twice).
pub fn busy_by_layer(spans: &[Span], include_probes: bool) -> BTreeMap<&'static str, f64> {
    let mut busy = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        if s.probe && !include_probes {
            continue;
        }
        let mut up = s.parent;
        let mut nested = false;
        while let Some(p) = up {
            if spans[p].layer == s.layer {
                nested = true;
                break;
            }
            up = spans[p].parent;
        }
        if !nested && rooted(spans, id) {
            *busy.entry(s.layer).or_insert(0.0) += s.secs();
        }
    }
    busy
}

/// Whether a span hangs off a non-probe root (probes without a parent time
/// work outside the pass and are reported on their own).
fn rooted(spans: &[Span], mut id: SpanId) -> bool {
    while let Some(p) = spans[id].parent {
        id = p;
    }
    !spans[id].probe
}

/// Self time per layer: each span's duration minus its children's, where
/// probes count as children of the span they re-time. When the children of
/// a span add up to more than the span itself (they ran in parallel inside
/// it, but were re-timed one by one), they are scaled down to fit, so the
/// self times of a tree always sum to its root's duration.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    let mut out = BTreeMap::new();
    let mut todo: Vec<(SpanId, f64)> = (0..spans.len())
        .filter(|&id| spans[id].parent.is_none() && !spans[id].probe)
        .map(|id| (id, 1.0))
        .collect();
    while let Some((id, weight)) = todo.pop() {
        let dur = spans[id].secs();
        let kids: f64 = children[id].iter().map(|&k| spans[k].secs()).sum();
        let scale = if kids > dur && kids > 0.0 { dur / kids } else { 1.0 };
        *out.entry(spans[id].layer).or_insert(0.0) += (dur - kids * scale).max(0.0) * weight;
        todo.extend(children[id].iter().map(|&k| (k, weight * scale)));
    }
    out
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): probes on
/// their own thread track, the span tree in each event's `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},",
                "\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"probe\":{}}}}}"
            ),
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            if s.probe { 2 } else { 1 },
            id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            s.probe,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        layer: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        probe: bool,
    ) -> Span {
        Span { layer, name: "f", start_ns: start, end_ns: end, parent, op: 1, probe }
    }

    #[test]
    fn self_times_sum_to_the_root_and_scale_parallel_children() {
        // A 100 ns root whose probes re-time 150 ns of serial work: the
        // children are scaled by 100/150 and the root keeps nothing.
        let spans = vec![
            span("objective", 0, 100, None, false),
            span("table", 200, 290, Some(0), true),
            span("sim", 300, 360, Some(0), true),
            span("model", 400, 430, Some(1), true),
            span("fleet", 500, 520, None, true),
        ];
        let t = self_time_by_layer(&spans);
        let total: f64 = t.values().sum();
        assert!((total - 100e-9).abs() < 1e-15, "{t:?}");
        assert_eq!(t.get("objective"), Some(&0.0));
        assert!((t["sim"] - 40e-9).abs() < 1e-15);
        assert!(!t.contains_key("fleet"), "unparented probes stay out of the tree");
    }

    #[test]
    fn busy_time_skips_same_layer_nesting_and_loose_probes() {
        let spans = vec![
            span("search", 0, 100, None, false),
            span("search", 10, 50, Some(0), false),
            span("sweep", 60, 90, Some(0), false),
            span("sweep", 200, 230, None, true),
        ];
        let busy = busy_by_layer(&spans, true);
        assert!((busy["search"] - 100e-9).abs() < 1e-15);
        assert!((busy["sweep"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn an_idle_tracer_records_nothing() {
        let tr = Tracer::default();
        assert_eq!(tr.span("sim", "run", || 7), 7);
        assert!(tr.probe(None, "sim", "run", || 7).is_none());
        tr.set_on(true);
        let (_, id) = tr.span_id("fleet", "run", || tr.span("sim", "run", || ()));
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, id);
    }
}
