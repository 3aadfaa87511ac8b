//! The metrics registry: monotonic counters, gauges, and fixed-bucket
//! histograms, snapshotted into a deterministic JSON summary
//! (`target/telemetry_summary.json` in the examples and CI).
//!
//! Names are free-form dotted strings (`"search.cache.hit"`,
//! `"serve.queue_depth"`); the registry stores them in sorted order so
//! the snapshot is byte-stable across runs of the same seed.

use crate::event::{num, quoted, Event, SearchEvent, ServeEvent};
use std::collections::BTreeMap;

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`, with one extra overflow bucket at the end. Bounds are set
/// at creation and never change, so two runs observing the same samples
/// produce identical snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bucket edges (must be
    /// sorted ascending) plus an implicit overflow bucket.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be ascending");
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0, total: 0 }
    }

    /// Power-of-two edges up to `max` — the default shape for counts
    /// (batch sizes, queue depths).
    pub fn pow2(max: u64) -> Self {
        let mut bounds = Vec::new();
        let mut edge = 1u64;
        while edge <= max {
            bounds.push(edge as f64);
            edge *= 2;
        }
        Histogram::with_bounds(&bounds)
    }

    /// Record one sample.
    pub fn observe(&mut self, x: f64) {
        let idx = self.bounds.iter().position(|&b| x <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += x;
        self.total += 1;
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of observed samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// `(upper_edge, count)` per bucket; the final edge is `+inf`.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
            .collect()
    }

    fn json(&self) -> String {
        let buckets: Vec<String> = self
            .buckets()
            .iter()
            .map(|(edge, count)| {
                let le = if edge.is_finite() { num(*edge) } else { "\"+inf\"".into() };
                format!("{{\"le\":{le},\"count\":{count}}}")
            })
            .collect();
        format!(
            "{{\"count\":{},\"mean\":{},\"buckets\":[{}]}}",
            self.total,
            num(self.mean()),
            buckets.join(",")
        )
    }
}

/// The registry: named counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// `Enqueue` timestamps awaiting their `Dequeue` — the pairing state
    /// behind the `serve.queue_wait_s` histogram.
    pending_enqueue: BTreeMap<u64, f64>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `by` to the named monotonic counter (created at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Set the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record `x` into the named histogram, creating it with `make` on
    /// first touch.
    pub fn observe_with(&mut self, name: &str, x: f64, make: impl FnOnce() -> Histogram) {
        self.histograms.entry(name.to_string()).or_insert_with(make).observe(x);
    }

    /// The named counter's value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Fold one event into the registry. `from_events` is this in a loop.
    pub fn accumulate(&mut self, event: &Event) {
        match event {
            Event::Search { kind, .. } => match kind {
                SearchEvent::Staged => self.inc("search.staged", 1),
                SearchEvent::ScreenedOut => self.inc("search.screened_out", 1),
                SearchEvent::CacheHit => self.inc("search.cache.hit", 1),
                SearchEvent::CacheMiss => self.inc("search.cache.miss", 1),
                SearchEvent::FlushBatch { size } => {
                    self.inc("search.flushes", 1);
                    self.observe_with("search.flush_batch", *size as f64, || Histogram::pow2(4096));
                }
                SearchEvent::FrontierInsert { admitted, .. } => {
                    self.inc("search.frontier.offered", 1);
                    if *admitted {
                        self.inc("search.frontier.admitted", 1);
                    }
                }
                SearchEvent::HypervolumeSample { .. } => self.inc("search.hv_samples", 1),
                SearchEvent::ChainStart { .. } => self.inc("search.chains", 1),
            },
            Event::Serve { t_s, kind } => match kind {
                ServeEvent::Arrive { .. } => self.inc("serve.arrivals", 1),
                ServeEvent::Admit { .. } => self.inc("serve.admissions", 1),
                ServeEvent::PrefillStart { context, .. } => {
                    self.inc("serve.prefills", 1);
                    self.inc("serve.prefill_tokens", *context as u64);
                }
                ServeEvent::PrefillEnd { .. } => {}
                ServeEvent::DecodeIter { batch, resident_kv } => {
                    self.inc("serve.iterations", 1);
                    self.inc("serve.tokens", *batch as u64);
                    self.observe_with("serve.batch", *batch as f64, || Histogram::pow2(4096));
                    let peak = self.gauge("serve.resident_kv_peak").unwrap_or(0.0);
                    if *resident_kv as f64 > peak {
                        self.set_gauge("serve.resident_kv_peak", *resident_kv as f64);
                    }
                }
                ServeEvent::Complete { .. } => self.inc("serve.completions", 1),
                ServeEvent::QueueDepthSample { depth } => {
                    self.observe_with("serve.queue_depth", *depth as f64, || Histogram::pow2(4096));
                }
                ServeEvent::PrefillChunk { tokens, .. } => {
                    self.inc("serve.prefill_chunks", 1);
                    self.observe_with("serve.chunk_tokens", *tokens as f64, || {
                        Histogram::pow2(1 << 20)
                    });
                }
                ServeEvent::Enqueue { req } => {
                    self.inc("serve.enqueued", 1);
                    self.pending_enqueue.insert(*req, *t_s);
                }
                ServeEvent::Dequeue { req } => {
                    self.inc("serve.dequeued", 1);
                    // The ROADMAP-named queueing-delay histogram: the
                    // exact Enqueue → Dequeue wait at simulated time.
                    if let Some(enqueued_at) = self.pending_enqueue.remove(req) {
                        self.observe_with("serve.queue_wait_s", t_s - enqueued_at, || {
                            Histogram::with_bounds(&[1e-4, 1e-3, 1e-2, 1e-1, 1.0])
                        });
                    }
                }
                ServeEvent::WaitingDepth { depth } => {
                    self.observe_with("serve.waiting_depth", *depth as f64, || {
                        Histogram::pow2(4096)
                    });
                }
                ServeEvent::Route { replica, .. } => {
                    self.inc("serve.routed", 1);
                    self.inc(&format!("serve.replica.{replica:02}.routed"), 1);
                }
                ServeEvent::KvTransfer { bytes, seconds, .. } => {
                    self.inc("serve.kv_transfers", 1);
                    self.inc("serve.kv_transfer_bytes", *bytes);
                    self.observe_with("serve.kv_transfer_s", *seconds, || {
                        Histogram::with_bounds(&[1e-4, 1e-3, 1e-2, 1e-1, 1.0])
                    });
                }
                ServeEvent::ReplicaDown { replica } => {
                    self.inc("serve.replica_downs", 1);
                    self.inc(&format!("serve.replica.{replica:02}.downs"), 1);
                }
                ServeEvent::ReplicaUp { .. } => self.inc("serve.replica_ups", 1),
                ServeEvent::Degraded { .. } => self.inc("serve.degraded", 1),
                ServeEvent::Retry { delay_s, .. } => {
                    self.inc("serve.retries", 1);
                    self.observe_with("serve.retry_delay_s", *delay_s, || {
                        Histogram::with_bounds(&[1e-4, 1e-3, 1e-2, 1e-1, 1.0])
                    });
                }
                ServeEvent::Shed { .. } => self.inc("serve.sheds", 1),
            },
        }
    }

    /// Build a registry from a recorded event stream and derive the
    /// headline ratio gauges (cache hit ratio, screen-reject rate, mean
    /// batch, tokens/step).
    pub fn from_events(events: &[Event]) -> Self {
        let mut metrics = Metrics::new();
        for event in events {
            metrics.accumulate(event);
        }
        metrics.derive_gauges();
        metrics
    }

    /// Recompute the derived ratio gauges from the raw counters.
    pub fn derive_gauges(&mut self) {
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let hits = self.counter("search.cache.hit");
        let misses = self.counter("search.cache.miss");
        if hits + misses > 0 {
            self.set_gauge("search.cache.hit_ratio", ratio(hits, hits + misses));
        }
        let staged = self.counter("search.staged");
        let screened = self.counter("search.screened_out");
        if staged + screened > 0 {
            self.set_gauge("search.screen_reject_rate", ratio(screened, staged + screened));
        }
        if let Some(batch) = self.histogram("serve.batch") {
            self.set_gauge("serve.batch_mean", batch.mean());
        }
        let iters = self.counter("serve.iterations");
        if iters > 0 {
            self.set_gauge("serve.tokens_per_step", ratio(self.counter("serve.tokens"), iters));
        }
    }

    /// The snapshot as deterministic JSON: sorted names, fixed field
    /// order, shortest-round-trip floats.
    pub fn summary_json(&self) -> String {
        let counters: Vec<String> =
            self.counters.iter().map(|(name, v)| format!("{}:{v}", quoted(name))).collect();
        let gauges: Vec<String> =
            self.gauges.iter().map(|(name, v)| format!("{}:{}", quoted(name), num(*v))).collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(name, h)| format!("{}:{}", quoted(name), h.json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::with_bounds(&[1.0, 2.0, 4.0]);
        for x in [0.5, 1.0, 3.0, 100.0] {
            h.observe(x);
        }
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (1.0, 2)); // 0.5 and the inclusive 1.0
        assert_eq!(buckets[2], (4.0, 1)); // 3.0
        assert_eq!(buckets[3].1, 1); // 100.0 overflows
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn from_events_derives_headline_gauges() {
        let events = vec![
            Event::search(1, SearchEvent::Staged),
            Event::search(1, SearchEvent::CacheMiss),
            Event::search(2, SearchEvent::Staged),
            Event::search(2, SearchEvent::CacheHit),
            Event::search(2, SearchEvent::ScreenedOut),
            Event::serve(0.1, ServeEvent::DecodeIter { batch: 4, resident_kv: 64 }),
            Event::serve(0.2, ServeEvent::DecodeIter { batch: 2, resident_kv: 32 }),
        ];
        let m = Metrics::from_events(&events);
        assert_eq!(m.counter("search.cache.hit"), 1);
        assert_eq!(m.gauge("search.cache.hit_ratio"), Some(0.5));
        assert_eq!(m.gauge("search.screen_reject_rate"), Some(1.0 / 3.0));
        assert_eq!(m.gauge("serve.batch_mean"), Some(3.0));
        assert_eq!(m.gauge("serve.tokens_per_step"), Some(3.0));
        assert_eq!(m.gauge("serve.resident_kv_peak"), Some(64.0));
    }

    #[test]
    fn fault_events_feed_retry_and_shed_counters() {
        let events = vec![
            Event::serve(1.0, ServeEvent::ReplicaDown { replica: 1 }),
            Event::serve(1.0, ServeEvent::Retry { req: 3, attempt: 1, delay_s: 0.05 }),
            Event::serve(1.0, ServeEvent::Retry { req: 4, attempt: 1, delay_s: 0.05 }),
            Event::serve(1.0, ServeEvent::Shed { req: 5 }),
            Event::serve(1.2, ServeEvent::Degraded { replica: 0, slowdown: 2.0, dram: false }),
            Event::serve(2.0, ServeEvent::ReplicaUp { replica: 1 }),
        ];
        let m = Metrics::from_events(&events);
        assert_eq!(m.counter("serve.replica_downs"), 1);
        assert_eq!(m.counter("serve.replica.01.downs"), 1);
        assert_eq!(m.counter("serve.replica_ups"), 1);
        assert_eq!(m.counter("serve.degraded"), 1);
        assert_eq!(m.counter("serve.retries"), 2);
        assert_eq!(m.counter("serve.sheds"), 1);
        assert_eq!(m.histogram("serve.retry_delay_s").map(Histogram::count), Some(2));
    }

    #[test]
    fn summary_json_is_sorted_and_stable() {
        let mut m = Metrics::new();
        m.inc("zeta", 1);
        m.inc("alpha", 2);
        m.set_gauge("mid", 0.5);
        let json = m.summary_json();
        assert!(json.find("\"alpha\"").unwrap() < json.find("\"zeta\"").unwrap());
        assert_eq!(json, m.clone().summary_json());
        assert!(json.starts_with("{\"counters\":{"));
    }
}
