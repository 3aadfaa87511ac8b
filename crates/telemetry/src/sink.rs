//! Sinks and the `Recorder` handle the instrumented crates carry.
//!
//! The `Recorder` is the only type `dse`/`serve` see: a cheap clonable
//! handle that is disabled by default. A disabled recorder's `emit` is a
//! single branch — the event closure never runs, so instrumentation
//! compiles to (almost) nothing on the uninstrumented path.

use crate::event::Event;
use std::sync::{Arc, Mutex};

/// Receives telemetry events. Implementations must tolerate being called
/// from a single thread at a time (the instrumented code publishes
/// deterministically ordered streams from one call site).
pub trait TelemetrySink: Send + Sync {
    /// Record one event.
    fn record(&self, event: Event);
}

/// The handle instrumented code holds. Cloning shares the underlying
/// sink. `Recorder::default()` is the no-op recorder.
#[derive(Clone, Default)]
pub struct Recorder {
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Recorder {
    /// A recorder that forwards every event to `sink`.
    pub fn new(sink: Arc<dyn TelemetrySink>) -> Self {
        Recorder { sink: Some(sink) }
    }

    /// The no-op recorder: `emit` is a branch, nothing else.
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// Whether events will actually be recorded. Instrumented code uses
    /// this to skip event *buffering* entirely on the no-op path.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record the event produced by `make` — which only runs when a sink
    /// is attached, so the disabled path never constructs events.
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.record(make());
        }
    }

    /// Publish a pre-buffered batch in order (used by search sessions,
    /// which buffer locally for determinism and publish once at finish).
    pub fn publish(&self, events: impl IntoIterator<Item = Event>) {
        if let Some(sink) = &self.sink {
            for event in events {
                sink.record(event);
            }
        }
    }
}

/// An unbounded in-memory sink: every event, in publish order.
#[derive(Default)]
pub struct VecSink {
    events: Mutex<Vec<Event>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// A `(recorder, sink)` pair sharing the same buffer — the common
    /// setup for capturing a run's stream.
    pub fn recorder() -> (Recorder, Arc<VecSink>) {
        let sink = Arc::new(VecSink::new());
        (Recorder::new(sink.clone()), sink)
    }

    /// The events recorded so far, in order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("telemetry sink poisoned").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("telemetry sink poisoned").len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TelemetrySink for VecSink {
    fn record(&self, event: Event) {
        self.events.lock().expect("telemetry sink poisoned").push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SearchEvent;

    #[test]
    fn disabled_recorder_never_constructs_events() {
        let recorder = Recorder::disabled();
        assert!(!recorder.is_enabled());
        recorder.emit(|| unreachable!("no sink, closure must not run"));
    }

    #[test]
    fn vec_sink_preserves_order() {
        let (recorder, sink) = VecSink::recorder();
        for tick in 0..4 {
            recorder.emit(|| Event::search(tick, SearchEvent::Staged));
        }
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert!(matches!(events[3], Event::Search { tick: 3, .. }));
    }

    #[test]
    fn publish_replays_a_buffered_stream_in_order() {
        let (recorder, sink) = VecSink::recorder();
        let buffered =
            vec![Event::search(1, SearchEvent::Staged), Event::search(2, SearchEvent::Staged)];
        recorder.publish(buffered.clone());
        assert_eq!(sink.events(), buffered);
    }
}
