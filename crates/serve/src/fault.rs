//! Deterministic, seeded fault injection for fleet serving.
//!
//! A [`FaultSpec`] is a replayable timeline of replica fail-stop,
//! recovery, and degraded-mode events scheduled on the simulated-seconds
//! clock — the same contract as [`crate::TrafficSpec`]: plain data, fully
//! determined by its inputs, and two runs of the same spec against the
//! same trace are bit-identical. An **empty** spec is the explicit no-op:
//! [`crate::Fleet`] runs its one replicated path with every chip healthy
//! forever, and disaggregated fleets still split onto their fault-free
//! handoff policy, so checked-in golden traces and reports stay
//! byte-for-byte unchanged.
//!
//! The timeline compiles ([`FaultSpec::segments`]) into per-replica
//! *up-time segments*: half-open `[start, end)` windows during which the
//! chip is alive, each carrying a step function of degradation
//! multipliers (clock throttle scales compute, DRAM brownout scales
//! bandwidth-bound work). At equal timestamps recovery sorts before
//! failure, so a request arriving exactly when a replica comes back up
//! is routed to it — the merge-order contract documented in
//! `docs/DETERMINISM.md`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// What happens to a replica at a [`FaultEvent`]'s timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop: the replica dies at the event time. In-flight requests
    /// lose their K/V cache and re-enter the router with backoff; queued
    /// requests are re-routed (or shed under a watermark policy).
    Down,
    /// Recovery: the replica comes back up, healthy (multipliers reset
    /// to 1.0). At equal timestamps recovery sorts before failure and
    /// before request arrivals.
    Up,
    /// Clock throttle: compute runs `slowdown`× slower (≥ 1.0) until the
    /// next `Throttle`, `Up`, or `Down` on this replica.
    Throttle {
        /// Compute slowdown factor (1.0 = healthy, 2.0 = half speed).
        slowdown: f64,
    },
    /// DRAM-bandwidth brownout: bandwidth-bound work (decode, K/V wire
    /// transfers into this chip) runs `slowdown`× slower (≥ 1.0).
    Brownout {
        /// DRAM slowdown factor (1.0 = healthy, 2.0 = half bandwidth).
        slowdown: f64,
    },
}

impl FaultKind {
    /// Tie-break rank at equal timestamps: recovery first, fail-stop last,
    /// degradations in between (so `Up` then `Down` at time t means the
    /// chip bounces and ends dead, deterministically).
    fn order(&self) -> u8 {
        match self {
            FaultKind::Up => 0,
            FaultKind::Throttle { .. } => 1,
            FaultKind::Brownout { .. } => 2,
            FaultKind::Down => 3,
        }
    }

    fn token(&self) -> String {
        match self {
            FaultKind::Down => "down".into(),
            FaultKind::Up => "up".into(),
            FaultKind::Throttle { slowdown } => format!("throttle={slowdown}"),
            FaultKind::Brownout { slowdown } => format!("brownout={slowdown}"),
        }
    }
}

/// One scheduled event on the fault timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated-seconds timestamp of the event.
    pub t_s: f64,
    /// Target replica (fleet chip index; applied modulo the fleet's chip
    /// count at run time, so one spec is reusable across fleet shapes).
    pub replica: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Retry policy for requests displaced by a replica failure:
/// deterministic exponential backoff with a bounded attempt budget.
///
/// A displaced request's attempt `a` (1-based) re-enters the router
/// `base_backoff_s * multiplier^(a-1)` seconds after the failure. Once
/// `a` would exceed `budget`, the request is shed instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Backoff before the first retry, in seconds.
    pub base_backoff_s: f64,
    /// Geometric growth factor per additional attempt (≥ 1.0).
    pub multiplier: f64,
    /// Maximum number of retries per request (0 = never retry).
    pub budget: usize,
}

impl Default for RetryPolicy {
    /// 50 ms base backoff, doubling, at most 3 retries.
    fn default() -> Self {
        RetryPolicy { base_backoff_s: 0.05, multiplier: 2.0, budget: 3 }
    }
}

impl RetryPolicy {
    /// Backoff delay in seconds before attempt `attempt` (1-based).
    pub fn delay_s(&self, attempt: usize) -> f64 {
        self.base_backoff_s * self.multiplier.powi(attempt.saturating_sub(1) as i32)
    }
}

/// A deterministic, replayable fault-injection timeline plus the failure
/// semantics ([`RetryPolicy`], load-shedding watermark) that govern how
/// the fleet reacts to it.
///
/// The default / [`FaultSpec::none`] spec has no events and is the
/// contract-preserving no-op: one replicated path, in which every chip
/// stays up; disaggregated fleets still split, and take their fault-free
/// handoff policy under it.
///
/// # Example
///
/// ```
/// use fusemax_serve::{FaultKind, FaultSpec};
///
/// let spec = FaultSpec::none()
///     .down(2.5, 1)
///     .up(4.0, 1)
///     .with_shed_watermark(0.5);
/// assert!(!spec.is_empty());
/// assert!(spec.validate(10.0).is_ok());
/// assert_eq!(spec, FaultSpec::parse_events("t=2.5:replica=1:down;t=4.0:replica=1:up")
///     .unwrap()
///     .with_shed_watermark(0.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The timeline, in insertion order (sorted internally at compile
    /// time by `(t_s, replica, kind)` with recovery first at ties).
    pub events: Vec<FaultEvent>,
    /// How displaced requests are retried.
    pub retry: RetryPolicy,
    /// Optional load-shedding watermark: when a failure drops the
    /// surviving-replica fraction strictly below this value, waiting
    /// (not-yet-admitted) requests displaced by that failure are shed
    /// instead of retried. `None` disables shedding on capacity loss.
    pub shed_watermark: Option<f64>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultSpec {
    /// The empty spec: no faults, the fleet's fault-free replay.
    pub fn none() -> Self {
        FaultSpec { events: Vec::new(), retry: RetryPolicy::default(), shed_watermark: None }
    }

    /// `true` when the timeline has no events (the no-op contract; retry
    /// policy and watermark are irrelevant without failures).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The canonical single-failure scenario: replica `replica` fail-stops
    /// at `t_s` and never recovers.
    pub fn single_failure(t_s: f64, replica: usize) -> Self {
        Self::none().down(t_s, replica)
    }

    /// Appends a fail-stop event.
    pub fn down(mut self, t_s: f64, replica: usize) -> Self {
        self.events.push(FaultEvent { t_s, replica, kind: FaultKind::Down });
        self
    }

    /// Appends a recovery event.
    pub fn up(mut self, t_s: f64, replica: usize) -> Self {
        self.events.push(FaultEvent { t_s, replica, kind: FaultKind::Up });
        self
    }

    /// Appends a clock-throttle event (compute runs `slowdown`× slower).
    pub fn throttle(mut self, t_s: f64, replica: usize, slowdown: f64) -> Self {
        self.events.push(FaultEvent { t_s, replica, kind: FaultKind::Throttle { slowdown } });
        self
    }

    /// Appends a DRAM-brownout event (bandwidth runs `slowdown`× slower).
    pub fn brownout(mut self, t_s: f64, replica: usize, slowdown: f64) -> Self {
        self.events.push(FaultEvent { t_s, replica, kind: FaultKind::Brownout { slowdown } });
        self
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the load-shedding watermark (surviving-capacity fraction in
    /// `[0, 1]` below which displaced waiting requests are shed).
    pub fn with_shed_watermark(mut self, watermark: f64) -> Self {
        self.shed_watermark = Some(watermark);
        self
    }

    /// Generates a seeded single-failure-plus-recovery scenario: one
    /// replica (seed-chosen among `replicas`) fail-stops at a seed-chosen
    /// time within the middle 80% of `horizon_s`, then recovers after a
    /// seed-chosen outage clamped to the horizon. Bit-identical per
    /// `(seed, replicas, horizon_s)`, mirroring [`crate::TrafficSpec`].
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` or `horizon_s` is not a positive finite
    /// number.
    pub fn seeded(seed: u64, replicas: usize, horizon_s: f64) -> Self {
        assert!(replicas > 0, "a seeded fault needs at least one replica");
        assert!(
            horizon_s.is_finite() && horizon_s > 0.0,
            "seeded fault horizon must be positive and finite"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let replica = rng.gen_range(0.0..replicas as f64) as usize % replicas;
        let down_t = horizon_s * rng.gen_range(0.1..0.9);
        let outage = horizon_s * rng.gen_range(0.05..0.5);
        let up_t = (down_t + outage).min(horizon_s);
        Self::none().down(down_t, replica).up(up_t, replica)
    }

    /// Parses a `;`-separated event list in the `examples/serve.rs` CLI
    /// grammar: each event is `t=<secs>:replica=<idx>:<kind>` where
    /// `<kind>` is `down`, `up`, `throttle=<f>`, or `brownout=<f>`.
    ///
    /// ```
    /// use fusemax_serve::FaultSpec;
    /// let spec = FaultSpec::parse_events("t=2.5:replica=1:down; t=4:replica=1:up").unwrap();
    /// assert_eq!(spec.events.len(), 2);
    /// assert!(FaultSpec::parse_events("t=oops:replica=0:down").is_err());
    /// ```
    pub fn parse_events(text: &str) -> Result<Self, FaultSpecError> {
        let mut spec = Self::none();
        for raw in text.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let mut t_s = None;
            let mut replica = None;
            let mut kind = None;
            for token in raw.split(':') {
                let token = token.trim();
                let bad = || FaultSpecError::Parse { event: raw.to_string() };
                if let Some(v) = token.strip_prefix("t=") {
                    t_s = Some(v.parse::<f64>().map_err(|_| bad())?);
                } else if let Some(v) = token.strip_prefix("replica=") {
                    replica = Some(v.parse::<usize>().map_err(|_| bad())?);
                } else if token == "down" {
                    kind = Some(FaultKind::Down);
                } else if token == "up" {
                    kind = Some(FaultKind::Up);
                } else if let Some(v) = token.strip_prefix("throttle=") {
                    kind = Some(FaultKind::Throttle {
                        slowdown: v.parse::<f64>().map_err(|_| bad())?,
                    });
                } else if let Some(v) = token.strip_prefix("brownout=") {
                    kind = Some(FaultKind::Brownout {
                        slowdown: v.parse::<f64>().map_err(|_| bad())?,
                    });
                } else {
                    return Err(bad());
                }
            }
            match (t_s, replica, kind) {
                (Some(t_s), Some(replica), Some(kind)) => {
                    spec.events.push(FaultEvent { t_s, replica, kind });
                }
                _ => return Err(FaultSpecError::Parse { event: raw.to_string() }),
            }
        }
        Ok(spec)
    }

    /// Validates the spec against a trace horizon, returning the first
    /// problem as a typed, actionable error.
    ///
    /// Rejects non-finite or negative event times, event times beyond
    /// `horizon_s`, degradation slowdowns below 1.0 (or non-finite),
    /// watermarks outside `[0, 1]`, non-positive backoff or sub-1.0
    /// multipliers, and — the silent-starvation trap — a fail-stop
    /// timeline with retry budget 0 **and** shedding disabled (displaced
    /// requests could neither complete nor be counted as shed).
    pub fn validate(&self, horizon_s: f64) -> Result<(), FaultSpecError> {
        for e in &self.events {
            if !e.t_s.is_finite() || e.t_s < 0.0 {
                return Err(FaultSpecError::NonFiniteTime { t_s: e.t_s });
            }
            if e.t_s > horizon_s {
                return Err(FaultSpecError::TimeBeyondHorizon { t_s: e.t_s, horizon_s });
            }
            match e.kind {
                FaultKind::Throttle { slowdown } | FaultKind::Brownout { slowdown } => {
                    if !slowdown.is_finite() || slowdown < 1.0 {
                        return Err(FaultSpecError::SlowdownBelowOne { slowdown });
                    }
                }
                FaultKind::Down | FaultKind::Up => {}
            }
        }
        if let Some(w) = self.shed_watermark {
            if !w.is_finite() || !(0.0..=1.0).contains(&w) {
                return Err(FaultSpecError::WatermarkOutOfRange { watermark: w });
            }
        }
        if !self.retry.base_backoff_s.is_finite() || self.retry.base_backoff_s < 0.0 {
            return Err(FaultSpecError::BadBackoff { base_backoff_s: self.retry.base_backoff_s });
        }
        if !self.retry.multiplier.is_finite() || self.retry.multiplier < 1.0 {
            return Err(FaultSpecError::BadMultiplier { multiplier: self.retry.multiplier });
        }
        let any_down = self.events.iter().any(|e| matches!(e.kind, FaultKind::Down));
        if any_down && self.retry.budget == 0 && self.shed_watermark.is_none() {
            return Err(FaultSpecError::RetryExhaustedWithoutShedding);
        }
        Ok(())
    }

    /// The timeline in deterministic replay order: ascending time, then
    /// replica, then kind (recovery before degradation before failure).
    pub(crate) fn ordered_events(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by(|a, b| {
            a.t_s
                .total_cmp(&b.t_s)
                .then(a.replica.cmp(&b.replica))
                .then(a.kind.order().cmp(&b.kind.order()))
        });
        events
    }

    /// Compiles the timeline into per-chip up-time [`Segment`]s for a
    /// fleet of `chips` replicas (event replica indices taken modulo
    /// `chips`). Every chip starts up at t = 0; `Down` closes the open
    /// segment, `Up` opens a fresh healthy one, degradations append a
    /// multiplier step to the open segment and are ignored while down.
    pub(crate) fn segments(&self, chips: usize) -> Vec<Vec<Segment>> {
        let mut done: Vec<Vec<Segment>> = vec![Vec::new(); chips];
        let mut open: Vec<Option<Segment>> =
            (0..chips).map(|_| Some(Segment::healthy_from(0.0))).collect();
        for e in self.ordered_events() {
            let k = e.replica % chips.max(1);
            match (e.kind, open[k].as_mut()) {
                (FaultKind::Down, Some(seg)) => {
                    seg.end_s = e.t_s;
                    // A zero-length bounce (up then down at the same t)
                    // still counts as a segment boundary; keep it so the
                    // chip is correctly dead afterwards.
                    done[k].push(open[k].take().expect("open"));
                }
                (FaultKind::Up, None) => {
                    open[k] = Some(Segment::healthy_from(e.t_s));
                }
                (FaultKind::Throttle { slowdown }, Some(seg)) => {
                    let (_, _, dram) = seg.multipliers_at(e.t_s);
                    seg.slowdowns.push((e.t_s, slowdown, dram));
                }
                (FaultKind::Brownout { slowdown }, Some(seg)) => {
                    let (_, compute, _) = seg.multipliers_at(e.t_s);
                    seg.slowdowns.push((e.t_s, compute, slowdown));
                }
                // Duplicate down while down, up while up, or degradation
                // while down: deterministic no-ops.
                _ => {}
            }
        }
        for (k, seg) in open.into_iter().enumerate() {
            if let Some(seg) = seg {
                done[k].push(seg);
            }
        }
        done
    }

    /// Renders the timeline back into the CLI grammar (round-trips
    /// through [`FaultSpec::parse_events`] for finite times).
    pub fn render_events(&self) -> String {
        self.events
            .iter()
            .map(|e| format!("t={}:replica={}:{}", e.t_s, e.replica, e.kind.token()))
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// One continuous up-time window of a replica: alive on `[start_s,
/// end_s)` with a step function of degradation multipliers. It is all
/// one engine run needs to know about its faults
/// ([`crate::ServeSim::run_window`]); a fault-free replay runs in
/// [`Segment::healthy_from`]`(0.0)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Segment {
    /// When the replica came up (inclusive).
    pub start_s: f64,
    /// When the replica fail-stops (exclusive; `f64::INFINITY` when it
    /// stays up forever).
    pub end_s: f64,
    /// Multiplier steps `(from_t_s, compute_mult, dram_mult)`, ascending
    /// by time; the first entry is the healthy `(start_s, 1.0, 1.0)`.
    pub slowdowns: Vec<(f64, f64, f64)>,
}

impl Segment {
    /// Up from `t_s` forever, healthy throughout.
    pub fn healthy_from(t_s: f64) -> Self {
        Segment { start_s: t_s, end_s: f64::INFINITY, slowdowns: vec![(t_s, 1.0, 1.0)] }
    }

    /// `true` while the replica is alive at `t` (start-inclusive,
    /// end-exclusive: at the instant of recovery the chip is up; at the
    /// instant of failure it is down).
    pub fn covers(&self, t: f64) -> bool {
        self.start_s <= t && t < self.end_s
    }

    /// `(step_time, compute_mult, dram_mult)` in force at time `t` (the
    /// last step at or before `t`; the healthy step before any events).
    pub fn multipliers_at(&self, t: f64) -> (f64, f64, f64) {
        let mut current = self.slowdowns[0];
        for &step in &self.slowdowns {
            if step.0 <= t {
                current = step;
            } else {
                break;
            }
        }
        current
    }
}

/// Typed rejection from [`FaultSpec::validate`] / [`FaultSpec::parse_events`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpecError {
    /// An event string did not match `t=<secs>:replica=<idx>:<kind>`.
    Parse {
        /// The offending event text.
        event: String,
    },
    /// An event time is negative, NaN, or infinite.
    NonFiniteTime {
        /// The offending time.
        t_s: f64,
    },
    /// An event is scheduled after the trace's last arrival — it could
    /// never fire and almost certainly indicates a units mistake.
    TimeBeyondHorizon {
        /// The offending time.
        t_s: f64,
        /// The trace horizon it exceeds.
        horizon_s: f64,
    },
    /// A throttle/brownout slowdown is below 1.0 (which would make the
    /// "degraded" chip faster than healthy) or non-finite.
    SlowdownBelowOne {
        /// The offending slowdown.
        slowdown: f64,
    },
    /// The shed watermark is outside `[0, 1]` or non-finite.
    WatermarkOutOfRange {
        /// The offending watermark.
        watermark: f64,
    },
    /// The retry base backoff is negative or non-finite.
    BadBackoff {
        /// The offending backoff.
        base_backoff_s: f64,
    },
    /// The retry multiplier is below 1.0 or non-finite.
    BadMultiplier {
        /// The offending multiplier.
        multiplier: f64,
    },
    /// The timeline contains a fail-stop but the retry budget is 0 and
    /// shedding is disabled: displaced requests could neither complete
    /// nor be shed, silently violating conservation.
    RetryExhaustedWithoutShedding,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::Parse { event } => {
                write!(f, "cannot parse fault event `{event}` (want t=<secs>:replica=<idx>:down|up|throttle=<f>|brownout=<f>)")
            }
            FaultSpecError::NonFiniteTime { t_s } => {
                write!(f, "fault event time {t_s} must be finite and non-negative")
            }
            FaultSpecError::TimeBeyondHorizon { t_s, horizon_s } => {
                write!(f, "fault event at t={t_s}s is beyond the trace horizon ({horizon_s}s)")
            }
            FaultSpecError::SlowdownBelowOne { slowdown } => {
                write!(f, "degradation slowdown {slowdown} must be finite and >= 1.0")
            }
            FaultSpecError::WatermarkOutOfRange { watermark } => {
                write!(f, "shed watermark {watermark} must lie in [0, 1]")
            }
            FaultSpecError::BadBackoff { base_backoff_s } => {
                write!(f, "retry base backoff {base_backoff_s}s must be finite and non-negative")
            }
            FaultSpecError::BadMultiplier { multiplier } => {
                write!(f, "retry multiplier {multiplier} must be finite and >= 1.0")
            }
            FaultSpecError::RetryExhaustedWithoutShedding => {
                write!(
                    f,
                    "retry budget is 0 and shedding is disabled: requests displaced by a \
                     fail-stop could neither complete nor be shed (set a retry budget or a \
                     shed watermark)"
                )
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_the_no_op() {
        assert!(FaultSpec::none().is_empty());
        assert!(FaultSpec::default().is_empty());
        assert!(!FaultSpec::single_failure(1.0, 0).is_empty());
        assert!(FaultSpec::none().validate(10.0).is_ok());
    }

    #[test]
    fn seeded_scenarios_are_bit_identical_per_seed() {
        let a = FaultSpec::seeded(7, 4, 10.0);
        let b = FaultSpec::seeded(7, 4, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, FaultSpec::seeded(8, 4, 10.0));
        assert!(a.validate(10.0).is_ok());
        // Exactly one down followed by one up on the same replica.
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.events[0].kind, FaultKind::Down);
        assert_eq!(a.events[1].kind, FaultKind::Up);
        assert_eq!(a.events[0].replica, a.events[1].replica);
        assert!(a.events[0].t_s < a.events[1].t_s);
        assert!(a.events[0].replica < 4);
    }

    #[test]
    fn parse_round_trips_and_rejects_nonsense() {
        let spec = FaultSpec::parse_events(
            "t=2.5:replica=1:down; t=4:replica=1:up;t=1:replica=0:throttle=2;t=3:replica=2:brownout=1.5",
        )
        .unwrap();
        assert_eq!(spec.events.len(), 4);
        assert_eq!(spec.events[0], FaultEvent { t_s: 2.5, replica: 1, kind: FaultKind::Down });
        assert_eq!(
            spec.events[3],
            FaultEvent { t_s: 3.0, replica: 2, kind: FaultKind::Brownout { slowdown: 1.5 } }
        );
        let again = FaultSpec::parse_events(&spec.render_events()).unwrap();
        assert_eq!(again, spec);
        for bad in ["t=x:replica=0:down", "replica=0:down", "t=1:replica=0:sideways", "t=1:down"] {
            assert!(
                matches!(FaultSpec::parse_events(bad), Err(FaultSpecError::Parse { .. })),
                "{bad} should fail to parse"
            );
        }
        assert!(FaultSpec::parse_events("").unwrap().is_empty());
    }

    #[test]
    fn validate_rejects_each_class_of_nonsense() {
        let horizon = 10.0;
        let cases: Vec<(FaultSpec, FaultSpecError)> = vec![
            (
                FaultSpec::single_failure(f64::NAN, 0),
                FaultSpecError::NonFiniteTime { t_s: f64::NAN },
            ),
            (FaultSpec::single_failure(-1.0, 0), FaultSpecError::NonFiniteTime { t_s: -1.0 }),
            (
                FaultSpec::single_failure(20.0, 0),
                FaultSpecError::TimeBeyondHorizon { t_s: 20.0, horizon_s: horizon },
            ),
            (
                FaultSpec::none().throttle(1.0, 0, 0.5),
                FaultSpecError::SlowdownBelowOne { slowdown: 0.5 },
            ),
            (
                FaultSpec::none().brownout(1.0, 0, f64::NAN),
                FaultSpecError::SlowdownBelowOne { slowdown: f64::NAN },
            ),
            (
                FaultSpec::none().with_shed_watermark(1.5),
                FaultSpecError::WatermarkOutOfRange { watermark: 1.5 },
            ),
            (
                FaultSpec::none()
                    .with_retry(RetryPolicy { base_backoff_s: -1.0, ..RetryPolicy::default() }),
                FaultSpecError::BadBackoff { base_backoff_s: -1.0 },
            ),
            (
                FaultSpec::none()
                    .with_retry(RetryPolicy { multiplier: 0.5, ..RetryPolicy::default() }),
                FaultSpecError::BadMultiplier { multiplier: 0.5 },
            ),
            (
                FaultSpec::single_failure(1.0, 0)
                    .with_retry(RetryPolicy { budget: 0, ..RetryPolicy::default() }),
                FaultSpecError::RetryExhaustedWithoutShedding,
            ),
        ];
        for (spec, want) in cases {
            let got = spec.validate(horizon).expect_err("should reject");
            // NaN != NaN, so compare rendered messages.
            assert_eq!(got.to_string(), want.to_string(), "spec {spec:?}");
        }
        // Budget 0 is fine once shedding is enabled.
        assert!(FaultSpec::single_failure(1.0, 0)
            .with_retry(RetryPolicy { budget: 0, ..RetryPolicy::default() })
            .with_shed_watermark(1.0)
            .validate(horizon)
            .is_ok());
    }

    #[test]
    fn segments_compile_down_up_and_degradations() {
        let spec = FaultSpec::none()
            .down(2.0, 1)
            .up(5.0, 1)
            .throttle(1.0, 0, 2.0)
            .brownout(3.0, 0, 1.5)
            .down(8.0, 1);
        let segs = spec.segments(2);
        // Chip 0: one open segment with two degradation steps.
        assert_eq!(segs[0].len(), 1);
        let s0 = &segs[0][0];
        assert_eq!(s0.start_s, 0.0);
        assert_eq!(s0.end_s, f64::INFINITY);
        assert_eq!(s0.multipliers_at(0.5), (0.0, 1.0, 1.0));
        assert_eq!(s0.multipliers_at(1.0), (1.0, 2.0, 1.0));
        assert_eq!(s0.multipliers_at(4.0), (3.0, 2.0, 1.5), "brownout keeps the throttle");
        // Chip 1: up [0,2), up [5,8).
        assert_eq!(segs[1].len(), 2);
        assert_eq!((segs[1][0].start_s, segs[1][0].end_s), (0.0, 2.0));
        assert_eq!((segs[1][1].start_s, segs[1][1].end_s), (5.0, 8.0));
        assert!(segs[1][0].covers(0.0) && !segs[1][0].covers(2.0), "half-open [start, end)");
        assert!(segs[1][1].covers(5.0), "up at the instant of recovery");
    }

    #[test]
    fn duplicate_and_while_down_events_are_no_ops() {
        let spec = FaultSpec::none()
            .down(1.0, 0)
            .down(2.0, 0) // already down
            .throttle(3.0, 0, 2.0) // degraded while down: ignored
            .up(4.0, 0)
            .up(5.0, 0); // already up
        let segs = spec.segments(1);
        assert_eq!(segs[0].len(), 2);
        assert_eq!((segs[0][0].start_s, segs[0][0].end_s), (0.0, 1.0));
        assert_eq!(segs[0][1].start_s, 4.0);
        assert_eq!(segs[0][1].slowdowns, vec![(4.0, 1.0, 1.0)], "throttle while down ignored");
    }

    #[test]
    fn equal_timestamp_order_is_up_before_down() {
        // A bounce at t=3: up first (no-op, already up), then down — the
        // chip ends dead. The reverse order would leave it alive.
        let spec = FaultSpec::none().down(3.0, 0).up(3.0, 0);
        let ordered = spec.ordered_events();
        assert_eq!(ordered[0].kind, FaultKind::Up);
        assert_eq!(ordered[1].kind, FaultKind::Down);
        let segs = spec.segments(1);
        assert_eq!(segs[0].len(), 1);
        assert_eq!(segs[0][0].end_s, 3.0);
    }

    #[test]
    fn replica_indices_wrap_modulo_chips() {
        let spec = FaultSpec::single_failure(1.0, 5);
        let segs = spec.segments(2);
        assert_eq!(segs[1][0].end_s, 1.0, "replica 5 maps to chip 1 of 2");
        assert_eq!(segs[0][0].end_s, f64::INFINITY);
    }

    #[test]
    fn retry_backoff_is_exponential() {
        let r = RetryPolicy::default();
        assert_eq!(r.delay_s(1), 0.05);
        assert_eq!(r.delay_s(2), 0.1);
        assert_eq!(r.delay_s(3), 0.2);
    }
}
