//! Seeded traffic generation: request arrival processes and length mixes
//! that compile into replayable [`Trace`]s.
//!
//! A trace is plain data — request ids, arrival times, prompt and output
//! token counts — so the same trace can drive any number of design
//! points, and two generations from the same [`TrafficSpec`] and seed are
//! bit-identical.

use fusemax_dse::SpecError;
use rand::distributions::{Distribution, Exp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One serving request: a prompt to prefill and a number of output tokens
/// to decode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Position in the trace (0-based; doubles as a stable identity).
    pub id: usize,
    /// Arrival time in seconds from the start of the trace.
    pub arrival_s: f64,
    /// Prompt length in tokens (the prefill phase's sequence length).
    pub prompt_tokens: usize,
    /// Output tokens to generate (≥ 1; the first is produced by prefill).
    pub output_tokens: usize,
}

/// A replayable request stream, sorted by arrival time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// The requests, in arrival order.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Arrival time of the last request (0 for an empty trace).
    pub fn last_arrival_s(&self) -> f64 {
        self.requests.last().map_or(0.0, |r| r.arrival_s)
    }

    /// Total output tokens across all requests.
    pub fn total_output_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.output_tokens).sum()
    }

    /// Total prompt tokens across all requests.
    pub fn total_prompt_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.prompt_tokens).sum()
    }

    /// Mean offered load in requests per second (0 for traces shorter
    /// than two requests).
    pub fn offered_rate_rps(&self) -> f64 {
        if self.requests.len() < 2 || self.last_arrival_s() == 0.0 {
            0.0
        } else {
            self.requests.len() as f64 / self.last_arrival_s()
        }
    }
}

/// The arrival process of a [`TrafficSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Poisson arrivals: independent exponential inter-arrival gaps with
    /// mean `1 / rate_per_s`.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_s: f64,
    },
    /// Bursty arrivals: requests land in simultaneous groups of `burst`,
    /// with exponential gaps between groups sized so the *mean* rate
    /// still equals `rate_per_s` — the heavy-tail pattern that stresses
    /// tail latency far beyond a smooth Poisson stream.
    Bursty {
        /// Mean arrival rate in requests per second.
        rate_per_s: f64,
        /// Requests per burst (≥ 1).
        burst: usize,
    },
}

impl Arrivals {
    /// The mean rate and the requests per burst (1 for Poisson).
    fn rate_and_burst(self) -> (f64, usize) {
        match self {
            Arrivals::Poisson { rate_per_s } => (rate_per_s, 1),
            Arrivals::Bursty { rate_per_s, burst } => (rate_per_s, burst),
        }
    }
}

/// A discrete mix over token lengths: each `(tokens, weight)` choice is
/// drawn with probability proportional to its weight.
#[derive(Debug, Clone, PartialEq)]
pub struct LengthMix {
    choices: Vec<(usize, f64)>,
}

impl LengthMix {
    /// A mix over explicit `(tokens, weight)` choices.
    ///
    /// # Panics
    ///
    /// Panics if [`LengthMix::try_new`] rejects the choices.
    pub fn new(choices: impl IntoIterator<Item = (usize, f64)>) -> Self {
        match Self::try_new(choices) {
            Ok(mix) => mix,
            Err(e) => panic!("invalid length mix: {e}"),
        }
    }

    /// A mix over explicit `(tokens, weight)` choices, or why it is not
    /// one: no choice at all ([`SpecError::EmptyLengthMix`]), a choice of
    /// zero tokens ([`SpecError::ZeroTokens`]), or a weight that is not
    /// positive and finite ([`SpecError::BadLengthWeight`]).
    pub fn try_new(choices: impl IntoIterator<Item = (usize, f64)>) -> Result<Self, SpecError> {
        let choices: Vec<(usize, f64)> = choices.into_iter().collect();
        if choices.is_empty() {
            return Err(SpecError::EmptyLengthMix);
        }
        if choices.iter().any(|&(tokens, _)| tokens == 0) {
            return Err(SpecError::ZeroTokens);
        }
        if choices.iter().any(|&(_, w)| !(w > 0.0 && w.is_finite())) {
            return Err(SpecError::BadLengthWeight);
        }
        Ok(LengthMix { choices })
    }

    /// Every length equally likely.
    pub fn uniform(lengths: impl IntoIterator<Item = usize>) -> Self {
        Self::new(lengths.into_iter().map(|l| (l, 1.0)))
    }

    /// A single fixed length.
    pub fn fixed(tokens: usize) -> Self {
        Self::new([(tokens, 1.0)])
    }

    /// The `(tokens, weight)` choices.
    pub fn choices(&self) -> &[(usize, f64)] {
        &self.choices
    }

    /// Weighted mean length.
    pub fn mean(&self) -> f64 {
        let total: f64 = self.choices.iter().map(|&(_, w)| w).sum();
        self.choices.iter().map(|&(l, w)| l as f64 * w).sum::<f64>() / total
    }

    /// Draws one length.
    fn sample(&self, rng: &mut StdRng) -> usize {
        let total: f64 = self.choices.iter().map(|&(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        for &(tokens, w) in &self.choices {
            if x < w {
                return tokens;
            }
            x -= w;
        }
        // Rounding can leave x == 0 after the last subtraction.
        self.choices.last().expect("non-empty").0
    }
}

/// A declarative traffic model: how requests arrive and how long their
/// prompts and outputs are.
///
/// # Example
///
/// ```
/// use fusemax_serve::{Arrivals, LengthMix, TrafficSpec};
///
/// let spec = TrafficSpec {
///     arrivals: Arrivals::Poisson { rate_per_s: 8.0 },
///     prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
///     output_mix: LengthMix::uniform([16, 64, 256]),
///     requests: 100,
/// };
/// let trace = spec.generate(7);
/// assert_eq!(trace.len(), 100);
/// assert_eq!(trace, spec.generate(7), "same seed, same trace");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// The arrival process.
    pub arrivals: Arrivals,
    /// Prompt-length mix (prefill cost driver).
    pub prompt_mix: LengthMix,
    /// Output-length mix (decode cost driver; lengths are clamped to ≥ 1).
    pub output_mix: LengthMix,
    /// How many requests the trace holds.
    pub requests: usize,
}

impl TrafficSpec {
    /// Checks the arrival process: the rate must be positive and finite,
    /// and a bursty process needs at least one request per burst. Specs
    /// assembled from external input (CLI flags) get a typed, printable
    /// reason here instead of a panic in [`TrafficSpec::generate`].
    pub fn validate(&self) -> Result<(), SpecError> {
        let (rate_per_s, burst) = self.arrivals.rate_and_burst();
        if burst == 0 {
            return Err(SpecError::EmptyBurst);
        }
        // Gaps separate bursts at `rate / burst`; that per-gap rate must
        // be positive too, so an underflowing one is rejected as well.
        if !(rate_per_s.is_finite() && rate_per_s / burst as f64 > 0.0) {
            return Err(SpecError::BadArrivalRate);
        }
        Ok(())
    }

    /// Compiles the spec into a replayable [`Trace`], fully determined by
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if [`TrafficSpec::validate`] rejects the spec.
    pub fn generate(&self, seed: u64) -> Trace {
        if let Err(e) = self.validate() {
            panic!("invalid traffic spec: {e}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut requests = Vec::with_capacity(self.requests);
        let mut clock = 0.0f64;
        // Gaps separate bursts, so the per-gap rate is scaled down by the
        // burst size to keep the mean request rate (Poisson is burst 1).
        let (rate_per_s, per_burst) = self.arrivals.rate_and_burst();
        let gap_dist = Exp::new(rate_per_s / per_burst as f64).expect("validated arrival rate");
        for id in 0..self.requests {
            let new_burst = match self.arrivals {
                Arrivals::Poisson { .. } => true,
                Arrivals::Bursty { burst, .. } => id % burst == 0,
            };
            if new_burst {
                clock += gap_dist.sample(&mut rng);
            }
            let prompt_tokens = self.prompt_mix.sample(&mut rng).max(1);
            let output_tokens = self.output_mix.sample(&mut rng).max(1);
            requests.push(Request { id, arrival_s: clock, prompt_tokens, output_tokens });
        }
        Trace { requests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(arrivals: Arrivals) -> TrafficSpec {
        TrafficSpec {
            arrivals,
            prompt_mix: LengthMix::new([(256, 1.0), (2048, 1.0)]),
            output_mix: LengthMix::uniform([8, 64]),
            requests: 500,
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let s = spec(Arrivals::Poisson { rate_per_s: 10.0 });
        assert_eq!(s.generate(42), s.generate(42));
        assert_ne!(s.generate(42), s.generate(43));
    }

    #[test]
    fn arrivals_are_sorted_and_rates_are_respected() {
        let s = spec(Arrivals::Poisson { rate_per_s: 10.0 });
        let trace = s.generate(1);
        for w in trace.requests.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s);
        }
        let rate = trace.offered_rate_rps();
        assert!((7.0..13.0).contains(&rate), "offered rate {rate} far from 10");
    }

    #[test]
    fn bursts_arrive_simultaneously_at_the_same_mean_rate() {
        let s = spec(Arrivals::Bursty { rate_per_s: 10.0, burst: 5 });
        let trace = s.generate(9);
        // Within a burst, arrival times are identical.
        for chunk in trace.requests.chunks(5) {
            for r in chunk {
                assert_eq!(r.arrival_s, chunk[0].arrival_s);
            }
        }
        let rate = trace.offered_rate_rps();
        assert!((6.0..15.0).contains(&rate), "offered rate {rate} far from 10");
    }

    #[test]
    fn lengths_come_from_the_mix() {
        let s = spec(Arrivals::Poisson { rate_per_s: 5.0 });
        let trace = s.generate(3);
        for r in &trace.requests {
            assert!(r.prompt_tokens == 256 || r.prompt_tokens == 2048);
            assert!(r.output_tokens == 8 || r.output_tokens == 64);
        }
        // Both prompt choices actually occur at equal weights.
        let short = trace.requests.iter().filter(|r| r.prompt_tokens == 256).count();
        assert!((100..400).contains(&short), "short prompts {short}/500");
    }

    #[test]
    fn mix_mean_is_weighted() {
        let mix = LengthMix::new([(100, 3.0), (500, 1.0)]);
        assert_eq!(mix.mean(), 200.0);
        assert_eq!(LengthMix::fixed(64).mean(), 64.0);
    }

    #[test]
    fn trace_totals() {
        let trace = Trace {
            requests: vec![
                Request { id: 0, arrival_s: 0.0, prompt_tokens: 10, output_tokens: 4 },
                Request { id: 1, arrival_s: 2.0, prompt_tokens: 30, output_tokens: 6 },
            ],
        };
        assert_eq!(trace.total_prompt_tokens(), 40);
        assert_eq!(trace.total_output_tokens(), 10);
        assert_eq!(trace.last_arrival_s(), 2.0);
        assert_eq!(trace.offered_rate_rps(), 1.0);
        assert!(Trace::default().is_empty());
    }

    #[test]
    fn validate_rejects_bad_rates_and_empty_bursts() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let poisson = spec(Arrivals::Poisson { rate_per_s: rate });
            assert_eq!(poisson.validate(), Err(SpecError::BadArrivalRate), "{rate}");
            let bursty = spec(Arrivals::Bursty { rate_per_s: rate, burst: 4 });
            assert_eq!(bursty.validate(), Err(SpecError::BadArrivalRate), "{rate}");
        }
        let empty_burst = spec(Arrivals::Bursty { rate_per_s: 10.0, burst: 0 });
        assert_eq!(empty_burst.validate(), Err(SpecError::EmptyBurst));
        assert_eq!(spec(Arrivals::Poisson { rate_per_s: 10.0 }).validate(), Ok(()));
        assert_eq!(spec(Arrivals::Bursty { rate_per_s: 10.0, burst: 5 }).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive and finite")]
    fn generating_an_invalid_spec_panics_with_the_typed_reason() {
        let _ = spec(Arrivals::Poisson { rate_per_s: 0.0 }).generate(1);
    }

    #[test]
    fn an_empty_mix_is_a_typed_error() {
        assert_eq!(LengthMix::try_new([]), Err(SpecError::EmptyLengthMix));
        assert_eq!(LengthMix::try_new([(64, 2.0)]), Ok(LengthMix::new([(64, 2.0)])));
    }

    #[test]
    fn a_bad_weight_is_a_typed_error() {
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(LengthMix::try_new([(64, 1.0), (128, w)]), Err(SpecError::BadLengthWeight));
        }
    }

    #[test]
    fn a_zero_token_choice_is_a_typed_error() {
        assert_eq!(LengthMix::try_new([(0, 1.0)]), Err(SpecError::ZeroTokens));
        assert_eq!(LengthMix::try_new([(64, 1.0), (0, 2.0)]), Err(SpecError::ZeroTokens));
        assert!(LengthMix::try_new([(1, 1.0)]).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one choice")]
    fn empty_mixes_are_rejected() {
        let _ = LengthMix::new([]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_weights_are_rejected() {
        let _ = LengthMix::new([(64, 0.0)]);
    }
}
