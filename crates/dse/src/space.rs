//! The design space: the cartesian product of architecture and workload
//! knobs, enumerated into concrete [`DesignPoint`]s.

use crate::cache::PointKey;
use fusemax_arch::ArchConfig;
use fusemax_model::ConfigKind;
use fusemax_workloads::TransformerConfig;
use std::fmt;

/// A design point addressed by per-axis indices, in enumeration order:
/// `[workload, seq_len, kind, array_dim, frequency, buffer_scale,
/// scheduler_policy, fleet]`.
///
/// This is the genome representation of the guided search strategies in
/// [`crate::search`]: crossover and mutation act on these indices, and
/// [`DesignSpace::point_at`] materializes the concrete [`DesignPoint`].
pub type AxisIndex = [usize; 8];

/// How the serving scheduler orders its waiting queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueOrder {
    /// First come, first served — arrival order, the classic router.
    #[default]
    Fcfs,
    /// Shortest prompt first: short interactive requests jump long
    /// batch-style prompts (ties break by arrival order, so the order is
    /// still deterministic).
    ShortestPromptFirst,
}

impl QueueOrder {
    /// The stable lowercase token used in CLI flags and report labels
    /// (`"fcfs"` / `"spf"`).
    pub fn token(self) -> &'static str {
        match self {
            QueueOrder::Fcfs => "fcfs",
            QueueOrder::ShortestPromptFirst => "spf",
        }
    }

    /// Parses the [`QueueOrder::token`] form (case-insensitive; accepts
    /// the long names too).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "fcfs" => Some(QueueOrder::Fcfs),
            "spf" | "shortest" | "shortest-prompt-first" => Some(QueueOrder::ShortestPromptFirst),
            _ => None,
        }
    }
}

/// Why a [`SchedulerPolicy`], [`FleetSpec`] or serving traffic spec is
/// not a valid configuration. Returned by the `validate` constructors so
/// callers (builders, CLI flag parsing) can reject bad specs with a typed,
/// printable reason instead of a panic deep inside a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// `chunk_tokens == Some(0)`: a prefill chunk must hold ≥ 1 token.
    EmptyPrefillChunk,
    /// The waiting/served admission ratio is negative, NaN, or infinite.
    BadAdmissionRatio,
    /// A replicated fleet with zero replicas.
    NoReplicas,
    /// A disaggregated fleet with zero prefill or zero decode chips.
    EmptyDisaggregatedStage,
    /// A traffic arrival rate that is not positive and finite.
    BadArrivalRate,
    /// A bursty arrival process with zero requests per burst.
    EmptyBurst,
    /// A traffic length mix with no `(tokens, weight)` choice.
    EmptyLengthMix,
    /// A traffic length-mix weight that is not positive and finite.
    BadLengthWeight,
    /// A traffic length-mix choice of zero tokens: every prompt and
    /// every output holds at least one token.
    ZeroTokens,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyPrefillChunk => {
                write!(f, "prefill chunk must hold at least one token")
            }
            SpecError::BadAdmissionRatio => {
                write!(f, "waiting/served admission ratio must be finite and non-negative")
            }
            SpecError::NoReplicas => write!(f, "a fleet needs at least one replica"),
            SpecError::EmptyDisaggregatedStage => {
                write!(f, "both disaggregated stages need at least one chip")
            }
            SpecError::BadArrivalRate => write!(f, "arrival rate must be positive and finite"),
            SpecError::EmptyBurst => write!(f, "a burst must hold at least one request"),
            SpecError::EmptyLengthMix => write!(f, "a length mix needs at least one choice"),
            SpecError::BadLengthWeight => {
                write!(f, "length-mix weights must be positive and finite")
            }
            SpecError::ZeroTokens => write!(f, "a length-mix choice must hold at least one token"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The serving-scheduler configuration co-searched with the hardware: how
/// prefill is chunked, how eagerly the waiting queue is drained, and in
/// what order.
///
/// [`SchedulerPolicy::unbounded`] (the [`Default`]) reproduces the
/// pre-policy engine bit-for-bit: whole-prompt prefill, FCFS, admission
/// limited only by K/V residency. It is the sole value on the default
/// [`DesignSpace`] policy axis, so existing sweeps, caches, and golden
/// traces are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedulerPolicy {
    /// Per-iteration prefill token budget. `None` is the unbounded
    /// whole-prompt legacy behavior; `Some(c)` splits every prompt into
    /// `ceil(prompt / c)` chunks interleaved with decode iterations, and
    /// caps the *total* prefill tokens any iteration schedules at `c`.
    pub chunk_tokens: Option<usize>,
    /// Waiting/served admission ratio (the TGI `waiting_served_ratio`
    /// shape): with `r > 0`, a non-empty engine only admits from the
    /// waiting queue once `waiting >= r × resident`, batching admissions
    /// instead of trickling them. `0.0` admits greedily (legacy).
    pub waiting_served_ratio: f64,
    /// Waiting-queue discipline.
    pub queue_order: QueueOrder,
}

impl SchedulerPolicy {
    /// The legacy scheduler: whole-prompt prefill, greedy FCFS admission.
    pub fn unbounded() -> Self {
        SchedulerPolicy::default()
    }

    /// A chunked-prefill FCFS policy with greedy admission.
    pub fn chunked(chunk_tokens: usize) -> Self {
        assert!(chunk_tokens > 0, "prefill chunk must hold at least one token");
        SchedulerPolicy { chunk_tokens: Some(chunk_tokens), ..SchedulerPolicy::default() }
    }

    /// Replaces the waiting/served admission ratio.
    pub fn with_waiting_served_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio >= 0.0 && ratio.is_finite(), "admission ratio must be non-negative");
        self.waiting_served_ratio = ratio;
        self
    }

    /// Replaces the queue discipline.
    pub fn with_queue_order(mut self, order: QueueOrder) -> Self {
        self.queue_order = order;
        self
    }

    /// `true` when this policy is the legacy engine
    /// ([`SchedulerPolicy::unbounded`]).
    pub fn is_unbounded(&self) -> bool {
        *self == SchedulerPolicy::unbounded()
    }

    /// Checks the policy's invariants, returning the first violation: a
    /// chunked policy must budget ≥ 1 prefill token per iteration, and
    /// the admission ratio must be finite and non-negative. The asserting
    /// constructors ([`SchedulerPolicy::chunked`],
    /// [`SchedulerPolicy::with_waiting_served_ratio`]) uphold the same
    /// invariants; `validate` is the non-panicking form for specs built
    /// field-by-field (CLI flags, JSON).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.chunk_tokens == Some(0) {
            return Err(SpecError::EmptyPrefillChunk);
        }
        if !self.waiting_served_ratio.is_finite() || self.waiting_served_ratio < 0.0 {
            return Err(SpecError::BadAdmissionRatio);
        }
        Ok(())
    }
}

impl fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.chunk_tokens {
            None => write!(f, "whole-prompt")?,
            Some(c) => write!(f, "chunk{c}")?,
        }
        write!(f, "/{}", self.queue_order.token())?;
        if self.waiting_served_ratio > 0.0 {
            write!(f, "/r{:.2}", self.waiting_served_ratio)?;
        }
        Ok(())
    }
}

/// How a fleet router assigns arriving requests to replicas. Every policy
/// is a deterministic (seeded where randomness is involved) function of
/// the trace, so fleet replays are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouterPolicy {
    /// Request `id mod N` — the classic stateless spray.
    #[default]
    RoundRobin,
    /// Greedy least-estimated-load: each request goes to the replica with
    /// the smallest accumulated estimated service seconds (ties break by
    /// lowest replica index).
    LeastLoaded,
    /// Length-class affinity: prompts are binned by length rank and each
    /// bin sticks to one replica, so short interactive requests never
    /// queue behind long batch prompts.
    ShortestPrompt,
}

impl RouterPolicy {
    /// The stable lowercase token used in CLI flags and report labels
    /// (`"rr"` / `"ll"` / `"sp"`).
    pub fn token(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "rr",
            RouterPolicy::LeastLoaded => "ll",
            RouterPolicy::ShortestPrompt => "sp",
        }
    }

    /// Parses the [`RouterPolicy::token`] form (case-insensitive; accepts
    /// the long names too).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "rr" | "round-robin" | "roundrobin" => Some(RouterPolicy::RoundRobin),
            "ll" | "least-loaded" | "leastloaded" => Some(RouterPolicy::LeastLoaded),
            "sp" | "shortest-prompt" | "shortestprompt" => Some(RouterPolicy::ShortestPrompt),
            _ => None,
        }
    }
}

/// The fleet topology a design point ships as: how many identical chips
/// serve the trace and how requests are routed among them, or a
/// disaggregated split dedicating prefill chips that feed decode chips.
///
/// [`FleetSpec::single`] (the [`Default`]) is one chip serving the whole
/// trace — the pre-fleet engine bit-for-bit. It is the sole value on the
/// default [`DesignSpace`] fleet axis, so existing sweeps, caches, and
/// golden traces are unchanged. The fixed-sequence-length objectives
/// model one chip regardless; the fleet only multiplies **area** (total
/// silicon = per-chip area × [`FleetSpec::chips`]) and drives
/// `fusemax_serve::Fleet` when the point is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FleetSpec {
    /// Number of identical data-parallel replicas (≥ 1). Ignored when
    /// `prefill_decode` is set.
    pub replicas: usize,
    /// How the router shards the trace across replicas.
    pub router: RouterPolicy,
    /// `Some((p, d))` dedicates `p` prefill chips feeding `d` decode
    /// chips, with each request's K/V state transferred between stages at
    /// DRAM bandwidth. `None` is the replicated (or single-chip)
    /// topology.
    pub prefill_decode: Option<(usize, usize)>,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec::single()
    }
}

impl FleetSpec {
    /// One chip serving the whole trace — the legacy topology.
    pub fn single() -> Self {
        FleetSpec { replicas: 1, router: RouterPolicy::RoundRobin, prefill_decode: None }
    }

    /// `n` identical data-parallel replicas behind a round-robin router.
    pub fn replicated(n: usize) -> Self {
        assert!(n > 0, "a fleet needs at least one replica");
        FleetSpec { replicas: n, router: RouterPolicy::RoundRobin, prefill_decode: None }
    }

    /// A disaggregated fleet: `prefill` chips run prompt processing and
    /// stream each request's K/V state to one of `decode` chips.
    pub fn disaggregated(prefill: usize, decode: usize) -> Self {
        assert!(prefill > 0 && decode > 0, "both disaggregated stages need at least one chip");
        FleetSpec {
            replicas: prefill + decode,
            router: RouterPolicy::RoundRobin,
            prefill_decode: Some((prefill, decode)),
        }
    }

    /// Replaces the router policy.
    pub fn with_router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Total chips in the fleet — the factor on per-chip area.
    pub fn chips(&self) -> usize {
        match self.prefill_decode {
            Some((p, d)) => p + d,
            None => self.replicas,
        }
    }

    /// `true` when this is the legacy single-chip topology.
    pub fn is_single(&self) -> bool {
        *self == FleetSpec::single()
    }

    /// Checks the topology's invariants, returning the first violation:
    /// a replicated fleet needs ≥ 1 replica, and a disaggregated fleet
    /// needs ≥ 1 chip in each stage. The asserting constructors
    /// ([`FleetSpec::replicated`], [`FleetSpec::disaggregated`]) uphold
    /// the same invariants; `validate` is the non-panicking form for
    /// specs built field-by-field (CLI flags, JSON).
    pub fn validate(&self) -> Result<(), SpecError> {
        match self.prefill_decode {
            Some((p, d)) if p == 0 || d == 0 => Err(SpecError::EmptyDisaggregatedStage),
            Some(_) => Ok(()),
            None if self.replicas == 0 => Err(SpecError::NoReplicas),
            None => Ok(()),
        }
    }
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.prefill_decode {
            Some((p, d)) => write!(f, "{p}p+{d}d/{}", self.router.token()),
            None if self.replicas == 1 => write!(f, "1x"),
            None => write!(f, "{}x/{}", self.replicas, self.router.token()),
        }
    }
}

/// One fully-specified candidate design: an architecture, the dataflow
/// configuration running on it, and the workload it is evaluated against.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The concrete accelerator instance.
    pub arch: ArchConfig,
    /// Which of the paper's configurations runs on it.
    pub kind: ConfigKind,
    /// The transformer model evaluated.
    pub workload: TransformerConfig,
    /// Sequence length in tokens.
    pub seq_len: usize,
    /// The `n` of the `n×n` array this point was scaled from (kept for
    /// reports and the Fig 12 x-axis grouping).
    pub array_dim: usize,
    /// The serving-scheduler policy co-designed with the hardware
    /// (ignored by the fixed-sequence-length objectives; it drives
    /// `fusemax_serve::ServeSim` when the point is served).
    pub policy: SchedulerPolicy,
    /// The fleet topology the design ships as: multiplies
    /// [`crate::Evaluation::area_cm2`] by [`FleetSpec::chips`] and drives
    /// `fusemax_serve::Fleet` when the point is served. The default
    /// single-chip fleet changes nothing.
    pub fleet: FleetSpec,
}

/// How a candidate design addresses its [`DesignSpace`]: by per-axis grid
/// indices (the PR-2 genome), or **off-grid** — the categorical axes
/// (workload, sequence length, kind, frequency) still index the grid, but
/// the hardware knobs are concrete values the grid need not contain: any
/// positive array dimension and any global-buffer capacity in bytes.
///
/// Off-grid candidates are what the continuous search strategies
/// ([`crate::search::SnapPolicy::Continuous`]) evaluate: the analytical
/// model accepts any [`ArchConfig`], so nothing forces a walker onto the
/// paper's power-of-two grid. [`DesignSpace::materialize`] turns either
/// variant into a concrete [`DesignPoint`]; the [`crate::PointKey`] of
/// that point is derived from the *materialized* architecture
/// field-by-field, so off-grid entries get canonical bit-exact cache keys
/// exactly like on-grid ones.
#[derive(Debug, Clone, PartialEq)]
pub enum Candidate {
    /// On-grid: per-axis indices in [`AxisIndex`] order.
    Grid(AxisIndex),
    /// Off-grid: concrete hardware knobs, no array-dim / buffer axis
    /// index.
    OffGrid {
        /// Workload axis index (categorical — always on-grid).
        workload: usize,
        /// Sequence-length axis index.
        seq_len: usize,
        /// Configuration axis index.
        kind: usize,
        /// Frequency axis index.
        frequency: usize,
        /// Concrete array dimension `n` (an `n×n` 2D array with `n` 1D
        /// PEs) — any positive integer, not just the grid's values.
        array_dim: usize,
        /// Concrete global-buffer capacity in bytes, replacing the
        /// dimension-scaled default outright.
        buffer_bytes: u64,
        /// Concrete clock override in hertz. `None` keeps whatever the
        /// indexed `frequency` axis value yields; `Some(hz)` frees the
        /// clock from the grid entirely, letting continuous runs trade
        /// clock rate against memory bandwidth.
        frequency_hz: Option<f64>,
        /// Concrete off-chip bandwidth override in bytes per second
        /// (`None` keeps the family's stock bandwidth).
        dram_bw_bytes_per_sec: Option<f64>,
        /// Scheduler-policy axis index (categorical — always on-grid,
        /// like workload and kind).
        policy: usize,
        /// Fleet-topology axis index (categorical — always on-grid, like
        /// the scheduler policy).
        fleet: usize,
    },
}

/// Builds the architecture a configuration family uses at array dimension
/// `n`: the FuseMax-scaled chip for the FuseMax kinds, a FLAT-cloud chip
/// scaled the same way (array `n×n`, `n` 1D PEs, proportionally scaled
/// 22 MB-class buffer) for the baselines — mirroring how
/// [`ConfigKind::default_arch`] splits the families at cloud scale.
pub fn arch_for(kind: ConfigKind, n: usize) -> ArchConfig {
    assert!(n > 0, "array dimension must be positive");
    match kind {
        ConfigKind::FuseMaxArch | ConfigKind::FuseMaxBinding => ArchConfig::fusemax_scaled(n),
        ConfigKind::Unfused | ConfigKind::Flat | ConfigKind::FuseMaxCascade => {
            let base = ArchConfig::flat_cloud();
            let scale = (n as f64 / 256.0).powi(2);
            ArchConfig {
                name: format!("flat-{n}x{n}"),
                array_rows: n,
                array_cols: n,
                vector_pes: n,
                global_buffer_bytes: ((22_u64 << 20) as f64 * scale).ceil() as u64,
                ..base
            }
        }
    }
}

/// A declarative description of the space to sweep.
///
/// Knobs multiply: `array_dims × kinds × workloads × seq_lens ×
/// frequencies × buffer_scales × policies` design points. The builder
/// starts from the paper's Fig 12 defaults (the six array dimensions,
/// `+Binding`, all four models, 256K tokens, stock frequency and buffer,
/// the legacy whole-prompt scheduler) and every `with_*` method replaces
/// one axis.
///
/// # Example
///
/// ```
/// use fusemax_dse::DesignSpace;
/// use fusemax_model::ConfigKind;
///
/// let space = DesignSpace::new()
///     .with_array_dims([64, 128, 256])
///     .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
///     .with_seq_lens([1 << 16]);
/// // 3 dims × 2 kinds × 4 models × 1 length = 24 points.
/// assert_eq!(space.len(), 24);
/// ```
#[derive(Debug, Clone)]
pub struct DesignSpace {
    array_dims: Vec<usize>,
    kinds: Vec<ConfigKind>,
    workloads: Vec<TransformerConfig>,
    seq_lens: Vec<usize>,
    frequencies_hz: Vec<Option<f64>>,
    buffer_scales: Vec<f64>,
    policies: Vec<SchedulerPolicy>,
    fleets: Vec<FleetSpec>,
}

impl Default for DesignSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl DesignSpace {
    /// The Fig 12 default space: `ARRAY_DIMS × {+Binding} × all models ×
    /// {256K}` at stock frequency and buffer size.
    pub fn new() -> Self {
        DesignSpace {
            array_dims: crate::ARRAY_DIMS.to_vec(),
            kinds: vec![ConfigKind::FuseMaxBinding],
            workloads: TransformerConfig::all(),
            seq_lens: vec![1 << 18],
            frequencies_hz: vec![None],
            buffer_scales: vec![1.0],
            policies: vec![SchedulerPolicy::unbounded()],
            fleets: vec![FleetSpec::single()],
        }
    }

    /// Replaces the array-dimension axis (`n` for an `n×n` 2D array with
    /// `n` 1D PEs and a proportionally scaled buffer).
    pub fn with_array_dims(mut self, dims: impl IntoIterator<Item = usize>) -> Self {
        self.array_dims = dims.into_iter().collect();
        self
    }

    /// Replaces the configuration axis.
    pub fn with_kinds(mut self, kinds: impl IntoIterator<Item = ConfigKind>) -> Self {
        self.kinds = kinds.into_iter().collect();
        self
    }

    /// Replaces the workload axis.
    pub fn with_workloads(
        mut self,
        workloads: impl IntoIterator<Item = TransformerConfig>,
    ) -> Self {
        self.workloads = workloads.into_iter().collect();
        self
    }

    /// Replaces the sequence-length axis.
    pub fn with_seq_lens(mut self, seq_lens: impl IntoIterator<Item = usize>) -> Self {
        self.seq_lens = seq_lens.into_iter().collect();
        self
    }

    /// Replaces the clock-frequency axis (`None` keeps each family's stock
    /// clock; `Some(hz)` overrides it).
    pub fn with_frequencies_hz(mut self, freqs: impl IntoIterator<Item = Option<f64>>) -> Self {
        self.frequencies_hz = freqs.into_iter().collect();
        self
    }

    /// Replaces the global-buffer capacity axis (multipliers on each
    /// family's dimension-scaled buffer).
    pub fn with_buffer_scales(mut self, scales: impl IntoIterator<Item = f64>) -> Self {
        self.buffer_scales = scales.into_iter().collect();
        self
    }

    /// Replaces the serving-scheduler policy axis. The default is the
    /// singleton [`SchedulerPolicy::unbounded`] axis, which changes no
    /// existing results; adding policies lets `ServeObjective`-ranked
    /// searches co-design the scheduler with the hardware.
    pub fn with_policies(mut self, policies: impl IntoIterator<Item = SchedulerPolicy>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// Replaces the fleet-topology axis. The default is the singleton
    /// [`FleetSpec::single`] axis, which changes no existing results;
    /// adding fleets lets in-loop serving objectives search replica count
    /// and disaggregation ratio next to the hardware knobs.
    pub fn with_fleets(mut self, fleets: impl IntoIterator<Item = FleetSpec>) -> Self {
        self.fleets = fleets.into_iter().collect();
        self
    }

    /// The array-dimension axis values.
    pub fn array_dims(&self) -> &[usize] {
        &self.array_dims
    }

    /// The configuration axis values.
    pub fn kinds(&self) -> &[ConfigKind] {
        &self.kinds
    }

    /// The workload axis values.
    pub fn workloads(&self) -> &[TransformerConfig] {
        &self.workloads
    }

    /// The sequence-length axis values.
    pub fn seq_lens(&self) -> &[usize] {
        &self.seq_lens
    }

    /// The clock-frequency axis values.
    pub fn frequencies_hz(&self) -> &[Option<f64>] {
        &self.frequencies_hz
    }

    /// The buffer-scale axis values.
    pub fn buffer_scales(&self) -> &[f64] {
        &self.buffer_scales
    }

    /// The scheduler-policy axis values.
    pub fn policies(&self) -> &[SchedulerPolicy] {
        &self.policies
    }

    /// The fleet-topology axis values.
    pub fn fleets(&self) -> &[FleetSpec] {
        &self.fleets
    }

    /// Per-axis cardinalities in [`AxisIndex`] order: workloads, sequence
    /// lengths, kinds, array dimensions, frequencies, buffer scales,
    /// scheduler policies, fleets.
    pub fn axis_lens(&self) -> AxisIndex {
        [
            self.workloads.len(),
            self.seq_lens.len(),
            self.kinds.len(),
            self.array_dims.len(),
            self.frequencies_hz.len(),
            self.buffer_scales.len(),
            self.policies.len(),
            self.fleets.len(),
        ]
    }

    /// Materializes the design point addressed by per-axis indices — the
    /// random-access counterpart of [`DesignSpace::points`] the guided
    /// search strategies use (a genome *is* an [`AxisIndex`]).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for its axis.
    pub fn point_at(&self, index: AxisIndex) -> DesignPoint {
        self.point_with(index, self.arch_at(index))
    }

    /// The architecture of `index`'s kind, array dimension, frequency and
    /// buffer scale: the family chip of [`arch_for`], re-clocked and
    /// re-buffered by the knob axes, each knob tagged onto its name.
    fn arch_at(&self, [_, _, ki, di, fi, bi, _, _]: AxisIndex) -> ArchConfig {
        let mut arch = arch_for(self.kinds[ki], self.array_dims[di]);
        if let Some(hz) = self.frequencies_hz[fi] {
            arch.frequency_hz = hz;
            arch.name = format!("{}@{:.0}MHz", arch.name, hz / 1e6);
        }
        let buf_scale = self.buffer_scales[bi];
        if buf_scale != 1.0 {
            arch.global_buffer_bytes = (arch.global_buffer_bytes as f64 * buf_scale).ceil() as u64;
            arch.name = format!("{}-buf{buf_scale:.2}x", arch.name);
        }
        arch
    }

    /// The point `index` addresses, on `arch` (which must be
    /// [`DesignSpace::arch_at`] of `index`).
    fn point_with(
        &self,
        [wi, si, ki, di, _, _, pi, gi]: AxisIndex,
        arch: ArchConfig,
    ) -> DesignPoint {
        DesignPoint {
            arch,
            kind: self.kinds[ki],
            workload: self.workloads[wi].clone(),
            seq_len: self.seq_lens[si],
            array_dim: self.array_dims[di],
            policy: self.policies[pi],
            fleet: self.fleets[gi],
        }
    }

    /// Materializes either [`Candidate`] variant into a concrete
    /// [`DesignPoint`]: grid candidates defer to [`DesignSpace::point_at`];
    /// off-grid candidates build the family architecture at their concrete
    /// array dimension ([`arch_for`]), apply the indexed frequency
    /// override, and replace the global buffer with their explicit byte
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if any categorical index is out of range for its axis, or if
    /// an off-grid candidate's `array_dim` or `buffer_bytes` is zero.
    pub fn materialize(&self, candidate: &Candidate) -> DesignPoint {
        match *candidate {
            Candidate::Grid(index) => self.point_at(index),
            Candidate::OffGrid {
                workload,
                seq_len,
                kind,
                frequency,
                array_dim,
                buffer_bytes,
                frequency_hz,
                dram_bw_bytes_per_sec,
                policy,
                fleet,
            } => {
                assert!(buffer_bytes > 0, "off-grid buffer must hold at least one byte");
                let kind = self.kinds[kind];
                let freq = self.frequencies_hz[frequency];
                let mut arch = arch_for(kind, array_dim);
                // A concrete clock override supersedes the indexed axis
                // value outright — applying both would stack two clock
                // suffixes onto the name.
                if let (Some(hz), None) = (freq, frequency_hz) {
                    arch.frequency_hz = hz;
                    arch.name = format!("{}@{:.0}MHz", arch.name, hz / 1e6);
                }
                if let Some(hz) = frequency_hz {
                    assert!(hz > 0.0 && hz.is_finite(), "off-grid clock must be positive");
                    if hz != arch.frequency_hz {
                        arch.frequency_hz = hz;
                        arch.name = format!("{}@{:.1}MHz", arch.name, hz / 1e6);
                    }
                }
                if let Some(bw) = dram_bw_bytes_per_sec {
                    assert!(bw > 0.0 && bw.is_finite(), "off-grid bandwidth must be positive");
                    if bw != arch.dram_bw_bytes_per_sec {
                        arch.dram_bw_bytes_per_sec = bw;
                        arch.name = format!("{}-bw{:.1}GBs", arch.name, bw / 1e9);
                    }
                }
                if buffer_bytes != arch.global_buffer_bytes {
                    arch.name = format!("{}-gb{buffer_bytes}", arch.name);
                    arch.global_buffer_bytes = buffer_bytes;
                }
                DesignPoint {
                    arch,
                    kind,
                    workload: self.workloads[workload].clone(),
                    seq_len: self.seq_lens[seq_len],
                    array_dim,
                    policy: self.policies[policy],
                    fleet: self.fleets[fleet],
                }
            }
        }
    }

    /// `true` when some grid index materializes a point with the same
    /// model-visible identity as `point` (architecture fields, kind,
    /// workload, sequence length — names are ignored, exactly as the
    /// evaluation-cache key ignores them). Off-grid points found by a
    /// [`crate::search::SnapPolicy::Continuous`] run return `false` —
    /// they are designs the grid cannot express.
    pub fn is_on_grid(&self, point: &DesignPoint) -> bool {
        let key = PointKey::of(point);
        let grid = GridWalk::new(self);
        grid.indices().any(|index| grid.key(index) == key)
    }

    /// Number of candidate points the space enumerates.
    pub fn len(&self) -> usize {
        self.array_dims.len()
            * self.kinds.len()
            * self.workloads.len()
            * self.seq_lens.len()
            * self.frequencies_hz.len()
            * self.buffer_scales.len()
            * self.policies.len()
            * self.fleets.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every point, workload-major then sequence length, kind,
    /// array dimension, frequency, buffer scale, scheduler policy, fleet
    /// — a stable order the cache and the serial/parallel equivalence
    /// tests rely on. Each point is exactly what
    /// [`DesignSpace::point_at`] returns for its index.
    pub fn points(&self) -> Vec<DesignPoint> {
        let grid = GridWalk::new(self);
        grid.indices().map(|index| grid.point(index)).collect()
    }
}

/// The grid walk behind [`DesignSpace::points`], [`DesignSpace::is_on_grid`]
/// and both sweeps. It builds each architecture of the space once per
/// (kind, array dimension, frequency, buffer scale) index, and hands out
/// grid indices in a sweep's order with the key and the point of each, so
/// a walk formats no name per point and a key allocates nothing.
pub(crate) struct GridWalk<'a> {
    space: &'a DesignSpace,
    /// [`DesignSpace::arch_at`] of every (kind, dim, frequency, buffer)
    /// index, last axis fastest. Empty for an empty space, whose non-empty
    /// axes may hold values no architecture can be built from (a zero
    /// array dimension).
    archs: Vec<ArchConfig>,
}

impl<'a> GridWalk<'a> {
    pub(crate) fn new(space: &'a DesignSpace) -> Self {
        let [_, _, nk, nd, nf, nb, _, _] = space.axis_lens();
        let archs = if space.is_empty() {
            Vec::new()
        } else {
            odometer([1, 1, nk, nd, nf, nb, 1, 1]).map(|index| space.arch_at(index)).collect()
        };
        GridWalk { space, archs }
    }

    fn arch(&self, [_, _, ki, di, fi, bi, _, _]: AxisIndex) -> &ArchConfig {
        let [_, _, _, nd, nf, nb, _, _] = self.space.axis_lens();
        &self.archs[((ki * nd + di) * nf + fi) * nb + bi]
    }

    /// The cache key of the point `index` addresses, without building it.
    pub(crate) fn key(&self, index: AxisIndex) -> PointKey {
        let [wi, si, ki, _, _, _, pi, gi] = index;
        let s = self.space;
        PointKey::new(
            self.arch(index),
            s.kinds[ki],
            &s.workloads[wi],
            s.seq_lens[si],
            s.policies[pi],
            s.fleets[gi],
        )
    }

    /// The point `index` addresses: [`DesignSpace::point_at`], with the
    /// architecture cloned instead of rebuilt.
    pub(crate) fn point(&self, index: AxisIndex) -> DesignPoint {
        self.space.point_with(index, self.arch(index).clone())
    }

    /// Every grid index in space order.
    pub(crate) fn indices(&self) -> impl Iterator<Item = AxisIndex> {
        self.walk(vec![(0..self.space.kinds.len()).collect()])
    }

    /// Every grid index, the strongest kinds first: kinds in descending
    /// order, the kind-axis entries of one kind in axis order, and
    /// otherwise space order. This is space order stably sorted by
    /// descending kind.
    pub(crate) fn strongest_first(&self) -> impl Iterator<Item = AxisIndex> {
        let kinds = &self.space.kinds;
        let mut order = kinds.clone();
        order.sort_unstable_by(|a, b| b.cmp(a));
        order.dedup();
        let runs = order
            .into_iter()
            .map(|kind| (0..kinds.len()).filter(|&ki| kinds[ki] == kind).collect())
            .collect();
        self.walk(runs)
    }

    /// Space order once per run, with the kind axis walked through the
    /// run's kind-axis indices instead of all of them.
    fn walk(&self, runs: Vec<Vec<usize>>) -> impl Iterator<Item = AxisIndex> {
        let lens = self.space.axis_lens();
        runs.into_iter().flat_map(move |run| {
            let mut run_lens = lens;
            run_lens[2] = run.len();
            odometer(run_lens).map(move |mut index| {
                index[2] = run[index[2]];
                index
            })
        })
    }
}

/// Every index below `lens`, last axis fastest: the order of eight nested
/// loops. Nothing when an axis is empty.
fn odometer(lens: AxisIndex) -> impl Iterator<Item = AxisIndex> {
    let first = (!lens.contains(&0)).then_some([0; 8]);
    std::iter::successors(first, move |&index| {
        let mut next = index;
        for axis in (0..next.len()).rev() {
            next[axis] += 1;
            if next[axis] < lens[axis] {
                return Some(next);
            }
            next[axis] = 0;
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusemax_arch::PeKind;

    #[test]
    fn default_space_is_the_fig12_sweep() {
        let space = DesignSpace::new();
        assert_eq!(space.len(), 6 * 4);
        let pts = space.points();
        assert_eq!(pts.len(), 24);
        assert!(pts.iter().all(|p| p.kind == ConfigKind::FuseMaxBinding));
        assert!(pts.iter().all(|p| p.seq_len == 1 << 18));
    }

    #[test]
    fn arch_for_matches_the_family_split() {
        let fm = arch_for(ConfigKind::FuseMaxBinding, 256);
        assert_eq!(fm, ArchConfig::fusemax_scaled(256));
        assert_eq!(fm.pe_2d, PeKind::FuseMaxPe);

        let flat = arch_for(ConfigKind::Flat, 256);
        assert_eq!(flat.pe_2d, PeKind::FlatMacc);
        assert_eq!(flat.global_buffer_bytes, 22 << 20);
        let small = arch_for(ConfigKind::Flat, 128);
        assert_eq!(small.vector_pes, 128);
        assert_eq!(small.global_buffer_bytes, (22 << 20) / 4);
    }

    #[test]
    fn knob_axes_multiply() {
        let space = DesignSpace::new()
            .with_array_dims([32, 64])
            .with_kinds(ConfigKind::all())
            .with_seq_lens([1 << 12, 1 << 14, 1 << 16])
            .with_frequencies_hz([None, Some(470e6)])
            .with_buffer_scales([0.5, 1.0]);
        assert_eq!(space.len(), 2 * 5 * 4 * 3 * 2 * 2);
        assert_eq!(space.points().len(), space.len());
    }

    #[test]
    fn frequency_and_buffer_knobs_apply() {
        let space = DesignSpace::new()
            .with_array_dims([256])
            .with_workloads([TransformerConfig::bert()])
            .with_frequencies_hz([Some(470e6)])
            .with_buffer_scales([0.5]);
        let pts = space.points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].arch.frequency_hz, 470e6);
        assert_eq!(pts[0].arch.global_buffer_bytes, 8 << 20);
        assert!(pts[0].arch.name.contains("470MHz"));
    }

    #[test]
    fn enumeration_order_is_stable() {
        let space = DesignSpace::new();
        assert_eq!(space.points(), space.points());
    }

    #[test]
    fn point_at_agrees_with_enumeration() {
        let space = DesignSpace::new()
            .with_array_dims([32, 128])
            .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
            .with_seq_lens([1 << 12, 1 << 16])
            .with_frequencies_hz([None, Some(470e6)])
            .with_buffer_scales([0.5, 1.0]);
        let pts = space.points();
        let [nw, ns, nk, nd, nf, nb, np, ng] = space.axis_lens();
        let mut i = 0;
        for wi in 0..nw {
            for si in 0..ns {
                for ki in 0..nk {
                    for di in 0..nd {
                        for fi in 0..nf {
                            for bi in 0..nb {
                                for pi in 0..np {
                                    for gi in 0..ng {
                                        assert_eq!(
                                            space.point_at([wi, si, ki, di, fi, bi, pi, gi]),
                                            pts[i]
                                        );
                                        i += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(i, space.len());
    }

    #[test]
    fn axis_accessors_expose_the_knobs() {
        let space = DesignSpace::new().with_array_dims([64]).with_buffer_scales([2.0]);
        assert_eq!(space.array_dims(), &[64]);
        assert_eq!(space.buffer_scales(), &[2.0]);
        assert_eq!(space.kinds(), &[ConfigKind::FuseMaxBinding]);
        assert_eq!(space.seq_lens(), &[1 << 18]);
        assert_eq!(space.frequencies_hz(), &[None]);
        assert_eq!(space.workloads().len(), 4);
        assert_eq!(space.policies(), &[SchedulerPolicy::unbounded()]);
        assert_eq!(space.fleets(), &[FleetSpec::single()]);
        assert_eq!(space.axis_lens(), [4, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn point_at_rejects_out_of_range_indices() {
        let _ = DesignSpace::new().point_at([0, 0, 0, 99, 0, 0, 0, 0]);
    }

    #[test]
    fn fleet_axis_multiplies_and_materializes() {
        let space = DesignSpace::new().with_array_dims([128]).with_fleets([
            FleetSpec::single(),
            FleetSpec::replicated(4).with_router(RouterPolicy::LeastLoaded),
            FleetSpec::disaggregated(1, 3),
        ]);
        assert_eq!(space.len(), 4 * 3);
        let pts = space.points();
        assert_eq!(pts[0].fleet, FleetSpec::single());
        assert_eq!(pts[1].fleet.replicas, 4);
        assert_eq!(pts[1].fleet.router, RouterPolicy::LeastLoaded);
        assert_eq!(pts[2].fleet.prefill_decode, Some((1, 3)));
        assert_eq!(pts[2].fleet.chips(), 4);
        assert!(pts[0].fleet.is_single() && !pts[1].fleet.is_single());
    }

    #[test]
    fn fleet_spec_displays_compactly() {
        assert_eq!(FleetSpec::single().to_string(), "1x");
        assert_eq!(FleetSpec::replicated(4).to_string(), "4x/rr");
        assert_eq!(
            FleetSpec::replicated(2).with_router(RouterPolicy::ShortestPrompt).to_string(),
            "2x/sp"
        );
        assert_eq!(FleetSpec::disaggregated(2, 6).to_string(), "2p+6d/rr");
    }

    #[test]
    fn spec_validation_rejects_each_degenerate_shape() {
        // Scheduler: zero-token chunk.
        let zero_chunk = SchedulerPolicy { chunk_tokens: Some(0), ..SchedulerPolicy::default() };
        assert_eq!(zero_chunk.validate(), Err(SpecError::EmptyPrefillChunk));
        // Scheduler: non-finite / negative admission ratio.
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let policy =
                SchedulerPolicy { waiting_served_ratio: bad, ..SchedulerPolicy::default() };
            assert_eq!(policy.validate(), Err(SpecError::BadAdmissionRatio), "{bad}");
        }
        // Fleet: zero replicas.
        let empty = FleetSpec { replicas: 0, ..FleetSpec::single() };
        assert_eq!(empty.validate(), Err(SpecError::NoReplicas));
        // Fleet: an empty disaggregated stage (either side).
        for pd in [(0, 2), (2, 0)] {
            let fleet = FleetSpec { prefill_decode: Some(pd), ..FleetSpec::single() };
            assert_eq!(fleet.validate(), Err(SpecError::EmptyDisaggregatedStage), "{pd:?}");
        }
        // Every constructor-built spec validates clean.
        assert_eq!(SchedulerPolicy::unbounded().validate(), Ok(()));
        assert_eq!(SchedulerPolicy::chunked(256).with_waiting_served_ratio(1.2).validate(), Ok(()));
        assert_eq!(FleetSpec::single().validate(), Ok(()));
        assert_eq!(FleetSpec::replicated(4).validate(), Ok(()));
        assert_eq!(FleetSpec::disaggregated(1, 3).validate(), Ok(()));
        // The errors render human-readable reasons for CLI surfaces.
        assert_eq!(SpecError::NoReplicas.to_string(), "a fleet needs at least one replica");
    }

    #[test]
    fn queue_order_tokens_round_trip() {
        for order in [QueueOrder::Fcfs, QueueOrder::ShortestPromptFirst] {
            assert_eq!(QueueOrder::parse(order.token()), Some(order));
        }
        assert_eq!(
            QueueOrder::parse("shortest-prompt-first"),
            Some(QueueOrder::ShortestPromptFirst)
        );
        assert_eq!(QueueOrder::parse("bogus"), None);
    }

    #[test]
    fn router_tokens_round_trip() {
        for router in
            [RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded, RouterPolicy::ShortestPrompt]
        {
            assert_eq!(RouterPolicy::parse(router.token()), Some(router));
        }
        assert_eq!(RouterPolicy::parse("least-loaded"), Some(RouterPolicy::LeastLoaded));
        assert_eq!(RouterPolicy::parse("bogus"), None);
    }

    #[test]
    fn empty_axis_empties_the_space() {
        let space = DesignSpace::new().with_kinds([]);
        assert!(space.is_empty());
        assert!(space.points().is_empty());
    }

    #[test]
    fn grid_candidates_materialize_exactly_like_point_at() {
        let space = DesignSpace::new()
            .with_array_dims([64, 256])
            .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
            .with_frequencies_hz([None, Some(470e6)])
            .with_buffer_scales([0.5, 1.0]);
        let index = [1, 0, 1, 1, 1, 0, 0, 0];
        assert_eq!(space.materialize(&Candidate::Grid(index)), space.point_at(index));
    }

    #[test]
    fn off_grid_candidates_carry_their_concrete_knobs() {
        let space = DesignSpace::new().with_kinds([ConfigKind::FuseMaxBinding]);
        let point = space.materialize(&Candidate::OffGrid {
            workload: 2,
            seq_len: 0,
            kind: 0,
            frequency: 0,
            array_dim: 200,
            buffer_bytes: 12_345_678,
            frequency_hz: None,
            dram_bw_bytes_per_sec: None,
            policy: 0,
            fleet: 0,
        });
        assert_eq!(point.array_dim, 200);
        assert_eq!(point.arch.array_rows, 200);
        assert_eq!(point.arch.vector_pes, 200);
        assert_eq!(point.arch.global_buffer_bytes, 12_345_678);
        assert_eq!(point.kind, ConfigKind::FuseMaxBinding);
        assert_eq!(point.workload.name, space.workloads()[2].name);
        assert!(point.arch.name.contains("gb12345678"), "{}", point.arch.name);
    }

    #[test]
    fn off_grid_clock_and_bandwidth_overrides_apply() {
        let space = DesignSpace::new().with_frequencies_hz([None, Some(470e6)]);
        let point = space.materialize(&Candidate::OffGrid {
            workload: 0,
            seq_len: 0,
            kind: 0,
            frequency: 1,
            array_dim: 200,
            buffer_bytes: 1 << 20,
            frequency_hz: Some(777.5e6),
            dram_bw_bytes_per_sec: Some(512e9),
            policy: 0,
            fleet: 0,
        });
        // The concrete overrides win over the indexed axis value, and the
        // name carries exactly one clock tag.
        assert_eq!(point.arch.frequency_hz, 777.5e6);
        assert_eq!(point.arch.dram_bw_bytes_per_sec, 512e9);
        assert!(point.arch.name.contains("777.5MHz"), "{}", point.arch.name);
        assert!(!point.arch.name.contains("470MHz"), "{}", point.arch.name);
        assert!(point.arch.name.contains("bw512.0GBs"), "{}", point.arch.name);
        assert!(!space.is_on_grid(&point));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_off_grid_clock_is_rejected() {
        let _ = DesignSpace::new().materialize(&Candidate::OffGrid {
            workload: 0,
            seq_len: 0,
            kind: 0,
            frequency: 0,
            array_dim: 64,
            buffer_bytes: 1 << 20,
            frequency_hz: Some(0.0),
            dram_bw_bytes_per_sec: None,
            policy: 0,
            fleet: 0,
        });
    }

    #[test]
    fn off_grid_candidate_matching_the_grid_is_recognized_on_grid() {
        // An off-grid candidate that *happens* to name a grid design has
        // the same model-visible identity, so is_on_grid sees through the
        // addressing difference.
        let space = DesignSpace::new().with_array_dims([64, 256]);
        let stock = arch_for(ConfigKind::FuseMaxBinding, 256).global_buffer_bytes;
        let aliased = space.materialize(&Candidate::OffGrid {
            workload: 0,
            seq_len: 0,
            kind: 0,
            frequency: 0,
            array_dim: 256,
            buffer_bytes: stock,
            frequency_hz: None,
            dram_bw_bytes_per_sec: None,
            policy: 0,
            fleet: 0,
        });
        assert!(space.is_on_grid(&aliased));
    }

    #[test]
    fn is_on_grid_separates_grid_from_off_grid_points() {
        let space = DesignSpace::new()
            .with_array_dims([64, 256])
            .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
            .with_buffer_scales([0.5, 1.0]);
        for point in space.points() {
            assert!(space.is_on_grid(&point), "{} escaped its own grid", point.arch.name);
        }
        let off = space.materialize(&Candidate::OffGrid {
            workload: 0,
            seq_len: 0,
            kind: 1,
            frequency: 0,
            array_dim: 200,
            buffer_bytes: 1 << 20,
            frequency_hz: None,
            dram_bw_bytes_per_sec: None,
            policy: 0,
            fleet: 0,
        });
        assert!(!space.is_on_grid(&off));
        // Same dim as the grid but an off-grid buffer is still off-grid.
        let stock = arch_for(ConfigKind::FuseMaxBinding, 256).global_buffer_bytes;
        let off_buf = space.materialize(&Candidate::OffGrid {
            workload: 0,
            seq_len: 0,
            kind: 1,
            frequency: 0,
            array_dim: 256,
            buffer_bytes: stock - 1,
            frequency_hz: None,
            dram_bw_bytes_per_sec: None,
            policy: 0,
            fleet: 0,
        });
        assert!(!space.is_on_grid(&off_buf));
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_off_grid_buffers_are_rejected() {
        let _ = DesignSpace::new().materialize(&Candidate::OffGrid {
            workload: 0,
            seq_len: 0,
            kind: 0,
            frequency: 0,
            array_dim: 64,
            buffer_bytes: 0,
            frequency_hz: None,
            dram_bw_bytes_per_sec: None,
            policy: 0,
            fleet: 0,
        });
    }
}
