//! Precomputed per-design service times: every analytical-model call a
//! trace replay needs, evaluated up front so the simulator's iteration
//! loop is pure table lookups.
//!
//! The pre-table engine memoized service times lazily, which meant
//! `fusemax_model::e2e_report_on` ran *inside* the iteration loop on
//! first touch of each length. A [`ServiceTimeTable`] hoists those calls
//! to construction time, and a [`crate::ServeObjective`] shares them
//! across its scorings: it builds **one table per scoring**, handed to
//! every fault scenario's replay, and draws each `e2e(L)` from a
//! per-objective `ModelMemo` keyed by chip and sequence length — so
//! policy variants, fleet variants and the scenarios of one chip compute
//! each `(chip, L)` once. The memo is a build-time argument, never a
//! table field: lookups stay the same few loads either way.
//!
//! A table holds:
//!
//! * **prefill** — one entry per *distinct prompt length* in the trace
//!   (prefill cost is exact in the prompt length, so bucketing it would
//!   change reports);
//! * **decode** — one entry per power-of-two context bucket spanning the
//!   trace's actual decode range (`min prompt + 1` up to
//!   `max (prompt + output - 1)` over requests that decode at all),
//!   matching the engine's bucketing assumption that decode cost varies
//!   slowly in context.
//!
//! Values are computed by the same formulas the lazy path used, so
//! replays through a table are bit-identical to the pre-table engine
//! (golden-gated). Lookups outside the precomputed set fall back to an
//! on-demand model call and are *counted* ([`ServiceTimeTable::misses`]);
//! the test suite asserts a table built for a trace serves its replay
//! with zero misses — i.e. zero `e2e_report_on` calls inside the loop.

use crate::objective::ModelMemo;
use crate::traffic::Trace;
use fusemax_arch::ArchConfig;
use fusemax_dse::{DesignPoint, SchedulerPolicy};
use fusemax_model::{e2e_report_on, ConfigKind, ModelParams};
use fusemax_workloads::TransformerConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Phase service times for one `(configuration, architecture, workload)`
/// design, precomputed for a trace's length set.
#[derive(Debug)]
pub struct ServiceTimeTable {
    kind: ConfigKind,
    arch: ArchConfig,
    /// The served model at `batch = 1` (per-request service costs; the
    /// scheduler decides how many requests share the chip).
    workload: TransformerConfig,
    params: ModelParams,
    prefill_s: BTreeMap<usize, f64>,
    /// Per-token decode seconds by power-of-two bucket, indexed by the
    /// bucket's exponent (`trailing_zeros`); `None` outside the range the
    /// trace decodes in.
    decode_s_per_token: Vec<Option<f64>>,
    /// Analytical-model calls spent building the table (for a memoized
    /// build: the results it drew, computed or not).
    model_evaluations: usize,
    /// Lookups that fell outside the precomputed set and paid for an
    /// on-demand model call (zero for any trace the table was built for).
    misses: AtomicU64,
}

impl ServiceTimeTable {
    /// Builds the table for `trace` replayed on the given design: one
    /// prefill entry per distinct prompt length, one decode entry per
    /// power-of-two context bucket across the trace's decode-context
    /// range.
    pub fn build(
        kind: ConfigKind,
        arch: ArchConfig,
        workload: &TransformerConfig,
        params: ModelParams,
        trace: &Trace,
    ) -> Self {
        Self::build_from(kind, arch, workload, params, trace, None, Self::e2e_seconds)
    }

    /// Builds the table for `trace` replayed under `policy`: exactly
    /// [`ServiceTimeTable::build`], plus — when the policy chunks prefill —
    /// one entry per chunk boundary (`k · chunk_tokens` below each distinct
    /// prompt length), so [`ServiceTimeTable::prefill_chunk_seconds`]
    /// lookups during a chunked replay never miss. Under a whole-prompt
    /// policy the table is identical to the plain build.
    pub fn build_with_policy(
        kind: ConfigKind,
        arch: ArchConfig,
        workload: &TransformerConfig,
        params: ModelParams,
        trace: &Trace,
        policy: &SchedulerPolicy,
    ) -> Self {
        Self::build_from(
            kind,
            arch,
            workload,
            params,
            trace,
            policy.chunk_tokens,
            Self::e2e_seconds,
        )
    }

    /// [`ServiceTimeTable::build_with_policy`] for `point`'s chip and
    /// scheduler policy, with every `e2e(L)` drawn from `memo`, which
    /// must hold results for `params` only. The values are the ones a
    /// direct build computes, bit for bit: a memo miss runs the same
    /// function on the same inputs.
    pub(crate) fn build_memoized(
        point: &DesignPoint,
        params: &ModelParams,
        trace: &Trace,
        memo: &ModelMemo,
    ) -> Self {
        let chip = memo.chip(point);
        Self::build_from(
            point.kind,
            point.arch.clone(),
            &point.workload,
            params.clone(),
            trace,
            point.policy.chunk_tokens,
            |table, l| chip.get_or_compute(l, || table.e2e_seconds(l)),
        )
    }

    /// The one builder: evaluates `e2e(L)` through `e2e` at every distinct
    /// prompt length, every power-of-two decode bucket, and — when
    /// `chunk_tokens` is set — every chunk boundary below a prompt that is
    /// not a prompt itself.
    fn build_from(
        kind: ConfigKind,
        arch: ArchConfig,
        workload: &TransformerConfig,
        params: ModelParams,
        trace: &Trace,
        chunk_tokens: Option<usize>,
        e2e: impl Fn(&Self, usize) -> f64,
    ) -> Self {
        let workload = workload.with_batch(1);
        let mut table = ServiceTimeTable {
            kind,
            arch,
            workload,
            params,
            prefill_s: BTreeMap::new(),
            decode_s_per_token: Vec::new(),
            model_evaluations: 0,
            misses: AtomicU64::new(0),
        };

        // Distinct prompt lengths, sorted for deterministic build order.
        let prompts: BTreeSet<usize> = trace.requests.iter().map(|r| r.prompt_tokens).collect();
        // Only requests with ≥ 2 output tokens ever decode (prefill covers
        // the first token), at contexts `prompt + 1 ..= prompt + output - 1`
        // — so precompute exactly the power-of-two buckets that span that
        // range, not every octave from 1.
        let decode_range = trace
            .requests
            .iter()
            .filter(|r| r.output_tokens >= 2)
            .map(|r| (r.prompt_tokens + 1, r.prompt_tokens + r.output_tokens - 1))
            .fold(None::<(usize, usize)>, |acc, (lo, hi)| match acc {
                None => Some((lo, hi)),
                Some((alo, ahi)) => Some((alo.min(lo), ahi.max(hi))),
            });

        for &prompt in &prompts {
            let s = e2e(&table, prompt);
            table.model_evaluations += 1;
            table.prefill_s.insert(prompt, s);
        }
        if let Some((lo, hi)) = decode_range {
            let top = hi.max(1).next_power_of_two();
            let mut bucket = lo.max(1).next_power_of_two();
            table.decode_s_per_token = vec![None; top.trailing_zeros() as usize + 1];
            loop {
                let s = e2e(&table, bucket) / bucket as f64;
                table.model_evaluations += 1;
                table.decode_s_per_token[bucket.trailing_zeros() as usize] = Some(s);
                if bucket >= top {
                    break;
                }
                bucket *= 2;
            }
        }
        if let Some(chunk) = chunk_tokens {
            let mut boundaries: BTreeSet<usize> = BTreeSet::new();
            for r in &trace.requests {
                let mut b = chunk;
                while b < r.prompt_tokens {
                    boundaries.insert(b);
                    b += chunk;
                }
            }
            for &b in &boundaries {
                if !table.prefill_s.contains_key(&b) {
                    let s = e2e(&table, b);
                    table.model_evaluations += 1;
                    table.prefill_s.insert(b, s);
                }
            }
        }
        table
    }

    /// Full-model seconds to run one request end to end at sequence
    /// length `l` on this design — the single analytical-model entry
    /// point behind both phases.
    fn e2e_seconds(&self, l: usize) -> f64 {
        let report = e2e_report_on(self.kind, &self.workload, l, &self.arch, &self.params);
        self.arch.cycles_to_seconds(report.cycles)
    }

    /// Seconds to prefill a `prompt`-token request. Precomputed lengths
    /// are a lookup; anything else falls back to an on-demand model call
    /// and bumps [`ServiceTimeTable::misses`].
    pub fn prefill_seconds(&self, prompt: usize) -> f64 {
        match self.prefill_s.get(&prompt) {
            Some(&s) => s,
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.e2e_seconds(prompt)
            }
        }
    }

    /// Seconds to run one prefill chunk covering prompt tokens
    /// `[from, upto)` of a request: the marginal cost
    /// `e2e(upto) − e2e(from)`, with `e2e(0) = 0` — so a whole prompt
    /// prefilled in one chunk charges exactly
    /// [`ServiceTimeTable::prefill_seconds`] of the full prompt, which is
    /// what keeps whole-prompt chunked replays bit-identical to the
    /// unchunked engine. Boundaries a policy-aware build
    /// ([`ServiceTimeTable::build_with_policy`]) precomputed are lookups;
    /// anything else pays an on-demand model call per missing endpoint.
    pub fn prefill_chunk_seconds(&self, from: usize, upto: usize) -> f64 {
        if from == 0 {
            self.prefill_seconds(upto)
        } else {
            self.prefill_seconds(upto) - self.prefill_seconds(from)
        }
    }

    /// Seconds to decode one token at context length `context`, amortized
    /// from the analytical report (`e2e(L) / L` per token) at the next
    /// power-of-two bucket. Precomputed buckets are a direct index by the
    /// bucket's exponent; anything else falls back to an on-demand model
    /// call and bumps [`ServiceTimeTable::misses`].
    pub fn decode_seconds(&self, context: usize) -> f64 {
        let bucket = context.max(1).next_power_of_two();
        match self.decode_s_per_token.get(bucket.trailing_zeros() as usize) {
            Some(&Some(s)) => s,
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.e2e_seconds(bucket) / bucket as f64
            }
        }
    }

    /// Analytical-model calls spent at build time (distinct prompt
    /// lengths + power-of-two decode buckets).
    pub fn model_evaluations(&self) -> usize {
        self.model_evaluations
    }

    /// Lookups since construction that fell outside the precomputed set
    /// and ran the model on demand. Zero when the table serves the trace
    /// it was built for — the assertion that the iteration loop performs
    /// no `e2e_report_on` calls.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{Arrivals, LengthMix, TrafficSpec};
    use fusemax_dse::{DesignSpace, FleetSpec};

    fn trace() -> Trace {
        TrafficSpec {
            arrivals: Arrivals::Poisson { rate_per_s: 100.0 },
            prompt_mix: LengthMix::new([(300, 2.0), (1024, 1.0)]),
            output_mix: LengthMix::uniform([4, 16]),
            requests: 30,
        }
        .generate(3)
    }

    fn table_for(t: &Trace) -> ServiceTimeTable {
        let kind = ConfigKind::FuseMaxBinding;
        ServiceTimeTable::build(
            kind,
            kind.default_arch(),
            &TransformerConfig::bert(),
            ModelParams::default(),
            t,
        )
    }

    #[test]
    fn covers_every_trace_length_without_misses() {
        let t = trace();
        let table = table_for(&t);
        assert!(table.model_evaluations() > 0);
        // Mirror the engine exactly: every request prefills at its prompt
        // length; requests with ≥ 2 output tokens decode at contexts
        // prompt + 1 ..= prompt + output - 1.
        for r in &t.requests {
            let _ = table.prefill_seconds(r.prompt_tokens);
            if r.output_tokens >= 2 {
                for ctx in r.prompt_tokens + 1..r.prompt_tokens + r.output_tokens {
                    let _ = table.decode_seconds(ctx);
                }
            }
        }
        assert_eq!(table.misses(), 0, "a built table must cover its trace");
    }

    #[test]
    fn build_cost_spans_only_the_decode_range_plus_distinct_prompts() {
        let t = trace();
        let table = table_for(&t);
        let distinct_prompts = 2; // 300 and 1024 by construction
        let (lo, hi) = t
            .requests
            .iter()
            .filter(|r| r.output_tokens >= 2)
            .map(|r| (r.prompt_tokens + 1, r.prompt_tokens + r.output_tokens - 1))
            .fold((usize::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
        let first = lo.next_power_of_two().trailing_zeros();
        let last = hi.next_power_of_two().trailing_zeros();
        let buckets = (last - first + 1) as usize;
        assert_eq!(table.model_evaluations(), distinct_prompts + buckets);
        // No octave below the smallest decodable context was paid for:
        // prompts are ≥ 300, so buckets 1..=256 must be absent.
        assert!(first >= 9, "decode buckets start at 512 for ≥300-token prompts");
    }

    #[test]
    fn fallback_misses_are_counted_and_bit_identical() {
        let t = trace();
        let table = table_for(&t);
        // A length outside the trace: the fallback computes the same
        // value a covering table would hold.
        let outside = 77_777usize;
        let a = table.prefill_seconds(outside);
        let b = table.prefill_seconds(outside);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(table.misses(), 2);
        let huge_ctx = 1 << 21;
        let _ = table.decode_seconds(huge_ctx);
        assert_eq!(table.misses(), 3);
    }

    #[test]
    fn empty_traces_build_empty_tables() {
        let table = table_for(&Trace::default());
        assert_eq!(table.model_evaluations(), 0);
        assert_eq!(table.misses(), 0);
    }

    #[test]
    fn policy_builds_add_only_chunk_boundaries() {
        let t = trace();
        let kind = ConfigKind::FuseMaxBinding;
        let build = |policy: &SchedulerPolicy| {
            ServiceTimeTable::build_with_policy(
                kind,
                kind.default_arch(),
                &TransformerConfig::bert(),
                ModelParams::default(),
                &t,
                policy,
            )
        };
        let plain = table_for(&t);
        // A whole-prompt policy build is the plain build.
        let unbounded = build(&SchedulerPolicy::unbounded());
        assert_eq!(unbounded.model_evaluations(), plain.model_evaluations());
        // Prompts are 300 and 1024; a 256-token chunk adds boundaries
        // 256 (both) and 512, 768 (1024 only) — three new entries.
        let chunked = build(&SchedulerPolicy::chunked(256));
        assert_eq!(chunked.model_evaluations(), plain.model_evaluations() + 3);
        // Chunk costs telescope to the exact whole-prompt cost.
        let total = chunked.prefill_chunk_seconds(0, 256) + chunked.prefill_chunk_seconds(256, 300);
        let direct = chunked.prefill_seconds(300);
        assert!((total - direct).abs() < direct * 1e-9);
        assert_eq!(chunked.misses(), 0);
        // And a single chunk covering the whole prompt IS the whole-prompt
        // cost, bit for bit.
        assert_eq!(
            chunked.prefill_chunk_seconds(0, 1024).to_bits(),
            chunked.prefill_seconds(1024).to_bits()
        );
    }

    /// A table's entries with their values as bit patterns.
    fn bits(table: &ServiceTimeTable) -> (Vec<(usize, u64)>, Vec<Option<u64>>) {
        (
            table.prefill_s.iter().map(|(&l, s)| (l, s.to_bits())).collect(),
            table.decode_s_per_token.iter().map(|s| s.map(f64::to_bits)).collect(),
        )
    }

    /// The lengths a table evaluated the model at: its prefill entries and
    /// decode buckets (a prompt may also be a bucket).
    fn lengths(table: &ServiceTimeTable) -> BTreeSet<usize> {
        let decode = table.decode_s_per_token.iter().enumerate();
        let buckets = decode.filter(|(_, s)| s.is_some()).map(|(i, _)| 1usize << i);
        table.prefill_s.keys().copied().chain(buckets).collect()
    }

    #[test]
    fn memoized_builds_match_direct_builds_and_compute_each_length_once() {
        let t = trace();
        let params = ModelParams::default();
        let memo = ModelMemo::default();
        let mut point = DesignSpace::new()
            .with_array_dims([128])
            .with_workloads([TransformerConfig::bert()])
            .points()
            .remove(0);
        let mut seen = BTreeSet::new();
        for policy in [
            SchedulerPolicy::unbounded(),
            SchedulerPolicy::chunked(256),
            SchedulerPolicy::chunked(100),
        ] {
            point.policy = policy;
            let direct = ServiceTimeTable::build_with_policy(
                point.kind,
                point.arch.clone(),
                &point.workload,
                params.clone(),
                &t,
                &policy,
            );
            let memoized = ServiceTimeTable::build_memoized(&point, &params, &t, &memo);
            assert_eq!(bits(&memoized), bits(&direct), "{policy}");
            assert_eq!(memoized.model_evaluations(), direct.model_evaluations());
            seen.extend(lengths(&direct));
        }
        assert_eq!(memo.computed(), seen.len());

        // The sequence length and fleet are not part of the chip.
        point.seq_len = 4096;
        point.fleet = FleetSpec::replicated(2);
        let _ = ServiceTimeTable::build_memoized(&point, &params, &t, &memo);
        assert_eq!(memo.computed(), seen.len());
        // Another chip computes its own.
        let other = DesignSpace::new()
            .with_array_dims([64])
            .with_workloads([TransformerConfig::bert()])
            .points()
            .remove(0);
        let table = ServiceTimeTable::build_memoized(&other, &params, &t, &memo);
        assert_eq!(memo.computed(), seen.len() + lengths(&table).len());
    }
}
