//! The DSE bridge: score designs by served-traffic merit under an SLA —
//! **inside** the search loop (as a [`fusemax_dse::Objective`]) or as a
//! post-hoc re-ranking of a finished sweep ([`ServeObjective::rank`]).
//!
//! Fixed-sequence-length latency ranking always crowns the biggest chip.
//! Under real traffic the question changes: once a design keeps up with
//! the offered load inside the SLA, extra silicon buys nothing — so the
//! serving-aware merit is **SLA-feasible goodput per total cm²** of
//! fleet silicon, and the winner is typically a smaller chip (or a fleet
//! of them) rather than the latency winner. Designs that miss the SLA
//! rank below every design that meets it, ordered by how badly they miss
//! (p99 TTFT).
//!
//! Scoring is fleet-aware: a design point whose fleet axis is not the
//! singleton is served by [`crate::Fleet`] (replicated or disaggregated),
//! and its [`Evaluation::area_cm2`] already accounts for every chip — so
//! "goodput per cm²" compares one big chip against N small ones at equal
//! silicon, which is exactly the trade the fleet axis searches.

use crate::fault::FaultSpec;
use crate::fleet::{Fleet, FleetReport};
use crate::report::ServeReport;
use crate::sim::ServeSim;
use crate::table::ServiceTimeTable;
use crate::traffic::Trace;
use fusemax_dse::{
    DesignPoint, Evaluation, FleetSpec, MeritScore, Objective, PointKey, SchedulerPolicy,
};
use fusemax_model::ModelParams;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A serving-latency service-level agreement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sla {
    /// Ceiling on 99th-percentile time to first token, in seconds.
    pub p99_ttft_s: f64,
}

impl Sla {
    /// An SLA bounding p99 TTFT.
    pub fn p99_ttft(seconds: f64) -> Self {
        Sla { p99_ttft_s: seconds }
    }

    /// `true` when `report` satisfies every bound.
    pub fn met_by(&self, report: &ServeReport) -> bool {
        report.ttft.p99 <= self.p99_ttft_s
    }
}

/// How a multi-scenario (fault-aware) objective folds per-scenario
/// merits into one ranking value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioRanking {
    /// Rank by the *minimum* scenario merit — the design is only as good
    /// as its worst failure. This is the availability-first choice: it
    /// rewards redundancy (an N+1 fleet keeps serving through any single
    /// failure) over raw fault-free efficiency.
    WorstCase,
    /// Rank by the *mean* scenario merit — each scenario weighted
    /// equally, trading some worst-case protection for average goodput.
    Expected,
}

/// One design's serving score under a [`ServeObjective`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScore {
    /// Whether the SLA held over the whole trace.
    pub meets_sla: bool,
    /// Completed requests per second per cm² of **total fleet silicon**
    /// — the serving-cost merit used to rank SLA-feasible designs.
    pub goodput_per_cm2: f64,
    /// The full (fleet-level, when the point's fleet axis is not the
    /// singleton) simulation report behind the score.
    pub report: ServeReport,
}

/// Scores design points by simulating a traffic trace against them.
///
/// Two modes of use:
///
/// * **In the loop** — hand it to the sweeper
///   ([`fusemax_dse::Sweeper::with_objective`]) and every search
///   strategy optimizes SLA-feasible goodput per cm² *while it
///   searches*, with the fleet axis searchable like any other. Scores
///   are memoized per design point, so a point revisited across
///   generations pays the trace replay once.
/// * **Post hoc** — [`ServeObjective::rank`] re-ranks a finished sweep's
///   evaluations, best server first.
///
/// # Two memos
///
/// * The **score memo**, keyed by the whole design point, serves
///   in-loop revisits ([`Objective::score`],
///   [`ServeObjective::score_detailed`]).
/// * The **model memo** holds the analytical-model results behind every
///   scoring's service-time table, keyed by chip and sequence length: a
///   scoring builds one table, shared by all of its fault scenarios, and
///   each `(chip, L)` is computed once per objective however many
///   policies, fleets, scenarios and threads need it
///   ([`ServeObjective::model_calls`] counts them). It only ever holds
///   results for the objective's own [`ModelParams`]: a scoring under
///   other `params` builds its table directly and leaves the memo alone.
///
/// Both start empty. [`ServeObjective::with_params`] empties both and
/// [`ServeObjective::with_fault_scenarios`] empties the score memo (model
/// results do not depend on the scenarios). `Clone` copies both into
/// memos of the copy's own: the copy starts as warm as the original, and
/// neither sees the other's later work.
///
/// # Example
///
/// ```
/// use fusemax_model::ModelParams;
/// use fusemax_serve::{Arrivals, LengthMix, ServeObjective, Sla, TrafficSpec};
///
/// let trace = TrafficSpec {
///     arrivals: Arrivals::Poisson { rate_per_s: 20.0 },
///     prompt_mix: LengthMix::fixed(512),
///     output_mix: LengthMix::fixed(8),
///     requests: 30,
/// }
/// .generate(5);
/// let objective = ServeObjective::new(trace, Sla::p99_ttft(0.5));
///
/// let space = fusemax_dse::DesignSpace::new()
///     .with_workloads([fusemax_workloads::TransformerConfig::bert()]);
/// let outcome = fusemax_dse::Sweeper::new(ModelParams::default()).sweep(&space);
/// let ranked = objective.rank(&outcome.evaluations, &ModelParams::default());
/// assert_eq!(ranked.len(), outcome.evaluations.len());
/// ```
#[derive(Debug)]
pub struct ServeObjective {
    trace: Trace,
    sla: Sla,
    params: ModelParams,
    parallel: bool,
    // Availability-aware mode: when non-empty, every design is scored
    // across all of these seeded fault scenarios (include FaultSpec::none
    // for the fault-free baseline) and ranked per `ranking`.
    scenarios: Vec<FaultSpec>,
    ranking: ScenarioRanking,
    name: String,
    // Trace replays are pure per design point, so in-loop scoring keeps
    // a memo: genetic/annealing walkers revisit points freely without
    // paying the simulation twice.
    memo: Mutex<HashMap<PointKey, ServeScore>>,
    // `e2e(L)` results under `params`, shared by every scoring's table.
    model: ModelMemo,
}

impl Clone for ServeObjective {
    fn clone(&self) -> Self {
        ServeObjective {
            trace: self.trace.clone(),
            sla: self.sla,
            params: self.params.clone(),
            parallel: self.parallel,
            scenarios: self.scenarios.clone(),
            ranking: self.ranking,
            name: self.name.clone(),
            memo: Mutex::new(self.memo.lock().expect("serve objective memo poisoned").clone()),
            model: self.model.clone(),
        }
    }
}

impl ServeObjective {
    /// An objective serving `trace` under `sla`. In-loop scoring uses
    /// [`ModelParams::default`] unless overridden with
    /// [`ServeObjective::with_params`]; ranking simulates the frontier
    /// designs on all cores by default
    /// ([`ServeObjective::with_parallelism`]).
    pub fn new(trace: Trace, sla: Sla) -> Self {
        ServeObjective {
            trace,
            sla,
            params: ModelParams::default(),
            parallel: true,
            scenarios: Vec::new(),
            ranking: ScenarioRanking::WorstCase,
            name: "sla-goodput-per-cm2".to_string(),
            memo: Mutex::new(HashMap::new()),
            model: ModelMemo::default(),
        }
    }

    /// Switches the objective into **availability-aware** mode: every
    /// design is replayed once per scenario in `scenarios` (include
    /// [`FaultSpec::none`] to keep the fault-free baseline in the set)
    /// and scored by the `ranking` fold over per-scenario merits.
    ///
    /// Per scenario, the merit is completions per second per cm² over a
    /// **common horizon** — `makespan.max(trace end)` — so a design that
    /// sheds its queue early cannot inflate goodput by finishing sooner,
    /// and a design is only SLA-feasible when it meets the SLA under
    /// *every* scenario. Replays stay deterministic: scenarios are
    /// scored in order by pure simulations, so parallel and serial
    /// ranking remain bit-identical.
    ///
    /// Passing an empty `scenarios` restores the fault-free objective
    /// exactly.
    pub fn with_fault_scenarios(
        mut self,
        scenarios: impl IntoIterator<Item = FaultSpec>,
        ranking: ScenarioRanking,
    ) -> Self {
        self.scenarios = scenarios.into_iter().collect();
        self.ranking = ranking;
        self.name = if self.scenarios.is_empty() {
            "sla-goodput-per-cm2".to_string()
        } else {
            match ranking {
                ScenarioRanking::WorstCase => "worst-case-sla-goodput-per-cm2".to_string(),
                ScenarioRanking::Expected => "expected-sla-goodput-per-cm2".to_string(),
            }
        };
        self.memo.lock().expect("serve objective memo poisoned").clear();
        self
    }

    /// The fault scenarios scoring replays (empty in fault-free mode).
    pub fn scenarios(&self) -> &[FaultSpec] {
        &self.scenarios
    }

    /// How per-scenario merits fold into the ranking value (only
    /// meaningful when [`ServeObjective::scenarios`] is non-empty).
    pub fn ranking(&self) -> ScenarioRanking {
        self.ranking
    }

    /// Sets the model parameters in-loop scoring simulates with — match
    /// them to the sweeper's so the serving merit and the latency
    /// numbers describe the same hardware. Empties both memos: scores and
    /// model results computed under the old parameters no longer hold.
    pub fn with_params(mut self, params: ModelParams) -> Self {
        self.params = params;
        self.memo.lock().expect("serve objective memo poisoned").clear();
        self.model = ModelMemo::default();
        self
    }

    /// Switches between parallel (`true`, the default) and serial
    /// per-design simulation in [`ServeObjective::rank`]. Results are
    /// bit-identical either way — each design's replay is an independent
    /// pure function, and the collected order is the input order — so the
    /// switch only trades wall-clock time (it exists so the parity bench
    /// can time both paths).
    pub fn with_parallelism(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// The trace driving the simulations.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The SLA scoring is judged against.
    pub fn sla(&self) -> Sla {
        self.sla
    }

    /// Distinct analytical-model results (`e2e_report_on` calls) this
    /// objective has computed for its service-time tables: one per
    /// `(chip, sequence length)`, whatever policies, fleets, fault
    /// scenarios and threads asked for it. Scorings under other `params`
    /// than the objective's own add nothing.
    pub fn model_calls(&self) -> usize {
        self.model.computed()
    }

    /// Simulates the trace on `point` — through [`Fleet`], so the
    /// point's fleet axis (replicas, router, disaggregation) is honored
    /// — and scores the outcome. `area_cm2` is the design's **total**
    /// silicon ([`Evaluation::area_cm2`] for swept points).
    ///
    /// The scoring builds one service-time table and replays every fault
    /// scenario on it. Under the objective's own parameters the table's
    /// model results come from the model memo; under any other `params`
    /// the table is built directly.
    pub fn score_point(
        &self,
        point: &DesignPoint,
        area_cm2: f64,
        params: &ModelParams,
    ) -> ServeScore {
        // The fleet validates the point's policy before any table is built.
        let fleet = Fleet::for_point(point, params);
        let table = if *params == self.params {
            ServiceTimeTable::build_memoized(point, params, &self.trace, &self.model)
        } else {
            ServeSim::for_point(point, params).service_times(&self.trace)
        };
        if self.scenarios.is_empty() {
            let report = fleet.run_detailed_with(&table, &self.trace).merged;
            return ServeScore {
                meets_sla: self.sla.met_by(&report),
                goodput_per_cm2: if area_cm2 > 0.0 { report.goodput_rps / area_cm2 } else { 0.0 },
                report,
            };
        }
        // Availability-aware: replay every scenario, fold per `ranking`.
        // Two guards keep the merit honest under failure:
        //
        // * goodput normalizes by the design's WORST makespan across all
        //   scenarios (floored at the trace horizon) — a design that
        //   fail-stops early completes less work but cannot stop the
        //   clock, so shedding the queue only lowers its merit;
        // * a shed request never sees a first token, so it counts as an
        //   infinite TTFT sample against the p99 bound: shedding more
        //   than 1% of the offered requests makes the p99 infinite and
        //   the scenario SLA-infeasible (no survivorship bias).
        let detailed: Vec<FleetReport> = self
            .scenarios
            .iter()
            .map(|spec| {
                fleet.clone().with_faults(spec.clone()).run_detailed_with(&table, &self.trace)
            })
            .collect();
        let denom = detailed
            .iter()
            .map(|d| d.merged.makespan_s)
            .fold(self.trace.last_arrival_s(), f64::max)
            .max(1e-12);
        let all_meet = detailed.iter().all(|d| {
            let offered = d.merged.completed + d.faults.shed;
            self.sla.met_by(&d.merged) && d.faults.shed * 100 <= offered
        });
        let mut worst: Option<(f64, ServeReport)> = None;
        let mut sum = 0.0;
        for d in detailed {
            let report = d.merged;
            let merit =
                if area_cm2 > 0.0 { report.completed as f64 / denom / area_cm2 } else { 0.0 };
            sum += merit;
            if worst.as_ref().is_none_or(|(m, _)| merit < *m) {
                worst = Some((merit, report));
            }
        }
        let (worst_merit, worst_report) = worst.expect("scenario list checked non-empty");
        ServeScore {
            meets_sla: all_meet,
            goodput_per_cm2: match self.ranking {
                ScenarioRanking::WorstCase => worst_merit,
                ScenarioRanking::Expected => sum / self.scenarios.len() as f64,
            },
            // The report behind the score is the worst scenario's — the
            // one the WorstCase ranking is judged by, and the honest
            // "what does failure look like" answer under Expected too.
            report: worst_report,
        }
    }

    /// The full serving score behind [`Objective::score`] for one
    /// evaluation, memoized per design point (using the objective's own
    /// [`ServeObjective::with_params`] parameters).
    pub fn score_detailed(&self, evaluation: &Evaluation) -> ServeScore {
        let key = PointKey::of(&evaluation.point);
        if let Some(hit) = self.memo.lock().expect("serve objective memo poisoned").get(&key) {
            return hit.clone();
        }
        let score = self.score_point(&evaluation.point, evaluation.area_cm2, &self.params);
        self.memo.lock().expect("serve objective memo poisoned").entry(key).or_insert(score).clone()
    }

    /// Scores `evaluations` and returns them **best first** by
    /// served-traffic merit: SLA-meeting designs ahead of SLA-missing
    /// ones; within the feasible set, highest goodput per total area
    /// first; within the infeasible set, lowest p99 TTFT first. Ties
    /// break by smaller area, then arrival order — fully deterministic.
    ///
    /// Ranking compares serving behavior, which is only meaningful for
    /// designs serving the *same* workload — pass one
    /// `(workload, seq_len)` group at a time (e.g. one
    /// [`fusemax_dse::FrontierGroup`]'s points), exactly as with the
    /// sweeper's latency objectives.
    pub fn rank(
        &self,
        evaluations: &[Arc<Evaluation>],
        params: &ModelParams,
    ) -> Vec<(Arc<Evaluation>, ServeScore)> {
        // Each design's replay is independent (its own table and report;
        // a shared model result is computed once, by whichever thread asks
        // first), so the frontier fans out across cores; the
        // order-preserving collect keeps scoring deterministic.
        let score = |e: &Arc<Evaluation>| self.score_point(&e.point, e.area_cm2, params);
        let mut scored: Vec<(Arc<Evaluation>, ServeScore)> =
            if self.parallel && evaluations.len() > 1 {
                evaluations.par_iter().map(|e| (Arc::clone(e), score(e))).collect()
            } else {
                evaluations.iter().map(|e| (Arc::clone(e), score(e))).collect()
            };
        scored.sort_by(|(ea, sa), (eb, sb)| {
            sb.meets_sla
                .cmp(&sa.meets_sla)
                .then_with(|| {
                    if sa.meets_sla && sb.meets_sla {
                        sb.goodput_per_cm2.total_cmp(&sa.goodput_per_cm2)
                    } else {
                        sa.report.ttft.p99.total_cmp(&sb.report.ttft.p99)
                    }
                })
                .then_with(|| ea.area_cm2.total_cmp(&eb.area_cm2))
        });
        scored
    }
}

impl Objective for ServeObjective {
    fn name(&self) -> &str {
        &self.name
    }

    /// SLA-feasible designs carry their goodput per total cm² as merit
    /// (folded across fault scenarios per [`ScenarioRanking`] when the
    /// objective is availability-aware); infeasible ones carry
    /// `-p99 TTFT`, so "less infeasible" still compares greater and the
    /// search can climb toward feasibility.
    fn score(&self, evaluation: &Evaluation) -> MeritScore {
        let score = self.score_detailed(evaluation);
        MeritScore {
            feasible: score.meets_sla,
            merit: if score.meets_sla { score.goodput_per_cm2 } else { -score.report.ttft.p99 },
        }
    }
}

/// One chip's `e2e(L)` seconds: a once-cell per sequence length, so a
/// length is computed by whichever scoring asks first and every other
/// scoring — on any thread — waits for that one result.
#[derive(Debug, Default)]
pub(crate) struct ChipResults(Mutex<HashMap<usize, Arc<OnceLock<f64>>>>);

impl ChipResults {
    /// `e2e(l)` for this chip, running `compute` only on the first
    /// request for `l`.
    pub(crate) fn get_or_compute(&self, l: usize, compute: impl FnOnce() -> f64) -> f64 {
        let cell = Arc::clone(self.0.lock().expect("model memo poisoned").entry(l).or_default());
        *cell.get_or_init(compute)
    }

    /// Lengths whose result has been computed.
    fn computed(&self) -> usize {
        self.0.lock().expect("model memo poisoned").values().filter(|c| c.get().is_some()).count()
    }
}

impl Clone for ChipResults {
    fn clone(&self) -> Self {
        let cells = self.0.lock().expect("model memo poisoned");
        ChipResults(Mutex::new(cells.iter().map(|(&l, c)| (l, Arc::new((**c).clone()))).collect()))
    }
}

/// Analytical-model results for the tables of one [`ServeObjective`]:
/// `e2e(L)` seconds keyed by chip and sequence length, each computed at
/// most once however many scorings, threads and fault scenarios need it.
/// A chip is the point minus everything the model never sees — its
/// sequence length (a table evaluates the trace's own lengths), scheduler
/// policy (chunk boundaries are just more lengths) and fleet. The memo
/// holds one [`ModelParams`]' results; the objective keeps it away from
/// every other parameterization.
///
/// `Clone` is a snapshot: the copy holds the results computed so far in
/// cells of its own, so neither side sees the other's later work.
#[derive(Debug, Default)]
pub(crate) struct ModelMemo {
    chips: Mutex<HashMap<PointKey, Arc<ChipResults>>>,
}

impl ModelMemo {
    /// The results of `point`'s chip.
    pub(crate) fn chip(&self, point: &DesignPoint) -> Arc<ChipResults> {
        let chip = DesignPoint {
            seq_len: 0,
            policy: SchedulerPolicy::default(),
            fleet: FleetSpec::default(),
            ..point.clone()
        };
        let mut chips = self.chips.lock().expect("model memo poisoned");
        Arc::clone(chips.entry(PointKey::of(&chip)).or_default())
    }

    /// Model results computed so far, over every chip.
    pub(crate) fn computed(&self) -> usize {
        self.chips.lock().expect("model memo poisoned").values().map(|c| c.computed()).sum()
    }
}

impl Clone for ModelMemo {
    fn clone(&self) -> Self {
        let chips = self.chips.lock().expect("model memo poisoned");
        ModelMemo {
            chips: Mutex::new(
                chips.iter().map(|(k, c)| (*k, Arc::new(ChipResults::clone(c)))).collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{Arrivals, LengthMix, TrafficSpec};
    use fusemax_dse::{DesignSpace, QueueOrder, Sweeper};
    use fusemax_workloads::TransformerConfig;
    use std::collections::BTreeSet;

    fn trace(rate: f64, requests: usize) -> Trace {
        TrafficSpec {
            arrivals: Arrivals::Poisson { rate_per_s: rate },
            prompt_mix: LengthMix::new([(256, 3.0), (2048, 1.0)]),
            output_mix: LengthMix::uniform([8, 32]),
            requests,
        }
        .generate(17)
    }

    #[test]
    fn sla_partition_orders_the_ranking() {
        let space = DesignSpace::new()
            .with_array_dims([32, 128, 512])
            .with_workloads([TransformerConfig::bert()]);
        let params = ModelParams::default();
        let outcome = Sweeper::new(params.clone()).sweep(&space);
        let objective = ServeObjective::new(trace(30.0, 25), Sla::p99_ttft(0.25));
        let ranked = objective.rank(&outcome.evaluations, &params);
        assert_eq!(ranked.len(), 3);
        // Once an SLA-missing design appears, no feasible design follows.
        let mut seen_infeasible = false;
        for (_, score) in &ranked {
            if !score.meets_sla {
                seen_infeasible = true;
            } else {
                assert!(!seen_infeasible, "feasible design ranked below an infeasible one");
            }
        }
    }

    #[test]
    fn ranking_is_deterministic() {
        let space =
            DesignSpace::new().with_array_dims([64, 256]).with_workloads([TransformerConfig::t5()]);
        let params = ModelParams::default();
        let outcome = Sweeper::new(params.clone()).sweep(&space);
        let objective = ServeObjective::new(trace(50.0, 20), Sla::p99_ttft(0.5));
        let a = objective.rank(&outcome.evaluations, &params);
        let b = objective.rank(&outcome.evaluations, &params);
        for ((ea, sa), (eb, sb)) in a.iter().zip(&b) {
            assert_eq!(ea.point, eb.point);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn an_impossible_sla_ranks_by_tail_latency() {
        let space = DesignSpace::new()
            .with_array_dims([64, 256])
            .with_workloads([TransformerConfig::bert()]);
        let params = ModelParams::default();
        let outcome = Sweeper::new(params.clone()).sweep(&space);
        let objective = ServeObjective::new(trace(50.0, 20), Sla::p99_ttft(1e-12));
        let ranked = objective.rank(&outcome.evaluations, &params);
        assert!(ranked.iter().all(|(_, s)| !s.meets_sla));
        for w in ranked.windows(2) {
            assert!(w[0].1.report.ttft.p99 <= w[1].1.report.ttft.p99);
        }
    }

    #[test]
    fn the_objective_trait_mirrors_the_detailed_score() {
        let space = DesignSpace::new()
            .with_array_dims([64, 256])
            .with_workloads([TransformerConfig::bert()]);
        let params = ModelParams::default();
        let outcome = Sweeper::new(params.clone()).sweep(&space);
        let objective =
            ServeObjective::new(trace(30.0, 20), Sla::p99_ttft(0.25)).with_params(params);
        for evaluation in &outcome.evaluations {
            let detail = objective.score_detailed(evaluation);
            let merit = Objective::score(&objective, evaluation);
            assert_eq!(merit.feasible, detail.meets_sla);
            if detail.meets_sla {
                assert_eq!(merit.merit, detail.goodput_per_cm2);
            } else {
                assert_eq!(merit.merit, -detail.report.ttft.p99);
            }
        }
    }

    #[test]
    fn in_loop_scores_are_memoized_per_point() {
        let space =
            DesignSpace::new().with_array_dims([128]).with_workloads([TransformerConfig::bert()]);
        let params = ModelParams::default();
        let outcome = Sweeper::new(params.clone()).sweep(&space);
        let objective =
            ServeObjective::new(trace(30.0, 15), Sla::p99_ttft(0.25)).with_params(params);
        let evaluation = &outcome.evaluations[0];
        let first = Objective::score(&objective, evaluation);
        let again = Objective::score(&objective, evaluation);
        assert_eq!(first, again);
        assert_eq!(objective.memo.lock().unwrap().len(), 1, "second score must hit the memo");
    }

    #[test]
    fn empty_scenarios_restore_the_fault_free_objective_exactly() {
        let space =
            DesignSpace::new().with_array_dims([128]).with_workloads([TransformerConfig::bert()]);
        let params = ModelParams::default();
        let outcome = Sweeper::new(params.clone()).sweep(&space);
        let legacy =
            ServeObjective::new(trace(30.0, 15), Sla::p99_ttft(0.25)).with_params(params.clone());
        let explicit = ServeObjective::new(trace(30.0, 15), Sla::p99_ttft(0.25))
            .with_params(params)
            .with_fault_scenarios([], ScenarioRanking::WorstCase);
        assert_eq!(Objective::name(&explicit), "sla-goodput-per-cm2");
        let a = legacy.score_detailed(&outcome.evaluations[0]);
        let b = explicit.score_detailed(&outcome.evaluations[0]);
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_scoring_is_deterministic_and_named_by_ranking() {
        let space =
            DesignSpace::new().with_array_dims([128]).with_workloads([TransformerConfig::bert()]);
        let params = ModelParams::default();
        let outcome = Sweeper::new(params.clone()).sweep(&space);
        let t = trace(200.0, 25);
        let kill = FaultSpec::single_failure(0.5 * t.last_arrival_s(), 1);
        let scenarios = vec![FaultSpec::none(), kill];

        let worst = ServeObjective::new(t.clone(), Sla::p99_ttft(0.25))
            .with_params(params.clone())
            .with_fault_scenarios(scenarios.clone(), ScenarioRanking::WorstCase);
        assert_eq!(Objective::name(&worst), "worst-case-sla-goodput-per-cm2");
        let expected = ServeObjective::new(t, Sla::p99_ttft(0.25))
            .with_params(params)
            .with_fault_scenarios(scenarios, ScenarioRanking::Expected);
        assert_eq!(Objective::name(&expected), "expected-sla-goodput-per-cm2");

        let mut fleet_eval = (*outcome.evaluations[0]).clone();
        fleet_eval.point.fleet = FleetSpec::replicated(2);
        fleet_eval.area_cm2 = outcome.evaluations[0].area_cm2 * 2.0;

        let defaults = ModelParams::default();
        let w1 = worst.score_point(&fleet_eval.point, fleet_eval.area_cm2, &defaults);
        let w2 = worst.score_point(&fleet_eval.point, fleet_eval.area_cm2, &defaults);
        assert_eq!(w1, w2, "scenario replays must be bit-identical");
        let e1 = expected.score_point(&fleet_eval.point, fleet_eval.area_cm2, &defaults);
        // The mean over scenarios can never fall below the minimum.
        assert!(e1.goodput_per_cm2 >= w1.goodput_per_cm2);
    }

    #[test]
    fn a_failure_scenario_lowers_worst_case_merit() {
        let space =
            DesignSpace::new().with_array_dims([128]).with_workloads([TransformerConfig::bert()]);
        let params = ModelParams::default();
        let outcome = Sweeper::new(params.clone()).sweep(&space);
        let t = trace(200.0, 25);
        let kill = FaultSpec::single_failure(0.5 * t.last_arrival_s(), 0);

        let mut fleet_eval = (*outcome.evaluations[0]).clone();
        fleet_eval.point.fleet = FleetSpec::replicated(2);
        fleet_eval.area_cm2 = outcome.evaluations[0].area_cm2 * 2.0;

        let clean = ServeObjective::new(t.clone(), Sla::p99_ttft(10.0))
            .with_params(params.clone())
            .with_fault_scenarios([FaultSpec::none()], ScenarioRanking::WorstCase);
        let faulty = ServeObjective::new(t, Sla::p99_ttft(10.0))
            .with_params(params)
            .with_fault_scenarios([FaultSpec::none(), kill], ScenarioRanking::WorstCase);
        let defaults = ModelParams::default();
        let c = clean.score_point(&fleet_eval.point, fleet_eval.area_cm2, &defaults);
        let f = faulty.score_point(&fleet_eval.point, fleet_eval.area_cm2, &defaults);
        assert!(
            f.goodput_per_cm2 <= c.goodput_per_cm2,
            "a single-failure scenario cannot raise worst-case merit \
             (clean {} vs faulty {})",
            c.goodput_per_cm2,
            f.goodput_per_cm2
        );
    }

    #[test]
    fn fleet_points_score_through_the_fleet_path() {
        let space =
            DesignSpace::new().with_array_dims([128]).with_workloads([TransformerConfig::bert()]);
        let params = ModelParams::default();
        let outcome = Sweeper::new(params.clone()).sweep(&space);
        let single = &outcome.evaluations[0];
        let mut fleet_eval = (**single).clone();
        fleet_eval.point.fleet = FleetSpec::replicated(4);
        fleet_eval.area_cm2 = single.area_cm2 * 4.0;

        let heavy = trace(600.0, 40);
        let objective = ServeObjective::new(heavy, Sla::p99_ttft(0.25)).with_params(params);
        let fleet_score = objective.score_detailed(&fleet_eval);
        let single_score = objective.score_detailed(single);
        // Four chips drain the same queue faster than one.
        assert!(fleet_score.report.ttft.p99 <= single_score.report.ttft.p99);
        assert!(fleet_score.report.makespan_s <= single_score.report.makespan_s);
    }

    /// 2 dims x 3 policies x 3 fleets: a small co-design space whose
    /// policies and fleets share each chip's model results.
    fn codesign_evaluations() -> Vec<Arc<Evaluation>> {
        let space = DesignSpace::new()
            .with_array_dims([64, 256])
            .with_workloads([TransformerConfig::bert()])
            .with_policies([
                SchedulerPolicy::unbounded(),
                SchedulerPolicy::chunked(256),
                SchedulerPolicy::chunked(512).with_queue_order(QueueOrder::ShortestPromptFirst),
            ])
            .with_fleets([
                FleetSpec::single(),
                FleetSpec::replicated(2),
                FleetSpec::disaggregated(1, 1),
            ]);
        Sweeper::new(ModelParams::default()).sweep(&space).evaluations
    }

    /// Every length one chip's tables evaluate for `t` under prefill
    /// chunks `chunks`, derived from the trace alone: the prompts, the
    /// chunk boundaries below each prompt, and the power-of-two decode
    /// buckets spanning the decode contexts.
    fn chip_lengths(t: &Trace, chunks: &[usize]) -> BTreeSet<usize> {
        let mut lengths: BTreeSet<usize> = t.requests.iter().map(|r| r.prompt_tokens).collect();
        for &chunk in chunks {
            for r in &t.requests {
                lengths.extend((chunk..r.prompt_tokens).step_by(chunk));
            }
        }
        let decoding = t.requests.iter().filter(|r| r.output_tokens >= 2);
        let lo = decoding.clone().map(|r| r.prompt_tokens + 1).min().expect("a decoding request");
        let hi = decoding.map(|r| r.prompt_tokens + r.output_tokens - 1).max().unwrap();
        let mut bucket = lo.next_power_of_two();
        while bucket <= hi.next_power_of_two() {
            lengths.insert(bucket);
            bucket *= 2;
        }
        lengths
    }

    /// Parameters under which every design scores differently from the
    /// defaults.
    fn foreign_params() -> ModelParams {
        ModelParams {
            exp_maccs: 24.0,
            fill_drain_factor: 4.0,
            pipeline_warmup_epochs: 16.0,
            ..ModelParams::default()
        }
    }

    #[test]
    fn model_calls_count_each_chip_length_once_across_policies_fleets_and_scenarios() {
        let evaluations = codesign_evaluations();
        let params = ModelParams::default();
        let t = trace(100.0, 30);
        let objective = ServeObjective::new(t.clone(), Sla::p99_ttft(0.25));
        objective.rank(&evaluations, &params);
        let distinct = 2 * chip_lengths(&t, &[256, 512]).len();
        assert_eq!(objective.model_calls(), distinct);
        let direct: usize = evaluations
            .iter()
            .map(|e| ServeSim::for_point(&e.point, &params).service_times(&t).model_evaluations())
            .sum();
        assert!(5 * distinct < direct, "{distinct} distinct vs {direct} per-scoring model calls");
        objective.rank(&evaluations, &params);
        assert_eq!(objective.model_calls(), distinct, "a second rank is all memo hits");

        // Two fault scenarios replay one table per scoring.
        let kill = FaultSpec::single_failure(0.5 * t.last_arrival_s(), 0);
        let worst = ServeObjective::new(t, Sla::p99_ttft(0.25))
            .with_fault_scenarios([FaultSpec::none(), kill], ScenarioRanking::WorstCase);
        worst.rank(&evaluations, &params);
        assert_eq!(worst.model_calls(), distinct);
    }

    #[test]
    fn serial_and_parallel_ranks_agree_on_scores_and_model_calls() {
        let evaluations = codesign_evaluations();
        let params = ModelParams::default();
        let parallel = ServeObjective::new(trace(100.0, 30), Sla::p99_ttft(0.25));
        let serial = parallel.clone().with_parallelism(false);
        let b = serial.rank(&evaluations, &params);
        assert_eq!(parallel.model_calls(), 0, "a clone's memo is its own");
        let a = parallel.rank(&evaluations, &params);
        for ((ea, sa), (eb, sb)) in a.iter().zip(&b) {
            assert_eq!(ea.point, eb.point);
            assert_eq!(sa, sb);
        }
        assert_eq!(parallel.model_calls(), serial.model_calls());
        assert_eq!(parallel.clone().model_calls(), parallel.model_calls(), "a clone starts warm");
    }

    #[test]
    fn foreign_params_build_tables_directly_and_leave_the_memo_alone() {
        let evaluations = codesign_evaluations();
        let t = trace(100.0, 30);
        let objective = ServeObjective::new(t.clone(), Sla::p99_ttft(0.25));
        objective.rank(&evaluations, &ModelParams::default());
        let before = objective.model_calls();
        let foreign = foreign_params();
        for (e, score) in objective.rank(&evaluations, &foreign) {
            let direct = Fleet::for_point(&e.point, &foreign).run(&t);
            assert_eq!(score.report, direct);
            assert_ne!(direct, Fleet::for_point(&e.point, &ModelParams::default()).run(&t));
        }
        assert_eq!(objective.model_calls(), before);
    }

    #[test]
    fn with_params_forgets_scores_and_model_results() {
        let evaluation = &codesign_evaluations()[0];
        let t = trace(100.0, 30);
        let stale = ServeObjective::new(t.clone(), Sla::p99_ttft(0.25));
        let default_score = stale.score_detailed(evaluation);
        let switched = stale.with_params(foreign_params());
        let fresh = ServeObjective::new(t, Sla::p99_ttft(0.25)).with_params(foreign_params());
        assert_eq!(switched.model_calls(), 0);
        let score = switched.score_detailed(evaluation);
        assert_eq!(score, fresh.score_detailed(evaluation));
        assert_ne!(score, default_score);
        assert_eq!(switched.model_calls(), fresh.model_calls());
    }
}
