//! Dependency-free JSON layer: export of sweep results (feeding the
//! `BENCH_*.json` bench-trajectory files and any external plotting) and
//! the [`EvalCache`] disk format that makes figure regeneration free
//! *across processes*, not just within one.
//!
//! The cache format round-trips every model-visible field bit-exactly:
//! floats are written with Rust's shortest-round-trip formatting and
//! parsed back with [`str::parse`], so a loaded evaluation is
//! indistinguishable from a fresh one.

use crate::cache::EvalCache;
use crate::space::{DesignPoint, FleetSpec, QueueOrder, RouterPolicy, SchedulerPolicy};
use crate::sweep::{Evaluation, SweepOutcome};
use fusemax_arch::{ArchConfig, EnergyBreakdown, ExpCost, PeKind};
use fusemax_model::{AttentionReport, ConfigKind};
use fusemax_telemetry::json::{num, quoted};
use fusemax_workloads::TransformerConfig;
use std::sync::Arc;

fn evaluation_object(e: &Evaluation) -> String {
    format!(
        concat!(
            "{{\"model\":{},\"kind\":{},\"seq_len\":{},\"array_dim\":{},",
            "\"arch\":{},\"frequency_hz\":{},\"buffer_bytes\":{},",
            "\"area_cm2\":{},\"latency_s\":{},\"energy_j\":{},",
            "\"cycles_per_layer\":{},\"util_2d\":{},\"util_1d\":{}}}"
        ),
        quoted(e.point.workload.name),
        quoted(e.point.kind.label()),
        e.point.seq_len,
        e.point.array_dim,
        quoted(&e.point.arch.name),
        num(e.point.arch.frequency_hz),
        e.point.arch.global_buffer_bytes,
        num(e.area_cm2),
        num(e.latency_s),
        num(e.energy_j),
        num(e.report.cycles),
        num(e.report.util_2d()),
        num(e.report.util_1d()),
    )
}

/// Serializes an outcome's per-group Pareto frontiers (points sorted by
/// area, Fig 12 style) plus the sweep stats.
///
/// # Example
///
/// ```
/// use fusemax_dse::{frontier_json, DesignSpace, Sweeper};
/// use fusemax_model::ModelParams;
///
/// let outcome = Sweeper::new(ModelParams::default())
///     .sweep(&DesignSpace::new().with_array_dims([64, 128]));
/// let json = frontier_json(&outcome);
/// assert!(json.starts_with('{') && json.contains("\"frontiers\""));
/// ```
pub fn frontier_json(outcome: &SweepOutcome) -> String {
    let groups = frontier_groups_json(outcome);
    let stats = &outcome.stats;
    format!(
        concat!(
            "{{\"frontiers\":[{}],\"stats\":{{\"candidates\":{},\"evaluated\":{},",
            "\"pruned\":{},\"cache_hits\":{},\"elapsed_s\":{},\"points_per_sec\":{}}}}}"
        ),
        groups.join(","),
        stats.candidates,
        stats.evaluated,
        stats.pruned,
        stats.cache_hits,
        num(stats.elapsed.as_secs_f64()),
        num(stats.points_per_sec()),
    )
}

/// Serializes *only* the per-group frontiers — no stats, no timings — so
/// two sweeps of the same space produce byte-identical output. This is
/// the format of the checked-in golden frontier
/// (`tests/golden/fig12_frontier.json`) that CI diffs to catch
/// analytical-model drift.
pub fn frontiers_only_json(outcome: &SweepOutcome) -> String {
    format!("{{\"frontiers\":[{}]}}", frontier_groups_json(outcome).join(","))
}

/// The per-group frontier objects shared by both exports.
fn frontier_groups_json(outcome: &SweepOutcome) -> Vec<String> {
    let mut groups = Vec::with_capacity(outcome.frontiers.len());
    for group in &outcome.frontiers {
        let points: Vec<String> =
            group.frontier.sorted_by(0).into_iter().map(|e| evaluation_object(e)).collect();
        groups.push(format!(
            "{{\"model\":{},\"seq_len\":{},\"points\":[{}]}}",
            quoted(&group.model),
            group.seq_len,
            points.join(",")
        ));
    }
    groups
}

// ---------------------------------------------------------------------------
// EvalCache persistence
// ---------------------------------------------------------------------------

/// Why a cache file failed to save or load.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed or semantically invalid cache JSON.
    Parse(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "cache file I/O error: {e}"),
            PersistError::Parse(msg) => write!(f, "cache file parse error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn arch_object(arch: &ArchConfig) -> String {
    let (exp_kind, exp_maccs) = match arch.exp_cost {
        ExpCost::SingleOp => ("single", 0),
        ExpCost::ChainedMaccs(n) => ("chained", n),
    };
    format!(
        concat!(
            "{{\"name\":{},\"array_rows\":{},\"array_cols\":{},\"vector_pes\":{},",
            "\"global_buffer_bytes\":{},\"dram_bw_bytes_per_sec\":{},\"frequency_hz\":{},",
            "\"word_bytes\":{},\"pe_2d\":{},\"exp_kind\":{},\"exp_maccs\":{}}}"
        ),
        quoted(&arch.name),
        arch.array_rows,
        arch.array_cols,
        arch.vector_pes,
        arch.global_buffer_bytes,
        num(arch.dram_bw_bytes_per_sec),
        num(arch.frequency_hz),
        arch.word_bytes,
        quoted(pe_kind_name(arch.pe_2d)),
        quoted(exp_kind),
        exp_maccs,
    )
}

fn policy_object(policy: &SchedulerPolicy) -> String {
    format!(
        "{{\"chunk_tokens\":{},\"waiting_served_ratio\":{},\"queue_order\":{}}}",
        policy.chunk_tokens.map_or("null".to_string(), |c| c.to_string()),
        num(policy.waiting_served_ratio),
        quoted(policy.queue_order.token()),
    )
}

fn fleet_object(fleet: &FleetSpec) -> String {
    let (prefill, decode) = match fleet.prefill_decode {
        Some((p, d)) => (p.to_string(), d.to_string()),
        None => ("null".to_string(), "null".to_string()),
    };
    format!(
        "{{\"replicas\":{},\"router\":{},\"prefill\":{},\"decode\":{}}}",
        fleet.replicas,
        quoted(fleet.router.token()),
        prefill,
        decode,
    )
}

fn point_object(point: &DesignPoint) -> String {
    let w = &point.workload;
    format!(
        concat!(
            "{{\"kind\":{},\"seq_len\":{},\"array_dim\":{},\"workload\":{{\"name\":{},",
            "\"layers\":{},\"heads\":{},\"head_dim\":{},\"d_model\":{},\"ffn_dim\":{},",
            "\"batch\":{}}},\"arch\":{},\"policy\":{},\"fleet\":{}}}"
        ),
        quoted(point.kind.label()),
        point.seq_len,
        point.array_dim,
        quoted(w.name),
        w.layers,
        w.heads,
        w.head_dim,
        w.d_model,
        w.ffn_dim,
        w.batch,
        arch_object(&point.arch),
        policy_object(&point.policy),
        fleet_object(&point.fleet),
    )
}

fn report_object(report: &AttentionReport) -> String {
    let e = &report.energy;
    let einsum: Vec<String> = report
        .einsum_2d
        .iter()
        .map(|(label, cycles)| format!("[{},{}]", quoted(label), num(*cycles)))
        .collect();
    format!(
        concat!(
            "{{\"kind\":{},\"cycles\":{},\"busy_2d\":{},\"busy_1d\":{},\"dram_bytes\":{},",
            "\"gbuf_bytes\":{},\"energy\":{{\"macc_2d_pj\":{},\"vector_1d_pj\":{},\"rf_pj\":{},",
            "\"gbuf_pj\":{},\"dram_pj\":{}}},\"einsum_2d\":[{}]}}"
        ),
        quoted(report.kind.label()),
        num(report.cycles),
        num(report.busy_2d),
        num(report.busy_1d),
        num(report.dram_bytes),
        num(report.gbuf_bytes),
        num(e.macc_2d_pj),
        num(e.vector_1d_pj),
        num(e.rf_pj),
        num(e.gbuf_pj),
        num(e.dram_pj),
        einsum.join(","),
    )
}

fn cache_entry_object(evaluation: &Evaluation) -> String {
    format!(
        "{{\"point\":{},\"area_cm2\":{},\"latency_s\":{},\"energy_j\":{},\"report\":{}}}",
        point_object(&evaluation.point),
        num(evaluation.area_cm2),
        num(evaluation.latency_s),
        num(evaluation.energy_j),
        report_object(&evaluation.report),
    )
}

/// `true` when every float in the evaluation is finite — i.e. the entry
/// can round-trip through the cache format (`num` writes non-finite
/// values as `null`, which no parse can recover).
fn round_trips(evaluation: &Evaluation) -> bool {
    let r = &evaluation.report;
    let e = &r.energy;
    [
        evaluation.area_cm2,
        evaluation.latency_s,
        evaluation.energy_j,
        evaluation.point.arch.dram_bw_bytes_per_sec,
        evaluation.point.arch.frequency_hz,
        r.cycles,
        r.busy_2d,
        r.busy_1d,
        r.dram_bytes,
        r.gbuf_bytes,
        e.macc_2d_pj,
        e.vector_1d_pj,
        e.rf_pj,
        e.gbuf_pj,
        e.dram_pj,
    ]
    .iter()
    .all(|v| v.is_finite())
        && r.einsum_2d.iter().all(|(_, c)| c.is_finite())
}

/// Serializes every cached evaluation. Entries are sorted by their JSON
/// text, so two caches holding the same evaluations serialize
/// byte-identically regardless of insertion order.
///
/// Evaluations containing non-finite values (e.g. a degenerate
/// zero-frequency architecture) are omitted: they cannot round-trip, and
/// a file that saves cleanly must always load cleanly.
pub fn cache_json(cache: &EvalCache) -> String {
    let mut entries: Vec<String> =
        cache.snapshot().iter().filter(|e| round_trips(e)).map(|e| cache_entry_object(e)).collect();
    entries.sort();
    format!("{{\"version\":1,\"entries\":[{}]}}", entries.join(","))
}

/// Parses a [`cache_json`] document back into evaluations.
///
/// Unknown `pe_2d` / `kind` names are errors (they would silently change
/// what the cache key means); unknown workload or Einsum label strings
/// are interned as needed, so custom workloads round-trip too.
pub fn parse_cache_json(json: &str) -> Result<Vec<Evaluation>, PersistError> {
    let doc = parse::document(json).map_err(PersistError::Parse)?;
    let version = doc.u64_field("version")?;
    if version != 1 {
        return Err(PersistError::Parse(format!("unsupported cache version {version}")));
    }
    let mut interner = Interner::new();
    doc.arr_field("entries")?.iter().map(|e| parse_entry(e, &mut interner)).collect()
}

/// Interns strings that must become `&'static str` (workload names,
/// Einsum labels). Known names resolve without allocation; novel names
/// are leaked once per load call — bounded by the file's content.
struct Interner {
    known: Vec<&'static str>,
}

impl Interner {
    fn new() -> Self {
        Interner { known: vec!["BERT", "TrXL", "T5", "XLM", "QK", "LM", "SLN", "SLD", "SLNV/AV"] }
    }

    fn intern(&mut self, s: &str) -> &'static str {
        if let Some(k) = self.known.iter().find(|k| **k == s) {
            return k;
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        self.known.push(leaked);
        leaked
    }
}

fn pe_kind_name(pe: PeKind) -> &'static str {
    match pe {
        PeKind::TpuMacc => "TpuMacc",
        PeKind::FlatMacc => "FlatMacc",
        PeKind::FuseMaxPe => "FuseMaxPe",
        PeKind::Vector1D => "Vector1D",
    }
}

fn pe_kind_of(name: &str) -> Result<PeKind, PersistError> {
    match name {
        "TpuMacc" => Ok(PeKind::TpuMacc),
        "FlatMacc" => Ok(PeKind::FlatMacc),
        "FuseMaxPe" => Ok(PeKind::FuseMaxPe),
        "Vector1D" => Ok(PeKind::Vector1D),
        other => Err(PersistError::Parse(format!("unknown PE kind {other:?}"))),
    }
}

fn config_kind_of(label: &str) -> Result<ConfigKind, PersistError> {
    ConfigKind::all()
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| PersistError::Parse(format!("unknown configuration {label:?}")))
}

fn parse_arch(v: &parse::Value) -> Result<ArchConfig, PersistError> {
    let exp_cost = match v.str_field("exp_kind")? {
        "single" => ExpCost::SingleOp,
        "chained" => ExpCost::ChainedMaccs(
            v.u64_field("exp_maccs")?.try_into().map_err(|_| bad("exp_maccs out of range"))?,
        ),
        other => return Err(PersistError::Parse(format!("unknown exp cost {other:?}"))),
    };
    Ok(ArchConfig {
        name: v.str_field("name")?.to_string(),
        array_rows: v.usize_field("array_rows")?,
        array_cols: v.usize_field("array_cols")?,
        vector_pes: v.usize_field("vector_pes")?,
        global_buffer_bytes: v.u64_field("global_buffer_bytes")?,
        dram_bw_bytes_per_sec: v.f64_field("dram_bw_bytes_per_sec")?,
        frequency_hz: v.f64_field("frequency_hz")?,
        word_bytes: v.u64_field("word_bytes")?,
        pe_2d: pe_kind_of(v.str_field("pe_2d")?)?,
        exp_cost,
    })
}

/// The scheduler policy of a point object. Cache files written before
/// the policy axis existed have no `"policy"` field; they parse to the
/// legacy [`SchedulerPolicy::unbounded`], which is exactly the engine
/// those evaluations ran under.
fn parse_policy(v: &parse::Value) -> Result<SchedulerPolicy, PersistError> {
    let Some(p) = v.get("policy") else {
        return Ok(SchedulerPolicy::unbounded());
    };
    let chunk_tokens = match p.get("chunk_tokens") {
        None | Some(parse::Value::Null) => None,
        Some(_) => Some(p.usize_field("chunk_tokens")?),
    };
    let token = p.str_field("queue_order")?;
    let queue_order = QueueOrder::parse(token)
        .ok_or_else(|| PersistError::Parse(format!("unknown queue order {token:?}")))?;
    Ok(SchedulerPolicy {
        chunk_tokens,
        waiting_served_ratio: p.f64_field("waiting_served_ratio")?,
        queue_order,
    })
}

/// The fleet topology of a point object. Cache files written before the
/// fleet axis existed have no `"fleet"` field; they parse to the legacy
/// [`FleetSpec::single`], which is exactly the topology those
/// evaluations were costed under.
fn parse_fleet(v: &parse::Value) -> Result<FleetSpec, PersistError> {
    let Some(g) = v.get("fleet") else {
        return Ok(FleetSpec::single());
    };
    let token = g.str_field("router")?;
    let router = RouterPolicy::parse(token)
        .ok_or_else(|| PersistError::Parse(format!("unknown router policy {token:?}")))?;
    let stage = |key: &str| -> Result<Option<usize>, PersistError> {
        match g.get(key) {
            None | Some(parse::Value::Null) => Ok(None),
            Some(_) => Ok(Some(g.usize_field(key)?)),
        }
    };
    let prefill_decode = match (stage("prefill")?, stage("decode")?) {
        (Some(p), Some(d)) => Some((p, d)),
        (None, None) => None,
        _ => return Err(bad("fleet prefill/decode must be both set or both null")),
    };
    Ok(FleetSpec { replicas: g.usize_field("replicas")?, router, prefill_decode })
}

fn parse_point(v: &parse::Value, interner: &mut Interner) -> Result<DesignPoint, PersistError> {
    let w = v.obj_field("workload")?;
    let workload = TransformerConfig {
        name: interner.intern(w.str_field("name")?),
        layers: w.usize_field("layers")?,
        heads: w.usize_field("heads")?,
        head_dim: w.usize_field("head_dim")?,
        d_model: w.usize_field("d_model")?,
        ffn_dim: w.usize_field("ffn_dim")?,
        batch: w.usize_field("batch")?,
    };
    Ok(DesignPoint {
        arch: parse_arch(v.obj_field("arch")?)?,
        kind: config_kind_of(v.str_field("kind")?)?,
        workload,
        seq_len: v.usize_field("seq_len")?,
        array_dim: v.usize_field("array_dim")?,
        policy: parse_policy(v)?,
        fleet: parse_fleet(v)?,
    })
}

fn parse_report(
    v: &parse::Value,
    interner: &mut Interner,
) -> Result<AttentionReport, PersistError> {
    let e = v.obj_field("energy")?;
    let mut einsum_2d = Vec::new();
    for pair in v.arr_field("einsum_2d")? {
        let items = pair.as_arr().ok_or_else(|| bad("einsum_2d entry is not an array"))?;
        let [label, cycles] = items else {
            return Err(bad("einsum_2d entry is not a [label, cycles] pair"));
        };
        let label = label.as_str().ok_or_else(|| bad("einsum_2d label is not a string"))?;
        let cycles = cycles.as_f64().ok_or_else(|| bad("einsum_2d cycles is not a number"))?;
        einsum_2d.push((interner.intern(label), cycles));
    }
    Ok(AttentionReport {
        kind: config_kind_of(v.str_field("kind")?)?,
        cycles: v.f64_field("cycles")?,
        busy_2d: v.f64_field("busy_2d")?,
        busy_1d: v.f64_field("busy_1d")?,
        dram_bytes: v.f64_field("dram_bytes")?,
        gbuf_bytes: v.f64_field("gbuf_bytes")?,
        energy: EnergyBreakdown {
            macc_2d_pj: e.f64_field("macc_2d_pj")?,
            vector_1d_pj: e.f64_field("vector_1d_pj")?,
            rf_pj: e.f64_field("rf_pj")?,
            gbuf_pj: e.f64_field("gbuf_pj")?,
            dram_pj: e.f64_field("dram_pj")?,
        },
        einsum_2d,
    })
}

fn parse_entry(v: &parse::Value, interner: &mut Interner) -> Result<Evaluation, PersistError> {
    Ok(Evaluation {
        point: parse_point(v.obj_field("point")?, interner)?,
        area_cm2: v.f64_field("area_cm2")?,
        latency_s: v.f64_field("latency_s")?,
        energy_j: v.f64_field("energy_j")?,
        report: parse_report(v.obj_field("report")?, interner)?,
    })
}

fn bad(msg: &str) -> PersistError {
    PersistError::Parse(msg.to_string())
}

/// Saves `cache` to `path`, creating parent directories as needed.
pub fn save_cache_file(cache: &EvalCache, path: &std::path::Path) -> Result<(), PersistError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    // Write-then-rename so a crash or full disk mid-write can never leave
    // a truncated (unparseable) cache behind. The temp name carries the
    // pid so concurrent savers (two processes sharing FUSEMAX_DSE_CACHE)
    // cannot promote each other's half-written files.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, cache_json(cache))?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Loads a cache file into `cache`, returning how many entries were
/// absorbed (already-present keys keep their in-memory evaluation).
pub fn load_cache_file(cache: &EvalCache, path: &std::path::Path) -> Result<usize, PersistError> {
    let json = std::fs::read_to_string(path)?;
    let evaluations = parse_cache_json(&json)?;
    Ok(cache.absorb(evaluations.into_iter().map(Arc::new)))
}

/// A minimal recursive-descent JSON parser — just enough for the cache
/// format, with numbers kept as raw text so integers and shortest-repr
/// floats both round-trip exactly.
mod parse {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Value {
        Null,
        Bool(bool),
        /// Raw number text, parsed on demand.
        Num(String),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub(crate) fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub(crate) fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub(crate) fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        pub(crate) fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        fn field(&self, key: &str) -> Result<&Value, super::PersistError> {
            self.get(key).ok_or_else(|| super::bad(&format!("missing field {key:?}")))
        }

        pub(crate) fn str_field(&self, key: &str) -> Result<&str, super::PersistError> {
            self.field(key)?
                .as_str()
                .ok_or_else(|| super::bad(&format!("field {key:?} is not a string")))
        }

        pub(crate) fn f64_field(&self, key: &str) -> Result<f64, super::PersistError> {
            self.field(key)?
                .as_f64()
                .ok_or_else(|| super::bad(&format!("field {key:?} is not a number")))
        }

        pub(crate) fn u64_field(&self, key: &str) -> Result<u64, super::PersistError> {
            match self.field(key)? {
                Value::Num(raw) => raw
                    .parse()
                    .map_err(|_| super::bad(&format!("field {key:?} is not a u64: {raw}"))),
                _ => Err(super::bad(&format!("field {key:?} is not a number"))),
            }
        }

        pub(crate) fn usize_field(&self, key: &str) -> Result<usize, super::PersistError> {
            self.u64_field(key)?
                .try_into()
                .map_err(|_| super::bad(&format!("field {key:?} out of usize range")))
        }

        pub(crate) fn arr_field(&self, key: &str) -> Result<&[Value], super::PersistError> {
            self.field(key)?
                .as_arr()
                .ok_or_else(|| super::bad(&format!("field {key:?} is not an array")))
        }

        pub(crate) fn obj_field(&self, key: &str) -> Result<&Value, super::PersistError> {
            let v = self.field(key)?;
            match v {
                Value::Obj(_) => Ok(v),
                _ => Err(super::bad(&format!("field {key:?} is not an object"))),
            }
        }
    }

    /// Parses one complete JSON document (trailing whitespace allowed).
    pub(crate) fn document(input: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(format!("unexpected byte at {}", self.pos)),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                fields.push((key, self.value()?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        /// Four hex digits at `at`, as one UTF-16 code unit.
        fn hex4(&self, at: usize) -> Result<u32, String> {
            let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
            let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape")?;
            u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape {hex:?}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let unit = self.hex4(self.pos + 1)?;
                                self.pos += 4;
                                let code = match unit {
                                    // UTF-16 surrogate pair: conformant
                                    // writers encode astral chars as
                                    // \uD8xx\uDCxx; combine the halves.
                                    0xD800..=0xDBFF => {
                                        if self.bytes.get(self.pos + 1..self.pos + 3)
                                            != Some(&b"\\u"[..])
                                        {
                                            return Err("unpaired high surrogate".into());
                                        }
                                        let low = self.hex4(self.pos + 3)?;
                                        if !(0xDC00..=0xDFFF).contains(&low) {
                                            return Err("invalid low surrogate".into());
                                        }
                                        self.pos += 6;
                                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                    }
                                    0xDC00..=0xDFFF => return Err("unpaired low surrogate".into()),
                                    scalar => scalar,
                                };
                                out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(b) => {
                        let len = match b {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let chunk = self
                            .bytes
                            .get(self.pos..self.pos + len)
                            .ok_or("truncated UTF-8 sequence")?;
                        let s =
                            std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in string")?;
                        out.push_str(s);
                        self.pos += len;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
                self.pos += 1;
            }
            if self.pos == start {
                return Err(format!("empty number at byte {start}"));
            }
            let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "non-ASCII number")?;
            raw.parse::<f64>().map_err(|_| format!("invalid number {raw:?}"))?;
            Ok(Value::Num(raw.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;
    use crate::sweep::Sweeper;
    use fusemax_model::{ConfigKind, ModelParams};
    use fusemax_workloads::TransformerConfig;

    fn sample() -> SweepOutcome {
        Sweeper::new(ModelParams::default()).sweep(
            &DesignSpace::new()
                .with_array_dims([64, 128])
                .with_kinds([ConfigKind::FuseMaxBinding])
                .with_workloads([TransformerConfig::bert()]),
        )
    }

    #[test]
    fn json_shape_is_plausible() {
        let json = frontier_json(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"model\":\"BERT\"").count(), 3, "group + 2 points");
        assert!(json.contains("\"points_per_sec\""));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn braces_and_brackets_balance() {
        let json = frontier_json(&sample());
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        assert_eq!(json.chars().filter(|&c| c == '"').count() % 2, 0);
    }

    #[test]
    fn quoting_escapes_specials() {
        assert_eq!(quoted("plain"), "\"plain\"");
        assert_eq!(quoted("a\"b"), "\"a\\\"b\"");
        assert_eq!(quoted("a\\b"), "\"a\\\\b\"");
        assert_eq!(quoted("a\nb"), "\"a\\u000ab\"");
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert!(num(2.5).contains('e'));
    }

    #[test]
    fn frontiers_only_json_is_deterministic_and_stat_free() {
        let a = frontiers_only_json(&sample());
        let b = frontiers_only_json(&sample());
        assert_eq!(a, b, "same space must serialize byte-identically");
        assert!(!a.contains("elapsed_s") && !a.contains("stats"));
        assert!(a.contains("\"model\":\"BERT\""));
    }

    fn warm_sweeper() -> (Sweeper, DesignSpace) {
        let space = DesignSpace::new()
            .with_array_dims([64, 256])
            .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
            .with_workloads([TransformerConfig::bert(), TransformerConfig::xlm()])
            .with_seq_lens([1 << 14])
            .with_buffer_scales([0.5, 1.0]);
        let sweeper = Sweeper::new(ModelParams::default());
        sweeper.sweep(&space);
        (sweeper, space)
    }

    #[test]
    fn cache_json_round_trips_bit_exactly() {
        let (sweeper, _space) = warm_sweeper();
        let json = cache_json(sweeper.cache());
        let parsed = parse_cache_json(&json).expect("parse back");
        assert_eq!(parsed.len(), sweeper.cache().len());
        for entry in &parsed {
            let original = sweeper.evaluate(&entry.point);
            assert_eq!(entry.area_cm2.to_bits(), original.area_cm2.to_bits());
            assert_eq!(entry.latency_s.to_bits(), original.latency_s.to_bits());
            assert_eq!(entry.energy_j.to_bits(), original.energy_j.to_bits());
            assert_eq!(entry.report.cycles.to_bits(), original.report.cycles.to_bits());
            assert_eq!(
                entry.report.energy.total_pj().to_bits(),
                original.report.energy.total_pj().to_bits()
            );
            assert_eq!(entry.report.einsum_2d, original.report.einsum_2d);
            assert_eq!(entry.point, original.point);
        }
        // Serialization is canonical: dumping the parsed entries again is
        // byte-identical.
        let cache = EvalCache::new();
        cache.absorb(parsed.into_iter().map(Arc::new));
        assert_eq!(cache_json(&cache), json);
    }

    #[test]
    fn loaded_cache_makes_a_fresh_sweeper_evaluation_free() {
        let (sweeper, space) = warm_sweeper();
        let dir = std::env::temp_dir().join(format!("fusemax-dse-cache-{}", std::process::id()));
        let path = dir.join("cache.json");
        sweeper.save_cache(&path).expect("save");

        let fresh = Sweeper::new(ModelParams::default());
        let absorbed = fresh.load_cache(&path).expect("load");
        assert_eq!(absorbed, space.len());
        let outcome = fresh.sweep(&space);
        assert_eq!(outcome.stats.evaluated, 0, "regeneration must be free across processes");
        assert_eq!(outcome.stats.cache_hits, space.len());

        // And the frontier JSON built from the loaded cache is identical.
        let original = frontier_json(&sweeper.sweep(&space));
        let reloaded = frontier_json(&outcome);
        let strip = |s: &str| s.split("\"stats\"").next().unwrap().to_string();
        assert_eq!(strip(&original), strip(&reloaded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_on_and_off_grid_caches_round_trip_bit_identically() {
        // The off-grid persistence contract: a cache holding both grid
        // and off-grid evaluations saves, loads, and re-saves to the
        // exact same bytes, and every reloaded entry keeps its key.
        use crate::space::Candidate;
        let space = DesignSpace::new()
            .with_array_dims([64, 256])
            .with_kinds([ConfigKind::Flat, ConfigKind::FuseMaxBinding])
            .with_workloads([TransformerConfig::bert()])
            .with_seq_lens([1 << 14]);
        let sweeper = Sweeper::new(ModelParams::default());
        sweeper.sweep(&space);
        for (dim, buf) in [(200usize, 9_999_999u64), (67, 1 << 20), (256, (16 << 20) - 1)] {
            let point = space.materialize(&Candidate::OffGrid {
                workload: 0,
                seq_len: 0,
                kind: 1,
                frequency: 0,
                array_dim: dim,
                buffer_bytes: buf,
                frequency_hz: None,
                dram_bw_bytes_per_sec: None,
                policy: 0,
                fleet: 0,
            });
            sweeper.evaluate(&point);
        }
        assert_eq!(sweeper.cache().len(), 4 + 3);

        let first = cache_json(sweeper.cache());
        let reloaded = EvalCache::new();
        let parsed = parse_cache_json(&first).expect("parse mixed cache");
        assert_eq!(reloaded.absorb(parsed.into_iter().map(Arc::new)), 7);
        let second = cache_json(&reloaded);
        assert_eq!(first, second, "save -> load -> save must be bit-identical");

        // Reloaded off-grid entries answer for their original keys.
        let fresh = Sweeper::new(ModelParams::default());
        fresh.cache().absorb(parse_cache_json(&second).unwrap().into_iter().map(Arc::new));
        let outcome = fresh.sweep(&space);
        assert_eq!(outcome.stats.evaluated, 0);
    }

    #[test]
    fn absorb_keeps_existing_entries() {
        let (sweeper, space) = warm_sweeper();
        let json = cache_json(sweeper.cache());
        let parsed = parse_cache_json(&json).unwrap();
        let before: Vec<_> = sweeper.cache().snapshot();
        assert_eq!(sweeper.cache().absorb(parsed.into_iter().map(Arc::new)), 0);
        // Live Arc identities are untouched.
        let outcome = sweeper.sweep(&space);
        for e in &outcome.evaluations {
            assert!(before.iter().any(|b| Arc::ptr_eq(b, e)));
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"version\":1",
            "{\"version\":2,\"entries\":[]}",
            "{\"entries\":[]}",
            "[1,2,]",
            "{\"version\":1,\"entries\":[]} trailing",
        ] {
            assert!(parse_cache_json(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse_cache_json("{\"version\":1,\"entries\":[]}").unwrap().is_empty());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let doc = super::parse::document("{\"k\":\"a\\\"b\\u0041ü\",\"n\":[1.5e3,-2]}").unwrap();
        assert_eq!(doc.str_field("k").unwrap(), "a\"bAü");
        let arr = doc.arr_field("n").unwrap();
        assert_eq!(arr[0].as_f64(), Some(1500.0));
        assert_eq!(arr[1].as_f64(), Some(-2.0));
    }

    #[test]
    fn parser_combines_surrogate_pairs() {
        // \uD83D\uDE80 is the standard JSON encoding of U+1F680 (🚀).
        let doc = super::parse::document("{\"k\":\"\\uD83D\\uDE80\"}").unwrap();
        assert_eq!(doc.str_field("k").unwrap(), "\u{1F680}");
        // Unpaired halves are rejected, not silently mangled.
        assert!(super::parse::document("{\"k\":\"\\uD83D\"}").is_err());
        assert!(super::parse::document("{\"k\":\"\\uD83Dx\"}").is_err());
        assert!(super::parse::document("{\"k\":\"\\uDE80\"}").is_err());
    }

    #[test]
    fn non_finite_evaluations_are_not_saved() {
        // A zero-frequency architecture produces infinite latency; the
        // writer must drop it so a file that saves always loads.
        let sweeper = Sweeper::new(ModelParams::default());
        let space = DesignSpace::new()
            .with_array_dims([64])
            .with_workloads([TransformerConfig::bert()])
            .with_frequencies_hz([Some(0.0)]);
        let outcome = sweeper.sweep(&space);
        assert!(outcome.evaluations[0].latency_s.is_infinite());
        let json = cache_json(sweeper.cache());
        assert!(!json.contains("null"));
        assert!(parse_cache_json(&json).unwrap().is_empty());
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let (sweeper, _space) = warm_sweeper();
        let dir = std::env::temp_dir().join(format!("fusemax-dse-atomic-{}", std::process::id()));
        let path = dir.join("cache.json");
        sweeper.save_cache(&path).expect("save");
        assert!(path.exists());
        // Only the renamed cache remains — no .tmp.<pid> stragglers.
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
