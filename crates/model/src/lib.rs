#![warn(missing_docs)]

//! Analytical performance/energy models of the five evaluated accelerator
//! configurations (the Timeloop substitute; §VI).
//!
//! Five configurations, matching the paper's figures:
//!
//! * [`ConfigKind::Unfused`] — three sequential phases (QK, 3-pass softmax
//!   streaming `M` fibers, AV) with inter-phase DRAM spills;
//! * [`ConfigKind::Flat`] — FLAT's row-granularity fusion: QK/SN rows
//!   resident on chip, K/V resident while they fit and re-streamed (or
//!   QK/SN/A spilled) once they do not — the source of FLAT's
//!   memory-bandwidth cliff at long sequence lengths;
//! * [`ConfigKind::FuseMaxCascade`] (+Cascade) — the 1-pass cascade on the
//!   FLAT architecture: sequence-length-independent footprint but more 1D
//!   work than FLAT's 3-pass softmax;
//! * [`ConfigKind::FuseMaxArch`] (+Architecture) — FuseMax PEs (exp on the
//!   2D array as 6 chained MACCs) with a tile-serialized binding that pays
//!   fills and drains;
//! * [`ConfigKind::FuseMaxBinding`] (+Binding) — Fig 4's software-pipelined,
//!   intra-epoch-interleaved binding: epoch length is the *max* of the 2D
//!   and 1D tile work, which the cascade balances almost exactly (§V: the
//!   green and blue periods "take almost the same number of cycles").
//!
//! Latency follows a roofline over fused regions — `max(2D compute, 1D
//! compute, DRAM)` — with explicit DRAM/global-buffer traffic accounting
//! feeding [`fusemax_arch::EnergyBreakdown`]s. Each calibration choice is
//! documented on its [`ModelParams`] field.
//!
//! # Example
//!
//! ```
//! use fusemax_model::{attention_report, ConfigKind, ModelParams};
//! use fusemax_workloads::TransformerConfig;
//!
//! let bert = TransformerConfig::bert();
//! let params = ModelParams::default();
//! let flat = attention_report(ConfigKind::Flat, &bert, 1 << 16, None, &params);
//! let fusemax = attention_report(ConfigKind::FuseMaxBinding, &bert, 1 << 16, None, &params);
//!
//! // FuseMax wins by several-fold at 64K and saturates both arrays.
//! assert!(flat.cycles / fusemax.cycles > 4.0);
//! assert!(fusemax.util_2d() > 0.9 && fusemax.util_1d() > 0.9);
//! ```

mod breakdown;
mod common;
mod config;
mod e2e;
mod flat;
mod fusemax;
mod linear;
pub mod mapper;
mod params;
mod report;
mod unfused;

pub use breakdown::{attention_roofline, exact_split, CostNode, EinsumRoofline};
pub use config::ConfigKind;
pub use e2e::{e2e_report, e2e_report_on, E2eReport};
pub use flat::flat_dram_floor_per_head;
pub use linear::{layer_gemms, linear_report, LinearReport};
pub use mapper::{search_gemm_mapping, GemmMapping, GemmProblem};
pub use params::ModelParams;
pub use report::{AttentionReport, AttnWork};

use fusemax_arch::ArchConfig;
use fusemax_workloads::TransformerConfig;

/// Models one layer's attention on the given configuration.
///
/// `arch` overrides the configuration's default architecture (used by the
/// Fig 12 design-space sweep); pass `None` for the paper's cloud setup.
pub fn attention_report(
    kind: ConfigKind,
    workload: &TransformerConfig,
    seq_len: usize,
    arch: Option<&ArchConfig>,
    params: &ModelParams,
) -> AttentionReport {
    let default_arch = kind.default_arch();
    let arch = arch.unwrap_or(&default_arch);
    let work = AttnWork::from_workload(workload, seq_len);
    match kind {
        ConfigKind::Unfused => unfused::model(&work, arch, params),
        ConfigKind::Flat => flat::model(&work, arch, params),
        ConfigKind::FuseMaxCascade => fusemax::cascade_on_flat(&work, arch, params),
        ConfigKind::FuseMaxArch => fusemax::serialized(&work, arch, params),
        ConfigKind::FuseMaxBinding => fusemax::pipelined(&work, arch, params),
    }
}
