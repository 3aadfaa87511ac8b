#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure in the paper's
//! evaluation (§VI).
//!
//! Each `figN` module produces the same rows/series the paper reports as
//! plain data ([`Grid`]s), plus text renderers, so the bench targets in
//! `crates/bench` can print them, one bench target per table or figure;
//! the goldens under `tests/golden/` pin every render.
//!
//! # Example
//!
//! ```
//! use fusemax_eval::summary::headline;
//! use fusemax_model::ModelParams;
//!
//! // The §VI headline: FuseMax vs FLAT on attention, averaged over all
//! // four models and six sequence lengths (paper: 6.7× at 79% energy).
//! let h = headline(&ModelParams::default());
//! assert!(h.attention_speedup_vs_flat > 4.0);
//! assert!(h.attention_energy_vs_flat < 1.0);
//! ```

pub mod explain;
pub mod fig12;
pub mod fig1b;
pub mod fig6;
pub mod fig7;
pub mod fig8_9;
pub mod render;
pub mod summary;
pub mod table1;

pub use render::Grid;
