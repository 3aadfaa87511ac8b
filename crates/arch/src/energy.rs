//! Per-action energy table and energy breakdowns (the Accelergy substitute).
//!
//! The constants are 45 nm-flavored values chosen so the paper's
//! qualitative energy statements hold (FuseMax energy ≥ 95 % MACC compute;
//! baseline energy dominated by DRAM/global-buffer traffic plus QK/AV
//! compute). They are *not* calibrated against SPICE data, so compare
//! energies across configurations rather than as absolute joules.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Per-action energies in picojoules.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyTable {
    /// One fp16 MACC on a 2D-array PE.
    pub macc_pj: f64,
    /// One ALU op (add/mul/max) on a 1D vector PE.
    pub vector_op_pj: f64,
    /// One fp division (Xia et al.'s pipelined divider, scaled to 45 nm).
    pub div_pj: f64,
    /// Register-file access per byte.
    pub rf_pj_per_byte: f64,
    /// Global-buffer access per byte (16–22 MB SRAM).
    pub gbuf_pj_per_byte: f64,
    /// DRAM access per byte (HBM-class).
    pub dram_pj_per_byte: f64,
}

impl Default for EnergyTable {
    fn default() -> Self {
        Self {
            macc_pj: 2.2,
            vector_op_pj: 2.2,
            div_pj: 9.0,
            rf_pj_per_byte: 0.03,
            gbuf_pj_per_byte: 6.0,
            dram_pj_per_byte: 16.0,
        }
    }
}

impl EnergyTable {
    /// Energy of one exponential realized as `n` chained MACCs.
    pub fn exp_chained_pj(&self, maccs: u32) -> f64 {
        self.macc_pj * maccs as f64
    }
}

/// An energy total split by component, in picojoules.
///
/// # Example
///
/// ```
/// use fusemax_arch::EnergyBreakdown;
///
/// let e = EnergyBreakdown { macc_2d_pj: 90.0, dram_pj: 10.0, ..Default::default() };
/// assert_eq!(e.total_pj(), 100.0);
/// assert_eq!(e.compute_fraction(), 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// 2D-array MACC (and MACC-realized exp) energy.
    pub macc_2d_pj: f64,
    /// 1D-array ALU/divider energy.
    pub vector_1d_pj: f64,
    /// Register-file traffic energy.
    pub rf_pj: f64,
    /// Global-buffer traffic energy.
    pub gbuf_pj: f64,
    /// DRAM traffic energy.
    pub dram_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total_pj(&self) -> f64 {
        self.macc_2d_pj + self.vector_1d_pj + self.rf_pj + self.gbuf_pj + self.dram_pj
    }

    /// Fraction of total energy spent on compute (2D + 1D).
    pub fn compute_fraction(&self) -> f64 {
        let t = self.total_pj();
        if t == 0.0 {
            0.0
        } else {
            (self.macc_2d_pj + self.vector_1d_pj) / t
        }
    }

    /// Fraction of total energy spent moving data (RF + buffer + DRAM).
    pub fn movement_fraction(&self) -> f64 {
        let t = self.total_pj();
        if t == 0.0 {
            0.0
        } else {
            (self.rf_pj + self.gbuf_pj + self.dram_pj) / t
        }
    }

    /// Scales every component (e.g. by batch × heads × layers).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            macc_2d_pj: self.macc_2d_pj * factor,
            vector_1d_pj: self.vector_1d_pj * factor,
            rf_pj: self.rf_pj * factor,
            gbuf_pj: self.gbuf_pj * factor,
            dram_pj: self.dram_pj * factor,
        }
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;

    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            macc_2d_pj: self.macc_2d_pj + rhs.macc_2d_pj,
            vector_1d_pj: self.vector_1d_pj + rhs.vector_1d_pj,
            rf_pj: self.rf_pj + rhs.rf_pj,
            gbuf_pj: self.gbuf_pj + rhs.gbuf_pj,
            dram_pj: self.dram_pj + rhs.dram_pj,
        }
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self + rhs;
    }
}

impl Sum for EnergyBreakdown {
    fn sum<I: Iterator<Item = EnergyBreakdown>>(iter: I) -> EnergyBreakdown {
        iter.fold(EnergyBreakdown::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_order_sensibly() {
        let t = EnergyTable::default();
        // Data movement up the hierarchy costs strictly more per byte.
        assert!(t.rf_pj_per_byte < t.gbuf_pj_per_byte);
        assert!(t.gbuf_pj_per_byte < t.dram_pj_per_byte);
        // A divider costs more than a MACC.
        assert!(t.div_pj > t.macc_pj);
    }

    #[test]
    fn exp_as_six_maccs() {
        let t = EnergyTable::default();
        assert_eq!(t.exp_chained_pj(6), 6.0 * t.macc_pj);
    }

    #[test]
    fn breakdown_arithmetic() {
        let a = EnergyBreakdown { macc_2d_pj: 1.0, dram_pj: 2.0, ..Default::default() };
        let b = EnergyBreakdown { vector_1d_pj: 3.0, ..Default::default() };
        let mut c = a;
        c += b;
        assert_eq!(c.total_pj(), 6.0);
        let s: EnergyBreakdown = [a, b].into_iter().sum();
        assert_eq!(s.total_pj(), 6.0);
        assert_eq!(a.scaled(2.0).dram_pj, 4.0);
    }

    #[test]
    fn fractions_partition_unity() {
        let e = EnergyBreakdown {
            macc_2d_pj: 50.0,
            vector_1d_pj: 10.0,
            rf_pj: 5.0,
            gbuf_pj: 15.0,
            dram_pj: 20.0,
        };
        assert!((e.compute_fraction() + e.movement_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let e = EnergyBreakdown::default();
        assert_eq!(e.compute_fraction(), 0.0);
        assert_eq!(e.movement_fraction(), 0.0);
    }
}
