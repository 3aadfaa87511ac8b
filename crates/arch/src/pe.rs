//! Processing-element capabilities (Fig 3's PE evolution).

use std::fmt;

/// Scalar operations a PE might execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeOp {
    /// Multiply.
    Mul,
    /// Add.
    Add,
    /// Fused multiply–accumulate.
    Macc,
    /// Two-input maximum.
    Max,
    /// Division.
    Div,
    /// Exponential.
    Exp,
}

impl fmt::Display for PeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PeOp::Mul => "mul",
            PeOp::Add => "add",
            PeOp::Macc => "macc",
            PeOp::Max => "max",
            PeOp::Div => "div",
            PeOp::Exp => "exp",
        })
    }
}

/// How an architecture realizes exponentiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpCost {
    /// A dedicated/assumed single-cycle unit (how the baselines' Timeloop
    /// models charge softmax Einsums: one 1D op per iteration-space
    /// point).
    SingleOp,
    /// Chained multiply–accumulates (the paper implements exponentiation
    /// with 6 sequential MACCs on both FuseMax arrays, citing a Taylor
    /// series design \[36\], \[53\]).
    ChainedMaccs(u32),
}

impl ExpCost {
    /// Cycles one exponential occupies a PE.
    pub fn cycles(self) -> u64 {
        match self {
            ExpCost::SingleOp => 1,
            ExpCost::ChainedMaccs(n) => n as u64,
        }
    }

    /// The paper's 6-MACC exponential.
    pub const FUSEMAX: ExpCost = ExpCost::ChainedMaccs(6);
}

/// The 2D-array PE variants of Fig 3, plus the shared 1D vector PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeKind {
    /// Fig 3a: the TPU's fixed-dataflow multiply–accumulate PE.
    TpuMacc,
    /// Fig 3b: FLAT's flexible-dataflow multiply–accumulate PE.
    FlatMacc,
    /// Fig 3c: the FuseMax PE — MACC plus `max`, with a 10-entry register
    /// file; exponentiation via 6 chained MACCs.
    FuseMaxPe,
    /// The 1D vector PE (`+, ×, max, ÷` per Fig 2).
    Vector1D,
}

impl PeKind {
    /// Whether the PE can execute `op` natively (exponentiation "natively"
    /// means via its MACC chain for [`PeKind::FuseMaxPe`]).
    pub fn supports(self, op: PeOp) -> bool {
        match self {
            PeKind::TpuMacc | PeKind::FlatMacc => {
                matches!(op, PeOp::Mul | PeOp::Add | PeOp::Macc)
            }
            PeKind::FuseMaxPe => {
                matches!(op, PeOp::Mul | PeOp::Add | PeOp::Macc | PeOp::Max | PeOp::Exp)
            }
            PeKind::Vector1D => !matches!(op, PeOp::Exp),
        }
    }

    /// Register-file entries per PE (Fig 3c gives the FuseMax PE 10).
    pub fn rf_entries(self) -> usize {
        match self {
            PeKind::TpuMacc => 2,
            PeKind::FlatMacc => 4,
            PeKind::FuseMaxPe => 10,
            PeKind::Vector1D => 8,
        }
    }
}

impl fmt::Display for PeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PeKind::TpuMacc => "TPU MACC PE",
            PeKind::FlatMacc => "FLAT MACC PE",
            PeKind::FuseMaxPe => "FuseMax PE",
            PeKind::Vector1D => "1D vector PE",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpu_and_flat_pes_cannot_max_or_divide() {
        for pe in [PeKind::TpuMacc, PeKind::FlatMacc] {
            assert!(pe.supports(PeOp::Macc));
            assert!(!pe.supports(PeOp::Max));
            assert!(!pe.supports(PeOp::Div));
            assert!(!pe.supports(PeOp::Exp));
        }
    }

    #[test]
    fn fusemax_pe_adds_max_and_exp_but_not_div() {
        let pe = PeKind::FuseMaxPe;
        assert!(pe.supports(PeOp::Max));
        assert!(pe.supports(PeOp::Exp)); // via 6 chained MACCs
        assert!(!pe.supports(PeOp::Div)); // division stays on the 1D array
    }

    #[test]
    fn vector_pe_divides_but_has_no_exp_unit() {
        assert!(PeKind::Vector1D.supports(PeOp::Div));
        assert!(!PeKind::Vector1D.supports(PeOp::Exp));
    }

    #[test]
    fn exp_cost_cycles() {
        assert_eq!(ExpCost::SingleOp.cycles(), 1);
        assert_eq!(ExpCost::FUSEMAX.cycles(), 6);
    }

    #[test]
    fn fusemax_pe_has_the_ten_entry_rf() {
        assert_eq!(PeKind::FuseMaxPe.rf_entries(), 10);
        assert!(PeKind::TpuMacc.rf_entries() < PeKind::FuseMaxPe.rf_entries());
    }

    #[test]
    fn display_is_nonempty() {
        for pe in [PeKind::TpuMacc, PeKind::FlatMacc, PeKind::FuseMaxPe, PeKind::Vector1D] {
            assert!(!pe.to_string().is_empty());
        }
        assert_eq!(PeOp::Macc.to_string(), "macc");
    }
}
