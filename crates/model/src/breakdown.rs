//! Exact cost attribution: `CostBreakdown` trees whose children fold-sum
//! **bit-exactly** to their parent totals, plus a per-einsum roofline
//! classification (arithmetic intensity vs. machine balance).
//!
//! The paper's argument is an attribution argument — Fig 6/7 decompose
//! attention cycles per einsum into compute vs. memory vs. drain time.
//! This module attaches that decomposition to [`AttentionReport`] and
//! [`E2eReport`] without perturbing a single modeled number: parent
//! totals are the existing report values, and every child set is produced
//! by [`exact_split`], which charges each natural cost and then assigns
//! the floating-point residual to the overlap/drain bucket so the IEEE
//! left-fold `((c₀ + c₁) + c₂) + …` reproduces the parent total exactly.
//!
//! Attribution convention (hierarchical): earlier resources claim
//! overlapped cycles first. The 2D array charges its full busy time, the
//! 1D array charges only cycles not hidden under the 2D roofline, DRAM
//! charges only exposed memory cycles, and the residual is pipeline
//! fill/drain plus modeling overhead.

use crate::common::Machine;
use crate::e2e::E2eReport;
use crate::report::{AttentionReport, AttnWork};
use fusemax_arch::ArchConfig;

/// Steps one representable `f64` up (toward `+∞`).
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Steps one representable `f64` down (toward `-∞`).
fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

/// IEEE left-fold of a charge list: `((c₀ + c₁) + c₂) + …`.
fn fold(charges: &[f64]) -> f64 {
    charges.iter().fold(0.0, |acc, c| acc + c)
}

/// Splits `total` into `naturals.len() + 1` non-negative charges whose
/// left-fold equals `total` **bit-exactly**.
///
/// Each natural cost is charged in order, clamped so the running fold
/// never exceeds `total` (earlier charges claim overlapped budget first);
/// the final charge is the residual that lands the fold exactly on
/// `total`. The residual is found by a monotone neighbor search around
/// `total - running`, with layered fallbacks ending in the always-exact
/// degenerate split `[0, …, 0, total]`.
///
/// ```
/// use fusemax_model::exact_split;
/// let charges = exact_split(10.0, &[3.0, 4.0]);
/// assert_eq!(charges.len(), 3);
/// assert_eq!(charges.iter().fold(0.0, |a, c| a + c), 10.0);
/// ```
pub fn exact_split(total: f64, naturals: &[f64]) -> Vec<f64> {
    let degenerate = |total: f64, n: usize| {
        let mut v = vec![0.0; n];
        v.push(total);
        v
    };
    if !total.is_finite() || total < 0.0 {
        return degenerate(total, naturals.len());
    }
    let mut charges = Vec::with_capacity(naturals.len() + 1);
    let mut running = 0.0f64;
    for &n in naturals {
        let mut c = n.max(0.0).min(total - running);
        if !c.is_finite() || c < 0.0 {
            c = 0.0;
        }
        // Rounding in `running + c` can overshoot the remaining budget;
        // step the charge down one ulp at a time until it fits.
        let mut guard = 0;
        while c > 0.0 && running + c > total {
            c = next_down(c).max(0.0);
            guard += 1;
            if guard > 128 {
                c = 0.0;
                break;
            }
        }
        running += c;
        charges.push(c);
    }
    // Residual: find r ≥ 0 with fl(running + r) == total by monotone
    // neighbor search around the rounded difference.
    let mut r = (total - running).max(0.0);
    let mut guard = 0;
    while running + r > total && r > 0.0 && guard < 128 {
        r = next_down(r).max(0.0);
        guard += 1;
    }
    guard = 0;
    while running + r < total && guard < 128 {
        r = next_up(r);
        guard += 1;
    }
    if running + r == total && r >= 0.0 {
        charges.push(r);
        return charges;
    }
    // Fallback: nudge the last nonzero charge down one ulp (freeing one
    // step of budget for the residual search) and retry once.
    if let Some(last) = charges.iter().rposition(|&c| c > 0.0) {
        let mut retry = charges.clone();
        retry[last] = next_down(retry[last]).max(0.0);
        let running = fold(&retry);
        let mut r = (total - running).max(0.0);
        let mut guard = 0;
        while running + r > total && r > 0.0 && guard < 128 {
            r = next_down(r).max(0.0);
            guard += 1;
        }
        guard = 0;
        while running + r < total && guard < 128 {
            r = next_up(r);
            guard += 1;
        }
        if running + r == total && r >= 0.0 {
            retry.push(r);
            return retry;
        }
    }
    // Terminal fallback: zero every charge; 0 + … + 0 + total == total
    // always.
    degenerate(total, naturals.len())
}

/// One node of an exact cost-attribution tree.
///
/// Invariant (enforced by [`CostNode::validate`]): for every node with
/// children, the IEEE left-fold of the children's totals equals the
/// node's total bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CostNode {
    /// Phase or resource name (`attention`, `compute_2d`, `QK`, …).
    pub label: String,
    /// Cycles attributed to this node.
    pub total: f64,
    /// Exact decomposition of `total`; empty for leaves.
    pub children: Vec<CostNode>,
}

impl CostNode {
    /// A leaf node.
    pub fn leaf(label: impl Into<String>, total: f64) -> Self {
        CostNode { label: label.into(), total, children: Vec::new() }
    }

    /// Checks the exact-sum invariant recursively: every non-leaf node's
    /// children must left-fold to the node's total bit-for-bit.
    pub fn validate(&self) -> Result<(), String> {
        if !self.children.is_empty() {
            let sum = fold(&self.children.iter().map(|c| c.total).collect::<Vec<_>>());
            if sum.to_bits() != self.total.to_bits() {
                return Err(format!(
                    "{}: children fold to {sum:e}, node total is {:e}",
                    self.label, self.total
                ));
            }
        }
        for child in &self.children {
            child.validate()?;
        }
        Ok(())
    }

    /// Leaf stacks in inferno folded format: `(“root;…;leaf”, cycles)`
    /// per leaf, depth-first.
    pub fn folded(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        self.folded_into(String::new(), &mut out);
        out
    }

    fn folded_into(&self, prefix: String, out: &mut Vec<(String, f64)>) {
        let path =
            if prefix.is_empty() { self.label.clone() } else { format!("{prefix};{}", self.label) };
        if self.children.is_empty() {
            out.push((path, self.total));
        } else {
            for child in &self.children {
                child.folded_into(path.clone(), out);
            }
        }
    }
}

/// Builds the four resource children of a phase: `compute_2d` (optionally
/// decomposed per einsum), `compute_1d` (exposed only), `dram_bound`
/// (exposed memory cycles), and the `drain` residual
/// (fill/drain/warmup/interleave plus rounding).
fn resource_children(
    total: f64,
    busy_2d: f64,
    busy_1d: f64,
    dram_cycles: f64,
    einsums: &[(&'static str, f64)],
) -> Vec<CostNode> {
    let charges = exact_split(total, &[busy_2d, busy_1d, dram_cycles]);
    let mut compute_2d = CostNode::leaf("compute_2d", charges[0]);
    if !einsums.is_empty() {
        // All einsums but the last charge their natural cost; the last
        // absorbs the residual so the sub-split stays exact too.
        let naturals: Vec<f64> = einsums[..einsums.len() - 1].iter().map(|(_, c)| *c).collect();
        let sub = exact_split(charges[0], &naturals);
        compute_2d.children = einsums
            .iter()
            .zip(&sub)
            .map(|((label, _), &charge)| CostNode::leaf(*label, charge))
            .collect();
    }
    vec![
        compute_2d,
        CostNode::leaf("compute_1d", charges[1]),
        CostNode::leaf("dram_bound", charges[2]),
        CostNode::leaf("drain", charges[3]),
    ]
}

impl AttentionReport {
    /// The exact cost attribution of one attention layer on `arch`:
    /// resource children (`compute_2d` per einsum, exposed `compute_1d`,
    /// exposed `dram_bound`, `drain` residual) folding bit-exactly to
    /// [`AttentionReport::cycles`].
    pub fn cost_breakdown(&self, arch: &ArchConfig) -> CostNode {
        let m = Machine::of(arch);
        CostNode {
            label: "attention".into(),
            total: self.cycles,
            children: resource_children(
                self.cycles,
                self.busy_2d,
                self.busy_1d,
                self.dram_bytes / m.bpc,
                &self.einsum_2d,
            ),
        }
    }
}

impl E2eReport {
    /// The exact end-to-end cost attribution on `arch`: an `attention`
    /// subtree (per-einsum resource children, scaled over all layers) and
    /// a `linear` residual subtree, folding bit-exactly to
    /// [`E2eReport::cycles`].
    pub fn cost_breakdown(&self, arch: &ArchConfig) -> CostNode {
        let m = Machine::of(arch);
        let layers = self.layers as f64;
        let split = exact_split(self.cycles, &[self.attention.cycles * layers]);
        let scaled = self.attention.einsum_2d.map(|(n, c)| (n, c * layers));
        let attention = CostNode {
            label: "attention".into(),
            total: split[0],
            children: resource_children(
                split[0],
                self.attention.busy_2d * layers,
                self.attention.busy_1d * layers,
                self.attention.dram_bytes / m.bpc * layers,
                &scaled,
            ),
        };
        let linear = CostNode {
            label: "linear".into(),
            total: split[1],
            children: resource_children(
                split[1],
                self.linear.busy_2d * layers,
                self.linear.busy_1d * layers,
                self.linear.dram_bytes / m.bpc * layers,
                &[],
            ),
        };
        CostNode { label: "e2e".into(), total: self.cycles, children: vec![attention, linear] }
    }
}

/// The roofline classification of one attention einsum: arithmetic
/// intensity (flops per compulsory DRAM byte) against the machine balance
/// of the 2D array.
#[derive(Debug, Clone, PartialEq)]
pub struct EinsumRoofline {
    /// Einsum label (`QK`, `LM`, `SLN`, `SLD`, `SLNV/AV`).
    pub label: &'static str,
    /// Floating-point operations (MACC = 2 flops).
    pub flops: f64,
    /// Compulsory operand traffic in bytes (each operand read/written
    /// once).
    pub bytes: f64,
    /// Arithmetic intensity, flops per byte.
    pub intensity: f64,
    /// Machine balance of the 2D array, flops per byte per cycle of DRAM.
    pub machine_balance: f64,
    /// `true` when the einsum sits left of the roofline ridge
    /// (`intensity < machine_balance`).
    pub memory_bound: bool,
}

/// Classifies the five attention einsums of `work` on `arch` against the
/// machine's roofline ridge.
///
/// Flop counts follow the cascade taxonomy (QK and AV are tensor
/// products at `2·E·L²` / `2·F·L²` flops per head; the softmax passes LM,
/// SLN, SLD are pointwise at ~1, ~7, and ~1 flops per point). Bytes are
/// the compulsory traffic: each operand tensor read or written exactly
/// once.
pub fn attention_roofline(work: &AttnWork, arch: &ArchConfig) -> Vec<EinsumRoofline> {
    let m = Machine::of(arch);
    let pts = work.points();
    let bh = work.batch_heads;
    let w = m.w;
    let machine_balance = 2.0 * m.pe2 / m.bpc;
    let classify = |label: &'static str, flops: f64, bytes: f64| {
        let intensity = if bytes > 0.0 { flops / bytes } else { f64::INFINITY };
        EinsumRoofline {
            label,
            flops,
            bytes,
            intensity,
            machine_balance,
            memory_bound: intensity < machine_balance,
        }
    };
    vec![
        classify("QK", 2.0 * work.e * pts, bh * w * 2.0 * work.e * work.l + w * pts),
        classify("LM", pts, 2.0 * w * pts),
        classify("SLN", 7.0 * pts, 2.0 * w * pts),
        classify("SLD", pts, 2.0 * w * pts),
        classify("SLNV/AV", 2.0 * work.f * pts, w * pts + 2.0 * bh * w * work.f * work.l),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigKind;
    use crate::e2e::e2e_report;
    use crate::params::ModelParams;
    use fusemax_workloads::TransformerConfig;

    #[test]
    fn exact_split_is_bit_exact_on_adversarial_inputs() {
        let cases: Vec<(f64, Vec<f64>)> = vec![
            (10.0, vec![3.0, 4.0]),
            (1.0, vec![0.1, 0.2, 0.3]),
            (1e18, vec![1e18 / 3.0, 1e18 / 3.0, 1e18 / 3.0]),
            (
                std::f64::consts::PI,
                vec![
                    std::f64::consts::FRAC_PI_3,
                    // One ulp above PI/3, so the naive sum misses PI.
                    f64::from_bits(std::f64::consts::FRAC_PI_3.to_bits() + 1),
                ],
            ),
            (1e-300, vec![3e-301, 3e-301]),
            (0.0, vec![0.0, 0.0]),
            (5.0, vec![9.0, 9.0]),
            (7.0, vec![]),
            (1.0 + f64::EPSILON, vec![1.0, f64::EPSILON / 2.0]),
        ];
        for (total, naturals) in cases {
            let charges = exact_split(total, &naturals);
            assert_eq!(charges.len(), naturals.len() + 1);
            assert_eq!(fold(&charges).to_bits(), total.to_bits(), "fold({charges:?}) != {total:e}");
            for c in &charges {
                assert!(*c >= 0.0, "negative charge in {charges:?}");
            }
        }
    }

    #[test]
    fn exact_split_charges_naturals_when_they_fit() {
        let charges = exact_split(10.0, &[3.0, 4.0]);
        assert_eq!(charges, vec![3.0, 4.0, 3.0]);
        // Over-budget naturals clamp in order: earlier charges win.
        let clamped = exact_split(5.0, &[9.0, 9.0]);
        assert_eq!(clamped[0], 5.0);
        assert_eq!(clamped[1], 0.0);
    }

    #[test]
    fn attention_breakdowns_validate_for_every_kind_and_length() {
        let bert = TransformerConfig::bert();
        let params = ModelParams::default();
        for kind in ConfigKind::all() {
            for shift in [10, 14, 18] {
                let arch = kind.default_arch();
                let r = crate::attention_report(kind, &bert, 1 << shift, Some(&arch), &params);
                let tree = r.cost_breakdown(&arch);
                tree.validate().unwrap();
                assert_eq!(tree.total, r.cycles);
                assert_eq!(tree.children.len(), 4);
            }
        }
    }

    #[test]
    fn e2e_breakdowns_validate_and_split_attention_vs_linear() {
        let bert = TransformerConfig::bert();
        let params = ModelParams::default();
        for kind in ConfigKind::all() {
            let arch = kind.default_arch();
            let r = e2e_report(kind, &bert, 1 << 14, &params);
            let tree = r.cost_breakdown(&arch);
            tree.validate().unwrap();
            assert_eq!(tree.children.len(), 2);
            assert_eq!(tree.children[0].label, "attention");
            assert_eq!(tree.children[1].label, "linear");
            // The phase split tracks the report's own fraction closely.
            let frac = tree.children[0].total / tree.total;
            assert!((frac - r.attention_cycle_fraction()).abs() < 1e-6);
        }
    }

    #[test]
    fn einsum_children_reproduce_the_fig7_decomposition() {
        let bert = TransformerConfig::bert();
        let params = ModelParams::default();
        let kind = ConfigKind::FuseMaxBinding;
        let arch = kind.default_arch();
        let r = crate::attention_report(kind, &bert, 1 << 16, Some(&arch), &params);
        let tree = r.cost_breakdown(&arch);
        let compute_2d = &tree.children[0];
        assert_eq!(compute_2d.label, "compute_2d");
        assert_eq!(compute_2d.children.len(), 5);
        // QK and SLNV/AV dominate (Fig 7), and the sub-split is exact.
        let qk = compute_2d.children.iter().find(|c| c.label == "QK").unwrap().total;
        let av = compute_2d.children.iter().find(|c| c.label == "SLNV/AV").unwrap().total;
        assert!((qk + av) / compute_2d.total > 0.9);
        tree.validate().unwrap();
    }

    #[test]
    fn folded_stacks_cover_the_full_total() {
        let bert = TransformerConfig::bert();
        let params = ModelParams::default();
        let r = e2e_report(ConfigKind::FuseMaxBinding, &bert, 1 << 14, &params);
        let tree = r.cost_breakdown(&ConfigKind::FuseMaxBinding.default_arch());
        let folded = tree.folded();
        assert!(!folded.is_empty());
        for (stack, _) in &folded {
            assert!(stack.starts_with("e2e;"), "{stack}");
            assert!(!stack.contains(";;"), "{stack}");
        }
        let covered: f64 = folded.iter().map(|(_, v)| v).sum();
        assert!((covered - tree.total).abs() / tree.total < 1e-12);
    }

    #[test]
    fn roofline_classifies_tensor_products_compute_bound_at_long_length() {
        let work = AttnWork::from_workload(&TransformerConfig::bert(), 1 << 16);
        let arch = ConfigKind::FuseMaxBinding.default_arch();
        let points = attention_roofline(&work, &arch);
        assert_eq!(points.len(), 5);
        let qk = points.iter().find(|p| p.label == "QK").unwrap();
        let lm = points.iter().find(|p| p.label == "LM").unwrap();
        // QK at L=64K has intensity ~E/w per point-side; the pointwise
        // softmax passes sit far left of the ridge.
        assert!(lm.memory_bound);
        assert!(qk.intensity > lm.intensity);
        for p in &points {
            assert_eq!(p.memory_bound, p.intensity < p.machine_balance);
            assert!(p.flops > 0.0 && p.bytes > 0.0);
        }
    }
}
