//! Ablations of the modeling choices: pass-count vs compute trade-offs
//! (Cascades 1-3), the division-deferral optimization (IV-D), and the
//! exponential-cost sensitivity of the FuseMax design point.

use fusemax_core::cascades::pedagogical;
use fusemax_core::kernels::Algorithm;
use fusemax_core::passes::analyze_passes;
use fusemax_einsum::Evaluator;
use fusemax_model::{attention_report, ConfigKind, ModelParams};
use fusemax_tensor::{Shape, Tensor};
use fusemax_workloads::TransformerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- Ablation 1: pass reduction vs compute (Section III-C) ---
    fusemax_bench::banner("Ablation 1", "passes vs compute for Cascades 1-3 (K = 1024)");
    let k = 1024usize;
    let a = Tensor::<f64>::from_fn(Shape::of(&[("K", k)]), |c| 0.25 + (c[0] % 7) as f64 * 0.125);
    let b = Tensor::<f64>::from_fn(Shape::of(&[("K", k)]), |c| 1.0 - (c[0] % 5) as f64 * 0.0625);
    let a_i = Tensor::from_vec(Shape::of(&[("I", k)]), a.data().to_vec()).unwrap();
    let b_i = Tensor::from_vec(Shape::of(&[("I", k)]), b.data().to_vec()).unwrap();
    let ev = Evaluator::new();
    println!("{:<20} {:>6} {:>10}", "cascade", "passes", "total ops");
    for (cascade, family, inputs) in [
        (pedagogical::cascade1(), "K", [("A", a.clone()), ("B", b.clone())]),
        (pedagogical::cascade2(), "K", [("A", a.clone()), ("B", b.clone())]),
        (pedagogical::cascade3(), "I", [("A", a_i), ("B", b_i)]),
    ] {
        let passes = analyze_passes(&cascade, family).unwrap().num_passes;
        let ops = ev.evaluate(&cascade, &inputs, &[]).unwrap().total_counts().total();
        println!("{:<20} {:>6} {:>10}", cascade.name, passes, ops);
    }

    // --- Ablation 2: division deferral (Section IV-D) ---
    fusemax_bench::banner("Ablation 2", "division deferral (M=2048, P=64, E=F=64)");
    let mut rng = StdRng::seed_from_u64(5);
    let (e, f, m, p) = (64usize, 64usize, 2048usize, 64usize);
    let q = Tensor::<f64>::random_uniform(Shape::of(&[("E", e), ("P", p)]), -1.0, 1.0, &mut rng);
    let kk = Tensor::<f64>::random_uniform(Shape::of(&[("E", e), ("M", m)]), -1.0, 1.0, &mut rng);
    let v = Tensor::<f64>::random_uniform(Shape::of(&[("F", f), ("M", m)]), -1.0, 1.0, &mut rng);
    println!("{:<26} {:>10} {:>10}", "kernel", "divisions", "exps");
    for alg in [
        Algorithm::ThreePass { deferred_div: false },
        Algorithm::ThreePass { deferred_div: true },
        Algorithm::TwoPass { tile_m0: 256, deferred_div: false },
        Algorithm::TwoPass { tile_m0: 256, deferred_div: true },
        Algorithm::OnePass { tile_m0: 256 },
    ] {
        let run = alg.run(&q, &kk, &v).unwrap();
        println!("{:<26} {:>10} {:>10}", alg.name(), run.ops.div, run.ops.exp);
    }
    println!("(paper: deferral reduces divisions by M/F = {}x)", m / f);

    // --- Ablation 3: exponential cost sensitivity ---
    fusemax_bench::banner("Ablation 3", "exp cost (MACCs per exp) vs FuseMax speedup over FLAT");
    let bert = TransformerConfig::bert();
    println!(
        "{:<10} {:>14} {:>12} {:>12}",
        "exp MACCs", "t2d/t1d ratio", "speedup@64K", "util2D@64K"
    );
    for exp_maccs in [1.0, 2.0, 4.0, 6.0, 8.0, 12.0] {
        let params = ModelParams { exp_maccs, ..ModelParams::default() };
        let flat = attention_report(ConfigKind::Flat, &bert, 1 << 16, None, &params);
        let fm = attention_report(ConfigKind::FuseMaxBinding, &bert, 1 << 16, None, &params);
        let ratio = fm.busy_2d / fm.busy_1d;
        println!(
            "{:<10} {:>14.3} {:>11.2}x {:>12.2}",
            exp_maccs,
            ratio,
            flat.cycles / fm.cycles,
            fm.util_2d()
        );
    }
    fusemax_bench::paper_note(
        "the 6-MACC exponential [36] is the design point where 2D and 1D tile work \
         balance almost exactly (the 'green and blue periods' of Fig 4).",
    );
}
