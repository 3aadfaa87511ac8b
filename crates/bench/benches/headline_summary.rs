//! The Section VI headline numbers, averaged over all models and lengths.

use fusemax_eval::summary::{headline, serving_headline};
use fusemax_model::ModelParams;

fn main() {
    fusemax_bench::banner("Headline", "average speedups/energy across 4 models x 6 lengths");
    println!("{}", headline(&ModelParams::default()));
    println!("{}", serving_headline(&ModelParams::default()));
    fusemax_bench::paper_note(
        "paper: attention 6.7x vs FLAT (79% energy), 10x vs unfused (77%); \
         end-to-end 5.3x vs FLAT (83%), 7.6x vs unfused (82%). The analytical model \
         stands in for the paper's Timeloop/Accelergy setup: expect its shapes, not its digits.",
    );
}
