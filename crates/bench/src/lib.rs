#![warn(missing_docs)]

//! Shared helpers for the figure-regeneration bench harnesses.
//!
//! Each bench target in `benches/` regenerates one table or figure from
//! the paper's evaluation (§VI) and prints the same rows/series the paper
//! reports; `cargo bench` therefore reproduces the entire evaluation. The
//! targets print modeled cycles and energy, not host time: the simulator's
//! own wall clock is measured by `perfbench/`.

/// Prints a banner naming the experiment and its paper anchor.
///
/// # Example
///
/// ```
/// fusemax_bench::banner("Fig 8", "speedup of attention over the unfused baseline");
/// ```
pub fn banner(figure: &str, description: &str) {
    println!("{}", "=".repeat(72));
    println!("{figure}: {description}");
    println!("{}", "=".repeat(72));
}

/// Prints a paper-vs-measured footnote line.
pub fn paper_note(note: &str) {
    println!("\n[paper] {note}\n");
}

#[cfg(test)]
mod tests {
    #[test]
    fn helpers_do_not_panic() {
        super::banner("Fig X", "demo");
        super::paper_note("demo");
    }
}
