//! Shared measurement helpers for the SecCloud experiment harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation (Section VII); the benches in `benches/` time the
//! same primitives with the self-calibrating [`Bench`] harness (no
//! Criterion — the workspace builds offline with zero external
//! dependencies). See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results.
#![forbid(unsafe_code)]

use std::time::Instant;

/// Measures the mean wall-clock milliseconds of `f` over `iters` calls
/// after `warmup` unmeasured calls.
///
/// A deliberately simple estimator for the experiment binaries, which only
/// need order-of-magnitude figures to print paper-style rows. The rigorous
/// timing source is the repeatable benchmark in `perfbench/` (interleaved
/// runs, end-to-end and per-layer metrics).
pub fn measure_ms<T>(warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(iters > 0, "need at least one measured iteration");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1_000.0 / iters as f64
}

/// Formats a milliseconds value with adaptive precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0} ms")
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.1} µs", ms * 1_000.0)
    }
}

/// Formats a Markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// A self-calibrating benchmark runner: picks an iteration count targeting
/// `budget_ms` of wall time per case, measures, and prints one aligned row
/// per case. The stand-in for Criterion in an offline workspace.
pub struct Bench {
    group: String,
    budget_ms: f64,
    results: Vec<(String, f64)>,
}

impl Bench {
    /// Starts a named bench group with a ~300 ms measurement budget per case.
    pub fn group(name: &str) -> Self {
        println!("\n== {name} ==");
        Self {
            group: name.to_string(),
            budget_ms: 300.0,
            results: Vec::new(),
        }
    }

    /// Overrides the per-case measurement budget (milliseconds).
    pub fn budget_ms(mut self, ms: f64) -> Self {
        self.budget_ms = ms;
        self
    }

    /// Times `f`, printing `group/label` with the mean latency and rate.
    /// Returns the mean milliseconds per call.
    pub fn bench<T>(&mut self, label: &str, mut f: impl FnMut() -> T) -> f64 {
        // Calibrate with one untimed call, then size the measured run.
        let start = Instant::now();
        std::hint::black_box(f());
        let probe_ms = (start.elapsed().as_secs_f64() * 1_000.0).max(1e-6);
        let iters = ((self.budget_ms / probe_ms) as usize).clamp(1, 10_000);
        let warmup = (iters / 10).max(1);
        let ms = measure_ms(warmup, iters, f);
        let rate = 1_000.0 / ms;
        println!(
            "{:<44} {:>12}   {:>12.1} ops/s   ({} iters)",
            format!("{}/{label}", self.group),
            fmt_ms(ms),
            rate,
            iters
        );
        self.results.push((label.to_string(), ms));
        ms
    }

    /// The `(label, mean ms)` rows measured so far.
    pub fn results(&self) -> &[(String, f64)] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_time() {
        let ms = measure_ms(1, 5, || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(ms > 0.0);
        assert!(ms < 1_000.0, "a 1k-iteration loop is not a second");
    }

    #[test]
    fn fmt_ms_ranges() {
        assert_eq!(fmt_ms(250.0), "250 ms");
        assert_eq!(fmt_ms(4.14), "4.14 ms");
        assert_eq!(fmt_ms(0.5), "500.0 µs");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_iters_panics() {
        let _ = measure_ms(0, 0, || 1);
    }
}
