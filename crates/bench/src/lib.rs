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

/// Trials per arm in [`interleaved_trials_ms`].
pub const TRIALS: usize = 7;

/// One arm's per-trial milliseconds, in trial order.
#[derive(Clone, Copy, Debug)]
pub struct Trials(pub [f64; TRIALS]);

impl Trials {
    /// `[p25, median, p75]`, linearly interpolated between order
    /// statistics.
    pub fn quartiles(&self) -> [f64; 3] {
        let mut s = self.0;
        s.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (TRIALS - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            s[lo] + frac * (s[(lo + 1).min(TRIALS - 1)] - s[lo])
        };
        [at(0.25), at(0.5), at(0.75)]
    }

    /// Applies `f` to each trial, e.g. ms → ops/s.
    pub fn each(&self, f: impl Fn(f64) -> f64) -> Trials {
        Trials(self.0.map(f))
    }

    /// Per-trial `self / other`: arms timed in the same trial share the
    /// host's state, so their ratio is steadier than a ratio of medians.
    pub fn ratio(&self, other: &Trials) -> Trials {
        Trials(std::array::from_fn(|i| self.0[i] / other.0[i]))
    }
}

/// Times every arm over [`TRIALS`] trials, each trial one [`measure_ms`]
/// (one warm-up call, then the mean of `iters` calls) per arm. The arms
/// run interleaved within a trial, so a slow phase of the host lands on
/// all of them rather than on one.
pub fn interleaved_trials_ms<const N: usize>(
    iters: usize,
    mut arms: [&mut dyn FnMut(); N],
) -> [Trials; N] {
    let mut out = [Trials([0.0; TRIALS]); N];
    for t in 0..TRIALS {
        for (arm, trials) in arms.iter_mut().zip(&mut out) {
            trials.0[t] = measure_ms(1, iters, &mut **arm);
        }
    }
    out
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
    fn quartiles_interpolate_between_order_statistics() {
        let t = Trials([7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]);
        assert_eq!(t.quartiles(), [2.5, 4.0, 5.5]);
        assert_eq!(t.ratio(&t).quartiles(), [1.0; 3]);
    }

    #[test]
    fn interleaved_trials_time_every_arm() {
        let (mut a, mut b) = (0, 0);
        let trials = interleaved_trials_ms(2, [&mut || a += 1, &mut || b += 1]);
        assert_eq!((a, b), (TRIALS * 3, TRIALS * 3));
        assert!(trials.iter().all(|t| t.0.iter().all(|&ms| ms >= 0.0)));
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
