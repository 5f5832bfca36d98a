//! Seeded input generation, order statistics, and the environment block.

use std::path::Path;

/// SplitMix64: a small deterministic generator for benchmark inputs. Each
/// workload derives one stream per purpose from the run's `--seed`, so the
/// same seed always produces the same tenants, blocks and requests.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut state = seed ^ 0x6a09_e667_f3bc_c908;
        for b in stream.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A fresh identity string such as `tenant-3f2a…`.
    pub fn identity(&mut self, prefix: &str) -> String {
        format!("{prefix}-{:016x}", self.next_u64())
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0)
}

pub fn mean_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Cumulative CPU time, in clock ticks: the host's steal and total from
/// the first line of `/proc/stat`, and this process's own (utime + stime
/// of every thread, exited ones included) from `/proc/self/stat`. Steal
/// is time the hypervisor ran something else while this machine's
/// virtual CPUs wanted to run. A kernel with paravirtual time accounting
/// leaves it out of a task's own CPU time.
#[derive(Clone, Copy)]
pub struct CpuSample {
    steal: u64,
    total: u64,
    own: u64,
}

impl CpuSample {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        // Fields 14 and 15 of `/proc/self/stat`; the command name before
        // them may hold spaces, so count from the closing parenthesis.
        let own = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                let rest = s.rsplit_once(')')?.1;
                let f: Vec<u64> = rest
                    .split_whitespace()
                    .skip(11)
                    .take(2)
                    .filter_map(|t| t.parse().ok())
                    .collect();
                Some(f.iter().sum())
            })
            .unwrap_or(0);
        CpuSample {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
            own,
        }
    }

    /// Share of all CPU time stolen since `self`, in percent.
    pub fn steal_pct(self, later: CpuSample) -> f64 {
        let total = later.total.saturating_sub(self.total).max(1);
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }

    /// Share of the CPU time this process wanted since `self` that it got:
    /// own / (own + stolen). Stolen time stretches every wall-clock
    /// interval of a CPU-bound run by 1 / share, so wall time × share is
    /// the wall time with the host's steal taken out. 1 when nothing was
    /// stolen or nothing ran.
    pub fn delivered(self, later: CpuSample) -> f64 {
        let own = later.own.saturating_sub(self.own) as f64;
        let stolen = later.steal.saturating_sub(self.steal) as f64;
        if own + stolen > 0.0 {
            own / (own + stolen)
        } else {
            1.0
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and build facts every result line carries.
pub fn environment_json(root: &Path, threads: usize, workers: usize, corpus_rev: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"seccloud_threads\": {threads}, \
         \"server_workers\": {workers}, \"pairing_backend\": \"{}\", \"git_head\": \"{}\", \
         \"lint_corpus_rev\": \"{corpus_rev}\"}}",
        escape_json(&cpu),
        seccloud_pairing::arch::active().name(),
        read_git_head(root),
    )
}

/// `git rev-parse HEAD`, read straight from `.git` so the benchmark never
/// looks outside its checkout; "unknown" when the checkout is not a git
/// repository.
fn read_git_head(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn delivered_share_of_cpu_time() {
        let at = |steal, own| CpuSample {
            steal,
            total: 0,
            own,
        };
        assert_eq!(at(10, 100).delivered(at(40, 190)), 0.75);
        assert_eq!(at(10, 100).delivered(at(10, 190)), 1.0);
        assert_eq!(at(10, 100).delivered(at(10, 100)), 1.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(8, "x").next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
    }
}
