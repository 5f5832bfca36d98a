//! SecCloud's benchmark: four named workloads against the real crates, the
//! end-to-end metrics of each, and a traced run that splits a job into the
//! self time of each layer it calls.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload audit_rpc --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` the run sets the workload up several times (the median
//! is `setup_s`), then measures it for `--seconds`. Every end-to-end time
//! is wall-clock time with the host's CPU steal taken out (see
//! [`CpuSample::delivered`]). With `--trace 1` it measures half the time
//! untraced and half traced, and reports the layer metrics, the self-time
//! breakdown and the tracing overhead; the spans are written to
//! `.bench_out/` at the repository root. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `README.md` for the workloads and what each layer
//! metric should move.
#![forbid(unsafe_code)]

mod epoch;
mod lint;
mod rpc;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use seccloud_cloudsim::behavior::Behavior;

use crate::stats::{
    environment_json, escape_json, median_of, nearest_rank, peak_rss_mb, CpuSample,
};
use crate::trace::{Breakdown, Span, LAYERS};

/// Worker threads for the parallel kernels (`SECCLOUD_THREADS`) and for
/// the socket server: the 2-core host this benchmark was sized on.
pub const THREADS: usize = 2;
pub const WORKERS: usize = 2;
/// Closed-loop clients in the socket workloads.
pub const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Largest share of job time, in percent, the traced run's layer self
/// times may leave unexplained.
const MAX_REMAINDER_PCT: f64 = 10.0;

const WORKLOADS: [&str; 4] = ["audit_rpc", "ingest_rpc", "epoch_registry", "lint_corpus"];

/// End-to-end metrics, printed with tracing off.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, printed by the traced run. Every workload prints
/// every name; a layer the workload does not call reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("process.peak_rss_mb", "MiB"),
    ("host.cpu_steal_pct", "%"),
    ("net.rpc_overhead_store_ms", "ms"),
    ("net.rpc_overhead_compute_ms", "ms"),
    ("net.rpc_overhead_audit_ms", "ms"),
    ("net.bytes_per_job", "bytes"),
    ("net.connections_per_job", "count"),
    ("cloudsim.dispatch_store_ms", "ms"),
    ("cloudsim.dispatch_compute_ms", "ms"),
    ("cloudsim.dispatch_audit_ms", "ms"),
    ("cloudsim.dispatch_util", "ratio"),
    ("cloudsim.dispatch_busy_s", "s"),
    ("agency.local_ms", "ms"),
    ("resilience.audit_rounds_per_job", "count"),
    ("pairing.public_cache_hit_ratio", "ratio"),
    ("pairing.public_cache_lookups", "count"),
    ("pairing.secret_cache_hit_ratio", "ratio"),
    ("pairing.secret_cache_lookups", "count"),
    ("ibs.from_identity_us", "us"),
    ("registry.enroll_us", "us"),
    ("registry.rotate_ms", "ms"),
    ("registry.commit_ms", "ms"),
    ("ibs.sk_prepared_us", "us"),
    ("registry.fold_us", "us"),
    ("registry.fused_verify_ms", "ms"),
    ("analyzer.lex_ms", "ms"),
    ("analyzer.findings", "count"),
    ("analyzer.allowances", "count"),
    ("self.agency_ms", "ms"),
    ("self.tenant_ms", "ms"),
    ("self.net_ms", "ms"),
    ("self.cloudsim_ms", "ms"),
    ("self.registry_ms", "ms"),
    ("self.ibs_ms", "ms"),
    ("self.analyzer_ms", "ms"),
    ("self.harness_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.jobs", "count"),
    ("tail.job_p75_ms", "ms"),
    ("tail.job_p90_ms", "ms"),
    ("trace_overhead.job_p50_ms", "ms"),
    ("trace_overhead.job_p75_ms", "ms"),
    ("trace_overhead.jobs_per_s", "1/s"),
];

/// What one measured phase produced.
#[derive(Default)]
pub struct Outcome {
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    /// The denominator of `jobs_per_s`: wall time of the measured loop,
    /// harness work between jobs included.
    pub wall_s: f64,
    /// Share of the CPU time the run wanted that the host delivered (see
    /// [`CpuSample::delivered`]); set by [`measure_world`].
    pub delivered: f64,
    pub layer: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    /// Counters a correct run keeps at 0: connections shed, transient
    /// faults, dispatches that matched no client RPC. Printed on the
    /// `info` line; any other value makes the run incorrect.
    pub must_be_zero: Vec<(&'static str, f64)>,
    /// Counters printed on the `info` line for reference only.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Job latency percentile as measured, host steal included.
    fn raw_percentile(&self, p: f64) -> f64 {
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        nearest_rank(&v, p)
    }

    fn raw_jobs_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s.max(1e-9)
    }

    /// Job latency percentile with the host's CPU steal taken out.
    fn percentile(&self, p: f64) -> f64 {
        self.raw_percentile(p) * self.delivered
    }

    /// Jobs per second of wall time with the host's CPU steal taken out.
    fn jobs_per_s(&self) -> f64 {
        self.raw_jobs_per_s() / self.delivered.max(1e-9)
    }

    fn zero_counters_hold(&self) -> bool {
        self.must_be_zero.iter().all(|&(_, v)| v == 0.0)
    }

    /// `"name": value` pairs of the counters, for the `info` line.
    fn counters_json(&self) -> String {
        self.must_be_zero
            .iter()
            .chain(&self.notes)
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The last value recorded under `name`, or 0 for a layer not called.
    fn layer_value(&self, name: &str) -> f64 {
        self.layer
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Every layer's self time per job.
pub fn breakdown_metrics(b: &Breakdown) -> Vec<(&'static str, f64)> {
    LAYERS
        .iter()
        .map(|&(layer, name)| (name, b.ms_per_job(layer)))
        .collect()
}

enum World {
    Rpc(rpc::RpcWorld),
    Epoch(epoch::EpochWorld),
    Lint(lint::LintWorld),
}

fn setup_world(workload: &str, seed: u64, traced: bool, bench_dir: &Path) -> World {
    match workload {
        "audit_rpc" => World::Rpc(rpc::setup_rpc_world(
            rpc::Kind::Audit,
            seed,
            traced,
            Behavior::Honest,
            CLIENTS,
        )),
        "ingest_rpc" => World::Rpc(rpc::setup_rpc_world(
            rpc::Kind::Ingest,
            seed,
            traced,
            Behavior::Honest,
            CLIENTS,
        )),
        "epoch_registry" => World::Epoch(epoch::setup_epoch_world(seed, traced)),
        _ => World::Lint(lint::setup_lint_world(bench_dir, traced)),
    }
}

/// Runs one phase with the prepared-key cache counters zeroed, returning
/// the outcome (with the host's CPU steal over the phase) and each
/// cache's (hits, lookups).
fn measure_world(world: World, seconds: f64) -> (Outcome, [(u64, u64); 2]) {
    let caches = [
        seccloud_pairing::cache::global(),
        seccloud_pairing::cache::secret(),
    ];
    for c in caches {
        c.reset_counters();
    }
    let cpu = CpuSample::now();
    let mut outcome = match world {
        World::Rpc(w) => rpc::measure_rpc(w, seconds),
        World::Epoch(w) => epoch::measure_epochs(w, seconds),
        World::Lint(w) => lint::measure_lint(w, seconds),
    };
    let cpu_after = CpuSample::now();
    outcome.delivered = cpu.delivered(cpu_after);
    outcome
        .layer
        .push(("host.cpu_steal_pct", cpu.steal_pct(cpu_after)));
    let counts = caches.map(|c| (c.hits(), c.hits() + c.misses()));
    (outcome, counts)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_bench_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Pinned before any thread exists; every parallel kernel reads it.
    std::env::set_var("SECCLOUD_THREADS", THREADS.to_string());
    let args = match parse_bench_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().unwrap_or(bench_dir);
    let env_block = environment_json(root, THREADS, WORKERS, lint::CORPUS_REV);
    println!("environment {env_block}");
    println!(
        "run {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"clients\": {CLIENTS}, \"ingest_pool_blocks_per_tenant\": {}}}",
        escape_json(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rpc::INGEST_POOL_BLOCKS,
    );
    let (correct, attempted, failed, metrics) = if args.trace {
        run_traced(&args, bench_dir, root, &env_block)
    } else {
        run_untraced(&args, bench_dir)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Checks outside any timed region that apply to the workload.
fn checks_outside_timing(workload: &str, seed: u64) -> bool {
    if workload != "audit_rpc" {
        return true;
    }
    let convicted = rpc::cheater_is_convicted(seed);
    println!("cheater convicted on every audit job: {convicted}");
    convicted
}

fn run_untraced(args: &Args, bench_dir: &Path) -> (bool, u64, u64, Metrics) {
    // Each set-up's wall time as measured, and with the host's CPU steal
    // over it taken out.
    let (mut raw_setup_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut world = None;
    for _ in 0..SETUPS {
        // The previous set-up's server and clients stop before the next
        // set-up is timed.
        drop(world.take());
        let cpu = CpuSample::now();
        let t = Instant::now();
        let w = setup_world(&args.workload, args.seed, false, bench_dir);
        let wall = t.elapsed().as_secs_f64();
        raw_setup_s.push(wall);
        setup_s.push(wall * cpu.delivered(CpuSample::now()));
        world = Some(w);
    }
    let world = world.expect("at least one set-up");
    let (out, _) = measure_world(world, args.seconds);
    let correct = checks_outside_timing(&args.workload, args.seed)
        && out.failed == 0
        && out.zero_counters_hold();
    let jobs = out.latencies_ms.len() as u64;
    println!(
        "info {{\"samples\": {jobs}, \"job_p75_ms\": {}, \"job_p90_ms\": {}, \"job_p99_ms\": {}, \"failed_ratio\": {}, \
         \"peak_rss_mb\": {}, \"cpu_steal_pct\": {}, \"cpu_delivered\": {}, \"raw_job_p50_ms\": {}, \
         \"raw_jobs_per_s\": {}, \"setups_s\": {setup_s:?}, \"raw_setups_s\": {raw_setup_s:?}, \"counters\": {{{}}}}}",
        out.percentile(75.0),
        out.percentile(90.0),
        out.percentile(99.0),
        out.failed as f64 / jobs.max(1) as f64,
        peak_rss_mb(),
        out.layer_value("host.cpu_steal_pct"),
        out.delivered,
        out.raw_percentile(50.0),
        out.raw_jobs_per_s(),
        out.counters_json(),
    );
    let values = [median_of(&setup_s), out.percentile(50.0), out.jobs_per_s()];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    (correct, jobs, out.failed, metrics)
}

fn run_traced(
    args: &Args,
    bench_dir: &Path,
    root: &Path,
    env_block: &str,
) -> (bool, u64, u64, Metrics) {
    let half = args.seconds / 2.0;
    let (plain, _) = measure_world(
        setup_world(&args.workload, args.seed, false, bench_dir),
        half,
    );
    let (mut out, caches) = measure_world(
        setup_world(&args.workload, args.seed, true, bench_dir),
        half,
    );
    let breakdown = Breakdown::from_spans(&out.spans);
    let remainder = breakdown.remainder_pct();
    let correct = checks_outside_timing(&args.workload, args.seed)
        && plain.failed == 0
        && out.failed == 0
        && plain.zero_counters_hold()
        && out.zero_counters_hold()
        && remainder.abs() <= MAX_REMAINDER_PCT;
    println!(
        "info {{\"untraced\": {{{}}}, \"traced\": {{{}}}, \"self_remainder_pct\": {remainder}}}",
        plain.counters_json(),
        out.counters_json(),
    );

    let ratio = |(hits, lookups): (u64, u64)| hits as f64 / lookups.max(1) as f64;
    out.layer.extend([
        ("process.peak_rss_mb", peak_rss_mb()),
        ("pairing.public_cache_hit_ratio", ratio(caches[0])),
        ("pairing.public_cache_lookups", caches[0].1 as f64),
        ("pairing.secret_cache_hit_ratio", ratio(caches[1])),
        ("pairing.secret_cache_lookups", caches[1].1 as f64),
        ("trace.wall_s", out.wall_s),
        ("trace.jobs", out.latencies_ms.len() as f64),
        ("tail.job_p75_ms", plain.percentile(75.0)),
        ("tail.job_p90_ms", plain.percentile(90.0)),
        (
            "trace_overhead.job_p50_ms",
            out.percentile(50.0) - plain.percentile(50.0),
        ),
        (
            "trace_overhead.job_p75_ms",
            out.percentile(75.0) - plain.percentile(75.0),
        ),
        (
            "trace_overhead.jobs_per_s",
            out.jobs_per_s() - plain.jobs_per_s(),
        ),
    ]);

    println!(
        "self time per layer over {} jobs ({:.1} ms of job time):",
        out.latencies_ms.len(),
        breakdown.job_total_ns as f64 / 1e6
    );
    for (layer, _) in LAYERS {
        let ns = breakdown.self_ns.get(layer).copied().unwrap_or(0);
        if ns > 0 {
            println!(
                "  {layer:<10} {:>12.3} ms  {:>6.2} %",
                ns as f64 / 1e6,
                breakdown.pct(layer)
            );
        }
    }
    println!("  remainder  {remainder:>6.2} %");
    if remainder.abs() > MAX_REMAINDER_PCT {
        println!("  the layers leave more than {MAX_REMAINDER_PCT} % of job time unexplained");
    }
    let dump_path = root
        .join(".bench_out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match trace::dump_spans(&dump_path, env_block, &out.spans) {
        Ok(()) => println!(
            "spans: {} written to {}",
            out.spans.len(),
            dump_path.display()
        ),
        Err(e) => eprintln!("could not write spans to {}: {e}", dump_path.display()),
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, out.layer_value(name)))
        .collect();
    let attempted = (plain.latencies_ms.len() + out.latencies_ms.len()) as u64;
    (correct, attempted, plain.failed + out.failed, metrics)
}
