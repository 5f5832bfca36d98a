//! In-memory spans recorded around calls into each layer, their self-time
//! breakdown, and the dump written when a traced run ends.
//!
//! Spans are recorded from the benchmark's own code, at the boundary of
//! each public call it makes; nothing inside the measured crates is
//! instrumented. A span's self time is its duration minus the time its
//! child spans cover, so the self times under one job add back up to the
//! job's duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is 0 for a root span; `tenant` and `ordinal`
/// key an RPC so the server-side dispatch can be matched to the client
/// call that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tenant: u32,
    pub ordinal: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run's time origin, shared by every thread so spans compare.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Span recorder for one thread; `None` when tracing is off, so the
/// untraced run pays one branch per boundary.
pub struct Tracer {
    clock: Clock,
    spans: Option<Vec<Span>>,
    next_id: u64,
}

impl Tracer {
    /// `lane` makes span ids unique across threads.
    pub fn new(clock: Clock, lane: u64, is_enabled: bool) -> Self {
        Tracer {
            clock,
            spans: is_enabled.then(Vec::new),
            next_id: lane << 40,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.spans.is_some()
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.elapsed_ns()
    }

    /// Reserves an id for a span whose children are recorded before it.
    pub fn reserve_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn record(&mut self, id: u64, parent: u64, name: &'static str, start_ns: u64) {
        let end_ns = self.clock.elapsed_ns();
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                tenant: 0,
                ordinal: 0,
                bytes: 0,
            });
        }
    }

    /// Times `f` as a leaf span under `parent` when tracing is on.
    pub fn time_leaf<R>(&mut self, parent: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.is_enabled() {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let id = self.reserve_id();
        self.record(id, parent, name, start);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Which layer a span's self time belongs to.
pub fn layer_of_span(name: &str) -> &'static str {
    match name {
        "job.audit" => "agency",
        "job.ingest" => "tenant",
        "job.epoch" => "harness",
        "job.lint" => "analyzer",
        n if n.starts_with("rpc.") => "net",
        n if n.starts_with("dispatch.") => "cloudsim",
        n if n.starts_with("registry.") => "registry",
        n if n.starts_with("ibs.") => "ibs",
        _ => "other",
    }
}

/// Every layer a breakdown can name, in report order, with the metric
/// that carries its self time per job.
pub const LAYERS: [(&str, &str); 8] = [
    ("agency", "self.agency_ms"),
    ("tenant", "self.tenant_ms"),
    ("net", "self.net_ms"),
    ("cloudsim", "self.cloudsim_ms"),
    ("registry", "self.registry_ms"),
    ("ibs", "self.ibs_ms"),
    ("analyzer", "self.analyzer_ms"),
    ("harness", "self.harness_ms"),
];

/// Self time per layer summed over every span that descends from a job
/// span (name `job.*`), plus the job count and summed job durations.
pub struct Breakdown {
    pub jobs: u64,
    pub job_total_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    pub fn from_spans(spans: &[Span]) -> Self {
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let (mut jobs, mut job_total_ns) = (0, 0);
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| descends_from_job(&by_id, s)) {
            if s.name.starts_with("job.") {
                jobs += 1;
                job_total_ns += s.dur_ns();
            }
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *self_ns.entry(layer_of_span(s.name)).or_default() += own;
        }
        Breakdown {
            jobs,
            job_total_ns,
            self_ns,
        }
    }

    /// Mean self time per job, in milliseconds, spent in `layer`.
    pub fn ms_per_job(&self, layer: &str) -> f64 {
        let ns = self.self_ns.get(layer).copied().unwrap_or(0);
        ns as f64 / 1e6 / self.jobs.max(1) as f64
    }

    /// Share of the summed job time, in percent, spent in `layer`.
    pub fn pct(&self, layer: &str) -> f64 {
        if self.job_total_ns == 0 {
            return 0.0;
        }
        100.0 * self.self_ns.get(layer).copied().unwrap_or(0) as f64 / self.job_total_ns as f64
    }

    /// Job time no layer's self time explains, in percent (signed).
    pub fn remainder_pct(&self) -> f64 {
        if self.job_total_ns == 0 {
            return 0.0;
        }
        let explained: u64 = self.self_ns.values().sum();
        100.0 * (self.job_total_ns as f64 - explained as f64) / self.job_total_ns as f64
    }
}

fn descends_from_job<'a>(by_id: &BTreeMap<u64, &'a Span>, mut s: &'a Span) -> bool {
    loop {
        if s.name.starts_with("job.") {
            return true;
        }
        match by_id.get(&s.parent) {
            Some(p) => s = p,
            None => return false,
        }
    }
}

/// Writes the spans as one JSON object per line.
pub fn dump_spans(path: &Path, environment: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"environment\": {environment}}}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"tenant\": {}, \"ordinal\": {}, \"bytes\": {}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.tenant, s.ordinal, s.bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            tenant: 0,
            ordinal: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_times_add_up_to_the_job() {
        let spans = [
            span(1, 0, "job.audit", 0, 100),
            span(2, 1, "rpc.compute", 10, 40),
            span(3, 2, "dispatch.compute", 15, 35),
            span(4, 1, "rpc.audit", 50, 90),
            span(5, 0, "rpc.audit", 200, 210),
        ];
        let b = Breakdown::from_spans(&spans);
        assert_eq!((b.jobs, b.job_total_ns), (1, 100));
        assert_eq!(b.self_ns["agency"], 30);
        assert_eq!(b.self_ns["net"], 50);
        assert_eq!(b.self_ns["cloudsim"], 20);
        assert_eq!(b.remainder_pct(), 0.0);
    }
}
