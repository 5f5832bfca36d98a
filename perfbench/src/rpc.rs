//! The two socket workloads: `audit_rpc` (compute-then-audit jobs) and
//! `ingest_rpc` (16-block uploads), both closed-loop against one honest
//! `NetServer` on loopback.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use seccloud_cloudsim::behavior::Behavior;
// lint: allow(transport, reason=the benchmark builds the socket stack from its raw byte endpoints and times them from outside)
use seccloud_cloudsim::rpc::{encode_store_body, RpcError, WireServer, WireTransport};
use seccloud_cloudsim::{CloudServer, DesignatedAgency};
use seccloud_core::computation::{ComputationRequest, ComputeFunction, RequestItem};
use seccloud_core::storage::DataBlock;
use seccloud_core::{CloudUser, Sio};
use seccloud_ibs::{UserPublic, VerifierPublic};
use seccloud_net::{NetClientConfig, NetServer, NetServerConfig, NetTransport};
use seccloud_resilience::{run_job_resilient, AuditResolution, ResilientTransport, RetryPolicy};

use crate::stats::{median_of, Rng};
use crate::trace::{Breakdown, Clock, Span, Tracer};
use crate::{Outcome, WORKERS};

/// Blocks each `audit_rpc` tenant keeps on the server.
const STORE_BLOCKS: u64 = 64;
/// Blocks per `ingest_rpc` upload.
const UPLOAD_BLOCKS: usize = 16;
/// Distinct pre-signed blocks per `ingest_rpc` tenant; uploads cycle
/// through them, so a server-side cache of verified blocks would hit.
pub const INGEST_POOL_BLOCKS: usize = 128;
/// Pre-generated `audit_rpc` requests per client and size, cycled.
const REQUESTS_PER_SIZE: usize = 10;
/// Audit jobs run against the cheating server after the timed region.
const CONVICTION_JOBS: usize = 3;

/// Per op the socket workloads call: the overhead and dispatch metrics.
const OP_METRICS: [(&str, &str, &str); 3] = [
    (
        "store",
        "net.rpc_overhead_store_ms",
        "cloudsim.dispatch_store_ms",
    ),
    (
        "compute",
        "net.rpc_overhead_compute_ms",
        "cloudsim.dispatch_compute_ms",
    ),
    (
        "audit",
        "net.rpc_overhead_audit_ms",
        "cloudsim.dispatch_audit_ms",
    ),
];
const RPC_NAMES: [&str; 4] = ["rpc.store", "rpc.compute", "rpc.audit", "rpc.retrieve"];
const DISPATCH_NAMES: [&str; 4] = [
    "dispatch.store",
    "dispatch.compute",
    "dispatch.audit",
    "dispatch.retrieve",
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Audit,
    Ingest,
}

/// Times every call through a byte-level endpoint. On the client it wraps
/// the socket transport (one span per RPC attempt); on the server it wraps
/// the dispatch target handed to `NetServer` (one span per dispatch, taken
/// under the server's dispatch lock). Each side numbers the calls per
/// (tenant, op); since a tenant's calls are sequential, the numbers match
/// a dispatch to the client RPC that caused it.
pub struct Probe<T> {
    inner: T,
    sink: Option<Sender<Span>>,
    clock: Clock,
    names: &'static [&'static str; 4],
    ordinals: BTreeMap<(u32, usize), u64>,
    next_id: u64,
    /// The span id of the job in progress (client side).
    pub parent: u64,
    /// Request + response payload bytes through this endpoint.
    pub bytes: u64,
}

impl<T> Probe<T> {
    fn new(inner: T, sink: Option<Sender<Span>>, clock: Clock, lane: u64, server: bool) -> Self {
        Probe {
            inner,
            sink,
            clock,
            names: if server { &DISPATCH_NAMES } else { &RPC_NAMES },
            ordinals: BTreeMap::new(),
            next_id: lane << 40,
            parent: 0,
            bytes: 0,
        }
    }

    fn begin_call(&self) -> u64 {
        if self.sink.is_some() {
            self.clock.elapsed_ns()
        } else {
            0
        }
    }

    fn end_call(&mut self, op: usize, owner: &str, start_ns: u64, bytes: usize) {
        self.bytes += bytes as u64;
        let Some(sink) = &self.sink else { return };
        let end_ns = self.clock.elapsed_ns();
        let tenant = tenant_key(owner);
        let ordinal = self.ordinals.entry((tenant, op)).or_default();
        *ordinal += 1;
        self.next_id += 1;
        let _ = sink.send(Span {
            id: self.next_id,
            parent: self.parent,
            name: self.names.get(op).copied().unwrap_or("rpc.other"),
            start_ns,
            end_ns,
            tenant,
            ordinal: *ordinal,
            bytes: bytes as u64,
        });
    }
}

/// A stable small key for a tenant id, equal on both sides of the socket.
fn tenant_key(owner: &str) -> u32 {
    owner.bytes().fold(0x811c_9dc5u32, |h, b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

// lint: allow(transport, reason=the timing probe must implement the byte-level endpoint trait to sit on both sides of the socket)
impl<T: WireTransport> WireTransport for Probe<T> {
    fn rpc_store(&mut self, owner: &str, body: &[u8]) -> Result<u64, RpcError> {
        let start = self.begin_call();
        let out = self.inner.rpc_store(owner, body);
        self.end_call(0, owner, start, body.len() + 8);
        out
    }

    fn rpc_compute(
        &mut self,
        owner: &str,
        auditor: &str,
        body: &[u8],
    ) -> Result<(u64, Vec<u8>), RpcError> {
        let start = self.begin_call();
        let out = self.inner.rpc_compute(owner, auditor, body);
        let reply = out.as_ref().map_or(0, |(_, c)| 8 + c.len());
        self.end_call(1, owner, start, body.len() + reply);
        out
    }

    fn rpc_audit(
        &mut self,
        owner: &str,
        auditor: &str,
        job_id: u64,
        challenge: &[u8],
        warrant: &[u8],
        now_ns: u64,
    ) -> Result<Vec<u8>, RpcError> {
        let start = self.begin_call();
        let out = self
            .inner
            .rpc_audit(owner, auditor, job_id, challenge, warrant, now_ns);
        let reply = out.as_ref().map_or(0, Vec::len);
        self.end_call(
            2,
            owner,
            start,
            challenge.len() + warrant.len() + 16 + reply,
        );
        out
    }

    fn rpc_retrieve(&mut self, owner: &str, position: u64) -> Option<Vec<u8>> {
        let start = self.begin_call();
        let out = self.inner.rpc_retrieve(owner, position);
        self.end_call(3, owner, start, 8 + out.as_ref().map_or(0, Vec::len));
        out
    }

    fn peer_verifier(&self) -> VerifierPublic {
        self.inner.peer_verifier()
    }

    fn peer_signer(&self) -> UserPublic {
        self.inner.peer_signer()
    }
}

enum Lane {
    Audit {
        user: CloudUser,
        da: Box<DesignatedAgency>,
        transport: Box<ResilientTransport<Probe<NetTransport>>>,
        requests: Vec<(ComputationRequest, usize)>,
    },
    Ingest {
        owner: String,
        probe: Box<Probe<NetTransport>>,
        bodies: Vec<Vec<u8>>,
    },
}

impl Lane {
    fn probe(&self) -> &Probe<NetTransport> {
        match self {
            Lane::Audit { transport, .. } => transport.inner(),
            Lane::Ingest { probe, .. } => probe,
        }
    }
}

/// A server on loopback and its clients, ready to measure. The clients are
/// declared (and so dropped) before the server: closing their sockets lets
/// the server's workers return without waiting out a read deadline.
pub struct RpcWorld {
    lanes: Vec<Lane>,
    server: NetServer,
    kind: Kind,
    spans: Receiver<Span>,
    clock: Clock,
    traced: bool,
}

fn random_block_values(rng: &mut Rng) -> Vec<u64> {
    (0..8).map(|_| rng.range(0, 1 << 20)).collect()
}

/// A request of `n` items, each a random function of 1–4 random blocks,
/// with its sample size t = ⌈n/2⌉.
fn random_request(rng: &mut Rng, n: usize) -> (ComputationRequest, usize) {
    let items = (0..n)
        .map(|_| {
            let inputs = rng.range(1, 4);
            let positions: BTreeSet<u64> = (0..inputs)
                .map(|_| rng.range(0, STORE_BLOCKS - 1))
                .collect();
            let function = match rng.range(0, 7) {
                0 => ComputeFunction::Sum,
                1 => ComputeFunction::Average,
                2 => ComputeFunction::Max,
                3 => ComputeFunction::Min,
                4 => ComputeFunction::Count,
                5 => ComputeFunction::WeightedSum(vec![rng.range(1, 9), rng.range(1, 9)]),
                6 => ComputeFunction::Polynomial(vec![rng.range(0, 9), rng.range(1, 9)]),
                _ => ComputeFunction::SumSquaredDeviation,
            };
            RequestItem {
                function,
                positions: positions.into_iter().collect(),
            }
        })
        .collect();
    (ComputationRequest::new(items), n.div_ceil(2))
}

/// A client's request pool: every size from 4 to 16 items equally often,
/// in a seeded order, so the job-size mix (which sets the latency
/// percentiles) is the same for every seed and only the contents vary.
fn request_pool(rng: &mut Rng) -> Vec<(ComputationRequest, usize)> {
    let mut sizes: Vec<usize> = (0..REQUESTS_PER_SIZE).flat_map(|_| 4..=16).collect();
    for i in (1..sizes.len()).rev() {
        let j = rng.range(0, i as u64) as usize;
        sizes.swap(i, j);
    }
    sizes.into_iter().map(|n| random_request(rng, n)).collect()
}

/// Builds the server and `clients` clients for `kind`, each client its own
/// tenant (and, for audits, its own designated agency), then runs one
/// warm-up job per client.
pub fn setup_rpc_world(
    kind: Kind,
    seed: u64,
    traced: bool,
    behavior: Behavior,
    clients: usize,
) -> RpcWorld {
    let honest = matches!(behavior, Behavior::Honest);
    let mut rng = Rng::new(seed, "rpc");
    let clock = Clock::new();
    let (tx, rx) = channel();
    let sink = traced.then_some(tx);
    let sio = Sio::new(&seed.to_be_bytes());
    let mut cloud = CloudServer::new(&sio, "cs", behavior, b"perfbench-cs");
    let verifier = cloud.public().clone();
    let signer = cloud.signer_public().clone();

    let pool = match kind {
        Kind::Audit => STORE_BLOCKS,
        Kind::Ingest => INGEST_POOL_BLOCKS as u64,
    };
    let mut tenants = Vec::new();
    for _ in 0..clients {
        let user = sio.register(&rng.identity("tenant"));
        let da = DesignatedAgency::new(&sio, &rng.identity("da"), &rng.next_u64().to_be_bytes());
        let blocks: Vec<DataBlock> = (0..pool)
            .map(|i| DataBlock::from_values(i, &random_block_values(&mut rng)))
            .collect();
        let signed = user.sign_blocks_parallel(&blocks, &[cloud.public(), da.public()]);
        // Audit tenants keep their blocks on the server; ingest tenants
        // upload theirs in the timed loop.
        let bodies = match kind {
            Kind::Audit => {
                assert_eq!(
                    cloud.store(&user, signed),
                    blocks.len(),
                    "the honest server must accept every set-up block"
                );
                Vec::new()
            }
            Kind::Ingest => signed
                .chunks(UPLOAD_BLOCKS)
                .map(encode_store_body)
                .collect(),
        };
        tenants.push((user, da, bodies));
    }

    // lint: allow(transport, reason=the byte-level server is the dispatch target NetServer serves; the probe times it from outside)
    let target = Probe::new(WireServer::new(cloud), sink.clone(), clock, 99, true);
    let server = NetServer::spawn(
        target,
        NetServerConfig {
            workers: Some(WORKERS),
            ..NetServerConfig::default()
        },
    )
    .expect("bind a loopback port");

    let mut lanes = Vec::new();
    for (i, (user, da, bodies)) in tenants.into_iter().enumerate() {
        let net = NetTransport::new(
            server.addr(),
            verifier.clone(),
            signer.clone(),
            NetClientConfig::default(),
        );
        let probe = Probe::new(net, sink.clone(), clock, 10 + i as u64, false);
        let mut lane = match kind {
            Kind::Audit => Lane::Audit {
                transport: Box::new(ResilientTransport::new(
                    probe,
                    RetryPolicy::default(),
                    &rng.next_u64().to_be_bytes(),
                )),
                requests: request_pool(&mut rng),
                user,
                da: Box::new(da),
            },
            Kind::Ingest => Lane::Ingest {
                owner: user.identity().to_owned(),
                probe: Box::new(probe),
                bodies,
            },
        };
        if honest {
            assert!(run_rpc_job(&mut lane, 0).is_ok(), "warm-up job failed");
        }
        lanes.push(lane);
    }
    RpcWorld {
        kind,
        server,
        lanes,
        spans: rx,
        clock,
        traced,
    }
}

/// What one job reported: `Ok` with its recovery stats, or `Err` on a
/// failed correctness gate.
type JobResult = Result<(u64, u64), String>;

fn run_rpc_job(lane: &mut Lane, k: usize) -> JobResult {
    match lane {
        Lane::Audit {
            user,
            da,
            transport,
            requests,
        } => {
            let (req, t) = &requests[k % requests.len()];
            match run_job_resilient(da, transport, user, req, *t, 0) {
                AuditResolution::Clean { stats, .. } => {
                    Ok((stats.audit_rounds, stats.transient_faults))
                }
                other => Err(format!("audit job {k} not clean: {:?}", other.stats())),
            }
        }
        Lane::Ingest {
            owner,
            probe,
            bodies,
        } => match probe.rpc_store(owner, &bodies[k % bodies.len()]) {
            Ok(n) if n == UPLOAD_BLOCKS as u64 => Ok((0, 0)),
            other => Err(format!(
                "upload {k} accepted {other:?} of {UPLOAD_BLOCKS} blocks"
            )),
        },
    }
}

struct LaneOutcome {
    latencies_ms: Vec<f64>,
    failed: u64,
    rounds: u64,
    transient: u64,
    spans: Vec<Span>,
    end: Instant,
}

fn drive_lane(
    lane: &mut Lane,
    idx: usize,
    kind: Kind,
    deadline: Instant,
    clock: Clock,
    traced: bool,
) -> LaneOutcome {
    let mut tracer = Tracer::new(clock, 1 + idx as u64, traced);
    let mut out = LaneOutcome {
        latencies_ms: Vec::new(),
        failed: 0,
        rounds: 0,
        transient: 0,
        spans: Vec::new(),
        end: Instant::now(),
    };
    let name = match kind {
        Kind::Audit => "job.audit",
        Kind::Ingest => "job.ingest",
    };
    let mut k = 1;
    while Instant::now() < deadline {
        let id = tracer.reserve_id();
        match lane {
            Lane::Audit { transport, .. } => transport.inner_mut().parent = id,
            Lane::Ingest { probe, .. } => probe.parent = id,
        }
        let start_ns = tracer.now_ns();
        let t0 = Instant::now();
        let result = run_rpc_job(lane, k);
        out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tracer.record(id, 0, name, start_ns);
        match result {
            Ok((rounds, transient)) => {
                out.rounds += rounds;
                out.transient += transient;
            }
            Err(e) => {
                eprintln!("client {idx}: {e}");
                out.failed += 1;
            }
        }
        k += 1;
    }
    out.end = Instant::now();
    out.spans = tracer.into_spans();
    out
}

/// Runs the closed loop for `seconds` and reports the result.
pub fn measure_rpc(mut world: RpcWorld, seconds: f64) -> Outcome {
    let kind = world.kind;
    let before = world.server.stats();
    let reconnects_before: u64 = world
        .lanes
        .iter()
        .map(|l| l.probe().inner.reconnects())
        .sum();
    let bytes_before: u64 = world.lanes.iter().map(|l| l.probe().bytes).sum();
    let run_start_ns = world.clock.elapsed_ns();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (clock, traced) = (world.clock, world.traced);
    let lanes = &mut world.lanes;
    let outcomes: Vec<LaneOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| s.spawn(move || drive_lane(lane, i, kind, deadline, clock, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = outcomes.iter().map(|o| o.end).max().unwrap_or(start);
    let wall_s = end.duration_since(start).as_secs_f64();
    let after = world.server.stats();
    let reconnects: u64 = world
        .lanes
        .iter()
        .map(|l| l.probe().inner.reconnects())
        .sum::<u64>()
        - reconnects_before;
    let bytes: u64 = world.lanes.iter().map(|l| l.probe().bytes).sum::<u64>() - bytes_before;

    let mut latencies_ms = Vec::new();
    let (mut failed, mut rounds, mut transient) = (0, 0, 0);
    let mut spans: Vec<Span> = world.spans.try_iter().collect();
    for o in outcomes {
        latencies_ms.extend(o.latencies_ms);
        failed += o.failed;
        rounds += o.rounds;
        transient += o.transient;
        spans.extend(o.spans);
    }
    world.lanes.clear();
    world.server.shutdown();
    let jobs = latencies_ms.len().max(1) as f64;

    let mut layer = vec![
        ("net.bytes_per_job", bytes as f64 / jobs),
        (
            "net.connections_per_job",
            (after.accepted - before.accepted) as f64 / jobs,
        ),
    ];
    let mut must_be_zero = vec![("net.shed", (after.shed - before.shed) as f64)];
    if kind == Kind::Audit {
        layer.push(("resilience.audit_rounds_per_job", rounds as f64 / jobs));
        must_be_zero.push(("resilience.transient_faults", transient as f64));
    }
    if traced {
        let (metrics, unmatched) = rpc_span_metrics(&mut spans, run_start_ns, wall_s);
        layer.extend(metrics);
        must_be_zero.push(("trace.unmatched_dispatches", unmatched as f64));
    }
    Outcome {
        latencies_ms,
        failed,
        wall_s,
        delivered: 1.0,
        layer,
        spans,
        must_be_zero,
        notes: vec![("net.client_reconnects", reconnects as f64)],
    }
}

/// Matches dispatch spans to client RPC spans, then derives the per-op
/// latencies, the dispatch utilisation and the job breakdown. Also
/// returns the number of dispatches that matched no client RPC.
fn rpc_span_metrics(
    spans: &mut [Span],
    run_start_ns: u64,
    wall_s: f64,
) -> (Vec<(&'static str, f64)>, u64) {
    let rpc_by_key: BTreeMap<(u32, &str, u64), (u64, u64, u64)> = spans
        .iter()
        .filter_map(|s| {
            let op = s.name.strip_prefix("rpc.")?;
            Some(((s.tenant, op, s.ordinal), (s.id, s.parent, s.dur_ns())))
        })
        .collect();
    let jobs: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name.starts_with("job."))
        .map(|s| s.id)
        .collect();
    let mut overhead: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut dispatch: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut busy_ns = 0u64;
    let mut unmatched = 0u64;
    for s in spans.iter_mut() {
        let Some(op) = s.name.strip_prefix("dispatch.") else {
            continue;
        };
        if s.start_ns >= run_start_ns {
            busy_ns += s.dur_ns();
        }
        match rpc_by_key.get(&(s.tenant, op, s.ordinal)) {
            Some(&(rpc_id, rpc_parent, rpc_ns)) => {
                s.parent = rpc_id;
                if jobs.contains(&rpc_parent) {
                    overhead
                        .entry(op)
                        .or_default()
                        .push(rpc_ns.saturating_sub(s.dur_ns()) as f64 / 1e6);
                    dispatch
                        .entry(op)
                        .or_default()
                        .push(s.dur_ns() as f64 / 1e6);
                }
            }
            None => unmatched += 1,
        }
    }
    let p50 = |m: &BTreeMap<&str, Vec<f64>>, op: &str| m.get(op).map_or(0.0, |v| median_of(v));
    let mut job_self_ms = Vec::new();
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name.starts_with("rpc.")) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    for s in spans.iter().filter(|s| s.name == "job.audit") {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        job_self_ms.push(own as f64 / 1e6);
    }
    let breakdown = Breakdown::from_spans(spans);
    let mut out = vec![
        ("agency.local_ms", median_of(&job_self_ms)),
        ("cloudsim.dispatch_busy_s", busy_ns as f64 / 1e9),
        (
            "cloudsim.dispatch_util",
            busy_ns as f64 / 1e9 / wall_s.max(1e-9),
        ),
    ];
    for (op, overhead_metric, dispatch_metric) in OP_METRICS {
        out.push((overhead_metric, p50(&overhead, op)));
        out.push((dispatch_metric, p50(&dispatch, op)));
    }
    out.extend(crate::breakdown_metrics(&breakdown));
    (out, unmatched)
}

/// Outside any timed region: a server that returns wrong results on every
/// item must be convicted on every audit job.
pub fn cheater_is_convicted(seed: u64) -> bool {
    let mut world = setup_rpc_world(
        Kind::Audit,
        seed ^ 0xc4ea7,
        false,
        Behavior::ComputationCheater {
            csc: 0.0,
            guess_range: None,
        },
        1,
    );
    let mut convicted = 0;
    for k in 0..CONVICTION_JOBS {
        let Lane::Audit {
            user,
            da,
            transport,
            requests,
        } = &mut world.lanes[0]
        else {
            return false;
        };
        let (req, t) = &requests[k];
        if run_job_resilient(da, transport, user, req, *t, 0).is_detected() {
            convicted += 1;
        }
    }
    world.lanes.clear();
    world.server.shutdown();
    convicted == CONVICTION_JOBS
}
