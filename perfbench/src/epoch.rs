//! `epoch_registry`: the sharded tenant registry and the fused cross-shard
//! verifier, in process, with no sockets. One job is one epoch: rotate,
//! recommit every shard, then fold and verify the epoch's audits.
//!
//! The traffic is `bench_scale`'s full profile divided by 100: 1 M
//! tenants and 100 k audits per epoch become 10 000 and 1 000, and a fused
//! check every 10 000 folds becomes one every 100, so an epoch still
//! closes 10 fused checks. The 64 shards, the 256-tenant active pool the
//! audits cycle through, and the 4 signatures aggregated into each audit
//! are kept as they are.

use std::sync::Arc;
use std::time::Instant;

use seccloud_core::{Sio, VerifierCredential};
use seccloud_ibs::{designate, sign, BatchVerifier, UserPublic};
use seccloud_pairing::{G2Prepared, Gt, G1};
use seccloud_registry::{shard_of, EpochVerifier, ShardCommitment, UserRegistry};

use crate::stats::{mean_of, median_of, Rng};
use crate::trace::{Breakdown, Clock, Span, Tracer};
use crate::Outcome;

/// Enrolled tenants.
const TENANTS: usize = 10_000;
const SHARDS: u32 = 64;
/// Audits folded in every epoch, cycling through the active pool.
const AUDITS_PER_EPOCH: usize = 1_000;
/// Tenants that sign audits; each contributes one pre-aggregated unit.
const ACTIVE: usize = 256;
/// Designated signatures aggregated into one audit unit.
const SIGS_PER_AUDIT: usize = 4;
/// Folds per fused verification.
const FUSE_EVERY: usize = 100;
const _: () = assert!(AUDITS_PER_EPOCH.is_multiple_of(FUSE_EVERY));
/// The epoch every job turns the registry over into. Each job starts from
/// a copy of the epoch-1 registry, so shard assignments (which depend only
/// on identity and epoch) stay those the audits were signed for.
const EPOCH: u64 = 2;

struct Audit {
    shard: u32,
    u: G1,
    sigma: Gt,
}

/// The registry before the turnover, its roots, the epoch's shard
/// verifiers' credentials, and the active pool's audit units, each
/// designated to the verifier of the shard its tenant lands in that epoch.
pub struct EpochWorld {
    base: UserRegistry,
    base_roots: Vec<ShardCommitment>,
    keys: Vec<VerifierCredential>,
    audits: Vec<Audit>,
    traced: bool,
    from_identity_us: f64,
    enroll_us: f64,
}

pub fn setup_epoch_world(seed: u64, traced: bool) -> EpochWorld {
    let mut rng = Rng::new(seed, "epoch");
    let ids: Vec<String> = (0..TENANTS).map(|_| rng.identity("tenant")).collect();

    let t = Instant::now();
    let publics: Vec<UserPublic> = ids.iter().map(|id| UserPublic::from_identity(id)).collect();
    let from_identity_us = t.elapsed().as_secs_f64() * 1e6 / TENANTS as f64;
    let mut base = UserRegistry::new(SHARDS, 1);
    let t = Instant::now();
    for public in publics {
        base.enroll(public);
    }
    let enroll_us = t.elapsed().as_secs_f64() * 1e6 / TENANTS as f64;
    let base_roots = base.commitments();

    let sio = Sio::new(&rng.next_u64().to_be_bytes());
    // A partial Fisher-Yates shuffle draws the active pool: ACTIVE
    // distinct enrolled tenants.
    let mut order: Vec<usize> = (0..TENANTS).collect();
    for i in 0..ACTIVE {
        let j = rng.range(i as u64, TENANTS as u64 - 1) as usize;
        order.swap(i, j);
    }
    let users: Vec<_> = order[..ACTIVE]
        .iter()
        .map(|&i| sio.register(&ids[i]))
        .collect();
    let keys: Vec<VerifierCredential> = (0..SHARDS)
        .map(|s| sio.register_verifier(&format!("da/epoch-{EPOCH}/shard-{s}")))
        .collect();
    let nonces: Vec<u64> = users.iter().map(|_| rng.next_u64()).collect();
    let audits = seccloud_parallel::parallel_map(&users, |i, user| {
        let shard = shard_of(user.identity(), EPOCH, SHARDS);
        let verifier = keys[shard as usize].public();
        let mut batch = BatchVerifier::new();
        for j in 0..SIGS_PER_AUDIT {
            let msg = format!("epoch-{EPOCH} block {i}/{j}").into_bytes();
            let nonce = [nonces[i].to_be_bytes(), (j as u64).to_be_bytes()].concat();
            let designated = designate(&sign(user.key(), &msg, &nonce), verifier);
            batch.push(user.public().clone(), msg, designated);
        }
        let (u, sigma) = batch.aggregate().expect("a non-empty batch aggregates");
        Audit { shard, u, sigma }
    });
    EpochWorld {
        base,
        base_roots,
        keys,
        audits,
        traced,
        from_identity_us,
        enroll_us,
    }
}

pub fn measure_epochs(world: EpochWorld, seconds: f64) -> Outcome {
    let clock = Clock::new();
    let mut tracer = Tracer::new(clock, 1, world.traced);
    let mut latencies_ms = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let mut registry = world.base.clone();
        // Working copies of the epoch's keys: dropping them at the end of
        // the job retires the epoch's prepared keys from the secret cache,
        // so every epoch starts cold as a fresh epoch would.
        let live = world.keys.clone();

        let job = tracer.reserve_id();
        let job_start = tracer.now_ns();
        let t0 = Instant::now();
        let ok = run_one_epoch(&mut tracer, job, &mut registry, &world, &live);
        drop(live);
        let elapsed = t0.elapsed().as_secs_f64();
        tracer.record(job, 0, "job.epoch", job_start);
        latencies_ms.push(elapsed * 1e3);
        if !ok {
            failed += 1;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let spans = tracer.into_spans();
    let mut layer = vec![
        ("ibs.from_identity_us", world.from_identity_us),
        ("registry.enroll_us", world.enroll_us),
    ];
    if world.traced {
        layer.extend(epoch_span_metrics(&spans));
    }
    Outcome {
        latencies_ms,
        failed,
        wall_s,
        delivered: 1.0,
        layer,
        spans,
        ..Outcome::default()
    }
}

/// One epoch turnover of a copy of the epoch-1 registry, then the epoch's
/// audits, cycling through the active pool, with a fused check every
/// `FUSE_EVERY` folds. Returns false if a shard root survived the rotation
/// or a fused check failed.
fn run_one_epoch(
    tracer: &mut Tracer,
    job: u64,
    registry: &mut UserRegistry,
    world: &EpochWorld,
    keys: &[VerifierCredential],
) -> bool {
    let number = tracer.time_leaf(job, "registry.rotate", || registry.rotate_epoch());
    let roots = tracer.time_leaf(job, "registry.commit", || registry.commitments());
    let mut ok = number == EPOCH
        && roots.len() == world.base_roots.len()
        && roots
            .iter()
            .zip(&world.base_roots)
            .all(|(now, before)| now.epoch == number && now.root != before.root);

    let prepared: Vec<Arc<G2Prepared>> = keys
        .iter()
        .map(|cred| tracer.time_leaf(job, "ibs.sk_prepared", || cred.key().sk_prepared()))
        .collect();
    let mut verifier = EpochVerifier::new(SHARDS, number);
    for (i, audit) in world
        .audits
        .iter()
        .cycle()
        .take(AUDITS_PER_EPOCH)
        .enumerate()
    {
        let Some(cred) = keys.get(audit.shard as usize) else {
            return false;
        };
        let _handle = tracer.time_leaf(job, "ibs.sk_prepared", || cred.key().sk_prepared());
        ok &= tracer.time_leaf(job, "registry.fold", || {
            verifier.fold_aggregate(audit.shard, &audit.u, &audit.sigma, SIGS_PER_AUDIT)
        });
        if (i + 1).is_multiple_of(FUSE_EVERY) {
            ok &= tracer.time_leaf(job, "registry.fused_verify", || verifier.verify(&prepared));
            verifier = EpochVerifier::new(SHARDS, number);
        }
    }
    ok
}

fn epoch_span_metrics(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let durations = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / scale)
            .collect()
    };
    let mut out = vec![
        (
            "registry.rotate_ms",
            median_of(&durations("registry.rotate", 1e6)),
        ),
        (
            "registry.commit_ms",
            median_of(&durations("registry.commit", 1e6)),
        ),
        (
            "ibs.sk_prepared_us",
            mean_of(&durations("ibs.sk_prepared", 1e3)),
        ),
        (
            "registry.fold_us",
            mean_of(&durations("registry.fold", 1e3)),
        ),
        (
            "registry.fused_verify_ms",
            median_of(&durations("registry.fused_verify", 1e6)),
        ),
    ];
    out.extend(crate::breakdown_metrics(&Breakdown::from_spans(spans)));
    out
}
