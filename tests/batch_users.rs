//! Property suite: cross-user, cross-shard batch verification accepts
//! exactly when every individual signature verifies.
//!
//! Each case draws a random subset of tenants (with repetition), a
//! random number of signatures per tenant, and optionally corrupts one
//! signature in one of three ways — tampered message, tampered `Σ`, or
//! an impostor signer attribution. The fused epoch check
//! (`EpochVerifier`, paper eqs. 8–9) must agree with the one-pairing-
//! per-item baseline (`verify_individually`) on every draw, and when a
//! corruption was injected the baseline must pinpoint exactly the
//! corrupted item. A second suite injects *coordinated pairs* of
//! corruptions whose `Σ` errors multiply to one — the cancellation that
//! defeats an unweighted eq.-8 product — and requires the randomized
//! fused check to reject them wherever the pair lands (same batch, same
//! shard, or across shards). A third suite plants one `Σ` outside `GT`
//! (`−Σ`, or `Σ` times a cyclotomic non-member) in a `BatchVerifier`
//! batch, which must never verify while the individual check pinpoints
//! it. On failure the testkit shrinks the tape
//! toward the minimal failing subset; replay with
//! `SECCLOUD_TESTKIT_SEED`.

use std::sync::Arc;

use seccloud::ibs::{
    designate, sign, verify_individually, BatchItem, BatchVerifier, DesignatedSignature, MasterKey,
};
use seccloud::pairing::traits::FieldElement;
use seccloud::pairing::{Fp12, Fp2, Fp6, Fr, G2Prepared, Gt};
use seccloud::registry::{shard_of, EpochVerifier};
use seccloud::testkit::{forall, Tape};

const SHARDS: u32 = 4;
const EPOCH: u64 = 1;
const POOL: usize = 6;

/// One corruption to inject, all coordinates tape-drawn.
#[derive(Debug, Clone, Copy)]
struct Corruption {
    /// Which user slot's batch carries the bad item.
    slot: usize,
    /// Which of the slot's signatures is corrupted.
    sig: usize,
    /// 0 = tampered message, 1 = tampered `Σ`, 2 = impostor signer.
    mode: u8,
}

/// One generated case: user slots (indices into a fixed tenant pool),
/// per-slot signature counts, and at most one corruption.
#[derive(Debug, Clone)]
struct Case {
    slots: Vec<usize>,
    sigs: Vec<usize>,
    corruption: Option<Corruption>,
}

fn gen_case(t: &mut Tape) -> Case {
    let n_slots = 1 + t.next_below(4) as usize;
    let slots: Vec<usize> = (0..n_slots)
        .map(|_| t.next_below(POOL as u64) as usize)
        .collect();
    let sigs: Vec<usize> = (0..n_slots).map(|_| 1 + t.next_below(3) as usize).collect();
    let corruption = if t.next_bool() {
        let slot = t.next_below(n_slots as u64) as usize;
        Corruption {
            slot,
            sig: t.next_below(sigs[slot] as u64) as usize,
            mode: (t.next_u8() % 3),
        }
        .into()
    } else {
        None
    };
    Case {
        slots,
        sigs,
        corruption,
    }
}

#[test]
fn fused_batch_accepts_iff_every_signature_verifies() {
    let sio = MasterKey::from_seed(b"batch-users-property");
    let users: Vec<_> = (0..POOL)
        .map(|i| sio.extract_user(&format!("tenant-{i}")))
        .collect();
    let impostor = sio.extract_user("impostor");
    let verifiers: Vec<_> = (0..SHARDS)
        .map(|s| sio.extract_verifier(&format!("da/shard-{s}")))
        .collect();
    let keys: Vec<Arc<G2Prepared>> = verifiers.iter().map(|v| v.sk_prepared()).collect();

    forall("batch-users/accept-iff-individuals", gen_case, |case| {
        let mut epoch = EpochVerifier::new(SHARDS, EPOCH);
        // Per-shard item lists for the individual baseline, and where the
        // corrupted item lands: (shard, index within that shard's list).
        let mut per_shard: Vec<Vec<BatchItem>> = vec![Vec::new(); SHARDS as usize];
        let mut corrupted_at: Option<(u32, usize)> = None;

        for (slot, (&user_ix, &n_sigs)) in case.slots.iter().zip(&case.sigs).enumerate() {
            let user = &users[user_ix];
            let shard = shard_of(user.identity(), EPOCH, SHARDS);
            let verifier = &verifiers[shard as usize];
            let mut batch = BatchVerifier::new();
            for j in 0..n_sigs {
                let mut message = format!("case block {slot}/{j}").into_bytes();
                let nonce = format!("nonce {slot}/{j}").into_bytes();
                let mut signature = designate(&sign(user, &message, &nonce), verifier.public());
                let mut signer = user.public().clone();
                if let Some(c) = case.corruption {
                    if c.slot == slot && c.sig == j {
                        match c.mode {
                            0 => message.push(b'!'),
                            1 => {
                                let sigma = signature.sigma().mul(signature.sigma());
                                signature = seccloud::ibs::DesignatedSignature::from_parts(
                                    *signature.u(),
                                    sigma,
                                );
                            }
                            _ => signer = impostor.public().clone(),
                        }
                        corrupted_at = Some((shard, per_shard[shard as usize].len()));
                    }
                }
                let item = BatchItem {
                    signer,
                    message,
                    signature,
                };
                batch.push_item(&item);
                per_shard[shard as usize].push(item);
            }
            epoch.fold(shard, &batch);
        }

        // Individual baseline, shard by shard.
        let mut first_failure: Option<(u32, usize)> = None;
        for (s, items) in per_shard.iter().enumerate() {
            if let Some(ix) = verify_individually(items, &verifiers[s]) {
                first_failure = Some((s as u32, ix));
                break;
            }
        }

        let batch_ok = epoch.verify(&keys);
        let individuals_ok = first_failure.is_none();
        if batch_ok != individuals_ok {
            return Err(format!(
                "fused batch said {batch_ok} but individual baseline said {individuals_ok} \
                 (first failure {first_failure:?})"
            ));
        }
        match (case.corruption, corrupted_at) {
            (Some(_), Some(expected)) => {
                if batch_ok {
                    return Err("a corrupted case passed the fused check".into());
                }
                // Exactly one item was corrupted, so the baseline's first
                // (and only) failure must be precisely that item.
                if first_failure != Some(expected) {
                    return Err(format!(
                        "baseline convicted {first_failure:?}, expected {expected:?}"
                    ));
                }
            }
            (None, _) => {
                if !batch_ok {
                    return Err("an honest case failed the fused check".into());
                }
            }
            (Some(_), None) => return Err("corruption drawn but never applied".into()),
        }
        Ok(())
    });
}

/// A coordinated pair of corruptions: two distinct items (by global
/// position across the whole case) whose `Σ` values are scaled by `e`
/// and `e⁻¹` respectively, so the errors cancel in any unweighted
/// product.
#[derive(Debug, Clone)]
struct CancelCase {
    slots: Vec<usize>,
    sigs: Vec<usize>,
    /// Global index of the item scaled by `e`.
    first: usize,
    /// Global index of the item scaled by `e⁻¹` (≠ `first`).
    second: usize,
}

fn gen_cancel_case(t: &mut Tape) -> CancelCase {
    let n_slots = 2 + t.next_below(3) as usize;
    let slots: Vec<usize> = (0..n_slots)
        .map(|_| t.next_below(POOL as u64) as usize)
        .collect();
    let sigs: Vec<usize> = (0..n_slots).map(|_| 1 + t.next_below(3) as usize).collect();
    let total: usize = sigs.iter().sum();
    let first = t.next_below(total as u64) as usize;
    // Any other position, wrapping past `first`.
    let second = (first + 1 + t.next_below(total as u64 - 1) as usize) % total;
    CancelCase {
        slots,
        sigs,
        first,
        second,
    }
}

#[test]
fn coordinated_cancelling_corruptions_never_pass_the_fused_check() {
    let sio = MasterKey::from_seed(b"batch-users-cancel");
    let users: Vec<_> = (0..POOL)
        .map(|i| sio.extract_user(&format!("tenant-{i}")))
        .collect();
    let verifiers: Vec<_> = (0..SHARDS)
        .map(|s| sio.extract_verifier(&format!("da/shard-{s}")))
        .collect();
    let keys: Vec<Arc<G2Prepared>> = verifiers.iter().map(|v| v.sk_prepared()).collect();
    // A fixed nontrivial GT error term; its inverse cancels it exactly.
    let error = seccloud::pairing::pairing(
        &seccloud::pairing::hash_to_g1(b"cancel-e-p").to_affine(),
        &seccloud::pairing::hash_to_g2(b"cancel-e-q").to_affine(),
    );

    forall(
        "batch-users/coordinated-cancellation",
        gen_cancel_case,
        |case| {
            let mut epoch = EpochVerifier::new(SHARDS, EPOCH);
            let mut per_shard: Vec<Vec<BatchItem>> = vec![Vec::new(); SHARDS as usize];
            let mut global_ix = 0usize;
            let mut applied = 0usize;

            for (slot, (&user_ix, &n_sigs)) in case.slots.iter().zip(&case.sigs).enumerate() {
                let user = &users[user_ix];
                let shard = shard_of(user.identity(), EPOCH, SHARDS);
                let verifier = &verifiers[shard as usize];
                let mut batch = BatchVerifier::new();
                for j in 0..n_sigs {
                    let message = format!("cancel block {slot}/{j}").into_bytes();
                    let nonce = format!("nonce {slot}/{j}").into_bytes();
                    let mut signature = designate(&sign(user, &message, &nonce), verifier.public());
                    let factor = if global_ix == case.first {
                        Some(error)
                    } else if global_ix == case.second {
                        Some(error.invert())
                    } else {
                        None
                    };
                    if let Some(f) = factor {
                        signature = seccloud::ibs::DesignatedSignature::from_parts(
                            *signature.u(),
                            signature.sigma().mul(&f),
                        );
                        applied += 1;
                    }
                    global_ix += 1;
                    let item = BatchItem {
                        signer: user.public().clone(),
                        message,
                        signature,
                    };
                    batch.push_item(&item);
                    per_shard[shard as usize].push(item);
                }
                epoch.fold(shard, &batch);
            }

            if applied != 2 {
                return Err(format!("expected 2 corruptions applied, got {applied}"));
            }
            // Both corrupted items fail individually…
            let individual_failures = per_shard
                .iter()
                .enumerate()
                .filter(|(s, items)| verify_individually(items, &verifiers[*s]).is_some())
                .count();
            if individual_failures == 0 {
                return Err("premise broken: no shard fails individually".into());
            }
            // …so the fused check must reject, even though the two errors
            // multiply to one in the unweighted aggregate.
            if epoch.verify(&keys) {
                return Err(format!(
                    "coordinated cancellation passed the fused check \
                 (items {} and {} of {global_ix})",
                    case.first, case.second
                ));
            }
            Ok(())
        },
    );
}

/// One `Σ` outside `GT` in an otherwise honest single-verifier batch:
/// either `−Σ` (an order-2 factor, which every even weight erases) or `Σ`
/// times a cyclotomic non-member built from the tape.
#[derive(Debug, Clone)]
struct NonMemberCase {
    sigs: usize,
    bad: usize,
    /// `None` = negate `Σ`; `Some(seed)` = multiply by the easy part of a
    /// seed-derived `Fp12` element.
    cyclotomic: Option<u64>,
}

fn gen_non_member_case(t: &mut Tape) -> NonMemberCase {
    let sigs = 1 + t.next_below(8) as usize;
    NonMemberCase {
        sigs,
        bad: t.next_below(sigs as u64) as usize,
        cyclotomic: t.next_bool().then(|| t.next_u64()),
    }
}

/// An `Fp12` value as a wire `Σ`: the decoder checks no membership.
fn wire_gt(f: &Fp12) -> Gt {
    Gt::from_bytes(&f.to_bytes()).expect("canonical coefficients")
}

/// A cyclotomic element `y^((p⁶−1)(p²+1))` for a seed-derived `y`: its
/// order divides `r·h_T` but, for almost every seed, not `r`.
fn cyclotomic_non_member(seed: u64) -> Gt {
    let c = |k: u8| Fp2::from_hash(b"non-member", &[&seed.to_be_bytes()[..], &[k]].concat());
    let y = Fp12::new(Fp6::new(c(0), c(1), c(2)), Fp6::new(c(3), c(4), c(5)));
    let y = y.conjugate().mul(&y.inverse().expect("nonzero"));
    wire_gt(&y.frobenius_p2().mul(&y))
}

#[test]
fn non_member_sigma_never_passes_the_batch() {
    let sio = MasterKey::from_seed(b"batch-users-non-member");
    let users: Vec<_> = (0..POOL)
        .map(|i| sio.extract_user(&format!("tenant-{i}")))
        .collect();
    let verifier = sio.extract_verifier("cs");
    let r = Fr::modulus();

    forall(
        "batch-users/non-member-sigma",
        gen_non_member_case,
        |case| {
            let mut batch = BatchVerifier::new();
            let mut items = Vec::new();
            for j in 0..case.sigs {
                let user = &users[j % POOL];
                let message = format!("member block {j}").into_bytes();
                let nonce = format!("nonce {j}").into_bytes();
                let mut signature = designate(&sign(user, &message, &nonce), verifier.public());
                if j == case.bad {
                    let sigma = match case.cyclotomic {
                        None => wire_gt(&signature.sigma().as_fp12().neg()),
                        Some(seed) => signature.sigma().mul(&cyclotomic_non_member(seed)),
                    };
                    if sigma.as_fp12().pow_limbs(r.limbs()) == Fp12::one() {
                        return Err("premise broken: the corrupted Σ is in GT".into());
                    }
                    signature = DesignatedSignature::from_parts(*signature.u(), sigma);
                }
                let item = BatchItem {
                    signer: user.public().clone(),
                    message,
                    signature,
                };
                batch.push_item(&item);
                items.push(item);
            }
            if verify_individually(&items, &verifier) != Some(case.bad) {
                return Err("the individual check must reject exactly the bad Σ".into());
            }
            // Weights are fresh per attempt; an order-2 error used to pass
            // about half of them.
            if (0..4).any(|_| batch.verify(&verifier)) {
                return Err("a batch holding a non-member Σ verified".into());
            }
            Ok(())
        },
    );
}

/// The degenerate subsets: one user, one signature — the smallest
/// honest and corrupted cases, checked explicitly so the boundary does
/// not depend on the random draw.
#[test]
fn single_user_single_signature_boundary() {
    let sio = MasterKey::from_seed(b"batch-users-boundary");
    let user = sio.extract_user("tenant-0");
    let shard = shard_of(user.identity(), EPOCH, SHARDS);
    let verifiers: Vec<_> = (0..SHARDS)
        .map(|s| sio.extract_verifier(&format!("da/shard-{s}")))
        .collect();
    let keys: Vec<Arc<G2Prepared>> = verifiers.iter().map(|v| v.sk_prepared()).collect();

    let sig = designate(&sign(&user, b"m", b"n"), verifiers[shard as usize].public());
    let mut ok = EpochVerifier::new(SHARDS, EPOCH);
    let mut batch = BatchVerifier::new();
    batch.push(user.public().clone(), b"m".to_vec(), sig.clone());
    ok.fold(shard, &batch);
    assert!(ok.verify(&keys));

    let mut bad = EpochVerifier::new(SHARDS, EPOCH);
    let mut batch = BatchVerifier::new();
    batch.push(user.public().clone(), b"tampered".to_vec(), sig);
    bad.fold(shard, &batch);
    assert!(!bad.verify(&keys));
}
