//! Batch verification of designated signatures (paper Section VI),
//! hardened with small-exponent randomization.
//!
//! Given `ℓ` designated signatures `{(Uᵢⱼ, Σᵢⱼ)}` from `k` users, the
//! paper's eq. 8 aggregates
//!
//! ```text
//! Σ_A = Πᵢⱼ Σᵢⱼ                      (GT multiplications)
//! U_A = Σᵢⱼ (Uᵢⱼ + H2(Uᵢⱼ‖mᵢⱼ)·Q_IDᵢ)  (G1 additions)
//! ```
//!
//! and accepts iff `ê(U_A, sk_V) = Σ_A`. That *unweighted* product is
//! not sound on its own: two corruptions whose error terms multiply to
//! one (`Σ₀·e` and `Σ₁·e⁻¹`) cancel inside the aggregate, so the batch
//! accepts a pair of signatures that each fail individually. This
//! verifier therefore draws a fresh random nonzero 64-bit weight `rᵢ`
//! per signature **at verification time** (never before the batch is
//! fixed, so a prover cannot grind against the weights) and checks the
//! standard small-exponent (Bellare–Garay–Rabin) equation
//!
//! ```text
//! ê(Σᵢⱼ rᵢⱼ·(Uᵢⱼ + hᵢⱼ·Q_IDᵢ), sk_V)  =  Πᵢⱼ Σᵢⱼ^{rᵢⱼ}
//! ```
//!
//! A batch containing any invalid signature now survives with
//! probability ≤ 2⁻⁶⁴ per verification attempt, coordinated or not —
//! provided every `Σᵢ` lies in `GT`, which the check tests first: a
//! wire-supplied `−Σᵢ` has an order-2 factor that every even weight
//! erases, so without the test such a batch passes half the time.
//! Individual verification costs one pairing per signature; the batch
//! still costs one pairing total plus the weighted fold, whose marginal
//! per-signature cost is a membership test and a few `G1`/`GT` group
//! operations via [`seccloud_pairing::checked_weighted_fold`] —
//! the constant-vs-linear gap of Fig. 5 and Table II is preserved.

use seccloud_hash::{entropy_seed, HmacDrbg};
use seccloud_pairing::{checked_weighted_fold, pairing_prepared, Fr, Gt, G1};

use crate::keys::{UserPublic, VerifierKey};
use crate::sign::{challenge_hash, DesignatedSignature};

/// One signature in a batch: the signer, the message, and the designated
/// signature to fold in.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The signer's public identity data.
    pub signer: UserPublic,
    /// The signed message bytes.
    pub message: Vec<u8>,
    /// The designated signature `(U, Σ)`.
    pub signature: DesignatedSignature,
}

/// Draws one nonzero 64-bit batch weight per term, seeded from process
/// entropy. Weights must be unpredictable to whoever assembled the batch
/// — they are drawn here, at verification time, never stored.
pub(crate) fn draw_weights(n: usize) -> Vec<u64> {
    let mut drbg = HmacDrbg::new(&entropy_seed());
    (0..n)
        .map(|_| {
            let r = drbg.next_u64();
            if r == 0 {
                1
            } else {
                r
            }
        })
        .collect()
}

/// An incremental batch verifier ("the signature combination can be
/// performed incrementally", Section VI).
///
/// Each pushed signature retains its *term* `(U + h·Q_ID, Σ)` so the
/// verifier can weight every signature independently at check time; the
/// memory cost is one `G1` point and one `GT` element per pending
/// signature, released when the batch is dropped or drained.
///
/// # Examples
///
/// ```
/// use seccloud_ibs::{designate, sign, BatchVerifier, MasterKey};
///
/// let sio = MasterKey::from_seed(b"batch-doc");
/// let server = sio.extract_verifier("cs");
/// let mut batch = BatchVerifier::new();
/// for (who, msg) in [("alice", b"m1".as_slice()), ("bob", b"m2")] {
///     let user = sio.extract_user(who);
///     let sig = designate(&sign(&user, msg, b"n"), server.public());
///     batch.push(user.public().clone(), msg.to_vec(), sig);
/// }
/// assert!(batch.verify(&server));
/// ```
#[derive(Clone, Debug, Default)]
pub struct BatchVerifier {
    /// One `(U + h·Q_ID, Σ)` term per folded signature, in push order.
    terms: Vec<(G1, Gt)>,
}

impl BatchVerifier {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of signatures folded in so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Folds one signature into the batch (cheap: one `G1` scalar-mul +
    /// addition — no pairing).
    pub fn push(&mut self, signer: UserPublic, message: Vec<u8>, signature: DesignatedSignature) {
        self.push_item(&BatchItem {
            signer,
            message,
            signature,
        });
    }

    /// Folds a [`BatchItem`] by reference.
    pub fn push_item(&mut self, item: &BatchItem) {
        let h: Fr = challenge_hash(item.signature.u(), &item.message);
        let term = item.signature.u().add(&item.signer.q().mul_fr(&h));
        self.terms.push((term, *item.signature.sigma()));
    }

    /// Runs the randomized single-pairing batch check
    /// `ê(Σ rᵢ·termᵢ, sk_V) = Π Σᵢ^{rᵢ}` with fresh weights.
    ///
    /// An empty batch verifies trivially (`1 = 1`).
    pub fn verify(&self, verifier: &VerifierKey) -> bool {
        self.verify_prepared(&verifier.sk_prepared())
    }

    /// The batch check against an explicit prepared key handle (callers
    /// that amortize `sk_V` lookups through a
    /// [`seccloud_pairing::cache::PreparedCache`] resolve the handle once
    /// and reuse it).
    ///
    /// Every `Σ` must lie in `GT` before it is weighted: a wire-supplied
    /// non-member such as `−Σ` carries an order-2 factor that vanishes
    /// under every even weight, so without the membership test of
    /// [`checked_weighted_fold`] the batch would accept it about half the
    /// time.
    pub fn verify_prepared(&self, prepared: &seccloud_pairing::G2Prepared) -> bool {
        if self.terms.is_empty() {
            return true;
        }
        let weights = draw_weights(self.terms.len());
        let Some((u, sigma)) = checked_weighted_fold(&self.terms, &weights) else {
            return false;
        };
        pairing_prepared(&u.to_affine(), prepared).ct_eq(&sigma)
    }

    /// The retained per-signature terms `[(U + h·Q_ID, Σ)]`, in push
    /// order.
    ///
    /// Exposing the terms lets a higher layer (the sharded registry's
    /// epoch verifier) fold many per-user batches into a *single*
    /// randomized `multi_miller_loop` check while still weighting each
    /// signature independently.
    pub fn terms(&self) -> &[(G1, Gt)] {
        &self.terms
    }

    /// The unweighted aggregate `(U_A, Σ_A)` of paper eq. 8, or `None`
    /// for an empty batch.
    ///
    /// This is the *transport* form — collapsing a sub-batch to one
    /// `(G1, GT)` pair for wire transfer or coarse-grained folding. A
    /// verifier consuming aggregates can only weight per *aggregate*, not
    /// per signature, so whoever produced the aggregate vouches for its
    /// internal consistency; prefer [`Self::terms`] when per-signature
    /// soundness must survive aggregation.
    pub fn aggregate(&self) -> Option<(G1, Gt)> {
        let mut iter = self.terms.iter();
        let (u0, s0) = iter.next()?;
        Some(iter.fold((*u0, *s0), |(u, s), (tu, ts)| (u.add(tu), s.mul(ts))))
    }

    /// Merges another batch into this one (useful when sub-batches are
    /// aggregated concurrently and combined at the end).
    pub fn merge(&mut self, other: &BatchVerifier) {
        self.terms.extend_from_slice(&other.terms);
    }
}

/// Verifies a slice of batch items one by one (the `2ℓ`-pairing baseline the
/// paper compares against; here each check is one pairing since `Σ` is
/// precomputed). Returns the index of the first invalid item, or `None` when
/// all verify.
pub fn verify_individually(items: &[BatchItem], verifier: &VerifierKey) -> Option<usize> {
    items
        .iter()
        .position(|item| !item.signature.verify(verifier, &item.signer, &item.message))
}

/// Parallel variant of [`verify_individually`]: fans the per-item pairing
/// checks out over [`seccloud_parallel::num_threads`] workers. Same result
/// as the serial version for any worker count (each check is independent).
pub fn verify_individually_parallel(items: &[BatchItem], verifier: &VerifierKey) -> Option<usize> {
    // Materialize the prepared key once, before the fan-out, so workers
    // share the cache instead of racing to initialize it.
    let _ = verifier.sk_prepared();
    let outcomes = seccloud_parallel::parallel_map(items, |_, item| {
        item.signature.verify(verifier, &item.signer, &item.message)
    });
    outcomes.iter().position(|ok| !ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::MasterKey;
    use crate::sign::{designate, sign};
    use seccloud_pairing::pairing;

    fn make_items(n: usize, users: usize, seed: &str) -> (MasterKey, VerifierKey, Vec<BatchItem>) {
        let m = MasterKey::from_seed(seed.as_bytes());
        let v = m.extract_verifier("cs-batch");
        let items = (0..n)
            .map(|i| {
                let user = m.extract_user(&format!("user-{}", i % users));
                let msg = format!("block-{i}").into_bytes();
                let sig = designate(&sign(&user, &msg, b"n"), v.public());
                BatchItem {
                    signer: user.public().clone(),
                    message: msg,
                    signature: sig,
                }
            })
            .collect();
        (m, v, items)
    }

    #[test]
    fn batch_accepts_valid_multi_user_set() {
        let (_, v, items) = make_items(12, 4, "batch-ok");
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        assert_eq!(b.len(), 12);
        assert!(b.verify(&v));
        assert_eq!(verify_individually(&items, &v), None);
    }

    #[test]
    fn empty_batch_is_trivially_valid() {
        let m = MasterKey::from_seed(b"empty");
        let v = m.extract_verifier("cs");
        assert!(BatchVerifier::new().verify(&v));
        assert!(BatchVerifier::new().is_empty());
    }

    #[test]
    fn single_item_batch_equals_individual() {
        let (_, v, items) = make_items(1, 1, "single");
        let mut b = BatchVerifier::new();
        b.push_item(&items[0]);
        assert!(b.verify(&v));
    }

    #[test]
    fn one_bad_signature_poisons_the_batch() {
        let (_, v, mut items) = make_items(8, 3, "poison");
        // Corrupt item 5's message after signing.
        items[5].message = b"tampered".to_vec();
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        assert!(!b.verify(&v));
        assert_eq!(verify_individually(&items, &v), Some(5));
    }

    #[test]
    fn coordinated_cancelling_corruptions_fail() {
        // The attack the unweighted eq.-8 product accepts: scale Σ₀ by a
        // nontrivial error e and Σ₁ by e⁻¹, so the *unweighted* product
        // Π Σᵢ is unchanged while both items fail individually. The
        // randomized weights give the pair Σ₀^{r₀}·Σ₁^{r₁} with r₀ ≠ r₁
        // (w.h.p.), so the errors no longer cancel.
        let (_, v, mut items) = make_items(4, 2, "cancel");
        let e = pairing(&G1::generator().to_affine(), &v.public().q().to_affine());
        let bump = |sig: &DesignatedSignature, factor: &Gt| {
            DesignatedSignature::from_parts(*sig.u(), sig.sigma().mul(factor))
        };
        items[0].signature = bump(&items[0].signature, &e);
        items[1].signature = bump(&items[1].signature, &e.invert());
        // Sanity: both items are individually invalid, and the unweighted
        // aggregate really is unchanged (the cancellation is real).
        assert_eq!(verify_individually(&items, &v), Some(0));
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        let honest = {
            let (_, v2, honest_items) = make_items(4, 2, "cancel");
            assert_eq!(v2.public().q(), v.public().q());
            let mut hb = BatchVerifier::new();
            for item in &honest_items {
                hb.push_item(item);
            }
            hb
        };
        assert_eq!(
            b.aggregate().map(|(_, s)| s),
            honest.aggregate().map(|(_, s)| s),
            "test premise: errors cancel in the unweighted product"
        );
        assert!(!b.verify(&v), "weighted check must catch the coordination");
    }

    #[test]
    fn wrong_verifier_rejects_batch() {
        let (m, _, items) = make_items(4, 2, "wrongv");
        let other = m.extract_verifier("someone-else");
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        assert!(!b.verify(&other));
    }

    #[test]
    fn merge_equals_sequential_push() {
        let (_, v, items) = make_items(10, 5, "merge");
        let mut whole = BatchVerifier::new();
        for item in &items {
            whole.push_item(item);
        }
        let mut left = BatchVerifier::new();
        let mut right = BatchVerifier::new();
        for item in &items[..4] {
            left.push_item(item);
        }
        for item in &items[4..] {
            right.push_item(item);
        }
        left.merge(&right);
        assert_eq!(left.len(), whole.len());
        assert_eq!(left.terms(), whole.terms());
        assert_eq!(left.aggregate(), whole.aggregate());
        assert!(left.verify(&v));
    }

    #[test]
    fn forged_sigma_cannot_pass_even_if_u_adjusted() {
        // An adversary who scales Σ must break the pairing relation.
        let (_, v, mut items) = make_items(3, 1, "forge");
        let bad = items[0].signature.sigma().mul(items[1].signature.sigma());
        items[0].signature =
            crate::sign::DesignatedSignature::from_parts(*items[0].signature.u(), bad);
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        assert!(!b.verify(&v));
    }

    #[test]
    fn swapped_signatures_between_messages_fail() {
        // Valid signatures attached to the wrong messages must not slip
        // through the aggregate (they cancel only with negligible prob).
        let (_, v, mut items) = make_items(2, 2, "swap");
        let s0 = items[0].signature.clone();
        items[0].signature = items[1].signature.clone();
        items[1].signature = s0;
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        assert!(!b.verify(&v));
    }

    #[test]
    fn batch_is_order_independent() {
        let (_, v, items) = make_items(6, 3, "order");
        let mut fwd = BatchVerifier::new();
        let mut rev = BatchVerifier::new();
        for item in &items {
            fwd.push_item(item);
        }
        for item in items.iter().rev() {
            rev.push_item(item);
        }
        assert!(fwd.verify(&v) && rev.verify(&v));
        assert_eq!(fwd.aggregate(), rev.aggregate());
    }

    #[test]
    fn identity_scaled_sigma_rejected() {
        // Multiplying Σ by a nontrivial GT element must break verification.
        let (_, v, mut items) = make_items(1, 1, "scale");
        let tweak = pairing(&G1::generator().to_affine(), &v.public().q().to_affine());
        let bad = items[0].signature.sigma().mul(&tweak);
        items[0].signature =
            crate::sign::DesignatedSignature::from_parts(*items[0].signature.u(), bad);
        let mut b = BatchVerifier::new();
        b.push_item(&items[0]);
        assert!(!b.verify(&v));
        let _ = Fr::zero().is_zero(); // keep FieldElement import exercised
    }

    #[test]
    fn drawn_weights_are_nonzero_and_fresh() {
        let a = draw_weights(64);
        let b = draw_weights(64);
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|&r| r != 0));
        assert_ne!(a, b, "weights must differ across verification attempts");
    }
}
