//! The Tate pairing `ê : G1 × G2 → GT` with denominator elimination.
//!
//! The implementation favours transparency over peak speed: a textbook
//! Miller loop over the (affine) first argument with line evaluations in
//! `Fp12`, followed by a Frobenius-assisted final exponentiation. Verticals
//! are dropped — valid because the untwisted `Q` has its `x`-coordinate in
//! `Fp6`, which the final exponentiation annihilates.

use seccloud_bigint::U256;

use crate::ec::{wnaf_digits, WNAF_TABLE};
use crate::fp::Fp;
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::fp6::Fp6;
use crate::fr::Fr;
use crate::g1::G1Affine;
use crate::g2::G2Affine;
use crate::params;
use crate::traits::FieldElement;

/// An element of the pairing target group `GT ⊂ Fp12*` (the `μ_r` subgroup
/// of `r`-th roots of unity).
///
/// `GT` values compare canonically: two `Gt`s are equal iff the pairings
/// they came from are equal, because final exponentiation maps each coset to
/// a unique representative.
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{pairing, Fr, G1, G2};
/// let p = G1::generator().to_affine();
/// let q = G2::generator().to_affine();
/// let e = pairing(&p, &q);
/// // Bilinearity: e([2]P, Q) = e(P, Q)².
/// let p2 = G1::generator().double().to_affine();
/// assert_eq!(pairing(&p2, &q), e.mul(&e));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Gt(Fp12);

impl Gt {
    /// The identity of `GT`.
    pub fn one() -> Self {
        Gt(Fp12::one())
    }

    /// Whether this is the identity.
    pub fn is_one(&self) -> bool {
        self.0 == Fp12::one()
    }

    /// Group operation (multiplication in `Fp12`).
    #[must_use]
    pub fn mul(&self, rhs: &Self) -> Self {
        Gt(self.0.mul(&rhs.0))
    }

    /// Squaring by the generic `Fp12` formula, valid for any value — also
    /// one outside `GT`, unlike the cyclotomic shortcut.
    #[must_use]
    pub(crate) fn square(&self) -> Self {
        Gt(self.0.square())
    }

    /// Group inverse — for unitary `GT` elements this is conjugation, which
    /// is far cheaper than a field inversion.
    #[must_use]
    pub fn invert(&self) -> Self {
        Gt(self.0.conjugate())
    }

    /// Exponentiation by an `Fr` scalar.
    #[must_use]
    pub fn pow(&self, k: &Fr) -> Self {
        Gt(self.0.pow_limbs(k.to_u256().limbs()))
    }

    /// Constant-time equality: compares all 12 `Fp` components through a
    /// masked zero-fold with no early exit. Designated verification
    /// compares a pairing computed *from the verifier's secret key*
    /// against an adversary-supplied `Σ` — a short-circuiting `==` there
    /// is a byte-position timing oracle on the expected tag, exactly the
    /// MAC-verification leak `seccloud_hash::ct_eq` exists for.
    #[must_use]
    pub fn ct_eq(&self, rhs: &Self) -> bool {
        use crate::traits::FieldElement;
        self.0.sub(&rhs.0).ct_is_zero() == 1
    }

    /// The underlying `Fp12` representative.
    pub fn as_fp12(&self) -> &Fp12 {
        &self.0
    }

    /// Wraps a final-exponentiated value (crate-internal constructor for
    /// the alternative Miller-loop backends).
    pub(crate) fn from_unchecked_fp12(v: Fp12) -> Self {
        Gt(v)
    }

    /// Whether this value lies in the order-`r` subgroup `GT` — an exact
    /// test, for values decoded by [`Gt::from_bytes`] from the wire.
    ///
    /// Two relations, built from Frobenius maps and one short chain:
    ///
    /// 1. cyclotomic: `f^(p⁴)·f = f^(p²)`, i.e. `f^(p⁴−p²+1) = 1`, so `f`
    ///    lies in the order-`r·h_T` subgroup where Granger–Scott squaring
    ///    and conjugate-as-inverse are valid;
    /// 2. the BN optimal-ate relation `f^(6x+2)·f^p·f^(p³) = f^(p²)`, i.e.
    ///    `f^e = 1` with `e = 6x+2+p−p²+p³`.
    ///
    /// On that subgroup, `f^e = 1` iff `f^r = 1`, because `r | e` and
    /// `gcd(e/r, h_T) = 1` (both derived from [`params`] in the
    /// `gt_membership_exponent_is_exact` test). Costs 66 cyclotomic
    /// squarings and 17 multiplications, about a sixth of a pairing.
    ///
    /// Variable time: the input is public (a wire-supplied `Σ`).
    pub fn is_in_subgroup(&self) -> bool {
        self.member_odd_powers(&ate_loop_digits()).is_some()
    }

    /// The test of [`Gt::is_in_subgroup`], returning for a member the odd
    /// powers `[f, f³, f⁵, f⁷]` its chain was built from, so that a caller
    /// raising `f` to a power next reuses them. `ate_digits` is
    /// [`ate_loop_digits`], recoded once by callers testing many values.
    pub(crate) fn member_odd_powers(&self, ate_digits: &[i64]) -> Option<[Fp12; WNAF_TABLE]> {
        let f = &self.0;
        if f.is_zero() {
            return None;
        }
        let f_p2 = f.frobenius_p2();
        if f_p2.frobenius_p2().mul(f) != f_p2 {
            return None;
        }
        let odd = cyclotomic_odd_powers(f);
        let f_p3 = f_p2.frobenius_p();
        let lhs = cyclotomic_pow_wnaf(&odd, ate_digits)
            .mul(&f.frobenius_p())
            .mul(&f_p3);
        (lhs == f_p2).then_some(odd)
    }

    /// Deserializes a `GT` element from the 384-byte encoding of
    /// [`Gt::to_bytes`], checking that every coefficient is canonical.
    ///
    /// Subgroup membership is *not* checked here: the result may be any
    /// `Fp12` value, such as `−Σ` or `Σ` times a cyclotomic element of
    /// order dividing `h_T = (p⁴−p²+1)/r`. Compared alone against a fresh
    /// pairing that is harmless, but a verifier that raises several such
    /// values to random weights and multiplies them (the batch check of
    /// `seccloud_ibs::BatchVerifier`) must first reject non-members with
    /// [`Gt::is_in_subgroup`], as `checked_weighted_fold` does, or an
    /// order-2 error term cancels under every even weight.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 384 {
            return None;
        }
        let mut coeffs = [Fp::zero(); 12];
        for (i, chunk) in bytes.chunks_exact(32).enumerate() {
            coeffs[i] = Fp::from_be_bytes(chunk.try_into().expect("32 bytes"))?;
        }
        let fp6 = |c: &[Fp]| {
            Fp6::new(
                Fp2::new(c[0], c[1]),
                Fp2::new(c[2], c[3]),
                Fp2::new(c[4], c[5]),
            )
        };
        Some(Gt(Fp12::new(fp6(&coeffs[..6]), fp6(&coeffs[6..]))))
    }

    /// Serializes the canonical representative (384 bytes: the twelve `Fp`
    /// coefficients, big-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }
}

/// Lifts a twist point `(x', y') ∈ E'(Fp2)` to `E(Fp12)` through the
/// untwisting isomorphism `ψ(x', y') = (x'·v, y'·v·w)`.
///
/// Returns `(x_Q, y_Q)` as full `Fp12` elements; note `x_Q ∈ Fp6`, the fact
/// that licenses denominator elimination.
fn untwist(q: &G2Affine) -> (Fp12, Fp12) {
    let x = Fp12::new(Fp6::new(Fp2::zero(), q.x(), Fp2::zero()), Fp6::zero());
    let y = Fp12::new(Fp6::zero(), Fp6::new(Fp2::zero(), q.y(), Fp2::zero()));
    (x, y)
}

/// Evaluates the line through `a` and `b` (tangent when `a == b`) at the
/// untwisted point `(x_q, y_q)`, omitting vertical factors.
///
/// For a non-vertical line with slope `λ` through `(x₁, y₁)`:
/// `l(Q) = y_Q − y₁ − λ(x_Q − x₁)`.
/// For a vertical line (`a = −b`), returns `x_Q − x₁`, an `Fp6` element the
/// final exponentiation kills; included for robustness at the loop tail.
struct MillerState {
    /// Current accumulator point `T` in affine `Fp` coordinates (`None` = ∞).
    t: Option<(Fp, Fp)>,
}

impl MillerState {
    /// Tangent line at `T` evaluated at `Q`; advances `T ← 2T`.
    fn double_step(&mut self, x_q: &Fp12, y_q: &Fp12) -> Fp12 {
        let Some((x, y)) = self.t else {
            return Fp12::one();
        };
        if y.is_zero() {
            // 2T = ∞; vertical tangent.
            self.t = None;
            return x_q.sub(&Fp12::from_fp6(Fp6::from_fp2(Fp2::from_fp(x))));
        }
        // λ = 3x² / 2y
        let lambda = x
            .square()
            .mul(&Fp::from_u64(3))
            .mul(&y.double().inverse().expect("y ≠ 0"));
        let c = y.sub(&lambda.mul(&x)); // line: Y − λX − c
        let line = y_q
            .sub(&x_q.scale_fp(&lambda))
            .sub(&Fp12::from_fp6(Fp6::from_fp2(Fp2::from_fp(c))));
        // T ← 2T in affine coordinates.
        let x3 = lambda.square().sub(&x.double());
        let y3 = lambda.mul(&x.sub(&x3)).sub(&y);
        self.t = Some((x3, y3));
        line
    }

    /// Chord line through `T` and `p` evaluated at `Q`; advances `T ← T + p`.
    fn add_step(&mut self, p: (Fp, Fp), x_q: &Fp12, y_q: &Fp12) -> Fp12 {
        let Some((x1, y1)) = self.t else {
            self.t = Some(p);
            return Fp12::one();
        };
        let (x2, y2) = p;
        if x1 == x2 {
            if y1 == y2 {
                return self.double_step(x_q, y_q);
            }
            // T + p = ∞; vertical chord.
            self.t = None;
            return x_q.sub(&Fp12::from_fp6(Fp6::from_fp2(Fp2::from_fp(x1))));
        }
        let lambda = y2.sub(&y1).mul(&x2.sub(&x1).inverse().expect("x₂ ≠ x₁"));
        let c = y1.sub(&lambda.mul(&x1));
        let line = y_q
            .sub(&x_q.scale_fp(&lambda))
            .sub(&Fp12::from_fp6(Fp6::from_fp2(Fp2::from_fp(c))));
        let x3 = lambda.square().sub(&x1).sub(&x2);
        let y3 = lambda.mul(&x1.sub(&x3)).sub(&y1);
        self.t = Some((x3, y3));
        line
    }
}

/// The Miller function `f_{r,P}(ψ(Q))` (no final exponentiation).
fn miller_loop(p: &G1Affine, q: &G2Affine) -> Fp12 {
    let (x_q, y_q) = untwist(q);
    let p_aff = (p.x(), p.y());
    let r: U256 = Fr::modulus();
    let bits = r.bits();

    let mut f = Fp12::one();
    let mut state = MillerState { t: Some(p_aff) };
    for i in (0..bits - 1).rev() {
        f = f.square();
        let l = state.double_step(&x_q, &y_q);
        f = f.mul(&l);
        if r.bit(i) {
            let l = state.add_step(p_aff, &x_q, &y_q);
            f = f.mul(&l);
        }
    }
    f
}

/// The hard part `f ↦ f^((p⁴−p²+1)/r)` for `f` in the cyclotomic subgroup,
/// via the Devegili–Scott–Dominguez Frobenius addition chain: three
/// `x`-power chains (64-bit exponents) plus a handful of Frobenius maps and
/// conjugations replace one dense 762-bit exponentiation. Conjugation is a
/// free inversion here because cyclotomic elements are unitary.
///
/// Equality with the plain exponentiation by the derived exponent is
/// asserted in `hard_part_chain_matches_derived_exponent`.
fn final_exp_hard_part_chain(f: &Fp12) -> Fp12 {
    let x = seccloud_bigint::ApInt::from_u64(params::BN_X);
    let fx = f.cyclotomic_pow(&x);
    let fx2 = fx.cyclotomic_pow(&x);
    let fx3 = fx2.cyclotomic_pow(&x);
    let fp = f.frobenius_p();
    let fp2 = f.frobenius_p2();
    let fp3 = fp2.frobenius_p();

    let y0 = fp.mul(&fp2).mul(&fp3);
    let y1 = f.conjugate();
    let y2 = fx2.frobenius_p2();
    let y3 = fx.frobenius_p().conjugate();
    let y4 = fx.mul(&fx2.frobenius_p()).conjugate();
    let y5 = fx2.conjugate();
    let y6 = fx3.mul(&fx3.frobenius_p()).conjugate();

    let mut t0 = y6.cyclotomic_square().mul(&y4).mul(&y5);
    let mut t1 = y3.mul(&y5).mul(&t0);
    t0 = t0.mul(&y2);
    t1 = t1.cyclotomic_square().mul(&t0).cyclotomic_square();
    let t2 = t1.mul(&y1);
    t1 = t1.mul(&y0);
    t2.cyclotomic_square().mul(&t1)
}

/// The width-4 signed digits of the optimal-ate loop length `6x + 2`,
/// least significant first: 12 nonzero, against 37 set bits in binary.
pub(crate) fn ate_loop_digits() -> Vec<i64> {
    wnaf_digits(&crate::ate::loop_count().to_le_limbs())
}

/// `[f, f³, f⁵, f⁷]` for `f` in the cyclotomic subgroup: the table a
/// width-4 signed-digit chain draws from.
fn cyclotomic_odd_powers(f: &Fp12) -> [Fp12; WNAF_TABLE] {
    let f2 = f.cyclotomic_square();
    let mut odd = [*f; WNAF_TABLE];
    for i in 1..WNAF_TABLE {
        odd[i] = odd[i - 1].mul(&f2);
    }
    odd
}

/// `acc · f^digit` for a nonzero odd `digit` in `[−7, 7]`, given the odd
/// powers of a cyclotomic `f`, with conjugation as the free inverse and
/// `None` standing for the identity, so no multiplication by one is paid.
pub(crate) fn times_odd_power(acc: Option<Fp12>, odd: &[Fp12; WNAF_TABLE], digit: i64) -> Fp12 {
    let power = odd[(digit.unsigned_abs() as usize - 1) / 2];
    let power = if digit < 0 { power.conjugate() } else { power };
    acc.map_or(power, |a| a.mul(&power))
}

/// `f^k` for cyclotomic `f`, from its odd powers and the width-4 signed
/// digits of `k` (least significant first): Granger–Scott squarings, one
/// multiplication per nonzero digit.
fn cyclotomic_pow_wnaf(odd: &[Fp12; WNAF_TABLE], digits: &[i64]) -> Fp12 {
    let mut acc: Option<Fp12> = None;
    for &digit in digits.iter().rev() {
        acc = acc.map(|a| a.cyclotomic_square());
        if digit != 0 {
            acc = Some(times_odd_power(acc, odd, digit));
        }
    }
    acc.unwrap_or_else(Fp12::one)
}

/// The final exponentiation `f ↦ f^((p¹²−1)/r)`.
///
/// Easy part via Frobenius (`(p⁶−1)(p²+1)`), hard part by the
/// Frobenius-assisted addition chain of [`final_exp_hard_part_chain`].
pub fn final_exponentiation(f: &Fp12) -> Fp12 {
    // f^(p⁶ − 1) = conj(f) · f⁻¹
    let f = f
        .conjugate()
        .mul(&f.inverse().expect("Miller value is nonzero"));
    // f^(p² + 1) = frob²(f) · f
    let f = f.frobenius_p2().mul(&f);
    // Hard part: f is now in the cyclotomic subgroup, so Granger–Scott
    // squarings and unitary inversion apply.
    final_exp_hard_part_chain(&f)
}

/// Computes the workspace's default reduced pairing `ê(P, Q)` — the optimal
/// ate pairing (shortest Miller loop); see [`crate::pairing_ate`].
///
/// Returns the identity when either input is the point at infinity, matching
/// the bilinear extension `ê(O, ·) = ê(·, O) = 1`.
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{pairing, Fr, G1, G2};
/// let e = pairing(
///     &G1::generator().to_affine(),
///     &G2::generator().to_affine(),
/// );
/// assert!(!e.is_one(), "pairing of generators is non-degenerate");
/// ```
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    crate::ate::pairing_ate(p, q)
}

/// Computes `∏ᵢ ê(Pᵢ, Qᵢ)` with the default (optimal ate) pairing, sharing
/// one final exponentiation across all Miller loops.
pub fn multi_pairing(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    crate::ate::multi_pairing_ate(pairs)
}

/// Computes the reduced **Tate** pairing `ê(P, Q)` — the slower, textbook
/// backend kept as an independent implementation for cross-checking the
/// default ate pairing (see `benches/crypto_ops.rs` for the ablation).
pub fn pairing_tate(p: &G1Affine, q: &G2Affine) -> Gt {
    if p.is_identity() || q.is_identity() {
        return Gt::one();
    }
    Gt(final_exponentiation(&miller_loop(p, q)))
}

/// Computes `∏ᵢ ê(Pᵢ, Qᵢ)` with the Tate backend.
pub fn multi_pairing_tate(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    let mut acc = Fp12::one();
    let mut any = false;
    for (p, q) in pairs {
        if p.is_identity() || q.is_identity() {
            continue;
        }
        acc = acc.mul(&miller_loop(p, q));
        any = true;
    }
    if !any {
        return Gt::one();
    }
    Gt(final_exponentiation(&acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::{hash_to_g1, G1};
    use crate::g2::{hash_to_g2, G2};

    #[test]
    fn gt_ct_eq_agrees_with_eq() {
        let a = pairing(
            &hash_to_g1(b"ct-eq-p").to_affine(),
            &hash_to_g2(b"ct-eq-q").to_affine(),
        );
        let b = pairing(
            &hash_to_g1(b"ct-eq-p2").to_affine(),
            &hash_to_g2(b"ct-eq-q2").to_affine(),
        );
        assert!(a.ct_eq(&a));
        assert!(!a.ct_eq(&b));
        assert!(Gt::one().ct_eq(&Gt::one()));
        assert_eq!(a.ct_eq(&b), a == b);
    }

    #[test]
    fn hard_part_chain_matches_derived_exponent() {
        // The addition chain must equal plain exponentiation by the derived
        // (p⁴−p²+1)/r on cyclotomic inputs (easy-part outputs).
        for i in 0..3u32 {
            let raw = Fp12::new(
                Fp6::new(
                    Fp2::from_hash(b"hp-a", &i.to_be_bytes()),
                    Fp2::from_hash(b"hp-b", &i.to_be_bytes()),
                    Fp2::from_hash(b"hp-c", &i.to_be_bytes()),
                ),
                Fp6::new(
                    Fp2::from_hash(b"hp-d", &i.to_be_bytes()),
                    Fp2::from_hash(b"hp-e", &i.to_be_bytes()),
                    Fp2::from_hash(b"hp-f", &i.to_be_bytes()),
                ),
            );
            let easy = raw.conjugate().mul(&raw.inverse().expect("nonzero"));
            let cyc = easy.frobenius_p2().mul(&easy);
            assert_eq!(
                final_exp_hard_part_chain(&cyc),
                cyc.cyclotomic_pow(params::final_exp_hard_part()),
                "sample {i}"
            );
        }
    }

    /// A random `Fp12` element from a tagged hash (not in any subgroup).
    fn raw_fp12(tag: &[u8], i: u32) -> Fp12 {
        let c = |k: u8| Fp2::from_hash(&[tag, &[k]].concat(), &i.to_be_bytes());
        Fp12::new(Fp6::new(c(0), c(1), c(2)), Fp6::new(c(3), c(4), c(5)))
    }

    /// The easy part `f^((p⁶−1)(p²+1))`: a cyclotomic element whose order
    /// divides `r·h_T`, almost never `r` alone.
    fn easy_part(f: &Fp12) -> Fp12 {
        let f = f.conjugate().mul(&f.inverse().expect("nonzero"));
        f.frobenius_p2().mul(&f)
    }

    /// The definition: nonzero and `f^r = 1`.
    fn naive_member(g: &Gt) -> bool {
        !g.0.is_zero() && g.0.pow_apint(params::r_apint()) == Fp12::one()
    }

    #[test]
    fn gt_membership_exponent_is_exact() {
        // e = 6x+2+p−p²+p³ must be a multiple of r whose cofactor e/r
        // shares no factor with h_T = (p⁴−p²+1)/r, so that f^e = 1 and
        // f^r = 1 coincide on the cyclotomic subgroup of order r·h_T.
        let p = params::p_apint();
        let p2 = p * p;
        let p3 = &p2 * p;
        let sum = &(crate::ate::loop_count() + p) + &p3;
        let e = sum.checked_sub(&p2).expect("p³ > p²");
        let (cofactor, rem) = e.divrem(params::r_apint()).expect("r nonzero");
        assert!(rem.is_zero(), "r | 6x+2+p−p²+p³");
        assert!(
            cofactor.gcd(params::final_exp_hard_part()).eq_u64(1),
            "gcd(e/r, h_T) = 1"
        );
        // The signed-digit chain reconstructs 6x+2 from 12 odd digits in
        // [−7, 7], no two within four places of each other.
        let digits = ate_loop_digits();
        let value = digits
            .iter()
            .rev()
            .fold(0i128, |acc, &d| 2 * acc + i128::from(d));
        assert_eq!(value, 6 * i128::from(params::BN_X) + 2);
        assert_eq!(digits.iter().filter(|&&d| d != 0).count(), 12);
        assert!(digits.last().is_some_and(|&d| d > 0));
        for window in digits.windows(4) {
            assert!(window.iter().filter(|&&d| d != 0).count() <= 1);
        }
        assert!(digits
            .iter()
            .all(|&d| d == 0 || (d % 2 != 0 && (-7..=7).contains(&d))));
    }

    #[test]
    fn ate_loop_chain_matches_cyclotomic_pow() {
        for i in 0..3u32 {
            let cyc = easy_part(&raw_fp12(b"chain", i));
            assert_eq!(
                cyclotomic_pow_wnaf(&cyclotomic_odd_powers(&cyc), &ate_loop_digits()),
                cyc.cyclotomic_pow(crate::ate::loop_count()),
                "sample {i}"
            );
        }
    }

    #[test]
    fn gt_membership_agrees_with_naive_order_check() {
        let mut members = Vec::new();
        let mut non_members = vec![Gt(Fp12::zero())];
        members.push(Gt::one());
        for i in 0..3u32 {
            let sigma = pairing(
                &hash_to_g1(&[b"member-p".as_slice(), &i.to_be_bytes()].concat()).to_affine(),
                &hash_to_g2(&[b"member-q".as_slice(), &i.to_be_bytes()].concat()).to_affine(),
            );
            members.push(sigma);
            // −Σ: an order-2 factor times a member.
            non_members.push(Gt(sigma.0.neg()));
            let raw = raw_fp12(b"member", i);
            // A member reached through the hard part, not a pairing.
            members.push(Gt(final_exponentiation(&raw)));
            // Cyclotomic non-members: after the easy part only.
            non_members.push(Gt(easy_part(&raw)));
            // Not even cyclotomic.
            non_members.push(Gt(raw));
        }
        for (i, g) in members.iter().enumerate() {
            assert!(naive_member(g), "member {i}: premise");
            assert!(g.is_in_subgroup(), "member {i}");
        }
        for (i, g) in non_members.iter().enumerate() {
            assert!(!naive_member(g), "non-member {i}: premise");
            assert!(!g.is_in_subgroup(), "non-member {i}");
        }
    }

    #[test]
    fn non_degenerate_on_generators() {
        let e = pairing(&G1::generator().to_affine(), &G2::generator().to_affine());
        assert!(!e.is_one());
        // e has order dividing r: e^r = 1.
        let r_minus_1 = Fr::zero().sub(&Fr::one());
        assert_eq!(e.pow(&r_minus_1).mul(&e), Gt::one());
    }

    #[test]
    fn bilinear_in_first_argument() {
        let q = G2::generator().to_affine();
        let a = Fr::from_u64(5);
        let pa = G1::generator().mul_fr(&a).to_affine();
        let e1 = pairing(&pa, &q);
        let e2 = pairing(&G1::generator().to_affine(), &q).pow(&a);
        assert_eq!(e1, e2);
    }

    #[test]
    fn bilinear_in_second_argument() {
        let p = G1::generator().to_affine();
        let b = Fr::from_u64(11);
        let qb = G2::generator().mul_fr(&b).to_affine();
        let e1 = pairing(&p, &qb);
        let e2 = pairing(&p, &G2::generator().to_affine()).pow(&b);
        assert_eq!(e1, e2);
    }

    #[test]
    fn full_bilinearity_with_random_points() {
        let p = hash_to_g1(b"bilinear-p");
        let q = hash_to_g2(b"bilinear-q");
        let a = Fr::hash(b"scalar-a");
        let b = Fr::hash(b"scalar-b");
        let lhs = pairing(&p.mul_fr(&a).to_affine(), &q.mul_fr(&b).to_affine());
        let rhs = pairing(&p.to_affine(), &q.to_affine()).pow(&a.mul(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_with_identity_is_one() {
        let p = G1::generator().to_affine();
        let q = G2::generator().to_affine();
        assert!(pairing(&crate::g1::G1Affine::identity(), &q).is_one());
        assert!(pairing(&p, &crate::g2::G2Affine::identity()).is_one());
    }

    #[test]
    fn pairing_of_negated_point_is_inverse() {
        let p = hash_to_g1(b"inv-p");
        let q = hash_to_g2(b"inv-q");
        let e = pairing(&p.to_affine(), &q.to_affine());
        let e_neg = pairing(&p.neg().to_affine(), &q.to_affine());
        assert_eq!(e.mul(&e_neg), Gt::one());
        assert_eq!(e_neg, e.invert());
    }

    #[test]
    fn multi_pairing_matches_product() {
        let pairs: Vec<_> = (0..3u32)
            .map(|i| {
                let p = hash_to_g1(format!("mp-p-{i}").as_bytes()).to_affine();
                let q = hash_to_g2(format!("mp-q-{i}").as_bytes()).to_affine();
                (p, q)
            })
            .collect();
        let product = pairs
            .iter()
            .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing(p, q)));
        assert_eq!(multi_pairing(&pairs), product);
    }

    #[test]
    fn additivity_identity() {
        // e(P1 + P2, Q) = e(P1, Q) · e(P2, Q)
        let p1 = hash_to_g1(b"add-1");
        let p2 = hash_to_g1(b"add-2");
        let q = hash_to_g2(b"add-q").to_affine();
        let lhs = pairing(&p1.add(&p2).to_affine(), &q);
        let rhs = pairing(&p1.to_affine(), &q).mul(&pairing(&p2.to_affine(), &q));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn gt_serialization_is_injective_on_samples() {
        let e1 = pairing(
            &hash_to_g1(b"ser-1").to_affine(),
            &hash_to_g2(b"ser-q").to_affine(),
        );
        let e2 = pairing(
            &hash_to_g1(b"ser-2").to_affine(),
            &hash_to_g2(b"ser-q").to_affine(),
        );
        assert_eq!(e1.to_bytes().len(), 384);
        assert_ne!(e1.to_bytes(), e2.to_bytes());
        assert_eq!(e1.to_bytes(), e1.to_bytes());
    }
}
