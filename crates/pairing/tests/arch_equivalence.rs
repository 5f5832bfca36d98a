//! Kernel-equivalence property suite: every `arch` kernel must be bit for
//! bit equal to the strict oracle in `mod reference` below.
//!
//! The oracle is the crate's original field arithmetic: loop-based CIOS
//! Montgomery multiplication and `U256` round-trip add/sub, reducing
//! eagerly so no value wider than 4 limbs survives past one operation. It
//! lives here, not in the crate, because nothing but this suite runs it.
//!
//! Generators mix uniform residues with the adversarial edge values for
//! lazy reduction: `0`, `1`, `2`, `p−1`, `p−2`, `(p−1)/2` and the
//! Montgomery image of one. Non-canonical raw integers (`p ± ε`) are
//! covered through the `from_u256` canonicalization property.

use seccloud_bigint::U256;
use seccloud_pairing::arch;
use seccloud_pairing::{
    hash_to_g1, hash_to_g2, pairing, pairing_prepared, FieldElement, Fp, Fp2, Fr, G2Prepared, G1,
};
use seccloud_testkit::{forall, Tape};

/// The strict oracle: no lazy reduction, no unrolling.
mod reference {
    use seccloud_bigint::{adc, mac, U256};

    /// Loop-based CIOS Montgomery multiplication with a strict final subtract.
    pub fn mont_mul(a: &[u64; 4], b: &[u64; 4], m: &[u64; 4], inv: u64) -> [u64; 4] {
        let mut t = [0u64; 6];
        for &ai in a.iter() {
            let mut carry = 0;
            for j in 0..4 {
                let (lo, c) = mac(t[j], ai, b[j], carry);
                t[j] = lo;
                carry = c;
            }
            let (lo, c) = adc(t[4], carry, 0);
            t[4] = lo;
            t[5] = c;

            let k = t[0].wrapping_mul(inv);
            let (_, mut carry) = mac(t[0], k, m[0], 0);
            for j in 1..4 {
                let (lo, c) = mac(t[j], k, m[j], carry);
                t[j - 1] = lo;
                carry = c;
            }
            let (lo, c) = adc(t[4], carry, 0);
            t[3] = lo;
            t[4] = t[5] + c;
            t[5] = 0;
        }
        let mut out = U256::from_limbs([t[0], t[1], t[2], t[3]]);
        let modulus = U256::from_limbs(*m);
        if t[4] != 0 || out >= modulus {
            out = out.wrapping_sub(&modulus);
        }
        *out.limbs()
    }

    /// Modular addition via `U256` round-trips.
    pub fn add_mod(a: &[u64; 4], b: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
        let a = U256::from_limbs(*a);
        let b = U256::from_limbs(*b);
        let m = U256::from_limbs(*m);
        // a, b < m < 2²⁵⁵ so no carry out of 256 bits.
        let mut s = a.wrapping_add(&b);
        if s >= m {
            s = s.wrapping_sub(&m);
        }
        *s.limbs()
    }

    /// Modular subtraction via `U256` round-trips.
    pub fn sub_mod(a: &[u64; 4], b: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
        let a = U256::from_limbs(*a);
        let b = U256::from_limbs(*b);
        let (mut d, borrow) = a.overflowing_sub(&b);
        if borrow {
            d = d.wrapping_add(&U256::from_limbs(*m));
        }
        *d.limbs()
    }

    /// Modular negation via `U256`.
    pub fn neg_mod(a: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
        if *a == [0u64; 4] {
            return *a;
        }
        let m = U256::from_limbs(*m);
        let v = U256::from_limbs(*a);
        *m.wrapping_sub(&v).limbs()
    }

    /// Strict Karatsuba `Fp2` product (3 reduced multiplications).
    pub fn fp2_mul(
        a0: &[u64; 4],
        a1: &[u64; 4],
        b0: &[u64; 4],
        b1: &[u64; 4],
        m: &[u64; 4],
        inv: u64,
    ) -> ([u64; 4], [u64; 4]) {
        let aa = mont_mul(a0, b0, m, inv);
        let bb = mont_mul(a1, b1, m, inv);
        let sa = add_mod(a0, a1, m);
        let sb = add_mod(b0, b1, m);
        let sum = mont_mul(&sa, &sb, m, inv);
        let c0 = sub_mod(&aa, &bb, m);
        let c1 = sub_mod(&sub_mod(&sum, &aa, m), &bb, m);
        (c0, c1)
    }

    /// Strict `Fp2` square `(a+b)(a−b) + 2ab·u` (2 reduced multiplications).
    pub fn fp2_sqr(a0: &[u64; 4], a1: &[u64; 4], m: &[u64; 4], inv: u64) -> ([u64; 4], [u64; 4]) {
        let plus = add_mod(a0, a1, m);
        let minus = sub_mod(a0, a1, m);
        let c0 = mont_mul(&plus, &minus, m, inv);
        let cross = mont_mul(a0, a1, m, inv);
        let c1 = add_mod(&cross, &cross, m);
        (c0, c1)
    }
}

/// A canonical residue mod `p`, biased heavily toward reduction edges.
fn fp_limbs(t: &mut Tape) -> [u64; 4] {
    let p = Fp::modulus();
    match t.next_below(10) {
        0 => [0u64; 4],
        1 => [1, 0, 0, 0],
        2 => [2, 0, 0, 0],
        3 => *p.wrapping_sub(&U256::ONE).limbs(),
        4 => *p.wrapping_sub(&U256::from_u64(2)).limbs(),
        5 => *p.shr(1).limbs(),
        6 => *Fp::one().repr(), // the Montgomery image R mod p
        _ => {
            let raw = U256::from_limbs(std::array::from_fn(|_| t.next_u64()));
            *Fp::from_u256(&raw).repr()
        }
    }
}

#[test]
fn mont_mul_matches_reference() {
    forall(
        "arch/mont_mul",
        |t| (fp_limbs(t), fp_limbs(t)),
        |(a, b)| {
            let m = &Fp::MODULUS;
            let want = reference::mont_mul(a, b, m, Fp::NEG_INV);
            let got = arch::mont_mul(a, b, m, Fp::NEG_INV);
            if got != want {
                return Err(format!("{got:?} != reference {want:?}"));
            }
            if U256::from_limbs(got) >= Fp::modulus() {
                return Err(format!("non-canonical output {got:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn add_sub_neg_match_reference() {
    forall(
        "arch/add_sub_neg",
        |t| (fp_limbs(t), fp_limbs(t)),
        |(a, b)| {
            let m = &Fp::MODULUS;
            let trio = [
                ("add", arch::add_mod(a, b, m), reference::add_mod(a, b, m)),
                ("sub", arch::sub_mod(a, b, m), reference::sub_mod(a, b, m)),
                ("neg", arch::neg_mod(a, m), reference::neg_mod(a, m)),
            ];
            for (op, got, want) in trio {
                if got != want {
                    return Err(format!("{op}: {got:?} != {want:?}"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn fp2_kernels_match_reference() {
    forall(
        "arch/fp2_mul_sqr",
        |t| (fp_limbs(t), fp_limbs(t), fp_limbs(t), fp_limbs(t)),
        |(a0, a1, b0, b1)| {
            let m = &Fp::MODULUS;
            let want_mul = reference::fp2_mul(a0, a1, b0, b1, m, Fp::NEG_INV);
            let got_mul = arch::fp2_mul(a0, a1, b0, b1, m, &Fp::M2, Fp::NEG_INV);
            if got_mul != want_mul {
                return Err(format!("fp2_mul: {got_mul:?} != {want_mul:?}"));
            }
            let want_sqr = reference::fp2_sqr(a0, a1, m, Fp::NEG_INV);
            let got_sqr = arch::fp2_sqr(a0, a1, m, Fp::NEG_INV);
            if got_sqr != want_sqr {
                return Err(format!("fp2_sqr: {got_sqr:?} != {want_sqr:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn from_u256_canonicalizes_out_of_range_inputs() {
    // Non-canonical raw integers (p ± ε, 2p ± ε, MAX) must enter the field
    // already reduced, so no lazy-reduction bound ever sees limbs ≥ p.
    forall(
        "arch/from_u256_canonical",
        |t| {
            let p = Fp::modulus();
            let eps = U256::from_u64(t.next_below(4));
            match t.next_below(5) {
                0 => p.wrapping_add(&eps),
                1 => p.wrapping_sub(&eps),
                2 => p.shl(1).wrapping_add(&eps),
                3 => U256::MAX.wrapping_sub(&eps),
                _ => U256::from_limbs(std::array::from_fn(|_| t.next_u64())),
            }
        },
        |raw| {
            let x = Fp::from_u256(raw);
            if U256::from_limbs(*x.repr()) >= Fp::modulus() {
                return Err(format!("from_u256({raw:?}) left non-canonical limbs"));
            }
            // And the value is correct: x ≡ raw (mod p), checked additively.
            let p = Fp::modulus();
            let mut reduced = *raw;
            while reduced >= p {
                reduced = reduced.wrapping_sub(&p);
            }
            if x.to_u256() != reduced {
                return Err(format!("from_u256({raw:?}) wrong residue"));
            }
            Ok(())
        },
    );
}

#[test]
fn vartime_inverse_matches_fermat_inverse() {
    // The Euclidean fast path used on public Miller-loop operands must
    // agree with the constant-time Fermat ladder everywhere, including the
    // reduction edge values.
    forall(
        "arch/inverse_vartime",
        |t| (fp_limbs(t), fp_limbs(t)),
        |(a, b)| {
            let x = Fp::from_repr_unchecked(*a);
            if x.inverse_vartime() != x.inverse() {
                return Err(format!("Fp inverse mismatch for {x:?}"));
            }
            let x2 = Fp2::new(x, Fp::from_repr_unchecked(*b));
            if x2.inverse_vartime() != x2.inverse() {
                return Err(format!("Fp2 inverse mismatch for {x2:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn pairing_is_bilinear_and_prepared_agrees() {
    // The kernels above feed the whole tower; a pairing that is bilinear
    // and equal to its prepared form is the protocol-level cross-check
    // (`tests/backends.rs` adds ate-vs-Tate).
    let p = hash_to_g1(b"arch-eq-p").to_affine();
    let q = hash_to_g2(b"arch-eq-q").to_affine();
    let k = Fr::hash(b"arch-eq-k");
    assert_eq!(pairing(&p, &q), pairing_prepared(&p, &G2Prepared::from(&q)));
    assert_eq!(
        pairing(&G1::generator().mul_fr(&k).to_affine(), &q),
        pairing(&G1::generator().to_affine(), &q).pow(&k),
    );
}

#[test]
fn the_only_backend_is_named_generic() {
    assert_eq!(arch::active().name(), "generic");
}
