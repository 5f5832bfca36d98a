//! Short-Weierstrass curve arithmetic (Jacobian coordinates), generic over
//! the coordinate field so that the same formulas serve `G1` and `G2`.

use core::fmt;
use core::marker::PhantomData;

use seccloud_bigint::{ApInt, U256};

use crate::traits::FieldElement;

/// Static parameters of a curve `y² = x³ + b` (the `a = 0` family that all
/// BN curves and their twists belong to).
pub trait CurveParams: 'static + Copy + Clone + Send + Sync {
    /// Coordinate field.
    type Base: FieldElement;
    /// The constant `b`.
    fn coeff_b() -> Self::Base;
    /// Affine coordinates of the standard generator.
    fn generator() -> (Self::Base, Self::Base);
    /// Human-readable group name (for `Debug`).
    const NAME: &'static str;
}

/// wNAF window width shared by all scalar-multiplication entry points.
const WNAF_W: i64 = 4;
/// Odd-multiple table size for [`WNAF_W`]: `{1, 3, 5, 7}·P`.
pub(crate) const WNAF_TABLE: usize = 1 << (WNAF_W - 2);

/// Recodes a little-endian limb scalar into width-[`WNAF_W`] non-adjacent
/// form digits (LSB first): each nonzero digit is odd in `[−7, 7]`, and
/// any [`WNAF_W`] consecutive digits hold at most one nonzero.
pub(crate) fn wnaf_digits(scalar: &[u64]) -> Vec<i64> {
    let mut digits: Vec<i64> = Vec::with_capacity(scalar.len() * 64 + 1);
    // Work on a mutable little-endian copy.
    let mut limbs = scalar.to_vec();
    limbs.push(0); // headroom for the final carry
    let is_zero = |l: &[u64]| l.iter().all(|&x| x == 0);
    while !is_zero(&limbs) {
        if limbs[0] & 1 == 1 {
            let modw = (limbs[0] & ((1 << WNAF_W) - 1)) as i64;
            let digit = if modw >= 1 << (WNAF_W - 1) {
                modw - (1 << WNAF_W)
            } else {
                modw
            };
            digits.push(digit);
            // limbs -= digit (digit may be negative → addition)
            if digit >= 0 {
                let mut borrow = digit as u64;
                for l in limbs.iter_mut() {
                    let (v, b) = l.overflowing_sub(borrow);
                    *l = v;
                    borrow = u64::from(b);
                    if borrow == 0 {
                        break;
                    }
                }
            } else {
                let mut carry = (-digit) as u64;
                for l in limbs.iter_mut() {
                    let (v, c) = l.overflowing_add(carry);
                    *l = v;
                    carry = u64::from(c);
                    if carry == 0 {
                        break;
                    }
                }
            }
        } else {
            digits.push(0);
        }
        // limbs >>= 1
        let mut carry = 0u64;
        for l in limbs.iter_mut().rev() {
            let next = *l & 1;
            *l = (*l >> 1) | (carry << 63);
            carry = next;
        }
    }
    digits
}

/// A point in Jacobian projective coordinates `(X : Y : Z)` with affine
/// `x = X/Z²`, `y = Y/Z³`; `Z = 0` encodes the identity.
pub struct Point<C: CurveParams> {
    x: C::Base,
    y: C::Base,
    z: C::Base,
    _curve: PhantomData<C>,
}

/// A point in affine coordinates, or the point at infinity.
pub struct Affine<C: CurveParams> {
    x: C::Base,
    y: C::Base,
    infinity: bool,
    _curve: PhantomData<C>,
}

// Manual impls: derive would wrongly require C: Clone etc. (C-STRUCT-BOUNDS).
impl<C: CurveParams> Clone for Point<C> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<C: CurveParams> Copy for Point<C> {}
impl<C: CurveParams> Clone for Affine<C> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<C: CurveParams> Copy for Affine<C> {}

impl<C: CurveParams> Point<C> {
    /// The identity element (point at infinity).
    pub fn identity() -> Self {
        Self {
            x: C::Base::one(),
            y: C::Base::one(),
            z: C::Base::zero(),
            _curve: PhantomData,
        }
    }

    /// The standard generator.
    pub fn generator() -> Self {
        let (x, y) = C::generator();
        Self {
            x,
            y,
            z: C::Base::one(),
            _curve: PhantomData,
        }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (`a = 0` Jacobian doubling).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        // dbl-2009-l formulas.
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = self.x.add(&b).square().sub(&a).sub(&c).double();
        let e = a.double().add(&a); // 3A
        let f = e.square();
        let x3 = f.sub(&d.double());
        let eight_c = c.double().double().double();
        let y3 = e.mul(&d.sub(&x3)).sub(&eight_c);
        let z3 = self.y.mul(&self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
            _curve: PhantomData,
        }
    }

    /// Point addition (general Jacobian addition with doubling fallback).
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        // add-2007-bl formulas.
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = rhs.x.mul(&z1z1);
        let s1 = self.y.mul(&rhs.z).mul(&z2z2);
        let s2 = rhs.y.mul(&self.z).mul(&z1z1);
        if u1 == u2 {
            return if s1 == s2 {
                self.double()
            } else {
                Self::identity()
            };
        }
        let h = u2.sub(&u1);
        let i = h.double().square();
        let j = h.mul(&i);
        let r = s2.sub(&s1).double();
        let v = u1.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&j).double());
        let z3 = self.z.add(&rhs.z).square().sub(&z1z1).sub(&z2z2).mul(&h);
        Self {
            x: x3,
            y: y3,
            z: z3,
            _curve: PhantomData,
        }
    }

    /// Point negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: self.y.neg(),
            z: self.z,
            _curve: PhantomData,
        }
    }

    /// Subtraction `self − rhs`.
    pub fn sub(&self, rhs: &Self) -> Self {
        self.add(&rhs.neg())
    }

    /// Applies a curve endomorphism of the form `(x, y) ↦ (βx, y)`. In
    /// Jacobian coordinates the affine `x = X/Z²`, so scaling `X` by `β`
    /// scales the affine abscissa by `β` while leaving `y` and `Z` alone.
    pub(crate) fn endo_scale_x(&self, beta: &C::Base) -> Self {
        Self {
            x: self.x.mul(beta),
            y: self.y,
            z: self.z,
            _curve: PhantomData,
        }
    }

    /// Precomputes the odd multiples `{P, 3P, 5P, 7P}` used by every wNAF
    /// evaluation loop.
    pub(crate) fn odd_table(&self) -> [Self; WNAF_TABLE] {
        let mut table = [*self; WNAF_TABLE];
        let twice = self.double();
        for i in 1..WNAF_TABLE {
            table[i] = table[i - 1].add(&twice);
        }
        table
    }

    /// Adds the table entry selected by a signed wNAF digit (no-op for 0).
    #[inline]
    pub(crate) fn add_digit(acc: Self, table: &[Self; WNAF_TABLE], digit: i64) -> Self {
        match digit.cmp(&0) {
            core::cmp::Ordering::Greater => acc.add(&table[(digit as usize - 1) / 2]),
            core::cmp::Ordering::Less => acc.add(&table[((-digit) as usize - 1) / 2].neg()),
            core::cmp::Ordering::Equal => acc,
        }
    }

    /// Scalar multiplication using a width-4 signed sliding window (wNAF):
    /// precomputes `{±P, ±3P, ±5P, ±7P}` and processes ~4 bits per group
    /// addition. This is the single dispatched scalar-multiplication entry
    /// point — [`Point::mul_u256`], [`Point::mul_apint`] and the GLV
    /// half-scalars all route through the same recoding and tables.
    pub fn mul_limbs_wnaf(&self, scalar: &[u64]) -> Self {
        if self.is_identity() {
            return *self;
        }
        let digits = wnaf_digits(scalar);
        let table = self.odd_table();
        let mut acc = Self::identity();
        for &digit in digits.iter().rev() {
            acc = acc.double();
            acc = Self::add_digit(acc, &table, digit);
        }
        acc
    }

    /// Scalar multiplication by a 256-bit integer.
    pub fn mul_u256(&self, scalar: &U256) -> Self {
        self.mul_limbs_wnaf(scalar.limbs())
    }

    /// Scalar multiplication by an arbitrary-precision integer (used for
    /// cofactor clearing where the cofactor exceeds 256 bits).
    pub fn mul_apint(&self, scalar: &ApInt) -> Self {
        self.mul_limbs_wnaf(&scalar.to_le_limbs())
    }

    /// Simultaneous double-scalar multiplication `[a]P + [b]Q` via
    /// Strauss–Shamir interleaving of two width-4 wNAF expansions: one
    /// shared doubling chain, two odd-multiple tables — substantially
    /// cheaper than two separate multiplications.
    pub fn double_scalar_mul(p: &Self, a: &U256, q: &Self, b: &U256) -> Self {
        let da = wnaf_digits(a.limbs());
        let db = wnaf_digits(b.limbs());
        let tp = p.odd_table();
        let tq = q.odd_table();
        let mut acc = Self::identity();
        for i in (0..da.len().max(db.len())).rev() {
            acc = acc.double();
            if let Some(&d) = da.get(i) {
                if !p.is_identity() {
                    acc = Self::add_digit(acc, &tp, d);
                }
            }
            if let Some(&d) = db.get(i) {
                if !q.is_identity() {
                    acc = Self::add_digit(acc, &tq, d);
                }
            }
        }
        acc
    }

    /// Constant-time select: `a` when `choice == 0`, `b` when
    /// `choice == 1`, coordinate-wise. `choice` **must** be 0 or 1.
    pub fn ct_select(a: &Self, b: &Self, choice: u64) -> Self {
        Self {
            x: C::Base::ct_select(&a.x, &b.x, choice),
            y: C::Base::ct_select(&a.y, &b.y, choice),
            z: C::Base::ct_select(&a.z, &b.z, choice),
            _curve: PhantomData,
        }
    }

    /// Branchless doubling: the dbl-2009-l formulas evaluated
    /// unconditionally. The identity needs no special case — `Z = 0`
    /// forces `Z₃ = 2·Y·Z = 0`, so the result is again the identity
    /// whatever the other coordinates compute to.
    pub fn double_ct(&self) -> Self {
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = self.x.add(&b).square().sub(&a).sub(&c).double();
        let e = a.double().add(&a);
        let f = e.square();
        let x3 = f.sub(&d.double());
        let eight_c = c.double().double().double();
        let y3 = e.mul(&d.sub(&x3)).sub(&eight_c);
        let z3 = self.y.mul(&self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
            _curve: PhantomData,
        }
    }

    /// Branchless addition: evaluates the general add-2007-bl formulas
    /// unconditionally, then resolves every degenerate case (`P = Q`,
    /// `P = −Q`, either operand the identity) with masked selects instead
    /// of the early returns [`Point::add`] uses. Roughly one doubling
    /// more expensive than `add`; used by the constant-time scalar ladder
    /// where the operands derive from key material.
    pub fn add_ct(&self, rhs: &Self) -> Self {
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = rhs.x.mul(&z1z1);
        let s1 = self.y.mul(&rhs.z).mul(&z2z2);
        let s2 = rhs.y.mul(&self.z).mul(&z1z1);
        let h = u2.sub(&u1);
        let rr = s2.sub(&s1);
        // General chord addition; garbage when h = 0, discarded below.
        let i = h.double().square();
        let j = h.mul(&i);
        let r2 = rr.double();
        let v = u1.mul(&i);
        let x3 = r2.square().sub(&j).sub(&v.double());
        let y3 = r2.mul(&v.sub(&x3)).sub(&s1.mul(&j).double());
        let z3 = self.z.add(&rhs.z).square().sub(&z1z1).sub(&z2z2).mul(&h);
        let general = Self {
            x: x3,
            y: y3,
            z: z3,
            _curve: PhantomData,
        };
        let h_zero = h.ct_is_zero();
        let r_zero = rr.ct_is_zero();
        // h = 0, s₁ = s₂ → tangent case (doubling); h = 0, s₁ ≠ s₂ →
        // inverse points, identity.
        let mut out = Self::ct_select(&general, &self.double_ct(), h_zero & r_zero);
        out = Self::ct_select(&out, &Self::identity(), h_zero & (r_zero ^ 1));
        // Identity operands pass the other side through unchanged (when
        // both are the identity the final select still yields it).
        out = Self::ct_select(&out, self, rhs.z.ct_is_zero());
        Self::ct_select(&out, rhs, self.z.ct_is_zero())
    }

    /// Constant-time scalar multiplication: a fixed 256-iteration
    /// double-and-always-add ladder over [`Point::double_ct`] /
    /// [`Point::add_ct`], with the addition folded in by masked select.
    /// Runs the identical instruction and memory-access sequence for
    /// every `(point, scalar)` pair — use this whenever the scalar is key
    /// material (extraction, per-signature nonces); the wNAF path
    /// ([`Point::mul_u256`]) stays several times faster for public
    /// scalars.
    pub fn mul_u256_ct(&self, scalar: &U256) -> Self {
        let limbs = scalar.limbs();
        let mut acc = Self::identity();
        for i in (0..256).rev() {
            acc = acc.double_ct();
            let sum = acc.add_ct(self);
            let bit = (limbs[i / 64] >> (i % 64)) & 1;
            acc = Self::ct_select(&acc, &sum, bit);
        }
        acc
    }

    /// Converts to affine coordinates.
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_identity() {
            return Affine::identity();
        }
        let z_inv = self.z.inverse().expect("nonzero z");
        let z_inv2 = z_inv.square();
        let z_inv3 = z_inv2.mul(&z_inv);
        Affine {
            x: self.x.mul(&z_inv2),
            y: self.y.mul(&z_inv3),
            infinity: false,
            _curve: PhantomData,
        }
    }
}

impl<C: CurveParams> PartialEq for Point<C> {
    fn eq(&self, other: &Self) -> bool {
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => {
                // Cross-multiplied comparison avoids inversions:
                // X1·Z2² = X2·Z1² and Y1·Z2³ = Y2·Z1³.
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                self.x.mul(&z2z2) == other.x.mul(&z1z1)
                    && self.y.mul(&z2z2.mul(&other.z)) == other.y.mul(&z1z1.mul(&self.z))
            }
        }
    }
}

impl<C: CurveParams> Eq for Point<C> {}

impl<C: CurveParams> fmt::Debug for Point<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.to_affine();
        write!(f, "{}{:?}", C::NAME, (a.x(), a.y(), a.is_identity()))
    }
}

impl<C: CurveParams> From<Affine<C>> for Point<C> {
    fn from(a: Affine<C>) -> Self {
        if a.infinity {
            Self::identity()
        } else {
            Self {
                x: a.x,
                y: a.y,
                z: C::Base::one(),
                _curve: PhantomData,
            }
        }
    }
}

impl<C: CurveParams> Affine<C> {
    /// The point at infinity.
    pub fn identity() -> Self {
        Self {
            x: C::Base::zero(),
            y: C::Base::zero(),
            infinity: true,
            _curve: PhantomData,
        }
    }

    /// Creates an affine point from coordinates, verifying the curve
    /// equation.
    ///
    /// # Errors
    ///
    /// Returns `None` if `(x, y)` does not satisfy `y² = x³ + b`.
    pub fn from_xy(x: C::Base, y: C::Base) -> Option<Self> {
        let p = Self {
            x,
            y,
            infinity: false,
            _curve: PhantomData,
        };
        p.is_on_curve().then_some(p)
    }

    /// Creates an affine point without checking the curve equation.
    ///
    /// Intended for internal construction from trusted computations; all
    /// public deserialization paths go through [`Affine::from_xy`].
    pub fn from_xy_unchecked(x: C::Base, y: C::Base) -> Self {
        Self {
            x,
            y,
            infinity: false,
            _curve: PhantomData,
        }
    }

    /// The affine `x` coordinate (zero for the identity).
    pub fn x(&self) -> C::Base {
        self.x
    }

    /// The affine `y` coordinate (zero for the identity).
    pub fn y(&self) -> C::Base {
        self.y
    }

    /// Whether this is the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Whether the coordinates satisfy `y² = x³ + b` (identity counts as on
    /// the curve).
    pub fn is_on_curve(&self) -> bool {
        self.infinity || self.y.square() == self.x.square().mul(&self.x).add(&C::coeff_b())
    }

    /// Point negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: self.y.neg(),
            infinity: self.infinity,
            _curve: PhantomData,
        }
    }
}

impl<C: CurveParams> PartialEq for Affine<C> {
    fn eq(&self, other: &Self) -> bool {
        (self.infinity && other.infinity)
            || (!self.infinity && !other.infinity && self.x == other.x && self.y == other.y)
    }
}

impl<C: CurveParams> Eq for Affine<C> {}

impl<C: CurveParams> fmt::Debug for Affine<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "{}(infinity)", C::NAME)
        } else {
            write!(f, "{}({:?}, {:?})", C::NAME, self.x, self.y)
        }
    }
}
