//! Fixed-width unsigned limb arithmetic and a macro generating Montgomery-form
//! prime fields.
//!
//! The two concrete fields of the crate — [`crate::Fp`] (381-bit base field)
//! and [`crate::Fr`] (255-bit scalar field) — are both generated by
//! [`impl_montgomery_field!`] from constants produced by
//! `tools/gen_pairing_constants.py` and the published BLS12-381 parameters
//! (see [`crate::constants`]). Elements are stored as little-endian `u64` limb
//! arrays in Montgomery form (`a·R mod p`, `R = 2^(64·LIMBS)`), always fully
//! reduced to `[0, p)`, so limb-wise equality is canonical equality.

/// Computes `a + b + carry`, returning the result and the new carry.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let ret = (a as u128) + (b as u128) + (carry as u128);
    (ret as u64, (ret >> 64) as u64)
}

/// Computes `a - b - borrow`, returning the result and the new borrow.
///
/// `borrow` must be `0` or `u64::MAX` (all-ones means "borrow pending"); the
/// returned borrow follows the same convention.
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let ret = (a as u128).wrapping_sub((b as u128) + ((borrow >> 63) as u128));
    (ret as u64, (ret >> 64) as u64)
}

/// Computes `a + (b * c) + carry`, returning the result and the new carry.
#[inline(always)]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let ret = (a as u128) + (b as u128) * (c as u128) + (carry as u128);
    (ret as u64, (ret >> 64) as u64)
}

/// Generates a prime-field type backed by Montgomery arithmetic.
///
/// Parameters:
/// * `$name` — the type to define;
/// * `$limbs` — number of 64-bit limbs;
/// * `$modulus`/`$inv`/`$r`/`$r2`/`$r3` — Montgomery constants
///   (`$inv = -modulus^-1 mod 2^64`, `$r = 2^(64·limbs) mod modulus`, …);
/// * `$inv_exp` — `modulus - 2`, used for Fermat inversion;
/// * `$topmask` — mask applied to the top limb when rejection-sampling
///   uniformly random elements.
macro_rules! impl_montgomery_field {
    ($(#[$attr:meta])* $name:ident, $limbs:expr, $modulus:expr, $inv:expr,
     $r:expr, $r2:expr, $r3:expr, $inv_exp:expr, $topmask:expr) => {
        $(#[$attr])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name(pub(crate) [u64; $limbs]);

        // The precondition of the no-carry CIOS form of `mul`.
        const _: () = assert!(
            $modulus[$limbs - 1] < (u64::MAX >> 1) - 1,
            concat!(
                stringify!($name),
                ": no-carry Montgomery multiplication needs a top modulus limb below 2^63 - 1"
            )
        );

        impl $name {
            /// The field modulus as little-endian limbs.
            pub const MODULUS: [u64; $limbs] = $modulus;

            /// The additive identity.
            #[inline]
            pub const fn zero() -> Self {
                $name([0u64; $limbs])
            }

            /// The multiplicative identity.
            #[inline]
            pub const fn one() -> Self {
                $name($r)
            }

            /// Returns `true` if this element is zero.
            #[inline]
            pub fn is_zero(&self) -> bool {
                self.0.iter().all(|&l| l == 0)
            }

            /// Constructs an element from a small integer.
            pub fn from_u64(v: u64) -> Self {
                let mut limbs = [0u64; $limbs];
                limbs[0] = v;
                $name(limbs).to_montgomery()
            }

            /// Interprets `limbs` as a canonical (non-Montgomery) integer and
            /// converts it into the field. The value must already be reduced.
            pub(crate) fn from_canonical_limbs(limbs: [u64; $limbs]) -> Self {
                $name(limbs).to_montgomery()
            }

            #[inline]
            fn to_montgomery(self) -> Self {
                self.mul(&$name($r2))
            }

            /// Returns the canonical little-endian limb representation
            /// (out of Montgomery form), fully reduced.
            pub fn to_canonical_limbs(&self) -> [u64; $limbs] {
                let mut wide = [0u64; 2 * $limbs];
                wide[..$limbs].copy_from_slice(&self.0);
                Self::montgomery_reduce(&mut wide)
            }

            /// Serializes to canonical big-endian bytes.
            pub fn to_bytes(&self) -> [u8; $limbs * 8] {
                let limbs = self.to_canonical_limbs();
                let mut out = [0u8; $limbs * 8];
                for i in 0..$limbs {
                    out[8 * i..8 * i + 8]
                        .copy_from_slice(&limbs[$limbs - 1 - i].to_be_bytes());
                }
                out
            }

            /// Deserializes from canonical big-endian bytes.
            ///
            /// Returns `None` if the encoded integer is not fully reduced.
            pub fn from_bytes(bytes: &[u8; $limbs * 8]) -> Option<Self> {
                let mut limbs = [0u64; $limbs];
                for i in 0..$limbs {
                    let mut chunk = [0u8; 8];
                    chunk.copy_from_slice(&bytes[8 * i..8 * i + 8]);
                    limbs[$limbs - 1 - i] = u64::from_be_bytes(chunk);
                }
                if !Self::limbs_lt(&limbs, &Self::MODULUS) {
                    return None;
                }
                Some(Self::from_canonical_limbs(limbs))
            }

            /// Reduces a double-width big-endian byte string modulo the field
            /// order. Used to turn hash output into nearly-uniform elements
            /// (bias ≤ 2^-120 for both fields of this crate).
            pub fn from_bytes_wide(bytes: &[u8; $limbs * 16]) -> Self {
                // Split v = hi·R + lo. The Montgomery form of v is
                //   v·R = hi·R² + lo·R = redc(hi·R³) + redc(lo·R²).
                // The halves are raw integers below R, not reduced
                // elements, so the products are formed on limbs; each is
                // below R·p, the bound of `montgomery_reduce`.
                let mut wide = [0u64; 2 * $limbs];
                for i in 0..(2 * $limbs) {
                    let mut chunk = [0u8; 8];
                    chunk.copy_from_slice(&bytes[8 * i..8 * i + 8]);
                    wide[2 * $limbs - 1 - i] = u64::from_be_bytes(chunk);
                }
                let mut lo = [0u64; $limbs];
                let mut hi = [0u64; $limbs];
                lo.copy_from_slice(&wide[..$limbs]);
                hi.copy_from_slice(&wide[$limbs..]);
                let lo_m = Self::montgomery_reduce(&mut Self::mul_wide(&lo, &$r2));
                let hi_m = Self::montgomery_reduce(&mut Self::mul_wide(&hi, &$r3));
                $name(lo_m).add(&$name(hi_m))
            }

            /// `true` iff `a < b` as little-endian multi-precision integers.
            fn limbs_lt(a: &[u64; $limbs], b: &[u64; $limbs]) -> bool {
                for i in (0..$limbs).rev() {
                    if a[i] < b[i] {
                        return true;
                    }
                    if a[i] > b[i] {
                        return false;
                    }
                }
                false
            }

            /// Compares canonical integer representatives.
            pub fn canonical_cmp(&self, other: &Self) -> core::cmp::Ordering {
                let a = self.to_canonical_limbs();
                let b = other.to_canonical_limbs();
                for i in (0..$limbs).rev() {
                    match a[i].cmp(&b[i]) {
                        core::cmp::Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                core::cmp::Ordering::Equal
            }

            /// Returns `true` if the canonical representative is odd.
            pub fn is_odd(&self) -> bool {
                self.to_canonical_limbs()[0] & 1 == 1
            }

            /// Samples a uniformly random field element by rejection.
            pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
                loop {
                    let mut limbs = [0u64; $limbs];
                    for l in limbs.iter_mut() {
                        *l = rng.next_u64();
                    }
                    limbs[$limbs - 1] &= $topmask;
                    if Self::limbs_lt(&limbs, &Self::MODULUS) {
                        return Self::from_canonical_limbs(limbs);
                    }
                }
            }

            #[inline]
            fn subtract_modulus(limbs: &[u64; $limbs]) -> [u64; $limbs] {
                let mut s = [0u64; $limbs];
                let mut borrow = 0u64;
                for i in 0..$limbs {
                    let (d, b) = sbb(limbs[i], Self::MODULUS[i], borrow);
                    s[i] = d;
                    borrow = b;
                }
                // borrow == all-ones  =>  limbs < modulus  =>  keep limbs.
                let keep = borrow;
                let mut out = [0u64; $limbs];
                for i in 0..$limbs {
                    out[i] = (limbs[i] & keep) | (s[i] & !keep);
                }
                out
            }

            #[inline]
            pub(crate) fn add(&self, rhs: &Self) -> Self {
                let mut d = [0u64; $limbs];
                let mut carry = 0u64;
                for i in 0..$limbs {
                    let (s, c) = adc(self.0[i], rhs.0[i], carry);
                    d[i] = s;
                    carry = c;
                }
                // Both inputs < p and 2p fits in the limb array, so no carry.
                $name(Self::subtract_modulus(&d))
            }

            #[inline]
            pub(crate) fn sub(&self, rhs: &Self) -> Self {
                let mut d = [0u64; $limbs];
                let mut borrow = 0u64;
                for i in 0..$limbs {
                    let (s, b) = sbb(self.0[i], rhs.0[i], borrow);
                    d[i] = s;
                    borrow = b;
                }
                // Add the modulus back if the subtraction borrowed.
                let mask = borrow;
                let mut carry = 0u64;
                for i in 0..$limbs {
                    let (s, c) = adc(d[i], Self::MODULUS[i] & mask, carry);
                    d[i] = s;
                    carry = c;
                }
                $name(d)
            }

            #[inline]
            pub(crate) fn neg_internal(&self) -> Self {
                if self.is_zero() {
                    return *self;
                }
                let mut d = [0u64; $limbs];
                let mut borrow = 0u64;
                for i in 0..$limbs {
                    let (s, b) = sbb(Self::MODULUS[i], self.0[i], borrow);
                    d[i] = s;
                    borrow = b;
                }
                $name(d)
            }

            /// Doubles this element.
            #[inline]
            pub fn double(&self) -> Self {
                self.add(self)
            }

            /// Schoolbook double-width product of two limb arrays, for
            /// inputs that are not reduced field elements
            /// (the raw halves of [`Self::from_bytes_wide`]); with
            /// [`Self::montgomery_reduce`] it is also the test oracle of
            /// [`Self::mul`].
            #[inline]
            fn mul_wide(a: &[u64; $limbs], b: &[u64; $limbs]) -> [u64; 2 * $limbs] {
                let mut t = [0u64; 2 * $limbs];
                for i in 0..$limbs {
                    let mut carry = 0u64;
                    for j in 0..$limbs {
                        let (lo, c) = mac(t[i + j], a[i], b[j], carry);
                        t[i + j] = lo;
                        carry = c;
                    }
                    t[i + $limbs] = carry;
                }
                t
            }

            /// Montgomery reduction: interprets `t` as an integer
            /// `< p·2^(64·limbs)` and returns `t·R^-1 mod p`, fully reduced.
            #[inline]
            fn montgomery_reduce(t: &mut [u64; 2 * $limbs]) -> [u64; $limbs] {
                let mut carry2 = 0u64;
                for i in 0..$limbs {
                    let k = t[i].wrapping_mul($inv);
                    let mut carry = 0u64;
                    for j in 0..$limbs {
                        let (lo, c) = mac(t[i + j], k, Self::MODULUS[j], carry);
                        t[i + j] = lo;
                        carry = c;
                    }
                    let (lo, c) = adc(t[i + $limbs], carry2, carry);
                    t[i + $limbs] = lo;
                    carry2 = c;
                }
                let mut out = [0u64; $limbs];
                out.copy_from_slice(&t[$limbs..]);
                Self::subtract_modulus(&out)
            }

            /// `true` iff the limbs are below the modulus, the invariant
            /// every element keeps.
            fn is_reduced(&self) -> bool {
                Self::limbs_lt(&self.0, &Self::MODULUS)
            }

            /// Montgomery product `self·rhs·R⁻¹ mod p`: one CIOS pass
            /// (coarsely integrated operand scanning) per limb of `rhs`,
            /// adding the row `self·rhs[i]` and the reduction multiple
            /// `m·p` in the same sweep and shifting down one limb. This
            /// is the "no-carry" form: the row's and the reduction's top
            /// carries are kept apart and summed after the shift, so the
            /// running sum needs no extra limb. It is exact when both
            /// inputs are below `p` and the modulus's top limb is below
            /// `2^63 - 1` (asserted at compile time): the sum then stays
            /// below `2p < R`, and one conditional subtraction lands it
            /// in `[0, p)`.
            #[inline(always)]
            pub(crate) fn mul(&self, rhs: &Self) -> Self {
                debug_assert!(self.is_reduced() && rhs.is_reduced(), "unreduced operand");
                let (a, b) = (&self.0, &rhs.0);
                let mut t = [0u64; $limbs];
                for i in 0..$limbs {
                    let (t0, mut row_carry) = mac(t[0], a[0], b[i], 0);
                    let m = t0.wrapping_mul($inv);
                    let (_, mut red_carry) = mac(t0, m, Self::MODULUS[0], 0);
                    for j in 1..$limbs {
                        let (tj, c) = mac(t[j], a[j], b[i], row_carry);
                        row_carry = c;
                        let (tj, c) = mac(tj, m, Self::MODULUS[j], red_carry);
                        red_carry = c;
                        t[j - 1] = tj;
                    }
                    t[$limbs - 1] = row_carry + red_carry;
                }
                $name(Self::subtract_modulus(&t))
            }

            /// The separated product: [`Self::mul_wide`] into a 2·LIMBS
            /// temporary, then [`Self::montgomery_reduce`]. The oracle
            /// [`Self::mul`] and [`Self::square`] are tested against.
            #[cfg(test)]
            pub(crate) fn mul_separated(&self, rhs: &Self) -> Self {
                $name(Self::montgomery_reduce(&mut Self::mul_wide(&self.0, &rhs.0)))
            }

            /// Squares this element. The `LIMBS·(LIMBS-1)/2` off-diagonal
            /// products `a[i]·a[j]` (`i < j`) are computed once and
            /// doubled with a one-bit shift, then the `LIMBS` diagonal
            /// squares are added: 21 limb products for `Fp`, where a
            /// multiplication's rows take 36. The square `hi·R + lo` is
            /// then reduced as `lo·R⁻¹ + hi`: `LIMBS` reduction steps take
            /// `lo` to at most `(lo + (R−1)·p)/R ≤ p`, and `hi < p²/R`, so
            /// the sum is below `2p` and one conditional subtraction
            /// reduces it.
            #[inline(always)]
            pub fn square(&self) -> Self {
                let a = &self.0;
                let mut t = [0u64; 2 * $limbs];
                for i in 0..$limbs - 1 {
                    let mut carry = 0u64;
                    for j in (i + 1)..$limbs {
                        let (lo, c) = mac(t[i + j], a[i], a[j], carry);
                        t[i + j] = lo;
                        carry = c;
                    }
                    t[i + $limbs] = carry;
                }
                t[2 * $limbs - 1] = t[2 * $limbs - 2] >> 63;
                for k in (1..2 * $limbs - 1).rev() {
                    t[k] = (t[k] << 1) | (t[k - 1] >> 63);
                }
                let mut carry = 0u64;
                for i in 0..$limbs {
                    let (lo, c) = mac(t[2 * i], a[i], a[i], carry);
                    t[2 * i] = lo;
                    let (hi, c) = adc(t[2 * i + 1], 0, c);
                    t[2 * i + 1] = hi;
                    carry = c;
                }

                let mut u = [0u64; $limbs];
                u.copy_from_slice(&t[..$limbs]);
                for _ in 0..$limbs {
                    let m = u[0].wrapping_mul($inv);
                    let (_, mut carry) = mac(u[0], m, Self::MODULUS[0], 0);
                    for j in 1..$limbs {
                        let (lo, c) = mac(u[j], m, Self::MODULUS[j], carry);
                        u[j - 1] = lo;
                        carry = c;
                    }
                    u[$limbs - 1] = carry;
                }
                let mut carry = 0u64;
                for i in 0..$limbs {
                    let (s, c) = adc(u[i], t[$limbs + i], carry);
                    u[i] = s;
                    carry = c;
                }
                $name(Self::subtract_modulus(&u))
            }

            /// Raises this element to an arbitrary little-endian limb
            /// exponent. Variable-time; must not be used with secret
            /// exponents in hostile environments.
            ///
            /// A 4-bit fixed window: 14 multiplications fill the table
            /// `self^0..self^15`, then every nibble costs four squarings
            /// and at most one multiplication (one per 4 bits, against
            /// one per 2 for square-and-multiply). Every production
            /// caller — [`Self::invert`], `Fp::sqrt`, both legs of
            /// `Fp2::sqrt` — passes a full-width exponent, where the
            /// table is repaid many times over.
            pub fn pow_vartime(&self, exp: &[u64]) -> Self {
                let mut table = [Self::one(); 16];
                table[1] = *self;
                for i in 2..16 {
                    table[i] = table[i - 1].mul(self);
                }
                let mut res = Self::one();
                let mut started = false;
                for e in exp.iter().rev() {
                    for shift in (0..64).step_by(4).rev() {
                        if started {
                            res = res.square().square().square().square();
                        }
                        let digit = ((*e >> shift) & 0xf) as usize;
                        if digit != 0 {
                            res = if started {
                                res.mul(&table[digit])
                            } else {
                                table[digit]
                            };
                            started = true;
                        }
                    }
                }
                res
            }

            /// Square-and-multiply exponentiation: the oracle the
            /// windowed [`Self::pow_vartime`] is tested against.
            #[cfg(test)]
            pub(crate) fn pow_vartime_binary(&self, exp: &[u64]) -> Self {
                let mut res = Self::one();
                let mut started = false;
                for e in exp.iter().rev() {
                    for i in (0..64).rev() {
                        if started {
                            res = res.square();
                        }
                        if (*e >> i) & 1 == 1 {
                            res = res.mul(self);
                            started = true;
                        }
                    }
                }
                res
            }

            /// Computes the multiplicative inverse, or `None` for zero.
            pub fn invert(&self) -> Option<Self> {
                if self.is_zero() {
                    None
                } else {
                    Some(self.pow_vartime(&$inv_exp))
                }
            }

            /// Sums an iterator of elements.
            pub fn sum<I: IntoIterator<Item = Self>>(iter: I) -> Self {
                iter.into_iter().fold(Self::zero(), |acc, x| acc.add(&x))
            }

            /// Multiplies an iterator of elements.
            pub fn product<I: IntoIterator<Item = Self>>(iter: I) -> Self {
                iter.into_iter().fold(Self::one(), |acc, x| acc.mul(&x))
            }
        }

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, concat!(stringify!($name), "(0x"))?;
                for l in self.to_canonical_limbs().iter().rev() {
                    write!(f, "{:016x}", l)?;
                }
                write!(f, ")")
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                core::fmt::Debug::fmt(self, f)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self::from_u64(v)
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                $name::add(&self, &rhs)
            }
        }
        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                $name::sub(&self, &rhs)
            }
        }
        impl core::ops::Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                $name::mul(&self, &rhs)
            }
        }
        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                self.neg_internal()
            }
        }
        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = $name::add(self, &rhs);
            }
        }
        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = $name::sub(self, &rhs);
            }
        }
        impl core::ops::MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = $name::mul(self, &rhs);
            }
        }
    };
}

pub(crate) use impl_montgomery_field;

/// Recodes a little-endian limb integer into width-`w` NAF (non-adjacent
/// form): a digit vector `d` with `value = Σ d[i]·2^i`, every non-zero
/// digit odd and in `(-2^(w-1), 2^(w-1))`, and runs of at least `w - 1`
/// zeros between non-zero digits. Variable-time in the value.
///
/// The signed-digit form is what makes window-4 scalar multiplication
/// touch a table of only the *odd* multiples `{1, 3, 5, 7}·P` with an
/// average of one addition per `w + 1` bits (versus one per 2 bits for
/// plain double-and-add).
///
/// The trailing digit of a non-zero input is always non-zero; the empty
/// vector encodes zero.
///
/// # Panics
///
/// Panics unless `2 <= width <= 7` (digits must fit an `i8`).
pub(crate) fn wnaf_digits(limbs: &[u64], width: usize) -> Vec<i8> {
    assert!((2..=7).contains(&width), "wNAF width out of range");
    // One spare limb absorbs the carry when a negative digit is lifted
    // out of the top bits.
    let mut v: Vec<u64> = limbs.to_vec();
    v.push(0);
    let radix = 1u64 << width;
    let half = 1u64 << (width - 1);
    let mut digits = Vec::with_capacity(limbs.len() * 64 + 1);
    while v.iter().any(|&l| l != 0) {
        let d: i64 = if v[0] & 1 == 1 {
            let val = v[0] & (radix - 1);
            // Center into (-2^(w-1), 2^(w-1)): large residues become
            // negative digits plus a borrow into the next window.
            if val >= half {
                let d = val as i64 - radix as i64;
                add_small(&mut v, (-d) as u64);
                d
            } else {
                sub_small(&mut v, val);
                val as i64
            }
        } else {
            0
        };
        digits.push(d as i8);
        shr1(&mut v);
    }
    digits
}

/// In-place `v += x` for a small `x` (carry propagation).
fn add_small(v: &mut [u64], x: u64) {
    let mut carry = x;
    for limb in v.iter_mut() {
        if carry == 0 {
            break;
        }
        let (sum, c) = adc(*limb, carry, 0);
        *limb = sum;
        carry = c;
    }
    debug_assert_eq!(carry, 0, "add_small overflow");
}

/// In-place `v -= x` for a small `x <= v` (borrow propagation).
fn sub_small(v: &mut [u64], x: u64) {
    let mut borrow = 0u64;
    let mut rhs = x;
    for limb in v.iter_mut() {
        if rhs == 0 && borrow == 0 {
            break;
        }
        let (diff, b) = sbb(*limb, rhs, borrow);
        *limb = diff;
        borrow = b;
        rhs = 0;
    }
    debug_assert_eq!(borrow, 0, "sub_small underflow");
}

/// In-place logical right shift by one bit.
fn shr1(v: &mut [u64]) {
    let mut carry = 0u64;
    for limb in v.iter_mut().rev() {
        let next_carry = *limb << 63;
        *limb = (*limb >> 1) | carry;
        carry = next_carry;
    }
}

#[cfg(test)]
mod kernel_tests {
    use crate::{Fp, Fr};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Checks `mul` and `square` against the separated product
    /// (`mul_wide` + `montgomery_reduce`) on raw Montgomery limbs: every
    /// pair of edge inputs, then 10 000 seeded pairs drawn directly as
    /// limbs below the modulus (not through the kernel under test).
    macro_rules! differential {
        ($test:ident, $field:ident, $limbs:expr) => {
            #[test]
            fn $test() {
                let p = $field::MODULUS;
                let p_minus = |d: u64| {
                    let mut l = p;
                    l[0] -= d;
                    $field(l)
                };
                let mut low_ones = [u64::MAX; $limbs];
                low_ones[$limbs - 1] = 0;
                let mut high_low_ones = low_ones;
                high_low_ones[$limbs - 1] = p[$limbs - 1] - 1;
                let edges = [
                    $field::zero(),
                    $field({
                        let mut l = [0u64; $limbs];
                        l[0] = 1;
                        l
                    }),
                    $field::one(),
                    p_minus(1),
                    p_minus(2),
                    -$field::one(),
                    $field(low_ones),
                    $field(high_low_ones),
                ];
                let mut rng = StdRng::seed_from_u64(0xc105);
                let mut random = || loop {
                    let mut l = [0u64; $limbs];
                    for limb in l.iter_mut() {
                        *limb = rng.next_u64();
                    }
                    l[$limbs - 1] &= u64::MAX >> (p[$limbs - 1].leading_zeros());
                    if l.iter().rev().lt(p.iter().rev()) {
                        return $field(l);
                    }
                };
                for a in &edges {
                    assert_eq!(a.square(), a.mul_separated(a), "square {:?}", a);
                    for b in &edges {
                        assert_eq!(a.mul(b), a.mul_separated(b), "{:?} * {:?}", a, b);
                    }
                }
                for _ in 0..10_000 {
                    let (a, b) = (random(), random());
                    assert_eq!(a.mul(&b), a.mul_separated(&b), "{:?} * {:?}", a, b);
                    assert_eq!(a.square(), a.mul_separated(&a), "square {:?}", a);
                }
            }
        };
    }

    differential!(fp_kernel_matches_separated_product, Fp, 6);
    differential!(fr_kernel_matches_separated_product, Fr, 4);
}

#[cfg(test)]
mod wnaf_tests {
    use super::wnaf_digits;

    /// Evaluates a digit vector back to a u128 (small test values only).
    fn eval(digits: &[i8]) -> i128 {
        digits
            .iter()
            .enumerate()
            .map(|(i, &d)| (d as i128) << i)
            .sum()
    }

    #[test]
    fn roundtrips_small_values() {
        for width in 2..=7usize {
            for value in 0u64..500 {
                let digits = wnaf_digits(&[value], width);
                assert_eq!(eval(&digits) as u64, value, "w={} v={}", width, value);
            }
        }
    }

    #[test]
    fn digits_are_odd_and_bounded() {
        let half = 1i8 << 3; // width 4
        for value in [1u64, 0xdead_beef, u64::MAX, 0x8000_0000_0000_0001] {
            for d in wnaf_digits(&[value, value], 4) {
                assert!(d == 0 || (d % 2 != 0 && d.abs() < half), "digit {}", d);
            }
        }
    }

    #[test]
    fn nonzero_digits_are_spaced() {
        // Width-w NAF guarantees >= w-1 zeros after each non-zero digit.
        let digits = wnaf_digits(&[u64::MAX, u64::MAX, u64::MAX], 4);
        let mut last_nonzero: Option<usize> = None;
        for (i, &d) in digits.iter().enumerate() {
            if d != 0 {
                if let Some(j) = last_nonzero {
                    assert!(i - j >= 4, "digits {} and {} too close", j, i);
                }
                last_nonzero = Some(i);
            }
        }
    }

    #[test]
    fn zero_is_empty_and_top_digit_nonzero() {
        assert!(wnaf_digits(&[0, 0], 4).is_empty());
        for value in 1u64..200 {
            let digits = wnaf_digits(&[value], 5);
            assert_ne!(*digits.last().unwrap(), 0);
        }
    }

    /// Multi-precision naive recomputation: Horner-evaluates the signed
    /// digits back into limbs (one spare limb for the transient borrow
    /// lift), independent of the recoding loop it checks.
    fn reconstruct(digits: &[i8], limbs: usize) -> Vec<u64> {
        let mut acc = vec![0u64; limbs + 1];
        for &d in digits.iter().rev() {
            // acc = 2·acc + d
            let mut carry = 0u64;
            for limb in acc.iter_mut() {
                let next = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = next;
            }
            assert_eq!(carry, 0, "reconstruction overflow");
            if d >= 0 {
                let mut carry = d as u64;
                for limb in acc.iter_mut() {
                    let (s, c) = super::adc(*limb, carry, 0);
                    *limb = s;
                    carry = c;
                    if carry == 0 {
                        break;
                    }
                }
            } else {
                let mut borrow = 0u64;
                let mut rhs = (-(d as i64)) as u64;
                for limb in acc.iter_mut() {
                    let (s, b) = super::sbb(*limb, rhs, borrow);
                    *limb = s;
                    borrow = b;
                    rhs = 0;
                    if borrow == 0 {
                        break;
                    }
                }
                assert_eq!(borrow, 0, "reconstruction underflow");
            }
        }
        assert_eq!(acc[limbs], 0, "value exceeds its limb count");
        acc.truncate(limbs);
        acc
    }

    #[test]
    fn all_ones_top_windows_roundtrip() {
        // Saturated values force a borrow out of every window, so the
        // carry lifted past the top bit must land in the spare limb and
        // drain back out before the loop ends.
        for limbs in 1..=4usize {
            let v = vec![u64::MAX; limbs];
            for width in 2..=7usize {
                let digits = wnaf_digits(&v, width);
                assert_eq!(reconstruct(&digits, limbs), v, "w={} n={}", width, limbs);
                // The recoding of an n-limb value may use at most one
                // digit past the top bit (the lifted borrow).
                assert!(digits.len() <= 64 * limbs + 1, "w={} n={}", width, limbs);
                assert_ne!(*digits.last().unwrap(), 0);
            }
        }
    }

    #[test]
    fn max_width_digit_at_spare_limb_boundary() {
        // Width 7 with the largest odd residue (0x7f -> digit -1, borrow
        // 0x80) at the very top of the last limb: the borrow crosses into
        // the spare limb appended by `wnaf_digits`.
        let patterns: Vec<Vec<u64>> = vec![
            vec![0xffff_ffff_ffff_ffbf],
            vec![0x7f << 57 | 1],
            vec![u64::MAX, 0xff00_0000_0000_0000u64],
            vec![1, 0xfe00_0000_0000_0000u64],
        ];
        for v in patterns {
            for width in 2..=7usize {
                let digits = wnaf_digits(&v, width);
                let half = 1i16 << (width - 1);
                for &d in &digits {
                    assert!(
                        d == 0 || (d % 2 != 0 && (d as i16).abs() < half),
                        "digit {} out of range at width {}",
                        d,
                        width
                    );
                }
                assert_eq!(reconstruct(&digits, v.len()), v, "w={}", width);
            }
        }
    }

    #[test]
    fn random_odd_limb_counts_match_reconstruction() {
        // The GLV joint ladder feeds 3-limb sub-scalar magnitudes (and
        // single-limb GLS digits) through the same recoder that handles
        // 4-limb scalars; cover every limb count the crate uses.
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x77af);
        for limbs in 1..=5usize {
            for _ in 0..40 {
                let v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
                for width in 2..=7usize {
                    let digits = wnaf_digits(&v, width);
                    assert_eq!(reconstruct(&digits, limbs), v, "w={} n={}", width, limbs);
                }
            }
        }
    }
}
