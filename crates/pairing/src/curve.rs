//! Short-Weierstrass curve groups `G1` (over `Fp`) and `G2` (over `Fp2`).
//!
//! Both curves have the form `y² = x³ + b` (`a = 0`), so one generic
//! Jacobian-coordinate implementation serves both. `G1` is the group `G` of
//! the paper (signatures, message hashes); `G2` is `Ĝ` (public keys,
//! verification keys, VSS commitments).
//!
//! Scalar multiplication is variable-time throughout: this library is a
//! research artifact for protocol-level experiments, not a hardened
//! side-channel-resistant implementation (see DESIGN.md).

use crate::constants::{
    G1_COFACTOR, G1_GEN_X, G1_GEN_Y, G2_COFACTOR, G2_GEN_X0, G2_GEN_X1, G2_GEN_Y0, G2_GEN_Y1,
};
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::fr::Fr;
use crate::glv::{self, Decomposition};
use crate::traits::Field;
use core::fmt::Debug;
use rand::RngCore;

/// Static parameters of one of the two curve groups.
pub trait CurveParams: 'static + Copy + Clone + Debug + Send + Sync {
    /// The coordinate field.
    type Base: Field;
    /// Curve coefficient `b` in `y² = x³ + b`.
    fn b() -> Self::Base;
    /// Affine coordinates of the standard subgroup generator.
    fn generator_xy() -> (Self::Base, Self::Base);
    /// Cofactor of the prime-order subgroup, as little-endian limbs.
    fn cofactor() -> &'static [u64];
    /// Short name used in `Debug` output.
    const NAME: &'static str;
    /// Length of the compressed point encoding in bytes.
    const COMPRESSED_SIZE: usize;
    /// Compressed encoding (used by the generic `Wire` impl).
    fn affine_to_bytes(p: &Affine<Self>) -> Vec<u8>
    where
        Self: Sized;
    /// Decodes and fully validates a compressed point.
    fn affine_from_bytes(bytes: &[u8]) -> Result<Affine<Self>, DecodePointError>
    where
        Self: Sized;

    // --- endomorphism acceleration hooks (GLV/GLS, see `glv`) ---
    //
    // The decomposition identities only hold on the prime-order
    // subgroup; every public constructor of this crate yields subgroup
    // points, and the raw-limb paths (`mul_vartime_limbs`,
    // `clear_cofactor`) never decompose.

    /// Number of sub-scalars the endomorphism decomposition produces
    /// (`1` = no endomorphism acceleration; the generic paths apply).
    fn endo_dimensions() -> usize {
        1
    }

    /// Upper bound on the bit length of decomposed sub-scalars.
    fn endo_sub_bits() -> usize {
        256
    }

    /// Splits a scalar into [`Self::endo_dimensions`] signed
    /// sub-scalars `kᵢ` with `k ≡ Σ kᵢ·λⁱ (mod r)` for the eigenvalue
    /// `λ` of the curve endomorphism, or `None` without one.
    fn endo_decompose(scalar: &Fr) -> Option<Decomposition> {
        let _ = scalar;
        None
    }

    /// Applies the `power`-th endomorphism (`λᵖᵒʷᵉʳ`-multiplication on
    /// the subgroup) to a projective point; `power = 0` is the identity.
    fn endo_projective(p: &Projective<Self>, power: usize) -> Projective<Self>
    where
        Self: Sized,
    {
        debug_assert_eq!(power, 0, "curve has no endomorphism powers");
        *p
    }

    /// The `power`-th endomorphism on an affine point.
    fn endo_affine(p: &Affine<Self>, power: usize) -> Affine<Self>
    where
        Self: Sized,
    {
        debug_assert_eq!(power, 0, "curve has no endomorphism powers");
        *p
    }
}

/// Marker for the `G1` group (curve `y² = x³ + 4` over `Fp`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct G1Params;

impl CurveParams for G1Params {
    type Base = Fp;
    fn b() -> Fp {
        Fp::from_u64(4)
    }
    fn generator_xy() -> (Fp, Fp) {
        (
            Fp::from_canonical_limbs(G1_GEN_X),
            Fp::from_canonical_limbs(G1_GEN_Y),
        )
    }
    fn cofactor() -> &'static [u64] {
        &G1_COFACTOR
    }
    const NAME: &'static str = "G1";
    const COMPRESSED_SIZE: usize = 48;
    fn affine_to_bytes(p: &Affine<Self>) -> Vec<u8> {
        p.to_compressed().to_vec()
    }
    fn affine_from_bytes(bytes: &[u8]) -> Result<Affine<Self>, DecodePointError> {
        let arr: [u8; 48] = bytes.try_into().map_err(|_| DecodePointError::BadFlags)?;
        G1Affine::from_compressed(&arr)
    }
    fn endo_dimensions() -> usize {
        2
    }
    fn endo_sub_bits() -> usize {
        // GLV sub-scalars are below 2·BLS_X² < 2^129 (see `glv`).
        129
    }
    fn endo_decompose(scalar: &Fr) -> Option<Decomposition> {
        Some(glv::decompose_g1(scalar))
    }
    fn endo_projective(p: &Projective<Self>, power: usize) -> Projective<Self> {
        match power {
            0 => *p,
            1 => glv::phi_projective(p),
            _ => unreachable!("G1 GLV uses two dimensions"),
        }
    }
    fn endo_affine(p: &Affine<Self>, power: usize) -> Affine<Self> {
        match power {
            0 => *p,
            1 => glv::phi_affine(p),
            _ => unreachable!("G1 GLV uses two dimensions"),
        }
    }
}

/// Marker for the `G2` group (twist `y² = x³ + 4(1+u)` over `Fp2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct G2Params;

impl CurveParams for G2Params {
    type Base = Fp2;
    fn b() -> Fp2 {
        Fp2::new(Fp::from_u64(4), Fp::from_u64(4))
    }
    fn generator_xy() -> (Fp2, Fp2) {
        (
            Fp2::new(
                Fp::from_canonical_limbs(G2_GEN_X0),
                Fp::from_canonical_limbs(G2_GEN_X1),
            ),
            Fp2::new(
                Fp::from_canonical_limbs(G2_GEN_Y0),
                Fp::from_canonical_limbs(G2_GEN_Y1),
            ),
        )
    }
    fn cofactor() -> &'static [u64] {
        &G2_COFACTOR
    }
    const NAME: &'static str = "G2";
    const COMPRESSED_SIZE: usize = 96;
    fn affine_to_bytes(p: &Affine<Self>) -> Vec<u8> {
        p.to_compressed().to_vec()
    }
    fn affine_from_bytes(bytes: &[u8]) -> Result<Affine<Self>, DecodePointError> {
        let arr: [u8; 96] = bytes.try_into().map_err(|_| DecodePointError::BadFlags)?;
        G2Affine::from_compressed(&arr)
    }
    fn endo_dimensions() -> usize {
        4
    }
    fn endo_sub_bits() -> usize {
        // GLS digits are base-BLS_X digits, strictly below 2^64.
        64
    }
    fn endo_decompose(scalar: &Fr) -> Option<Decomposition> {
        Some(glv::decompose_g2(scalar))
    }
    fn endo_projective(p: &Projective<Self>, power: usize) -> Projective<Self> {
        if power == 0 {
            *p
        } else {
            glv::psi_projective(p, power)
        }
    }
    fn endo_affine(p: &Affine<Self>, power: usize) -> Affine<Self> {
        if power == 0 {
            *p
        } else {
            glv::psi_affine(p, power)
        }
    }
}

/// A point in Jacobian projective coordinates `(X : Y : Z)`, representing
/// the affine point `(X/Z², Y/Z³)`; the identity is encoded by `Z = 0`.
#[derive(Clone, Copy)]
pub struct Projective<C: CurveParams> {
    pub(crate) x: C::Base,
    pub(crate) y: C::Base,
    pub(crate) z: C::Base,
}

/// A point in affine coordinates, or the point at infinity.
#[derive(Clone, Copy)]
pub struct Affine<C: CurveParams> {
    pub(crate) x: C::Base,
    pub(crate) y: C::Base,
    pub(crate) infinity: bool,
}

/// The group `G1` in projective form.
pub type G1Projective = Projective<G1Params>;
/// The group `G1` in affine form.
pub type G1Affine = Affine<G1Params>;
/// The group `G2` in projective form.
pub type G2Projective = Projective<G2Params>;
/// The group `G2` in affine form.
pub type G2Affine = Affine<G2Params>;

impl<C: CurveParams> Projective<C> {
    /// The group identity (point at infinity).
    pub fn identity() -> Self {
        Projective {
            x: C::Base::one(),
            y: C::Base::one(),
            z: C::Base::zero(),
        }
    }

    /// The standard subgroup generator.
    pub fn generator() -> Self {
        let (x, y) = C::generator_xy();
        Projective {
            x,
            y,
            z: C::Base::one(),
        }
    }

    /// Returns `true` for the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Checks the Jacobian curve equation `Y² = X³ + b·Z⁶`.
    pub fn is_on_curve(&self) -> bool {
        if self.is_identity() {
            return true;
        }
        let z2 = self.z.square();
        let z6 = z2.square() * z2;
        self.y.square() == self.x.square() * self.x + z6 * C::b()
    }

    /// Point doubling (`dbl-2009-l`, valid for `a = 0`).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double();
        let z3 = (self.y * self.z).double();
        Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition (`add-2007-bl`), handling all edge cases.
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * rhs.z * z2z2;
        let s2 = rhs.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + rhs.z).square() - z1z1 - z2z2) * h;
        Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (`madd-2007-bl`).
    pub fn add_affine(&self, rhs: &Affine<C>) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return rhs.to_projective();
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * self.z * z1z1;
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Additive inverse.
    pub fn neg(&self) -> Self {
        Projective {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Variable-time scalar multiplication by a field scalar.
    ///
    /// On curves with an efficient endomorphism (both groups of this
    /// crate) the scalar is GLV/GLS-decomposed and the joint wNAF ladder
    /// runs over `(P, λP, …)` with half (G1) or a quarter (G2) of the
    /// doublings; otherwise this is the one-dimensional ladder of
    /// [`Self::mul_vartime_limbs`]. The decomposition is only valid on
    /// the prime-order subgroup — the contract of every public point
    /// constructor.
    pub fn mul(&self, scalar: &Fr) -> Self {
        if let Some(dec) = C::endo_decompose(scalar) {
            return self.mul_decomposed(&dec);
        }
        self.mul_vartime_limbs(&scalar.to_le_bits())
    }

    /// Builds the odd-multiples table `{1, 3, 5, 7}·P` of a wNAF lane
    /// (width 4: `2^(4-2)` entries).
    fn odd_multiples(&self) -> [Self; 4] {
        let twice = self.double();
        let mut table = [Self::identity(); 4];
        let mut cur = *self;
        for slot in table.iter_mut() {
            *slot = cur;
            cur = cur.add(&twice);
        }
        table
    }

    /// The one scalar-multiplication ladder: width-4 joint wNAF. Each
    /// lane is a digit string with the odd-multiples table of its base;
    /// one shared doubling chain as long as the longest string runs
    /// down the digit positions, adding every lane's non-zero digit from
    /// its table (negative digits add the negated entry). Doubling and
    /// adding the identity are free, so leading positions cost nothing.
    fn joint_wnaf(lanes: &[(Vec<i8>, [Self; 4])]) -> Self {
        let len = lanes
            .iter()
            .map(|(digits, _)| digits.len())
            .max()
            .unwrap_or(0);
        let mut acc = Self::identity();
        for j in (0..len).rev() {
            acc = acc.double();
            for (digits, table) in lanes {
                let d = digits.get(j).copied().unwrap_or(0);
                if d > 0 {
                    acc = acc.add(&table[(d as usize - 1) / 2]);
                } else if d < 0 {
                    acc = acc.add(&table[((-d) as usize - 1) / 2].neg());
                }
            }
        }
        acc
    }

    /// [`Self::joint_wnaf`] over the endomorphism decomposition: one lane
    /// per sub-scalar, so the doubling chain is `C::endo_sub_bits()` long.
    /// The lane tables come from the base table through the endomorphism
    /// (a couple of field multiplications per entry instead of a group
    /// addition), negated for negative sub-scalars.
    fn mul_decomposed(&self, dec: &Decomposition) -> Self {
        if self.is_identity() {
            return *self;
        }
        let base_table = self.odd_multiples();
        let lanes: Vec<(Vec<i8>, [Self; 4])> = dec.parts[..dec.len]
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let mut table = base_table;
                for slot in table.iter_mut() {
                    if i > 0 {
                        *slot = C::endo_projective(slot, i);
                    }
                    if part.negative {
                        *slot = slot.neg();
                    }
                }
                (crate::arith::wnaf_digits(&part.limbs, 4), table)
            })
            .collect();
        Self::joint_wnaf(&lanes)
    }

    /// Variable-time scalar multiplication by an arbitrary little-endian
    /// limb integer (also used for cofactor clearing and the `G1`
    /// membership check, where the scalar is *not* reduced mod `r` and
    /// the point may lie outside the subgroup — so this path never
    /// decomposes): the joint wNAF ladder with a single lane, on average
    /// one addition per 5 bits versus one per 2 for double-and-add.
    /// Equivalence with the schoolbook ladder is enforced by the
    /// `scalar_mul_properties` suite and the unit tests.
    pub fn mul_vartime_limbs(&self, limbs: &[u64]) -> Self {
        if self.is_identity() {
            return *self;
        }
        Self::joint_wnaf(&[(crate::arith::wnaf_digits(limbs, 4), self.odd_multiples())])
    }

    /// Reference double-and-add scalar multiplication — the deliberately
    /// unoptimized slow path that every fast path (wNAF, fixed-base
    /// tables, MSM) is property-tested against. Test and `reference`
    /// builds only.
    #[cfg(any(test, feature = "reference"))]
    pub fn mul_schoolbook(&self, limbs: &[u64]) -> Self {
        let mut acc = Self::identity();
        let mut started = false;
        for limb in limbs.iter().rev() {
            for i in (0..64).rev() {
                if started {
                    acc = acc.double();
                }
                if (limb >> i) & 1 == 1 {
                    acc = acc.add(self);
                    started = true;
                }
            }
        }
        acc
    }

    /// Maps an arbitrary curve point into the prime-order subgroup.
    pub fn clear_cofactor(&self) -> Self {
        self.mul_vartime_limbs(C::cofactor())
    }

    /// Returns `true` if the point lies in the prime-order subgroup, by
    /// multiplying with the group order: the reference the endomorphism
    /// membership checks (`g1_in_subgroup`, `g2_in_subgroup`) are tested
    /// against. Test and `reference` builds only.
    #[cfg(any(test, feature = "reference"))]
    pub fn is_torsion_free(&self) -> bool {
        self.mul_vartime_limbs(&crate::constants::ORDER)
            .is_identity()
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_identity() {
            return Affine::identity();
        }
        let zinv = self.z.invert().expect("non-identity point has z != 0");
        let zinv2 = zinv.square();
        Affine {
            x: self.x * zinv2,
            y: self.y * zinv2 * zinv,
            infinity: false,
        }
    }

    /// Converts many points to affine with a single field inversion
    /// *per chunk* ([`crate::batch_invert`], Montgomery's trick);
    /// identity points map to the affine identity. Long inputs are
    /// normalized in parallel chunks (each big enough to amortize its
    /// own Fermat inversion); every element's `z⁻¹` is the unique field
    /// inverse regardless of which chunk computes it, so the output is
    /// bit-identical for every thread count.
    pub fn batch_to_affine(points: &[Self]) -> Vec<Affine<C>> {
        // One Fermat inversion costs ~380 field multiplications; chunks
        // of 128 keep the per-chunk amortization above 97%.
        const PAR_MIN_CHUNK: usize = 128;
        if points.len() >= 2 * PAR_MIN_CHUNK && borndist_parallel::current_threads() > 1 {
            let chunks =
                borndist_parallel::par_chunks(points, PAR_MIN_CHUNK, Self::batch_to_affine_chunk);
            let mut out = Vec::with_capacity(points.len());
            for c in chunks {
                out.extend(c);
            }
            return out;
        }
        Self::batch_to_affine_chunk(points)
    }

    /// The sequential body of [`Self::batch_to_affine`]: one shared
    /// inversion for the whole slice.
    fn batch_to_affine_chunk(points: &[Self]) -> Vec<Affine<C>> {
        let mut zs: Vec<C::Base> = points.iter().map(|p| p.z).collect();
        crate::traits::batch_invert(&mut zs);
        points
            .iter()
            .zip(zs)
            .map(|(p, zinv)| {
                if p.is_identity() {
                    Affine::identity()
                } else {
                    let zinv2 = zinv.square();
                    Affine {
                        x: p.x * zinv2,
                        y: p.y * zinv2 * zinv,
                        infinity: false,
                    }
                }
            })
            .collect()
    }

    /// Samples a uniformly random subgroup element.
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generator().mul(&Fr::random(rng))
    }

    /// Sums an iterator of points.
    pub fn sum<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        iter.into_iter()
            .fold(Self::identity(), |acc, p| acc.add(&p))
    }
}

impl<C: CurveParams> Affine<C> {
    /// The point at infinity.
    pub fn identity() -> Self {
        Affine {
            x: C::Base::zero(),
            y: C::Base::one(),
            infinity: true,
        }
    }

    /// The standard subgroup generator.
    pub fn generator() -> Self {
        let (x, y) = C::generator_xy();
        Affine {
            x,
            y,
            infinity: false,
        }
    }

    /// Returns `true` for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// The affine x-coordinate. Meaningless for the identity.
    pub fn x(&self) -> C::Base {
        self.x
    }

    /// The affine y-coordinate. Meaningless for the identity.
    pub fn y(&self) -> C::Base {
        self.y
    }

    /// Checks the affine curve equation.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.y.square() == self.x.square() * self.x + C::b()
    }

    /// Converts to Jacobian coordinates.
    pub fn to_projective(&self) -> Projective<C> {
        if self.infinity {
            return Projective::identity();
        }
        Projective {
            x: self.x,
            y: self.y,
            z: C::Base::one(),
        }
    }

    /// Additive inverse.
    pub fn neg(&self) -> Self {
        Affine {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }

    /// Variable-time scalar multiplication.
    pub fn mul(&self, scalar: &Fr) -> Projective<C> {
        self.to_projective().mul(scalar)
    }
}

impl<C: CurveParams> PartialEq for Projective<C> {
    fn eq(&self, other: &Self) -> bool {
        // (X1:Y1:Z1) == (X2:Y2:Z2)  iff  X1 Z2² == X2 Z1² and Y1 Z2³ == Y2 Z1³
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => {
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                self.x * z2z2 == other.x * z1z1
                    && self.y * z2z2 * other.z == other.y * z1z1 * self.z
            }
        }
    }
}
impl<C: CurveParams> Eq for Projective<C> {}

impl<C: CurveParams> PartialEq for Affine<C> {
    fn eq(&self, other: &Self) -> bool {
        (self.infinity && other.infinity)
            || (!self.infinity && !other.infinity && self.x == other.x && self.y == other.y)
    }
}
impl<C: CurveParams> Eq for Affine<C> {}

impl<C: CurveParams> Debug for Projective<C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_identity() {
            write!(f, "{}(identity)", C::NAME)
        } else {
            let a = self.to_affine();
            write!(f, "{}({:?}, {:?})", C::NAME, a.x, a.y)
        }
    }
}

impl<C: CurveParams> Debug for Affine<C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.infinity {
            write!(f, "{}(identity)", C::NAME)
        } else {
            write!(f, "{}({:?}, {:?})", C::NAME, self.x, self.y)
        }
    }
}

impl<C: CurveParams> Default for Projective<C> {
    fn default() -> Self {
        Self::identity()
    }
}
impl<C: CurveParams> Default for Affine<C> {
    fn default() -> Self {
        Self::identity()
    }
}

// --- operator sugar ---

impl<C: CurveParams> core::ops::Add for Projective<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Projective::add(&self, &rhs)
    }
}
impl<C: CurveParams> core::ops::Add<Affine<C>> for Projective<C> {
    type Output = Self;
    fn add(self, rhs: Affine<C>) -> Self {
        self.add_affine(&rhs)
    }
}
impl<C: CurveParams> core::ops::Sub for Projective<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Projective::add(&self, &rhs.neg())
    }
}
impl<C: CurveParams> core::ops::Neg for Projective<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Projective::neg(&self)
    }
}
impl<C: CurveParams> core::ops::Mul<Fr> for Projective<C> {
    type Output = Self;
    fn mul(self, rhs: Fr) -> Self {
        Projective::mul(&self, &rhs)
    }
}
impl<C: CurveParams> core::ops::AddAssign for Projective<C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = Projective::add(self, &rhs);
    }
}
impl<C: CurveParams> core::ops::SubAssign for Projective<C> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<C: CurveParams> core::ops::MulAssign<Fr> for Projective<C> {
    fn mul_assign(&mut self, rhs: Fr) {
        *self = Projective::mul(self, &rhs);
    }
}

// --- serialization ---
//
// Compressed encodings follow the widely used ZCash BLS12-381 format:
// the first byte carries three flag bits (compressed, infinity, y-sign)
// above the big-endian x-coordinate.

/// Error returned when decoding a group element fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodePointError {
    /// Flag bits are inconsistent or reserved bits are set.
    BadFlags,
    /// A coordinate is not a canonical field element.
    NonCanonical,
    /// The x-coordinate has no matching y (not on the curve).
    NotOnCurve,
    /// The point is on the curve but outside the prime-order subgroup.
    NotInSubgroup,
}

impl core::fmt::Display for DecodePointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            DecodePointError::BadFlags => "invalid flag bits in point encoding",
            DecodePointError::NonCanonical => "non-canonical coordinate encoding",
            DecodePointError::NotOnCurve => "point is not on the curve",
            DecodePointError::NotInSubgroup => "point is not in the prime-order subgroup",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for DecodePointError {}

const FLAG_COMPRESSED: u8 = 0x80;
const FLAG_INFINITY: u8 = 0x40;
const FLAG_SIGN: u8 = 0x20;

impl G1Affine {
    /// Serializes to 48-byte compressed form.
    pub fn to_compressed(&self) -> [u8; 48] {
        let mut out = [0u8; 48];
        if self.infinity {
            out[0] = FLAG_COMPRESSED | FLAG_INFINITY;
            return out;
        }
        out.copy_from_slice(&self.x.to_bytes());
        out[0] |= FLAG_COMPRESSED;
        if self.y.is_lexicographically_largest() {
            out[0] |= FLAG_SIGN;
        }
        out
    }

    /// Deserializes from 48-byte compressed form, checking the curve
    /// equation and prime-order subgroup membership.
    pub fn from_compressed(bytes: &[u8; 48]) -> Result<Self, DecodePointError> {
        let flags = bytes[0] & 0xe0;
        if flags & FLAG_COMPRESSED == 0 {
            return Err(DecodePointError::BadFlags);
        }
        if flags & FLAG_INFINITY != 0 {
            if bytes[1..].iter().any(|&b| b != 0) || bytes[0] != (FLAG_COMPRESSED | FLAG_INFINITY) {
                return Err(DecodePointError::BadFlags);
            }
            return Ok(Self::identity());
        }
        let mut xb = *bytes;
        xb[0] &= 0x1f;
        let x = Fp::from_bytes(&xb).ok_or(DecodePointError::NonCanonical)?;
        let y2 = x.square() * x + G1Params::b();
        let mut y = y2.sqrt().ok_or(DecodePointError::NotOnCurve)?;
        let want_largest = flags & FLAG_SIGN != 0;
        if y.is_lexicographically_largest() != want_largest {
            y = -y;
        }
        let point = G1Affine {
            x,
            y,
            infinity: false,
        };
        if !crate::endo::g1_in_subgroup(&point) {
            return Err(DecodePointError::NotInSubgroup);
        }
        Ok(point)
    }

    /// Serializes to 96-byte uncompressed form (`x || y` big-endian).
    pub fn to_uncompressed(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        if self.infinity {
            out[0] = FLAG_INFINITY;
            return out;
        }
        out[..48].copy_from_slice(&self.x.to_bytes());
        out[48..].copy_from_slice(&self.y.to_bytes());
        out
    }

    /// Deserializes from 96-byte uncompressed form with full validation.
    pub fn from_uncompressed(bytes: &[u8; 96]) -> Result<Self, DecodePointError> {
        if bytes[0] & FLAG_INFINITY != 0 {
            if bytes.iter().skip(1).any(|&b| b != 0) || bytes[0] != FLAG_INFINITY {
                return Err(DecodePointError::BadFlags);
            }
            return Ok(Self::identity());
        }
        let x = Fp::from_bytes(bytes[..48].try_into().unwrap())
            .ok_or(DecodePointError::NonCanonical)?;
        let y = Fp::from_bytes(bytes[48..].try_into().unwrap())
            .ok_or(DecodePointError::NonCanonical)?;
        let point = G1Affine {
            x,
            y,
            infinity: false,
        };
        if !point.is_on_curve() {
            return Err(DecodePointError::NotOnCurve);
        }
        if !crate::endo::g1_in_subgroup(&point) {
            return Err(DecodePointError::NotInSubgroup);
        }
        Ok(point)
    }
}

impl G2Affine {
    /// Serializes to 96-byte compressed form.
    pub fn to_compressed(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        if self.infinity {
            out[0] = FLAG_COMPRESSED | FLAG_INFINITY;
            return out;
        }
        out.copy_from_slice(&self.x.to_bytes());
        out[0] |= FLAG_COMPRESSED;
        if self.y.is_lexicographically_largest() {
            out[0] |= FLAG_SIGN;
        }
        out
    }

    /// Deserializes from 96-byte compressed form, checking the curve
    /// equation and prime-order subgroup membership.
    pub fn from_compressed(bytes: &[u8; 96]) -> Result<Self, DecodePointError> {
        let flags = bytes[0] & 0xe0;
        if flags & FLAG_COMPRESSED == 0 {
            return Err(DecodePointError::BadFlags);
        }
        if flags & FLAG_INFINITY != 0 {
            if bytes[1..].iter().any(|&b| b != 0) || bytes[0] != (FLAG_COMPRESSED | FLAG_INFINITY) {
                return Err(DecodePointError::BadFlags);
            }
            return Ok(Self::identity());
        }
        let mut xb = *bytes;
        xb[0] &= 0x1f;
        let x = Fp2::from_bytes(&xb).ok_or(DecodePointError::NonCanonical)?;
        let y2 = x.square() * x + G2Params::b();
        let mut y = y2.sqrt().ok_or(DecodePointError::NotOnCurve)?;
        let want_largest = flags & FLAG_SIGN != 0;
        if y.is_lexicographically_largest() != want_largest {
            y = -y;
        }
        let point = G2Affine {
            x,
            y,
            infinity: false,
        };
        if !crate::endo::g2_in_subgroup(&point) {
            return Err(DecodePointError::NotInSubgroup);
        }
        Ok(point)
    }

    /// Serializes to 192-byte uncompressed form.
    pub fn to_uncompressed(&self) -> [u8; 192] {
        let mut out = [0u8; 192];
        if self.infinity {
            out[0] = FLAG_INFINITY;
            return out;
        }
        out[..96].copy_from_slice(&self.x.to_bytes());
        out[96..].copy_from_slice(&self.y.to_bytes());
        out
    }

    /// Deserializes from 192-byte uncompressed form with full validation.
    pub fn from_uncompressed(bytes: &[u8; 192]) -> Result<Self, DecodePointError> {
        if bytes[0] & FLAG_INFINITY != 0 {
            if bytes.iter().skip(1).any(|&b| b != 0) || bytes[0] != FLAG_INFINITY {
                return Err(DecodePointError::BadFlags);
            }
            return Ok(Self::identity());
        }
        let x = Fp2::from_bytes(bytes[..96].try_into().unwrap())
            .ok_or(DecodePointError::NonCanonical)?;
        let y = Fp2::from_bytes(bytes[96..].try_into().unwrap())
            .ok_or(DecodePointError::NonCanonical)?;
        let point = G2Affine {
            x,
            y,
            infinity: false,
        };
        if !point.is_on_curve() {
            return Err(DecodePointError::NotOnCurve);
        }
        if !crate::endo::g2_in_subgroup(&point) {
            return Err(DecodePointError::NotInSubgroup);
        }
        Ok(point)
    }
}

/// A curve point found by x-coordinate sampling *without* clearing the
/// cofactor — with overwhelming probability outside the prime-order
/// subgroup. Test-only; `sqrt` is the coordinate field's square root.
#[cfg(test)]
pub(crate) fn random_curve_point<C: CurveParams>(
    r: &mut impl RngCore,
    sqrt: impl Fn(&C::Base) -> Option<C::Base>,
) -> Affine<C> {
    loop {
        let x = C::Base::random(r);
        if let Some(y) = sqrt(&(x.square() * x + C::b())) {
            let p = Affine {
                x,
                y,
                infinity: false,
            };
            assert!(p.is_on_curve());
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::ORDER;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xc0c0)
    }

    #[test]
    fn generators_on_curve_and_torsion_free() {
        assert!(G1Projective::generator().is_on_curve());
        assert!(G2Projective::generator().is_on_curve());
        assert!(G1Projective::generator().is_torsion_free());
        assert!(G2Projective::generator().is_torsion_free());
    }

    #[test]
    fn identity_laws() {
        let mut r = rng();
        let p = G1Projective::random(&mut r);
        let id = G1Projective::identity();
        assert_eq!(p + id, p);
        assert_eq!(id + p, p);
        assert_eq!(p - p, id);
        assert!(id.is_on_curve());
        assert!(id.double().is_identity());
    }

    #[test]
    fn add_commutes_and_associates() {
        let mut r = rng();
        for _ in 0..5 {
            let (p, q, s) = (
                G1Projective::random(&mut r),
                G1Projective::random(&mut r),
                G1Projective::random(&mut r),
            );
            assert_eq!(p + q, q + p);
            assert_eq!((p + q) + s, p + (q + s));
            assert!((p + q).is_on_curve());
        }
    }

    #[test]
    fn double_matches_add() {
        let mut r = rng();
        let p = G2Projective::random(&mut r);
        assert_eq!(p.double(), p + p);
    }

    #[test]
    fn mixed_add_matches_full_add() {
        let mut r = rng();
        let p = G1Projective::random(&mut r);
        let q = G1Projective::random(&mut r);
        assert_eq!(p.add_affine(&q.to_affine()), p + q);
        // Edge: add to itself via affine.
        assert_eq!(p.add_affine(&p.to_affine()), p.double());
        // Edge: add the negative.
        assert!(p.add_affine(&p.neg().to_affine()).is_identity());
        // Edge: identity + affine.
        assert_eq!(G1Projective::identity().add_affine(&q.to_affine()), q);
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut r = rng();
        let p = G1Projective::generator();
        let (a, b) = (Fr::random(&mut r), Fr::random(&mut r));
        assert_eq!(p.mul(&a) + p.mul(&b), p.mul(&(a + b)));
        assert_eq!(p.mul(&a).mul(&b), p.mul(&(a * b)));
        assert!(p.mul(&Fr::zero()).is_identity());
        assert_eq!(p.mul(&Fr::one()), p);
    }

    #[test]
    fn scalar_mul_small_values() {
        let p = G2Projective::generator();
        assert_eq!(p.mul(&Fr::from_u64(3)), p + p + p);
        assert_eq!(p.mul(&Fr::from_u64(5)), p.double().double() + p);
    }

    #[test]
    fn order_annihilates_generator() {
        assert!(G1Projective::generator()
            .mul_vartime_limbs(&ORDER)
            .is_identity());
        assert!(G2Projective::generator()
            .mul_vartime_limbs(&ORDER)
            .is_identity());
    }

    #[test]
    fn affine_roundtrip() {
        let mut r = rng();
        let p = G1Projective::random(&mut r);
        assert_eq!(p.to_affine().to_projective(), p);
        assert!(G1Projective::identity().to_affine().is_identity());
    }

    #[test]
    fn batch_to_affine_matches_single() {
        let mut r = rng();
        let mut pts: Vec<G1Projective> = (0..7).map(|_| G1Projective::random(&mut r)).collect();
        pts.insert(3, G1Projective::identity());
        let batch = G1Projective::batch_to_affine(&pts);
        for (p, a) in pts.iter().zip(batch.iter()) {
            assert_eq!(p.to_affine(), *a);
        }
    }

    #[test]
    fn g1_compressed_roundtrip() {
        let mut r = rng();
        for _ in 0..5 {
            let p = G1Projective::random(&mut r).to_affine();
            let enc = p.to_compressed();
            assert_eq!(G1Affine::from_compressed(&enc).unwrap(), p);
        }
        let id = G1Affine::identity();
        assert_eq!(G1Affine::from_compressed(&id.to_compressed()).unwrap(), id);
    }

    #[test]
    fn g1_uncompressed_roundtrip() {
        let mut r = rng();
        let p = G1Projective::random(&mut r).to_affine();
        assert_eq!(
            G1Affine::from_uncompressed(&p.to_uncompressed()).unwrap(),
            p
        );
    }

    #[test]
    fn g2_compressed_roundtrip() {
        let mut r = rng();
        for _ in 0..3 {
            let p = G2Projective::random(&mut r).to_affine();
            let enc = p.to_compressed();
            assert_eq!(G2Affine::from_compressed(&enc).unwrap(), p);
        }
    }

    #[test]
    fn g2_uncompressed_roundtrip() {
        let mut r = rng();
        let p = G2Projective::random(&mut r).to_affine();
        assert_eq!(
            G2Affine::from_uncompressed(&p.to_uncompressed()).unwrap(),
            p
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        let zero = [0u8; 48];
        assert!(G1Affine::from_compressed(&zero).is_err());
        let mut bad = [0xffu8; 48];
        bad[0] = 0x80;
        assert!(G1Affine::from_compressed(&bad).is_err());
    }

    #[test]
    fn decode_rejects_non_subgroup_point() {
        let p = random_curve_point::<G1Params>(&mut rng(), Fp::sqrt);
        assert!(!p.to_projective().is_torsion_free());
        assert_eq!(
            G1Affine::from_compressed(&p.to_compressed()),
            Err(DecodePointError::NotInSubgroup)
        );
    }

    #[test]
    fn projective_eq_across_representations() {
        let mut r = rng();
        let p = G1Projective::random(&mut r);
        let doubled_rep = Projective {
            // scale coordinates: (X:Y:Z) ~ (c^2 X : c^3 Y : c Z)
            x: p.x * Fp::from_u64(4),
            y: p.y * Fp::from_u64(8),
            z: p.z * Fp::from_u64(2),
        };
        assert_eq!(p, doubled_rep);
    }

    #[test]
    fn cofactor_clearing_lands_in_subgroup() {
        let mut r = rng();
        let p1 = random_curve_point::<G1Params>(&mut r, Fp::sqrt).to_projective();
        let p2 = random_curve_point::<G2Params>(&mut r, Fp2::sqrt).to_projective();
        assert!(!p1.is_torsion_free() && !p2.is_torsion_free());
        assert!(p1.clear_cofactor().is_torsion_free());
        assert!(p2.clear_cofactor().is_torsion_free());
        // Off the subgroup the wNAF ladder still equals double-and-add:
        // on both cofactors, the order and a full-width scalar.
        let k = Fr::random(&mut r).to_le_bits();
        for limbs in [
            G1Params::cofactor(),
            G2Params::cofactor(),
            &ORDER[..],
            &k[..],
        ] {
            assert_eq!(p1.mul_vartime_limbs(limbs), p1.mul_schoolbook(limbs));
            assert_eq!(p2.mul_vartime_limbs(limbs), p2.mul_schoolbook(limbs));
        }
    }

    #[test]
    fn random_points_compressed_roundtrip() {
        let mut r = rng();
        let p = G1Projective::random(&mut r).to_affine();
        let dec = g1_compressed_roundtrip_of(&p);
        assert_eq!(dec, p);
        let q = G2Projective::random(&mut r).to_affine();
        let dec2 = g2_compressed_roundtrip_of(&q);
        assert_eq!(dec2, q);
    }

    fn g1_compressed_roundtrip_of(p: &G1Affine) -> G1Affine {
        let enc = p.to_compressed();
        G1Affine::from_compressed(&enc).unwrap()
    }
    fn g2_compressed_roundtrip_of(p: &G2Affine) -> G2Affine {
        let enc = p.to_compressed();
        G2Affine::from_compressed(&enc).unwrap()
    }
}
