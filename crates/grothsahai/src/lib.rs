//! # borndist-grothsahai
//!
//! The slice of the Groth–Sahai proof system (Eurocrypt 2008, SXDH
//! instantiation) needed by the paper's standard-model construction (§4,
//! Appendix A):
//!
//! * commitments to `G`-elements under a two-vector CRS `(u₁, u₂) ∈ (G²)²`;
//! * NIWI proofs for **linear pairing-product equations**
//!   `Π e(X_i, Â_i) = t_T` — two `Ĝ` elements per equation;
//! * perfect **randomization** of commitment/proof pairs (Belenkiy et al.);
//! * **linear combination** of proofs for the same constants — the
//!   homomorphism that lets the threshold scheme Lagrange-interpolate
//!   Groth–Sahai proofs in the exponent;
//! * **trapdoor extraction** on binding CRSs (used in tests to play the
//!   reduction's role).
//!
//! On a *binding* CRS (`u₂ = u₁^ξ`) commitments are perfectly binding and
//! extractable; on a *hiding* CRS (independent vectors) they are perfectly
//! hiding and proofs are witness-indistinguishable. Under SXDH the two CRS
//! distributions are computationally indistinguishable — that dichotomy is
//! the engine of the §4 security proof, where the per-message CRS
//! `(f, f_M)` is binding exactly on the forgery message.

use borndist_pairing::{
    msm, multi_pairing_mixed, Fr, G1Affine, G1Projective, G2Affine, G2Prepared, G2Projective,
};
use rand::RngCore;

/// A Groth–Sahai common reference string: two vectors of `G²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crs {
    /// First vector `u₁ = (u₁₁, u₁₂)`.
    pub u1: (G1Affine, G1Affine),
    /// Second vector `u₂ = (u₂₁, u₂₂)`.
    pub u2: (G1Affine, G1Affine),
}

/// Extraction trapdoor for a binding CRS: `β = log_{u₁₁}(u₁₂)`.
#[derive(Clone, Copy, Debug)]
pub struct ExtractKey {
    beta: Fr,
}

/// A commitment `C = (1, X)·u₁^{ν₁}·u₂^{ν₂} ∈ G²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commitment {
    /// First coordinate.
    pub c1: G1Affine,
    /// Second coordinate (carries the committed value).
    pub c2: G1Affine,
}

/// Commitment randomness `(ν₁, ν₂)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Randomness {
    /// Exponent on `u₁`.
    pub nu1: Fr,
    /// Exponent on `u₂`.
    pub nu2: Fr,
}

/// A NIWI proof for one linear pairing-product equation: `(π̂₁, π̂₂) ∈ Ĝ²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Proof {
    /// Component paired with `u₁`.
    pub pi1: G2Affine,
    /// Component paired with `u₂`.
    pub pi2: G2Affine,
}

impl Crs {
    /// Samples a perfectly *hiding* CRS (linearly independent vectors).
    pub fn hiding<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Crs {
            u1: (
                G1Projective::random(rng).to_affine(),
                G1Projective::random(rng).to_affine(),
            ),
            u2: (
                G1Projective::random(rng).to_affine(),
                G1Projective::random(rng).to_affine(),
            ),
        }
    }

    /// Samples a perfectly *binding* CRS (`u₂ = u₁^ξ`) together with its
    /// extraction trapdoor.
    pub fn binding<R: RngCore + ?Sized>(rng: &mut R) -> (Self, ExtractKey) {
        let g = G1Projective::random(rng);
        let beta = Fr::random(rng);
        let xi = Fr::random(rng);
        let u11 = g;
        let u12 = g.mul(&beta);
        (
            Crs {
                u1: (u11.to_affine(), u12.to_affine()),
                u2: (u11.mul(&xi).to_affine(), u12.mul(&xi).to_affine()),
            },
            ExtractKey { beta },
        )
    }

    /// Assembles a CRS from externally derived vectors (e.g. the §4
    /// per-message CRS `(f, f_M)`).
    pub fn from_vectors(u1: (G1Affine, G1Affine), u2: (G1Affine, G1Affine)) -> Self {
        Crs { u1, u2 }
    }

    /// Commits to `x` with fresh randomness.
    pub fn commit<R: RngCore + ?Sized>(
        &self,
        x: &G1Projective,
        rng: &mut R,
    ) -> (Commitment, Randomness) {
        let r = Randomness {
            nu1: Fr::random(rng),
            nu2: Fr::random(rng),
        };
        (self.commit_with(x, &r), r)
    }

    /// Commits with explicit randomness.
    pub fn commit_with(&self, x: &G1Projective, r: &Randomness) -> Commitment {
        let c1 = msm(&[self.u1.0, self.u2.0], &[r.nu1, r.nu2]);
        let c2 = msm(&[self.u1.1, self.u2.1], &[r.nu1, r.nu2]) + *x;
        Commitment {
            c1: c1.to_affine(),
            c2: c2.to_affine(),
        }
    }
}

impl ExtractKey {
    /// Opens a commitment made on the matching binding CRS.
    pub fn extract(&self, c: &Commitment) -> G1Projective {
        // C = (u11^s, X·u12^s) with u12 = u11^β, so X = C2 / C1^β.
        c.c2.to_projective() - c.c1.mul(&self.beta)
    }
}

/// Builds the proof `π̂_j = Π_i Â_i^{-ν_{i,j}}` for the equation
/// `Π e(X_i, Â_i) = t_T`, given the commitment randomness of each
/// committed variable (`constants[i]` pairs with variable `i`).
///
/// # Panics
///
/// Panics if `constants` and `rands` lengths differ.
pub fn prove(constants: &[G2Affine], rands: &[Randomness]) -> Proof {
    assert_eq!(constants.len(), rands.len(), "one randomness per variable");
    let neg_nu1: Vec<Fr> = rands.iter().map(|r| -r.nu1).collect();
    let neg_nu2: Vec<Fr> = rands.iter().map(|r| -r.nu2).collect();
    Proof {
        pi1: msm(constants, &neg_nu1).to_affine(),
        pi2: msm(constants, &neg_nu2).to_affine(),
    }
}

/// Verifies a proof for `Π e(X_i, Â_i)·Π e(P_j, Q̂_j) = 1`, where the
/// `X_i` are committed and the *extra pairs* `(P_j, Q̂_j)` are public
/// vector/constant products absorbing the target (`P_j ∈ G²`).
///
/// Concretely, for both coordinates `m ∈ {1, 2}` it checks
/// `Π_i e(C_i[m], Â_i) · e(u₁[m], π̂₁) · e(u₂[m], π̂₂) · Π_j e(P_j[m], Q̂_j) = 1`.
pub fn verify(
    crs: &Crs,
    constants: &[G2Affine],
    commitments: &[Commitment],
    extra: &[((G1Affine, G1Affine), G2Affine)],
    proof: &Proof,
) -> bool {
    verify_inner(
        crs,
        ConstantRefs::Live(constants),
        commitments,
        extra,
        proof,
    )
}

/// [`verify`] with the equation constants `Â_i` preprocessed
/// ([`G2Prepared`]): the constants are the long-lived generators
/// `(ĝ_z, ĝ_r)` in every use by the §4 scheme, so their Miller line
/// coefficients are cached at scheme setup while the per-proof elements
/// (`π̂₁`, `π̂₂`, targets) stay live. Verdict-equivalent to [`verify`]
/// (property-tested by the standard-model suites).
pub fn verify_prepared(
    crs: &Crs,
    constants: &[&G2Prepared],
    commitments: &[Commitment],
    extra: &[((G1Affine, G1Affine), G2Affine)],
    proof: &Proof,
) -> bool {
    verify_inner(
        crs,
        ConstantRefs::Prepared(constants),
        commitments,
        extra,
        proof,
    )
}

/// Equation constants in live or prepared form — [`verify`] and
/// [`verify_prepared`] share one body so the two-equation structure can
/// never diverge between them.
enum ConstantRefs<'a> {
    Live(&'a [G2Affine]),
    Prepared(&'a [&'a G2Prepared]),
}

impl ConstantRefs<'_> {
    fn len(&self) -> usize {
        match self {
            ConstantRefs::Live(c) => c.len(),
            ConstantRefs::Prepared(c) => c.len(),
        }
    }
}

fn verify_inner(
    crs: &Crs,
    constants: ConstantRefs<'_>,
    commitments: &[Commitment],
    extra: &[((G1Affine, G1Affine), G2Affine)],
    proof: &Proof,
) -> bool {
    if constants.len() != commitments.len() {
        return false;
    }
    fn coord(c: &Commitment, m: usize) -> &G1Affine {
        if m == 0 {
            &c.c1
        } else {
            &c.c2
        }
    }
    for m in 0..2usize {
        let mut pairs: Vec<(&G1Affine, &G2Affine)> = Vec::new();
        let mut prepared: Vec<(&G1Affine, &G2Prepared)> = Vec::new();
        match &constants {
            ConstantRefs::Live(cs) => {
                for (c, a) in commitments.iter().zip(cs.iter()) {
                    pairs.push((coord(c, m), a));
                }
            }
            ConstantRefs::Prepared(cs) => {
                for (c, a) in commitments.iter().zip(cs.iter()) {
                    prepared.push((coord(c, m), *a));
                }
            }
        }
        let u1m = if m == 0 { &crs.u1.0 } else { &crs.u1.1 };
        let u2m = if m == 0 { &crs.u2.0 } else { &crs.u2.1 };
        pairs.push((u1m, &proof.pi1));
        pairs.push((u2m, &proof.pi2));
        for ((p1, p2), q) in extra.iter() {
            pairs.push((if m == 0 { p1 } else { p2 }, q));
        }
        if !multi_pairing_mixed(&pairs, &prepared).is_identity() {
            return false;
        }
    }
    true
}

/// Perfectly re-randomizes a commitment/proof pair for the given
/// equation constants (Belenkiy et al.): the output is distributed as a
/// fresh commitment and proof of the same statement.
pub fn randomize<R: RngCore + ?Sized>(
    crs: &Crs,
    constants: &[G2Affine],
    commitments: &[Commitment],
    proof: &Proof,
    rng: &mut R,
) -> (Vec<Commitment>, Proof) {
    let fresh: Vec<Randomness> = (0..commitments.len())
        .map(|_| Randomness {
            nu1: Fr::random(rng),
            nu2: Fr::random(rng),
        })
        .collect();
    let new_commitments: Vec<Commitment> = commitments
        .iter()
        .zip(fresh.iter())
        .map(|(c, r)| {
            let c1 = c.c1.to_projective() + msm(&[crs.u1.0, crs.u2.0], &[r.nu1, r.nu2]);
            let c2 = c.c2.to_projective() + msm(&[crs.u1.1, crs.u2.1], &[r.nu1, r.nu2]);
            Commitment {
                c1: c1.to_affine(),
                c2: c2.to_affine(),
            }
        })
        .collect();
    let delta = prove(constants, &fresh);
    let new_proof = Proof {
        pi1: (proof.pi1.to_projective().add_affine(&delta.pi1)).to_affine(),
        pi2: (proof.pi2.to_projective().add_affine(&delta.pi2)).to_affine(),
    };
    (new_commitments, new_proof)
}

/// Linearly combines commitment/proof tuples for the *same* equation
/// constants with the given weights: the result proves the weighted
/// product statement. This is the "Lagrange interpolation of Groth–Sahai
/// proofs in the exponent" used by the §4 `Combine`.
pub fn combine_weighted(
    tuples: &[(&[Commitment], &Proof)],
    weights: &[Fr],
) -> (Vec<Commitment>, Proof) {
    assert_eq!(tuples.len(), weights.len(), "one weight per tuple");
    assert!(!tuples.is_empty(), "nothing to combine");
    let vars = tuples[0].0.len();
    let mut commitments = Vec::with_capacity(vars);
    for v in 0..vars {
        let c1s: Vec<G1Affine> = tuples.iter().map(|(cs, _)| cs[v].c1).collect();
        let c2s: Vec<G1Affine> = tuples.iter().map(|(cs, _)| cs[v].c2).collect();
        commitments.push(Commitment {
            c1: msm(&c1s, weights).to_affine(),
            c2: msm(&c2s, weights).to_affine(),
        });
    }
    let pi1s: Vec<G2Affine> = tuples.iter().map(|(_, p)| p.pi1).collect();
    let pi2s: Vec<G2Affine> = tuples.iter().map(|(_, p)| p.pi2).collect();
    let proof = Proof {
        pi1: {
            let pts: Vec<G2Projective> = pi1s.iter().map(|p| p.to_projective()).collect();
            let affs = G2Projective::batch_to_affine(&pts);
            borndist_pairing::msm(&affs, weights).to_affine()
        },
        pi2: {
            let pts: Vec<G2Projective> = pi2s.iter().map(|p| p.to_projective()).collect();
            let affs = G2Projective::batch_to_affine(&pts);
            borndist_pairing::msm(&affs, weights).to_affine()
        },
    };
    (commitments, proof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use borndist_pairing::pairing;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x95)
    }

    /// The "extra pair" part of a statement: `(P1, P2)` with its `Q̂`.
    type ExtraPair = ((G1Affine, G1Affine), G2Affine);

    /// Builds a valid statement: X1, X2 with constants Â1, Â2 and the
    /// extra pair absorbing the target, i.e.
    /// e(X1,Â1)·e(X2,Â2)·e(P,Q̂) = 1 by construction.
    fn sample_statement(r: &mut StdRng) -> (Vec<G1Projective>, Vec<G2Affine>, ExtraPair) {
        let a1 = G2Projective::random(r).to_affine();
        let a2 = G2Projective::random(r).to_affine();
        let x1 = G1Projective::random(r);
        let x2 = G1Projective::random(r);
        // extra pair: ((1, g), Q̂) with e(g, Q̂) = (e(X1,Â1)e(X2,Â2))^{-1}.
        // Build it in the exponent: X_i = g^{x_i}, Â_i = ĝ^{α_i}; pick
        // Q̂ = ĝ^{q} and g-part = g^{-(x1α1+x2α2)/q}... simpler: set the
        // extra G1 part to -(X1^{α1·...}) — we don't know dlogs. Instead
        // construct FROM scalars.
        let g = G1Projective::generator();
        let gh = G2Projective::generator();
        let (e1, e2) = (Fr::random(r), Fr::random(r));
        let (f1, f2) = (Fr::random(r), Fr::random(r));
        let a1s = gh.mul(&e1).to_affine();
        let a2s = gh.mul(&e2).to_affine();
        let x1s = g.mul(&f1);
        let x2s = g.mul(&f2);
        // e(x1s,a1s)e(x2s,a2s) = e(g,ĝ)^{f1e1+f2e2}; extra = ((1,g), ĝ^{-(f1e1+f2e2)}).
        let q = gh.mul(&(-(f1 * e1 + f2 * e2))).to_affine();
        let extra = ((G1Affine::identity(), g.to_affine()), q);
        // silence unused original randoms
        let _ = (a1, a2, x1, x2);
        (vec![x1s, x2s], vec![a1s, a2s], extra)
    }

    #[test]
    fn prove_verify_on_hiding_crs() {
        let mut r = rng();
        let crs = Crs::hiding(&mut r);
        let (xs, constants, extra) = sample_statement(&mut r);
        let committed: Vec<(Commitment, Randomness)> =
            xs.iter().map(|x| crs.commit(x, &mut r)).collect();
        let commitments: Vec<Commitment> = committed.iter().map(|(c, _)| *c).collect();
        let rands: Vec<Randomness> = committed.iter().map(|(_, r)| *r).collect();
        let proof = prove(&constants, &rands);
        assert!(verify(&crs, &constants, &commitments, &[extra], &proof));
    }

    #[test]
    fn prove_verify_on_binding_crs() {
        let mut r = rng();
        let (crs, _) = Crs::binding(&mut r);
        let (xs, constants, extra) = sample_statement(&mut r);
        let committed: Vec<(Commitment, Randomness)> =
            xs.iter().map(|x| crs.commit(x, &mut r)).collect();
        let commitments: Vec<Commitment> = committed.iter().map(|(c, _)| *c).collect();
        let rands: Vec<Randomness> = committed.iter().map(|(_, r)| *r).collect();
        let proof = prove(&constants, &rands);
        assert!(verify(&crs, &constants, &commitments, &[extra], &proof));
    }

    #[test]
    fn false_statement_rejected() {
        let mut r = rng();
        let crs = Crs::hiding(&mut r);
        let (xs, constants, extra) = sample_statement(&mut r);
        let committed: Vec<(Commitment, Randomness)> =
            xs.iter().map(|x| crs.commit(x, &mut r)).collect();
        let commitments: Vec<Commitment> = committed.iter().map(|(c, _)| *c).collect();
        let rands: Vec<Randomness> = committed.iter().map(|(_, r)| *r).collect();
        let proof = prove(&constants, &rands);
        // Tamper with the target.
        let bad_extra = (extra.0, G2Projective::random(&mut r).to_affine());
        assert!(!verify(
            &crs,
            &constants,
            &commitments,
            &[bad_extra],
            &proof
        ));
        // Tamper with a commitment.
        let mut bad = commitments.clone();
        bad[0].c2 = bad[0].c1;
        assert!(!verify(&crs, &constants, &bad, &[extra], &proof));
    }

    #[test]
    fn extraction_recovers_committed_value() {
        let mut r = rng();
        let (crs, ek) = Crs::binding(&mut r);
        let x = G1Projective::random(&mut r);
        let (c, _) = crs.commit(&x, &mut r);
        assert_eq!(ek.extract(&c), x);
    }

    #[test]
    fn hiding_commitments_perfectly_hide() {
        // On a hiding CRS, a commitment to X could open to anything: we
        // check that commitments to different values are algebraically
        // indistinguishable by checking they have identical distributions
        // under re-randomization — here we just check that two different
        // messages can yield the SAME commitment with suitable randomness
        // (perfect hiding has no test better than structure: c1 carries
        // no information about X).
        let mut r = rng();
        let crs = Crs::hiding(&mut r);
        let x = G1Projective::random(&mut r);
        let (c, _) = crs.commit(&x, &mut r);
        // c1 is independent of x by construction:
        let (c_other, _) = crs.commit(&G1Projective::identity(), &mut r);
        // Nothing to assert beyond well-formedness; both are valid points.
        assert!(c.c1.is_on_curve() && c_other.c1.is_on_curve());
    }

    #[test]
    fn randomization_preserves_validity_and_changes_representation() {
        let mut r = rng();
        let crs = Crs::hiding(&mut r);
        let (xs, constants, extra) = sample_statement(&mut r);
        let committed: Vec<(Commitment, Randomness)> =
            xs.iter().map(|x| crs.commit(x, &mut r)).collect();
        let commitments: Vec<Commitment> = committed.iter().map(|(c, _)| *c).collect();
        let rands: Vec<Randomness> = committed.iter().map(|(_, rr)| *rr).collect();
        let proof = prove(&constants, &rands);
        let (new_c, new_p) = randomize(&crs, &constants, &commitments, &proof, &mut r);
        assert_ne!(new_c[0], commitments[0]);
        assert_ne!(new_p, proof);
        assert!(verify(&crs, &constants, &new_c, &[extra], &new_p));
    }

    #[test]
    fn weighted_combination_proves_product_statement() {
        // Two proofs of e(X_j, Â)·e(g^{v_j}, Q̂) = 1 combine with weights
        // w_j into a proof for the weighted product statement.
        let mut r = rng();
        let crs = Crs::hiding(&mut r);
        let gh = G2Projective::generator();
        let g = G1Projective::generator();
        let alpha = Fr::random(&mut r);
        let a = gh.mul(&alpha).to_affine();
        // For each j: X_j = g^{x_j}, extra_j = ((1, g^{v_j}), Q̂) with
        // e(X_j, Â)·e(g^{v_j}, Q̂) = 1; with Q̂ = ĝ^{qs} this forces
        // v_j = -x_j·α/qs.
        let qs = Fr::random(&mut r);
        let q = gh.mul(&qs).to_affine();
        let make = |x_scalar: Fr, rr: &mut StdRng| {
            let x = g.mul(&x_scalar);
            let v = -(x_scalar * alpha) * qs.invert().unwrap();
            let (c, rand) = crs.commit(&x, rr);
            let proof = prove(&[a], &[rand]);
            (c, proof, v)
        };
        let (c1, p1, v1) = make(Fr::from_u64(5), &mut r);
        let (c2, p2, v2) = make(Fr::from_u64(9), &mut r);
        // Check individuals.
        let ex = |v: Fr| ((G1Affine::identity(), g.mul(&v).to_affine()), q);
        assert!(verify(&crs, &[a], &[c1], &[ex(v1)], &p1));
        assert!(verify(&crs, &[a], &[c2], &[ex(v2)], &p2));
        // Combine with weights.
        let (w1, w2) = (Fr::from_u64(3), Fr::from_u64(11));
        let (cc, cp) = combine_weighted(&[(&[c1][..], &p1), (&[c2][..], &p2)], &[w1, w2]);
        let v_comb = v1 * w1 + v2 * w2;
        assert!(verify(&crs, &[a], &cc, &[ex(v_comb)], &cp));
    }

    #[test]
    fn pairing_vector_identity_shape() {
        // Sanity: E((1,g), Q̂) has first coordinate 1.
        let mut r = rng();
        let q = G2Projective::random(&mut r).to_affine();
        assert!(pairing(&G1Affine::identity(), &q).is_identity());
    }
}
