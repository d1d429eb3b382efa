//! Plain Shamir secret sharing.

use crate::lagrange::{interpolate_at, LagrangeError};
use crate::polynomial::Polynomial;
use borndist_pairing::Fr;
use rand::RngCore;

/// One party's share of a secret: the polynomial evaluation at its index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Share {
    /// The 1-based party index.
    pub index: u32,
    /// The share value `P(index)`.
    pub value: Fr,
}

/// Parameters of a `(t, n)` sharing: any `t+1` shares reconstruct, any
/// `t` reveal nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThresholdParams {
    /// Corruption threshold `t`.
    pub t: usize,
    /// Number of parties `n`.
    pub n: usize,
}

impl ThresholdParams {
    /// Validates and constructs `(t, n)` parameters.
    ///
    /// # Errors
    ///
    /// Rejects `n == 0`, `t + 1 > n` (unreconstructable) and `n` too large
    /// to index with `u32`.
    pub fn new(t: usize, n: usize) -> Result<Self, InvalidParams> {
        if n == 0 || t + 1 > n || n > u32::MAX as usize {
            return Err(InvalidParams { t, n });
        }
        Ok(ThresholdParams { t, n })
    }

    /// Number of shares needed to reconstruct (`t + 1`).
    pub fn reconstruction_size(&self) -> usize {
        self.t + 1
    }

    /// `true` when `n ≥ 2t + 1`, the honest-majority condition the
    /// paper's DKG requires.
    pub fn honest_majority(&self) -> bool {
        self.n > 2 * self.t
    }
}

/// Error for malformed `(t, n)` parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidParams {
    /// Offered threshold.
    pub t: usize,
    /// Offered party count.
    pub n: usize,
}

impl core::fmt::Display for InvalidParams {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid threshold parameters t={}, n={}", self.t, self.n)
    }
}
impl std::error::Error for InvalidParams {}

/// Splits `secret` into `n` shares with threshold `t`, returning the
/// shares and the sharing polynomial (callers that need verifiability
/// commit to the polynomial; plain users may drop it).
pub fn share<R: RngCore + ?Sized>(
    secret: Fr,
    params: ThresholdParams,
    rng: &mut R,
) -> (Vec<Share>, Polynomial) {
    let poly = Polynomial::random_with_constant(secret, params.t, rng);
    let shares = (1..=params.n as u32)
        .map(|i| Share {
            index: i,
            value: poly.evaluate_at_index(i),
        })
        .collect();
    (shares, poly)
}

/// Reconstructs the secret from at least `t+1` shares.
///
/// # Errors
///
/// Propagates index validation failures (duplicates, zero, empty set).
/// With fewer than `t+1` *valid* shares the result is well-defined but
/// (whp) not the original secret — threshold enforcement is the caller's
/// responsibility, as in the paper's `Combine`.
pub fn reconstruct(shares: &[Share]) -> Result<Fr, LagrangeError> {
    let pts: Vec<(u32, Fr)> = shares.iter().map(|s| (s.index, s.value)).collect();
    interpolate_at(&pts, Fr::zero())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x55)
    }

    #[test]
    fn share_then_reconstruct() {
        let mut r = rng();
        let params = ThresholdParams::new(2, 5).unwrap();
        let secret = Fr::random(&mut r);
        let (shares, _) = share(secret, params, &mut r);
        assert_eq!(shares.len(), 5);
        assert_eq!(reconstruct(&shares[..3]).unwrap(), secret);
        assert_eq!(reconstruct(&shares[2..]).unwrap(), secret);
        assert_eq!(reconstruct(&shares).unwrap(), secret);
    }

    #[test]
    fn noncontiguous_subsets() {
        let mut r = rng();
        let params = ThresholdParams::new(3, 9).unwrap();
        let secret = Fr::random(&mut r);
        let (shares, _) = share(secret, params, &mut r);
        let subset = [&shares[0], &shares[3], &shares[5], &shares[8]];
        let owned: Vec<Share> = subset.iter().map(|s| **s).collect();
        assert_eq!(reconstruct(&owned).unwrap(), secret);
    }

    #[test]
    fn too_few_shares_yield_garbage() {
        let mut r = rng();
        let params = ThresholdParams::new(3, 7).unwrap();
        let secret = Fr::random(&mut r);
        let (shares, _) = share(secret, params, &mut r);
        assert_ne!(reconstruct(&shares[..3]).unwrap(), secret);
    }

    #[test]
    fn param_validation() {
        assert!(ThresholdParams::new(0, 1).is_ok());
        assert!(ThresholdParams::new(1, 1).is_err());
        assert!(ThresholdParams::new(0, 0).is_err());
        assert!(ThresholdParams::new(2, 5).unwrap().honest_majority());
        assert!(!ThresholdParams::new(3, 5).unwrap().honest_majority());
        assert_eq!(ThresholdParams::new(2, 5).unwrap().reconstruction_size(), 3);
    }

    #[test]
    fn shares_are_polynomial_evaluations() {
        let mut r = rng();
        let params = ThresholdParams::new(2, 4).unwrap();
        let secret = Fr::random(&mut r);
        let (shares, poly) = share(secret, params, &mut r);
        for s in &shares {
            assert_eq!(s.value, poly.evaluate_at_index(s.index));
        }
        assert_eq!(poly.constant_term(), secret);
    }
}
