//! # borndist-shamir
//!
//! Polynomial secret sharing for the *Born and Raised Distributively*
//! reproduction: Shamir sharing over the scalar field, Lagrange
//! interpolation both in the field and "in the exponent", Feldman VSS,
//! and the two-generator Pedersen VSS that underlies the paper's
//! distributed key generation (§3.1, Eq. (1)).
//!
//! ## Example
//!
//! ```rust
//! use borndist_shamir::{share, reconstruct, ThresholdParams};
//! use borndist_pairing::Fr;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let secret = Fr::random(&mut rng);
//! let params = ThresholdParams::new(2, 5).unwrap();
//! let (shares, _poly) = share(secret, params, &mut rng);
//! // Any t+1 = 3 shares reconstruct the secret.
//! assert_eq!(reconstruct(&shares[1..4]).unwrap(), secret);
//! ```

mod batch;
mod feldman;
mod lagrange;
mod pedersen;
mod polynomial;
mod sss;

pub use batch::{
    feldman_batch_verify, feldman_check_verdicts, pedersen_batch_verify, pedersen_check_verdicts,
    FeldmanCheck, PedersenCheck,
};
pub use feldman::FeldmanCommitment;
pub use lagrange::{
    interpolate_at, interpolate_in_exponent, lagrange_coefficients_at,
    lagrange_coefficients_at_zero, LagrangeCache, LagrangeError,
};
pub use pedersen::{PedersenBases, PedersenCommitment, PedersenShare, PedersenSharing};
pub use polynomial::Polynomial;
pub use sss::{reconstruct, share, InvalidParams, Share, ThresholdParams};
