//! BLS12-381 parameters.
//!
//! `BLS_X`, `FROB1_GAMMA`, `FP_HALF` and the `GLV_*` lattice are derived
//! by `tools/gen_pairing_constants.py` (which also prints the reference
//! module's `ATE_TATE_EXP`); the remaining values are the standard
//! published BLS12-381 moduli, Montgomery constants, exponents,
//! generators and cofactors, which no script in this repository
//! regenerates.
//!
//! All limb arrays are little-endian `u64`s. Montgomery constants use
//! `R = 2^384` for the base field `Fp` and `R = 2^256` for the scalar
//! field `Fr`.
#![allow(clippy::unreadable_literal)]

// ===== Fp (381-bit, 6 limbs) =====
pub const FP_MODULUS: [u64; 6] = [
    0xb9feffffffffaaab,
    0x1eabfffeb153ffff,
    0x6730d2a0f6b0f624,
    0x64774b84f38512bf,
    0x4b1ba7b6434bacd7,
    0x1a0111ea397fe69a,
];
pub const FP_INV: u64 = 0x89f3fffcfffcfffd;
pub const FP_R: [u64; 6] = [
    0x760900000002fffd,
    0xebf4000bc40c0002,
    0x5f48985753c758ba,
    0x77ce585370525745,
    0x5c071a97a256ec6d,
    0x15f65ec3fa80e493,
];
pub const FP_R2: [u64; 6] = [
    0xf4df1f341c341746,
    0x0a76e6a609d104f1,
    0x8de5476c4c95b6d5,
    0x67eb88a9939d83c0,
    0x9a793e85b519952d,
    0x11988fe592cae3aa,
];
pub const FP_R3: [u64; 6] = [
    0xed48ac6bd94ca1e0,
    0x315f831e03a7adf8,
    0x9a53352a615e29dd,
    0x34c04e5e921e1761,
    0x2512d43565724728,
    0x0aa6346091755d4d,
];
/// Exponent `(p+1)/4` for square roots in `Fp` (valid since `p ≡ 3 mod 4`).
pub const FP_SQRT_EXP: [u64; 6] = [
    0xee7fbfffffffeaab,
    0x07aaffffac54ffff,
    0xd9cc34a83dac3d89,
    0xd91dd2e13ce144af,
    0x92c6e9ed90d2eb35,
    0x0680447a8e5ff9a6,
];
/// Exponent `p - 2` for Fermat inversion in `Fp`.
pub const FP_INV_EXP: [u64; 6] = [
    0xb9feffffffffaaa9,
    0x1eabfffeb153ffff,
    0x6730d2a0f6b0f624,
    0x64774b84f38512bf,
    0x4b1ba7b6434bacd7,
    0x1a0111ea397fe69a,
];
/// Mask for the top limb when sampling random `Fp` elements (381 bits).
pub const FP_TOP_MASK: u64 = (1u64 << 61) - 1;

// ===== Fr (255-bit, 4 limbs) =====
pub const FR_MODULUS: [u64; 4] = [
    0xffffffff00000001,
    0x53bda402fffe5bfe,
    0x3339d80809a1d805,
    0x73eda753299d7d48,
];
pub const FR_INV: u64 = 0xfffffffeffffffff;
pub const FR_R: [u64; 4] = [
    0x00000001fffffffe,
    0x5884b7fa00034802,
    0x998c4fefecbc4ff5,
    0x1824b159acc5056f,
];
pub const FR_R2: [u64; 4] = [
    0xc999e990f3f29c6d,
    0x2b6cedcb87925c23,
    0x05d314967254398f,
    0x0748d9d99f59ff11,
];
pub const FR_R3: [u64; 4] = [
    0xc62c1807439b73af,
    0x1b3e0d188cf06990,
    0x73d13c71c7b5f418,
    0x6e2a5bb9c8db33e9,
];
/// Exponent `r - 2` for Fermat inversion in `Fr`.
pub const FR_INV_EXP: [u64; 4] = [
    0xfffffffeffffffff,
    0x53bda402fffe5bfe,
    0x3339d80809a1d805,
    0x73eda753299d7d48,
];
/// Mask for the top limb when sampling random `Fr` elements (255 bits).
pub const FR_TOP_MASK: u64 = (1u64 << 63) - 1;

// ===== Fp2 square root (p ≡ 3 mod 4) =====
/// `(p-3)/4`: for `δ ∈ Fp`, `t = δ^((p-3)/4)` gives both `tδ = √(±δ)`
/// and `t = ±1/(tδ)`, the second leg of the norm-method square root in
/// `Fp2`.
pub const FP2_SQRT_E1: [u64; 6] = [
    0xee7fbfffffffeaaa,
    0x07aaffffac54ffff,
    0xd9cc34a83dac3d89,
    0xd91dd2e13ce144af,
    0x92c6e9ed90d2eb35,
    0x0680447a8e5ff9a6,
];
/// `1/2 ∈ Fp` in **Montgomery form** (`(p+1)/2 · 2^384 mod p`), wrapped
/// directly by `Fp2::sqrt`. Generated by `tools/gen_pairing_constants.py`.
pub const FP_HALF: [u64; 6] = [
    0x1804000000015554,
    0x855000053ab00001,
    0x633cb57c253c276f,
    0x6e22d1ec31ebb502,
    0xd3916126f2d14ca2,
    0x17fbb8571a006596,
];

// ===== Generators (canonical integer limbs, not Montgomery form) =====
pub const G1_GEN_X: [u64; 6] = [
    0xfb3af00adb22c6bb,
    0x6c55e83ff97a1aef,
    0xa14e3a3f171bac58,
    0xc3688c4f9774b905,
    0x2695638c4fa9ac0f,
    0x17f1d3a73197d794,
];
pub const G1_GEN_Y: [u64; 6] = [
    0x0caa232946c5e7e1,
    0xd03cc744a2888ae4,
    0x00db18cb2c04b3ed,
    0xfcf5e095d5d00af6,
    0xa09e30ed741d8ae4,
    0x08b3f481e3aaa0f1,
];
pub const G2_GEN_X0: [u64; 6] = [
    0xd48056c8c121bdb8,
    0x0bac0326a805bbef,
    0xb4510b647ae3d177,
    0xc6e47ad4fa403b02,
    0x260805272dc51051,
    0x024aa2b2f08f0a91,
];
pub const G2_GEN_X1: [u64; 6] = [
    0xe5ac7d055d042b7e,
    0x334cf11213945d57,
    0xb5da61bbdc7f5049,
    0x596bd0d09920b61a,
    0x7dacd3a088274f65,
    0x13e02b6052719f60,
];
pub const G2_GEN_Y0: [u64; 6] = [
    0xe193548608b82801,
    0x923ac9cc3baca289,
    0x6d429a695160d12c,
    0xadfd9baa8cbdd3a7,
    0x8cc9cdc6da2e351a,
    0x0ce5d527727d6e11,
];
pub const G2_GEN_Y1: [u64; 6] = [
    0xaaa9075ff05f79be,
    0x3f370d275cec1da1,
    0x267492ab572e99ab,
    0xcb3e287e85a763af,
    0x32acd2b02bc28b99,
    0x0606c4a02ea734cc,
];

// ===== Cofactors =====
pub const G1_COFACTOR: [u64; 2] = [0x8c00aaab0000aaab, 0x396c8c005555e156];
pub const G2_COFACTOR: [u64; 8] = [
    0xcf1c38e31c7238e5,
    0x1616ec6e786f0c70,
    0x21537e293a6691ae,
    0xa628f1cb4d9e82ef,
    0xa68a205b2e5a7ddf,
    0xcd91de4547085aba,
    0x091d50792876a202,
    0x05d543a95414e7f1,
];

/// Group order `r` as limbs: the scalar of the reference oracles'
/// subgroup check and Tate Miller loops.
pub const ORDER: [u64; 4] = FR_MODULUS;

// ===== Optimal-ate pairing parameters =====
// Generated by `tools/gen_pairing_constants.py`.

/// Absolute value of the BLS12-381 curve parameter `x = -0xd201000000010000`.
/// The optimal-ate Miller loop runs over the bits of this 64-bit integer
/// (versus the 255-bit group order `r` for the Tate loop); the sign is
/// handled by a final conjugation.
pub const BLS_X: u64 = 0xd201000000010000;

/// Frobenius p-power coefficients: `gamma_i = xi^(i(p-1)/6) ∈ Fp2` for
/// `i = 0..5`, stored as `[c0_limbs, c1_limbs]` (canonical form).
///
/// * `gamma_1` scales the odd (`w`) part in `Fp12::frobenius_p`;
/// * `gamma_2` and `gamma_4` scale the `v` and `v²` coefficients in
///   `Fp6::frobenius_p`.
pub const FROB1_GAMMA: [[[u64; 6]; 2]; 6] = [
    [
        [
            0x0000000000000001,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ],
    [
        [
            0x8d0775ed92235fb8,
            0xf67ea53d63e7813d,
            0x7b2443d784bab9c4,
            0x0fd603fd3cbd5f4f,
            0xc231beb4202c0d1f,
            0x1904d3bf02bb0667,
        ],
        [
            0x2cf78a126ddc4af3,
            0x282d5ac14d6c7ec2,
            0xec0c8ec971f63c5f,
            0x54a14787b6c7b36f,
            0x88e9e902231f9fb8,
            0x00fc3e2b36c4e032,
        ],
    ],
    [
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
        [
            0x8bfd00000000aaac,
            0x409427eb4f49fffd,
            0x897d29650fb85f9b,
            0xaa0d857d89759ad4,
            0xec02408663d4de85,
            0x1a0111ea397fe699,
        ],
    ],
    [
        [
            0xc81084fbede3cc09,
            0xee67992f72ec05f4,
            0x77f76e17009241c5,
            0x48395dabc2d3435e,
            0x6831e36d6bd17ffe,
            0x06af0e0437ff400b,
        ],
        [
            0xc81084fbede3cc09,
            0xee67992f72ec05f4,
            0x77f76e17009241c5,
            0x48395dabc2d3435e,
            0x6831e36d6bd17ffe,
            0x06af0e0437ff400b,
        ],
    ],
    [
        [
            0x8bfd00000000aaad,
            0x409427eb4f49fffd,
            0x897d29650fb85f9b,
            0xaa0d857d89759ad4,
            0xec02408663d4de85,
            0x1a0111ea397fe699,
        ],
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ],
    [
        [
            0x9b18fae980078116,
            0xc63a3e6e257f8732,
            0x8beadf4d8e9c0566,
            0xf39816240c0b8fee,
            0xdf47fa6b48b1e045,
            0x05b2cfd9013a5fd8,
        ],
        [
            0x1ee605167ff82995,
            0x5871c1908bd478cd,
            0xdb45f3536814f0bd,
            0x70df3560e77982d0,
            0x6bd3ad4afa99cc91,
            0x144e4211384586c1,
        ],
    ],
];

// ===== GLV scalar-decomposition lattice (generated, see glv.rs) =====

/// `BLS_X²` as little-endian limbs (a 128-bit integer).
pub const GLV_X2: [u64; 2] = [0x0000000100000000, 0xac45a4010001a402];

/// `floor(2^384 · BLS_X² / r)` — Babai rounding constant for the first
/// basis vector `v1 = (X² − 1, −1)` of the GLV kernel lattice.
pub const GLV_G1_FLOOR: [u64; 5] = [
    0xda5e4f8d896c72d9,
    0x389f49a7268bf7a3,
    0x63f6e522f6cfee30,
    0x7c6becf1e01faadd,
    0x0000000000000001,
];

/// `floor(2^384 / r)` — Babai rounding constant for the second basis
/// vector `v2 = (1, X²)`.
pub const GLV_G2_FLOOR: [u64; 3] = [0x38b5dcb707e08ed3, 0x355094edfede377c, 0x0000000000000002];

/// `λ = X² − 1 mod r`, the GLV eigenvalue when the generator probe
/// resolves `lambda_is_x2_minus_1 = true`.
pub const GLV_LAMBDA_1: [u64; 4] = [
    0x00000000ffffffff,
    0xac45a4010001a402,
    0x0000000000000000,
    0x0000000000000000,
];

// ===== Frobenius p^2 coefficients: gamma_i = xi^(i(p^2-1)/6) in Fp =====
// For f = sum_{i=0..5} a_i w^i with a_i in Fp2, f^(p^2) = sum a_i gamma_i w^i.
pub const FROB2_GAMMA: [[u64; 6]; 6] = [
    [
        0x0000000000000001,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
    [
        0x2e01fffffffeffff,
        0xde17d813620a0002,
        0xddb3a93be6f89688,
        0xba69c6076a0f77ea,
        0x5f19672fdf76ce51,
        0x0000000000000000,
    ],
    [
        0x2e01fffffffefffe,
        0xde17d813620a0002,
        0xddb3a93be6f89688,
        0xba69c6076a0f77ea,
        0x5f19672fdf76ce51,
        0x0000000000000000,
    ],
    [
        0xb9feffffffffaaaa,
        0x1eabfffeb153ffff,
        0x6730d2a0f6b0f624,
        0x64774b84f38512bf,
        0x4b1ba7b6434bacd7,
        0x1a0111ea397fe69a,
    ],
    [
        0x8bfd00000000aaac,
        0x409427eb4f49fffd,
        0x897d29650fb85f9b,
        0xaa0d857d89759ad4,
        0xec02408663d4de85,
        0x1a0111ea397fe699,
    ],
    [
        0x8bfd00000000aaad,
        0x409427eb4f49fffd,
        0x897d29650fb85f9b,
        0xaa0d857d89759ad4,
        0xec02408663d4de85,
        0x1a0111ea397fe699,
    ],
];
