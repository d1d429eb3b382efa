#!/usr/bin/env python3
"""Derives the optimal-ate pairing constants in `crates/pairing/src/constants.rs`
(and `ATE_TATE_EXP`, which lives in `crates/pairing/src/reference.rs`).

Outputs (all limb arrays little-endian u64, canonical — not Montgomery — form,
matching the existing generator/Frobenius constants):

* ``BLS_X`` — the absolute value of the BLS12-381 curve parameter
  ``x = -0xd201000000010000`` (the optimal-ate Miller loop length).
* ``FROB1_GAMMA`` — the p-power Frobenius coefficients
  ``gamma_i = xi^(i(p-1)/6) in Fp2`` for ``i = 0..5``, with ``xi = 1 + u``
  the sextic non-residue of the tower.
* ``FP_HALF`` — ``1/2 in Fp`` in *Montgomery* form (``(p+1)/2 * 2^384 mod
  p``, the one constant here that is not canonical: ``Fp2::sqrt`` wraps
  the limbs directly, with no conversion multiply on the decode path).
* ``GLV_*`` — the 2-dimensional GLV lattice for the scalar decomposition
  in ``crates/pairing/src/glv.rs``: the eigenvalue ``lambda = X^2 - 1``
  of the cube-root-of-unity endomorphism on G1 (and its conjugate
  ``-X^2``), the reduced basis ``v1 = (X^2 - 1, -1)``, ``v2 = (1, X^2)``
  of the kernel of ``(k1, k2) -> k1 + k2*lambda mod r`` (determinant
  exactly ``r``), and the Babai rounding constants
  ``floor(2^384 * X^2 / r)`` / ``floor(2^384 / r)`` used to split a
  scalar into two sub-scalars of at most 129 bits.
* ``ATE_TATE_EXP`` — the fixed exponent ``3d mod r`` with
  ``d = L * c^-1 mod r`` the Hess–Smart–Vercauteren constant relating the
  canonical reduced optimal-ate pairing to the swapped-argument reduced
  Tate pairing ``f_{r,Q}(P)^((p^12-1)/r)``, where ``L = (x^12 - 1)/r``
  and ``c = 12 p^11 mod r``.  The extra factor 3 accounts for the final
  exponentiation addition chain computing ``m^(3*(p^4-p^2+1)/r)`` (the
  standard variant — 3 is coprime to r, so the cube is an equally valid
  pairing).  Net: ``pairing(P, Q) = pairing_tate_g2(P, Q)^ATE_TATE_EXP``.
  (Both facts were confirmed numerically against an independent Python
  model of the full tower, and symbolically for the chain exponent.)

Run: ``python3 tools/gen_pairing_constants.py``
"""

p = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
r = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001
X = 0xD201000000010000  # |x|; the curve parameter itself is -X


def limbs(n, count):
    out = []
    for _ in range(count):
        out.append(n & 0xFFFFFFFFFFFFFFFF)
        n >>= 64
    assert n == 0
    return out


def fmt(name, n, count, indent=""):
    ls = limbs(n, count)
    body = "\n".join(f"{indent}    0x{l:016x}," for l in ls)
    return f"{indent}{name} = [\n{body}\n{indent}];"


def f2_mul(a, b):
    return ((a[0] * b[0] - a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p)


def f2_pow(a, e):
    acc = (1, 0)
    while e:
        if e & 1:
            acc = f2_mul(acc, a)
        a = f2_mul(a, a)
        e >>= 1
    return acc


def main():
    assert (p - 1) % 6 == 0, "p must be 1 mod 6 for the sextic tower"
    xi = (1, 1)

    print(f"pub const BLS_X: u64 = 0x{X:016x};")
    print()
    print("pub const FROB1_GAMMA: [[[u64; 6]; 2]; 6] = [")
    for i in range(6):
        g = f2_pow(xi, i * (p - 1) // 6)
        print("    [")
        for coord in g:
            body = "\n".join(f"            0x{l:016x}," for l in limbs(coord, 6))
            print(f"        [\n{body}\n        ],")
        print("    ],")
    print("];")
    print()

    # --- 1/2 in Fp for the norm-method square root in Fp2 (fp2.rs) ---
    half = (p + 1) // 2
    assert 2 * half % p == 1
    print(fmt("pub const FP_HALF: [u64; 6]", half * (1 << 384) % p, 6))
    print()

    # --- GLV lattice for the G1 scalar decomposition (glv.rs) ---
    X2 = X * X
    assert r == X2 * X2 - X2 + 1, "r(X) = X^4 - X^2 + 1 on BLS curves"
    lam1 = (X2 - 1) % r
    lam2 = (-X2) % r
    for lam in (lam1, lam2):
        assert (lam * lam + lam + 1) % r == 0, "lambda is a cube root of 1"
    # Basis of the kernel lattice for lambda = X^2 - 1; determinant is
    # exactly r, so Babai rounding against it splits any k < r into
    # sub-scalars k1 in [0, 2X^2), k2 in (-2, 2X^2) — at most 129 bits.
    assert ((X2 - 1) - lam1) % r == 0, "v1 = (X^2-1, -1) is in the lattice"
    assert (1 + X2 * lam1) % r == 0, "v2 = (1, X^2) is in the lattice"
    assert (X2 - 1) * X2 + 1 == r, "basis determinant is r"
    n384 = 1 << 384
    g1_floor = n384 * X2 // r
    g2_floor = n384 // r
    print(fmt("pub const GLV_X2: [u64; 2]", X2, 2))
    print(fmt("pub const GLV_G1_FLOOR: [u64; 5]", g1_floor, 5))
    print(fmt("pub const GLV_G2_FLOOR: [u64; 3]", g2_floor, 3))
    print(fmt("pub const GLV_LAMBDA_1: [u64; 4]", lam1, 4))
    print()
    # Spot-check the rounding error bound of the floor approximation:
    # k1 = d1*(X^2-1) + d2 and k2 = d2*X^2 - d1 with d1, d2 in [0, 2).
    for k in (1, 2, r // 2, r - 1, lam1, lam2, X2, 0x1234567890ABCDEF):
        c1 = (k * g1_floor) >> 384
        c2 = (k * g2_floor) >> 384
        k1 = k - c1 * (X2 - 1) - c2
        k2 = c1 - c2 * X2
        assert (k1 + k2 * lam1) % r == k % r, "decomposition is congruent"
        assert 0 <= k1 < 2 * X2 and -2 < k2 < 2 * X2, "sub-scalar bounds"

    L = (X**12 - 1) // r
    c = 12 * pow(p, 11, r) % r
    d = 3 * L * pow(c, r - 2, r) % r
    print(fmt("pub const ATE_TATE_EXP: [u64; 4]", d, 4))

    # The final-exponentiation hard part addition chain (see
    # `final_exponentiation` in pairing.rs), modeled on exponents:
    # square -> *2, conjugate -> negate, mul -> add, exp_by_x -> *x
    # (x = -X), frobenius^k -> *p^k. Must compute 3*(p^4-p^2+1)/r.
    xx = -X
    m = 1
    t1 = -2 * m
    t3 = xx * m
    t4 = 2 * t3
    t5 = t1 + t3
    t1 = xx * t5
    t0 = xx * t1
    t6 = xx * t0 + t4
    t4 = xx * t6
    t4 += -t5 + m
    t1 = (t1 + m) * p**3
    t6 = (t6 - m) * p
    t3 = (t3 + t0) * p**2 + t1 + t6
    chain = t3 + t4
    phi = p**4 - p**2 + 1
    assert chain % phi == 3 * (phi // r) % phi, "chain must equal 3x hard part"

    # Cross-checks against facts the Rust test suite also relies on.
    assert p % r == (-X) % r, "T = t - 1 = x must be congruent to p mod r"
    assert pow(X, 12, r) == pow(p, 12, r) % r
    g1 = f2_pow(xi, (p - 1) // 6)
    assert f2_pow(g1, 6) == f2_pow(xi, p - 1)


if __name__ == "__main__":
    main()
