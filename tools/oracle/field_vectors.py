#!/usr/bin/env python3
"""Writes the field-layer test vectors `crates/pairing/tests/data/field_vectors.txt`.

An outside oracle for `Fp`, `Fr` and `Fp2 = Fp[u]/(u^2 + 1)`: plain Python
integers and `pow`, nothing ported from `crates/pairing`. The only facts
taken from the crate's layout are the two published BLS12-381 primes and
the Montgomery radix `R = 2^(64*limbs)`, which makes some edge inputs land
on edge limb patterns inside the kernel.

Each line is `<field> <op> <inputs...> <outputs...>`, every value a
canonical big-endian hex integer of the field's width (96 hex digits for
`fp`/`fp2` coefficients, 64 for `fr`); `none` marks a missing inverse or
square root. An `fp2` value is two fields, `c0 c1` (for `c0 + c1*u`).
`from_bytes_wide` takes a double-width big-endian byte string and reduces
it. Square roots are either sign of a root: the test accepts both.

Run: ``python3 tools/oracle/field_vectors.py`` (deterministic; CI re-runs
it and fails if the committed file differs).
"""

import os
import random

P = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
R_ORDER = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001

OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "..", "crates", "pairing", "tests", "data", "field_vectors.txt",
)


class Field:
    def __init__(self, name, modulus, limbs):
        self.name = name
        self.p = modulus
        self.limbs = limbs
        self.r = pow(2, 64 * limbs, modulus)

    def hex(self, x):
        return format(x, "0%dx" % (16 * self.limbs))

    def from_limbs(self, e):
        """The value whose Montgomery representation `x*R mod p` is `e`."""
        return e * pow(self.r, -1, self.p) % self.p

    def low_ones(self):
        """Every limb but the top one all ones."""
        return 2 ** (64 * (self.limbs - 1)) - 1

    def high_low_ones(self):
        """`low_ones` under the modulus's top limb minus one."""
        shift = 64 * (self.limbs - 1)
        return (((self.p >> shift) - 1) << shift) | self.low_ones()

    def edges(self):
        """Canonical edge values, then values whose Montgomery limbs are edges."""
        p = self.p
        canonical = [0, 1, 2, p - 1, p - 2, self.r, self.low_ones()]
        limbs = [1, p - 1, p - 2, self.low_ones(), self.high_low_ones()]
        return canonical + [self.from_limbs(e) for e in limbs]

    def sqrt(self, a):
        # Only called for the base field, where p = 3 mod 4.
        assert self.p % 4 == 3
        root = pow(a, (self.p + 1) // 4, self.p)
        return root if root * root % self.p == a else None


FP = Field("fp", P, 6)
FR = Field("fr", R_ORDER, 4)


def uniform(rng, field):
    bits = field.p.bit_length()
    while True:
        x = rng.getrandbits(bits)
        if x < field.p:
            return x


# Fp2 arithmetic on pairs (c0, c1), u^2 = -1.
def fp2_mul(a, b):
    return ((a[0] * b[0] - a[1] * b[1]) % P, (a[0] * b[1] + a[1] * b[0]) % P)


def fp2_pow(a, e):
    out = (1, 0)
    while e:
        if e & 1:
            out = fp2_mul(out, a)
        a = fp2_mul(a, a)
        e >>= 1
    return out


def fp2_sqrt(a):
    """Adj and Rodriguez-Henriquez, Alg. 9, for p = 3 mod 4: the root, or None."""
    if a == (0, 0):
        return a
    a1 = fp2_pow(a, (P - 3) // 4)
    x0 = fp2_mul(a1, a)
    alpha = fp2_mul(a1, x0)
    if alpha == (P - 1, 0):
        x = (-x0[1] % P, x0[0])  # u * x0
    else:
        x = fp2_mul(fp2_pow(((alpha[0] + 1) % P, alpha[1]), (P - 1) // 2), x0)
    return x if fp2_mul(x, x) == a else None


def main():
    rng = random.Random(0x5EED)
    lines = [
        "# Generated by tools/oracle/field_vectors.py; do not edit.",
        "# <field> <op> <inputs...> <outputs...>, canonical big-endian hex; see the script.",
    ]

    def emit(*words):
        lines.append(" ".join(words))

    def opt(field, x):
        return "none" if x is None else field.hex(x)

    for f in (FP, FR):
        edges = f.edges()
        h = f.hex
        for a in edges:
            for b in edges:
                emit(f.name, "mul", h(a), h(b), h(a * b % f.p))
        for _ in range(32):
            a, b = uniform(rng, f), uniform(rng, f)
            emit(f.name, "mul", h(a), h(b), h(a * b % f.p))
        squares = edges + [uniform(rng, f) for _ in range(16)]
        for a in squares:
            emit(f.name, "square", h(a), h(a * a % f.p))
        for a in squares:
            emit(f.name, "invert", h(a), opt(f, pow(a, -1, f.p) if a else None))
        if f is FP:
            randoms = [uniform(rng, f) for _ in range(16)]
            for a in edges + randoms + [x * x % f.p for x in randoms]:
                emit(f.name, "sqrt", h(a), opt(f, f.sqrt(a)))
        width = 16 * f.limbs
        wide = [0, 1, f.p, f.p * f.p, f.r * f.r, 2 ** (8 * width) - 1, 2 ** (4 * width) - 1]
        wide += [rng.getrandbits(8 * width) for _ in range(8)]
        for v in wide:
            emit(f.name, "from_bytes_wide", format(v, "0%dx" % (2 * width)), h(v % f.p))

    h = FP.hex
    m, n = FP.from_limbs(P - 1), FP.from_limbs(FP.high_low_ones())
    fp2_edges = [(0, 0), (1, 0), (0, 1), (P - 1, 0), (0, P - 1), (P - 1, P - 1), (m, n), (n, m)]
    fp2_randoms = [(uniform(rng, FP), uniform(rng, FP)) for _ in range(24)]
    for a in fp2_edges:
        for b in fp2_edges:
            emit("fp2", "mul", h(a[0]), h(a[1]), h(b[0]), h(b[1]), *map(h, fp2_mul(a, b)))
    for a, b in zip(fp2_randoms[::2], fp2_randoms[1::2]):
        emit("fp2", "mul", h(a[0]), h(a[1]), h(b[0]), h(b[1]), *map(h, fp2_mul(a, b)))
    for a in fp2_edges + fp2_randoms:
        emit("fp2", "square", h(a[0]), h(a[1]), *map(h, fp2_mul(a, a)))
    for a in fp2_edges + fp2_randoms + [fp2_mul(x, x) for x in fp2_randoms[:8]]:
        root = fp2_sqrt(a)
        emit("fp2", "sqrt", h(a[0]), h(a[1]), *(("none",) if root is None else map(h, root)))

    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as out:
        out.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
