//! The field layer against an outside oracle: every line of
//! `data/field_vectors.txt`, written by `tools/oracle/field_vectors.py`
//! from plain big-integer arithmetic (see that script for the format).

use borndist_pairing::{Fp, Fp2, Fr};
use std::collections::BTreeMap;

const VECTORS: &str = include_str!("data/field_vectors.txt");

fn bytes<const N: usize>(hex: &str) -> [u8; N] {
    assert_eq!(hex.len(), 2 * N, "width of {}", hex);
    let mut out = [0u8; N];
    for (i, byte) in out.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex digit");
    }
    out
}

fn fp(hex: &str) -> Fp {
    Fp::from_bytes(&bytes(hex)).expect("canonical Fp")
}

fn fr(hex: &str) -> Fr {
    Fr::from_bytes(&bytes(hex)).expect("canonical Fr")
}

fn fp2(c0: &str, c1: &str) -> Fp2 {
    Fp2::new(fp(c0), fp(c1))
}

/// `got` is a root the oracle agrees with: both `None`, or equal up to sign.
fn same_root<T: PartialEq + core::ops::Neg<Output = T> + Copy + core::fmt::Debug>(
    got: Option<T>,
    want: Option<T>,
) -> bool {
    match (got, want) {
        (Some(g), Some(w)) => g == w || g == -w,
        (None, None) => true,
        _ => false,
    }
}

#[test]
fn every_field_vector_holds() {
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for (number, line) in VECTORS.lines().enumerate() {
        if line.starts_with('#') {
            continue;
        }
        let w: Vec<&str> = line.split(' ').collect();
        let at = format!("line {}: {}", number + 1, line);
        let ok = match (w[0], w[1], &w[2..]) {
            ("fp", "mul", [a, b, c]) => fp(a) * fp(b) == fp(c),
            ("fp", "square", [a, c]) => fp(a).square() == fp(c),
            ("fp", "invert", [a, c]) => fp(a).invert() == (*c != "none").then(|| fp(c)),
            ("fp", "sqrt", [a, c]) => {
                let root = fp(a).sqrt();
                root.is_none_or(|r| r.square() == fp(a))
                    && same_root(root, (*c != "none").then(|| fp(c)))
            }
            ("fp", "from_bytes_wide", [v, c]) => Fp::from_bytes_wide(&bytes(v)) == fp(c),
            ("fr", "mul", [a, b, c]) => fr(a) * fr(b) == fr(c),
            ("fr", "square", [a, c]) => fr(a).square() == fr(c),
            ("fr", "invert", [a, c]) => fr(a).invert() == (*c != "none").then(|| fr(c)),
            ("fr", "from_bytes_wide", [v, c]) => Fr::from_bytes_wide(&bytes(v)) == fr(c),
            ("fp2", "mul", [a0, a1, b0, b1, c0, c1]) => fp2(a0, a1) * fp2(b0, b1) == fp2(c0, c1),
            ("fp2", "square", [a0, a1, c0, c1]) => fp2(a0, a1).square() == fp2(c0, c1),
            ("fp2", "sqrt", [a0, a1, rest @ ..]) => {
                let a = fp2(a0, a1);
                let want = match rest {
                    ["none"] => None,
                    [c0, c1] => Some(fp2(c0, c1)),
                    _ => panic!("malformed {}", at),
                };
                let root = a.sqrt();
                root.is_none_or(|r| r.square() == a) && same_root(root, want)
            }
            _ => panic!("unknown vector {}", at),
        };
        assert!(ok, "{}", at);
        *counts.entry((w[0], w[1])).or_default() += 1;
    }
    for kind in [
        ("fp", "mul"),
        ("fp", "square"),
        ("fp", "invert"),
        ("fp", "sqrt"),
        ("fp", "from_bytes_wide"),
        ("fr", "mul"),
        ("fr", "square"),
        ("fr", "invert"),
        ("fr", "from_bytes_wide"),
        ("fp2", "mul"),
        ("fp2", "square"),
        ("fp2", "sqrt"),
    ] {
        assert!(counts.contains_key(&kind), "no {:?} vectors", kind);
    }
}
