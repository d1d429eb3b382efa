#!/usr/bin/env python3
"""Fail when a public item under ``crates/*/src`` has no non-test caller.

An item is a ``pub fn``, ``struct``, ``enum``, ``trait``, ``type``,
``const`` or ``static`` (``pub(crate)`` and narrower are not public;
modules and fields are not checked). It has a caller when its name occurs
as a whole word in non-test code other than a definition of that name.

Non-test code is ``crates/*/src``, ``src/``, ``examples/`` and
``benchmark/src``, with ``#[cfg(test)]`` items and modules, comments
(doc comments included), string literals, ``use`` declarations and
``impl`` header lines cut out. ``tests/`` and ``benches/`` directories
are never read. A re-export or a trait implementation is therefore not
a caller, and a name that only a test uses has none.

The check is by name, not by path: a name that two items share counts
as used when either is. It errs toward "used", never toward a false
failure.

Every caller-less item must be on ``ALLOWED`` below with a one-line
reason; the script exits 1 on any other, and on an allowlist entry
that has gained a caller or no longer exists (so the list cannot go
stale).

Usage: python3 tools/public_surface.py [repo-root]
"""

import re
import sys
from pathlib import Path

# Public items kept without a non-test caller, each with the reason.
ALLOWED = {
    # Kept for a named later caller.
    "share_consistent": "ProactiveDeployment's crash check; the daemon's restart path (ROADMAP item 4) calls it",
    "MESSAGE": "crates/bench's criterion fixture; goes with the criterion targets (ROADMAP item 9)",
    "ro_setup": "crates/bench's criterion fixture; goes with the criterion targets (ROADMAP item 9)",
    "to_uncompressed": "uncompressed point codec, priced against decompression by ROADMAP item 3(d)",
    "from_uncompressed": "uncompressed point codec, priced against decompression by ROADMAP item 3(d)",
    # Test oracles: behind the `reference` feature, which only dev-dependencies enable.
    "ATE_TATE_EXP": "reference Tate pairing: the ate/Tate relation the pairing_engine suite checks",
    "pairing_tate_g2": "reference Tate pairing with G2 on the left, an oracle of the pairing_engine suite",
    "is_torsion_free": "reference subgroup check by multiplication by r, the oracle for the ψ-based test",
    # Groth-Sahai soundness: the binding CRS is what the soundness tests extract under.
    "binding": "Groth-Sahai binding CRS; the soundness tests extract witnesses under it",
    "extract": "Groth-Sahai witness extraction under the binding CRS (soundness tests)",
    "hiding": "Groth-Sahai hiding CRS from explicit bases; the proof tests build both CRS modes",
    # Baseline and size constants the comparison tests and benches read.
    "bls_verify": "plain-BLS verify, the sign_verify bench's single-signer baseline",
    "BLS12_381_SIGNATURE_BITS": "E1 size row; rsa_sizes' ratio test checks it against the paper",
    "BLS12_381_STD_SIGNATURE_BITS": "E1 size row; rsa_sizes' ratio test checks it against the paper",
    # Test support: accessors, constructors and alternative entry points the
    # test suites drive the production code through.
    "as_fp12": "Gt's field element, for the pairing_engine suite's field-level checks",
    "inverse": "Gt inverse, checked by the pairing_engine suite",
    "pow": "Gt exponentiation, checked against square-and-multiply by the pairing_engine suite",
    "product": "field product fold; the property tests use it",
    "from_fp2": "tower embedding the Fp6/Fp12 unit tests build elements with",
    "from_fp6": "tower embedding the Fp12 unit tests build elements with",
    "glv_lambda": "the G1 GLV eigenvalue; scalar_mul_properties recomposes decompositions with it",
    "gls_eigenvalue": "the G2 GLS eigenvalue; scalar_mul_properties recomposes decompositions with it",
    "g2_generator_prepared": "shared prepared G2 generator; pairing_engine checks it against a fresh one",
    "multi_miller_loop_mixed": "Miller loop over mixed prepared/unprepared pairs; parallel_invariance pins it",
    "hash_to_fr": "hash to scalar; the known-answer and property suites pin its output",
    "from_coefficients": "explicit polynomial constructor the batch property tests build dealings with",
    "interpolate_in_exponent": "plain Lagrange in the exponent, the oracle for the cached combine path",
    "reconstruct": "plain Shamir reconstruction, the oracle the sharing property tests use",
    "cached_sets": "Lagrange cache size, read by the batch property tests to check reuse",
    "feldman_batch_verify": "Feldman analogue of the batched share check, kept with its unit tests",
    "feldman_check_verdicts": "Feldman analogue of pedersen_check_verdicts, kept with its property tests",
    "combine_verified": "combine that share-verifies every partial; the adversarial tests and benches use it",
    "verification_key": "a DKG output's per-player key, read by the DKG tests and wire KATs",
    "sign_centralized": "§4 signing with the joint key, the 1-of-1 reference in the standard-model tests",
    "expected_vk": "§4 verification key recomputed from a share, checked by the standard-model tests",
}

ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|async|unsafe|extern\s+\"C\")\s+)*"
    r"(fn|struct|enum|trait|type|const|static)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
DEFINITION = r"\b(?:fn|struct|enum|trait|type|const|static|mod|union)\s+{}\b"
CALLER_ROOTS = ["crates/*/src", "src", "examples", "benchmark/src"]


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string and char literals, keeping line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    out.append("\n" if text[i] == "\n" else "")
                    i += 1
        elif c == "r" and re.match(r'r#*"', text[i:i + 8]) and not _ident_before(text, i):
            hashes = re.match(r"r(#*)\"", text[i:]).group(1)
            end = text.find('"' + hashes, i + 2 + len(hashes))
            end = n if end < 0 else end + 1 + len(hashes)
            out.append('""' + "\n" * text.count("\n", i, end))
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('""' + "\n" * text.count("\n", i, j))
            i = j + 1
        elif c == "'" and re.match(r"'(\\.|[^\\'])'", text[i:i + 4]):
            m = re.match(r"'(\\.|[^\\'])'", text[i:])
            out.append("' '")
            i += len(m.group(0))
        elif c == "'" and re.match(r"'\\[ux]", text[i:i + 3]):
            j = text.find("'", i + 1)
            out.append("' '")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _ident_before(text: str, i: int) -> bool:
    return i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")


def item_end(lines, start):
    """Index past the item starting at ``lines[start]``: the line of its
    closing brace, or of its terminating ``;`` when it has no body."""
    depth = 0
    opened = False
    for k in range(start, len(lines)):
        for ch in lines[k]:
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
            elif ch == ";" and not opened and depth == 0:
                return k + 1
        if opened and depth == 0:
            return k + 1
    return len(lines)


def non_test_lines(path: Path):
    """The file's lines with comments/strings blanked and every
    ``#[cfg(test)]`` item (attribute through its end) removed."""
    lines = strip_comments_and_strings(path.read_text()).split("\n")
    keep = [True] * len(lines)
    k = 0
    while k < len(lines):
        if re.match(r"\s*#\[cfg\(test\)\]", lines[k]):
            j = k + 1
            while j < len(lines) and re.match(r"\s*(#\[|$)", lines[j]):
                j += 1
            end = item_end(lines, j)
            for m in range(k, end):
                keep[m] = False
            k = end
        else:
            k += 1
    return [(i + 1, line if keep[i] else "") for i, line in enumerate(lines)]


def drop_use_and_impl_lines(lines):
    out = []
    in_use = False
    for no, line in lines:
        if not in_use and re.match(r"\s*(pub(\([^)]*\))?\s+)?use\b", line):
            in_use = True
        out.append((no, "" if in_use or re.match(r"\s*impl\b", line) else line))
        if in_use and ";" in line:
            in_use = False
    return out


def rust_files(root: Path, pattern: str):
    for base in sorted(root.glob(pattern)):
        for path in sorted(base.rglob("*.rs")):
            rel = path.relative_to(root).parts
            if "tests" in rel or "benches" in rel or "target" in rel:
                continue
            yield path


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent

    items = []  # (name, "path:line")
    callers = []  # code lines that may name an item
    for pattern in CALLER_ROOTS:
        for path in rust_files(root, pattern):
            lines = non_test_lines(path)
            rel = path.relative_to(root)
            if rel.parts[0] == "crates":
                for no, line in lines:
                    m = ITEM.match(line)
                    if m:
                        items.append((m.group(2), f"{rel}:{no}"))
            callers.extend(line for _, line in drop_use_and_impl_lines(lines) if line.strip())

    corpus = "\n".join(callers)
    unused = {}
    for name, where in items:
        uses = re.findall(r"\b{}\b".format(re.escape(name)), corpus)
        defs = re.findall(DEFINITION.format(re.escape(name)), corpus)
        if len(uses) <= len(defs):
            unused.setdefault(name, []).append(where)

    errors = []
    for name in sorted(unused):
        if name not in ALLOWED:
            errors.append(f"{name} ({', '.join(unused[name])}) has no non-test caller")
    defined = {name for name, _ in items}
    for name in sorted(ALLOWED):
        if name not in defined:
            errors.append(f"allowlisted {name} is no longer a public item")
        elif name not in unused:
            errors.append(f"allowlisted {name} now has a caller: take it off the list")

    print(f"public_surface: {len(items)} public items, {len(unused)} without a non-test caller "
          f"({len(ALLOWED)} allowlisted)")
    for e in errors:
        print(f"public_surface: ERROR: {e}", file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
