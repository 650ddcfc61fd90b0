"""Reference scan for differential tests of mbraid.cli.run_scan.

This is the scan that mbraid.cli ran before it bound the parameters into
Rhat and walked the grid in integers: ``run_scan``, ``_k_coeffs`` and
``_horner`` are kept verbatim.  The bindings go into every entry of the
symbolic 8x8 braid_residual, and each grid point and each value of F(K) is
a Fraction.  That braid_residual is the triple product kept in
ref_identities.py, so the oracle shares no defect code with the scan.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mbraid.catalog import deformation
from mbraid.cli import MAX_SCAN_STEPS
from mbraid.scalars import (SYMBOLS, ZERO, Poly, UnknownSymbolError,
                            substitute)
from ref_identities import braid_residual


def run_scan(d, bindings, kmin, kmax, steps: int, out: str) -> list:
    """Frobenius norm of the braid defect on an even grid of couplings.

    The bindings go into the symbolic braid_residual, and its squared entries
    are summed once into F(K), an exact polynomial in K.  The grid and F at
    each grid point stay exact rationals; the square root and the CSV text
    are the only floating-point steps.
    """
    if not 2 <= steps <= MAX_SCAN_STEPS:
        raise ValueError(f"steps must be between 2 and {MAX_SCAN_STEPS}")
    spec = deformation(d)
    bound = [substitute(e, dict(bindings)) for e in braid_residual(spec).data]
    f = sum((e * e for e in bound), ZERO)
    free = [name for name in SYMBOLS if name != "K" and name in f.symbols()]
    if free:
        raise UnknownSymbolError(f"no value bound for {free[0]!r}")
    num, den = _k_coeffs(f.num), _k_coeffs(f.den)
    kmin, kmax = Fraction(kmin), Fraction(kmax)
    rows = []
    for i in range(steps):
        kval = kmin + (kmax - kmin) * i / (steps - 1)
        rows.append((kval, math.sqrt(_horner(num, kval) / _horner(den, kval))))
    lines = [f"{float(kval):.17g},{fro:.17g}\n" for kval, fro in rows]
    with open(out, "w") as fh:
        fh.write("K,residual_fro\n")
        fh.writelines(lines)
    return rows


def _k_coeffs(p: Poly) -> list:
    """Coefficients of a polynomial in K alone, highest power first."""
    coeffs = [0] * (p.degree() + 1)
    for mono, c in p.terms.items():
        coeffs[-1 - mono[SYMBOLS.index("K")]] = c
    return coeffs


def _horner(coeffs: list, k: Fraction) -> Fraction:
    """The polynomial at k = a/b, by Horner in integers on b^n p(a/b)."""
    a, b = k.numerator, k.denominator
    out, bpow = 0, 1
    for c in coeffs:
        out = out * a + c * bpow
        bpow *= b
    return Fraction(out * b, bpow)

