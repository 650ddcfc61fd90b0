"""Reference braid-defect checks for differential tests of mbraid.identities.

These are the checks that mbraid.identities ran before it computed the
defect from K-free coefficients: ``_braid_defect``, ``braid_residual``,
``mbe_residual``, ``braid_divisibility`` and ``s_shift_check`` are kept
verbatim.  Each multiplies the full 8x8 matrices whose entries carry K (and
mu for the shifted family), so nothing is split by powers of K.

``defect_at`` keeps the dense loop that built the defect matrix before the
library wrote it from coordinates (``identities._defect_matrix``): it
rebuilds all 64 entries for every coefficient matrix of E1, E2 and E3.
"""

from __future__ import annotations

from mbraid.catalog import braid_couplings, build_rhat, deformation, hecke_X
from mbraid.identities import mbe_factor
from mbraid.pmatrix import ParamMatrix, embed12, embed23
from mbraid.scalars import ONE, ZERO, sym
from ref_scalars import poly_divmod_in


def _braid_defect(m: ParamMatrix) -> ParamMatrix:
    """m12 m23 m12 - m23 m12 m23 for a 4x4 matrix m, an 8x8 matrix."""
    m12 = embed12(m)
    m23 = embed23(m)
    return m12 @ m23 @ m12 - m23 @ m12 @ m23


def defect_at(coeffs: tuple, a, k, lam) -> ParamMatrix:
    """a^2 E1 + a E2 + E3 - lam E1 at K = k: the braid defect of a I + N(k)
    less lam (Rhat12 - Rhat23), an 8x8 matrix."""
    e1, e2, e3 = coeffs
    data = [ZERO] * 64
    for weight, part in ((a * a - lam, e1), (a, e2), (ONE, e3)):
        for power, m in part.items():
            w = weight * k ** power
            data = [x + w * y for x, y in zip(data, m.data)]
    return ParamMatrix(8, 8, data)


def braid_residual(d, k=None) -> ParamMatrix:
    """B(K) on the triple tensor product, an 8x8 matrix."""
    return _braid_defect(build_rhat(d, k))


def mbe_residual(d) -> ParamMatrix:
    """B(K) - lam(K) (Rhat12 - Rhat23); identically zero for the catalog."""
    rhat = build_rhat(d)
    lam = mbe_factor(d)
    return _braid_defect(rhat) - (embed12(rhat) - embed23(rhat)).scale(lam)


def braid_divisibility(d) -> bool:
    """Every entry of symbolic B(K) is divisible by the numerator of lam(K),
    which is (K - K1)(K - K2) up to a K-free factor."""
    spec = deformation(d)
    divisor = mbe_factor(spec).num
    for e in braid_residual(spec).data:
        if e.is_zero():
            continue
        if "K" in e.den.symbols():
            return False
        _, rem = poly_divmod_in(e.num, divisor, "K")
        if rem:
            return False
    return True


def s_shift_check(d) -> bool:
    """Shifted family S = Rhat - mu I.  With mu a free symbol,
        S12 S23 S12 - S23 S12 S23 = (mu^2 - X mu + lam)(S12 - S23),
    which follows from the defect equation plus Hecke.  The coefficient is
    (mu - 1 + K/K1)(mu - 1 + K/K2) exactly, and at its two rational roots
    mu = 1 - K/K1 and mu = 1 - K/K2 the genuine braid relation holds; a
    double root (K1 = K2) is checked once.
    """
    spec = deformation(d)
    ident = ParamMatrix.identity(4)
    rhat = build_rhat(spec)
    mu = sym("u")  # u is unused by every catalog family, so it is free here
    coeff = mu * mu - hecke_X(spec) * mu + mbe_factor(spec)
    s = rhat - ident.scale(mu)
    shifted = _braid_defect(s) - (embed12(s) - embed23(s)).scale(coeff)
    k = sym("K")
    factored = (mu - 1 + k / spec.K1) * (mu - 1 + k / spec.K2)
    return (shifted.is_zero() and coeff == factored
            and all(_braid_defect(rhat - ident.scale(1 - k / ki)).is_zero()
                    for ki in braid_couplings(spec)))
