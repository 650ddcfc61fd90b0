"""Matrix identities of the catalog family on the triple tensor product.

The family satisfies the braid relation only up to a defect:

    B(K) = Rhat12 Rhat23 Rhat12 - Rhat23 Rhat12 Rhat23
         = lam(K) (Rhat12 - Rhat23),      lam = (K/K1 - 1)(K/K2 - 1)

so every entry of B(K) is divisible by (K - K1)(K - K2) and the defect
vanishes at K = K1 and K = K2.  Its only other zero is K = 0: Rhat is
affine in K with Rhat(0) = I, so Rhat12 - Rhat23 is K times a nonzero
K-free matrix.

For the shifted family S = Rhat - mu I the Hecke identity turns the defect
coefficient into mu^2 - X mu + lam = (mu - 1 + K/K1)(mu - 1 + K/K2), since
X^2 - 4 lam = (K/K1 - K/K2)^2.  Both roots mu = 1 - K/Ki are rational, and
S(1 - K/Ki) = (K/Ki) Rhat(Ki) satisfies the genuine braid relation
(Jones' baxterization).  mbe_r_form carries the defect equation over to
R = P.Rhat using permutation operators.
"""

from __future__ import annotations

from .catalog import braid_couplings, build_r, build_rhat, deformation, hecke_X
from .pmatrix import ParamMatrix, embed12, embed23, perm_operator
from .scalars import RatFunc, poly_divmod_in, sym


class DegenerateValues(ArithmeticError):
    """Affine decomposition requested where K1 = K2."""


def mbe_factor(d) -> RatFunc:
    """The braid-defect scalar lam(K) = (K/K1 - 1)(K/K2 - 1)."""
    spec = deformation(d)
    k = sym("K")
    return (k / spec.K1 - 1) * (k / spec.K2 - 1)


def _braid_defect(m: ParamMatrix) -> ParamMatrix:
    """m12 m23 m12 - m23 m12 m23 for a 4x4 matrix m, an 8x8 matrix."""
    m12 = embed12(m)
    m23 = embed23(m)
    return m12 @ m23 @ m12 - m23 @ m12 @ m23


def braid_residual(d, k=None) -> ParamMatrix:
    """B(K) on the triple tensor product, an 8x8 matrix."""
    return _braid_defect(build_rhat(d, k))


def mbe_residual(d) -> ParamMatrix:
    """B(K) - lam(K) (Rhat12 - Rhat23); identically zero for the catalog."""
    rhat = build_rhat(d)
    lam = mbe_factor(d)
    return _braid_defect(rhat) - (embed12(rhat) - embed23(rhat)).scale(lam)


def mbe_r_form(d) -> ParamMatrix:
    """The same defect equation for R = P.Rhat:

        R12 R13 R23 - R23 R13 R12 = lam (P(132) R23 - P(123) R12)

    with R13 the conjugate of R12 by the (2 3) factor swap and the cycles in
    one-line notation (123) = (2,3,1), (132) = (3,1,2).  Returns lhs - rhs.
    """
    r = build_r(d)
    r12 = embed12(r)
    r23 = embed23(r)
    p23 = perm_operator((1, 3, 2))
    r13 = p23 @ r12 @ p23
    lam = mbe_factor(d)
    lhs = r12 @ r13 @ r23 - r23 @ r13 @ r12
    rhs = (perm_operator((3, 1, 2)) @ r23 - perm_operator((2, 3, 1)) @ r12).scale(lam)
    return lhs - rhs


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


def affine_decomposition(d):
    """Coefficients (c1, c2), c1 + c2 = 1, with
    Rhat(K) = c1 Rhat(K1) + c2 Rhat(K2).  Degenerate when K1 = K2."""
    spec = deformation(d)
    k = sym("K")
    if (spec.K2 - spec.K1).is_zero():
        raise DegenerateValues(f"{spec.id}: K1 = K2 = {spec.K1}")
    c1 = (spec.K2 - k) / (spec.K2 - spec.K1)
    c2 = (k - spec.K1) / (spec.K2 - spec.K1)
    return c1, c2


def baxterization_check(d, k=None) -> bool:
    """Rhat(K) = (K/Ki) Rhat(Ki) - (K/Ki - 1) I at each distinct degeneracy
    point."""
    spec = deformation(d)
    k = sym("K") if k is None else k
    rhat = build_rhat(spec, k)
    ident = ParamMatrix.identity(4)
    for ki in braid_couplings(spec):
        built = build_rhat(spec, ki).scale(k / ki) - ident.scale(k / ki - 1)
        if rhat != built:
            return False
    return True
