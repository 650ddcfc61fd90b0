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

How the defect is computed.  With N = Rhat - I and any scalar a,

    defect(a I + N) = a^2 E1 + a E2 + E3,
    E1 = N12 - N23,  E2 = (N^2)12 - (N^2)23,  E3 = N12 N23 N12 - N23 N12 N23,

because a I commutes with everything.  _split_defect splits N by
powers of K into K-free 4x4 matrices and forms E1, E2 and E3 as
polynomials in K with K-free 8x8 coefficients, never multiplying a zero
coefficient.  For the catalog N = K A, so the K-dependence costs one 4x4
A @ A and A12 A23 A12 - A23 A12 A23 over K-free entries, both triple
products sharing the one product A12 A23.

Every consumer reads the defect through coordinates.  _basis_of reduces
the K-free coefficient matrices of E1, E2 and E3 to an independent basis of
their span and stores each matrix's coordinates in it; _defect_basis is
_basis_of of the family's symbolic Rhat.  For every catalog family the span
has dimension one: the coefficients of E2 and E3 are sigma and tau times
that of E1, where lam = 1 + sigma K + tau K^2, so sigma = -(1/K1 + 1/K2)
and tau = 1/(K1 K2).  _defect_coords is the one evaluator: it gives the
coordinates of a^2 E1 + a E2 + E3 - lam E1 at a coupling, one scalar per
basis vector.  _defect_vanishes asks whether each is zero, for the MBE
(a = 1 less lam E1), the braid values at K1 and K2 (a = 1), and the shifted
family (a = 1 - mu, and a = K/Ki at each root).  Divisibility needs no
matrix either: B(K) = E1 + E2 + E3 is the sum of beta_b(K) times basis
vector b, beta_b its coordinates at a = 1, and _lam_divides long-divides
the numerator of each by lam's.  _defect_matrix writes the sum of each
coordinate times its basis vector as an 8x8 matrix, for braid_residual,
mbe_residual and cli.run_scan, which takes _basis_of its parameter-bound
Rhat; it skips zero operands and stores each entry's first write directly.
Nothing assumes Rhat(0) = I or that Rhat is affine, so a constant or
higher-power term in K is split like any other, and its matrix joins the
basis when it leaves the span.  The one refusal is an entry with K in its
denominator, which raises ValueError.  Inside a verify pass
(catalog.verify_pass, opened by cli.run_verify) mbe_factor and
_defect_basis run once per family and the mbe, braid-values and s-shift
checks share the result; outside one, every call computes afresh.

mbe_r_form forms both full symbolic triple products of R = P.Rhat; only its
products with permutation operators (R13 and the two cycles) move entries
(pmatrix.perm_conjugate and pmatrix.perm_apply).  It restates the MBE rather
than checking it independently: for any 4x4 Rhat and scalar lam the R-form
defect is -P13 times the Rhat-form defect, P13 = perm_operator((3, 2, 1)),
so one vanishes exactly when the other does.  No command calls it; verify's
identities:mbe-r-form line reads the mbe verdict (checks._mbe).
"""

from __future__ import annotations

from .catalog import (_coupling, braid_couplings, build_r, build_rhat,
                      deformation, hecke_X, per_pass)
from .pmatrix import ParamMatrix, embed12, embed23, perm_apply, perm_conjugate
from .scalars import ONE, ZERO, RatFunc, sym


class DegenerateValues(ArithmeticError):
    """Affine decomposition requested where K1 = K2."""


@per_pass
def mbe_factor(d) -> RatFunc:
    """The braid-defect scalar lam(K) = (K/K1 - 1)(K/K2 - 1)."""
    spec = deformation(d)
    k = sym("K")
    return (k / spec.K1 - 1) * (k / spec.K2 - 1)


def _mat_poly_mul(f: dict, g: dict) -> dict:
    """Product of two {power of K: matrix} polynomials."""
    out: dict = {}
    for e, x in f.items():
        for h, y in g.items():
            z = x @ y
            out[e + h] = out[e + h] + z if e + h in out else z
    return out


def _mat_poly_sub(f: dict, g: dict) -> dict:
    """f - g for two polynomials with the same powers of K."""
    return {e: x - g[e] for e, x in f.items()}


def _split_defect(rhat: ParamMatrix, name: str) -> tuple:
    """(E1, E2, E3), each {power of K: K-free 8x8 matrix}, with
    defect(a I + N) = a^2 E1 + a E2 + E3 for N = rhat - I.  An entry with K
    in its denominator raises ValueError, naming the family as name."""
    parts: dict = {}
    for idx, e in enumerate((rhat - ParamMatrix.identity(4)).data):
        if "K" in e.den.symbols():
            raise ValueError(f"{name}: Rhat[{idx // 4}, {idx % 4}] = {e} has K in its "
                             "denominator; the braid defect is split only for Rhat "
                             "polynomial in K")
        for power, c in e.num.coeffs_in("K").items():
            parts.setdefault(power, [ZERO] * 16)[idx] = RatFunc(c, e.den)
    n = {power: ParamMatrix(4, 4, data) for power, data in sorted(parts.items())}
    n12 = {power: embed12(m) for power, m in n.items()}
    n23 = {power: embed23(m) for power, m in n.items()}
    nn = _mat_poly_mul(n, n)
    n12n23 = _mat_poly_mul(n12, n23)
    return (_mat_poly_sub(n12, n23),
            _mat_poly_sub({power: embed12(m) for power, m in nn.items()},
                          {power: embed23(m) for power, m in nn.items()}),
            _mat_poly_sub(_mat_poly_mul(n12n23, n12), _mat_poly_mul(n23, n12n23)))


def _basis_of(rhat: ParamMatrix, name: str) -> tuple:
    """(vectors, coordinates): an independent basis of the span of the K-free
    matrices of _split_defect(rhat, name), each read as a 64-entry vector,
    and (part, power, coordinates) for every such matrix, part 0, 1 and 2
    for E1, E2 and E3.  Each matrix is reduced against the basis so far: a
    vector's pivot is its first nonzero entry, and the coordinate is the
    remainder's pivot entry over the vector's.  A nonzero remainder joins the
    basis with coordinate 1, so every vector is zero at the earlier pivots
    and the basis is independent: a combination of the matrices is zero
    exactly when each of its coordinates is."""
    basis: list = []  # (pivot, vector)
    coords: list = []
    for part, poly in enumerate(_split_defect(rhat, name)):
        for power, m in poly.items():
            rest, coord = list(m.data), []
            for pivot, vec in basis:
                if rest[pivot].is_zero():
                    coord.append(ZERO)
                    continue
                x = rest[pivot] / vec[pivot]
                coord.append(x)
                for i, v in enumerate(vec):
                    if not v.is_zero():
                        y = x * v
                        rest[i] = -y if rest[i].is_zero() else rest[i] - y
            pivot = next((i for i, r in enumerate(rest) if not r.is_zero()), None)
            if pivot is not None:
                basis.append((pivot, tuple(rest)))
                coord.append(ONE)
            coords.append((part, power, coord))
    pad = (ZERO,) * len(basis)
    return (tuple(vec for _, vec in basis),
            tuple((part, power, (*coord, *pad[len(coord):])) for part, power, coord in coords))


@per_pass
def _defect_basis(d) -> tuple:
    """_basis_of the family's symbolic Rhat."""
    spec = deformation(d)
    return _basis_of(build_rhat(spec), spec.id)


def _defect_coords(basis: tuple, a: RatFunc, k: RatFunc, lam: RatFunc) -> list:
    """The coordinates of a^2 E1 + a E2 + E3 - lam E1 at K = k in basis
    (_basis_of): coordinate b is the sum of weight[part] k^power coord[b]."""
    vectors, coords = basis
    weights = (a * a if lam.is_zero() else a * a - lam, a, ONE)
    total = [ZERO] * len(vectors)
    for part, power, coord in coords:
        w = weights[part] * k ** power
        for b, x in enumerate(coord):
            if not x.is_zero():
                total[b] = w * x if total[b].is_zero() else total[b] + w * x
    return total


def _defect_vanishes(basis: tuple, a: RatFunc, k: RatFunc, lam: RatFunc) -> bool:
    """Whether a^2 E1 + a E2 + E3 - lam E1 vanishes at K = k: the basis is
    independent, so exactly when every coordinate does."""
    return all(c.is_zero() for c in _defect_coords(basis, a, k, lam))


def _defect_matrix(basis: tuple, a: RatFunc, k: RatFunc, lam: RatFunc) -> ParamMatrix:
    """a^2 E1 + a E2 + E3 - lam E1 at K = k as an 8x8 matrix: the braid
    defect of a I + N(k) less lam (Rhat12 - Rhat23), the sum of each
    coordinate times its basis vector."""
    vectors, _ = basis
    data = [ZERO] * 64
    for c, vec in zip(_defect_coords(basis, a, k, lam), vectors):
        if c.is_zero():
            continue
        for i, y in enumerate(vec):
            if not y.is_zero():
                data[i] = c * y if data[i].is_zero() else data[i] + c * y
    return ParamMatrix(8, 8, data)


def braid_residual(d, k=None) -> ParamMatrix:
    """B(K) on the triple tensor product, an 8x8 matrix."""
    return _defect_matrix(_defect_basis(d), ONE, _coupling(k), ZERO)


def mbe_residual(d) -> ParamMatrix:
    """B(K) - lam(K) (Rhat12 - Rhat23); identically zero for the catalog."""
    return _defect_matrix(_defect_basis(d), ONE, sym("K"), mbe_factor(d))


def mbe_r_form(d) -> ParamMatrix:
    """The same defect equation for R = P.Rhat:

        R12 R13 R23 - R23 R13 R12 = lam (P(132) R23 - P(123) R12)

    with R13 the conjugate of R12 by the (2 3) factor swap and the cycles in
    one-line notation (123) = (2,3,1), (132) = (3,1,2); both permutations
    move entries rather than multiply.  Returns lhs - rhs, which is
    -P13 (B(K) - lam (Rhat12 - Rhat23)) for P13 = perm_operator((3, 2, 1)),
    mbe_residual moved by an invertible permutation, so it vanishes exactly
    when the MBE holds.  No command calls it: verify's identities:mbe-r-form
    line reads the mbe verdict (checks._mbe).
    """
    r = build_r(d)
    r12 = embed12(r)
    r23 = embed23(r)
    r13 = perm_conjugate((1, 3, 2), r12)
    lam = mbe_factor(d)
    lhs = r12 @ r13 @ r23 - r23 @ r13 @ r12
    rhs = (perm_apply((3, 1, 2), r23) - perm_apply((2, 3, 1), r12)).scale(lam)
    return lhs - rhs


def braid_divisibility(d) -> bool:
    """Every entry of symbolic B(K) is divisible by the numerator of lam(K),
    which is (K - K1)(K - K2) up to a K-free factor."""
    spec = deformation(d)
    return _lam_divides(spec, _defect_basis(spec))


def _lam_divides(spec, basis: tuple) -> bool:
    """Whether the numerator of lam(K) divides B(K) = E1 + E2 + E3.  B(K) is
    the sum over the independent K-free vectors of basis of beta_b(K) times
    vector b, beta_b the coordinates of _defect_coords at a = 1, so lam
    divides B exactly when it divides the numerator of every beta_b, whose
    denominator is free of K: long division of its K-coefficients, zero
    terms dropped, that leaves nothing."""
    divisor = {e: RatFunc(c) for e, c in mbe_factor(spec).num.coeffs_in("K").items()
               if not c.is_zero()}
    top = max(divisor)
    inv_lead = 1 / divisor.pop(top)
    for beta in _defect_coords(basis, ONE, sym("K"), ZERO):
        rem = {e: RatFunc(c) for e, c in beta.num.coeffs_in("K").items() if not c.is_zero()}
        while rem and max(rem) >= top:
            e = max(rem)
            step = rem.pop(e) * inv_lead
            for f, c in divisor.items():
                k = e - top + f
                sub = step * c
                m = rem[k] - sub if k in rem else -sub
                if m.is_zero():
                    rem.pop(k, None)
                else:
                    rem[k] = m
        if rem:
            return False
    return True


def braid_values_check(d) -> bool:
    """B vanishes at each distinct braid coupling, and lam(K) divides B(K) =
    E1 + E2 + E3; the defect basis is computed once for both."""
    spec = deformation(d)
    basis = _defect_basis(spec)
    return (all(_defect_vanishes(basis, ONE, ki, ZERO) for ki in braid_couplings(spec))
            and _lam_divides(spec, basis))


def s_shift_check(d) -> bool:
    """Shifted family S = Rhat - mu I.  With mu a free symbol,
        S12 S23 S12 - S23 S12 S23 = (mu^2 - X mu + lam)(S12 - S23),
    which follows from the defect equation plus Hecke.  The coefficient is
    (mu - 1 + K/K1)(mu - 1 + K/K2) exactly, and at its two rational roots
    mu = 1 - K/K1 and mu = 1 - K/K2 the genuine braid relation holds; a
    double root (K1 = K2) is checked once.  S = (1 - mu) I + N, and at a
    root S = (K/Ki) I + N.
    """
    spec = deformation(d)
    basis = _defect_basis(spec)
    mu = sym("u")  # u is unused by every catalog family, so it is free here
    coeff = mu * mu - hecke_X(spec) * mu + mbe_factor(spec)
    k = sym("K")
    factored = (mu - 1 + k / spec.K1) * (mu - 1 + k / spec.K2)
    return (_defect_vanishes(basis, 1 - mu, k, coeff) and coeff == factored
            and all(_defect_vanishes(basis, k / ki, k, ZERO)
                    for ki in braid_couplings(spec)))


def affine_decomposition(d):
    """Coefficients (c1, c2), c1 + c2 = 1, with
    Rhat(K) = c1 Rhat(K1) + c2 Rhat(K2).  Degenerate when K1 = K2."""
    spec = deformation(d)
    k = sym("K")
    if len(braid_couplings(spec)) == 1:
        raise DegenerateValues(f"{spec.id}: K1 = K2 = {spec.K1}")
    c1 = (spec.K2 - k) / (spec.K2 - spec.K1)
    c2 = (k - spec.K1) / (spec.K2 - spec.K1)
    return c1, c2


def baxterization_check(d, k=None) -> bool:
    """Rhat(K) = (K/Ki) Rhat(Ki) - (K/Ki - 1) I at each distinct degeneracy
    point.  This is the public form, which rebuilds Rhat at each braid
    coupling; no command calls it.  verify's identities:baxterization line
    reads the shared checks._affine verdict instead: for a Ki != 0 the
    identity holds exactly when Rhat = I + K A with A free of K."""
    spec = deformation(d)
    k = _coupling(k)
    rhat = build_rhat(spec, k)
    ident = ParamMatrix.identity(4)
    for ki in braid_couplings(spec):
        built = build_rhat(spec, ki).scale(k / ki) - ident.scale(k / ki - 1)
        if rhat != built:
            return False
    return True
