"""Noncommutative planes driven by the catalog family.

Coordinates (x, y) and differentials (xi, eta) obey three constraint
families: P1 annihilates coordinate bilinears, P2 annihilates differential
bilinears, and the mixed sector reorders coordinate-differential words via
x^i xi^j = (1/(1-X)) Rhat^{ij}_{i'j'} xi^{i'} x^{j'}.  Because Rhat is
affine in K with Rhat(0) = I, both projectors are K-free and the pure
sectors never see the coupling.  Each mixed rule is the Wess-Zumino form
x^i xi^j -> c (xi^i x^j + w Phi): all K-dependence sits in the scalar
c = 1/(1-X) and a K-multiple w of the nilpotent combination Phi.
projector_consistency writes each family as one matrix whose rows,
contracted with a vector of words, must normal-order to zero: P1 and P2
against the bilinears, [I | -(1/(1-X)) Rhat] against the x^i xi^j words
followed by the xi^i' x^j' words.

Generators are ranked xi < eta < x < y and every rule rewrites a descending
(or repeated) pair, so normal forms carry differentials on the left.  Mixed
rules exist for the families in MIXED, the pq and gh planes; the third
family has a fermionic coordinate (y^2 = 0) and only its pure sectors are
modelled here.  MIXED is the one place that split is written.

The full mixed systems are confluent exactly at the two braid couplings
K = K1, K2: overlap branches on words like x.eta.xi disagree by a multiple
of the braid-defect factor (K/K1 - 1)(K/K2 - 1), so at generic K normal
forms depend on the (deterministic, leftmost) reduction strategy.
"""

from __future__ import annotations

from typing import NamedTuple

from .catalog import (_coupling, build_rhat, deformation, hecke_X, per_pass,
                      projectors)
from .ncalgebra import PLANE, NCPoly, RewriteRule, RewriteSystem, normal_order
from .pmatrix import ParamMatrix
from .scalars import ONE, RatFunc, sym

_STEP_CAP = 20000

MIXED = ("pq", "gh")  # the families with coordinate/differential rules


class UnsupportedDeformation(ValueError):
    """Mixed-sector calculus requested for the fermionic-plane family."""


class PlaneSystem(NamedTuple):
    deformation: str
    k: RatFunc
    rules: RewriteSystem
    one_minus_X: RatFunc


def _word(*names) -> NCPoly:
    return NCPoly.from_word(tuple(names))


def _pure_rules(did: str):
    p, q, g, h = sym("p"), sym("q"), sym("g"), sym("h")
    if did == "pq":
        return [
            RewriteRule(("y", "x"), _word("x", "y").scale(p)),
            RewriteRule(("xi", "xi"), NCPoly.zero()),
            RewriteRule(("eta", "eta"), NCPoly.zero()),
            RewriteRule(("eta", "xi"), _word("xi", "eta").scale(-q)),
        ]
    if did == "gh":
        return [
            RewriteRule(("y", "x"), _word("x", "y") - _word("y", "y").scale(g)),
            RewriteRule(("xi", "xi"), _word("xi", "eta").scale(h)),
            RewriteRule(("eta", "eta"), NCPoly.zero()),
            RewriteRule(("eta", "xi"), -_word("xi", "eta")),
        ]
    return [
        RewriteRule(("y", "x"), _word("x", "y").scale(ONE / q)),
        RewriteRule(("y", "y"), NCPoly.zero()),
        RewriteRule(("eta", "xi"), -_word("xi", "eta")),
        RewriteRule(("eta", "eta"), _word("xi", "xi").scale(-(1 + q) / h)),
    ]


def build_pure_system(d) -> RewriteSystem:
    """Coordinate and differential relations only; K never appears."""
    spec = deformation(d)
    return RewriteSystem(f"{spec.id}-plane-pure", PLANE, _pure_rules(spec.id), _STEP_CAP)


def phi_poly(did: str) -> NCPoly:
    """The nilpotent mixed combination eta.x - p xi.y, or eta.x - xi.y + g eta.y."""
    p, g = sym("p"), sym("g")
    if did == "pq":
        return _word("eta", "x") - _word("xi", "y").scale(p)
    if did == "gh":
        return _word("eta", "x") - _word("xi", "y") + _word("eta", "y").scale(g)
    raise UnsupportedDeformation(f"no mixed combination for {did!r}")


# x^i xi^j, then xi^i' x^j', each in Rhat's (first factor major) order
_MIXED_WORDS = (("x", "xi"), ("x", "eta"), ("y", "xi"), ("y", "eta"),
                ("xi", "x"), ("xi", "y"), ("eta", "x"), ("eta", "y"))


@per_pass
def build_plane_system(d, k=None) -> PlaneSystem:
    """Full plane calculus (pure + mixed rules) for the pq or gh family.

    The weight table holds the nonzero w of each mixed rule, and every rule
    right-hand side is already in normal form."""
    spec = deformation(d)
    if spec.id not in MIXED:
        raise UnsupportedDeformation(
            f"{spec.id}: mixed plane rules are defined for {' and '.join(MIXED)} only")
    k = _coupling(k)
    one_minus_X = 1 - hecke_X(spec, k)
    c = ONE / one_minus_X
    p, q, h = sym("p"), sym("q"), sym("h")
    weights = ({("x", "eta"): k / p, ("y", "xi"): -k * q / p} if spec.id == "pq"
               else {("x", "xi"): k * h, ("x", "eta"): k, ("y", "xi"): -k})
    phi = phi_poly(spec.id)
    rules = _pure_rules(spec.id)
    for lhs, word in zip(_MIXED_WORDS[:4], _MIXED_WORDS[4:]):
        rhs = NCPoly.from_word(word)
        if lhs in weights:
            rhs = rhs + phi.scale(weights[lhs])
        rules.append(RewriteRule(lhs, rhs.scale(c)))
    return PlaneSystem(spec.id, k, RewriteSystem(f"{spec.id}-plane", PLANE, rules, _STEP_CAP),
                       one_minus_X)


def _vector_constraints(matrix, words, system) -> bool:
    # each matrix row, contracted with the word vector, must reduce to zero
    return all(normal_order(NCPoly(dict(zip(words, matrix.row(i)))), system).is_zero()
               for i in range(matrix.rows))


_COORD_WORDS = (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y"))
_DIFF_WORDS = (("xi", "xi"), ("xi", "eta"), ("eta", "xi"), ("eta", "eta"))


def _projector_constraints(p1, p2, system) -> bool:
    return (_vector_constraints(p1, _COORD_WORDS, system)
            and _vector_constraints(p2, _DIFF_WORDS, system))


@per_pass
def pure_sector_consistency(d) -> bool:
    """P1 kills coordinate bilinears and P2 kills differential bilinears,
    with the coupling fully symbolic.  Works for all three families."""
    spec = deformation(d)
    return _projector_constraints(*projectors(spec), build_pure_system(spec))


def projector_consistency(ps: PlaneSystem) -> bool:
    """Pure-sector projector constraints plus the mixed reordering
    x^i xi^j = (1/(1-X)) Rhat^{ij}_{i'j'} xi^{i'} x^{j'}, all reduced to
    normal form inside the full system."""
    ident = ParamMatrix.identity(4)
    rhat = build_rhat(ps.deformation, ps.k).scale(-ONE / ps.one_minus_X)
    mixed = ParamMatrix(4, 8, [e for i in range(4) for e in ident.row(i) + rhat.row(i)])
    return (_projector_constraints(*projectors(ps.deformation, ps.k), ps.rules)
            and _vector_constraints(mixed, _MIXED_WORDS, ps.rules))


def phi_nilpotent(ps: PlaneSystem) -> bool:
    f = phi_poly(ps.deformation)
    return normal_order(f * f, ps.rules).is_zero()


def phi_commutators(ps: PlaneSystem) -> bool:
    """The four exchange identities between the generators and Phi.

    The differential identities pick up (g - h) corrections in the gh
    family; both gh coefficients here are fixed by computation, not
    transcription (K, not Kq, against y; (g - h), not (h - g), against xi).
    """
    k = ps.k
    c = ONE / ps.one_minus_X
    p, q, g, h = sym("p"), sym("q"), sym("g"), sym("h")
    f = phi_poly(ps.deformation)
    x_, y_, xi_, eta_ = (NCPoly.gen(n) for n in ("x", "y", "xi", "eta"))
    if ps.deformation == "pq":
        checks = [
            (x_ * f).scale(p) - (f * x_).scale(c * k),
            y_ * f - (f * y_).scale(c * k * q),
            (xi_ * f).scale(c * (p + q - k * q)) + f * xi_,
            (eta_ * f).scale(c * (p + q - k * q)) + (f * eta_).scale(p * q),
        ]
    else:
        checks = [
            x_ * f - (f * x_).scale(c * k) - (f * y_).scale(c * k * (g - h)),
            y_ * f - (f * y_).scale(c * k),
            (xi_ * f).scale(c * (2 - k)) + f * xi_ + (f * eta_).scale(g - h),
            (eta_ * f).scale(c * (2 - k)) + f * eta_,
        ]
    return all(normal_order(expr, ps.rules).is_zero() for expr in checks)
