"""The singular limit from the two-parameter family to the nonstandard one.

Everything rides on one exact rational curve: p = 1 - g*u, q = 1 + h*u,
omega = 1/u.  Along it the combinations (1-p)*omega and (q-1)*omega equal g
and h identically in u, so the "limit" of any expression is just a
substitution followed by evaluation of the u-free part at u = 0; an actual
pole at u = 0 signals a wrong setup and surfaces as PoleAtZero.

Three kinds of object are contracted: the R-matrix (conjugated by G (x) G
with G unitriangular), the group generators (tilde combinations whose
relations close on the nonstandard table), and the plane generators.  The
generator pipelines first transport the two-parameter relations into tilde
coordinates exactly in u; reducing a defect there keeps every coefficient
finite at u = 0, whereas naive word-by-word regrouping of a plain normal
form leaves divergences that only those relations cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .catalog import build_r
from .ncalgebra import (GROUP, GROUP_TILDE, PLANE, PLANE_TILDE, TILDE_OF,
                        NCPoly, RewriteRule, RewriteSystem, build_group_system,
                        change_of_basis, normal_order)
from .plane import build_pure_system, phi_poly
from .pmatrix import ParamMatrix, inverse, kron
from .scalars import ONE, ZERO, RatFunc, limit_u0, substitute, sym


class ContractionMismatch(ArithmeticError):
    """The contracted matrix disagrees with the nonstandard catalog entry."""


@dataclass(frozen=True)
class ContractionFrame:
    substitutions: dict
    gmatrix: ParamMatrix


def frame() -> ContractionFrame:
    g, h, u = sym("g"), sym("h"), sym("u")
    subs = {"p": 1 - g * u, "q": 1 + h * u, "omega": ONE / u}
    gm = ParamMatrix(2, 2, [ONE, ONE / u, ZERO, ONE])
    return ContractionFrame(subs, gm)


def _pq_subs(fr: ContractionFrame) -> dict:
    return {n: v for n, v in fr.substitutions.items() if n in ("p", "q")}


def _contract_scalar(expr: RatFunc, fr: ContractionFrame) -> RatFunc:
    return limit_u0(substitute(expr, _pq_subs(fr)))


def conjugated_matrix(k=None) -> ParamMatrix:
    """(G^-1 (x) G^-1) R(K;p,q) (G (x) G), entries still in K, p, q, u."""
    fr = frame()
    om = fr.substitutions["omega"]
    ginv = ParamMatrix(2, 2, [ONE, -om, ZERO, ONE])
    return kron(ginv, ginv) @ build_r("pq", k) @ kron(fr.gmatrix, fr.gmatrix)


def contract_matrix(k=None) -> ParamMatrix:
    """Entrywise limit of the conjugated R-matrix; certified against the
    nonstandard catalog entry before being returned."""
    fr = frame()
    limit = conjugated_matrix(k).map(lambda e: _contract_scalar(e, fr))
    if limit != build_r("gh", k):
        raise ContractionMismatch("conjugated limit left the catalog family")
    return limit


@lru_cache(maxsize=1)
def _generator_maps():
    """Tilde generators in the plain basis and the inverse maps, for both
    alphabets.  The group map mixes the unitriangular action on (a, c) and
    (b, d) column pairs; the plane map is the same action on single pairs."""
    om = ONE / sym("u")
    a, b, c, d = (NCPoly.gen(n) for n in GROUP)
    at, bt, ct, dt = (NCPoly.gen(TILDE_OF[n]) for n in GROUP)
    group_to_plain = {
        "a_t": a - c.scale(om),
        "b_t": b - d.scale(om) + a.scale(om) - c.scale(om * om),
        "c_t": c,
        "d_t": d + c.scale(om),
    }
    group_to_tilde = {
        "a": at + ct.scale(om),
        "b": bt - at.scale(om) + dt.scale(om) - ct.scale(om * om),
        "c": ct,
        "d": dt - ct.scale(om),
    }
    xi, eta, x, y = (NCPoly.gen(n) for n in PLANE)
    xit, etat, xt, yt = (NCPoly.gen(TILDE_OF[n]) for n in PLANE)
    plane_to_plain = {
        "x_t": x - y.scale(om),
        "y_t": y,
        "xi_t": xi - eta.scale(om),
        "eta_t": eta,
    }
    plane_to_tilde = {
        "x": xt + yt.scale(om),
        "y": yt,
        "xi": xit + etat.scale(om),
        "eta": etat,
    }
    return group_to_plain, group_to_tilde, plane_to_plain, plane_to_tilde


def _tilde_rename(p: NCPoly) -> NCPoly:
    return change_of_basis(p, {n: NCPoly.gen(t) for n, t in TILDE_OF.items()})


def _transported_rules(plain_system, to_tilde, tilde_alphabet) -> "RewriteSystem":
    """The plain relations rewritten in tilde coordinates, exactly in u.

    Naive regrouping of a reduced word into tilde monomials leaves 1/u
    divergences that only the tilde-basis relations themselves cancel, so
    the relation vectors are solved for the descending tilde pairs by exact
    linear elimination in the 16-dimensional degree-2 word space.
    """
    pivots = [tuple(TILDE_OF[n] for n in lhs) for lhs in plain_system.by_lhs]
    rest = [(x1, x2) for x1 in tilde_alphabet for x2 in tilde_alphabet
            if (x1, x2) not in set(pivots)]
    a_cols, b_cols = [], []
    for lhs, rule in plain_system.by_lhs.items():
        rel = change_of_basis(NCPoly.from_word(lhs) - rule.rhs, to_tilde)
        a_cols.append([rel.coefficient(w) for w in pivots])
        b_cols.append([rel.coefficient(w) for w in rest])
    n = len(pivots)
    amat = ParamMatrix(n, n, [a_cols[i][j] for i in range(n) for j in range(n)])
    bmat = ParamMatrix(n, len(rest), [cf for row in b_cols for cf in row])
    solved = inverse(amat) @ bmat
    rules = []
    for i, lhs in enumerate(pivots):
        rhs = NCPoly({rest[j]: -solved[i, j] for j in range(len(rest))})
        rules.append(RewriteRule(lhs, rhs))
    return RewriteSystem(f"{plain_system.name}-tilde", tilde_alphabet, rules,
                         plain_system.step_cap)


@lru_cache(maxsize=1)
def group_tilde_system() -> RewriteSystem:
    """Exact tilde-coordinate form of the two-parameter group relations."""
    _, to_tilde, _, _ = _generator_maps()
    return _transported_rules(build_group_system("pq"), to_tilde, GROUP_TILDE)


@lru_cache(maxsize=1)
def plane_tilde_system() -> RewriteSystem:
    """Exact tilde-coordinate form of the two-parameter pure plane relations."""
    _, _, _, to_tilde = _generator_maps()
    return _transported_rules(build_pure_system("pq"), to_tilde, PLANE_TILDE)


def _contract_defect(defect, tilde_system, fr) -> NCPoly:
    """Reduce a tilde-basis defect with the exact transported relations,
    substitute the contraction curve, and take the limit."""
    reduced = normal_order(defect, tilde_system)
    subbed = reduced.map_coeffs(lambda cf: substitute(cf, _pq_subs(fr)))
    return subbed.map_coeffs(limit_u0)


def _relations_emerge(gh_system, tilde_system, fr) -> bool:
    """Every rule of a nonstandard system, in tilde letters, contracts to 0
    modulo the transported two-parameter relations."""
    for lhs, rule in gh_system.by_lhs.items():
        defect = (NCPoly.from_word(tuple(TILDE_OF[n] for n in lhs))
                  - _tilde_rename(rule.rhs))
        if not _contract_defect(defect, tilde_system, fr).is_zero():
            return False
    return True


def contract_group_relations() -> bool:
    """Every nonstandard group relation emerges from the two-parameter
    algebra along the contraction curve."""
    return _relations_emerge(build_group_system("gh"), group_tilde_system(), frame())


def contract_plane() -> bool:
    """The nonstandard plane relations and the nilpotent combination emerge
    from the two-parameter plane: coordinates, differentials, and Phi."""
    fr = frame()
    if not _relations_emerge(build_pure_system("gh"), plane_tilde_system(), fr):
        return False
    _, _, _, to_tilde = _generator_maps()
    phi1_tilde = change_of_basis(phi_poly("pq"), to_tilde)
    subbed = phi1_tilde.map_coeffs(lambda cf: substitute(cf, _pq_subs(fr)))
    return subbed.map_coeffs(limit_u0) == _tilde_rename(phi_poly("gh"))
