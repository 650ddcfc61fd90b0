"""The singular limit from the two-parameter family to the nonstandard one.

frame() is the one place the contraction is written: the exact rational
curve p = 1 - g*u, q = 1 + h*u, and the one change of basis
G = [[1, 1/u], [0, 1]] (the h-deformation as a contraction of the
q-deformation: Aghamohammadi, Khorrami & Shariati, J. Phys. A 28, 1995,
L225).  Along the curve (1-p)/u and (q-1)/u equal g and h identically in u,
so the limit of any expression is a substitution followed by evaluation of
the u-free part at u = 0 (_limit); an actual pole at u = 0 signals a wrong
setup and surfaces as PoleAtZero.

Every map between the two bases derives from G.  The R-matrix is conjugated
by G (x) G, the group generators satisfy T = G T~ G^-1, and the plane
generators (x, y) = G (x~, y~) and (xi, eta) = G (xi~, eta~).  The generator
pipelines first transport the two-parameter relations into tilde
coordinates exactly in u; reducing a defect there keeps every coefficient
finite at u = 0, whereas naive word-by-word regrouping of a plain normal
form leaves divergences that only those relations cancel.  Nothing here
is kept between calls: each call rebuilds from the current catalog and
rewrite systems.  The one sharing is catalog.verify_pass, which
cli.run_verify opens: inside it, build_r and build_group_system at
symbolic K run once per family, and outside it every call builds afresh.
"""

from __future__ import annotations

from typing import NamedTuple

from .catalog import build_r
from .ncalgebra import (GROUP, PLANE, NCPoly, RewriteRule, RewriteSystem,
                        build_group_system, change_of_basis, normal_order)
from .plane import build_pure_system, phi_poly
from .pmatrix import ParamMatrix, inverse, kron
from .scalars import ONE, ZERO, limit_u0, substitute, sym

GROUP_TILDE = ("a_t", "b_t", "c_t", "d_t")
PLANE_TILDE = ("xi_t", "eta_t", "x_t", "y_t")

TILDE_OF = dict(zip(GROUP + PLANE, GROUP_TILDE + PLANE_TILDE))


class ContractionFrame(NamedTuple):
    substitutions: dict
    gmatrix: ParamMatrix


def frame() -> ContractionFrame:
    g, h, u = sym("g"), sym("h"), sym("u")
    return ContractionFrame({"p": 1 - g * u, "q": 1 + h * u},
                            ParamMatrix(2, 2, [ONE, ONE / u, ZERO, ONE]))


def _limit(fr: ContractionFrame):
    """The contraction of one scalar: substitute the curve, then u -> 0."""
    return lambda cf: limit_u0(substitute(cf, fr.substitutions))


def _to_tilde(gm: ParamMatrix):
    """Each plain generator as a combination of tilde ones, for the group
    (T = gm T~ gm^-1, T = [[a, b], [c, d]]) and for the plane
    ((xi, eta) = gm (xi~, eta~), (x, y) = gm (x~, y~))."""
    ginv = inverse(gm)
    group = {GROUP[2 * i + j]: NCPoly({(GROUP_TILDE[2 * k + l],): gm[i, k] * ginv[l, j]
                                       for k in range(2) for l in range(2)})
             for i in range(2) for j in range(2)}
    plane = {PLANE[2 * s + i]: NCPoly({(PLANE_TILDE[2 * s + k],): gm[i, k] for k in range(2)})
             for s in range(2) for i in range(2)}
    return group, plane


def conjugated_matrix(k=None) -> ParamMatrix:
    """(G^-1 (x) G^-1) R(K;p,q) (G (x) G), entries still in K, p, q, u."""
    gm = frame().gmatrix
    ginv = inverse(gm)
    return kron(ginv, ginv) @ build_r("pq", k) @ kron(gm, gm)


def contract_matrix(k=None) -> ParamMatrix:
    """Entrywise limit of the conjugated R-matrix; the contraction:matrix
    check compares it with the nonstandard catalog entry."""
    return conjugated_matrix(k).map(_limit(frame()))


def _tilde_rename(p: NCPoly) -> NCPoly:
    return NCPoly({tuple(TILDE_OF[n] for n in w): c for w, c in p.coeffs.items()})


def _transported_rules(plain_system, to_tilde, tilde_alphabet) -> RewriteSystem:
    """The plain relations rewritten in tilde coordinates, exactly in u.

    Naive regrouping of a reduced word into tilde monomials leaves 1/u
    divergences that only the tilde-basis relations themselves cancel, so
    the relation vectors are solved for the descending tilde pairs by exact
    linear elimination in the 16-dimensional degree-2 word space.
    """
    pivots = [tuple(TILDE_OF[n] for n in lhs) for lhs in plain_system.by_lhs]
    rest = [(x1, x2) for x1 in tilde_alphabet for x2 in tilde_alphabet
            if (x1, x2) not in set(pivots)]
    a_rows, b_rows = [], []
    for lhs, rule in plain_system.by_lhs.items():
        rel = change_of_basis(NCPoly.from_word(lhs) - rule.rhs, to_tilde)
        a_rows.append([rel.coefficient(w) for w in pivots])
        b_rows.append([rel.coefficient(w) for w in rest])
    solved = inverse(ParamMatrix.from_rows(a_rows)) @ ParamMatrix.from_rows(b_rows)
    rules = []
    for i, lhs in enumerate(pivots):
        rhs = NCPoly({rest[j]: -solved[i, j] for j in range(len(rest))})
        rules.append(RewriteRule(lhs, rhs))
    return RewriteSystem(f"{plain_system.name}-tilde", tilde_alphabet, rules,
                         plain_system.step_cap)


def group_tilde_system() -> RewriteSystem:
    """Exact tilde-coordinate form of the two-parameter group relations."""
    to_tilde, _ = _to_tilde(frame().gmatrix)
    return _transported_rules(build_group_system("pq"), to_tilde, GROUP_TILDE)


def plane_tilde_system() -> RewriteSystem:
    """Exact tilde-coordinate form of the two-parameter pure plane relations."""
    _, to_tilde = _to_tilde(frame().gmatrix)
    return _transported_rules(build_pure_system("pq"), to_tilde, PLANE_TILDE)


def _contract_defect(defect, tilde_system, fr) -> NCPoly:
    """Reduce a tilde-basis defect with the exact transported relations,
    then take its limit along the contraction curve."""
    return normal_order(defect, tilde_system).map_coeffs(_limit(fr))


def _relations_emerge(gh_system, tilde_system, fr) -> bool:
    """Every rule of a nonstandard system, in tilde letters, contracts to 0
    modulo the transported two-parameter relations."""
    for lhs, rule in gh_system.by_lhs.items():
        defect = _tilde_rename(NCPoly.from_word(lhs) - rule.rhs)
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
    _, to_tilde = _to_tilde(fr.gmatrix)
    moved = change_of_basis(phi_poly("pq"), to_tilde)
    return moved.map_coeffs(_limit(fr)) == _tilde_rename(phi_poly("gh"))
