"""The verification registry behind ``mbraid verify``: one function per
check, each taking a deformation id (or None for the contraction suite) and
returning ``(ok, detail)``.  ``registered_checks`` lists them in the order
verify prints them.

Three pairs of lines decide one proposition, and each pair reads one
verdict, decided once per family inside a verify pass (``per_pass``) and
afresh outside one, whichever line asks first:

- ``_hecke``, Rhat^2 = X Rhat + (1 - X) I, behind ``catalog:hecke`` and
  ``catalog:projectors``.  The projector line checks P1 + P2 = I and
  (X - 1) P1 + P2 = Rhat on the matrices ``projectors`` returns; these force
  P1 = (Rhat - I)/(X - 2) and P2 = I - P1, where X != 2 because
  ``projectors`` raises DegenerateX there.  Then P1^2 - P1, P2^2 - P2 and
  -P1 P2 are each the Hecke defect (Rhat - I)(Rhat - (X - 1) I) divided by
  (X - 2)^2, so they vanish exactly when Hecke holds, and the line forms no
  matrix product.
- ``_affine``, Rhat(0) = I and Rhat = Rhat(0) + K (Rhat(1) - Rhat(0)),
  behind ``catalog:rhat-affine`` and ``identities:baxterization``.  For a
  Ki != 0, (K/Ki) Rhat(Ki) - (K/Ki - 1) I = Rhat(K) says Rhat = I + K A
  with A = (Rhat(Ki) - I)/Ki free of K, which is the affine verdict (Jones,
  Int. J. Mod. Phys. B 4, 1990).  ``identities.baxterization_check`` stays
  public and still rebuilds Rhat at each braid coupling.
- ``_mbe``, the modified braid equation B(K) = lam(K) (Rhat12 - Rhat23)
  decided on the K-free defect coordinates, behind ``identities:mbe`` and
  ``identities:mbe-r-form``.  For R = P.Rhat and any 4x4 Rhat and scalar lam,
  R12 R13 R23 - R23 R13 R12 - lam (P(132) R23 - P(123) R12) is -P13 times
  B - lam (Rhat12 - Rhat23), and P13 is invertible, so the R form holds
  exactly when the Rhat form does (the MQYBE of Gerstenhaber, Giaquinto and
  Schack).  An Rhat with K in a denominator fails both lines with the
  ValueError of ``identities._split_defect``.  ``identities.mbe_r_form``
  stays public and still forms both triple products of R.

tests/ref_checks.py keeps the old bodies of the three restating lines, and
tests/test_shared_verdicts.py compares them on 159 mutants of Rhat.
"""

from __future__ import annotations

from .catalog import (DEFORMATIONS, braid_couplings, build_M, build_r,
                      build_rhat, deformation, hecke_X, kprime, per_pass,
                      projectors, triangular_K)
from .contraction import (_limit, contract_group_relations, contract_matrix,
                          contract_plane, frame)
from .identities import (DegenerateValues, _defect_basis, _defect_vanishes,
                         affine_decomposition, braid_values_check, mbe_factor,
                         s_shift_check)
from .ncalgebra import build_group_system, critical_pairs, termination_order
from .plane import (MIXED, build_plane_system, phi_commutators, phi_nilpotent,
                    projector_consistency, pure_sector_consistency)
from .pmatrix import ParamMatrix, flip21, inverse
from .rtt import SpanMismatch, rtt_residual, solve_family
from .scalars import ONE, substitute, sym, vanishes_at_sqrt


@per_pass
def _affine(d) -> bool:
    """Rhat(0) = I and Rhat = Rhat(0) + K (Rhat(1) - Rhat(0))."""
    at0 = build_rhat(d, 0)
    slope = build_rhat(d, 1) - at0
    return (at0 == ParamMatrix.identity(4)
            and build_rhat(d) == at0 + slope.scale(sym("K")))


@per_pass
def _hecke(d) -> bool:
    """Rhat^2 = X Rhat + (1 - X) I."""
    rhat = build_rhat(d)
    x = hecke_X(d)
    return rhat @ rhat == rhat.scale(x) + ParamMatrix.identity(4).scale(1 - x)


@per_pass
def _mbe(d) -> bool:
    """B(K) = lam(K) (Rhat12 - Rhat23), on the defect coordinates."""
    return _defect_vanishes(_defect_basis(d), ONE, sym("K"), mbe_factor(d))


def _check_rhat_affine(d):
    return _affine(d), "Rhat(0) = I and Rhat affine in K"


def _check_hecke(d):
    return _hecke(d), "Rhat^2 = X Rhat + (1 - X) I"


def _check_projectors(d):
    # the two linear identities force P1 = (Rhat - I)/(X - 2) and P2 = I - P1;
    # then P1^2 - P1, P2^2 - P2 and -P1 P2 are each the Hecke defect / (X - 2)^2
    p1, p2 = projectors(d)
    ok = (p1 + p2 == ParamMatrix.identity(4)
          and build_rhat(d) == p1.scale(hecke_X(d) - 1) + p2
          and _hecke(d))
    return ok, "idempotent, orthogonal, complete; Rhat = (X-1)P1 + P2"


def _check_rtt_residual(d):
    cells = rtt_residual(build_r(d), build_group_system(d))
    ok = all(cell.is_zero() for row in cells for cell in row)
    return ok, "16 cells of R.T1T2 - T2T1.R normal-order to 0"


def _check_rtt_span(d):
    try:
        mats = solve_family(d)
    except SpanMismatch as exc:
        return False, str(exc)
    return len(mats) == 2, f"nullspace dimension {len(mats)}, catalog in span"


def _check_mbe(d):
    return _mbe(d), f"defect factor {mbe_factor(d)}"


def _check_mbe_r_form(d):
    # the R-form defect is -P13 times the Rhat-form defect, and P13 is invertible
    return _mbe(d), "R-form defect identity holds"


def _check_braid_values(d):
    spec = deformation(d)
    return (braid_values_check(spec),
            f"B = 0 at K1 = {spec.K1}, K2 = {spec.K2}; (K-K1)(K-K2) divides B")


def _check_flip_inverse(d):
    spec = deformation(d)
    kp = kprime(spec)
    ident = ParamMatrix.identity(4)
    kstar = triangular_K(spec)
    rstar = build_rhat(spec, kstar)
    ok = (flip21(build_r(spec)) @ build_r(spec, kp) == ident
          and kprime(spec, kp) == sym("K")
          and rstar @ rstar == ident)
    return ok, f"(21)R(K).R(K') = I, K'' = K, Rhat^2 = I at K* = {kstar}"


def _check_m_factorization(_):
    m, rho = build_M()
    defect = inverse(flip21(m)) @ m - build_r("pq", triangular_K("pq"))
    ok = all(vanishes_at_sqrt(e, rho) for e in defect.data)
    return ok, "inverse((21)M).M = R(K*) with s^2 = 2pq/(p+q)"


def _check_affine_decomposition(d):
    spec = deformation(d)
    try:
        c1, c2 = affine_decomposition(spec)
    except DegenerateValues as exc:
        ok = spec.id == "gh"
        return ok, f"degenerate as required: {exc}" if ok else str(exc)
    built = build_rhat(spec, spec.K1).scale(c1) + build_rhat(spec, spec.K2).scale(c2)
    ok = (c1 + c2 == ONE) and built == build_rhat(spec)
    return ok, f"Rhat(K) = ({c1}) Rhat(K1) + ({c2}) Rhat(K2)"


def _check_s_shift(d):
    return s_shift_check(d), "shifted braid defect factors; exact root restores the braid"


def _check_baxterization(d):
    # (K/Ki) Rhat(Ki) - (K/Ki - 1) I = Rhat(K) for a Ki != 0 says Rhat = I + K A
    return _affine(d), "affine family through both braid couplings"


def _check_pure_sectors(d):
    return pure_sector_consistency(d), "projector constraints on pure sectors"


def _check_projector_consistency(d):
    if d not in MIXED:
        return pure_sector_consistency(d), "pure sectors only (no mixed calculus)"
    return projector_consistency(build_plane_system(d)), "pure and mixed sectors"


def _check_phi_nilpotent(d):
    return phi_nilpotent(build_plane_system(d)), "Phi^2 normal-orders to 0"


def _check_phi_commutators(d):
    return phi_commutators(build_plane_system(d)), "all four coordinate/differential pairs"


def _check_diamond(d):
    for k in braid_couplings(d):
        # a termination order plus resolved overlaps is confluence at every degree
        system = build_plane_system(d, k).rules
        if termination_order(system) is None:
            return False, f"no termination order at K = {k}"
        unresolved = critical_pairs(system)
        if unresolved:
            word = "*".join(unresolved[0][0])
            return False, f"{len(unresolved)} unresolved overlaps at K = {k}; first {word}"
    return True, "no overlap violations to degree 4 at the braid couplings"


def _check_contraction_curve(_):
    g, h, p, q = sym("g"), sym("h"), sym("p"), sym("q")
    fr = frame()
    # omega = 1/u is the off-diagonal entry of G
    subs, om, lim = fr.substitutions, fr.gmatrix[0, 1], _limit(fr)
    ok = (substitute((1 - p) * om, subs) == g
          and substitute((q - 1) * om, subs) == h
          and lim((1 / p - q) * om) == g - h
          and lim((p * q - 1) * om) == h - g)
    return ok, "(1-p)w = g, (q-1)w = h exactly; difference combinations converge"


def _check_contraction_matrix(_):
    return contract_matrix() == build_r("gh"), "conjugated R(K;p,q) contracts onto R(K;g,h)"


def _check_contraction_group(_):
    return contract_group_relations(), "all six group relations emerge from the limit"


def _check_contraction_plane(_):
    return contract_plane(), "plane relations and Phi1 -> Phi2 emerge from the limit"


def registered_checks() -> list:
    """(scope, name, deformation, callable) for every verification line."""
    out = []
    for d in DEFORMATIONS:
        out.append(("catalog", "rhat-affine", d, _check_rhat_affine))
        out.append(("catalog", "hecke", d, _check_hecke))
        out.append(("catalog", "projectors", d, _check_projectors))
    for d in DEFORMATIONS:
        out.append(("rtt", "residual", d, _check_rtt_residual))
        out.append(("rtt", "solver-span", d, _check_rtt_span))
    for d in DEFORMATIONS:
        out.append(("identities", "mbe", d, _check_mbe))
        out.append(("identities", "mbe-r-form", d, _check_mbe_r_form))
        out.append(("identities", "braid-values", d, _check_braid_values))
        out.append(("identities", "flip-inverse", d, _check_flip_inverse))
        out.append(("identities", "affine-decomposition", d, _check_affine_decomposition))
        out.append(("identities", "s-shift", d, _check_s_shift))
        out.append(("identities", "baxterization", d, _check_baxterization))
    out.append(("identities", "m-factorization", "pq", _check_m_factorization))
    for d in DEFORMATIONS:
        out.append(("plane", "pure-sectors", d, _check_pure_sectors))
        out.append(("plane", "projector-consistency", d, _check_projector_consistency))
    for d in MIXED:
        out.append(("plane", "phi-nilpotent", d, _check_phi_nilpotent))
        out.append(("plane", "phi-commutators", d, _check_phi_commutators))
        out.append(("plane", "diamond-at-couplings", d, _check_diamond))
    out.append(("contraction", "curve", None, _check_contraction_curve))
    out.append(("contraction", "matrix", None, _check_contraction_matrix))
    out.append(("contraction", "group-relations", None, _check_contraction_group))
    out.append(("contraction", "plane", None, _check_contraction_plane))
    return out
