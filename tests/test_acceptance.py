"""Acceptance gate: one test per stated criterion, every check symbolic
unless the criterion itself is numeric.  Run with -v to get one pass/fail
line per criterion.

Criterion 9 is split: the attainable clauses pass, and the local-confluence
clause at fully symbolic coupling is kept as a deliberately failing test
because it is false of the mixed calculus itself (see its docstring); the
couplings where it does hold are asserted exactly.
"""

import time
from fractions import Fraction

import pytest

from mbraid.catalog import (DEFORMATIONS, build_M, build_r, build_rhat,
                            deformation, hecke_X, kprime, projectors,
                            triangular_K)
from mbraid.cli import run_scan
from mbraid.contraction import (contract_group_relations, contract_matrix,
                                contract_plane, frame)
from mbraid.identities import (DegenerateValues, affine_decomposition,
                               baxterization_check, braid_divisibility,
                               braid_residual, mbe_factor, mbe_r_form,
                               mbe_residual, s_shift_check)
from mbraid.ncalgebra import build_group_system, diamond_check
from mbraid.plane import (build_plane_system, phi_commutators, phi_nilpotent,
                          projector_consistency, pure_sector_consistency)
from mbraid.pmatrix import ParamMatrix, flip21, inverse
from mbraid.rtt import rtt_residual, solve_family
from mbraid.scalars import (ONE, limit_u0, substitute, sym,
                            vanishes_at_sqrt)

K = sym("K")
P = sym("p")
Q = sym("q")
G = sym("g")
H = sym("h")
U = sym("u")


def test_criterion_01_rtt_residual_symbolic():
    for d in DEFORMATIONS:
        cells = rtt_residual(build_r(d), build_group_system(d))
        assert all(cell.is_zero() for row in cells for cell in row), d


def test_criterion_02_mbe_identity_and_factors():
    for d in DEFORMATIONS:
        assert mbe_residual(d).is_zero(), d
    assert mbe_factor("pq") == (K - 1) * (K * Q / P - 1)
    assert mbe_factor("gh") == (K - 1) * (K - 1)
    assert mbe_factor("qh") == (K - 1) * (K * Q - 1)


def test_criterion_03_mbe_r_form():
    for d in DEFORMATIONS:
        assert mbe_r_form(d).is_zero(), d


def test_criterion_04_braid_specialization_and_divisibility():
    for d in DEFORMATIONS:
        spec = deformation(d)
        assert braid_residual(spec, spec.K1).is_zero(), d
        assert braid_residual(spec, spec.K2).is_zero(), d
        assert braid_divisibility(spec), d


def test_criterion_05_hecke_projector_suite():
    ident = ParamMatrix.identity(4)
    for d in DEFORMATIONS:
        rhat = build_rhat(d)
        x = hecke_X(d)
        assert rhat @ rhat == rhat.scale(x) + ident.scale(1 - x), d
        p1, p2 = projectors(d)
        assert p1 @ p1 == p1 and p2 @ p2 == p2, d
        assert (p1 @ p2).is_zero() and p1 + p2 == ident, d
        assert rhat == p1.scale(x - 1) + p2, d


def test_criterion_06_flip_inverse_involution_triangular_point():
    ident = ParamMatrix.identity(4)
    stars = {"pq": 2 * P / (P + Q), "gh": ONE, "qh": 2 / (1 + Q)}
    for d in DEFORMATIONS:
        kp = kprime(d)
        assert flip21(build_r(d)) @ build_r(d, kp) == ident, d
        assert kprime(d, kp) == K, d
        kstar = triangular_K(d)
        assert kstar == stars[d], d
        rstar = build_rhat(d, kstar)
        assert rstar @ rstar == ident, d


def test_criterion_07_m_factorization_in_quadratic_extension():
    m, rho = build_M()
    assert rho == 2 * P * Q / (P + Q)
    defect = inverse(flip21(m)) @ m - build_r("pq", triangular_K("pq"))
    assert all(vanishes_at_sqrt(e, rho) for e in defect.data)


def test_criterion_08_rtt_solver_nullity_and_span():
    for d in DEFORMATIONS:
        mats = solve_family(d)  # raises SpanMismatch if catalog leaves the span
        assert len(mats) == 2, d


def test_criterion_09_plane_suite_at_exact_couplings():
    for d in ("pq", "gh"):
        ps = build_plane_system(d)
        assert projector_consistency(ps), d
        assert phi_nilpotent(ps), d
        assert phi_commutators(ps), d
    assert pure_sector_consistency("qh")
    for d in ("pq", "gh"):
        spec = deformation(d)
        couplings = [spec.K1] + ([] if spec.K2 == spec.K1 else [spec.K2])
        for k in couplings:
            assert diamond_check(build_plane_system(spec, k).rules, 4) == [], (d, k)


def test_criterion_09_diamond_at_symbolic_coupling():
    """Deliberately failing clause: local confluence to degree 4 with the
    coupling fully symbolic.

    The mixed-sector rewrite system is confluent precisely where the braid
    equation holds.  Resolving the (x, eta, xi) overlap both ways leaves a
    branch difference of c^2 * lam(K) * (xi.eta.x) for the two-parameter
    plane (with an extra h-term for the nonstandard one), where lam is the
    braid defect factor (K - K1)(K - K2) / (K1 K2) up to sign and
    c = 1/(1 - X).  That difference vanishes identically only on the
    coupling locus K in {K1, K2}, which the companion test asserts; no
    rewrite orientation removes it at symbolic K, so this clause is
    unattainable as stated and is preserved here as a faithful failure
    rather than weakened.
    """
    violations = diamond_check(build_plane_system("pq").rules, 4)
    assert violations == [], f"{len(violations)} overlap violations"


def test_criterion_10_contraction_suite():
    assert contract_matrix() == build_r("gh")
    assert contract_group_relations()
    assert contract_plane()
    fr = frame()
    subs = {n: v for n, v in fr.substitutions.items() if n in ("p", "q")}
    om = ONE / U
    assert limit_u0(substitute((1 / P - Q) * om, subs)) == G - H
    assert limit_u0(substitute((P * Q - 1) * om, subs)) == H - G


def test_criterion_11_affine_shift_baxterization():
    for d in ("pq", "qh"):
        spec = deformation(d)
        c1, c2 = affine_decomposition(spec)
        assert c1 + c2 == ONE, d
        built = build_rhat(spec, spec.K1).scale(c1) + build_rhat(spec, spec.K2).scale(c2)
        assert built == build_rhat(spec), d
    with pytest.raises(DegenerateValues):
        affine_decomposition("gh")
    for d in DEFORMATIONS:
        assert s_shift_check(d), d
        assert baxterization_check(d), d


def test_criterion_12_numeric_scan(tmp_path):
    started = time.monotonic()
    rows = run_scan("pq", {"p": Fraction(2), "q": Fraction(3)},
                    0, 2, 1001, str(tmp_path / "scan.csv"))
    table = {k: fro for k, fro in rows}
    assert table[Fraction(1)] < 1e-12
    assert table[Fraction(1, 2)] > 1e-6
    # 2/3 is not a point of the even 1001-grid over [0, 2]; witness that
    # zero on a grid whose spacing 1/150 contains it exactly
    rows_fine = run_scan("pq", {"p": Fraction(2), "q": Fraction(3)},
                         0, 2, 301, str(tmp_path / "scan301.csv"))
    fine = {k: fro for k, fro in rows_fine}
    assert fine[Fraction(2, 3)] < 1e-12
    assert time.monotonic() - started < 10.0
