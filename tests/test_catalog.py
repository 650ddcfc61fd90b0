from fractions import Fraction

import pytest

from mbraid.catalog import (
    DEFORMATIONS,
    DegenerateX,
    build_M,
    build_r,
    build_rhat,
    deformation,
    hecke_X,
    kprime,
    projectors,
    triangular_K,
)
from mbraid.ncalgebra import build_group_system
from mbraid.plane import build_plane_system, build_pure_system
from mbraid.pmatrix import ParamMatrix, flip21, inverse
from mbraid.scalars import ONE, DivisionByZero, sym, vanishes_at_sqrt

K = sym("K")
P = sym("p")
Q = sym("q")
I4 = ParamMatrix.identity(4)


def test_every_builder_rejects_an_unknown_family_with_the_catalog_error():
    with pytest.raises(ValueError) as want:
        deformation("xy")
    for build in (build_rhat, build_group_system, build_pure_system, build_plane_system):
        with pytest.raises(ValueError) as got:
            build("xy")
        assert str(got.value) == str(want.value), build.__name__


def test_deformation_registry():
    assert DEFORMATIONS == ("pq", "gh", "qh")
    spec = deformation("pq")
    assert spec.K1 == ONE and spec.K2 == P / Q
    assert deformation(spec) is spec
    assert deformation("gh").K2 == ONE
    assert deformation("qh").K2 == ONE / Q
    with pytest.raises(ValueError):
        deformation("hp")


def test_rhat_at_zero_coupling_is_identity():
    for did in DEFORMATIONS:
        assert build_rhat(did, 0) == I4


def test_rhat_entries_linear_in_coupling():
    for did in DEFORMATIONS:
        m0 = build_rhat(did, 0)
        m1 = build_rhat(did, 1)
        m2 = build_rhat(did, 2)
        # linearity: R(2) - R(1) = R(1) - R(0)
        assert m2 - m1 == m1 - m0


def test_hecke_relation_symbolic():
    for did in DEFORMATIONS:
        rhat = build_rhat(did)
        x = hecke_X(did)
        assert rhat @ rhat == rhat.scale(x) + I4.scale(1 - x)
        # minimal polynomial form: (R-hat - I)(R-hat - (X-1) I) = 0
        assert ((rhat - I4) @ (rhat - I4.scale(x - 1))).is_zero()


def test_hecke_scalar_values():
    assert hecke_X("pq") == 2 - K - K * Q / P
    assert hecke_X("gh") == 2 - 2 * K
    assert hecke_X("qh") == 2 - K * (1 + Q)


def test_projector_suite_symbolic():
    for did in DEFORMATIONS:
        p1, p2 = projectors(did)
        x = hecke_X(did)
        assert p1 @ p1 == p1
        assert p2 @ p2 == p2
        assert (p1 @ p2).is_zero()
        assert (p2 @ p1).is_zero()
        assert p1 + p2 == I4
        assert build_rhat(did) == p1.scale(x - 1) + p2


def test_projectors_degenerate_at_zero_coupling():
    for did in DEFORMATIONS:
        with pytest.raises(DegenerateX):
            projectors(did, 0)


def test_kprime_involution_and_flip_inverse():
    for did in DEFORMATIONS:
        kp = kprime(did)
        assert kprime(did, kp) == K
        assert flip21(build_r(did)) @ build_r(did, kp) == I4


def test_kprime_values():
    assert kprime("pq") == K * P / (K * P + K * Q - P)
    assert kprime("gh") == K / (2 * K - 1)
    assert kprime("qh") == K / (K * Q + K - 1)


def test_kprime_pole():
    with pytest.raises(DivisionByZero):
        kprime("gh", Fraction(1, 2))


def test_triangular_point():
    expected = {"pq": 2 * P / (P + Q), "gh": ONE, "qh": 2 / (Q + 1)}
    for did in DEFORMATIONS:
        kt = triangular_K(did)
        assert kt == expected[did]
        rt = build_rhat(did, kt)
        assert rt @ rt == I4
        assert kprime(did, kt) == kt


def test_factorization_of_triangular_r():
    M, rho = build_M()
    assert rho == 2 * P * Q / (P + Q)
    defect = inverse(flip21(M)) @ M - build_r("pq", triangular_K("pq"))
    assert all(vanishes_at_sqrt(e, rho) for e in defect.data)


def test_rhat_golden_print():
    text = str(build_rhat("pq"))
    lines = text.splitlines()
    assert len(lines) == 4
    assert "-K + 1" in lines[1]
    assert "(K)/(p)" in lines[1]
    assert "K*q" in lines[2]
