import io
from fractions import Fraction

import pytest
from test_mutation import _patch_everywhere

import mbraid.checks as checks
import mbraid.identities as identities
from mbraid.catalog import build_rhat, deformation, per_pass
from mbraid.cli import run_verify
from mbraid.identities import (
    DegenerateValues,
    affine_decomposition,
    baxterization_check,
    braid_divisibility,
    braid_residual,
    mbe_factor,
    mbe_r_form,
    mbe_residual,
    s_shift_check,
)
from mbraid.pmatrix import ParamMatrix
from mbraid.scalars import sym

K = sym("K")
P = sym("p")
Q = sym("q")
DEFORMATIONS = ("pq", "gh", "qh")


def test_mbe_residual_zero_symbolic():
    for did in DEFORMATIONS:
        assert mbe_residual(did).is_zero(), did


def test_mbe_factor_matches_displayed_forms():
    # the factor is derived from (K1, K2); these displays are the cross-check
    assert mbe_factor("pq") == (K - 1) * (K * Q / P - 1)
    assert mbe_factor("gh") == (K - 1) * (K - 1)
    assert mbe_factor("qh") == (K - 1) * (K * Q - 1)


def test_mbe_r_form_zero_symbolic():
    for did in DEFORMATIONS:
        assert mbe_r_form(did).is_zero(), did


def test_braid_residual_nonzero_off_degeneracies():
    for did in DEFORMATIONS:
        assert not braid_residual(did).is_zero(), did
        assert not braid_residual(did, Fraction(1, 3)).is_zero(), did


def test_braid_residual_vanishes_at_degeneracy_couplings():
    for did in DEFORMATIONS:
        spec = deformation(did)
        assert braid_residual(spec, spec.K1).is_zero(), did
        assert braid_residual(spec, spec.K2).is_zero(), did


def test_braid_entries_divisible_by_degeneracy_quadratic():
    for did in DEFORMATIONS:
        assert braid_divisibility(did), did


# a K-free 8x8 matrix with a parameter in some entries and a denominator
M = ParamMatrix(8, 8, [(i * j % 5 - 2) * P / Q + (i + 2 * j) % 3 for i in range(8)
                       for j in range(8)])


def _plant_defect(monkeypatch, b):
    """Make _split_defect return E1, E2 and E3 whose sum is
    B(K) = sum of K^e b[e]."""
    def split(rhat, name):
        return b, dict(b), {e: -m for e, m in b.items()}
    monkeypatch.setattr(identities, "_split_defect", split)


def test_braid_divisibility_rejects_an_entry_lam_does_not_divide(monkeypatch):
    # B = K M leaves a remainder; K in a denominator is refused before this
    # (test_identities_kernel.test_k_in_a_denominator_is_refused)
    _plant_defect(monkeypatch, {1: M})
    for did in DEFORMATIONS:
        assert not braid_divisibility(did), did


@pytest.mark.parametrize("did, b, passes", [
    # (K-1) M vanishes at K1 = K2 = 1, but (K-1)^2 does not divide it
    ("gh", {0: -M, 1: M}, False),
    ("gh", {0: M, 1: M.scale(-2), 2: M}, True),
    ("gh", {0: -M, 2: M}, False),
    ("pq", {0: M.scale(P), 1: M.scale(-P - Q), 2: M.scale(Q)}, True),
    ("pq", {1: M.scale(P), 2: M.scale(-P - Q), 3: M.scale(Q)}, True),
    ("pq", {0: -M, 1: M}, False),
], ids=["gh-(K-1)", "gh-(K-1)^2", "gh-(K^2-1)", "pq-(K-1)(qK-p)", "pq-K(K-1)(qK-p)",
        "pq-(K-1)"])
def test_braid_values_divides_the_planted_defect(monkeypatch, did, b, passes):
    _plant_defect(monkeypatch, b)
    assert checks._check_braid_values(did)[0] is passes
    assert braid_divisibility(did) is passes


def test_braid_divisibility_divides_by_the_defect_factor(monkeypatch):
    real = identities.mbe_factor
    monkeypatch.setattr(identities, "mbe_factor", lambda d: real(d) + 1)
    for did in DEFORMATIONS:
        assert not braid_divisibility(did), did


def test_s_shift_symbolic_and_root():
    for did in DEFORMATIONS:
        assert s_shift_check(did), did


def test_s_shift_rejects_a_planted_defect_factor(monkeypatch):
    real = identities.mbe_factor
    monkeypatch.setattr(identities, "mbe_factor", lambda d: real(d) + 1)
    for did in DEFORMATIONS:
        assert not s_shift_check(did), did


def _count_defect_calls(monkeypatch):
    """Record every coordinate decision (_defect_vanishes) and every
    _split_defect call."""
    calls = {"evaluations": 0, "splits": 0}
    real_vanishes, real_split = identities._defect_vanishes, identities._split_defect

    def vanishes(*args):
        calls["evaluations"] += 1
        return real_vanishes(*args)

    def split(*args):
        calls["splits"] += 1
        return real_split(*args)

    monkeypatch.setattr(identities, "_defect_vanishes", vanishes)
    monkeypatch.setattr(identities, "_split_defect", split)
    return calls


def test_s_shift_checks_each_distinct_root_once(monkeypatch):
    # the symbolic shifted identity, then one braid relation per distinct root
    calls = _count_defect_calls(monkeypatch)
    for did, want in (("pq", 3), ("gh", 2), ("qh", 3)):
        calls.update(evaluations=0, splits=0)
        assert s_shift_check(did), did
        assert calls == {"evaluations": want, "splits": 1}, did


def test_braid_values_checks_each_distinct_coupling_once(monkeypatch):
    # one braid relation per distinct coupling; B(K) is divided on its
    # coordinates, never evaluated at symbolic K
    calls = _count_defect_calls(monkeypatch)
    for did, want in (("pq", 2), ("gh", 1), ("qh", 2)):
        calls.update(evaluations=0, splits=0)
        assert checks._check_braid_values(did)[0], did
        assert calls == {"evaluations": want, "splits": 1}, did


def test_one_verify_pass_builds_each_defect_basis_once(monkeypatch):
    # mbe, braid-values and s-shift share one basis per family
    built = []

    def counting(real):
        def basis(d):
            built.append(deformation(d).id)
            return real.__wrapped__(d)
        return per_pass(basis)

    _patch_everywhere(monkeypatch, identities, "_defect_basis", counting)
    assert run_verify("all", stream=io.StringIO()) == 0
    assert built == list(DEFORMATIONS)


def test_affine_decomposition():
    for did in ("pq", "qh"):
        spec = deformation(did)
        c1, c2 = affine_decomposition(did)
        assert c1 + c2 == 1
        lhs = build_rhat(did)
        rhs = build_rhat(did, spec.K1).scale(c1) + build_rhat(did, spec.K2).scale(c2)
        assert lhs == rhs, did


def test_affine_decomposition_degenerate_for_equal_eigenvalues():
    with pytest.raises(DegenerateValues):
        affine_decomposition("gh")


def test_baxterization():
    for did in DEFORMATIONS:
        assert baxterization_check(did), did
        assert baxterization_check(did, Fraction(5, 7)), did
