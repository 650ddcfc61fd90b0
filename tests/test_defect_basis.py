"""Differential tests of the coordinate decision behind mbe, braid-values and
s-shift.

_defect_vanishes decides whether a^2 E1 + a E2 + E3 - lam E1 is zero from its
coordinates in the basis of _defect_basis, and _defect_matrix writes the same
combination from them as an 8x8 matrix; ref_identities.defect_at, the dense
sum over every coefficient matrix of E1, E2 and E3, is the oracle of both.
Both run at every shift the checks use, for all three families, with the
catalog as it is, under the mutants of test_mutation.py, the corner cases of
test_identities_kernel.py and seeded single-entry perturbations of Rhat by
c K, c K^2 and c K^3.  The catalog's basis has one vector; the perturbations
and corner cases give bases of two to five.
"""

import random
from fractions import Fraction

import pytest
import ref_identities as ref
from test_identities_kernel import CORNERS, _coefficients, _patch, _rhat_plus
from test_mutation import MUTANTS

from mbraid.catalog import braid_couplings, deformation, hecke_X
from mbraid.identities import (_defect_basis, _defect_matrix, _defect_vanishes,
                               braid_divisibility, mbe_factor)
from mbraid.scalars import ONE, ZERO, sym

K, U = sym("K"), sym("u")
DEFORMATIONS = ("pq", "gh", "qh")


def _perturbations(seed: int) -> dict:
    """Rhat[i, j] + c K^n, n = 1, 2, 3, at a seeded entry and c for each
    family; c is a nonzero rational, times a parameter half the time."""
    rng = random.Random(seed)
    out = {}
    for did in DEFORMATIONS:
        for n in (1, 2, 3):
            i, j = rng.randrange(4), rng.randrange(4)
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            c = c * sym(rng.choice("pqgh")) if rng.random() < 0.5 else c
            term = lambda k, c=c, n=n: c * k ** n  # noqa: E731
            out[f"{did}[{i},{j}]+({c})K^{n}"] = _rhat_plus(did, i, j, term)
    return out


PERTURBATIONS = {**_perturbations(34), **_perturbations(35)}
CASES = {"catalog": None,
         **{f"mutant-{i}": m for i, m in enumerate(MUTANTS)},
         **{name: corner[0] for name, corner in CORNERS.items()},
         **PERTURBATIONS}


def _shifts(d) -> list:
    """(a, k, lam) at every shift the checks use: a = 1 with lam 0 and with
    lam(K) (braid residual and mbe), 1 - u with the s-shift coefficient,
    K/Ki at each root, and a = 1 at each braid coupling Ki."""
    lam = mbe_factor(d)
    couplings = braid_couplings(d)
    return ([(ONE, K, ZERO), (ONE, K, lam), (1 - U, K, U * U - hecke_X(d) * U + lam)]
            + [(K / ki, K, ZERO) for ki in couplings]
            + [(ONE, ki, ZERO) for ki in couplings])


@pytest.mark.parametrize("name", list(CASES))
def test_coordinates_decide_as_the_matrix_does(monkeypatch, name):
    if CASES[name] is not None:
        _patch(monkeypatch, CASES[name])
    for d in DEFORMATIONS:
        coeffs, basis = _coefficients(d), _defect_basis(d)
        for a, k, lam in _shifts(d):
            want = ref.defect_at(coeffs, a, k, lam)
            assert _defect_vanishes(basis, a, k, lam) is want.is_zero(), (
                d, str(a), str(k), str(lam))
            assert _defect_matrix(basis, a, k, lam) == want, (d, str(a), str(k), str(lam))


@pytest.mark.parametrize("name", list(CASES))
def test_coordinates_rebuild_every_coefficient_matrix(monkeypatch, name):
    if CASES[name] is not None:
        _patch(monkeypatch, CASES[name])
    for d in DEFORMATIONS:
        vectors, coords = _defect_basis(d)
        pivots = [next(i for i, x in enumerate(vec) if not x.is_zero()) for vec in vectors]
        # each vector is zero at every earlier pivot, so the basis is independent
        for b, vec in enumerate(vectors):
            assert all(vec[p].is_zero() for p in pivots[:b]), (d, b)
        matrices = [(part, power, m) for part, poly in enumerate(_coefficients(d))
                    for power, m in poly.items()]
        assert [(part, power) for part, power, _ in coords] == [
            (part, power) for part, power, _ in matrices], d
        for (part, power, m), (_, _, coord) in zip(matrices, coords):
            assert len(coord) == len(vectors), (d, part, power)
            for i, want in enumerate(m.data):
                got = ZERO
                for x, vec in zip(coord, vectors):
                    got = got + x * vec[i]
                assert got == want, (d, part, power, i)


@pytest.mark.parametrize("name", list(PERTURBATIONS))
def test_scalar_division_matches_the_entrywise_division(monkeypatch, name):
    # the mutants and corner cases are compared in test_identities_kernel.py
    _patch(monkeypatch, PERTURBATIONS[name])
    for d in DEFORMATIONS:
        assert braid_divisibility(d) is ref.braid_divisibility(d), d


def _has_spectral_shape(d) -> bool:
    """One basis vector, E1 = K D, E2 = sigma K^2 D and E3 = tau K^3 D, with
    sigma = -(1/K1 + 1/K2) and tau = 1/(K1 K2): lam = 1 + sigma K + tau K^2."""
    spec = deformation(d)
    sigma, tau = -(1 / spec.K1 + 1 / spec.K2), 1 / (spec.K1 * spec.K2)
    vectors, coords = _defect_basis(d)
    shape = [(part, power) for part, power, _ in coords]
    return (len(vectors) == 1 and shape == [(0, 1), (1, 2), (2, 3)]
            and [coord[0] for _, _, coord in coords] == [ONE, sigma, tau])


def test_the_defect_coefficients_follow_the_spectral_law():
    p, q = sym("p"), sym("q")
    displayed = {"pq": (-(p + q) / p, q / p), "gh": (-2, 1), "qh": (-q - 1, q)}
    for d in DEFORMATIONS:
        assert _has_spectral_shape(d), d
        _, coords = _defect_basis(d)
        assert [coord[0] for _, _, coord in coords[1:]] == list(displayed[d]), d


@pytest.mark.parametrize("name", ["pq[1,2]+K^2", "gh[0,3]+K^2"])
def test_an_mbe_breaking_corner_leaves_the_spectral_law(monkeypatch, name):
    mutant, did, passes = CORNERS[name]
    assert not passes
    _patch(monkeypatch, mutant)
    assert not _has_spectral_shape(did)
