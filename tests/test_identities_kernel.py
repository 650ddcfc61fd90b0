"""Differential tests of the braid defect computed from K-free coefficients
against the full symbolic triple products kept in ref_identities.py.

The mutants are those of test_mutation.py plus five corner cases: terms of
Rhat[0, 3] in qh that the modified braid equation does not constrain, and
K^2 terms that break it in pq and gh.
"""

from fractions import Fraction

import pytest
import ref_identities as ref
from test_mutation import MUTANTS, _patch_everywhere

import mbraid.catalog as catalog
import mbraid.checks as checks
from mbraid.catalog import braid_couplings, deformation, hecke_X
from mbraid.identities import (_defect_basis, _defect_matrix, _split_defect,
                               braid_residual, braid_values_check,
                               mbe_factor, mbe_residual, s_shift_check)
from mbraid.pmatrix import ParamMatrix
from mbraid.scalars import ONE, ZERO, const, sym

K, P = sym("K"), sym("p")
DEFORMATIONS = ("pq", "gh", "qh")


def _rhat_plus(did, i, j, term):
    """Rhat[i, j] + term(K) for one family."""
    def make(real):
        def build_rhat(d, k=None):
            m = real(d, k)
            if deformation(d).id != did:
                return m
            data = list(m.data)
            data[4 * i + j] = data[4 * i + j] + term(catalog._coupling(k))
            return ParamMatrix(4, 4, data)
        return build_rhat
    return catalog, "build_rhat", make


# (mutant, family, whether mbe, braid-values and s-shift pass)
CORNERS = {
    "qh[0,3]+1": (_rhat_plus("qh", 0, 3, lambda k: 1), "qh", True),
    "qh[0,3]+K^2": (_rhat_plus("qh", 0, 3, lambda k: k * k), "qh", True),
    "qh[0,3]+pK^3": (_rhat_plus("qh", 0, 3, lambda k: P * k * k * k), "qh", True),
    "pq[1,2]+K^2": (_rhat_plus("pq", 1, 2, lambda k: k * k), "pq", False),
    "gh[0,3]+K^2": (_rhat_plus("gh", 0, 3, lambda k: k * k), "gh", False),
}


def _coefficients(d):
    """(E1, E2, E3) of the family's symbolic Rhat, as _split_defect gives them."""
    spec = deformation(d)
    return _split_defect(catalog.build_rhat(spec), spec.id)


def _patch(monkeypatch, mutant):
    """The mutant in every mbraid module, and in the reference checks."""
    _patch_everywhere(monkeypatch, *mutant)
    monkeypatch.setattr(ref, "build_rhat", catalog.build_rhat)


def _verdicts(d):
    """(library, reference) verdicts of mbe, braid-values and s-shift."""
    spec = deformation(d)
    lib = (checks._check_mbe(d)[0], checks._check_braid_values(d)[0],
           checks._check_s_shift(d)[0])
    want = (ref.mbe_residual(d).is_zero(),
            all(ref.braid_residual(spec, k).is_zero() for k in braid_couplings(spec))
            and ref.braid_divisibility(spec),
            ref.s_shift_check(d))
    return lib, want


@pytest.mark.parametrize("d", DEFORMATIONS)
def test_braid_residual_matches_the_triple_product(d):
    spec = deformation(d)
    for k in (None, spec.K1, spec.K2, Fraction(1, 3), -2, Fraction(5, 7)):
        assert braid_residual(d, k) == ref.braid_residual(d, k), (d, k)


@pytest.mark.parametrize("d", DEFORMATIONS)
def test_defect_at_any_shift_matches_the_triple_product(d):
    # defect(a I + N) = a^2 E1 + a E2 + E3 for a free symbol and a number
    basis = _defect_basis(d)
    n = catalog.build_rhat(d) - ParamMatrix.identity(4)
    for a in (sym("u"), sym("u") * K - 2, const(Fraction(3, 2))):
        want = ref._braid_defect(n + ParamMatrix.identity(4).scale(a))
        assert _defect_matrix(basis, a, K, ZERO) == want, (d, str(a))


@pytest.mark.parametrize("d", DEFORMATIONS)
def test_defect_at_matches_the_dense_loop(d):
    # every entry equal to the loop over all 64 entries of every coefficient
    # matrix, at the shifts the checks use: 1 (with lam 0 and with lam(K)),
    # 1 - u, K/Ki.  The values agree; a sum over basis vectors need not write
    # an entry's terms as the dense loop does, and no command prints them
    spec = deformation(d)
    basis, coeffs = _defect_basis(d), _coefficients(d)
    shifts = [(ONE, ZERO), (ONE, mbe_factor(d)),
              (1 - sym("u"), sym("u") * sym("u") - hecke_X(d) * sym("u") + mbe_factor(d))]
    shifts += [(K / ki, ZERO) for ki in braid_couplings(spec)]
    for a, lam in shifts:
        got = _defect_matrix(basis, a, K, lam)
        assert got == ref.defect_at(coeffs, a, K, lam), (d, str(a))
        assert len(got.data) == 64


@pytest.mark.parametrize("index", range(len(MUTANTS)))
def test_mutant_verdicts_match_the_triple_product(monkeypatch, index):
    _patch(monkeypatch, MUTANTS[index])
    for d in DEFORMATIONS:
        lib, want = _verdicts(d)
        assert lib == want, d


@pytest.mark.parametrize("name", list(CORNERS))
def test_corner_case_verdicts_match_the_triple_product(monkeypatch, name):
    mutant, did, passes = CORNERS[name]
    _patch(monkeypatch, mutant)
    for d in DEFORMATIONS:
        lib, want = _verdicts(d)
        assert lib == want, d
        if d == did:
            assert lib == (passes,) * 3


def test_k_in_a_denominator_is_refused(monkeypatch):
    # the one narrowing: the old checks passed mbe and s-shift for this Rhat
    _patch(monkeypatch, _rhat_plus("qh", 0, 3, lambda k: 1 / (k + 1)))
    for check in (_defect_basis, mbe_residual, braid_values_check, s_shift_check):
        with pytest.raises(ValueError, match=r"^qh: Rhat\[0, 3\] = .* K in its denominator"):
            check("qh")
    assert ref.mbe_residual("qh").is_zero() and ref.s_shift_check("qh")
