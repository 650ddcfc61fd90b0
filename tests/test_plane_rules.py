"""The mixed plane rules, built in one form, against two independent sources.

ref_plane.py keeps the hand-entered tables the rules replaced; every rule
must print the same and keep its place in the system.  The rules must also
equal the reordering x^i xi^j = (1/(1-X)) Rhat[i, j] xi^i' x^j' read
straight off the catalog matrix, by == and as text.
"""

from fractions import Fraction

import pytest
import ref_plane as ref

from mbraid.catalog import build_rhat, deformation
from mbraid.ncalgebra import NCPoly
from mbraid.plane import MIXED, _MIXED_WORDS, _pure_rules, build_plane_system
from mbraid.scalars import ONE


def _couplings(did):
    spec = deformation(did)
    return [None, spec.K1, spec.K2, 2, Fraction(7, 5), 0]


@pytest.mark.parametrize("did", MIXED)
def test_mixed_rules_match_the_hand_entered_tables(did):
    for k in _couplings(did):
        system = build_plane_system(did, k).rules
        expected = _pure_rules(did) + ref.mixed_rules(did, k)
        assert list(system.by_lhs) == [r.lhs for r in expected], (did, k)
        for rule in expected:
            got = system.by_lhs[rule.lhs].rhs
            assert str(got) == str(rule.rhs), (did, k, rule.lhs)
            assert list(got.coeffs) == list(rule.rhs.coeffs), (did, k, rule.lhs)
            assert got == rule.rhs, (did, k, rule.lhs)


@pytest.mark.parametrize("did", MIXED)
def test_mixed_rules_read_off_rhat(did):
    spec = deformation(did)
    for k in (None, spec.K1, spec.K2, 2):
        ps = build_plane_system(did, k)
        rhat = build_rhat(did, k)
        c = ONE / ps.one_minus_X
        for i, lhs in enumerate(_MIXED_WORDS[:4]):
            read = NCPoly({word: c * rhat[i, j] for j, word in enumerate(_MIXED_WORDS[4:])})
            rhs = ps.rules.by_lhs[lhs].rhs
            assert rhs == read, (did, k, lhs)
            assert str(rhs) == str(read), (did, k, lhs)

