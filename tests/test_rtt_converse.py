"""Converse inclusion for the RTT relations, built without mbraid.rtt.

The 16 raw relations R (T1 T2) - (T2 T1) R of the catalog R(K), before any
normal ordering, are vectors in the 16-dimensional space of quadratic words
in a, b, c, d.  Their span has a fixed dimension away from K = 0 (6 for pq
and gh, 8 for qh), and every defining relation of the family's group
algebra lies in it: appending those relations leaves the rank unchanged.
At K = 0, R is the factor swap and every raw relation vanishes.
"""

from fractions import Fraction
from itertools import product

import pytest

from mbraid.catalog import DEFORMATIONS, build_r
from mbraid.ncalgebra import GROUP, NCPoly, build_group_system
from mbraid.pmatrix import ParamMatrix, rank

T = ((NCPoly.gen("a"), NCPoly.gen("b")), (NCPoly.gen("c"), NCPoly.gen("d")))
WORDS = list(product(GROUP, repeat=2))
RANKS = {"pq": 6, "gh": 6, "qh": 8}


def _t1(row, col):
    (i, j), (k, l) = divmod(row, 2), divmod(col, 2)
    return T[i][k] if j == l else NCPoly.zero()


def _t2(row, col):
    (i, j), (k, l) = divmod(row, 2), divmod(col, 2)
    return T[j][l] if i == k else NCPoly.zero()


def _matmul(f, g):
    return lambda row, col: sum((f(row, m) * g(m, col) for m in range(4)), NCPoly.zero())


def raw_rtt_relations(r: ParamMatrix) -> list:
    """The 16 entries of R (T1 T2) - (T2 T1) R, as NCPolys in the free algebra."""
    def rm(row, col):
        return NCPoly.unit(r[row, col])

    left = _matmul(rm, _matmul(_t1, _t2))
    right = _matmul(_matmul(_t2, _t1), rm)
    return [left(row, col) - right(row, col) for row in range(4) for col in range(4)]


def _rank(polys) -> int:
    return rank(ParamMatrix.from_rows([[p.coefficient(w) for w in WORDS] for p in polys]))


def _group_relations(did) -> list:
    return [NCPoly.from_word(lhs) - rule.rhs
            for lhs, rule in build_group_system(did).by_lhs.items()]


@pytest.mark.parametrize("did", DEFORMATIONS)
def test_rtt_relations_span_the_group_relations(did):
    group = _group_relations(did)
    for k in (None, 1, 2, Fraction(7, 5), -1):
        rels = raw_rtt_relations(build_r(did, k))
        assert len(rels) == 16
        assert all(p.degree() == 2 for p in rels if not p.is_zero())
        assert _rank(rels) == RANKS[did], (did, k)
        assert _rank(rels + group) == RANKS[did], (did, k)


@pytest.mark.parametrize("did", DEFORMATIONS)
def test_rtt_relations_vanish_at_k_zero(did):
    rels = raw_rtt_relations(build_r(did, 0))
    assert all(p.is_zero() for p in rels)
    assert _rank(rels) == 0
