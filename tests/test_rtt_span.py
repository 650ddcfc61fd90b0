"""The RTT span decision on free coordinates against the rank comparison kept
in ref_rtt.py: the same verdict on the three families, under the group-rule
mutants of test_mutation.py and for a planted off-span catalog matrix."""

import pytest
import ref_rtt as ref
from test_mutation import MUTANTS, _patch_everywhere

import mbraid.catalog as catalog
from mbraid.catalog import deformation
from mbraid.pmatrix import ParamMatrix, nullspace
from mbraid.rtt import SpanMismatch, _in_span, assemble, solve_family
from mbraid.scalars import ONE, ZERO, sym

DEFORMATIONS = ("pq", "gh", "qh")
GROUP_MUTANTS = [m for m in MUTANTS if m[1] == "build_group_system"]


def _verdicts():
    """(solve_family's verdict, the rank comparison's) per family."""
    out = []
    for d in DEFORMATIONS:
        try:
            solve_family(d)
            new = True
        except SpanMismatch:
            new = False
        out.append((new, ref.in_span(nullspace(assemble(d)), catalog.build_r(d).data)))
    return out


def test_the_families_lie_in_their_span():
    assert _verdicts() == [(True, True)] * 3


@pytest.mark.parametrize("index", range(len(GROUP_MUTANTS)))
def test_a_group_mutant_gets_the_rank_verdict(monkeypatch, index):
    _patch_everywhere(monkeypatch, *GROUP_MUTANTS[index])
    verdicts = _verdicts()
    assert all(new == old for new, old in verdicts), verdicts
    assert (False, False) in verdicts


def _off_span(real):
    # R + q E12: the other families are left as they are
    def build(d, k=None):
        m = real(d, k)
        if deformation(d).id != "pq":
            return m
        data = list(m.data)
        data[4 * 1 + 2] = data[4 * 1 + 2] + sym("q")
        return ParamMatrix(4, 4, data)
    return build


def test_a_planted_off_span_catalog_raises(monkeypatch):
    _patch_everywhere(monkeypatch, catalog, "build_r", _off_span)
    with pytest.raises(SpanMismatch, match="pq: catalog matrix outside"):
        solve_family("pq")
    assert _verdicts() == [(False, False), (True, True), (True, True)]


def test_the_free_columns_come_from_the_pivots():
    # x0 = x2 and x1 = 2 x3: the vector of free column 2 is 1 at pivot
    # column 0 as well, so a search for the 1s could not tell its free column
    m = ParamMatrix(2, 4, [ONE, ZERO, -ONE, ZERO,
                           ZERO, ONE, ZERO, -2 * ONE])
    free, basis = nullspace(m, with_free=True)
    assert free == [2, 3]
    assert [[str(e) for e in vec] for vec in basis] == [["1", "0", "1", "0"],
                                                        ["0", "2", "0", "1"]]
    k, p = sym("K"), sym("p")
    targets = ([ONE, 2 * ONE, ONE, ONE], [k, 2 * p, k, p], [ZERO] * 4, [ONE, ZERO, ONE, ZERO],
               [ONE, ONE, ONE, ONE], [ONE, ZERO, ZERO, ZERO], [k, p, k, p], [ZERO, ZERO, ONE, ZERO])
    verdicts = [_in_span(free, basis, t) for t in targets]
    assert verdicts == [ref.in_span(basis, t) for t in targets]
    assert verdicts == [True] * 4 + [False] * 4
