"""The RTT span decision on free coordinates against the rank comparison kept
in ref_rtt.py: the same verdict on the three families, under the group-rule
mutants of test_mutation.py and for a planted off-span catalog matrix.  And
the solve on sparse rows against the dense solve_family kept in ref_rtt.py:
the same rows, free columns, basis and SpanMismatch, terms in order."""

import pytest
import ref_rtt as ref
from test_mutation import MUTANTS, _patch_everywhere
from test_pmatrix_kernel import _assert_same_terms_in_order

import mbraid.catalog as catalog
import mbraid.ncalgebra as ncalgebra
from mbraid.catalog import deformation
from mbraid.pmatrix import ParamMatrix, _nullspace, nullspace
from mbraid.rtt import SpanMismatch, _in_span, _rows, assemble, solve_family
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
    free, basis = _nullspace([{0: ONE, 2: -ONE}, {1: ONE, 3: -2 * ONE}], 4)
    assert free == [2, 3]
    assert [[str(e) for e in vec] for vec in basis] == [["1", "0", "1", "0"],
                                                        ["0", "2", "0", "1"]]
    k, p = sym("K"), sym("p")
    targets = ([ONE, 2 * ONE, ONE, ONE], [k, 2 * p, k, p], [ZERO] * 4, [ONE, ZERO, ONE, ZERO],
               [ONE, ONE, ONE, ONE], [ONE, ZERO, ZERO, ZERO], [k, p, k, p], [ZERO, ZERO, ONE, ZERO])
    verdicts = [_in_span(free, basis, t) for t in targets]
    assert verdicts == [ref.in_span(basis, t) for t in targets]
    assert verdicts == [True] * 4 + [False] * 4


def _outcome(solve, d):
    try:
        return [m.data for m in solve(d)]
    except SpanMismatch as exc:
        return str(exc)


def _assert_solved_as_the_dense_oracle():
    """Per family: the sorted rows, free columns and basis of the sparse
    solve and the oracle's, terms in order, then solve_family's matrices or
    SpanMismatch message against the oracle's."""
    refused = []
    for d in DEFORMATIONS:
        rows = sorted(_rows(d), key=len)
        want = ref.sorted_system(d)
        assert len(rows) == want.rows
        for i, row in enumerate(rows):
            _assert_same_terms_in_order([row.get(j, ZERO) for j in range(16)], want.row(i))
        free, basis = _nullspace(rows, 16)
        want_free, want_basis = ref.nullspace_with_free(want)
        assert free == want_free
        assert len(basis) == len(want_basis)
        for vec, want_vec in zip(basis, want_basis):
            _assert_same_terms_in_order(vec, want_vec)
        got, expected = _outcome(solve_family, d), _outcome(ref.solve_family, d)
        if isinstance(expected, str):
            assert got == expected
            refused.append(d)
        else:
            assert len(got) == len(expected)
            for mat, want_mat in zip(got, expected):
                _assert_same_terms_in_order(mat, want_mat)
    return refused


def test_the_families_are_solved_as_the_dense_oracle_solves_them():
    assert _assert_solved_as_the_dense_oracle() == []


@pytest.mark.parametrize("index", range(len(GROUP_MUTANTS)))
def test_a_group_mutant_is_solved_as_the_dense_oracle_solves_it(monkeypatch, index):
    _patch_everywhere(monkeypatch, *GROUP_MUTANTS[index])
    monkeypatch.setattr(ref, "build_group_system", ncalgebra.build_group_system)
    assert _assert_solved_as_the_dense_oracle() != []
