"""Differential tests of the RTT system read off the 16 word normal forms
against the column-by-column assembly from elementary residuals kept in
ref_rtt.py, for the three families and under the group-rule mutants of
test_mutation.py.
"""

from itertools import product

import pytest
import ref_rtt as ref
from test_mutation import MUTANTS, _patch_everywhere

import mbraid.ncalgebra as ncalgebra
import mbraid.rtt as rtt
from mbraid.ncalgebra import GROUP
from mbraid.rtt import assemble

DEFORMATIONS = ("pq", "gh", "qh")
GROUP_MUTANTS = [m for m in MUTANTS if m[1] == "build_group_system"]


def _shape_and_entries(m):
    return m.rows, m.cols, [str(e) for e in m.data]


@pytest.mark.parametrize("d", DEFORMATIONS)
def test_assemble_matches_the_residual_columns(d):
    # same shape, same row order, same printed entries
    assert _shape_and_entries(assemble(d)) == _shape_and_entries(ref.assemble(d))


@pytest.mark.parametrize("index", range(len(GROUP_MUTANTS)))
def test_assemble_matches_the_residual_columns_of_a_mutant(monkeypatch, index):
    pristine = [_shape_and_entries(assemble(d)) for d in DEFORMATIONS]
    _patch_everywhere(monkeypatch, *GROUP_MUTANTS[index])
    monkeypatch.setattr(ref, "build_group_system", ncalgebra.build_group_system)
    mutated = [_shape_and_entries(assemble(d)) for d in DEFORMATIONS]
    assert mutated != pristine
    assert mutated == [_shape_and_entries(ref.assemble(d)) for d in DEFORMATIONS]


def test_assemble_normal_orders_each_quadratic_word_once(monkeypatch):
    # one call per distinct word, each call on that word alone
    calls = []
    real = rtt.normal_order

    def normal_order(p, system):
        calls.append(tuple(p.coeffs))
        return real(p, system)

    def rtt_residual(*args):
        raise AssertionError("assemble called rtt_residual")

    monkeypatch.setattr(rtt, "normal_order", normal_order)
    monkeypatch.setattr(rtt, "rtt_residual", rtt_residual)
    for d in DEFORMATIONS:
        calls.clear()
        assemble(d)
        assert sorted(calls) == [(word,) for word in product(GROUP, repeat=2)], d
