"""rtt_residual against the exchange relation built from its definition.

T1 = T (x) I and T2 = I (x) T are 4x4 matrices of NCPoly words, so that
(T1 T2)[(ik), (jl)] = T[i,j] T[k,l] and (T2 T1)[(ik), (jl)] = T[k,l] T[i,j];
R.(T1 T2) - (T2 T1).R is then a plain product of NCPoly matrices, normal-ordered
cell by cell.  Nothing here comes from mbraid.rtt but the function under test,
so this oracle does not share the word table that rtt_residual and assemble
both read (tests/ref_rtt.py builds on rtt_residual itself).
"""

import random
from fractions import Fraction

import pytest
from test_mutation import MUTANTS

from mbraid.catalog import build_r
from mbraid.ncalgebra import NCPoly, build_group_system, normal_order
from mbraid.pmatrix import ParamMatrix
from mbraid.rtt import rtt_residual
from mbraid.scalars import ONE, ZERO, const, substitute, sym

DEFORMATIONS = ("pq", "gh", "qh")
GROUP_MUTANTS = [m for m in MUTANTS if m[1] == "build_group_system"]
T = (("a", "b"), ("c", "d"))
PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]  # (ik) -> 2i + k, first index most significant


def _kron(left, right):
    """Kronecker product of two 2x2 matrices of NCPolys, as a 4x4 nested list."""
    return [[left[i][j] * right[k][l] for j, l in PAIRS] for i, k in PAIRS]


def _matmul(x, y):
    return [[sum((x[r][m] * y[m][c] for m in range(4)), NCPoly.zero()) for c in range(4)]
            for r in range(4)]


_GEN = [[NCPoly.gen(letter) for letter in line] for line in T]
_ID = [[NCPoly.unit(ONE if i == j else ZERO) for j in range(2)] for i in range(2)]
T1, T2 = _kron(_GEN, _ID), _kron(_ID, _GEN)
T1T2, T2T1 = _matmul(T1, T2), _matmul(T2, T1)


def _oracle(r, system):
    lifted = [[NCPoly.unit(r[i, j]) for j in range(4)] for i in range(4)]
    left, right = _matmul(lifted, T1T2), _matmul(T2T1, lifted)
    return [[normal_order(left[i][j] - right[i][j], system) for j in range(4)]
            for i in range(4)]


def _seeded(seed):
    rng = random.Random(seed)
    k = sym("K")
    data = []
    for _ in range(16):
        roll = rng.random()
        if roll < 0.25:
            data.append(ZERO)
        elif roll < 0.75:
            data.append(const(Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
        else:
            data.append(k * rng.randint(-3, 3) + Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return ParamMatrix(4, 4, data)


def _matrices(d):
    r = build_r(d)
    return {
        "catalog": r,
        "catalog at K = 2": ParamMatrix(4, 4, [substitute(e, {"K": 2}) for e in r.data]),
        "identity": ParamMatrix(4, 4, [ONE if i % 5 == 0 else ZERO for i in range(16)]),
        "seeded 1": _seeded(1),
        "seeded 2": _seeded(2),
    }


def _vanishes(cells):
    return all(p.is_zero() for line in cells for p in line)


def test_the_definition_gives_the_two_word_formulas():
    for row, (i, k) in enumerate(PAIRS):
        for col, (j, l) in enumerate(PAIRS):
            assert T1T2[row][col] == NCPoly.from_word((T[i][j], T[k][l]))
            assert T2T1[row][col] == NCPoly.from_word((T[k][l], T[i][j]))


@pytest.mark.parametrize("d", DEFORMATIONS)
def test_residual_matches_the_definition(d):
    system = build_group_system(d)
    for name, r in _matrices(d).items():
        assert rtt_residual(r, system) == _oracle(r, system), name


@pytest.mark.parametrize("d", DEFORMATIONS)
def test_only_the_catalog_family_has_a_zero_residual(d):
    # the oracle sees the relation, not just zero against zero
    system = build_group_system(d)
    for name, r in _matrices(d).items():
        assert _vanishes(_oracle(r, system)) == name.startswith("catalog"), name


@pytest.mark.parametrize("index", range(len(GROUP_MUTANTS)))
def test_residual_matches_the_definition_under_a_group_mutant(index):
    make = GROUP_MUTANTS[index][2]
    build = make(build_group_system)
    broken = []
    for d in DEFORMATIONS:
        system = build(d)
        for label, r in _matrices(d).items():
            expected = _oracle(r, system)
            assert rtt_residual(r, system) == expected, (d, label)
            if label == "catalog" and not _vanishes(expected):
                broken.append(d)
    # the catalog R of the mutated family, and only that one, breaks the relation
    assert len(broken) == 1, index
