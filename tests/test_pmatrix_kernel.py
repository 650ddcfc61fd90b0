"""Differential test of the sparse matrix kernels against the dense loops
kept in ref_pmatrix.py.

RatFunc is not canonical, so the order in which terms are added can change
how a sum is written.  Every entry must therefore match the reference
representation for representation, not just as a value."""

import random
import sys
from fractions import Fraction

import pytest
import ref_pmatrix as ref

from mbraid.catalog import DEFORMATIONS
from mbraid.pmatrix import (ParamMatrix, _nullspace, _rref, _sparse_rows, embed12, embed23,
                            kron, nullspace, rank)
from mbraid.rtt import solve_family
from mbraid.scalars import ONE, ZERO, Poly, RatFunc, const, sym

K, P, Q = sym("K"), sym("p"), sym("q")

# shared non-monomial denominators next to distinct ones make the written
# form of a sum depend on the order of its terms
NONZERO = [
    ONE, -ONE, const(Fraction(1, 2)), const(Fraction(-3, 4)), const(5),
    RatFunc(Poly({(0,) * 6: Fraction(1)})),
    K, P - Q, ONE / (K + 1), 2 / (K + 1), P / (K + 1), ONE / (P + 1),
    Q / (P + 1), (K - 1) / (2 * Q), (P - Q) / (P * Q), K * K / (Q - 1),
]
# elimination multiplies entries up without a gcd, so its pool stays small
ELIMINATION = NONZERO[:8] + [ONE / (K + 1), 2 / (K + 1), ONE / (P + 1)]
ZERO_SHARE = 0.65


def _entry(rng, pool):
    return ZERO if rng.random() < ZERO_SHARE else rng.choice(pool)


def _random_matrix(rng, n, m, pool=NONZERO):
    return ParamMatrix(n, m, [_entry(rng, pool) for _ in range(n * m)])


def _plant_cancellation(rng, a, b):
    """Make the sum a[i] . b[:, j] reach zero at term k2 and go on after it."""
    i, j = rng.randrange(a.rows), rng.randrange(b.cols)
    k1, k2, k3 = sorted(rng.sample(range(a.cols), 3))
    v, w = rng.choice(NONZERO), rng.choice(NONZERO)
    for k in range(k2):
        a.data[i * a.cols + k] = ZERO
    a.data[i * a.cols + k1] = a.data[i * a.cols + k2] = v
    a.data[i * a.cols + k3] = w
    b.data[k1 * b.cols + j], b.data[k2 * b.cols + j] = ONE, -ONE
    b.data[k3 * b.cols + j] = rng.choice(NONZERO)


def _assert_same_terms_in_order(got, want):
    """Every entry has the dense loop's terms in the same order and prints
    the same: RatFunc is not canonical, and term order is part of how an
    entry is written."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g.num.terms.items()) == list(w.num.terms.items())
        assert list(g.den.terms.items()) == list(w.den.terms.items())
        assert str(g) == str(w)


@pytest.mark.parametrize("shape", [(4, 4, 4), (8, 8, 8), (4, 8, 3)])
def test_matmul_matches_dense_loop(shape):
    rng = random.Random(f"matmul:{shape}")
    n, k, m = shape
    for _ in range(20):
        a, b = _random_matrix(rng, n, k), _random_matrix(rng, k, m)
        _plant_cancellation(rng, a, b)
        _assert_same_terms_in_order((a @ b).data, ref.matmul(a, b).data)
        # a product of products, the shape of the triple-product checks
        if n == k == m == 4:
            c = _random_matrix(rng, n, n)
            _assert_same_terms_in_order((a @ b @ c).data,
                                        ref.matmul(ref.matmul(a, b), c).data)


def test_kron_matches_dense_loop():
    rng = random.Random("kron")
    ident = ParamMatrix.identity(2)
    for _ in range(4):
        for shape_a, shape_b in [((2, 2), (4, 4)), ((4, 4), (2, 2)), ((2, 3), (3, 2))]:
            a, b = _random_matrix(rng, *shape_a), _random_matrix(rng, *shape_b)
            _assert_same_terms_in_order(kron(a, b).data, ref.kron(a, b).data)
        for shape in ((4, 4), (2, 3)):
            r = _random_matrix(rng, *shape)
            # embed12 and embed23 move entries, zeros that are not ZERO too
            r.data[rng.randrange(len(r.data))] = K - K
            _assert_same_terms_in_order(embed12(r).data, ref.kron(r, ident).data)
            _assert_same_terms_in_order(embed23(r).data, ref.kron(ident, r).data)


@pytest.mark.parametrize("shape", [(4, 4), (8, 8), (3, 5)])
def test_entrywise_operations_match_dense_loops(shape):
    rng = random.Random(f"entrywise:{shape}")
    factors = [2, ZERO, ONE, P / (K + 1)]
    for _ in range(20):
        a, b = _random_matrix(rng, *shape), _random_matrix(rng, *shape)
        _assert_same_terms_in_order((a + b).data, ref.add(a, b).data)
        _assert_same_terms_in_order((a - b).data, ref.sub(a, b).data)
        _assert_same_terms_in_order((a - a).data, ref.sub(a, a).data)
        _assert_same_terms_in_order((-a).data, ref.neg(a).data)
        for s in factors + [rng.choice(NONZERO)]:
            _assert_same_terms_in_order(a.scale(s).data, ref.scale(a, s).data)


def _assert_same_elimination(m):
    """_rref on the rows of m reduces them to the dense loop's work rows,
    compared densified, with the same pivots."""
    work = _sparse_rows(m)
    pivots = _rref(work, m.cols)
    want_work, want_pivots = ref._rref(m)
    assert pivots == want_pivots
    assert len(work) == len(want_work)
    for row, want_row in zip(work, want_work):
        _assert_same_terms_in_order([row.get(j, ZERO) for j in range(m.cols)], want_row)
    return pivots


@pytest.mark.parametrize("seed", range(6))
def test_elimination_matches_dense_loop(seed):
    rng = random.Random(f"rref:{seed}")
    m = _random_matrix(rng, 16, 5, ELIMINATION)
    # two dependent columns, so the nullspace is not empty and rows cancel
    v, w = rng.choice(ELIMINATION), rng.choice(ELIMINATION)
    for i in range(m.rows):
        m.data[i * 5 + 3] = m[i, 0] * v + m[i, 1]
        m.data[i * 5 + 4] = m[i, 2] * w - m[i, 0]
    _assert_same_elimination(m)
    assert rank(m) == ref.rank(m) <= 3
    basis, want_basis = nullspace(m), ref.nullspace(m)
    assert len(basis) == len(want_basis) >= 2
    for vec, want_vec in zip(basis, want_basis):
        _assert_same_terms_in_order(vec, want_vec)


def _tall_sparse(rng, n):
    """n rows over 7 columns shaped like the RTT system: single-entry rows,
    exact and negated copies of earlier rows and all-zero rows among random
    ones.  Columns 4 and 5 are combinations of columns 0-2 in every row, so
    the nullspace keeps at least two vectors."""
    v, w = rng.choice(ELIMINATION), rng.choice(ELIMINATION)
    rows = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.4:
            row = [ZERO] * 7
            row[rng.choice((3, 6))] = rng.choice(ELIMINATION)
        elif kind < 0.55 and rows:
            row = list(rng.choice(rows))
        elif kind < 0.7 and rows:
            row = [-e for e in rng.choice(rows)]
        elif kind < 0.75:
            row = [ZERO] * 7
        else:
            row = [_entry(rng, ELIMINATION) for _ in range(7)]
            row[3] = ZERO
            row[4] = row[0] * v + row[1]
            row[5] = row[2] * w - row[0]
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_elimination_of_tall_sparse_rows_matches_dense_loop(seed):
    rng = random.Random(f"tall:{seed}")
    rows = _tall_sparse(rng, 30)
    # as built, and sparsest first as rtt.solve_family hands its rows over
    for order in (rows, sorted(rows, key=lambda row: sum(not e.is_zero() for e in row))):
        m = ParamMatrix.from_rows(order)
        pivots = _assert_same_elimination(m)
        free, basis = _nullspace(_sparse_rows(m), m.cols)
        want_basis = ref.nullspace(m)
        assert free == [c for c in range(m.cols) if c not in pivots]
        assert len(basis) == len(want_basis) >= 2
        for vec, want_vec in zip(basis, want_basis):
            _assert_same_terms_in_order(vec, want_vec)


def test_elimination_of_the_rtt_systems_negates_only_multipliers_it_uses(monkeypatch):
    # a pivot row with no other entry updates nothing, so every entry _rref
    # negates must be the left factor of a product _rref forms
    negated, used = [], set()
    real_neg, real_mul = RatFunc.__neg__, RatFunc.__mul__

    def neg(self):
        out = real_neg(self)
        if sys._getframe(1).f_code is _rref.__code__:
            negated.append(out)  # kept alive, so no id is reused
        return out

    def mul(self, other):
        if sys._getframe(1).f_code is _rref.__code__:
            used.add(id(self))
        return real_mul(self, other)

    monkeypatch.setattr(RatFunc, "__neg__", neg)
    monkeypatch.setattr(RatFunc, "__mul__", mul)
    for d in DEFORMATIONS:
        assert len(solve_family(d)) == 2
    assert negated
    assert [g for g in negated if id(g) not in used] == []
