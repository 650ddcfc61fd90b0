"""Differential tests of the permutation products that move entries instead of
multiplying by 0s and 1s: flip21, catalog.build_r, perm_apply,
perm_conjugate and the permutation products of mbe_r_form, against the
matmul loop kept in ref_pmatrix.py applied to the 0/1 matrices of
perm_operator (embed12 and embed23 are checked against its kron loop in
test_pmatrix_kernel.py).

RatFunc is not canonical, so entries are compared term by term, in order,
not just as values.  Every matrix holds a zero that is not the ZERO object."""

import itertools
import random

import pytest
import ref_pmatrix as ref
from test_pmatrix_kernel import NONZERO, _assert_same_terms_in_order

import mbraid.identities as identities
from mbraid import pmatrix
from mbraid.catalog import build_r, build_rhat, deformation, triangular_K
from mbraid.pmatrix import (DimensionMismatch, ParamMatrix, flip21, perm_apply,
                            perm_conjugate, perm_operator)
from mbraid.scalars import ZERO, sym

K = sym("K")
DEFORMATIONS = ("pq", "gh", "qh")
PERMS3 = list(itertools.permutations((1, 2, 3)))


def _matrix(rng, n, m):
    """Random entries, a third of them ZERO, and one zero that is not ZERO."""
    data = [ZERO if rng.random() < 0.3 else rng.choice(NONZERO) for _ in range(n * m)]
    data[rng.randrange(n * m)] = K - K
    return ParamMatrix(n, m, data)


def _conjugated(p, m):
    # p is a permutation matrix, so its inverse is its transpose
    pt = ParamMatrix(p.rows, p.cols, [p[j, i] for i in range(p.rows) for j in range(p.cols)])
    return ref.matmul(ref.matmul(p, m), pt)


def test_flip21_matches_the_swap_products():
    rng = random.Random("flip21")
    swap = perm_operator((2, 1))
    for _ in range(20):
        m = _matrix(rng, 4, 4)
        _assert_same_terms_in_order(flip21(m).data,
                                    ref.matmul(ref.matmul(swap, m), swap).data)


@pytest.mark.parametrize("d", DEFORMATIONS)
def test_build_r_matches_the_swap_product(d):
    swap = perm_operator((2, 1))
    for k in (None, 1, deformation(d).K2, triangular_K(d), K - K):
        rhat = build_rhat(d, k)
        _assert_same_terms_in_order(build_r(d, k).data, ref.matmul(swap, rhat).data)


@pytest.mark.parametrize("sigma", PERMS3)
def test_permutations_match_the_operator_products(sigma):
    rng = random.Random(f"perm:{sigma}")
    p = perm_operator(sigma)
    for _ in range(5):
        m = _matrix(rng, 8, 8)
        _assert_same_terms_in_order(perm_apply(sigma, m).data, ref.matmul(p, m).data)
        _assert_same_terms_in_order(perm_conjugate(sigma, m).data, _conjugated(p, m).data)
        tall = _matrix(rng, 8, 3)
        _assert_same_terms_in_order(perm_apply(sigma, tall).data, ref.matmul(p, tall).data)
    with pytest.raises(DimensionMismatch):
        perm_apply(sigma, ParamMatrix.identity(4))
    with pytest.raises(DimensionMismatch):
        perm_conjugate(sigma, _matrix(rng, 8, 3))
    with pytest.raises(ValueError):
        perm_apply((1, 1, 2), ParamMatrix.identity(8))


def _mbe_r_form_by_products(r, lam):
    """mbe_r_form of r and the scalar lam with every product a dense loop
    over 0/1 matrices."""
    ident = ParamMatrix.identity(2)
    r12, r23 = ref.kron(r, ident), ref.kron(ident, r)
    r13 = _conjugated(perm_operator((1, 3, 2)), r12)
    lhs = ref.sub(ref.matmul(ref.matmul(r12, r13), r23), ref.matmul(ref.matmul(r23, r13), r12))
    rhs = ref.sub(ref.matmul(perm_operator((3, 1, 2)), r23),
                  ref.matmul(perm_operator((2, 3, 1)), r12))
    return ref.sub(lhs, ref.scale(rhs, lam))


@pytest.mark.parametrize("d", DEFORMATIONS)
def test_mbe_r_form_keeps_both_triple_products(monkeypatch, d):
    # the four products of R12 R13 R23 and R23 R13 R12, and no other
    operands = []
    real = pmatrix.ParamMatrix.__matmul__

    def matmul(a, b):
        operands.append((a.rows, b.cols))
        return real(a, b)

    monkeypatch.setattr(pmatrix.ParamMatrix, "__matmul__", matmul)
    got = identities.mbe_r_form(d)
    assert operands == [(8, 8)] * 4
    monkeypatch.undo()
    assert got.is_zero()
    want = _mbe_r_form_by_products(build_r(d), identities.mbe_factor(d))
    _assert_same_terms_in_order(got.data, want.data)


def test_a_shifted_r_fails_mbe_r_form(monkeypatch):
    # a cross-check that cannot fail checks nothing
    r = build_r("pq")
    data = list(r.data)
    data[6] = data[6] + K
    shifted = ParamMatrix(4, 4, data)
    monkeypatch.setattr(identities, "build_r", lambda d, k=None: shifted)
    got = identities.mbe_r_form("pq")
    assert not got.is_zero()
    want = _mbe_r_form_by_products(shifted, identities.mbe_factor("pq"))
    _assert_same_terms_in_order(got.data, want.data)
