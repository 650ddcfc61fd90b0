import itertools
import random

import pytest

from mbraid.pmatrix import (
    DimensionMismatch,
    ParamMatrix,
    Singular,
    embed12,
    embed23,
    flip21,
    inverse,
    kron,
    nullspace,
    perm_operator,
    rank,
)
from mbraid.scalars import ONE, ZERO, const, sym

K = sym("K")
P = sym("p")
Q = sym("q")


def _random_matrix(rng, n, m):
    return ParamMatrix(n, m, [const(rng.randint(-3, 3)) for _ in range(n * m)])


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        ParamMatrix(2, 2, [ONE, ONE, ONE])
    with pytest.raises(DimensionMismatch):
        ParamMatrix.from_rows([[ONE], [ONE, ONE]])
    a = ParamMatrix.identity(2)
    b = ParamMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        a @ b
    with pytest.raises(DimensionMismatch):
        a + b


def test_matmul_identity_and_associativity():
    rng = random.Random(7)
    a = _random_matrix(rng, 3, 3)
    b = _random_matrix(rng, 3, 2)
    c = _random_matrix(rng, 2, 4)
    i3 = ParamMatrix.identity(3)
    assert i3 @ a == a
    assert a @ i3 == a
    assert (a @ b) @ c == a @ (b @ c)


def test_kron_mixed_product_rule():
    rng = random.Random(11)
    a = _random_matrix(rng, 2, 2)
    b = _random_matrix(rng, 2, 2)
    c = _random_matrix(rng, 2, 2)
    d = _random_matrix(rng, 2, 2)
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_flip21_swaps_kron_factors():
    rng = random.Random(13)
    a = _random_matrix(rng, 2, 2)
    b = _random_matrix(rng, 2, 2)
    assert flip21(kron(a, b)) == kron(b, a)
    x = _random_matrix(rng, 4, 4)
    y = _random_matrix(rng, 4, 4)
    assert flip21(x @ y) == flip21(x) @ flip21(y)
    assert flip21(flip21(x)) == x


def test_flip21_is_the_swap_conjugation():
    for rows, cols in ((2, 2), (4, 2)):
        with pytest.raises(DimensionMismatch):
            flip21(ParamMatrix(rows, cols, [ONE] * (rows * cols)))
    entries = [K * n + P / Q for n in range(16)]
    entries[0] = entries[5] = entries[10] = ZERO
    entries[7] = K - K  # a zero that is not the ZERO object
    entries[9] = ONE
    m = ParamMatrix(4, 4, entries)
    out = flip21(m)
    perm = (0, 2, 1, 3)
    for i in range(4):
        for j in range(4):
            e = m[perm[i], perm[j]]
            if e.is_zero():
                assert out[i, j].is_zero(), (i, j)
            else:
                assert out[i, j] is e, (i, j)


def test_embeddings_commute_when_disjoint():
    rng = random.Random(17)
    a = _random_matrix(rng, 4, 4)
    i2 = ParamMatrix.identity(2)
    assert embed12(a) == kron(a, i2)
    assert embed23(a) == kron(i2, a)
    # [a (x) I, I (x) b] = 0 only when the supports are disjoint, which they
    # are not here; instead check embed12/embed23 against direct kron products
    b = _random_matrix(rng, 2, 2)
    c = _random_matrix(rng, 2, 2)
    lhs = embed12(kron(b, c))
    assert lhs == kron(kron(b, c), i2)


def test_perm_operator_composition():
    p12 = perm_operator((2, 1, 3))
    p13 = perm_operator((3, 2, 1))
    p23 = perm_operator((1, 3, 2))
    assert p12 @ p12 == ParamMatrix.identity(8)
    assert p13 @ p12 == perm_operator((2, 3, 1))
    assert p13 @ p23 == perm_operator((3, 1, 2))
    # homomorphism P_s P_t = P_(s o t), (s o t)(i) = s(t(i)), on every pair
    perms = list(itertools.permutations((1, 2, 3)))
    for s in perms:
        for t in perms:
            st = tuple(s[i - 1] for i in t)
            assert perm_operator(s) @ perm_operator(t) == perm_operator(st), (s, t)
    with pytest.raises(ValueError):
        perm_operator((1, 1, 2))


def test_perm_operator_action_on_simple_tensor():
    # P_(21) (v (x) w) = w (x) v in the big-endian basis
    v = [const(2), const(3)]
    w = [const(5), const(7)]
    vw = [v[i] * w[j] for i in range(2) for j in range(2)]
    wv = [w[i] * v[j] for i in range(2) for j in range(2)]
    p = perm_operator((2, 1))
    applied = [sum((p[i, j] * vw[j] for j in range(4)), ZERO) for i in range(4)]
    assert applied == wv


def test_inverse_and_singular():
    rng = random.Random(19)
    m = ParamMatrix.from_rows([[K + 1, P], [Q, ONE]])
    assert inverse(m) @ m == ParamMatrix.identity(2)
    assert m @ inverse(m) == ParamMatrix.identity(2)
    with pytest.raises(Singular):
        inverse(ParamMatrix.from_rows([[ONE, ONE], [ONE, ONE]]))
    with pytest.raises(Singular):
        inverse(ParamMatrix.from_rows([[ZERO, ZERO], [ZERO, ZERO]]))
    a = _random_matrix(rng, 3, 3)
    while rank(a) < 3:
        a = _random_matrix(rng, 3, 3)
    assert inverse(inverse(a)) == a


def test_rank_and_nullspace():
    m = ParamMatrix.from_rows([
        [ONE, const(2), const(3)],
        [const(2), const(4), const(6)],
    ])
    assert rank(m) == 1
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        out = [sum((m[i, j] * v[j] for j in range(3)), ZERO) for i in range(2)]
        assert all(e.is_zero() for e in out)
    assert rank(ParamMatrix.identity(4)) == 4
    assert nullspace(ParamMatrix.identity(4)) == []


def test_nullspace_deterministic():
    m = ParamMatrix.from_rows([[ONE, K, P]])
    b1 = nullspace(m)
    b2 = nullspace(m)
    assert [[str(e) for e in v] for v in b1] == [[str(e) for e in v] for v in b2]
    assert len(b1) == 2


def test_pretty_print_alignment():
    m = ParamMatrix.from_rows([[K + 1, ONE], [ZERO, K * K - 1]])
    text = str(m)
    lines = text.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("[ ") and line.endswith(" ]") for line in lines)
    assert len(lines[0]) == len(lines[1])
