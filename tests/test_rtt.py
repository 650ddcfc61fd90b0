import random
from fractions import Fraction

import pytest

import mbraid.rtt as rtt_module
from mbraid.catalog import build_r
from mbraid.ncalgebra import build_group_system
from mbraid.pmatrix import ParamMatrix, rank
from mbraid.rtt import SpanMismatch, assemble, rtt_residual, solve_family
from mbraid.scalars import ONE

DEFORMATIONS = ("pq", "gh", "qh")


def test_residual_zero_for_catalog_family():
    # symbolic in K and in all deformation parameters
    for did in DEFORMATIONS:
        res = rtt_residual(build_r(did), build_group_system(did))
        assert all(res[i][j].is_zero() for i in range(4) for j in range(4)), did


def test_residual_nonzero_for_identity():
    res = rtt_residual(ParamMatrix.identity(4), build_group_system("pq"))
    assert any(not res[i][j].is_zero() for i in range(4) for j in range(4))


def test_rtt_residual_is_linear():
    # the residual is linear in R, so the rows assemble() adds word by word
    # sum to the residual of any R
    rng = random.Random(90210)

    def rational_r():
        return ParamMatrix(4, 4, [ONE * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                  for _ in range(16)])

    for did in DEFORMATIONS:
        system = build_group_system(did)
        r1, r2 = rational_r(), rational_r()
        c = Fraction(rng.randint(2, 9), rng.randint(10, 19))
        res1, res2 = rtt_residual(r1, system), rtt_residual(r2, system)
        summed = rtt_residual(r1 + r2, system)
        scaled = rtt_residual(r1.scale(c), system)
        cells = [(i, j) for i in range(4) for j in range(4)]
        assert any(not res1[i][j].is_zero() for i, j in cells), did
        assert any(not res2[i][j].is_zero() for i, j in cells), did
        for i, j in cells:
            assert summed[i][j] == res1[i][j] + res2[i][j], (did, i, j)
            assert scaled[i][j] == res1[i][j].scale(c), (did, i, j)


def test_residual_rejects_wrong_shape():
    with pytest.raises(ValueError):
        rtt_residual(ParamMatrix.identity(2), build_group_system("pq"))


def test_assembled_system_is_coupling_free():
    for did in DEFORMATIONS:
        sysm = assemble(did)
        assert sysm.cols == 16
        assert all("K" not in e.symbols() for e in sysm.data), did


def _fraction_rank(rows):
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    rk = 0
    for c in range(nc):
        piv = next((i for i in range(rk, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = Fraction(1) / rows[rk][c]
        rows[rk] = [inv * x for x in rows[rk]]
        for i in range(nr):
            if i != rk and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def test_nullity_matches_independent_elimination_oracle():
    # plain-Fraction row reduction at random rational points, sharing no code
    # with the symbolic elimination
    rng = random.Random(424242)
    for did in DEFORMATIONS:
        sysm = assemble(did)
        vals = {s: Fraction(rng.randint(2, 40), rng.randint(41, 80))
                for s in ("p", "q", "g", "h")}
        vals.update({"K": 0, "u": 0})
        numeric = [[e.eval(vals) for e in sysm.row(i)]
                   for i in range(sysm.rows)]
        assert 16 - _fraction_rank(numeric) == 2, did


def test_solution_space_dimension_two():
    for did in DEFORMATIONS:
        assert len(solve_family(did)) == 2, did


def test_family_members_satisfy_rtt():
    for did in DEFORMATIONS:
        system = build_group_system(did)
        for member in solve_family(did):
            res = rtt_residual(member, system)
            assert all(res[i][j].is_zero() for i in range(4) for j in range(4))


def test_catalog_affine_family_in_span():
    for did in DEFORMATIONS:
        basis = solve_family(did)  # raises SpanMismatch on failure
        span_cols = [m.data for m in basis]
        for k in (0, 1, None):
            vec = build_r(did, k).data
            span = ParamMatrix(16, len(span_cols),
                               [col[i] for i in range(16) for col in span_cols])
            aug = ParamMatrix(16, len(span_cols) + 1,
                              [e for i in range(16)
                               for e in [*(col[i] for col in span_cols), vec[i]]])
            assert rank(aug) == rank(span) == 2, did


def test_span_mismatch_detected(monkeypatch):
    ones = ParamMatrix(4, 4, [ONE] * 16)
    monkeypatch.setattr(rtt_module, "build_r", lambda d, k=None: ones)
    with pytest.raises(SpanMismatch):
        solve_family("pq")


def test_solve_family_deterministic():
    a = [str(m) for m in solve_family("pq")]
    b = [str(m) for m in solve_family("pq")]
    assert a == b
