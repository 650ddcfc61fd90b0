"""Exchange relations R.(T1 T2) = (T2 T1).R over one quantum-group algebra.

T is the 2x2 generator matrix [[a, b], [c, d]].  In the tensor-square basis
(row (ik), column (jl), first index most significant), cell (ik, jl) of
R.(T1 T2) - (T2 T1).R is the sum over mid = (mn) of

    R[(ik), (mn)] T[m,j] T[n,l] - R[(mn), (jl)] T[k,n] T[i,m]

_EXCHANGE lists the eight terms of each cell as (index of R, sign, word); both
routes read it.  assemble() normal-orders each of the 16 quadratic words once
and adds its normal form into the rows of the linear system, one row per (cell,
normal word), dropping rows that cancel to zero.  rtt_residual instead
normal-orders each cell of one given R; rtt:residual uses it, so the two RTT
checks reach their answers by different routes.  Both store the first term of a
sum, c or -c, as it is, which is what 0 + c and 0 - c return.  Oracles:
tests/ref_rtt.py for assemble, tests/test_rtt_exchange.py (T1 T2 and T2 T1
built without the table) for rtt_residual.  solve_family returns the nullspace
reshaped to 4x4; the basis vectors are independent, so the catalog family lies
in their span exactly when appending it leaves the rank unchanged.
"""

from __future__ import annotations

from .catalog import build_r, deformation
from .ncalgebra import NCPoly, RewriteSystem, build_group_system, normal_order
from .pmatrix import ParamMatrix, rank
from .pmatrix import nullspace as _nullspace
from .scalars import ONE, ZERO


class SpanMismatch(ArithmeticError):
    """The catalog family is not contained in the solved solution span."""


_T = (("a", "b"), ("c", "d"))
_PAIRS = [(i, k) for i in range(2) for k in range(2)]
# _EXCHANGE[4 * row + col]: the terms of cell (row, col), mid by mid
_EXCHANGE = [[term for mid, (m, n) in enumerate(_PAIRS) for term in (
    (4 * row + mid, 1, (_T[m][j], _T[n][l])),     # R.(T1 T2)
    (4 * mid + col, -1, (_T[k][n], _T[i][m])))]   # (T2 T1).R
    for row, (i, k) in enumerate(_PAIRS) for col, (j, l) in enumerate(_PAIRS)]


def rtt_residual(r: ParamMatrix, system: RewriteSystem) -> list:
    """Normal-ordered entries of R.(T1 T2) - (T2 T1).R as a 4x4 nested list."""
    if (r.rows, r.cols) != (4, 4):
        raise ValueError("RTT residual needs a 4x4 matrix")
    cells = []
    for terms in _EXCHANGE:
        acc: dict = {}
        for index, sign, word in terms:
            c = r.data[index]
            if not c.is_zero():
                prev = acc.get(word, ZERO)
                if prev.is_zero():
                    acc[word] = c if sign > 0 else -c
                else:
                    acc[word] = prev + c if sign > 0 else prev - c
        cells.append(normal_order(NCPoly(acc), system))
    return [cells[4 * row:4 * row + 4] for row in range(4)]


def assemble(d) -> ParamMatrix:
    """Linear system over the 16 entries of R, one row per (cell, word)."""
    system = build_group_system(d)
    forms: dict = {}
    rows: dict = {}
    for cell, terms in enumerate(_EXCHANGE):
        for index, sign, word in terms:
            if word not in forms:
                forms[word] = normal_order(NCPoly({word: ONE}), system)
            for w, c in forms[word].coeffs.items():
                line = rows.setdefault((cell, w), [ZERO] * 16)
                prev = line[index]
                if prev.is_zero():
                    line[index] = c if sign > 0 else -c
                else:
                    line[index] = prev + c if sign > 0 else prev - c
    kept = [key for key in sorted(rows) if not all(e.is_zero() for e in rows[key])]
    return ParamMatrix(len(kept), 16, [e for key in kept for e in rows[key]])


def solve_family(d) -> list:
    """Nullspace of the assembled system as 4x4 matrices.  Raises SpanMismatch
    if the catalog family R(K) does not lie in the solved span."""
    spec = deformation(d)
    basis = _nullspace(assemble(spec))
    catalog_vec = build_r(spec).data
    aug = ParamMatrix(16, len(basis) + 1,
                      [e for i in range(16)
                       for e in [*(vec[i] for vec in basis), catalog_vec[i]]])
    if rank(aug) != len(basis):
        raise SpanMismatch(f"{spec.id}: catalog matrix outside the solution span")
    return [ParamMatrix(4, 4, list(vec)) for vec in basis]
