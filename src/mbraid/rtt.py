"""Exchange relations R.(T1 T2) = (T2 T1).R over one quantum-group algebra.

T is the 2x2 generator matrix [[a, b], [c, d]].  In the tensor-square basis
(row (ik), column (jl), first index most significant), cell (ik, jl) of
R.(T1 T2) - (T2 T1).R is the sum over mid = (mn) of

    R[(ik), (mn)] T[m,j] T[n,l] - R[(mn), (jl)] T[k,n] T[i,m]

_EXCHANGE lists the eight terms of each cell as (index of R, sign, word); both
routes read it.  _rows() normal-orders each of the 16 quadratic words once,
negates each normal form once, and adds it into the rows of the linear
system: one {column: entry} dict per (cell, normal word), in sorted (cell,
word) order, an entry that cancels deleted and a row left empty dropped.
assemble() is those rows written out as a 16-column ParamMatrix.
rtt_residual instead normal-orders each cell of one given R; rtt:residual
uses it, so the two RTT checks reach their answers by different routes.  Both
store the first term of a sum, c or -c, as it is, which is what 0 + c and
0 - c return.  Oracles: tests/ref_rtt.py for assemble and solve_family,
tests/test_rtt_exchange.py (T1 T2 and T2 T1 built without the table) for
rtt_residual.  solve_family hands the row dicts straight to the sparse
elimination and returns the nullspace reshaped to 4x4.  It eliminates the
rows sparsest first (a stable sort on the length of each dict, its count of
nonzero entries), so the rows with a single entry clear their columns before
any longer row is touched; a reduced echelon form does not depend on the
order of the rows, so neither do the basis values.  Each basis vector is 1
at its free column and 0 at the other free columns, so R lies in the span
exactly when R = sum over the free columns f of R[f] times vector f, which
is checked entry by entry; tests/ref_rtt.py keeps the rank comparison this
replaced.
"""

from __future__ import annotations

from .catalog import build_r, deformation
from .ncalgebra import NCPoly, RewriteSystem, build_group_system, normal_order
from .pmatrix import ParamMatrix, _nullspace
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


def _rows(d) -> list:
    """The linear system over the 16 entries of R: one {column: entry} dict of
    nonzero entries per (cell, word), in sorted (cell, word) order, rows that
    cancel to zero left out."""
    system = build_group_system(d)
    forms: dict = {}
    rows: dict = {}
    for cell, terms in enumerate(_EXCHANGE):
        for index, sign, word in terms:
            if word not in forms:
                coeffs = normal_order(NCPoly({word: ONE}), system).coeffs
                forms[word] = {1: list(coeffs.items()),
                               -1: [(w, -c) for w, c in coeffs.items()]}
            for w, c in forms[word][sign]:
                line = rows.setdefault((cell, w), {})
                prev = line.get(index)
                if prev is None:
                    line[index] = c
                elif (total := prev + c).is_zero():
                    del line[index]
                else:
                    line[index] = total
    return [rows[key] for key in sorted(rows) if rows[key]]


def assemble(d) -> ParamMatrix:
    """Linear system over the 16 entries of R, one row per (cell, word)."""
    rows = _rows(d)
    return ParamMatrix(len(rows), 16, [row.get(j, ZERO) for row in rows for j in range(16)])


def solve_family(d) -> list:
    """Nullspace of the assembled system as 4x4 matrices.  Raises SpanMismatch
    if the catalog family R(K) does not lie in the solved span."""
    spec = deformation(d)
    free, basis = _nullspace(sorted(_rows(spec), key=len), 16)
    if not _in_span(free, basis, build_r(spec).data):
        raise SpanMismatch(f"{spec.id}: catalog matrix outside the solution span")
    return [ParamMatrix(4, 4, vec) for vec in basis]


def _in_span(free: list, basis: list, target: list) -> bool:
    """Whether target is a combination of the nullspace basis whose vector
    for free column f is 1 at f and 0 at the other free columns: target[f]
    is then its coordinate, and every entry must equal the coordinate sum."""
    for i, want in enumerate(target):
        total = ZERO
        for f, vec in zip(free, basis):
            x, y = target[f], vec[i]
            if not (x.is_zero() or y.is_zero()):
                total = x * y if total.is_zero() else total + x * y
        if total != want:
            return False
    return True
