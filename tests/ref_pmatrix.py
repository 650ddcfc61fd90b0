"""Reference matrix kernels for differential tests of mbraid.pmatrix.

These are the dense loops that mbraid.pmatrix used before its products,
Kronecker products and elimination learned to skip zero entries:
``ParamMatrix.__matmul__`` (as ``matmul``), ``kron`` and ``_rref`` are kept
verbatim, with ``rank`` and ``nullspace`` built on them.  ``add``, ``sub``,
``neg`` and ``scale`` keep the entrywise comprehensions of
``ParamMatrix.__add__``, ``__sub__``, ``__neg__`` and ``scale`` from before
those skipped zero entries too.  They visit every entry, so every zero is
multiplied and added the long way round.
"""

from __future__ import annotations

from mbraid.pmatrix import DimensionMismatch, ParamMatrix
from mbraid.scalars import ONE, ZERO


def matmul(self: ParamMatrix, other: ParamMatrix) -> ParamMatrix:
    if self.cols != other.rows:
        raise DimensionMismatch(
            f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
    out = []
    for i in range(self.rows):
        base = i * self.cols
        for j in range(other.cols):
            acc = self.data[base] * other.data[j]
            for k in range(1, self.cols):
                acc = acc + self.data[base + k] * other.data[k * other.cols + j]
            out.append(acc)
    return ParamMatrix(self.rows, other.cols, out)


def add(self: ParamMatrix, other: ParamMatrix) -> ParamMatrix:
    self._same_shape(other)
    return ParamMatrix(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])


def sub(self: ParamMatrix, other: ParamMatrix) -> ParamMatrix:
    self._same_shape(other)
    return ParamMatrix(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])


def neg(self: ParamMatrix) -> ParamMatrix:
    return ParamMatrix(self.rows, self.cols, [-a for a in self.data])


def scale(self: ParamMatrix, s) -> ParamMatrix:
    return ParamMatrix(self.rows, self.cols, [s * e for e in self.data])


def kron(a: ParamMatrix, b: ParamMatrix) -> ParamMatrix:
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                for l in range(b.cols):
                    out.append(a[i, j] * b[k, l])
    return ParamMatrix(a.rows * b.rows, a.cols * b.cols, out)


def _rref(m: ParamMatrix):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    work = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if not work[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c].inverse()
        work[r] = [inv * e for e in work[r]]
        for i in range(m.rows):
            if i != r and not work[i][c].is_zero():
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return work, pivots


def rank(m: ParamMatrix) -> int:
    _, pivots = _rref(m)
    return len(pivots)


def nullspace(m: ParamMatrix) -> list:
    work, pivots = _rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][f]
        basis.append(v)
    return basis
