"""Exchange relations R.(T1 T2) = (T2 T1).R over one quantum-group algebra.

T is the 2x2 generator matrix [[a, b], [c, d]].  In the tensor-square basis
(row (ik), column (jl), first index most significant):

    (T1 T2)[(ik), (jl)] = T[i,j] T[k,l]       (T2 T1)[(ik), (jl)] = T[k,l] T[i,j]

Cell (ik, jl) of R.(T1 T2) - (T2 T1).R is the sum over mid = (mn) of
R[(ik), (mn)] T[m,j] T[n,l] - R[(mn), (jl)] T[k,n] T[i,m]: linear in R, and
every word is one of the 16 quadratic words in a, b, c, d.  assemble()
normal-orders each word once and adds its normal form into the rows of the
linear system, one row per (matrix cell, normal word), dropping rows that
cancel to zero.  rtt_residual instead normal-orders each of the 16 cells
of one given R; the rtt:residual check uses it, so the two RTT checks reach
their answers by different routes.  Both store the first term of a sum, c or
-c, as it is, which is what 0 + c and 0 - c return.  solve_family returns
the nullspace reshaped to 4x4; the basis vectors are independent, so the
catalog family lies in their span exactly when appending it leaves the rank
unchanged.
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


def rtt_residual(r: ParamMatrix, system: RewriteSystem) -> list:
    """Normal-ordered entries of R.(T1 T2) - (T2 T1).R as a 4x4 nested list."""
    if (r.rows, r.cols) != (4, 4):
        raise ValueError("RTT residual needs a 4x4 matrix")
    out = []
    for row in range(4):
        i, k = divmod(row, 2)
        line = []
        for col in range(4):
            j, l = divmod(col, 2)
            acc: dict = {}
            for mid in range(4):
                m, n = divmod(mid, 2)
                left, right = r[row, mid], r[mid, col]
                if not left.is_zero():  # R.(T1 T2)
                    word = (_T[m][j], _T[n][l])
                    prev = acc.get(word, ZERO)
                    acc[word] = left if prev.is_zero() else prev + left
                if not right.is_zero():  # (T2 T1).R
                    word = (_T[k][n], _T[i][m])
                    prev = acc.get(word, ZERO)
                    acc[word] = -right if prev.is_zero() else prev - right
            line.append(normal_order(NCPoly(acc), system))
        out.append(line)
    return out


def assemble(d) -> ParamMatrix:
    """Linear system over the 16 entries of R, one row per (cell, word)."""
    system = build_group_system(d)
    forms: dict = {}
    rows: dict = {}
    for row in range(4):
        i, k = divmod(row, 2)
        for col in range(4):
            j, l = divmod(col, 2)
            for mid in range(4):
                m, n = divmod(mid, 2)
                for index, sign, word in ((4 * row + mid, 1, (_T[m][j], _T[n][l])),
                                          (4 * mid + col, -1, (_T[k][n], _T[i][m]))):
                    if word not in forms:
                        forms[word] = normal_order(NCPoly({word: ONE}), system)
                    for w, c in forms[word].coeffs.items():
                        line = rows.setdefault((row, col, w), [ZERO] * 16)
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
