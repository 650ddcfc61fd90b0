"""Reference RTT assembly and span decision for differential tests of
mbraid.rtt.

``assemble`` is the one that mbraid.rtt used before it read the linear
system off the normal forms of the 16 quadratic words: column 4a+b is the
normal-ordered residual of the elementary matrix E_ab, so every column
normal-orders all 16 cells again.  It is kept verbatim and builds on
``mbraid.rtt.rtt_residual``, which did not change.

``in_span`` is the decision ``solve_family`` made before it read the
coordinates off the free columns: the basis vectors are independent, so a
vector lies in their span exactly when appending it leaves the rank
unchanged.  It is kept verbatim apart from taking the basis and the vector,
of any length rather than 16, as arguments.

``solve_family`` is the one that mbraid.rtt used before the system stayed in
sparse rows from assembly to nullspace: ``dense_assemble`` built 16-column
rows (kept verbatim as mbraid.rtt.assemble was then), ``sorted_system``
sorted them on their count of nonzero entries, and ``nullspace_with_free``
is the nullspace of that time, here on the dense loop
``ref_pmatrix._rref``, which wrote every entry as the elimination it
replaced did.  The span decision ``_in_span`` did not change and is
imported.
"""

from __future__ import annotations

import ref_pmatrix

from mbraid.catalog import build_r, deformation
from mbraid.ncalgebra import NCPoly, build_group_system, normal_order
from mbraid.pmatrix import ParamMatrix, rank
from mbraid.rtt import _EXCHANGE, SpanMismatch, _in_span, rtt_residual
from mbraid.scalars import ONE, ZERO


def assemble(d) -> ParamMatrix:
    """Linear system over the 16 entries of R, one row per (cell, word)."""
    system = build_group_system(d)
    rows: dict = {}
    for column in range(16):
        unit = [ZERO] * 16
        unit[column] = ONE
        residual = rtt_residual(ParamMatrix(4, 4, unit), system)
        for row in range(4):
            for col in range(4):
                for word, coeff in residual[row][col].coeffs.items():
                    rows.setdefault((row, col, word), [ZERO] * 16)[column] = coeff
    return ParamMatrix(len(rows), 16, [e for key in sorted(rows) for e in rows[key]])


def in_span(basis: list, catalog_vec: list) -> bool:
    """Whether catalog_vec lies in the span of the independent vectors of basis."""
    n = len(catalog_vec)
    aug = ParamMatrix(n, len(basis) + 1,
                      [e for i in range(n)
                       for e in [*(vec[i] for vec in basis), catalog_vec[i]]])
    return rank(aug) == len(basis)


def dense_assemble(d) -> ParamMatrix:
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


def sorted_system(d) -> ParamMatrix:
    """The rows of dense_assemble, sparsest first (a stable sort)."""
    system = dense_assemble(d)
    rows = sorted((system.row(i) for i in range(system.rows)),
                  key=lambda row: sum(not e.is_zero() for e in row))
    return ParamMatrix(system.rows, 16, [e for row in rows for e in row])


def nullspace_with_free(m: ParamMatrix):
    """(free columns, basis) of the right nullspace, eliminated densely."""
    work, pivots = ref_pmatrix._rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][f]
        basis.append(v)
    return free, basis


def solve_family(d) -> list:
    """Nullspace of the assembled system as 4x4 matrices.  Raises SpanMismatch
    if the catalog family R(K) does not lie in the solved span."""
    spec = deformation(d)
    free, basis = nullspace_with_free(sorted_system(spec))
    if not _in_span(free, basis, build_r(spec).data):
        raise SpanMismatch(f"{spec.id}: catalog matrix outside the solution span")
    return [ParamMatrix(4, 4, list(vec)) for vec in basis]
