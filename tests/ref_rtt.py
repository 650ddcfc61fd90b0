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
"""

from __future__ import annotations

from mbraid.ncalgebra import build_group_system
from mbraid.pmatrix import ParamMatrix, rank
from mbraid.rtt import rtt_residual
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
