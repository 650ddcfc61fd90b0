"""Reference RTT assembly for differential tests of mbraid.rtt.

This is the ``assemble`` that mbraid.rtt used before it read the linear
system off the normal forms of the 16 quadratic words: column 4a+b is the
normal-ordered residual of the elementary matrix E_ab, so every column
normal-orders all 16 cells again.  It is kept verbatim and builds on
``mbraid.rtt.rtt_residual``, which did not change.
"""

from __future__ import annotations

from mbraid.ncalgebra import build_group_system
from mbraid.pmatrix import ParamMatrix
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
