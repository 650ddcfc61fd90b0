"""Dense matrices over an exact field.

Entries are duck-typed: anything with the field operators and is_zero()
works, so the same code runs over RatFunc and over QuadExt.  Data is a flat
row-major list and instances are treated as immutable.

Elimination (inverse, rank, nullspace) is plain Gauss-Jordan with the first
nonzero entry as pivot, scanning top to bottom; division is exact in the
entry field, and the fixed pivot rule keeps every result deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import ONE, ZERO, RatFunc


class DimensionMismatch(ValueError):
    """Operands with incompatible shapes."""


class Singular(ArithmeticError):
    """Inverse of a matrix that is not invertible."""


class ParamMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list):
        if rows < 1 or cols < 1 or len(data) != rows * cols:
            raise DimensionMismatch(f"bad shape {rows}x{cols} for {len(data)} entries")
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def from_rows(rows: list) -> "ParamMatrix":
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("rows must be nonempty and rectangular")
        return ParamMatrix(len(rows), len(rows[0]), [e for r in rows for e in r])

    @staticmethod
    def identity(n: int, one=ONE) -> "ParamMatrix":
        zero = one - one
        return ParamMatrix(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b for a, b in zip(self.data, other.data))

    __hash__ = None

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.data)

    def __add__(self, other: "ParamMatrix") -> "ParamMatrix":
        self._same_shape(other)
        return ParamMatrix(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "ParamMatrix") -> "ParamMatrix":
        self._same_shape(other)
        return ParamMatrix(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "ParamMatrix":
        return ParamMatrix(self.rows, self.cols, [-a for a in self.data])

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __matmul__(self, other: "ParamMatrix") -> "ParamMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            for j in range(other.cols):
                # accumulator seeded with the first product: no zero element needed
                acc = self.data[base] * other.data[j]
                for k in range(1, self.cols):
                    acc = acc + self.data[base + k] * other.data[k * other.cols + j]
                out.append(acc)
        return ParamMatrix(self.rows, other.cols, out)

    def scale(self, s) -> "ParamMatrix":
        return ParamMatrix(self.rows, self.cols, [s * e for e in self.data])

    def map(self, fn) -> "ParamMatrix":
        return ParamMatrix(self.rows, self.cols, [fn(e) for e in self.data])

    def __str__(self) -> str:
        cells = [[str(self.data[i * self.cols + j]) for j in range(self.cols)]
                 for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for r in cells:
            lines.append("[ " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + " ]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ParamMatrix({self.rows}x{self.cols})"


def one_like(m: ParamMatrix):
    """The field's 1, recovered from any nonzero entry."""
    for e in m.data:
        if not e.is_zero():
            return e / e
    raise ValueError("cannot infer field constants from a zero matrix")


def kron(a: ParamMatrix, b: ParamMatrix) -> ParamMatrix:
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                for l in range(b.cols):
                    out.append(a[i, j] * b[k, l])
    return ParamMatrix(a.rows * b.rows, a.cols * b.cols, out)


def flip21(m: ParamMatrix) -> ParamMatrix:
    """Conjugation by the tensor-factor swap: flip21(x y) = flip21(x) flip21(y).

    P.m.P for the 4x4 factor-swap P, done by index shuffling so the entry
    field never needs explicit 0/1 constants."""
    if (m.rows, m.cols) != (4, 4):
        raise DimensionMismatch("factor swap is defined for 4x4 matrices")
    perm = (0, 2, 1, 3)
    data = [m[perm[i], perm[j]] for i in range(4) for j in range(4)]
    return ParamMatrix(4, 4, data)


def embed12(r: ParamMatrix, one=None) -> ParamMatrix:
    """r acting on factors 1,2 of a triple tensor product: r (x) I."""
    if one is None:
        one = one_like(r)
    return kron(r, ParamMatrix.identity(2, one))


def embed23(r: ParamMatrix, one=None) -> ParamMatrix:
    """r acting on factors 2,3: I (x) r."""
    if one is None:
        one = one_like(r)
    return kron(ParamMatrix.identity(2, one), r)


@dataclass(frozen=True)
class PermOperator:
    """Permutation of tensor factors, one-line notation: sigma[t-1] = sigma(t).

    Acts by (P_sigma v)_{j_1..j_n} = v_{j_sigma(1)..j_sigma(n)}, which makes
    perm_operator a homomorphism: P_sigma P_tau = P_{sigma o tau}.
    """

    sigma: tuple

    def __post_init__(self):
        if sorted(self.sigma) != list(range(1, len(self.sigma) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.sigma)}: {self.sigma}")

    def compose(self, other: "PermOperator") -> "PermOperator":
        return PermOperator(tuple(self.sigma[t - 1] for t in other.sigma))


def perm_operator(sigma, dim: int = 2) -> ParamMatrix:
    """Matrix of P_sigma on the n-fold tensor power, basis ordered big-endian
    (first factor most significant)."""
    sig = sigma.sigma if isinstance(sigma, PermOperator) else tuple(sigma)
    PermOperator(sig)
    n = len(sig)
    size = dim ** n
    zero = ZERO
    data = [zero] * (size * size)
    for row in range(size):
        digits = _digits(row, dim, n)
        col_digits = [digits[sig[t] - 1] for t in range(n)]
        col = _undigits(col_digits, dim)
        data[row * size + col] = ONE
    return ParamMatrix(size, size, data)


def _digits(index: int, dim: int, n: int) -> list:
    out = [0] * n
    for t in range(n - 1, -1, -1):
        out[t] = index % dim
        index //= dim
    return out


def _undigits(digits: list, dim: int) -> int:
    out = 0
    for d in digits:
        out = out * dim + d
    return out


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


def nullspace(m: ParamMatrix, one=ONE) -> list:
    """Basis of the right nullspace, one vector (a plain list) per free column.
    The fixed pivot rule makes the basis deterministic."""
    work, pivots = _rref(m)
    zero = one - one
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * m.cols
        v[f] = one
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][f]
        basis.append(v)
    return basis


def inverse(m: ParamMatrix) -> ParamMatrix:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    one = one_like(m)
    zero = one - one
    n = m.rows
    aug = ParamMatrix(n, 2 * n,
                      [m[i, j] if j < n else (one if j - n == i else zero)
                       for i in range(n) for j in range(2 * n)])
    work, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise Singular("matrix is not invertible")
    return ParamMatrix(n, n, [work[i][n + j] for i in range(n) for j in range(n)])
