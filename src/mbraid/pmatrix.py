"""Dense matrices over RatFunc.

Data is a flat row-major list and instances are treated as immutable.

Storage is dense, but products, Kronecker products, sums, differences and
scaling visit only nonzero entries, in the order of the plain dense loops.
A skipped operation has a zero operand, whose result RatFunc's fast paths
already know (0 * x = 0, x + 0 = x, 0 - x = -x), so every entry comes out
representation-identical, not just equal: RatFunc is not canonical, and the
order of a sum can change how it is written.

Elimination is plain Gauss-Jordan on sparse rows, {column: entry} dicts of
the nonzero entries, with the first nonzero entry as pivot, scanning top to
bottom; division is exact, and the fixed pivot rule keeps every result
deterministic.  The pivot column of each eliminated row is dropped, not
computed as f - f (e/e), and an entry that cancels is deleted.  rank,
inverse and nullspace convert their matrix to rows once; rtt.solve_family
hands its rows to _nullspace directly.  Entries come out as the dense loop
in tests/ref_pmatrix.py writes them.

Permutations of tensor factors and identity Kronecker factors move entries
instead of multiplying by 0s and 1s.  perm_apply(sigma, m) is
perm_operator(sigma) @ m, perm_conjugate(sigma, m) is P m P^-1, and embed12
and embed23 place the entries of r into r (x) I and I (x) r.  The product
with a 0/1 matrix writes each nonzero entry as ONE * x, which is x itself,
so the moved entries are the very objects the product would give.  flip21
is conjugation by the 4x4 factor swap P = perm_operator((2, 1)), and
catalog.build_r is perm_apply((2, 1), Rhat).
"""

from __future__ import annotations

from .scalars import ONE, ZERO


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
    def identity(n: int) -> "ParamMatrix":
        return ParamMatrix(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

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
        return ParamMatrix(self.rows, self.cols,
                           [a if b.is_zero() else b if a.is_zero() else a + b
                            for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "ParamMatrix") -> "ParamMatrix":
        self._same_shape(other)
        return ParamMatrix(self.rows, self.cols,
                           [a if b.is_zero() else -b if a.is_zero() else a - b
                            for a, b in zip(self.data, other.data)])

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
        n, m = self.cols, other.cols
        other_rows = [[(j, e) for j, e in enumerate(other.row(k)) if not e.is_zero()]
                      for k in range(n)]
        out = [ZERO] * (self.rows * m)
        for i in range(self.rows):
            acc = {}
            for k, a in enumerate(self.row(i)):
                if a.is_zero():
                    continue
                for j, b in other_rows[k]:
                    term = a * b
                    acc[j] = acc[j] + term if j in acc else term
            for j, e in acc.items():
                out[i * m + j] = e
        return ParamMatrix(self.rows, m, out)

    def scale(self, s) -> "ParamMatrix":
        return ParamMatrix(self.rows, self.cols,
                           [e if e.is_zero() else s * e for e in self.data])

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


def kron(a: ParamMatrix, b: ParamMatrix) -> ParamMatrix:
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                x = a[i, j]
                if x.is_zero():
                    out += [ZERO] * b.cols
                else:
                    out += [e if e.is_zero() else x * e for e in b.row(k)]
    return ParamMatrix(a.rows * b.rows, a.cols * b.cols, out)


def embed12(r: ParamMatrix) -> ParamMatrix:
    """r acting on factors 1,2 of a triple tensor product: r (x) I, its
    entries moved into place rather than multiplied by the 1s of I."""
    n = r.cols
    return ParamMatrix(2 * r.rows, 2 * n,
                       [r.data[i * n + j] if k == l else ZERO
                        for i in range(r.rows) for k in range(2)
                        for j in range(n) for l in range(2)])


def embed23(r: ParamMatrix) -> ParamMatrix:
    """r acting on factors 2,3: I (x) r, entries moved as in embed12."""
    n = r.cols
    return ParamMatrix(2 * r.rows, 2 * n,
                       [r.data[k * n + l] if i == j else ZERO
                        for i in range(2) for k in range(r.rows)
                        for j in range(2) for l in range(n)])


def _perm_columns(sigma) -> list:
    """The column of the one 1 in each row of perm_operator(sigma)."""
    sig = tuple(sigma)
    if sorted(sig) != list(range(1, len(sig) + 1)):
        raise ValueError(f"not a permutation of 1..{len(sig)}: {sig}")
    n = len(sig)
    columns = []
    for row in range(2 ** n):
        bits = [(row >> (n - 1 - t)) & 1 for t in range(n)]
        col = 0
        for t in range(n):
            col = 2 * col + bits[sig[t] - 1]
        columns.append(col)
    return columns


def perm_operator(sigma) -> ParamMatrix:
    """Matrix of P_sigma, a permutation of tensor factors in one-line notation
    (sigma[t-1] = sigma(t)), on the n-fold tensor power of a 2-dimensional
    space, basis ordered big-endian (first factor most significant).

    Acts by (P_sigma v)_{j_1..j_n} = v_{j_sigma(1)..j_sigma(n)}, which makes
    it a homomorphism: P_sigma P_tau = P_{sigma o tau}.
    """
    columns = _perm_columns(sigma)
    size = len(columns)
    data = [ZERO] * (size * size)
    for row, col in enumerate(columns):
        data[row * size + col] = ONE
    return ParamMatrix(size, size, data)


def _take(m: ParamMatrix, rows, cols) -> ParamMatrix:
    """The matrix with entry (i, j) = m[rows[i], cols[j]], the same object."""
    return ParamMatrix(len(rows), len(cols), [m.data[i * m.cols + j] for i in rows for j in cols])


def perm_apply(sigma, m: ParamMatrix) -> ParamMatrix:
    """perm_operator(sigma) @ m by moving rows: row i is row c(i) of m, c(i)
    being the column of the 1 in row i of the operator."""
    columns = _perm_columns(sigma)
    if m.rows != len(columns):
        raise DimensionMismatch(f"{len(columns)}x{len(columns)} @ {m.rows}x{m.cols}")
    return _take(m, columns, range(m.cols))


def perm_conjugate(sigma, m: ParamMatrix) -> ParamMatrix:
    """P m P^-1 for P = perm_operator(sigma) by moving entries: entry (i, j)
    is m[c(i), c(j)], with c as in perm_apply."""
    columns = _perm_columns(sigma)
    if (m.rows, m.cols) != (len(columns), len(columns)):
        raise DimensionMismatch(f"conjugating {m.rows}x{m.cols} by a "
                                f"{len(columns)}x{len(columns)} permutation")
    return _take(m, columns, columns)


def flip21(m: ParamMatrix) -> ParamMatrix:
    """Conjugation by the 4x4 tensor-factor swap P: flip21(x y) = flip21(x) flip21(y)."""
    return perm_conjugate((2, 1), m)


def _sparse_rows(m: ParamMatrix) -> list:
    """The rows of m as {column: entry} dicts of its nonzero entries."""
    return [{j: e for j, e in enumerate(m.row(i)) if not e.is_zero()} for i in range(m.rows)]


def _rref(work: list, cols: int) -> list:
    """Reduce the rows of work, {column: entry} dicts holding only nonzero
    entries, to reduced row echelon form in place; returns the pivot columns.

    An entry that cancels is deleted, so a column is in a row exactly when
    the row's entry there is nonzero.  The pivot is the first row, from the
    current one down, that holds the column; the column is popped from every
    other row, which is f - f (e/e) = 0 exactly, and the row's multiplier f
    is negated once for the update e + (-f) p of each other pivot-row entry.
    A pivot row with no other entry updates nothing, so f is dropped as is."""
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(work)) if c in work[i]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c].inverse()
        pivot = work[r] = {j: inv * e for j, e in work[r].items()}
        others = [(j, e) for j, e in pivot.items() if j != c]
        for i, row in enumerate(work):
            if i == r or c not in row:
                continue
            if not others:
                del row[c]
                continue
            g = -row.pop(c)
            for j, p in others:
                e = row.get(j)
                if e is None:
                    row[j] = g * p
                else:
                    e = e + g * p
                    if e.is_zero():
                        del row[j]
                    else:
                        row[j] = e
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots


def rank(m: ParamMatrix) -> int:
    return len(_rref(_sparse_rows(m), m.cols))


def _nullspace(rows: list, cols: int):
    """(free columns, basis) of the right nullspace of the rows, {column:
    entry} dicts as _rref takes them and reduces in place: one vector (a
    plain list) per free column f, 1 at f and 0 at every other free column.
    The fixed pivot rule makes the basis deterministic."""
    pivots = _rref(rows, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for row, pc in zip(rows, pivots):
            if f in row:
                v[pc] = -row[f]
        basis.append(v)
    return free, basis


def nullspace(m: ParamMatrix) -> list:
    """Basis of the right nullspace, as _nullspace builds it."""
    return _nullspace(_sparse_rows(m), m.cols)[1]


def inverse(m: ParamMatrix) -> ParamMatrix:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    work = _sparse_rows(m)
    for i, row in enumerate(work):
        row[n + i] = ONE
    if _rref(work, 2 * n) != list(range(n)):
        raise Singular("matrix is not invertible")
    return ParamMatrix(n, n, [row.get(n + j, ZERO) for row in work for j in range(n)])
