"""Independent checks of the library's outputs in plain ``Fraction`` arithmetic.

Nothing here calls the library's matrix, identity or rewriting code.  Library
values enter only as data: polynomial term tables are evaluated at rational
points by ``value``, and rewrite rules are read from ``system.by_lhs``.  Each
check returns a list of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction


# -- evaluation -------------------------------------------------------------

def poly_value(terms: dict, symbols: tuple, point: dict) -> Fraction:
    """Value of a {exponent tuple: coefficient} table at a point."""
    total = Fraction(0)
    for mono, c in terms.items():
        v = Fraction(c)
        for name, e in zip(symbols, mono):
            if e:
                v *= point[name] ** e
        total += v
    return total


def value(x, symbols: tuple, point: dict) -> Fraction:
    """Value of a library rational function (``num``/``den`` term tables);
    raises ZeroDivisionError where the denominator vanishes."""
    return poly_value(x.num.terms, symbols, point) / poly_value(x.den.terms, symbols, point)


# -- modified braid equation and Hecke relation -----------------------------

def couplings(family: str, point: dict) -> tuple:
    """(K1, K2) as the paper lists them: (1, p/q), (1, 1), (1, 1/q)."""
    if family == "pq":
        return Fraction(1), point["p"] / point["q"]
    if family == "gh":
        return Fraction(1), Fraction(1)
    return Fraction(1), 1 / point["q"]


def _matmul(a: list, b: list) -> list:
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            aik = a[i][k]
            if aik:
                row, bk = out[i], b[k]
                for j in range(n):
                    if bk[j]:
                        row[j] += aik * bk[j]
    return out


def _kron(a: list, b: list) -> list:
    return [[a[i][j] * b[k][l] for j in range(len(a)) for l in range(len(b))]
            for i in range(len(a)) for k in range(len(b))]


def _eye(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _comb(a: list, s, b: list, t) -> list:
    return [[s * x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def braid_defect(rhat: list) -> tuple:
    """(B, Rhat12, Rhat23) with B = Rhat12 Rhat23 Rhat12 - Rhat23 Rhat12 Rhat23."""
    r12 = _kron(rhat, _eye(2))
    r23 = _kron(_eye(2), rhat)
    lhs = _matmul(_matmul(r12, r23), r12)
    rhs = _matmul(_matmul(r23, r12), r23)
    return _comb(lhs, 1, rhs, -1), r12, r23


def mbe_hecke_failures(rhat: list, family: str, point: dict) -> list:
    """Check B = lam(K)(Rhat12 - Rhat23) and Rhat^2 = X Rhat + (1 - X) I for a
    4x4 Rhat already evaluated at ``point``, and that the abstract's sign,
    B = lam(K)(Rhat23 - Rhat12), is rejected wherever it differs."""
    k1, k2 = couplings(family, point)
    k = point["K"]
    lam = (k / k1 - 1) * (k / k2 - 1)
    x = 2 - k / k1 - k / k2
    b, r12, r23 = braid_defect(rhat)
    where = f"{family} at {_point_str(point)}"
    out = []
    if b != _comb(r12, lam, r23, -lam):
        out.append(f"modified braid equation fails for {where}")
    if lam and r12 != r23 and b == _comb(r23, lam, r12, -lam):
        out.append(f"abstract's sign convention accepted for {where}")
    if _matmul(rhat, rhat) != _comb(rhat, x, _eye(4), 1 - x):
        out.append(f"Hecke relation fails for {where}")
    return out


def rhat_at(rhat_symbolic, symbols: tuple, point: dict) -> list:
    """A library 4x4 ParamMatrix evaluated entry by entry."""
    return [[value(rhat_symbolic.data[4 * i + j], symbols, point) for j in range(4)]
            for i in range(4)]


def _point_str(point: dict) -> str:
    return "(" + ", ".join(f"{n}={v}" for n, v in point.items()) + ")"


# -- numeric scan -------------------------------------------------------------

def grid_value(kmin: Fraction, kmax: Fraction, steps: int, i: int) -> Fraction:
    return kmin + (kmax - kmin) * i / (steps - 1)


def scan_line(rhat_symbolic, symbols: tuple, bindings: dict, k: Fraction) -> str:
    """The CSV line for coupling k, from the exact squared Frobenius norm."""
    point = {"K": k, **bindings}
    b, _, _ = braid_defect(rhat_at(rhat_symbolic, symbols, point))
    total = sum((e * e for row in b for e in row), Fraction(0))
    return f"{float(k):.17g},{math.sqrt(total):.17g}"


def scan_failures(csv_text: str, rows: list, rhat_symbolic, symbols: tuple,
                  family: str, bindings: dict, grid: tuple, sample: list) -> list:
    """Check the grid, recompute the sampled rows string for string, and
    require an exact zero wherever the grid meets K1 or K2."""
    kmin, kmax, steps = grid
    lines = csv_text.splitlines()
    if not lines or lines[0] != "K,residual_fro":
        return [f"{family}: bad CSV header"]
    if len(lines) != steps + 1 or len(rows) != steps:
        return [f"{family}: {len(lines) - 1} CSV lines and {len(rows)} rows for {steps} steps"]
    out = []
    k1, k2 = couplings(family, {"K": None, **bindings})
    zero_rows = [i for i in range(steps) if grid_value(kmin, kmax, steps, i) in (k1, k2)]
    for i in sorted(set(sample) | set(zero_rows)):
        k = grid_value(kmin, kmax, steps, i)
        if rows[i][0] != k:
            out.append(f"{family}: row {i} has K = {rows[i][0]}, expected {k}")
        want = scan_line(rhat_symbolic, symbols, bindings, k)
        if lines[i + 1] != want:
            out.append(f"{family}: row {i} reads {lines[i + 1]!r}, expected {want!r}")
        if i in zero_rows and (rows[i][1] != 0 or not want.endswith(",0")):
            out.append(f"{family}: no exact zero at braid coupling K = {k}")
    return out


def corrupt_line(line: str) -> str:
    """The same CSV line with the last digit of its value changed."""
    return line[:-1] + str((int(line[-1]) + 1) % 10)


# -- rewriting ---------------------------------------------------------------

def numeric_rules(system, symbols: tuple, point: dict) -> dict:
    """{lhs: {word: value}} for every rule; ZeroDivisionError if a rule
    coefficient has a pole at the point."""
    return {lhs: {w: value(c, symbols, point) for w, c in rule.rhs.coeffs.items()}
            for lhs, rule in system.by_lhs.items()}


class LeftmostReducer:
    """Leftmost-redex normal forms over Fractions, memoized per word.  The
    strategy matches the library's, which matters where the rules are not
    confluent (the planes at symbolic K)."""

    def __init__(self, rules: dict):
        self.rules = rules
        self.lengths = sorted({len(lhs) for lhs in rules}, reverse=True)
        self.memo = {}

    def word(self, word: tuple) -> dict:
        hit = self.memo.get(word)
        if hit is not None:
            return hit
        out = {word: Fraction(1)}
        for i in range(len(word)):
            rhs = None
            for n in self.lengths:
                if i + n <= len(word):
                    rhs = self.rules.get(word[i:i + n])
                    if rhs is not None:
                        break
            if rhs is not None:
                out = {}
                for rword, c in rhs.items():
                    for w, d in self.word(word[:i] + rword + word[i + n:]).items():
                        out[w] = out.get(w, 0) + c * d
                out = {w: c for w, c in out.items() if c}
                break
        self.memo[word] = out
        return out

    def reduce(self, poly: dict) -> dict:
        out = {}
        for word, c in poly.items():
            for w, d in self.word(word).items():
                out[w] = out.get(w, 0) + c * d
        return {w: c for w, c in out.items() if c}


def contains(word: tuple, sub: tuple) -> bool:
    n = len(sub)
    return any(word[i:i + n] == sub for i in range(len(word) - n + 1))


def rewrite_failures(nf, terms: list, system, reducer: LeftmostReducer,
                     symbols: tuple, point: dict, parse) -> list:
    """Check one normal form: no rule left-hand side survives in it, it
    re-parses to itself, and at ``point`` it equals the independent leftmost
    reduction of the input terms (coefficient * parameter * word)."""
    out = []
    for word in nf.coeffs:
        for lhs in system.by_lhs:
            if contains(word, lhs):
                out.append(f"{system.name}: {' '.join(word)} contains {' '.join(lhs)}")
    if parse(str(nf)) != nf:
        out.append(f"{system.name}: {nf} does not re-parse to itself")
    start = {}
    for coeff, param, word in terms:
        start[tuple(word)] = start.get(tuple(word), 0) + coeff * point[param]
    want = reducer.reduce(start)
    got = {w: value(c, symbols, point) for w, c in nf.coeffs.items()}
    got = {w: c for w, c in got.items() if c}
    if got != want:
        out.append(f"{system.name}: normal form differs from the leftmost reduction "
                   f"at {_point_str(point)}")
    return out
