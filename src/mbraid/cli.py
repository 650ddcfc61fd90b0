"""Command-line front end: the verbs, ``run_verify`` over the check registry
in ``checks``, the RTT solver, a numeric coupling scan with CSV output, and
expression normal-ordering behind a small exact parser.  Each verb's handler
sits on its subparser (``set_defaults(run=...)``), and the ``--scope``
choices are the registry's own scopes.  ``argparse`` is imported only when
``main`` builds the parser, so importing this module does not load it.

Output discipline: all arithmetic is exact; decimals appear only in the scan
CSV, produced at the last moment with 17 significant digits so identical
invocations are byte-identical.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import eq, truediv

from .catalog import DEFORMATIONS, build_rhat, deformation, verify_pass
from .checks import registered_checks
from .identities import _basis_of, _defect_matrix
from .ncalgebra import GROUP, PLANE, NCPoly, StepCapExceeded, normal_order
from .plane import MIXED, build_plane_system, build_pure_system
from .rtt import SpanMismatch, solve_family
from .scalars import (ONE, SYMBOLS, ZERO, DivisionByZero, Poly, RatFunc,
                      UnknownSymbolError, as_ratfunc, substitute, sym)

NONCOMMUTING = GROUP + PLANE
_PARAMETERS = ("p", "q", "g", "h")  # bound by scan --p/--q/--g/--h
COMMUTING = ("K", *_PARAMETERS)

MAX_EXPONENT = 1000
MAX_WORD = 1000
MAX_TERMS = 10_000
MAX_SCAN_STEPS = 100_000
MAX_DEPTH = 100


# -- expression grammar -------------------------------------------------
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := rational | symbol | '(' expr ')' | '-' factor | factor '^' int
#
# Commuting symbols fold into coefficients; the rest build words in order.
# '/' accepts only a scalar (word-free) divisor: the canonical rendering
# writes rational functions as (num)/(den), and round-tripping it needs
# exactly that much division and no more.
# Products and quotients are refused before they are formed when their words
# could exceed MAX_WORD letters, or when they could hold more than MAX_TERMS
# numerator or denominator monomials, summed over the coefficients.
# Parentheses and unary minus nest at most MAX_DEPTH levels, which keeps the
# recursive descent well inside Python's recursion limit.
#
# A term is folded, not multiplied out factor by factor.  An atomic factor is
# a number, a commuting symbol or a generator with no '^' after it.  A run of
# '*'-joined atomic factors keeps an int numerator and denominator, the
# symbols' exponents and a word, and becomes one NCPoly term, with one
# RatFunc, when a compound factor, a '/' or the end of the term arrives.  The
# product with what came before the run is then a single NCPoly product.
# factor reads its atoms (before '^', after '/' or a unary '-') through run,
# stopped after one atom, so only run classifies atoms and refuses unknowns.
# Each '*' of the run still makes the size check its product would have made,
# at its own offset and before the next factor is read: multiplying by an
# atom leaves the term counts of the left operand as they are and only
# lengthens its longest word, so the run takes the left operand's sizes once
# and updates them per atom (a zero atom empties the product).

def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdecimal():
                j += 2
                while j < n and text[j].isdecimal():
                    j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise _syntax_error(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _syntax_error(msg: str, offset: int) -> SyntaxError:
    err = SyntaxError(f"{msg} at offset {offset}")
    err.offset = offset
    return err


def _literal(text: str, offset: int) -> tuple:
    """A numeric token as an int numerator and a nonzero int denominator."""
    top, _, bottom = text.partition("/")
    try:
        top, bottom = int(top), int(bottom) if bottom else 1
    except ValueError:  # beyond the interpreter's int digit limit
        raise _syntax_error("numeric literal too long", offset) from None
    if not bottom:
        raise _syntax_error("zero denominator", offset)
    return top, bottom


def _size(p: NCPoly) -> tuple:
    num = den = longest = 0
    for word, c in p.coeffs.items():
        num += len(c.num.terms)
        den += len(c.den.terms)
        if len(word) > longest:
            longest = len(word)
    return num, den, longest


def _check_size(a: tuple, b: tuple, offset: int, divide: bool = False) -> None:
    """Refuse the product (or quotient) of two operands with _size a and b."""
    (na, da, wa), (nb, db, wb) = a, b
    if divide:  # a / c multiplies numerators by den(c) and denominators by num(c)
        nb, db = db, nb
    if max(na * nb, da * db) > MAX_TERMS:
        raise _syntax_error(f"expression grows beyond {MAX_TERMS} terms", offset)
    if wa + wb > MAX_WORD:
        raise _syntax_error(f"word grows beyond {MAX_WORD} letters", offset)


_CONSTANT = (0,) * len(SYMBOLS)  # the monomial of a constant


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open '(' and unary '-' levels

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise _syntax_error(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def atomic(self, pos: int) -> bool:
        """Whether the token at pos is a number or a name with no '^' after it."""
        return self.tokens[pos][0] in ("num", "name") and self.tokens[pos + 1][0] != "^"

    def expr(self) -> NCPoly:
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> NCPoly:
        out = self.run(None) if self.atomic(self.pos) else self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.take()
            if op == "*" and self.atomic(self.pos):
                out = self.run(out, offset)
                continue
            rhs = self.factor()
            _check_size(_size(out), _size(rhs), offset, op == "/")
            if op == "*":
                out = out * rhs
                continue
            if any(word for word in rhs.coeffs):
                raise _syntax_error("divisor must be scalar", offset)
            out = out.scale(ONE / rhs.coefficient(()))
        return out

    def run(self, out, offset=None, single=False) -> NCPoly:
        """out times the run of '*'-joined atomic factors starting here, the
        run built as one monomial.  out is None when the run begins the term;
        otherwise offset is that of the '*' before the run.  single stops the
        run after its first atom."""
        num = den = 1
        exps, word = [0] * len(SYMBOLS), []
        # the sizes of the product so far; a term starts from the number 1
        na, da, longest = (1, 1, 0) if out is None else _size(out)
        while True:
            kind, text, at = self.take()
            nb, wb = 1, 0
            if kind == "num":
                top, bottom = _literal(text, at)
                num, den = num * top, den * bottom
                nb = 1 if top else 0
            elif text in COMMUTING:
                exps[SYMBOLS.index(text)] += 1
            elif text in NONCOMMUTING:
                word.append(text)
                wb = 1
            else:
                raise UnknownSymbolError(f"unknown symbol {text!r} at offset {at}")
            if offset is not None:
                _check_size((na, da, longest), (nb, nb, wb), offset)
            if nb and na:
                longest += wb
            else:
                na = da = longest = 0
            if single or self.peek()[0] != "*" or not self.atomic(self.pos + 1):
                break
            offset = self.take()[2]
        if not num:
            return NCPoly.zero()
        mono = NCPoly({tuple(word): RatFunc(Poly({tuple(exps): num}),
                                            Poly({_CONSTANT: den}))})
        return mono if out is None else out * mono

    def factor(self) -> NCPoly:
        kind, text, offset = self.peek()
        if kind in ("-", "("):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise _syntax_error(f"nesting deeper than {MAX_DEPTH} levels", offset)
        if kind == "-":
            self.take()
            out = -self.factor()
            self.depth -= 1
            return out
        if kind in ("num", "name"):
            out = self.run(None, single=True)
        elif kind == "(":
            self.take()
            out = self.expr()
            self.take(")")
            self.depth -= 1
        else:
            raise _syntax_error(f"expected a factor, found {text or 'end'!r}", offset)
        while self.peek()[0] == "^":
            self.take()
            kind, text, offset = self.take("num")
            if "/" in text:
                raise _syntax_error("exponent must be a nonnegative integer", offset)
            digits = text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise _syntax_error(f"exponent above {MAX_EXPONENT}", offset)
            power, base, base_size = NCPoly.unit(), out, _size(out)
            for _ in range(int(digits)):
                _check_size(_size(power), base_size, offset)
                power = power * base
            out = power
        return out


def parse_expression(text: str) -> NCPoly:
    parser = _Parser(text)
    out = parser.expr()
    kind, tok_text, offset = parser.peek()
    if kind != "end":
        raise _syntax_error(f"unexpected {tok_text!r}", offset)
    return out


# -- numeric coupling scan ----------------------------------------------

class ScanRows(Sequence):
    """The (K, residual_fro) rows of a scan, read-only.

    Row i is (Fraction(start + stride*i, scale), fro[i]).  K is made on
    access: ``mbraid scan`` reads only ``len``, so a list of Fractions built
    up front would be the largest per-point cost of the scan.  Indices follow
    ``range``, slices are lists, and a ScanRows equals a list or ScanRows
    holding the same rows.
    """

    __slots__ = ("_start", "_stride", "_scale", "_fro")

    def __init__(self, start: int, stride: int, scale: int, fro: list):
        self._start, self._stride, self._scale, self._fro = start, stride, scale, fro

    def __len__(self) -> int:
        return len(self._fro)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self._fro))[i]]
        i = range(len(self._fro))[i]
        return Fraction(self._start + self._stride * i, self._scale), self._fro[i]

    def __eq__(self, other):
        if isinstance(other, (list, ScanRows)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return (f"ScanRows({len(self)} rows, K = ({self._start} + {self._stride}*i)"
                f"/{self._scale}, i = 0..{len(self) - 1})")


def run_scan(d, bindings, kmin, kmax, steps: int, out: str) -> Sequence:
    """Frobenius norm of the braid defect on an even grid of couplings.

    kmin and kmax are ints or Fractions and steps an int, or TypeError names
    the argument before any work: a float bound would scan from its binary
    expansion.  The bindings go into the 16 entries of Rhat first and must
    leave it polynomial in K, or ValueError names the family.  The braid
    defect of the bound matrix is written from its coordinates in the basis
    of its K-free coefficients (identities._basis_of and _defect_matrix),
    and its squared entries are summed once into F(K).  F's denominator is
    one positive int: no entry has K in a denominator, every other symbol is
    bound, and normalization's monomial shift puts no K into a constant.  Point i of the grid is
    (start + stride*i)/scale, and _on_grid gives F's numerator there in
    integers, as running sums.  Only the square root of the correctly rounded
    int / int quotient and the CSV text are floating point; K is written as
    the correctly rounded k / scale.  Every column is built before the CSV is
    opened, so an OverflowError writes none.

    Returns a ScanRows of (K, residual_fro) pairs, K an exact Fraction.  It
    keeps the grid integers and the float column and makes each K when it is
    read, so a scan builds no Fraction per point.
    """
    for name, value in (("kmin", kmin), ("kmax", kmax)):
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{name} must be an int or Fraction, got {type(value).__name__}")
    if not isinstance(steps, int):
        raise TypeError(f"steps must be an int, got {type(steps).__name__}")
    if not 2 <= steps <= MAX_SCAN_STEPS:
        raise ValueError(f"steps must be between 2 and {MAX_SCAN_STEPS}")
    spec = deformation(d)
    bindings = dict(bindings)
    for name, v in bindings.items():  # once, not once per entry of Rhat
        scalar = as_ratfunc(v)
        if scalar is not None:  # substitute refuses the rest
            bindings[name] = scalar
    rhat = build_rhat(spec).map(lambda e: substitute(e, bindings))
    defect = _defect_matrix(_basis_of(rhat, spec.id), ONE, sym("K"), ZERO)
    f = sum((e * e for e in defect.data), ZERO)
    free = sorted(f.symbols() - {"K"}, key=SYMBOLS.index)
    if free:
        raise UnknownSymbolError(f"no value bound for {free[0]!r}")
    num = _k_coeffs(f.num)
    (den,) = f.den.terms.values()
    kmin, kmax = Fraction(kmin), Fraction(kmax)
    scale = math.lcm(kmin.denominator, kmax.denominator)
    start = kmin.numerator * (scale // kmin.denominator)
    stride = kmax.numerator * (scale // kmax.denominator) - start
    start *= steps - 1
    scale *= steps - 1
    grid = _on_grid(num, start, stride, scale, steps)
    # _horner's second member is scale^(number of coefficients)
    fro = list(map(math.sqrt, map(truediv, grid, repeat(scale ** len(num) * den))))
    ks = accumulate(repeat(stride, steps - 1), initial=start)
    # no copy with the header: the peak memory stays the old loop's
    text = "".join(map("{:.17g},{:.17g}\n".format, map(truediv, ks, repeat(scale)), fro))
    with open(out, "w") as fh:
        fh.writelines(("K,residual_fro\n", text))
    return ScanRows(start, stride, scale, fro)


def _k_coeffs(p: Poly) -> list:
    """Coefficients of a polynomial in K alone, highest power first."""
    coeffs = [0] * (p.degree() + 1)
    for mono, c in p.terms.items():
        coeffs[-1 - mono[SYMBOLS.index("K")]] = c
    return coeffs


def _horner(coeffs: list, a: int, b: int) -> tuple:
    """The polynomial at a/b as an int pair (b^(n+1) p(a/b), b^(n+1)), n the
    degree, by Horner in integers."""
    out, bpow = 0, 1
    for c in coeffs:
        out = out * a + c * bpow
        bpow *= b
    return out * b, bpow


def _on_grid(coeffs: list, start: int, stride: int, scale: int, steps: int):
    """An iterator over _horner(coeffs, start + stride*i, scale)[0] for i in
    range(steps).

    That value is a polynomial in i of degree n with integer values, so
    Horner runs at the first n + 1 points only and gives the forward
    differences at point 0.  The n-th difference is constant and each lower
    one is the running sum of the one above, so n chained ``accumulate``
    calls give every later point in C; the chain yields steps + n values and
    is cut to steps.  The zero polynomial (no coefficients) is taken as
    degree 0.
    """
    n = max(len(coeffs) - 1, 0)
    diffs = [_horner(coeffs, start + stride * i, scale)[0] for i in range(n + 1)]
    for j in range(1, n + 1):
        for t in range(n, j - 1, -1):
            diffs[t] -= diffs[t - 1]
    seq = repeat(diffs[-1], steps)
    for d in reversed(diffs[:-1]):
        seq = accumulate(seq, initial=d)
    return islice(seq, steps)


# -- verification --------------------------------------------------------

def _scopes(checks) -> tuple:
    """The scope 'all', then the registry's scopes in their order."""
    return ("all", *dict.fromkeys(scope for scope, _, _, _ in checks))


def run_verify(scope: str = "all", json_out: bool = False, stream=None) -> int:
    stream = sys.stdout if stream is None else stream
    checks = registered_checks()
    if scope not in _scopes(checks):
        raise ValueError(f"unknown scope {scope!r}; expected one of {_scopes(checks)}")
    results = []
    with verify_pass():  # the checks share each family's symbolic-K builds
        for check_scope, name, d, fn in checks:
            if scope not in ("all", check_scope):
                continue
            try:
                ok, detail = fn(d)
            except Exception as exc:  # a crashed check is a failed check
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            results.append({
                "check": f"{check_scope}:{name}",
                "deformation": d,
                "status": "PASS" if ok else "FAIL",
                "detail": detail,
            })
    if json_out:
        stream.write(json.dumps(results, indent=2) + "\n")
    else:
        for r in results:
            label = r["check"] + (f"[{r['deformation']}]" if r["deformation"] else "")
            stream.write(f"{r['status']} {label:42} {r['detail']}\n")
    failed = sum(r["status"] == "FAIL" for r in results)
    if not json_out:
        stream.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


# -- argument plumbing ---------------------------------------------------

def _rational(text: str) -> Fraction:
    import argparse
    if "." in text:
        raise argparse.ArgumentTypeError(
            f"{text!r}: decimal literals are not exact; write n/d")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}")


def _build_argparser() -> argparse.ArgumentParser:
    import argparse
    ap = argparse.ArgumentParser(
        prog="mbraid",
        description="exact verification of a coupled family of R-matrices "
                    "and its noncommutative planes")
    sub = ap.add_subparsers(dest="verb", required=True)

    verify = sub.add_parser("verify", help="run registered symbolic checks")
    verify.add_argument("--scope", default="all", choices=_scopes(registered_checks()))
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(run=lambda args: run_verify(args.scope, args.json))

    solve = sub.add_parser("solve-rtt", help="solve RTT for the R-matrix family")
    solve.add_argument("--deformation", required=True, choices=DEFORMATIONS)
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(run=_do_solve_rtt)

    scan = sub.add_parser("scan", help="numeric braid-defect scan over K")
    scan.add_argument("--deformation", required=True, choices=DEFORMATIONS)
    for name in _PARAMETERS:
        scan.add_argument(f"--{name}", type=_rational)
    scan.add_argument("--kmin", type=_rational, required=True)
    scan.add_argument("--kmax", type=_rational, required=True)
    scan.add_argument("--steps", type=int, required=True)
    scan.add_argument("--csv", required=True, metavar="PATH")
    scan.add_argument("--json", action="store_true")
    scan.set_defaults(run=_do_scan)

    plane = sub.add_parser("plane", help="normal-order an expression in a plane")
    plane.add_argument("--deformation", default="pq", choices=DEFORMATIONS)
    plane.add_argument("--K", type=_rational, default=None)
    plane.add_argument("--expr", required=True)
    plane.add_argument("--json", action="store_true")
    plane.set_defaults(run=_do_plane)

    contract = sub.add_parser("contract", help="run the contraction suite")
    contract.add_argument("--json", action="store_true")
    contract.set_defaults(run=lambda args: run_verify("contraction", args.json))
    return ap


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        sys.stdout.write(json.dumps([payload], indent=2) + "\n")
    else:
        sys.stdout.write(text + "\n")


def _do_solve_rtt(args) -> int:
    try:
        mats = solve_family(args.deformation)
    except SpanMismatch as exc:
        mats, status, detail = [], "FAIL", str(exc)
    else:
        status, detail = "PASS", f"nullspace dimension {len(mats)}; catalog family in span"
    _emit(args, {"check": "rtt:solver", "deformation": args.deformation,
                 "status": status, "detail": detail}, f"{status} {detail}")
    if not args.json:
        for idx, m in enumerate(mats):
            sys.stdout.write(f"basis[{idx}]:\n")
            for i in range(m.rows):
                sys.stdout.write("  " + "  ".join(str(m[i, j]) for j in range(m.cols)) + "\n")
    return 1 if status == "FAIL" else 0


def _do_scan(args) -> int:
    bindings = {n: getattr(args, n) for n in _PARAMETERS if getattr(args, n) is not None}
    try:
        rows = run_scan(args.deformation, bindings, args.kmin, args.kmax,
                        args.steps, args.csv)
    except (ValueError, DivisionByZero, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    detail = f"{len(rows)} rows -> {args.csv}"
    _emit(args, {"check": "scan", "deformation": args.deformation,
                 "status": "PASS", "detail": detail}, detail)
    return 0


def _do_plane(args) -> int:
    try:
        expr = parse_expression(args.expr)
        bad = sorted({letter for word in expr.coeffs for letter in word
                      if letter not in PLANE})
        if bad:
            sys.stderr.write(f"error: not plane generators: {', '.join(bad)}\n")
            return 2
        if args.deformation in MIXED:
            system = build_plane_system(args.deformation, args.K).rules
        elif args.K is not None:  # the pure rules have no K to set
            sys.stderr.write(f"error: --K has no effect: {args.deformation} "
                             "planes have only pure sectors\n")
            return 2
        else:
            system = build_pure_system(args.deformation)
        nf = normal_order(expr, system)
    except (SyntaxError, UnknownSymbolError, DivisionByZero, StepCapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(args, {"check": "plane:normal-order", "deformation": args.deformation,
                 "status": "PASS", "detail": str(nf)}, str(nf))
    return 0


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
