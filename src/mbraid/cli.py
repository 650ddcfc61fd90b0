"""Command-line front end: verification suites, the RTT solver, a numeric
coupling scan with CSV output, and expression normal-ordering behind a small
exact parser.

Output discipline: all arithmetic is exact; decimals appear only in the scan
CSV, produced at the last moment with 17 significant digits so identical
invocations are byte-identical.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .catalog import (DEFORMATIONS, DegenerateX, build_M, build_r, build_rhat,
                      deformation, hecke_X, kprime, projectors, triangular_K)
from .contraction import (contract_group_relations, contract_matrix,
                          contract_plane, frame)
from .identities import (DegenerateValues, affine_decomposition,
                         baxterization_check, braid_divisibility,
                         braid_residual, mbe_check, mbe_r_form, s_shift_check)
from .ncalgebra import NCPoly, build_group_system, diamond_check, normal_order
from .plane import (UnsupportedDeformation, build_plane_system,
                    build_pure_system, phi_commutators, phi_nilpotent,
                    projector_consistency, pure_sector_consistency)
from .pmatrix import ParamMatrix, flip21, inverse
from .rtt import SpanMismatch, rtt_residual, solve_family
from .scalars import (ONE, DivisionByZero, QuadExt, UnknownSymbolError,
                      limit_u0, substitute, sym)

NONCOMMUTING = ("a", "b", "c", "d", "x", "y", "xi", "eta")
COMMUTING = ("K", "p", "q", "g", "h")


class UnknownSymbol(ValueError):
    """An identifier outside the grammar's alphabet."""


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

def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 2
                while j < n and text[j].isdigit():
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise _syntax_error(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def expr(self) -> NCPoly:
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> NCPoly:
        out = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.take()
            rhs = self.factor()
            if op == "*":
                out = out * rhs
                continue
            if any(word for word in rhs.coeffs):
                raise _syntax_error("divisor must be scalar", offset)
            out = out.scale(ONE / rhs.coefficient(()))
        return out

    def factor(self) -> NCPoly:
        kind, text, offset = self.peek()
        if kind == "-":
            self.take()
            return -self.factor()
        if kind == "num":
            self.take()
            out = NCPoly.unit(Fraction(text))
        elif kind == "name":
            self.take()
            if text in COMMUTING:
                out = NCPoly.unit(sym(text))
            elif text in NONCOMMUTING:
                out = NCPoly.gen(text)
            else:
                raise UnknownSymbol(f"unknown symbol {text!r} at offset {offset}")
        elif kind == "(":
            self.take()
            out = self.expr()
            self.take(")")
        else:
            raise _syntax_error(f"expected a factor, found {text or 'end'!r}", offset)
        while self.peek()[0] == "^":
            self.take()
            kind, text, offset = self.take("num")
            if "/" in text:
                raise _syntax_error("exponent must be a nonnegative integer", offset)
            power, base = NCPoly.unit(), out
            for _ in range(int(text)):
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

def run_scan(d, bindings, kmin, kmax, steps: int, out: str) -> list:
    """Frobenius norm of the braid defect on an even grid of couplings.

    The grid and every matrix entry stay exact rationals; the square root
    and the CSV text are the only floating-point steps.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    spec = deformation(d)
    bound = [substitute(e, dict(bindings)) for e in braid_residual(spec).data]
    bound = [e for e in bound if not e.is_zero()]
    kmin, kmax = Fraction(kmin), Fraction(kmax)
    rows = []
    for i in range(steps):
        kval = kmin + (kmax - kmin) * i / (steps - 1)
        total = Fraction(0)
        for e in bound:
            v = e.eval({"K": kval})
            total += v * v
        rows.append((kval, math.sqrt(total)))
    with open(out, "w") as fh:
        fh.write("K,residual_fro\n")
        for kval, fro in rows:
            fh.write(f"{float(kval):.17g},{fro:.17g}\n")
    return rows


# -- verification registry ----------------------------------------------

def _check_rhat_affine(d):
    at0 = build_rhat(d, 0)
    slope = build_rhat(d, 1) - at0
    ok = (at0 == ParamMatrix.identity(4)
          and build_rhat(d) == at0 + slope.scale(sym("K")))
    return ok, "Rhat(0) = I and Rhat affine in K"


def _check_hecke(d):
    rhat = build_rhat(d)
    x = hecke_X(d)
    ident = ParamMatrix.identity(4)
    ok = rhat @ rhat == rhat.scale(x) + ident.scale(1 - x)
    return ok, "Rhat^2 = X Rhat + (1 - X) I"


def _check_projectors(d):
    p1, p2 = projectors(d)
    ident = ParamMatrix.identity(4)
    x = hecke_X(d)
    ok = (p1 @ p1 == p1 and p2 @ p2 == p2
          and (p1 @ p2).is_zero() and p1 + p2 == ident
          and build_rhat(d) == p1.scale(x - 1) + p2)
    return ok, "idempotent, orthogonal, complete; Rhat = (X-1)P1 + P2"


def _check_rtt_residual(d):
    cells = rtt_residual(build_r(d), build_group_system(d))
    ok = all(cell.is_zero() for row in cells for cell in row)
    return ok, "16 cells of R.T1T2 - T2T1.R normal-order to 0"


def _check_rtt_span(d):
    try:
        mats = solve_family(d)
    except SpanMismatch as exc:
        return False, str(exc)
    return len(mats) == 2, f"nullspace dimension {len(mats)}, catalog in span"


def _check_mbe(d):
    rep = mbe_check(d)
    return rep.residual_zero, f"defect factor {rep.factor}"


def _check_mbe_r_form(d):
    return mbe_r_form(d).is_zero(), "R-form defect identity holds"


def _check_braid_values(d):
    spec = deformation(d)
    ok = (braid_residual(spec, spec.K1).is_zero()
          and braid_residual(spec, spec.K2).is_zero()
          and braid_divisibility(spec))
    return ok, f"B = 0 at K1 = {spec.K1}, K2 = {spec.K2}; (K-K1)(K-K2) divides B"


def _check_flip_inverse(d):
    spec = deformation(d)
    kp = kprime(spec)
    ident = ParamMatrix.identity(4)
    kstar = triangular_K(spec)
    rstar = build_rhat(spec, kstar)
    ok = (flip21(build_r(spec)) @ build_r(spec, kp) == ident
          and kprime(spec, kp) == sym("K")
          and rstar @ rstar == ident)
    return ok, f"(21)R(K).R(K') = I, K'' = K, Rhat^2 = I at K* = {kstar}"


def _check_m_factorization(_):
    m, rho = build_M()
    target = build_r("pq", triangular_K("pq")).map(lambda e: QuadExt.of(e, rho))
    return inverse(flip21(m)) @ m == target, "inverse((21)M).M = R(K*) with s^2 = 2pq/(p+q)"


def _check_affine_decomposition(d):
    spec = deformation(d)
    try:
        c1, c2 = affine_decomposition(spec)
    except DegenerateValues as exc:
        ok = spec.id == "gh"
        return ok, f"degenerate as required: {exc}" if ok else str(exc)
    built = build_rhat(spec, spec.K1).scale(c1) + build_rhat(spec, spec.K2).scale(c2)
    ok = (c1 + c2 == ONE) and built == build_rhat(spec)
    return ok, f"Rhat(K) = ({c1}) Rhat(K1) + ({c2}) Rhat(K2)"


def _check_s_shift(d):
    ok = s_shift_check(d) and s_shift_check(d, "root")
    return ok, "shifted braid defect factors; exact root restores the braid"


def _check_baxterization(d):
    return baxterization_check(d), "affine family through both braid couplings"


def _check_pure_sectors(d):
    return pure_sector_consistency(d), "projector constraints on pure sectors"


def _check_projector_consistency(d):
    if d == "qh":
        return projector_consistency("qh"), "pure sectors only (no mixed calculus)"
    return projector_consistency(build_plane_system(d)), "pure and mixed sectors"


def _check_phi_nilpotent(d):
    return phi_nilpotent(build_plane_system(d)), "Phi^2 normal-orders to 0"


def _check_phi_commutators(d):
    return phi_commutators(build_plane_system(d)), "all four coordinate/differential pairs"


def _check_diamond(d):
    spec = deformation(d)
    couplings = [spec.K1] + ([] if spec.K2 == spec.K1 else [spec.K2])
    for k in couplings:
        violations = diamond_check(build_plane_system(spec, k).rules, 4)
        if violations:
            return False, f"{len(violations)} violations at K = {k}"
    return True, "no overlap violations to degree 4 at the braid couplings"


def _check_contraction_curve(_):
    g, h, u = sym("g"), sym("h"), sym("u")
    p, q = sym("p"), sym("q")
    fr = frame()
    subs = {n: v for n, v in fr.substitutions.items() if n in ("p", "q")}
    om = ONE / u
    ok = (substitute((1 - p) * om, subs) == g
          and substitute((q - 1) * om, subs) == h
          and limit_u0(substitute((1 / p - q) * om, subs)) == g - h
          and limit_u0(substitute((p * q - 1) * om, subs)) == h - g)
    return ok, "(1-p)w = g, (q-1)w = h exactly; difference combinations converge"


def _check_contraction_matrix(_):
    return contract_matrix() == build_r("gh"), "conjugated R(K;p,q) contracts onto R(K;g,h)"


def _check_contraction_group(_):
    return contract_group_relations(), "all six group relations emerge from the limit"


def _check_contraction_plane(_):
    return contract_plane(), "plane relations and Phi1 -> Phi2 emerge from the limit"


def registered_checks() -> list:
    """(scope, name, deformation, callable) for every verification line."""
    out = []
    for d in DEFORMATIONS:
        out.append(("catalog", "rhat-affine", d, _check_rhat_affine))
        out.append(("catalog", "hecke", d, _check_hecke))
        out.append(("catalog", "projectors", d, _check_projectors))
    for d in DEFORMATIONS:
        out.append(("rtt", "residual", d, _check_rtt_residual))
        out.append(("rtt", "solver-span", d, _check_rtt_span))
    for d in DEFORMATIONS:
        out.append(("identities", "mbe", d, _check_mbe))
        out.append(("identities", "mbe-r-form", d, _check_mbe_r_form))
        out.append(("identities", "braid-values", d, _check_braid_values))
        out.append(("identities", "flip-inverse", d, _check_flip_inverse))
        out.append(("identities", "affine-decomposition", d, _check_affine_decomposition))
        out.append(("identities", "s-shift", d, _check_s_shift))
        out.append(("identities", "baxterization", d, _check_baxterization))
    out.append(("identities", "m-factorization", "pq", _check_m_factorization))
    for d in DEFORMATIONS:
        out.append(("plane", "pure-sectors", d, _check_pure_sectors))
        out.append(("plane", "projector-consistency", d, _check_projector_consistency))
    for d in ("pq", "gh"):
        out.append(("plane", "phi-nilpotent", d, _check_phi_nilpotent))
        out.append(("plane", "phi-commutators", d, _check_phi_commutators))
        out.append(("plane", "diamond-at-couplings", d, _check_diamond))
    out.append(("contraction", "curve", None, _check_contraction_curve))
    out.append(("contraction", "matrix", None, _check_contraction_matrix))
    out.append(("contraction", "group-relations", None, _check_contraction_group))
    out.append(("contraction", "plane", None, _check_contraction_plane))
    return out


def run_verify(scope: str = "all", json_out: bool = False, stream=None) -> int:
    stream = sys.stdout if stream is None else stream
    results = []
    for check_scope, name, d, fn in registered_checks():
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
    if "." in text:
        raise argparse.ArgumentTypeError(
            f"{text!r}: decimal literals are not exact; write n/d")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}")


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mbraid",
        description="exact verification of a coupled family of R-matrices "
                    "and its noncommutative planes")
    sub = ap.add_subparsers(dest="verb", required=True)

    verify = sub.add_parser("verify", help="run registered symbolic checks")
    verify.add_argument("--scope", default="all",
                        choices=("all", "catalog", "rtt", "identities",
                                 "plane", "contraction"))
    verify.add_argument("--json", action="store_true")

    solve = sub.add_parser("solve-rtt", help="solve RTT for the R-matrix family")
    solve.add_argument("--deformation", required=True, choices=DEFORMATIONS)
    solve.add_argument("--json", action="store_true")

    scan = sub.add_parser("scan", help="numeric braid-defect scan over K")
    scan.add_argument("--deformation", required=True, choices=DEFORMATIONS)
    for name in ("p", "q", "g", "h"):
        scan.add_argument(f"--{name}", type=_rational)
    scan.add_argument("--kmin", type=_rational, required=True)
    scan.add_argument("--kmax", type=_rational, required=True)
    scan.add_argument("--steps", type=int, required=True)
    scan.add_argument("--csv", required=True, metavar="PATH")
    scan.add_argument("--json", action="store_true")

    plane = sub.add_parser("plane", help="normal-order an expression in a plane")
    plane.add_argument("--deformation", default="pq", choices=DEFORMATIONS)
    plane.add_argument("--K", type=_rational, default=None)
    plane.add_argument("--expr", required=True)
    plane.add_argument("--json", action="store_true")

    contract = sub.add_parser("contract", help="run the contraction suite")
    contract.add_argument("--json", action="store_true")
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
        _emit(args, {"check": "rtt:solver", "deformation": args.deformation,
                     "status": "FAIL", "detail": str(exc)}, f"FAIL {exc}")
        return 1
    detail = f"nullspace dimension {len(mats)}; catalog family in span"
    _emit(args, {"check": "rtt:solver", "deformation": args.deformation,
                 "status": "PASS", "detail": detail},
          f"PASS {detail}")
    if not args.json:
        for idx, m in enumerate(mats):
            sys.stdout.write(f"basis[{idx}]:\n")
            for i in range(m.rows):
                sys.stdout.write("  " + "  ".join(str(m[i, j]) for j in range(m.cols)) + "\n")
    return 0


def _do_scan(args) -> int:
    bindings = {n: v for n, v in
                (("p", args.p), ("q", args.q), ("g", args.g), ("h", args.h))
                if v is not None}
    try:
        rows = run_scan(args.deformation, bindings, args.kmin, args.kmax,
                        args.steps, args.csv)
    except (ValueError, UnknownSymbolError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    detail = f"{len(rows)} rows -> {args.csv}"
    _emit(args, {"check": "scan", "deformation": args.deformation,
                 "status": "PASS", "detail": detail}, detail)
    return 0


def _do_plane(args) -> int:
    try:
        expr = parse_expression(args.expr)
    except (SyntaxError, UnknownSymbol, DivisionByZero) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    bad = sorted({letter for word in expr.coeffs for letter in word
                  if letter not in ("x", "y", "xi", "eta")})
    if bad:
        sys.stderr.write(f"error: not plane generators: {', '.join(bad)}\n")
        return 2
    try:
        system = build_plane_system(args.deformation, args.K).rules
    except UnsupportedDeformation:
        system = build_pure_system(args.deformation)
    except (DegenerateX, DivisionByZero, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    nf = normal_order(expr, system)
    _emit(args, {"check": "plane:normal-order", "deformation": args.deformation,
                 "status": "PASS", "detail": str(nf)}, str(nf))
    return 0


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    if args.verb == "verify":
        return run_verify(args.scope, args.json)
    if args.verb == "solve-rtt":
        return _do_solve_rtt(args)
    if args.verb == "scan":
        return _do_scan(args)
    if args.verb == "plane":
        return _do_plane(args)
    if args.verb == "contract":
        return run_verify("contraction", args.json)
    raise AssertionError(f"unhandled verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
