"""Differential test of the expression parser against the one kept in
ref_parser.py, which forms every product factor by factor.

Both parsers must return equal NCPolys with the same words, in the same order,
and coefficients with the same numerator and denominator terms in the same
order, or raise the same exception class with the same message and offset."""

import random

import pytest
import ref_parser as ref

from mbraid import cli
from mbraid.cli import parse_expression
from mbraid.ncalgebra import NCPoly

ATOMS = ("0", "0/5", "1", "2", "7", "3/4", "12/8", "007",
         "K", "p", "q", "g", "h", "x", "y", "xi", "eta", "a", "b", "c", "d")
BAD_ATOMS = ("5/0", "0/0", "z", "u", "Kp", "1" * 4400)
DIVISORS = ("2", "3/4", "K", "(p-1)", "h^2", "12/8")
BAD_DIVISORS = ("0", "0/5", "(1-1)", "x", "(K+x-x)")
HEAVY = ("x^1000*", "(x+y)^13*", "((x+y)^13+(xi+eta)^13)*")


def _outcome(parse, text):
    try:
        out = parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return [(word, list(c.num.terms.items()), list(c.den.terms.items()))
            for word, c in out.coeffs.items()]


def _factor(r, depth):
    roll = r.random()
    if depth < 2 and roll < 0.08:
        return "(" + _expr(r, depth + 1) + ")" + r.choice(("", "", "^2", "^0"))
    if depth < 2 and roll < 0.16:
        return "-" + _factor(r, depth + 1)
    atom = r.choice(BAD_ATOMS if r.random() < 0.02 else ATOMS)
    if roll < 0.24:
        return f"{atom}^{r.randint(0, 3)}"
    return atom


def _term(r, depth):
    out = _factor(r, depth)
    for _ in range(r.randint(0, 6)):
        if r.random() < 0.15:
            out += "/" + r.choice(BAD_DIVISORS if r.random() < 0.2 else DIVISORS)
        else:
            out += r.choice(("*", "*", " * ")) + _factor(r, depth)
    return out


def _expr(r, depth=0):
    out = _term(r, depth)
    for _ in range(r.randint(0, 2)):
        out += r.choice(("+", "-", " + ", " - ")) + _term(r, depth)
    return out


def _case(r, i):
    if i % 500 == 499:  # a few, as each costs as much as a hundred others
        return HEAVY[i // 500 % len(HEAVY)] + _term(r, 0)
    if r.random() < 0.015:
        return "(x^10)^100*" + _expr(r)
    return _expr(r)


def test_parser_matches_reference_on_seeded_expressions():
    r = random.Random(1701)
    texts = [_case(r, i) for i in range(2500)]
    outcomes = {}
    for text in texts:
        got = _outcome(parse_expression, text)
        assert got == _outcome(ref.parse_expression, text), text
        outcomes[text] = got
    # the corpus reaches every path the folded term changes
    errors = {o[1].split(" at offset")[0] for o in outcomes.values() if isinstance(o, tuple)}
    assert {"zero denominator", "divisor must be scalar", "division by zero value",
            "word grows beyond 1000 letters", "expression grows beyond 10000 terms",
            "unknown symbol 'z'", "numeric literal too long"} <= errors, errors
    assert any(o == [] for o in outcomes.values())
    assert sum(isinstance(o, list) for o in outcomes.values()) > len(texts) // 4


@pytest.mark.parametrize("text", [
    "x^1000*0/5*eta", "x^1000*K*0*y*y", "x^1000*0*y/5*x", "x^999*y*y",
    "(x+y)^13*p*K*x", "((x+y)^13+(xi+eta)^13)*0*x",
    "((x+y)^13+(xi+eta)^13)*z*x", "((x+y)^13+(xi+eta)^13)*p*z",
    "2/3*3/2*x", "(1/p)*p*K*3/4", "x/p*p*q*3/4*x", "-5/4*h*b*a", "9*p*d*c*c*b",
    "0", "0/5", "0*x*y", "x*0", "3/0*x", "x*0/0", "x*y*z", "1" * 4400 + "*x",
    "x*" + "1" * 4400, "٣*x", "x*٣/٤", "x" + "*x" * 1000, "0" + "*x" * 1001,
    "(x-x)" + "*y" * 1001, "x/2*y", "-2*x", "-x^2*y", "4/6^2*x", "x/q*y", "x/3/4",
    "x/zz", "x/0",
])
def test_parser_matches_reference_at_the_edges(text):
    assert _outcome(parse_expression, text) == _outcome(ref.parse_expression, text)


def test_atom_runs_fold_into_one_product(monkeypatch):
    products, checks = [], []
    mul, check = NCPoly.__mul__, cli._check_size

    def counting_mul(a, b):
        products.append(1)
        return mul(a, b)

    def counting_check(*args):
        checks.append(1)
        return check(*args)

    monkeypatch.setattr(NCPoly, "__mul__", counting_mul)
    monkeypatch.setattr(cli, "_check_size", counting_check)
    assert str(parse_expression("9*p*d*c*c*b")) == "9*p*d*c*c*b"
    assert products == []
    assert str(parse_expression("-5/4*h*b*a")) == "((-5*h)/(4))*b*a"
    assert len(products) == 1  # the run times the negated literal
    checks.clear()
    parse_expression("(x+y)*p")
    assert checks
