"""Differential test of the int-coefficient scalar kernel against the
Fraction-coefficient reference kept in ref_scalars.py."""

import operator
import random
from fractions import Fraction

import pytest
import ref_scalars as ref

from mbraid.scalars import DivisionByZero, Poly, RatFunc

NVARS = 6
# per seed
BASE_VALUES = 150
OPERATIONS = 300
MAX_TERMS = 12


def _random_terms(rng, count):
    terms = {}
    for _ in range(count):
        mono = tuple(rng.choice((0, 0, 0, 0, 1, 2)) for _ in range(NVARS))
        c = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4)))
        terms[mono] = terms.get(mono, 0) + c
    return {m: c for m, c in terms.items() if c}


def _random_pair(rng):
    """The same random value as (library RatFunc, reference RatFunc)."""
    num = _random_terms(rng, rng.randint(0, 3))
    den = _random_terms(rng, rng.randint(1, 3)) or {(0,) * NVARS: Fraction(-2)}
    if rng.random() < 0.3:
        # a common monomial factor for normalization to cancel
        shift = tuple(rng.randint(0, 2) for _ in range(NVARS))
        num = {tuple(map(operator.add, m, shift)): c for m, c in num.items()}
        den = {tuple(map(operator.add, m, shift)): c for m, c in den.items()}

    # the library also takes integral coefficients as int or as Fraction
    def lib_terms(terms):
        return {m: c.numerator if c.denominator == 1 and rng.random() < 0.5 else c
                for m, c in terms.items()}

    return (RatFunc(Poly(lib_terms(num)), Poly(lib_terms(den))),
            ref.RatFunc(ref.Poly(dict(num)), ref.Poly(dict(den))))


def _ref_str(x):
    """The reference value printed by RatFunc's rule: num, or (num)/(den)."""
    if x.den.terms == {(0,) * NVARS: 1}:
        return str(Poly(x.num.terms))
    return f"({Poly(x.num.terms)})/({Poly(x.den.terms)})"


def _assert_same(lib, want):
    assert lib.num.terms == want.num.terms
    assert lib.den.terms == want.den.terms
    assert str(lib) == _ref_str(want)
    for c in (*lib.num.terms.values(), *lib.den.terms.values()):
        assert type(c) is int, (lib, c)


OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_matches_fraction_reference(seed):
    rng = random.Random(seed)
    pool = [_random_pair(rng) for _ in range(BASE_VALUES)]
    for lib, want in pool:
        _assert_same(lib, want)
    # zeros, including ones reached by cancellation, exercise the fast paths
    a, b = pool[0]
    pool.append((a - a, b - b))
    pool.append((RatFunc(Poly({})), ref.RatFunc(ref.Poly({}))))

    for _ in range(OPERATIONS):
        (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
        kind = rng.randrange(5)
        if kind < 4:
            op = OPS[kind]
            if op is operator.truediv and ry.is_zero():
                with pytest.raises(DivisionByZero):
                    x / y
                continue
            got, want = op(x, y), op(rx, ry)
        else:
            n = rng.randint(-2, 3)
            if n < 0 and rx.is_zero():
                with pytest.raises(DivisionByZero):
                    x ** n
                continue
            got, want = x ** n, rx ** n
        _assert_same(got, want)
        assert (x == y) is (rx == ry)
        if len(got.num.terms) + len(got.den.terms) <= MAX_TERMS:
            pool.append((got, want))
        assert (got - y) + y == got


def test_equal_values_with_different_representations():
    rng = random.Random(2)
    for _ in range(50):
        (x, rx), (y, ry) = _random_pair(rng), _random_pair(rng)
        if ry.is_zero():
            continue
        got = (x * y) / y
        _assert_same(got, (rx * ry) / ry)
        assert got == x
