import random
from fractions import Fraction

import pytest

from mbraid.scalars import (
    ONE,
    ZERO,
    DivisionByZero,
    PoleAtZero,
    UnknownSymbolError,
    const,
    limit_u0,
    substitute,
    sym,
    vanishes_at_sqrt,
)
from ref_scalars import poly_divmod_in

K = sym("K")
P = sym("p")
Q = sym("q")
G = sym("g")
U = sym("u")


def _random_value(rng):
    v = const(rng.randint(-3, 3))
    for s in (K, P, Q):
        if rng.random() < 0.6:
            v = v + rng.randint(-2, 2) * s
        if rng.random() < 0.3:
            v = v * (s + rng.randint(1, 2))
    return v


def test_construction_and_printing():
    assert str(K) == "K"
    assert str(ZERO) == "0"
    assert str(const(Fraction(-7, 3))) == "(-7)/(3)"
    assert str((K + 1) * (K - 1)) == "K^2 - 1"
    assert str(ONE / (P + Q)) == "(1)/(p + q)"
    assert str(2 * K * Q - P) == "2*K*q - p"


def test_unknown_symbol_rejected():
    with pytest.raises(UnknownSymbolError):
        sym("z")


def test_monomial_content_cancellation():
    x = (K * P) / (K * Q)
    assert str(x) == "(p)/(q)"
    y = (K * K * P) / (K * (P + K * P))
    assert str(y) == "(K)/(K + 1)"


def test_denominator_leading_sign_positive():
    x = ONE / (Q - P)
    assert str(x) == "(-1)/(p - q)"
    assert x * (Q - P) == ONE


def test_integer_content_cleared():
    x = const(Fraction(3, 2)) * K
    assert str(x) == "(3*K)/(2)"
    assert x + x == 3 * K


def test_equality_without_gcd():
    lhs = (K * K - 1) / (K - 1)
    assert lhs == K + 1
    assert not (lhs == K - 1)
    assert (P / Q) != (Q / P)


def test_field_axioms_on_random_values():
    rng = random.Random(20260819)
    for _ in range(40):
        x = _random_value(rng)
        y = _random_value(rng)
        z = _random_value(rng)
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert x - x == ZERO
        if not y.is_zero():
            assert (x / y) * y == x


def test_pow_and_inverse():
    x = (K + P) / Q
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == ONE / (x * x)
    assert x.inverse() * x == ONE
    with pytest.raises(DivisionByZero):
        ZERO.inverse()
    with pytest.raises(DivisionByZero):
        (K / P) / ZERO


def test_eval_exact():
    x = (K * K - 1) / (P + Q)
    assert x.eval({"K": 3, "p": Fraction(1, 2), "q": Fraction(1, 2)}) == 8
    with pytest.raises(DivisionByZero):
        x.eval({"K": 1, "p": 1, "q": -1})
    with pytest.raises(UnknownSymbolError):
        x.eval({"K": 1})


def test_substitute_basic():
    x = (1 - P) / U
    y = substitute(x, {"p": 1 - G * U})
    assert y == G
    assert substitute(K + P, {"K": P}) == 2 * P


def test_substitute_rejects_clashing_bindings():
    with pytest.raises(ValueError):
        substitute(K, {"K": K + 1})
    with pytest.raises(ValueError):
        substitute(K + P, {"K": P, "p": Q})


def test_substitute_refuses_a_non_scalar_binding():
    # a float is not exact and a str is not a value; both are named up front
    for value, kind in ((2.5, "float"), ("2", "str")):
        with pytest.raises(TypeError, match=f"'p' must be a scalar, got {kind}"):
            substitute(K + P, {"p": value})


def test_limit_u0():
    assert limit_u0((2 * U + U * U * P) / U) == const(2)
    assert limit_u0(substitute((1 - P) / U, {"p": 1 - G * U})) == G
    assert limit_u0(K / (1 + U)) == K
    with pytest.raises(PoleAtZero):
        limit_u0(ONE / U)
    with pytest.raises(PoleAtZero):
        limit_u0((K + U) / (U * U + U))


def test_poly_divmod_in():
    f = ((K + 1) * (K - P) * Q).num
    g = ((K + 1) * (K - P)).num
    quot, rem = poly_divmod_in(f, g, "K")
    assert not rem
    assert quot == {0: Q}
    _, rem2 = poly_divmod_in((K * K + 1).num, (K - 1).num, "K")
    assert rem2 and rem2[0] == const(2)


def test_vanishes_at_sqrt_truth_table():
    rho = 2 * P * Q / (P + Q)
    root = U * U - rho
    assert vanishes_at_sqrt(root, rho)
    assert vanishes_at_sqrt(root / U, rho)
    assert vanishes_at_sqrt(ZERO, rho)
    assert not vanishes_at_sqrt(U - 1, rho)
    assert not vanishes_at_sqrt(ONE, rho)
    # without a gcd, root / root keeps u^2 - rho in its denominator
    assert not vanishes_at_sqrt(root / root, rho)
    assert vanishes_at_sqrt(root * (U + P), rho)
    assert vanishes_at_sqrt(U * U * U - rho * U, rho)
    assert not vanishes_at_sqrt(U - rho, rho)
    assert not vanishes_at_sqrt(U * U + rho, rho)
    # u p is p s at s: its constant part is zero and its s part is not
    assert not vanishes_at_sqrt(U * P, rho)


def _divides_at_sqrt(x, rho):
    """The long-division form of vanishes_at_sqrt: u^2 - rho divides the
    numerator and not the denominator."""
    g = (U * U - rho).num
    return not poly_divmod_in(x.num, g, "u")[1] and bool(poly_divmod_in(x.den, g, "u")[1])


def _random_u_value(rng):
    v = ZERO
    for e in range(rng.randint(1, 3)):
        v = v + rng.randint(-2, 2) * _random_value(rng) * U ** e
    return v


def test_vanishes_at_sqrt_matches_long_division():
    rng = random.Random(20261019)
    rhos = (2 * P * Q / (P + Q), P, const(2), K * P / (Q + 1), P + Q)
    seen = set()
    for _ in range(300):
        rho = rng.choice(rhos)
        root = U * U - rho
        num = _random_u_value(rng) * rng.choice((ONE, root, root * (U + P)))
        den = _random_u_value(rng)
        if den.is_zero():
            den = ONE + U
        if rng.random() < 0.25:
            den = den * root
        x = num / den
        got = vanishes_at_sqrt(x, rho)
        assert got == _divides_at_sqrt(x, rho), (x, rho)
        seen.add(got)
    assert seen == {True, False}
