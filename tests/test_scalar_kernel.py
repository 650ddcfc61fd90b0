"""Differential test of the int-coefficient scalar kernel against the
Fraction-coefficient reference kept in ref_scalars.py."""

import operator
import random
from fractions import Fraction

import pytest
import ref_scalars as ref

from mbraid import ncalgebra, scalars
from mbraid.cli import parse_expression
from mbraid.scalars import (_POLY_ONE, _POLY_ZERO, ONE, SYMBOLS, DivisionByZero,
                            Poly, RatFunc, _normalized)

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


def _terms_list(num, den):
    return list(num.terms.items()), list(den.terms.items())


def _assert_same(lib, want):
    """Same representation, with the terms in the same insertion order, and
    already normal: normalizing the result again changes nothing."""
    assert _terms_list(lib.num, lib.den) == _terms_list(want.num, want.den)
    assert _terms_list(*_normalized(lib.num, lib.den)) == _terms_list(lib.num, lib.den)
    assert str(lib) == _ref_str(want)
    for c in (*lib.num.terms.values(), *lib.den.terms.values()):
        assert type(c) is int, (lib, c)
    if lib.is_zero():
        # normalization gives every zero the shared (0, 1) pair
        assert lib.num is _POLY_ZERO and lib.den is _POLY_ONE


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
    # units exercise the fast path of multiplication by 1
    mono_one = (0,) * NVARS
    ref_one = ref.RatFunc(ref.Poly({mono_one: Fraction(1)}))
    units = [(ONE, ref_one), (-ONE, -ref_one),
             (RatFunc(Poly({mono_one: Fraction(1)})), ref_one)]
    for u, ru in units:
        for x, rx in pool[:20]:
            _assert_same(x * u, rx * ru)
            _assert_same(u * x, ru * rx)
    pool += units

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


def test_product_with_one_keeps_representation():
    x = RatFunc(Poly({(1, 0, 0, 0, 0, 0): Fraction(1, 2)}),
                Poly({(0, 1, 0, 0, 0, 0): 3, (0, 0, 0, 0, 0, 0): -1}))
    for got in (x * ONE, ONE * x, x * 1, 1 * x):
        assert got.num.terms == x.num.terms
        assert got.den.terms == x.den.terms
        assert str(got) == str(x) == "(K)/(6*p - 2)"


def _random_poly_pair(rng):
    """A random polynomial (denominator 1) as (library RatFunc, reference RatFunc)."""
    terms = {m: Fraction(c.numerator) for m, c in _random_terms(rng, rng.randint(1, 4)).items()}
    return (RatFunc(Poly({m: int(c) for m, c in terms.items()})),
            ref.RatFunc(ref.Poly(dict(terms))))


def _edge_pairs():
    """Values whose products normalize only because of a common monomial
    factor or a common content: K and 6p over 1, 1/(3K) and p/(2p + 4)."""
    mono = {"1": (0,) * NVARS, "K": (1, 0, 0, 0, 0, 0), "p": (0, 1, 0, 0, 0, 0)}
    cases = [({mono["K"]: 1}, {mono["1"]: 1}),
             ({mono["p"]: 6}, {mono["1"]: 1}),
             ({mono["1"]: 1}, {mono["K"]: 3}),
             ({mono["p"]: 1}, {mono["p"]: 2, mono["1"]: 4})]
    return [(RatFunc(Poly(dict(n)), Poly(dict(d))),
             ref.RatFunc(ref.Poly({m: Fraction(c) for m, c in n.items()}),
                         ref.Poly({m: Fraction(c) for m, c in d.items()})))
            for n, d in cases]


POLY_OPS = [operator.add, operator.sub, operator.mul]


@pytest.mark.parametrize("seed", [3, 4])
def test_polynomial_fast_path_matches_fraction_reference(seed):
    rng = random.Random(seed)
    polys = [_random_poly_pair(rng) for _ in range(60)]
    edges = _edge_pairs()
    pool = polys + [_random_pair(rng) for _ in range(30)] + edges
    for lib, want in pool:
        _assert_same(lib, want)
    # sums and differences that cancel to zero, wholly or in part
    for (x, rx), (y, ry) in zip(polys, polys[1:]):
        _assert_same(x - x, rx - rx)
        _assert_same(x + -x, rx + -rx)
        _assert_same(x + (y - x), rx + (ry - rx))
        _assert_same(-(x - x), -(rx - rx))
    for (x, rx), (y, ry) in ((a, b) for a in edges for b in pool):
        for op in POLY_OPS:
            _assert_same(op(x, y), op(rx, ry))
            _assert_same(op(y, x), op(ry, rx))
    for _ in range(OPERATIONS):
        # mostly polynomial operands, so most operations take the fast path
        (x, rx) = rng.choice(polys if rng.random() < 0.8 else pool)
        (y, ry) = rng.choice(polys if rng.random() < 0.8 else pool)
        if rng.random() < 0.2:
            got, want = -x, -rx
        else:
            op = rng.choice(POLY_OPS)
            got, want = op(x, y), op(rx, ry)
        _assert_same(got, want)
        if len(got.num.terms) + len(got.den.terms) <= MAX_TERMS:
            pool.append((got, want))
            if got.den.terms == {(0,) * NVARS: 1}:
                polys.append((got, want))


def test_polynomial_fast_path_skips_normalization(monkeypatch):
    calls = []

    def counting(num, den):
        calls.append(1)
        return _normalized(num, den)

    monkeypatch.setattr(scalars, "_normalized", counting)
    k, p = scalars.sym("K"), scalars.sym("p")
    x, y = k * k + 2 * p, k - 3 * p
    rational = RatFunc(Poly({(1, 0, 0, 0, 0, 0): 1}), Poly({(0, 1, 0, 0, 0, 0): 2,
                                                           (0, 0, 0, 0, 0, 0): 1}))
    calls.clear()
    _ = (x * y, x + y, x - y, x - x, -x, -rational)
    assert calls == []
    _ = x * rational
    assert len(calls) == 1
    _ = x + rational
    assert len(calls) == 2


def test_monomial_ratios_skip_normalization(monkeypatch):
    calls = []

    def counting(num, den):
        calls.append(1)
        return _normalized(num, den)

    monkeypatch.setattr(scalars, "_normalized", counting)
    k, p, q = scalars.sym("K"), scalars.sym("p"), scalars.sym("q")
    x, y = k / p, -2 * k * q / (3 * p * p)
    calls.clear()
    _ = (x * y, y * x, x / y, y / x, x.inverse(), y.inverse(), y ** -2)
    # a unit denominator is the shared one, not a fresh dict per value
    assert (x * (3 * p / k)).den is _POLY_ONE
    assert (y * (-3 * p * p / (2 * k * q))).den is _POLY_ONE
    assert (y / (-2 * k * q / p ** 2)).den.terms == {(0,) * NVARS: 3}
    # an operand equal to the result's numerator or denominator is shared
    w = q / p
    assert (x * (ONE / q)).num is x.num and (x / w).den is w.num
    assert calls == []
    # the group-pq forms carry 1/q, so building them multiplies monomial
    # ratios; the general path normalizes 7 times here
    system = ncalgebra.build_group_system("pq")
    expr = parse_expression("-6*q*d*b*d*a*d")
    calls.clear()
    ncalgebra.normal_order(expr, system)
    assert len(calls) <= 4


def test_the_alphabet_has_the_six_fields_poly_mul_unpacks():
    assert len(SYMBOLS) == 6, (
        "Poly.__mul__, _normalized and _mono_quotient unpack each monomial into "
        "exactly six fields, (k, p, q, g, h, u); change those unpacks together "
        "with SYMBOLS")


@pytest.mark.parametrize("seed", [5, 6])
def test_poly_mul_matches_the_map_add_loop(seed):
    """Same terms, in the same insertion order, as the tuple(map(add, ...))
    loop, with Fraction and int coefficients and with terms that cancel."""
    rng = random.Random(seed)
    pool = [_random_terms(rng, rng.randint(0, 5)) for _ in range(80)]
    # (a + b)(a - b): the cross terms meet with opposite signs, so the loop
    # deletes a monomial it has already stored
    for left in pool[:20]:
        if len(left) >= 2:
            (m1, c1), (m2, c2) = list(left.items())[:2]
            pool.append({m1: c1, m2: c2})
            pool.append({m1: c1, m2: -c2})
    pool += [{m: int(c) for m, c in t.items() if c.denominator == 1} for t in pool[:40]]
    deleted = 0
    for _ in range(400):
        left, right = rng.choice(pool), rng.choice(pool)
        want = ref.map_add_product(left, right)
        got = (Poly(dict(left)) * Poly(dict(right))).terms
        assert list(got.items()) == list(want.items())
        deleted += len(want) < len({tuple(map(operator.add, m1, m2))
                                    for m1 in left for m2 in right})
        if len(want) <= MAX_TERMS:
            pool.append(want)
    assert deleted


def test_product_with_the_unit_polynomial_keeps_the_loop_order():
    # the unit on either side returns the other operand, whose terms are in
    # the order the product loop would insert them
    rng = random.Random(7)
    unit = Poly.const(1)
    operands = [_random_terms(rng, rng.randint(1, 5)) for _ in range(20)]
    operands += [Poly.const(Fraction(3, 2)).terms, Poly.const(Fraction(-4, 2)).terms]
    for terms in operands:
        p = Poly(dict(terms))
        for got, want in ((unit * p, ref.map_add_product(unit.terms, terms)),
                          (p * unit, ref.map_add_product(terms, unit.terms))):
            assert got is p
            assert list(got.terms.items()) == list(want.items())
        assert Poly.const(Fraction(2, 2)) * p is p
    # the same fast path inside a RatFunc product with one polynomial operand
    x = RatFunc(Poly({(1, 0, 0, 0, 0, 0): 3, (0, 1, 0, 0, 0, 0): -2}),
                Poly({(0, 0, 1, 0, 0, 0): 1, (0, 0, 0, 0, 0, 0): 5}))
    rx = ref.RatFunc(ref.Poly({(1, 0, 0, 0, 0, 0): Fraction(3), (0, 1, 0, 0, 0, 0): Fraction(-2)}),
                     ref.Poly({(0, 0, 1, 0, 0, 0): Fraction(1), (0, 0, 0, 0, 0, 0): Fraction(5)}))
    for (y, ry) in [_random_poly_pair(rng) for _ in range(20)]:
        _assert_same(x * y, rx * ry)
        _assert_same(y * x, ry * rx)


def test_poly_subtraction_matches_adding_the_negation():
    rng = random.Random(8)
    pool = [_random_terms(rng, rng.randint(0, 5)) for _ in range(60)]
    for left in pool[:20]:
        # cancellation to zero, and in part: the shared terms leave the dict
        pool.append(dict(left))
        pool.append({m: c if i % 2 else 2 * c for i, (m, c) in enumerate(left.items())})
    for _ in range(300):
        left, right = rng.choice(pool), rng.choice(pool)
        got = Poly(dict(left)) - Poly(dict(right))
        want = ref.Poly(dict(left)) - ref.Poly(dict(right))
        assert list(got.terms.items()) == list(want.terms.items())
    for terms in pool:
        assert (Poly(dict(terms)) - Poly(dict(terms))).terms == {}


def test_one_term_denominator_sign_is_normalized():
    # 1/(-q), -p/(-3K) and a denominator with a common monomial factor
    mono = {"1": (0,) * NVARS, "K": (1, 0, 0, 0, 0, 0), "p": (0, 1, 0, 0, 0, 0),
            "q": (0, 0, 1, 0, 0, 0), "Kq": (1, 0, 1, 0, 0, 0)}
    cases = [({mono["1"]: 1}, {mono["q"]: -1}),
             ({mono["p"]: -1}, {mono["K"]: -3}),
             ({mono["p"]: 2, mono["K"]: 4}, {mono["Kq"]: -6}),
             ({mono["1"]: Fraction(1, 2)}, {mono["q"]: Fraction(-3, 4)}),
             ({mono["p"]: 5}, {mono["q"]: 5})]
    for n, d in cases:
        lib = RatFunc(Poly(dict(n)), Poly(dict(d)))
        want = ref.RatFunc(ref.Poly({m: Fraction(c) for m, c in n.items()}),
                           ref.Poly({m: Fraction(c) for m, c in d.items()}))
        _assert_same(lib, want)
        assert all(c > 0 for c in lib.den.terms.values())
    assert str(ONE / -scalars.sym("q")) == "(-1)/(q)"


def test_equal_term_dicts_subtract_to_the_shared_zero_without_a_copy(monkeypatch):
    def no_copy(*args):
        raise AssertionError("Poly.__sub__ copied an operand")

    rng = random.Random(9)
    operands = [_random_terms(rng, rng.randint(0, 5)) for _ in range(40)]
    # scalars looks dict up as a module global first, so this catches a copy
    monkeypatch.setattr(scalars, "dict", no_copy, raising=False)
    for terms in operands:
        p = Poly(terms)
        # the same dict, an equal one and one with the terms in reverse order
        for q in (p, Poly(terms.copy()), Poly({m: terms[m] for m in reversed(terms)})):
            assert p - q is _POLY_ZERO
            assert p.terms is terms and q.terms == terms
    monkeypatch.undo()
    # equal monomials with one coefficient changed take the loop
    for terms in operands:
        if terms:
            other = {m: c + 1 if i == 0 else c for i, (m, c) in enumerate(terms.items())}
            want = ref.Poly(dict(terms)) - ref.Poly(dict(other))
            got = Poly(dict(terms)) - Poly(other)
            assert got is not _POLY_ZERO
            assert list(got.terms.items()) == list(want.terms.items())


def test_a_value_less_itself_is_a_fresh_zero():
    # flip21's test relies on K - K being a zero other than the ZERO object
    k, p = scalars.sym("K"), scalars.sym("p")
    for x in (k, k * k + 2 * p, ONE / (k + 1), (k - p) / (2 * p + 1), ONE + ONE):
        twin = RatFunc(Poly(dict(x.num.terms)), Poly(dict(x.den.terms)))
        for y in (x, twin):
            z = x - y
            assert z.is_zero() and z is not scalars.ZERO
            assert z.num is _POLY_ZERO and z.den is _POLY_ONE


def test_equal_values_written_differently_take_the_long_path(monkeypatch):
    # (K^2 - 1)/(K - 1) and K + 1: no gcd is cancelled, so the difference
    # cross-multiplies, and only then meets two equal numerators
    one, k1, k2 = (0,) * NVARS, (1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)
    x = RatFunc(Poly({k2: 1, one: -1}), Poly({k1: 1, one: -1}))
    y = scalars.sym("K") + 1
    rx = ref.RatFunc(ref.Poly({k2: Fraction(1), one: Fraction(-1)}),
                     ref.Poly({k1: Fraction(1), one: Fraction(-1)}))
    ry = ref.RatFunc(ref.Poly({k1: Fraction(1), one: Fraction(1)}), ref.Poly({one: Fraction(1)}))
    assert x == y and x.den.terms != y.den.terms
    products = []
    real = Poly.__mul__

    def counted(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    got = x - y
    monkeypatch.undo()
    assert len(products) == 3
    _assert_same(got, rx - ry)


@pytest.mark.parametrize("seed", [10, 11])
def test_identical_differences_match_fraction_reference(seed):
    rng = random.Random(seed)
    pool = ([_random_pair(rng) for _ in range(60)] + [_random_poly_pair(rng) for _ in range(60)]
            + _edge_pairs())
    rng.shuffle(pool)
    for (x, rx), (y, ry) in zip(pool, pool[1:]):
        twin = RatFunc(Poly(dict(x.num.terms)), Poly(dict(x.den.terms)))
        for got, want in ((x - x, rx - rx), (x - twin, rx - rx), (x - y, rx - ry),
                          ((x + y) - (y + x), (rx + ry) - (ry + rx)),
                          ((x * y) - (y * x), (rx * ry) - (ry * rx)),
                          (x - (x + y - y), rx - (rx + ry - ry))):
            _assert_same(got, want)
            assert got is not scalars.ZERO


def _one_term_pair(rng):
    """A one-term numerator over a one-term denominator, as (library
    RatFunc, reference RatFunc): negative and Fraction coefficients, a
    planted common monomial factor and a unit denominator are all likely."""
    def one_term():
        mono = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(NVARS))
        c = Fraction(rng.choice((1, 2, 3, 4, 6, 9)), rng.choice((1, 1, 1, 2, 3)))
        return mono, c * rng.choice((1, -1))

    (nm, nc), (dm, dc) = one_term(), one_term()
    kind = rng.randrange(4)
    if kind == 0:
        dm, dc = (0,) * NVARS, Fraction(1)
    elif kind == 1:
        # a common monomial factor and a common content to cancel
        shift = tuple(rng.randint(0, 2) for _ in range(NVARS))
        nm, dm = tuple(map(operator.add, nm, shift)), tuple(map(operator.add, dm, shift))
        nc, dc = nc * 6, dc * 4
    elif kind == 2:
        dc = -abs(dc)

    def lib(c):
        return c.numerator if c.denominator == 1 and rng.random() < 0.5 else c

    return (RatFunc(Poly({nm: lib(nc)}), Poly({dm: lib(dc)})),
            ref.RatFunc(ref.Poly({nm: nc}), ref.Poly({dm: dc})))


@pytest.mark.parametrize("seed", [12, 13])
def test_one_term_values_match_fraction_reference(seed):
    rng = random.Random(seed)
    pool = [_one_term_pair(rng) for _ in range(80)]
    mono_one = (0,) * NVARS
    # division by a negative monomial, and by a negative constant
    for mono, c in (((0, 1, 0, 0, 0, 0), -1), ((1, 0, 2, 0, 0, 0), -3), (mono_one, -2)):
        pool.append((RatFunc(Poly({mono: c})),
                     ref.RatFunc(ref.Poly({mono: Fraction(c)}))))
    for lib, want in pool:
        _assert_same(lib, want)
    for _ in range(OPERATIONS):
        (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
        kind = rng.randrange(4)
        if kind == 0:
            got, want = x * y, rx * ry
        elif kind == 1:
            got, want = x / y, rx / ry
        elif kind == 2:
            got, want = x.inverse(), rx.inverse()
        else:
            n = rng.choice((-3, -2, -1, 2, 3))
            got, want = x ** n, rx ** n
        _assert_same(got, want)
        if max(map(sum, (*got.num.terms, *got.den.terms))) <= 8:
            pool.append((got, want))


def test_as_ratfunc_builds_the_normal_form_of_a_constant():
    for x in (True, False, 0, 1, -3, 12, Fraction(-4, 6), Fraction(0), Fraction(5),
              Fraction(7, 3)):
        got, want = scalars.as_ratfunc(x), RatFunc(Poly.const(x))
        assert _terms_list(got.num, got.den) == _terms_list(want.num, want.den), x
        for c in (*got.num.terms.values(), *got.den.terms.values()):
            assert type(c) is int, (x, c)
    assert list(scalars.as_ratfunc(True).num.terms.values()) == [1]
    assert scalars.as_ratfunc(-3).den is _POLY_ONE
    assert scalars.as_ratfunc(Fraction(0)).num is _POLY_ZERO
    assert scalars.as_ratfunc("1") is None and scalars.as_ratfunc(1.5) is None
