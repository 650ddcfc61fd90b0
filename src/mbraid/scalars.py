"""Exact scalar arithmetic over the fixed symbol alphabet (K, p, q, g, h, u).

A polynomial is a dict mapping a monomial (exponent tuple aligned with
SYMBOLS) to a nonzero rational coefficient.  A RatFunc is a pair of such
polynomials kept in a weak normal form:

  * common pure-monomial factors of numerator and denominator are cancelled,
  * coefficients are plain ints with overall content 1,
  * the denominator's graded-lex leading coefficient is positive.

So every normalized coefficient is an int, and arithmetic on normalized
values never touches Fraction.  A Poly built outside RatFunc may still hold
Fraction coefficients (``Poly.const(Fraction(1, 2))``); normalization clears
their denominators.

Fast paths skip work whose result is already known, and return an operand
that is already normal: a product with a zero operand returns that zero, a
product with an operand that is exactly 1 returns the other operand, and a
sum or difference with a zero operand returns the other operand (negated
for ``0 - x``).  When both operands are polynomials (denominator 1), a
product, sum or difference combines the numerators only: a polynomial with
int coefficients over 1 is already in weak normal form, so the result is
wrapped without multiplying the denominators or renormalizing.  Negation
never renormalizes, because negating the numerator keeps the content, the
common monomial factor and the sign of the denominator.  One-term values
(monomial ratios such as K q/p, most of a verify pass) have a closed form:
a product or quotient of two of them, when the polynomial path does not
apply, is ``_mono_quotient``, which splits the exponent differences into a
numerator and a denominator monomial, cancels the coefficients by one gcd
with the sign moved to the numerator, and reuses the shared unit
denominator or an operand with the same terms.  The inverse of a value with a one-term numerator swaps the
pair and fixes that one sign, and ``as_ratfunc`` writes an int or Fraction
n/d directly.  A fast-path result has the same terms, in the same order,
as normalization would give.
Sums and differences share one rule, ``RatFunc._combine``, which takes the
numerator operation (``Poly.__add__`` or ``Poly.__sub__``) as an argument.
The polynomial kernels skip known work too: ``Poly.__mul__`` returns the
other operand when one operand is the unit polynomial, ``Poly.__sub__``
returns the zero polynomial for two equal term dicts without copying either
(``RatFunc`` still wraps that zero in a fresh value, never ``ZERO``) and
otherwise subtracts in one loop instead of adding a negated copy, and
normalization reads the sign of a one-term denominator directly instead of
searching for its graded-lex leading term.  Each gives the same terms in
the same order as the long way round.

A monomial is a six-field tuple, one exponent per entry of SYMBOLS.
``Poly.__mul__``, ``_normalized`` and ``_mono_quotient`` unpack monomials
into their six fields and build the result as a tuple literal: a product
adds fields, which is about twice as fast as ``tuple(map(add, m1, m2))``;
the common monomial factor is a running minimum per field that stops once
every field is 0; a monomial ratio takes field differences.  A change of
the alphabet has to change those unpacks too
(``tests/test_scalar_kernel.py`` pins ``len(SYMBOLS) == 6``).

Multivariate gcd cancellation is deliberately not attempted, so two equal
values may have different representations; equality always goes through
cross-multiplication.  Because of this, RatFunc is unhashable on purpose.

RatFunc is the only scalar field.  A value in Q(...)(s) with s^2 = rho is a
RatFunc in the symbol u, and vanishes_at_sqrt tests it by reduction modulo
u^2 - rho, which is exact when rho is free of u and not a square.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Mapping, Union

SYMBOLS = ("K", "p", "q", "g", "h", "u")
_SYM_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_NVARS = len(SYMBOLS)
_MONO_ONE = (0,) * _NVARS
_U = _SYM_INDEX["u"]

Monomial = tuple
Scalar = Union[int, Fraction, "RatFunc"]


class DivisionByZero(ZeroDivisionError):
    """Division by a value that is identically zero."""


class PoleAtZero(ArithmeticError):
    """A u -> 0 limit was taken where the denominator vanishes at u = 0."""


class UnknownSymbolError(ValueError):
    """A symbol name outside the fixed alphabet, or one missing a binding."""


def _grlex(mono: Monomial):
    return (sum(mono), mono)


class Poly:
    """Multivariate polynomial.  ``terms`` holds only nonzero coefficients.

    A Poly is never changed in place: operations build a new one or return
    an operand as it is (``1 * p`` is ``p``), so values may share Polys."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
        return Poly({_MONO_ONE: c} if c else {})

    @staticmethod
    def var(name: str) -> "Poly":
        if name not in _SYM_INDEX:
            raise UnknownSymbolError(f"unknown symbol {name!r}; alphabet is {SYMBOLS}")
        mono = tuple(1 if i == _SYM_INDEX[name] else 0 for i in range(_NVARS))
        return Poly({mono: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if self.terms == other.terms:
            return _POLY_ZERO
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) - c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly({})
        if self.terms == _UNIT_TERMS:
            return other
        if other.terms == _UNIT_TERMS:
            return self
        out: dict = {}
        # six fields, one per entry of SYMBOLS (see the module docstring)
        for (k1, p1, q1, g1, h1, u1), c1 in self.terms.items():
            for (k2, p2, q2, g2, h2, u2), c2 in other.terms.items():
                mono = (k1 + k2, p1 + p2, q1 + q2, g1 + g2, h1 + h2, u1 + u2)
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly(out)

    def degree(self) -> int:
        """Total degree, or -1 for the zero polynomial."""
        return max((sum(mono) for mono in self.terms), default=-1)

    def symbols(self) -> set:
        out = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    out.add(SYMBOLS[i])
        return out

    def coeffs_in(self, name: str) -> dict:
        """Coefficients by power of one symbol; that exponent is zeroed in the values."""
        i = _SYM_INDEX[name]
        out: dict = {}
        for mono, c in self.terms.items():
            e = mono[i]
            rest = mono[:i] + (0,) + mono[i + 1:]
            bucket = out.setdefault(e, {})
            bucket[rest] = bucket.get(rest, 0) + c
        return {e: Poly({m: c for m, c in bucket.items() if c}) for e, bucket in out.items()}

    def eval(self, values: Mapping) -> Fraction:
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = Fraction(c)
            for i, e in enumerate(mono):
                if e:
                    name = SYMBOLS[i]
                    if name not in values:
                        raise UnknownSymbolError(f"no value bound for {name!r}")
                    v *= Fraction(values[name]) ** e
            total += v
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[mono]
            body = _mono_str(mono)
            mag = abs(c)
            if body:
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _mono_str(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(SYMBOLS[i])
        elif e > 1:
            parts.append(f"{SYMBOLS[i]}^{e}")
    return "*".join(parts)


_POLY_ZERO = Poly({})
_POLY_ONE = Poly({_MONO_ONE: 1})
_UNIT_TERMS = _POLY_ONE.terms


def _normalized(num: Poly, den: Poly):
    """(num, den) in weak normal form with int coefficients.  Already-normal
    inputs are returned as they are."""
    nt, dt = num.terms, den.terms
    if not dt:
        raise DivisionByZero("zero denominator")
    if not nt:
        return _POLY_ZERO, _POLY_ONE
    if _MONO_ONE not in dt and _MONO_ONE not in nt:
        # the common monomial factor: a running minimum per field, which
        # stops once every field is 0 (see the module docstring)
        mk, mp, mq, mg, mh, mu = next(iter(dt))
        for k, p, q, g, h, u in chain(nt, dt):
            mk = k if k < mk else mk
            mp = p if p < mp else mp
            mq = q if q < mq else mq
            mg = g if g < mg else mg
            mh = h if h < mh else mh
            mu = u if u < mu else mu
            if not (mk or mp or mq or mg or mh or mu):
                break
        else:
            nt = {(k - mk, p - mp, q - mq, g - mg, h - mh, u - mu): c
                  for (k, p, q, g, h, u), c in nt.items()}
            dt = {(k - mk, p - mp, q - mq, g - mg, h - mh, u - mu): c
                  for (k, p, q, g, h, u), c in dt.items()}
            num, den = Poly(nt), Poly(dt)
    try:
        content = gcd(*nt.values(), *dt.values())
    except TypeError:
        # Fraction coefficients: clear their denominators, then go on in int
        mult = lcm(*[c.denominator for c in (*nt.values(), *dt.values())])
        nt = {m: int(c * mult) for m, c in nt.items()}
        dt = {m: int(c * mult) for m, c in dt.items()}
        num, den = Poly(nt), Poly(dt)
        content = gcd(*nt.values(), *dt.values())
    # the graded-lex leading term: the largest (degree, monomial) pair
    lead = next(iter(dt.values())) if len(dt) == 1 else dt[max(zip(map(sum, dt), dt))[1]]
    if lead < 0:
        content = -content
    if content == 1:
        return num, den
    return (Poly({m: c // content for m, c in nt.items()}),
            Poly({m: c // content for m, c in dt.items()}))


def _mono_quotient(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> "RatFunc":
    """n1 n2 / (d1 d2) for one-term Polys with int coefficients, formed field
    by field: the same terms as ``RatFunc(n1 * n2, d1 * d2)`` without
    multiplying Polys or calling _normalized."""
    [((k1, p1, q1, g1, h1, u1), a1)] = n1.terms.items()
    [((k2, p2, q2, g2, h2, u2), a2)] = n2.terms.items()
    [((k3, p3, q3, g3, h3, u3), b3)] = d1.terms.items()
    [((k4, p4, q4, g4, h4, u4), b4)] = d2.terms.items()
    # exponent differences: the positive part goes up, the negative part down
    k, p, q = k1 + k2 - k3 - k4, p1 + p2 - p3 - p4, q1 + q2 - q3 - q4
    g, h, u = g1 + g2 - g3 - g4, h1 + h2 - h3 - h4, u1 + u2 - u3 - u4
    a, b = a1 * a2, b3 * b4
    content = gcd(a, b)
    if b < 0:
        content = -content
    if content != 1:
        a, b = a // content, b // content
    nt = {(k if k > 0 else 0, p if p > 0 else 0, q if q > 0 else 0,
           g if g > 0 else 0, h if h > 0 else 0, u if u > 0 else 0): a}
    dt = {(-k if k < 0 else 0, -p if p < 0 else 0, -q if q < 0 else 0,
           -g if g < 0 else 0, -h if h < 0 else 0, -u if u < 0 else 0): b}
    # share an equal operand, as Poly.__mul__ shares one times the unit, so
    # that stored forms do not each hold a fresh dict
    return RatFunc._normal(
        n1 if nt == n1.terms else n2 if nt == n2.terms else Poly(nt),
        _POLY_ONE if dt == _UNIT_TERMS else d1 if dt == d1.terms
        else d2 if dt == d2.terms else Poly(dt))


class RatFunc:
    """Normalized quotient of two Polys.  Immutable; unhashable by design."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _POLY_ONE):
        self.num, self.den = _normalized(num, den)

    @classmethod
    def _normal(cls, num: Poly, den: Poly = _POLY_ONE) -> "RatFunc":
        """num/den, which must already be in weak normal form, without
        renormalizing.  A zero num gives (0, 1), as normalization does."""
        out = object.__new__(cls)
        if num.terms:
            out.num, out.den = num, den
        else:
            out.num, out.den = _POLY_ZERO, _POLY_ONE
        return out

    def is_zero(self) -> bool:
        return not self.num.terms

    def symbols(self) -> set:
        return self.num.symbols() | self.den.symbols()

    def __eq__(self, other) -> bool:
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        if self.num == o.num and self.den == o.den:
            return True
        return (self.num * o.den - o.num * self.den).is_zero()

    __hash__ = None

    def _combine(self, other, op):
        """self + other or self - other, op being Poly.__add__ or Poly.__sub__."""
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        if not o.num.terms:
            return self
        if not self.num.terms:
            return o if op is Poly.__add__ else -o
        if self.den.terms == o.den.terms:
            if self.den.terms == _UNIT_TERMS:
                return RatFunc._normal(op(self.num, o.num))
            return RatFunc(op(self.num, o.num), self.den)
        return RatFunc(op(self.num * o.den, o.num * self.den), self.den * o.den)

    def __add__(self, other):
        return self._combine(other, Poly.__add__)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, Poly.__sub__)

    def __rsub__(self, other):
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc._normal(-self.num, self.den)

    def __mul__(self, other):
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        if not self.num.terms:
            return self
        if not o.num.terms:
            return o
        if self.num.terms == _UNIT_TERMS and self.den.terms == _UNIT_TERMS:
            return o
        if o.num.terms == _UNIT_TERMS and o.den.terms == _UNIT_TERMS:
            return self
        if self.den.terms == _UNIT_TERMS and o.den.terms == _UNIT_TERMS:
            return RatFunc._normal(self.num * o.num)
        if len(self.num.terms) == len(self.den.terms) == len(o.num.terms) == len(o.den.terms) == 1:
            return _mono_quotient(self.num, self.den, o.num, o.den)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise DivisionByZero("division by zero value")
        if len(self.num.terms) == len(self.den.terms) == len(o.num.terms) == len(o.den.terms) == 1:
            return _mono_quotient(self.num, self.den, o.den, o.num)
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        num, den = self.num, self.den
        if len(num.terms) > 1:
            return RatFunc(den, num)
        # a normal pair swapped keeps content 1 and no common monomial
        # factor, so only the sign of the one-term denominator can be wrong
        if next(iter(num.terms.values())) < 0:
            num, den = -num, -den
        return RatFunc._normal(den, num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def eval(self, values: Mapping) -> Fraction:
        d = self.den.eval(values)
        if d == 0:
            raise DivisionByZero("denominator vanishes at the given point")
        return self.num.eval(values) / d

    def __str__(self) -> str:
        if self.den == _POLY_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def as_ratfunc(x):
    """Coerce an int or Fraction to RatFunc; pass RatFunc through; else None.
    A constant n/d in lowest terms, d > 0, is already normal, so it is built
    directly; a bool becomes the int 0 or 1."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        n, d = int(x), 1
    elif isinstance(x, Fraction):
        n, d = x.numerator, x.denominator
    else:
        return None
    return RatFunc._normal(Poly({_MONO_ONE: n}) if n else _POLY_ZERO,
                           _POLY_ONE if d == 1 else Poly({_MONO_ONE: d}))


_SYM_CACHE: dict = {}


def sym(name: str) -> RatFunc:
    if name not in _SYM_CACHE:
        _SYM_CACHE[name] = RatFunc(Poly.var(name))
    return _SYM_CACHE[name]


def const(c) -> RatFunc:
    return RatFunc(Poly.const(c))


ZERO = const(0)
ONE = const(1)


def substitute(x: RatFunc, bindings: Mapping[str, Scalar]) -> RatFunc:
    """Replace symbols by values.  Bound symbols must not occur in any value."""
    vals = {}
    for name, v in bindings.items():
        if name not in _SYM_INDEX:
            raise UnknownSymbolError(f"unknown symbol {name!r}; alphabet is {SYMBOLS}")
        vals[name] = as_ratfunc(v)
        if vals[name] is None:
            raise TypeError(f"binding for {name!r} must be a scalar, got {type(v).__name__}")
    for name, v in vals.items():
        clash = v.symbols() & set(vals)
        if clash:
            raise ValueError(f"binding values mention bound symbols {sorted(clash)}")
    num = _poly_substitute(x.num, vals)
    den = _poly_substitute(x.den, vals)
    return num / den


def _poly_substitute(p: Poly, vals: Mapping[str, RatFunc]) -> RatFunc:
    total = None
    for mono, c in p.terms.items():
        residual = list(mono)
        factor = None
        for i, e in enumerate(mono):
            if e and SYMBOLS[i] in vals:
                residual[i] = 0
                pw = vals[SYMBOLS[i]] ** e
                factor = pw if factor is None else factor * pw
        # a one-term polynomial with an int coefficient is already normal
        term = RatFunc._normal(Poly({tuple(residual): c}))
        if factor is not None:
            term = term * factor
        total = term if total is None else total + term
    return ZERO if total is None else total


def limit_u0(x: RatFunc) -> RatFunc:
    """Value at u = 0.  Normalization has already cancelled common u powers,
    so a vanishing denominator at u = 0 is a genuine pole."""
    den0 = _at_u0(x.den)
    if den0.is_zero():
        raise PoleAtZero(f"pole at u = 0 in {x}")
    return RatFunc(_at_u0(x.num), den0)


def _at_u0(p: Poly) -> Poly:
    return Poly({m: c for m, c in p.terms.items() if m[_U] == 0})


def _at_sqrt(p: Poly, rho: RatFunc) -> tuple:
    """(a, b) with p(s) = a + b s where s^2 = rho: the remainder of p modulo
    u^2 - rho, found by turning each u^e into rho^(e // 2) u^(e % 2)."""
    parts: dict = {}
    for e, c in p.coeffs_in("u").items():
        t = RatFunc(c) * rho ** (e // 2)
        parts[e % 2] = parts[e % 2] + t if e % 2 in parts else t
    return parts.get(0, ZERO), parts.get(1, ZERO)


def vanishes_at_sqrt(x: RatFunc, rho: RatFunc) -> bool:
    """Whether x vanishes at u = s, where s^2 = rho.

    Reduces numerator and denominator modulo u^2 - rho to a + b s; x vanishes
    when the numerator's a and b are both zero and the denominator's are
    not.  This is exact when rho does not mention u and is not a square: 1
    and s are then independent over the rational functions of the other
    symbols, so a + b s is zero only when a and b are.
    """
    a, b = _at_sqrt(x.num, rho)
    c, d = _at_sqrt(x.den, rho)
    return a.is_zero() and b.is_zero() and not (c.is_zero() and d.is_zero())
