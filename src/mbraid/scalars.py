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

Multivariate gcd cancellation is deliberately not attempted, so two equal
values may have different representations; equality always goes through
cross-multiplication.  Because of this, RatFunc is unhashable on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
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
    """Multivariate polynomial.  ``terms`` holds only nonzero coefficients."""

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
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly({})
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(add, m1, m2))
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly(out)

    def degree(self) -> int:
        """Total degree, or -1 for the zero polynomial."""
        return max((sum(mono) for mono in self.terms), default=-1)

    def leading(self) -> tuple:
        """(monomial, coefficient) at the graded-lex maximum."""
        mono = max(self.terms, key=_grlex)
        return mono, self.terms[mono]

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


def _normalized(num: Poly, den: Poly):
    """(num, den) in weak normal form with int coefficients.  Already-normal
    inputs are returned as they are."""
    nt, dt = num.terms, den.terms
    if not dt:
        raise DivisionByZero("zero denominator")
    if not nt:
        return _POLY_ZERO, _POLY_ONE
    if _MONO_ONE not in dt and _MONO_ONE not in nt:
        shift = tuple(map(min, *nt, *dt))
        if any(shift):
            nt = {tuple(map(sub, m, shift)): c for m, c in nt.items()}
            dt = {tuple(map(sub, m, shift)): c for m, c in dt.items()}
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
    _, lead = den.leading()
    if lead < 0:
        content = -content
    if content == 1:
        return num, den
    return (Poly({m: c // content for m, c in nt.items()}),
            Poly({m: c // content for m, c in dt.items()}))


class RatFunc:
    """Normalized quotient of two Polys.  Immutable; unhashable by design."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _POLY_ONE):
        self.num, self.den = _normalized(num, den)

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

    def __add__(self, other):
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        if not o.num.terms:
            return self
        if not self.num.terms:
            return o
        if self.den.terms == o.den.terms:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        if not o.num.terms:
            return self
        if not self.num.terms:
            return -o
        if self.den.terms == o.den.terms:
            return RatFunc(self.num - o.num, self.den)
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        if not self.num.terms:
            return self
        if not o.num.terms:
            return o
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise DivisionByZero("division by zero value")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = as_ratfunc(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatFunc(self.den, self.num)

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
    """Coerce an int or Fraction to RatFunc; pass RatFunc through; else None."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc(Poly.const(x))
    return None


_SYM_CACHE: dict = {}


def sym(name: str) -> RatFunc:
    if name not in _SYM_CACHE:
        _SYM_CACHE[name] = RatFunc(Poly.var(name))
    return _SYM_CACHE[name]


def const(c) -> RatFunc:
    return RatFunc(Poly.const(c))


ZERO = const(0)
ONE = const(1)


def ratfunc_eq(x: RatFunc, y: Scalar) -> bool:
    """Exact equality by cross-multiplication."""
    return x == y


def substitute(x: RatFunc, bindings: Mapping[str, Scalar]) -> RatFunc:
    """Replace symbols by values.  Bound symbols must not occur in any value."""
    vals = {}
    for name, v in bindings.items():
        if name not in _SYM_INDEX:
            raise UnknownSymbolError(f"unknown symbol {name!r}; alphabet is {SYMBOLS}")
        vals[name] = as_ratfunc(v)
    for name, v in vals.items():
        clash = v.symbols() & set(vals)
        if clash:
            raise ValueError(f"binding values mention bound symbols {sorted(clash)}")
    num = _poly_substitute(x.num, vals)
    den = _poly_substitute(x.den, vals)
    return num / den


def _poly_substitute(p: Poly, vals: Mapping[str, RatFunc]) -> RatFunc:
    total = ZERO
    for mono, c in p.terms.items():
        residual = list(mono)
        factor = None
        for i, e in enumerate(mono):
            if e and SYMBOLS[i] in vals:
                residual[i] = 0
                pw = vals[SYMBOLS[i]] ** e
                factor = pw if factor is None else factor * pw
        term = RatFunc(Poly({tuple(residual): c}))
        if factor is not None:
            term = term * factor
        total = total + term
    return total


def limit_u0(x: RatFunc) -> RatFunc:
    """Value at u = 0.  Normalization has already cancelled common u powers,
    so a vanishing denominator at u = 0 is a genuine pole."""
    den0 = _at_u0(x.den)
    if den0.is_zero():
        raise PoleAtZero(f"pole at u = 0 in {x}")
    return RatFunc(_at_u0(x.num), den0)


def _at_u0(p: Poly) -> Poly:
    return Poly({m: c for m, c in p.terms.items() if m[_U] == 0})


def poly_divmod_in(f: Poly, g: Poly, name: str):
    """Univariate division of f by g in the named symbol, over rational
    functions of the remaining symbols.  Returns ({power: RatFunc} quotient,
    {power: RatFunc} remainder); empty remainder means exact divisibility."""
    fc = {e: RatFunc(c) for e, c in f.coeffs_in(name).items() if not c.is_zero()}
    gc = {e: RatFunc(c) for e, c in g.coeffs_in(name).items() if not c.is_zero()}
    if not gc:
        raise DivisionByZero("division by the zero polynomial")
    dg = max(gc)
    lead = gc[dg]
    quot: dict = {}
    rem = dict(fc)
    while rem and max(rem) >= dg:
        dr = max(rem)
        c = rem[dr] / lead
        quot[dr - dg] = c
        for e, gcoef in gc.items():
            k = dr - dg + e
            v = rem.get(k, ZERO) - c * gcoef
            if v.is_zero():
                rem.pop(k, None)
            else:
                rem[k] = v
    return quot, rem


class QuadExt:
    """Element a + b*s of the quadratic extension with s^2 = rho."""

    __slots__ = ("a", "b", "rho")

    def __init__(self, a: Scalar, b: Scalar, rho: RatFunc):
        self.a = as_ratfunc(a)
        self.b = as_ratfunc(b)
        self.rho = rho

    @staticmethod
    def of(x: Scalar, rho: RatFunc) -> "QuadExt":
        return QuadExt(x, 0, rho)

    @staticmethod
    def root(rho: RatFunc) -> "QuadExt":
        return QuadExt(0, 1, rho)

    def _lift(self, other):
        if isinstance(other, QuadExt):
            if not (self.rho == other.rho):
                raise ValueError("mixed quadratic extensions")
            return other
        o = as_ratfunc(other)
        return None if o is None else QuadExt(o, 0, self.rho)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    __hash__ = None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.rho)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.rho)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.rho)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.rho * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.rho,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.a * self.a - self.rho * self.b * self.b
        if n.is_zero():
            raise DivisionByZero("non-invertible quadratic extension element")
        return QuadExt(self.a / n, -self.b / n, self.rho)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __str__(self) -> str:
        return f"({self.a}) + ({self.b})*s"

    def __repr__(self) -> str:
        return f"QuadExt({self})"
