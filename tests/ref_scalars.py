"""Reference scalar kernel for differential tests of mbraid.scalars.

This is the Fraction-coefficient kernel that mbraid.scalars used before its
normalized coefficients became int: ``Poly.__mul__``, ``Poly.scale`` and
``_normalized`` are kept verbatim, with the RatFunc operations built on them.
It has no fast paths, so every result is computed the long way round.
Operands must be RatFunc values of this module (no int coercion).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from mbraid.scalars import DivisionByZero

_NVARS = 6
_MONO_ONE = (0,) * _NVARS


def _grlex(mono):
    return (sum(mono), mono)


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

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
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly(out)

    def scale(self, c: Fraction) -> "Poly":
        if not c:
            return Poly({})
        return Poly({mono: coeff * c for mono, coeff in self.terms.items()})

    def leading(self) -> tuple:
        mono = max(self.terms, key=_grlex)
        return mono, self.terms[mono]


_POLY_ZERO = Poly({})
_POLY_ONE = Poly({_MONO_ONE: Fraction(1)})


def _normalized(num: Poly, den: Poly):
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return _POLY_ZERO, _POLY_ONE
    monos = list(num.terms) + list(den.terms)
    shift = tuple(min(m[i] for m in monos) for i in range(_NVARS))
    if any(shift):
        num = Poly({tuple(e - s for e, s in zip(m, shift)): c for m, c in num.terms.items()})
        den = Poly({tuple(e - s for e, s in zip(m, shift)): c for m, c in den.terms.items()})
    coeffs = list(num.terms.values()) + list(den.terms.values())
    mult = lcm(*(c.denominator for c in coeffs))
    content = gcd(*(int(c * mult) for c in coeffs))
    scale = Fraction(mult, content)
    _, lead = den.leading()
    if lead < 0:
        scale = -scale
    if scale != 1:
        num = num.scale(scale)
        den = den.scale(scale)
    return num, den


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _POLY_ONE):
        self.num, self.den = _normalized(num, den)

    def is_zero(self) -> bool:
        return not self.num.terms

    def __eq__(self, o) -> bool:
        if self.num == o.num and self.den == o.den:
            return True
        return (self.num * o.den - o.num * self.den).is_zero()

    __hash__ = None

    def __add__(self, o):
        if self.den.terms == o.den.terms:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        if self.den.terms == o.den.terms:
            return RatFunc(self.num - o.num, self.den)
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, o):
        return RatFunc(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        if o.num.is_zero():
            raise DivisionByZero("division by zero value")
        return RatFunc(self.num * o.den, self.den * o.num)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        out = RatFunc(_POLY_ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out
