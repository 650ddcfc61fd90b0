"""Inputs the library refuses, one per guard that no other test reaches."""

import pytest

from mbraid.catalog import build_rhat
from mbraid.ncalgebra import GROUP, NCPoly, RewriteRule, RewriteSystem
from mbraid.plane import UnsupportedDeformation, phi_poly
from mbraid.pmatrix import DimensionMismatch, ParamMatrix, inverse
from mbraid.scalars import ONE, DivisionByZero, Poly, RatFunc, UnknownSymbolError, substitute, sym


def test_a_coupling_must_be_a_scalar():
    with pytest.raises(TypeError, match="coupling must be a scalar, got str"):
        build_rhat("pq", "2")


def test_a_rule_lhs_must_lie_in_the_alphabet():
    rule = RewriteRule(("a", "x"), NCPoly.gen("a"))
    with pytest.raises(ValueError, match=r"lhs \('a', 'x'\) not in alphabet of group"):
        RewriteSystem("group", GROUP, [rule])


def test_qh_has_no_mixed_combination():
    with pytest.raises(UnsupportedDeformation, match="no mixed combination for 'qh'"):
        phi_poly("qh")


def test_only_a_square_matrix_has_an_inverse():
    with pytest.raises(DimensionMismatch, match="inverse of a non-square matrix"):
        inverse(ParamMatrix(2, 3, [ONE] * 6))


def test_a_denominator_must_be_nonzero():
    with pytest.raises(DivisionByZero, match="zero denominator"):
        RatFunc(Poly.const(1), Poly({}))


def test_a_binding_must_name_a_symbol():
    with pytest.raises(UnknownSymbolError, match="unknown symbol 'z'"):
        substitute(sym("K"), {"z": 1})
