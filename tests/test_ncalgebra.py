import random

import pytest

from mbraid.ncalgebra import (
    GROUP,
    NCPoly,
    NotLinear,
    RewriteRule,
    RewriteSystem,
    StepCapExceeded,
    build_group_system,
    change_of_basis,
    diamond_check,
    normal_order,
)
from mbraid.scalars import ONE, const, sym

P = sym("p")
Q = sym("q")


def _random_ncpoly(rng, letters=GROUP, max_degree=3, terms=4):
    out = NCPoly.zero()
    for _ in range(rng.randint(1, terms)):
        degree = rng.randint(0, max_degree)
        word = tuple(rng.choice(letters) for _ in range(degree))
        out = out + NCPoly.from_word(word, const(rng.randint(-3, 3)))
    return out


def test_ncpoly_ring_axioms():
    rng = random.Random(101)
    for _ in range(25):
        x = _random_ncpoly(rng)
        y = _random_ncpoly(rng)
        z = _random_ncpoly(rng)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x - x == NCPoly.zero()
        assert NCPoly.unit() * x == x


def test_ncpoly_zero_coefficients_pruned():
    x = NCPoly.from_word(("a", "b")) - NCPoly.from_word(("a", "b"))
    assert x.is_zero()
    assert x.coeffs == {}
    assert str(x) == "0"


def test_ncpoly_printing():
    x = NCPoly.gen("a") * NCPoly.gen("b") - (ONE / Q) * NCPoly.gen("c") + NCPoly.unit(2)
    assert str(x) == "2 + ((-1)/(q))*c + a*b"


def test_normal_order_single_rules():
    sys_pq = build_group_system("pq")
    ba = NCPoly.from_word(("b", "a"))
    assert normal_order(ba, sys_pq) == NCPoly.from_word(("a", "b"), ONE / Q)
    da = NCPoly.from_word(("d", "a"))
    expect = NCPoly.from_word(("a", "d")) + NCPoly.from_word(("b", "c"), P - Q)
    assert normal_order(da, sys_pq) == expect


def test_normal_order_idempotent_and_multiplicative():
    rng = random.Random(20260819)
    for did in ("pq", "gh", "qh"):
        sys_ = build_group_system(did)
        for _ in range(8):
            x = _random_ncpoly(rng, max_degree=2)
            y = _random_ncpoly(rng, max_degree=2)
            nx = normal_order(x, sys_)
            assert normal_order(nx, sys_) == nx
            lhs = normal_order(x * y, sys_)
            rhs = normal_order(normal_order(x, sys_) * normal_order(y, sys_), sys_)
            assert lhs == rhs


def test_normal_order_reaches_sorted_words():
    for did in ("pq", "gh"):
        sys_ = build_group_system(did)
        word = NCPoly.from_word(("d", "c", "b", "a"))
        nf = normal_order(word, sys_)
        for w in nf.coeffs:
            assert list(w) == sorted(w)


def test_group_diamond_clean_at_degree_three():
    for did in ("pq", "gh", "qh"):
        assert diamond_check(build_group_system(did), 3) == []


def test_group_diamond_detects_dropped_rule():
    full = build_group_system("pq")
    rules = [r for lhs, r in full.by_lhs.items() if lhs != ("c", "b")]
    broken = RewriteSystem("pq-broken", GROUP, rules)
    violations = diamond_check(broken, 3)
    assert ("d", "b", "a") in violations
    assert ("d", "c", "a") in violations


def test_step_cap_guards_nontermination():
    swap = RewriteSystem("swap", ("a", "b"), [
        RewriteRule(("a", "b"), NCPoly.from_word(("b", "a"))),
        RewriteRule(("b", "a"), NCPoly.from_word(("a", "b"))),
    ], step_cap=50)
    with pytest.raises(StepCapExceeded):
        normal_order(NCPoly.from_word(("a", "b")), swap)


def test_rule_validation():
    with pytest.raises(ValueError):
        RewriteSystem("bad", ("a", "b"), [
            RewriteRule(("b", "a"), NCPoly.from_word(("a", "b", "a")))])
    with pytest.raises(ValueError):
        RewriteSystem("bad", ("a", "b"), [
            RewriteRule(("b", "a"), NCPoly.from_word(("b", "a")))])
    with pytest.raises(ValueError):
        RewriteSystem("bad", ("a", "b"), [
            RewriteRule(("b", "a"), NCPoly.from_word(("a", "z")))])
    with pytest.raises(ValueError):
        RewriteSystem("bad", ("a", "b"), [
            RewriteRule(("b", "a"), NCPoly.from_word(("a", "b"))),
            RewriteRule(("b", "a"), NCPoly.from_word(("a", "a")))])
    with pytest.raises(ValueError):
        RewriteSystem("bad", ("a", "b"), [
            RewriteRule(("b", "a", "a"), NCPoly.from_word(("a", "b")))])


def test_change_of_basis_round_trip():
    rng = random.Random(31)
    fwd = {"a": NCPoly.gen("a") + NCPoly.from_word(("b",), P)}
    back = {"a": NCPoly.gen("a") - NCPoly.from_word(("b",), P)}
    for _ in range(10):
        x = _random_ncpoly(rng)
        assert change_of_basis(change_of_basis(x, fwd), back) == x


def test_change_of_basis_rejects_nonlinear_images():
    with pytest.raises(NotLinear):
        change_of_basis(NCPoly.gen("a"), {"a": NCPoly.from_word(("a", "b"))})
    with pytest.raises(NotLinear):
        change_of_basis(NCPoly.gen("a"), {"a": NCPoly.unit()})
    with pytest.raises(NotLinear):
        change_of_basis(NCPoly.gen("a"), {"a": NCPoly.zero()})


def test_unknown_deformation_rejected():
    with pytest.raises(ValueError):
        build_group_system("xy")
