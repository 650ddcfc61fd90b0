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
    critical_pairs,
    diamond_check,
    normal_order,
    termination_order,
)
from mbraid.catalog import deformation
from mbraid.plane import build_plane_system, build_pure_system
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
    assert [w for w, _ in critical_pairs(broken)] == violations


def _swap_system():
    return RewriteSystem("swap", ("a", "b"), [
        RewriteRule(("a", "b"), NCPoly.from_word(("b", "a"))),
        RewriteRule(("b", "a"), NCPoly.from_word(("a", "b"))),
    ], step_cap=50)


def _all_systems():
    # name -> system: 3 group algebras, 3 pure planes, the two mixed planes
    # at symbolic K and at each braid coupling
    out = {f"{d}-group": build_group_system(d) for d in ("pq", "gh", "qh")}
    out.update({f"{d}-pure": build_pure_system(d) for d in ("pq", "gh", "qh")})
    for d in ("pq", "gh"):
        spec = deformation(d)
        out[f"{d}-plane"] = build_plane_system(d).rules
        out[f"{d}-plane@K1"] = build_plane_system(spec, spec.K1).rules
        if spec.K2 != spec.K1:
            out[f"{d}-plane@K2"] = build_plane_system(spec, spec.K2).rules
    return out


def test_critical_pairs_match_degree_three_diamond_oracle():
    systems = _all_systems()
    assert len(systems) == 11
    unresolved = {}
    for name, system in systems.items():
        words = [w for w, _ in critical_pairs(system)]
        assert set(words) == set(diamond_check(system, 3)), name
        assert len(words) == len(set(words)), name
        unresolved[name] = len(words)
    assert unresolved.pop("pq-plane") == 6
    assert unresolved.pop("gh-plane") == 7
    assert all(n == 0 for n in unresolved.values()), unresolved


def test_critical_pairs_cover_self_overlaps():
    # a.a.a overlaps the rule aa -> ab with itself: aba against abb
    system = RewriteSystem("self", ("a", "b"), [
        RewriteRule(("a", "a"), NCPoly.from_word(("a", "b")))])
    word = ("a", "a", "a")
    diff = NCPoly.from_word(("a", "b", "a")) - NCPoly.from_word(("a", "b", "b"))
    assert critical_pairs(system) == [(word, diff)]
    assert diamond_check(system, 3) == [word]
    assert termination_order(system) == (1, 0)


def _weighted_key(system, weights):
    # independent restatement of the order: weighted degree, length, ranks
    def key(word):
        total = sum(weights[system.alphabet.index(l)] for l in word)
        return total, len(word), [system.alphabet.index(l) for l in word]
    return key


def test_termination_order_weights():
    systems = _all_systems()
    expected = {name: (0, 0, 0, 0) for name in systems}
    expected["gh-group"] = (1, 1, 0, 0)
    expected["qh-group"] = (1, 1, 0, 1)
    for name in ("gh-pure", "gh-plane", "gh-plane@K1"):
        expected[name] = (1, 0, 1, 0)
    assert {name: termination_order(s) for name, s in systems.items()} == expected


def test_termination_order_descends_every_rule():
    for name, system in _all_systems().items():
        weights = termination_order(system)
        key = _weighted_key(system, weights)
        for lhs, rule in system.by_lhs.items():
            for word in rule.rhs.coeffs:
                assert key(word) < key(lhs), (name, lhs, word)


def test_termination_order_none_for_swap_system():
    assert termination_order(_swap_system()) is None


def test_step_cap_guards_nontermination():
    swap = _swap_system()
    with pytest.raises(StepCapExceeded):
        normal_order(NCPoly.from_word(("a", "b")), swap)


def test_step_cap_catches_a_cycle_at_once():
    # ab -> ba -> ab meets ab again while its form is being built; no cap
    # would let the leftmost reduction finish, so the cap's size is moot
    swap = RewriteSystem("swap", ("a", "b"), list(_swap_system().by_lhs.values()),
                         step_cap=10**9)
    with pytest.raises(StepCapExceeded, match="swap: more than 1000000000 rewrite steps"):
        normal_order(NCPoly.from_word(("a", "b")), swap)
    assert swap.forms == {}


def test_step_cap_counts_the_words_rewritten_in_one_call():
    full = build_group_system("gh")
    word = NCPoly.from_word(("d", "c", "b", "a"))
    normal_order(word, full)
    assert len(full.forms) > 3
    small = RewriteSystem("gh", GROUP, list(full.by_lhs.values()), step_cap=3)
    with pytest.raises(StepCapExceeded, match="gh: more than 3 rewrite steps"):
        normal_order(word, small)
    # the forms a later call finds in the table are not rewritten again
    for w in sorted(full.forms, key=len):
        normal_order(NCPoly.from_word(w), small)
    assert normal_order(word, small) == normal_order(word, full)


def test_rules_are_read_only_after_construction():
    system = build_group_system("pq")
    with pytest.raises(TypeError):
        system.by_lhs[("a", "a")] = system.by_lhs[("b", "a")]
    with pytest.raises(TypeError):
        del system.by_lhs[("b", "a")]


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
