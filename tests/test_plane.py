"""Plane calculus: constraints, Phi structure, and confluence boundaries."""

import pytest

from mbraid.catalog import DEFORMATIONS
from mbraid.checks import registered_checks
from mbraid.cli import main
from mbraid.identities import mbe_factor
from mbraid.ncalgebra import (PLANE, NCPoly, RewriteRule, RewriteSystem,
                              critical_pairs, diamond_check, normal_order)
from mbraid.plane import (MIXED, PlaneSystem, UnsupportedDeformation, build_plane_system,
                          phi_commutators, phi_nilpotent, phi_poly,
                          projector_consistency, pure_sector_consistency)
from mbraid.scalars import ONE, substitute, sym
from ref_scalars import poly_divmod_in

K, P, Q, G, H = sym("K"), sym("p"), sym("q"), sym("g"), sym("h")


def w(*names):
    return NCPoly.from_word(tuple(names))


def test_rule_goldens():
    pq = build_plane_system("pq")
    assert normal_order(w("y", "x"), pq.rules) == w("x", "y").scale(P)
    gh = build_plane_system("gh")
    assert normal_order(w("xi", "xi"), gh.rules) == w("xi", "eta").scale(H)
    assert pq.one_minus_X == K + K * Q / P - 1
    assert gh.one_minus_X == 2 * K - 1


def test_k_zero_system_terminates():
    ps = build_plane_system("pq", 0)
    assert ps.one_minus_X == -ONE
    assert normal_order(w("x", "xi"), ps.rules) == -w("xi", "x")
    assert normal_order(w("y", "y", "x", "xi"), ps.rules).degree() == 4


def test_qh_mixed_rules_rejected():
    with pytest.raises(UnsupportedDeformation):
        build_plane_system("qh")


def test_pure_sector_consistency_all_families():
    for d in ("pq", "gh", "qh"):
        assert pure_sector_consistency(d)


def test_projector_consistency_symbolic():
    assert projector_consistency(build_plane_system("pq"))
    assert projector_consistency(build_plane_system("gh"))


def test_projector_consistency_negative_control():
    # dropping the eta-xi rule leaves a P2 row unreduced
    ps = build_plane_system("pq")
    kept = [r for lhs, r in ps.rules.by_lhs.items() if lhs != ("eta", "xi")]
    broken = PlaneSystem("pq", ps.k, RewriteSystem("pq-broken", PLANE, kept),
                         ps.one_minus_X)
    assert not projector_consistency(broken)


@pytest.mark.parametrize("d", MIXED)
@pytest.mark.parametrize("lhs", [("x", "xi"), ("x", "eta"), ("y", "xi"), ("y", "eta")])
def test_projector_consistency_sees_a_doubled_mixed_rule(d, lhs):
    # the control above drops a pure rule; this one breaks only the mixed sector
    ps = build_plane_system(d)
    rules = [RewriteRule(r.lhs, r.rhs.scale(2) if r.lhs == lhs else r.rhs)
             for r in ps.rules.by_lhs.values()]
    broken = PlaneSystem(d, ps.k, RewriteSystem(f"{d}-broken", PLANE, rules),
                         ps.one_minus_X)
    assert not projector_consistency(broken)
    assert pure_sector_consistency(d)


def test_mixed_is_the_one_owner_of_the_family_split(capsys):
    pure_only = set()
    for d in DEFORMATIONS:
        try:
            build_plane_system(d)
        except UnsupportedDeformation:
            pure_only.add(d)
    assert pure_only == set(DEFORMATIONS) - set(MIXED)
    for name in ("phi-nilpotent", "phi-commutators", "diamond-at-couplings"):
        rows = [d for scope, n, d, _ in registered_checks() if (scope, n) == ("plane", name)]
        assert tuple(rows) == MIXED, name
    for d in DEFORMATIONS:
        code = main(["plane", "--deformation", d, "--K", "1", "--expr", "x*eta"])
        assert code == (0 if d in MIXED else 2), d
    assert "--K has no effect" in capsys.readouterr().err


def test_phi_goldens():
    pq, gh = build_plane_system("pq"), build_plane_system("gh")
    assert phi_poly(pq.deformation) == w("eta", "x") - w("xi", "y").scale(P)
    f = phi_poly(gh.deformation)
    assert f == w("eta", "x") - w("xi", "y") + w("eta", "y").scale(G)
    at_g0 = f.map_coeffs(lambda c: substitute(c, {"g": 0}))
    assert at_g0 == w("eta", "x") - w("xi", "y")


def test_phi_nilpotent():
    assert phi_nilpotent(build_plane_system("pq"))
    assert phi_nilpotent(build_plane_system("gh"))
    assert phi_nilpotent(build_plane_system("pq", 1))


def test_phi_commutators():
    assert phi_commutators(build_plane_system("pq"))
    assert phi_commutators(build_plane_system("gh"))


def test_gh_commutator_coefficients_are_forced():
    # the y exchange takes coefficient K, not Kq; the xi exchange takes
    # (g - h), not (h - g).  Both alternatives fail.
    ps = build_plane_system("gh")
    c = ONE / ps.one_minus_X
    f = phi_poly(ps.deformation)
    y_, xi_, eta_ = NCPoly.gen("y"), NCPoly.gen("xi"), NCPoly.gen("eta")
    assert normal_order(y_ * f - (f * y_).scale(c * K), ps.rules).is_zero()
    assert not normal_order(y_ * f - (f * y_).scale(c * K * Q), ps.rules).is_zero()
    good = (xi_ * f).scale(c * (2 - K)) + f * xi_ + (f * eta_).scale(G - H)
    flipped = (xi_ * f).scale(c * (2 - K)) + f * xi_ + (f * eta_).scale(H - G)
    assert normal_order(good, ps.rules).is_zero()
    residual = normal_order(flipped, ps.rules)
    expected = NCPoly.from_word(("xi", "eta", "y"),
                                (2 - K) * (G - H) * 2 / ps.one_minus_X)
    assert residual == expected


def test_pure_sectors_are_coupling_free():
    for d in ("pq", "gh"):
        ps = build_plane_system(d)
        for pair in (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y"),
                     ("xi", "xi"), ("xi", "eta"), ("eta", "xi"), ("eta", "eta")):
            nf = normal_order(w(*pair), ps.rules)
            assert all("K" not in c.symbols() for c in nf.coeffs.values())


def test_mixed_rules_carry_k_only_through_phi():
    # (1-X) * rhs splits into a K-free part plus K * (K-free scalar) * Phi
    for d in ("pq", "gh"):
        ps = build_plane_system(d)
        f = phi_poly(ps.deformation)
        probe = next(iter(f.coeffs))
        for lhs in (("x", "xi"), ("x", "eta"), ("y", "xi"), ("y", "eta")):
            rhs = ps.rules.by_lhs[lhs].rhs
            cleared = rhs.scale(ps.one_minus_X)
            base = cleared.map_coeffs(lambda c: substitute(c, {"K": 0}))
            delta = cleared - base
            if delta.is_zero():
                continue
            s = delta.coefficient(probe) / f.coefficient(probe)
            assert delta == f.scale(s)
            # s/K is constant in K (cross-multiplied equality sidesteps
            # the uncancelled common factors a gcd-free field keeps)
            assert s / K == substitute(s / K, {"K": 7})


def test_diamond_holds_exactly_at_braid_couplings():
    assert diamond_check(build_plane_system("pq", 1).rules, 4) == []
    assert diamond_check(build_plane_system("pq", P / Q).rules, 4) == []
    assert diamond_check(build_plane_system("gh", 1).rules, 4) == []
    assert diamond_check(build_plane_system("pq").rules, 3) != []
    assert diamond_check(build_plane_system("gh").rules, 3) != []


def test_overlap_defect_is_the_braid_defect():
    # branch the word x.eta.xi two ways; the disagreement is c^2 * lambda
    # times a fixed normal word, tying non-confluence to the braid factor
    ps = build_plane_system("pq")
    c = ONE / ps.one_minus_X
    left = normal_order(w("x", "eta", "xi"), ps.rules)
    right = normal_order(w("x", "xi", "eta").scale(-Q), ps.rules)
    assert left - right == w("xi", "eta", "x").scale(c * c * mbe_factor("pq"))
    assert dict(critical_pairs(ps.rules))[("x", "eta", "xi")] == left - right

    ps = build_plane_system("gh")
    c = ONE / ps.one_minus_X
    left = normal_order(w("x", "eta", "xi"), ps.rules)
    right = normal_order(-w("x", "xi", "eta"), ps.rules)
    target = (w("xi", "eta", "x") + w("xi", "eta", "y").scale(H))
    assert left - right == target.scale(c * c * mbe_factor("gh"))
    assert dict(critical_pairs(ps.rules))[("x", "eta", "xi")] == left - right


def _k_degree_after_clearing(cf, one_minus_X, m):
    cleared = cf * one_minus_X ** m
    quot, rem = poly_divmod_in(cleared.num, cleared.den, "K")
    if rem:
        return None
    return max(quot) if quot else 0


def test_degree_four_products_linear_in_k():
    # products of two normal-form mixed monomials reorder to something
    # linear in K once a single overall (1-X)-power is cleared
    pairs = (("xi", "x"), ("xi", "y"), ("eta", "x"), ("eta", "y"))
    for d in ("pq", "gh"):
        ps = build_plane_system(d)
        for w1 in pairs:
            for w2 in pairs:
                nf = normal_order(NCPoly.from_word(w1 + w2), ps.rules)
                for m in range(4):
                    degs = [_k_degree_after_clearing(c, ps.one_minus_X, m)
                            for c in nf.coeffs.values()]
                    if all(dg is not None and dg <= 1 for dg in degs):
                        break
                else:
                    raise AssertionError(f"{d}: {w1}+{w2} not linear in K")


def test_degree_four_linearity_fails_for_coordinate_first_words():
    # regression: the linearity above does not extend to arbitrary mixed
    # words; this one clears at (1-X)^3 but stays cubic in K
    ps = build_plane_system("pq")
    nf = normal_order(w("x", "eta", "x", "xi"), ps.rules)
    (cf,) = nf.coeffs.values()
    assert _k_degree_after_clearing(cf, ps.one_minus_X, 3) == 3
