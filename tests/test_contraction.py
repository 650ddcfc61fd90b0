import pytest

import mbraid.contraction as contraction
from mbraid.catalog import build_r
from mbraid.contraction import (
    ContractionMismatch,
    conjugated_matrix,
    contract_group_relations,
    contract_matrix,
    contract_plane,
    frame,
    group_tilde_system,
    plane_tilde_system,
)
from mbraid.contraction import _contract_defect, _generator_maps, _pq_subs, _tilde_rename
from mbraid.ncalgebra import (NCPoly, RewriteRule, RewriteSystem, build_group_system,
                              change_of_basis, normal_order)
from mbraid.plane import build_pure_system, phi_poly
from mbraid.scalars import ONE, PoleAtZero, limit_u0, substitute, sym

K = sym("K")
P = sym("p")
Q = sym("q")
G = sym("g")
H = sym("h")
U = sym("u")
OM = ONE / U


def w(*names):
    return NCPoly.from_word(tuple(names))


def _curve(expr):
    return substitute(expr, _pq_subs(frame()))


def test_curve_identities_hold_exactly_in_u():
    # these are u-free after substitution, no limit involved
    assert _curve((1 - P) * OM) == G
    assert _curve((Q - 1) * OM) == H


def test_curve_difference_combinations():
    assert limit_u0(_curve((1 / P - Q) * OM)) == G - H
    assert limit_u0(_curve((P * Q - 1) * OM)) == H - G


def test_conjugated_matrix_prelimit_entries():
    m = conjugated_matrix()
    want = [
        ONE, -K * (Q - 1) * OM, K * (Q - 1) / P * OM, -K * (P - 1) * (Q - 1) / P * OM * OM,
        0 * K, K * Q, 1 - K * Q / P, K * Q * (P - 1) / P * OM,
        0 * K, 1 - K, K / P, -K * (P - 1) / P * OM,
        0 * K, 0 * K, 0 * K, ONE,
    ]
    for i in range(4):
        for j in range(4):
            assert m[i, j] == want[4 * i + j], (i, j)


def test_contract_matrix_is_nonstandard_catalog_entry():
    assert contract_matrix() == build_r("gh")


def test_contract_matrix_commutes_with_coupling_specialization():
    lim = contract_matrix()
    at_one = contract_matrix(1)
    for i in range(4):
        for j in range(4):
            assert at_one[i, j] == substitute(lim[i, j], {"K": 1})


def test_wrong_curve_is_rejected(monkeypatch):
    fr = frame()
    # reverse the direction of the q branch; (q-1)*omega becomes -h
    bad = dict(fr.substitutions)
    bad["q"] = 1 - H * U
    monkeypatch.setattr(
        contraction, "frame",
        lambda: contraction.ContractionFrame(bad, fr.gmatrix))
    with pytest.raises(ContractionMismatch):
        contract_matrix()


def test_group_tilde_rule_goldens():
    gt = group_tilde_system()
    assert gt.by_lhs[("c_t", "a_t")].rhs == (
        w("a_t", "c_t").scale(P) + w("c_t", "c_t").scale((P - 1) * OM))
    assert gt.by_lhs[("d_t", "c_t")].rhs == (
        w("c_t", "c_t").scale((Q - 1) / Q * OM) + w("c_t", "d_t").scale(1 / Q))


def test_group_tilde_partially_ordered_display_reduces_to_rule():
    # the same relation with the descending d_t c_t word kept explicit
    disp = (w("b_t", "c_t").scale(P * Q)
            + w("d_t", "c_t").scale(Q * (P - 1) * OM)
            - w("a_t", "c_t").scale(P * (Q - 1) * OM)
            + w("c_t", "c_t").scale((1 - P) * (Q - 1) * OM * OM))
    gt = group_tilde_system()
    assert normal_order(disp, gt) == gt.by_lhs[("c_t", "b_t")].rhs


def test_group_tilde_limits_reproduce_nonstandard_table():
    fr = frame()
    gt = group_tilde_system()
    gh = build_group_system("gh")
    for lhs, rule in gt.by_lhs.items():
        lim = rule.rhs.map_coeffs(
            lambda c: limit_u0(substitute(c, _pq_subs(fr))))
        plain_lhs = tuple(n[:-2] for n in lhs)
        assert lim == _tilde_rename(gh.by_lhs[plain_lhs].rhs), lhs


def test_plane_tilde_limits_reproduce_nonstandard_table():
    fr = frame()
    pt = plane_tilde_system()
    gh = build_pure_system("gh")
    for lhs, rule in pt.by_lhs.items():
        lim = rule.rhs.map_coeffs(
            lambda c: limit_u0(substitute(c, _pq_subs(fr))))
        plain_lhs = tuple(n[:-2] for n in lhs)
        assert lim == _tilde_rename(gh.by_lhs[plain_lhs].rhs), lhs


def test_generator_maps_round_trip():
    group_to_plain, group_to_tilde, plane_to_plain, plane_to_tilde = _generator_maps()
    for to_a, to_b in ((group_to_plain, group_to_tilde),
                       (plane_to_plain, plane_to_tilde)):
        for name in to_b:
            back = change_of_basis(change_of_basis(NCPoly.gen(name), to_b), to_a)
            assert back == NCPoly.gen(name), name


def test_contract_group_relations():
    assert contract_group_relations()


def test_contract_plane():
    assert contract_plane()


def test_contract_plane_rejects_a_corrupted_gh_rule(monkeypatch):
    # each gh plane relation must itself emerge from the limit
    real = contraction.build_pure_system
    gh = real("gh")
    for lhs in gh.by_lhs:
        rules = [RewriteRule(r.lhs, r.rhs + w("xi", "eta").scale(G) if r.lhs == lhs else r.rhs)
                 for r in gh.by_lhs.values()]
        bad = RewriteSystem(gh.name, gh.alphabet, rules, gh.step_cap)
        monkeypatch.setattr(contraction, "build_pure_system",
                            lambda d, bad=bad: bad if d == "gh" else real(d))
        assert not contract_plane(), lhs


def test_phi_contracts_to_nonstandard_phi():
    _, _, _, to_tilde = _generator_maps()
    fr = frame()
    moved = change_of_basis(phi_poly("pq"), to_tilde)
    lim = moved.map_coeffs(lambda c: limit_u0(substitute(c, _pq_subs(fr))))
    assert lim == _tilde_rename(phi_poly("gh"))


def test_missing_relation_term_leaves_residue():
    # x~ y~ - y~ x~ alone does not close; the y~^2 term is forced
    res = _contract_defect(w("x_t", "y_t") - w("y_t", "x_t"),
                           plane_tilde_system(), frame())
    assert res == w("y_t", "y_t").scale(G)


def test_divergent_coefficient_is_a_hard_error():
    with pytest.raises(PoleAtZero):
        limit_u0(_curve((Q - 1) * OM * OM))
