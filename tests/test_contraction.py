import io

import pytest

import mbraid.contraction as contraction
from mbraid.catalog import build_r
from mbraid.cli import run_verify
from mbraid.contraction import (
    GROUP_TILDE,
    PLANE_TILDE,
    TILDE_OF,
    conjugated_matrix,
    contract_group_relations,
    contract_matrix,
    contract_plane,
    frame,
    group_tilde_system,
    plane_tilde_system,
)
from mbraid.contraction import _contract_defect, _tilde_rename, _to_tilde
from mbraid.ncalgebra import (GROUP, PLANE, NCPoly, RewriteRule, RewriteSystem,
                              build_group_system, change_of_basis, normal_order)
from mbraid.plane import build_pure_system, phi_poly
from mbraid.pmatrix import inverse
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
    return substitute(expr, frame().substitutions)


def _hand_entered_maps():
    """Hand-entered tilde maps, the oracle for the maps derived from G."""
    om = ONE / sym("u")
    a, b, c, d = (NCPoly.gen(n) for n in GROUP)
    at, bt, ct, dt = (NCPoly.gen(TILDE_OF[n]) for n in GROUP)
    group_to_plain = {
        "a_t": a - c.scale(om),
        "b_t": b - d.scale(om) + a.scale(om) - c.scale(om * om),
        "c_t": c,
        "d_t": d + c.scale(om),
    }
    group_to_tilde = {
        "a": at + ct.scale(om),
        "b": bt - at.scale(om) + dt.scale(om) - ct.scale(om * om),
        "c": ct,
        "d": dt - ct.scale(om),
    }
    xi, eta, x, y = (NCPoly.gen(n) for n in PLANE)
    xit, etat, xt, yt = (NCPoly.gen(TILDE_OF[n]) for n in PLANE)
    plane_to_plain = {
        "x_t": x - y.scale(om),
        "y_t": y,
        "xi_t": xi - eta.scale(om),
        "eta_t": eta,
    }
    plane_to_tilde = {
        "x": xt + yt.scale(om),
        "y": yt,
        "xi": xit + etat.scale(om),
        "eta": etat,
    }
    return group_to_plain, group_to_tilde, plane_to_plain, plane_to_tilde


def _read_backwards(to_tilde):
    """A map plain -> tilde under G^-1, read as the map tilde -> plain."""
    plain_of = {t: n for n, t in TILDE_OF.items()}
    return {TILDE_OF[n]: NCPoly({(plain_of[w[0]],): c for w, c in image.coeffs.items()})
            for n, image in to_tilde.items()}


def _derived_maps():
    gm = frame().gmatrix
    group_to_tilde, plane_to_tilde = _to_tilde(gm)
    group_back, plane_back = _to_tilde(inverse(gm))
    return (_read_backwards(group_back), group_to_tilde,
            _read_backwards(plane_back), plane_to_tilde)


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
    # reverse the direction of the q branch; (q-1)/u becomes -h
    bad = dict(fr.substitutions)
    bad["q"] = 1 - H * U
    monkeypatch.setattr(
        contraction, "frame",
        lambda: contraction.ContractionFrame(bad, fr.gmatrix))
    assert contract_matrix() != build_r("gh")
    buf = io.StringIO()
    assert run_verify("contraction", stream=buf) == 1
    assert any(line.startswith("FAIL contraction:matrix")
               for line in buf.getvalue().splitlines())


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
            lambda c: limit_u0(substitute(c, fr.substitutions)))
        plain_lhs = tuple(n[:-2] for n in lhs)
        assert lim == _tilde_rename(gh.by_lhs[plain_lhs].rhs), lhs


def test_plane_tilde_limits_reproduce_nonstandard_table():
    fr = frame()
    pt = plane_tilde_system()
    gh = build_pure_system("gh")
    for lhs, rule in pt.by_lhs.items():
        lim = rule.rhs.map_coeffs(
            lambda c: limit_u0(substitute(c, fr.substitutions)))
        plain_lhs = tuple(n[:-2] for n in lhs)
        assert lim == _tilde_rename(gh.by_lhs[plain_lhs].rhs), lhs


def test_maps_derived_from_g_match_the_hand_entered_tables():
    for derived, oracle in zip(_derived_maps(), _hand_entered_maps()):
        assert set(derived) == set(oracle)
        for name, image in oracle.items():
            assert derived[name] == image, name


def test_generator_maps_round_trip():
    group_to_plain, group_to_tilde, plane_to_plain, plane_to_tilde = _derived_maps()
    for to_plain, to_tilde, alphabet in ((group_to_plain, group_to_tilde, GROUP_TILDE),
                                         (plane_to_plain, plane_to_tilde, PLANE_TILDE)):
        for name in to_tilde:
            back = change_of_basis(change_of_basis(NCPoly.gen(name), to_tilde), to_plain)
            assert back == NCPoly.gen(name), name
        for name in alphabet:
            back = change_of_basis(change_of_basis(NCPoly.gen(name), to_plain), to_tilde)
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
    fr = frame()
    _, to_tilde = _to_tilde(fr.gmatrix)
    moved = change_of_basis(phi_poly("pq"), to_tilde)
    lim = moved.map_coeffs(lambda c: limit_u0(substitute(c, fr.substitutions)))
    assert lim == _tilde_rename(phi_poly("gh"))


def test_missing_relation_term_leaves_residue():
    # x~ y~ - y~ x~ alone does not close; the y~^2 term is forced
    res = _contract_defect(w("x_t", "y_t") - w("y_t", "x_t"),
                           plane_tilde_system(), frame())
    assert res == w("y_t", "y_t").scale(G)


def test_divergent_coefficient_is_a_hard_error():
    with pytest.raises(PoleAtZero):
        limit_u0(_curve((Q - 1) * OM * OM))
