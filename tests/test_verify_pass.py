"""The verify pass: inside ``verify_pass()`` each @per_pass builder runs once
per family at symbolic K, and nothing is shared outside a pass.

The count test patches functions the way test_mutation.py does, in every
``mbraid`` module that imported them by name, counts matrix products on the
class, and counts the bodies of the @per_pass ``build_rhat`` with a profile
hook on its code object.  The sparse-row test records the width of every
ParamMatrix and the words that rtt._rows normal-orders.  The immutability
guard runs
every registered check inside one pass and requires each shared object to
print as it did before.
"""

import io
import sys

import pytest
from test_mutation import _patch_everywhere

import mbraid.identities as identities
import mbraid.ncalgebra as ncalgebra
import mbraid.plane as plane
import mbraid.pmatrix as pmatrix
import mbraid.rtt as rtt
from mbraid.catalog import (DEFORMATIONS, build_r, build_rhat, hecke_X,
                            projectors, verify_pass)
from mbraid.checks import registered_checks
from mbraid.cli import run_verify
from mbraid.identities import _defect_basis, mbe_factor
from mbraid.ncalgebra import RewriteSystem, build_group_system
from mbraid.plane import (MIXED, PlaneSystem, build_plane_system,
                          pure_sector_consistency)
from mbraid.scalars import ONE, sym


def test_a_pass_shares_each_symbolic_build():
    with verify_pass():
        rhat = build_rhat("pq")
        assert build_rhat("pq") is rhat
        assert build_rhat("pq", None) is rhat
        assert build_rhat("pq", sym("K")) is rhat
        assert build_plane_system("pq").k is sym("K")
        assert projectors("pq", build_plane_system("pq").k) is projectors("pq")
        assert build_rhat("gh") is not rhat


def test_a_pass_builds_every_other_coupling_afresh():
    with verify_pass():
        assert build_rhat("pq", 2) is not build_rhat("pq", 2)
        assert build_rhat("pq", 2) == build_rhat("pq", 2)
        assert build_plane_system("pq", ONE) is not build_plane_system("pq", ONE)


def test_no_pass_builds_afresh():
    assert build_rhat("pq") is not build_rhat("pq")
    assert build_group_system("pq") is not build_group_system("pq")


def test_a_pass_left_by_an_exception_shares_nothing_afterwards():
    with pytest.raises(RuntimeError), verify_pass():
        build_rhat("pq")
        raise RuntimeError("leave the pass")
    assert build_rhat("pq") is not build_rhat("pq")


def test_a_nested_pass_leaves_the_outer_one_open():
    with verify_pass():
        outer = build_rhat("pq")
        with verify_pass():
            inner = build_rhat("pq")
            assert build_rhat("pq") is inner
        assert build_rhat("pq") is outer
    assert build_rhat("pq") is not outer


def _counting(counts, name):
    def make(real):
        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)
        return counted
    return make


def test_one_verify_pass_builds_each_family_once(monkeypatch):
    counts: dict = {}
    _patch_everywhere(monkeypatch, pmatrix, "embed12", _counting(counts, "embed12"))
    _patch_everywhere(monkeypatch, identities, "mbe_r_form", _counting(counts, "mbe_r_form"))
    _patch_everywhere(monkeypatch, plane, "_projector_constraints",
                      _counting(counts, "_projector_constraints"))
    monkeypatch.setattr(pmatrix.ParamMatrix, "__matmul__",
                        _counting(counts, "matmul")(pmatrix.ParamMatrix.__matmul__))
    body = build_rhat.__wrapped__.__code__

    def profile(frame, event, _):
        if event == "call" and frame.f_code is body:
            counts["build_rhat"] = counts.get("build_rhat", 0) + 1

    sys.setprofile(profile)
    try:
        assert run_verify("all", stream=io.StringIO()) == 0
    finally:
        sys.setprofile(None)
    # embed12: two K-powers per family in the one _split_defect of _defect_basis;
    # projector constraints: three pure sectors (qh shared by two lines), two mixed;
    # matmul: one Hecke square per family, shared by hecke and projectors, and
    # no R-form triple product: mbe-r-form reads the mbe verdict, so
    # mbe_r_form never runs;
    # build_rhat: the affine decision's K = 0 and K = 1 once per family, shared
    # by rhat-affine and baxterization
    assert "mbe_r_form" not in counts
    assert counts == {"embed12": 6, "_projector_constraints": 5,
                      "matmul": 26, "build_rhat": 20}


def test_one_verify_pass_solves_the_rtt_system_on_sparse_rows(monkeypatch):
    # no 16-column ParamMatrix on the way from the exchange words to the
    # span, and each family's 16 words normal-ordered once, by rtt._rows
    widths, words = [], []
    init = pmatrix.ParamMatrix.__init__

    def recording_init(self, rows, cols, data):
        widths.append(cols)
        init(self, rows, cols, data)

    def normal_order(p, system):
        if sys._getframe(1).f_code is rtt._rows.__code__:
            words.append((system.name, *p.coeffs))
        return ncalgebra.normal_order(p, system)

    monkeypatch.setattr(pmatrix.ParamMatrix, "__init__", recording_init)
    monkeypatch.setattr(rtt, "normal_order", normal_order)
    assert run_verify("all", stream=io.StringIO()) == 0
    assert widths and 16 not in widths
    assert len(words) == len(set(words)) == 16 * len(DEFORMATIONS)
    assert {name for name, _ in words} == {build_group_system(d).name for d in DEFORMATIONS}


def _printed(obj) -> str:
    """Every field of a shared object as text, rules and dict values included.

    A RewriteSystem's table of normal forms (``forms``) is left out on
    purpose: it holds only values derived from the rules, and it grows
    whenever a check normal-orders a word it has not met."""
    if isinstance(obj, RewriteSystem):
        rules = [(lhs, str(rule.rhs)) for lhs, rule in obj.by_lhs.items()]
        return str((obj.name, obj.alphabet, obj.step_cap, rules))
    if isinstance(obj, PlaneSystem):
        return str((obj.deformation, str(obj.k), _printed(obj.rules), str(obj.one_minus_X)))
    if isinstance(obj, tuple):
        return str([_printed(x) for x in obj])
    if isinstance(obj, dict):
        return str([(key, _printed(val)) for key, val in obj.items()])
    return str(obj)


def _shared_objects() -> list:
    builders = [build_rhat, build_r, hecke_X, projectors, mbe_factor,
                _defect_basis, build_group_system, pure_sector_consistency]
    out = [fn(d) for d in DEFORMATIONS for fn in builders]
    return out + [build_plane_system(d) for d in MIXED]


def test_no_check_changes_a_shared_object():
    with verify_pass():
        shared = _shared_objects()
        before = [_printed(x) for x in shared]
        for _, _, d, check in registered_checks():
            check(d)
        again = _shared_objects()
        assert all(x is y for x, y in zip(again, shared))
        assert [_printed(x) for x in shared] == before
