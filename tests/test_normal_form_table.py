"""normal_order against the agenda loop it replaced (tests/ref_ncalgebra.py).

The table of leftmost normal forms must give the old loop's words in the old
order, cancelled words dropped at the end as before.  Where the scalar
arithmetic is canonical (every system but the two planes at symbolic K) the
coefficients print the same too; at symbolic K a coefficient may print
shorter, since each word's form is summed once instead of once per path,
but it has the same value.
"""

import itertools

import pytest
import ref_ncalgebra
from test_bench_oracles import worker  # noqa: F401  (the bench worker module, a fixture)
from test_ncalgebra import _all_systems

from mbraid.cli import parse_expression
from mbraid.contraction import group_tilde_system, plane_tilde_system
from mbraid.ncalgebra import NCPoly, StepCapExceeded, build_group_system, normal_order
from mbraid.plane import build_plane_system


def _assert_same(got: NCPoly, want: NCPoly, printed=True):
    assert list(got.coeffs) == list(want.coeffs)
    assert got == want
    if printed:
        assert str(got) == str(want)


def test_every_word_up_to_four_letters_matches_the_agenda_loop():
    systems = _all_systems()
    systems["gh-group-tilde"] = group_tilde_system()
    systems["gh-plane-tilde"] = plane_tilde_system()
    count = 0
    for name, system in systems.items():
        for degree in range(1, 5):
            for word in itertools.product(system.alphabet, repeat=degree):
                p = NCPoly.from_word(word)
                _assert_same(normal_order(p, system), ref_ncalgebra.normal_order(p, system))
                count += 1
    assert count == 13 * (4 + 16 + 64 + 256)


def test_seeded_expressions_match_the_agenda_loop(worker):  # noqa: F811
    # round 0 of bench seeds 1-10 over the rewrite workload's nine systems,
    # the tables kept from one expression to the next
    systems = worker.build_systems()
    shorter = {}
    for seed in range(1, 11):
        for name, terms in worker.inputs.rewrite_batch(seed, 0):
            p = parse_expression(worker.inputs.render(terms))
            got = normal_order(p, systems[name])
            want = ref_ncalgebra.normal_order(p, systems[name])
            symbolic = name in ("plane-pq-K", "plane-gh-K")
            _assert_same(got, want, printed=not symbolic)
            if str(got) != str(want):
                shorter[name] = shorter.get(name, 0) + 1
                assert all(len(str(a)) <= len(str(b))
                           for a, b in zip(got.coeffs.values(), want.coeffs.values()))
    assert shorter == {"plane-pq-K": 1, "plane-gh-K": 8}


def test_every_five_letter_gh_group_word_normal_orders():
    # 15 of these words took the agenda loop more than 10,000 steps
    system = build_group_system("gh")
    for word in itertools.product(system.alphabet, repeat=5):
        nf = normal_order(NCPoly.from_word(word), system)
        assert all(system.find_redex(w) is None for w in nf.coeffs)
    for word in (("b", "b", "a", "b", "b"), ("b", "b", "b", "a", "a"), ("d", "a", "b", "b", "b")):
        p = NCPoly.from_word(word)
        with pytest.raises(StepCapExceeded):
            ref_ncalgebra.normal_order(p, system)
        _assert_same(normal_order(p, system), ref_ncalgebra.normal_order(p, system, 10**6))


def test_symbolic_coupling_tail_stays_small():
    # the agenda loop left a coefficient of 5,180,181 characters here
    system = build_plane_system("gh").rules
    nf = normal_order(parse_expression("7/2*h*x*y*x*xi*xi"), system)
    assert nf.coeffs
    assert max(len(str(c)) for c in nf.coeffs.values()) < 400
