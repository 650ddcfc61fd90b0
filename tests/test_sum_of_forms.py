"""The one pass that builds and sums leftmost normal forms (ncalgebra).

Each reducible word is rewritten once per system: its form goes into the
table when it is complete and is read from there ever after.  A reduction
cut short by the step cap leaves only complete forms behind.
"""

import itertools

import pytest

from mbraid.ncalgebra import (
    GROUP,
    NCPoly,
    RewriteRule,
    RewriteSystem,
    StepCapExceeded,
    _rewrite,
    build_group_system,
    normal_order,
)
from mbraid.plane import build_plane_system
from mbraid.scalars import ONE, sym


@pytest.mark.parametrize("build", [lambda: build_group_system("gh"),
                                   lambda: build_plane_system("pq").rules],
                         ids=["group-gh", "plane-pq-K"])
def test_each_stored_form_is_one_rewrite(build, monkeypatch):
    system = build()
    find = RewriteSystem.find_redex
    hits = []

    def counted(self, word):
        hit = find(self, word)
        if hit is not None:
            hits.append(word)
        return hit

    monkeypatch.setattr(RewriteSystem, "find_redex", counted)
    for degree in range(1, 5):
        for word in itertools.product(system.alphabet, repeat=degree):
            normal_order(NCPoly.from_word(word), system)
    assert len(hits) == len(system.forms) > 0
    assert set(hits) == set(system.forms)


def test_a_capped_reduction_stores_only_finished_forms():
    # d*c*b*a rewrites 35 words; no form is finished within the first 4
    full = build_group_system("gh")
    word = NCPoly.from_word(("d", "c", "b", "a"))
    stored = []
    for cap in range(3, 35):
        small = RewriteSystem("gh", GROUP, list(full.by_lhs.values()), step_cap=cap)
        with pytest.raises(StepCapExceeded, match=f"gh: more than {cap} rewrite steps"):
            normal_order(word, small)
        for w, form in small.forms.items():
            fresh = build_group_system("gh")
            normal_order(NCPoly.from_word(w), fresh)
            want = fresh.forms[w]
            assert list(form) == list(want)
            assert all(c == want[v] for v, c in form.items())
        stored.append(len(small.forms))
    assert stored[0] == 0 and stored[-1] > 0


def test_one_rewrite_step_replaces_the_whole_left_hand_side():
    rule = RewriteRule(("b", "c", "d"), NCPoly({("e",): ONE, (): sym("q")}))
    got = _rewrite(("a", "b", "c", "d", "a"), 1, rule)
    assert list(got.items()) == [(("a", "e", "a"), ONE), (("a", "a"), sym("q"))]
