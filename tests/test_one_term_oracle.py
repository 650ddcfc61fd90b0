"""Every closed-form one-term result of ``mbraid.scalars`` against the long
way round, over one verify pass and one seeded rewrite batch.

``_mono_quotient`` must give the terms of ``RatFunc(n1 * n2, d1 * d2)``,
``RatFunc.inverse`` those of ``RatFunc(den, num)``, and ``as_ratfunc`` of an
int or Fraction those of ``RatFunc(Poly.const(x))``: the same terms in the
same insertion order, with int coefficients.  The wrappers are patched on
the module and the class, so every caller is checked.
"""

import importlib.util
import io
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from mbraid import scalars
from mbraid.cli import run_verify
from mbraid.scalars import Poly, RatFunc

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1401


def _terms(x):
    return list(x.num.terms.items()), list(x.den.terms.items())


def _assert_long_way(got, want):
    assert _terms(got) == _terms(want), (got, want)
    for c in (*got.num.terms.values(), *got.den.terms.values()):
        assert type(c) is int, (got, c)


def _patch_oracles(monkeypatch):
    """Wrap the closed forms; returns the count of results compared."""
    checked = Counter()
    mono_quotient, inverse, as_ratfunc = (scalars._mono_quotient, RatFunc.inverse,
                                          scalars.as_ratfunc)

    def checked_mono_quotient(n1, d1, n2, d2):
        got = mono_quotient(n1, d1, n2, d2)
        _assert_long_way(got, RatFunc(n1 * n2, d1 * d2))
        checked["_mono_quotient"] += 1
        return got

    def checked_inverse(self):
        got = inverse(self)
        _assert_long_way(got, RatFunc(self.den, self.num))
        checked["inverse"] += 1
        return got

    def checked_as_ratfunc(x):
        got = as_ratfunc(x)
        if isinstance(x, (int, Fraction)):
            _assert_long_way(got, RatFunc(Poly.const(x)))
            checked["as_ratfunc"] += 1
        return got

    monkeypatch.setattr(scalars, "_mono_quotient", checked_mono_quotient)
    monkeypatch.setattr(RatFunc, "inverse", checked_inverse)
    # modules that imported as_ratfunc by name hold their own reference
    for module in [m for name, m in sys.modules.items() if name.startswith("mbraid")]:
        if getattr(module, "as_ratfunc", None) is as_ratfunc:
            monkeypatch.setattr(module, "as_ratfunc", checked_as_ratfunc)
    return checked


def test_one_verify_pass_matches_the_long_way(monkeypatch):
    checked = _patch_oracles(monkeypatch)
    assert run_verify("all", stream=io.StringIO()) == 0
    # each closed form is reached, or its oracle would check nothing
    assert set(checked) == {"_mono_quotient", "inverse", "as_ratfunc"}, checked


def test_one_rewrite_batch_matches_the_long_way(monkeypatch):
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
    finally:
        sys.path[:] = saved
    work = worker.Rewrite({"workload": "rewrite", "seed": SEED, "round": 0})
    checked = _patch_oracles(monkeypatch)
    outputs = [op() for op in work.ops()]
    assert checked["_mono_quotient"], checked
    assert work.check(outputs) == []
