"""run_scan names the first missing binding in SYMBOLS order, reading the
symbols of F(K) once."""

import sys
from fractions import Fraction

import pytest

from mbraid.cli import run_scan
from mbraid.scalars import RatFunc, UnknownSymbolError


@pytest.mark.parametrize("d, bindings, missing", [
    ("pq", {}, "p"), ("pq", {"q": Fraction(3)}, "p"), ("pq", {"p": Fraction(2)}, "q"),
    ("gh", {}, "g"), ("gh", {"g": Fraction(1)}, "h"), ("qh", {}, "q"),
    ("qh", {"q": Fraction(3)}, "h")])
def test_scan_names_the_first_missing_binding(tmp_path, d, bindings, missing):
    out = tmp_path / "x.csv"
    with pytest.raises(UnknownSymbolError, match=f"no value bound for '{missing}'"):
        run_scan(d, bindings, 0, 1, 3, str(out))
    assert not out.exists()


def test_scan_reads_the_symbols_once(tmp_path, monkeypatch):
    calls = []
    real = RatFunc.symbols

    def counted(self):
        caller = sys._getframe(1)
        if caller.f_code.co_name.startswith("<"):  # a comprehension's own frame
            caller = caller.f_back
        if caller.f_code is run_scan.__code__:
            calls.append(self)
        return real(self)

    monkeypatch.setattr(RatFunc, "symbols", counted)
    rows = run_scan("pq", {"p": Fraction(2), "q": Fraction(3)}, 0, 2, 5,
                    str(tmp_path / "x.csv"))
    assert len(rows) == 5
    assert len(calls) == 1
