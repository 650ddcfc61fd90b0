"""Differential test of the integer scan against the Fraction scan kept in
ref_scan.py.

Both scans must return equal rows (``==``, every K a Fraction; the integer
scan's rows are a read-only sequence, the reference's a list) and write
byte-identical CSV files, or raise the same exception class with the same
message and write no CSV."""

import math
import random
from collections.abc import Sequence
from fractions import Fraction

import pytest
import ref_scan as ref
from test_identities_kernel import CORNERS, _patch

from mbraid import cli, identities
from mbraid.catalog import build_rhat, deformation
from mbraid.cli import _horner, _on_grid, run_scan
from mbraid.pmatrix import embed12, embed23
from mbraid.scalars import (ONE, ZERO, DivisionByZero, UnknownSymbolError,
                            substitute, sym)

F = Fraction
PARAMS = {"pq": ("p", "q"), "gh": ("g", "h"), "qh": ("q", "h")}
DEFAULTS = {"pq": (F(7, 3), F(-5, 2)), "gh": (F(1), F(2)), "qh": (F(3), F(1, 2))}
SPECIAL = (F(0), F(1), F(-1), F(-1, 2), F(-7, 3))


def _outcome(scan, args, path):
    """(rows, CSV bytes), or (exception class, message, whether a CSV exists)."""
    if path.exists():
        path.unlink()
    try:
        rows = scan(*args, str(path))
    except Exception as exc:
        return type(exc), str(exc), path.exists()
    return rows, path.read_bytes()


def _same(tmp_path, d, bindings, kmin, kmax, steps):
    args = (d, bindings, kmin, kmax, steps)
    got = _outcome(run_scan, args, tmp_path / "int.csv")
    want = _outcome(ref.run_scan, args, tmp_path / "ref.csv")
    assert got == want, args
    if isinstance(got[0], Sequence):
        assert len(got[0]) == steps
        assert all(type(k) is Fraction for k, _ in got[0]), args
    return got


def test_horner_pair_matches_reference():
    # a factor common to every evaluation cancels from F = num/den in a scan,
    # so the pair is checked on its own
    rng = random.Random(1208)
    for _ in range(300):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(0, 8))]
        a, b = rng.randint(-99, 99), rng.randint(1, 30)
        num, den = _horner(coeffs, a, b)
        assert type(num) is int and type(den) is int and den > 0
        assert Fraction(num, den) == ref._horner(coeffs, Fraction(a, b)), (coeffs, a, b)


def test_forward_differences_match_horner_at_every_point():
    # lengths 0..8 and steps 1..12 cross steps = degree + 1 from both sides,
    # and the empty list is the zero polynomial
    rng = random.Random(2405)
    for _ in range(400):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(0, 8))]
        start, stride = rng.randint(-999, 999), rng.randint(-99, 99)
        scale, steps = rng.randint(1, 60), rng.randint(1, 12)
        want = [_horner(coeffs, start + stride * i, scale)[0] for i in range(steps)]
        assert list(_on_grid(coeffs, start, stride, scale, steps)) == want, (
            coeffs, start, stride, scale, steps)


def _defaults(d):
    return dict(zip(PARAMS[d], DEFAULTS[d]))


@pytest.mark.parametrize("d", PARAMS)
def test_scan_matches_reference_at_special_bindings(tmp_path, d):
    for name in PARAMS[d]:
        for value in SPECIAL:
            bindings = {**_defaults(d), name: value}
            got = _same(tmp_path, d, bindings, F(-3), F(5, 2), 23)
            if d == "pq" and name == "p" and value == 0:
                assert got[0] is DivisionByZero
            else:
                assert isinstance(got[0], Sequence), (name, value)


@pytest.mark.parametrize("d", PARAMS)
def test_scan_matches_reference_on_grids(tmp_path, d):
    bindings = _defaults(d)
    for kmin, kmax, steps in [(F(-3), F(5, 2), 1001),  # the acceptance grid
                              (F(5, 2), F(-3), 17),    # descending
                              (F(2, 3), F(2, 3), 5),   # a single point
                              (F(-1, 6), F(3, 4), 2),
                              (0, 2, 41),              # int endpoints, as the goldens
                              (F(1, 7), F(22, 7), 50)]:
        _same(tmp_path, d, bindings, kmin, kmax, steps)


def test_scan_matches_reference_on_failures(tmp_path):
    for d, (first, second) in PARAMS.items():
        got = _same(tmp_path, d, {first: F(2)}, 0, 1, 3)
        assert got == (UnknownSymbolError, f"no value bound for {second!r}", False)
        got = _same(tmp_path, d, {second: F(2)}, 0, 1, 3)
        assert got[0] is UnknownSymbolError
    # a huge endpoint overflows the float conversion before the CSV is opened
    got = _same(tmp_path, "pq", _defaults("pq"), 0, F(10) ** 60, 3)
    assert got[0] is OverflowError and got[2] is False
    for steps in (1, 100_001):
        assert _same(tmp_path, "gh", _defaults("gh"), 0, 1, steps)[0] is ValueError


def test_scan_matches_reference_with_a_bound_coupling(tmp_path):
    # a K binding leaves F constant in K, and zero at the braid coupling
    rows, _ = _same(tmp_path, "gh", {**_defaults("gh"), "K": F(1)}, 0, 2, 5)
    assert all(fro == 0.0 for _, fro in rows)
    rows, _ = _same(tmp_path, "gh", {**_defaults("gh"), "K": F(2)}, 0, 2, 5)
    assert len({fro for _, fro in rows}) == 1 and rows[0][1] > 0


def test_scan_matches_reference_through_the_gh_coupling(tmp_path):
    # K1 = K2 = 1 for gh: the defect vanishes to second order there
    rows, _ = _same(tmp_path, "gh", {"g": F(1), "h": F(1)}, F(-1), F(3), 9)
    assert rows[4] == (F(1), 0.0)
    assert all(fro > 0 for k, fro in rows if k not in (0, 1))


def test_scan_matches_reference_on_seeded_cases(tmp_path):
    rng = random.Random(1207)

    def value():
        return F(rng.randint(-9, 9), rng.randint(1, 5))

    for _ in range(24):
        d = rng.choice(tuple(PARAMS))
        bindings = {name: value() for name in PARAMS[d]}
        _same(tmp_path, d, bindings, value(), value(), rng.randint(2, 60))


@pytest.mark.parametrize("d, bindings, c", [
    ("pq", {"p": 2, "q": 3}, 44), ("gh", {"g": 1, "h": 2}, 86), ("qh", {"q": 3, "h": 5}, 168),
])
def test_scan_rows_follow_the_closed_form(tmp_path, d, bindings, c):
    # Rhat(K) = I + K A, so the braid defect lam(K) (Rhat12 - Rhat23) is
    # K lam(K) (A12 - A23), and F(K) = c K^2 lam(K)^2 with c = ||A12 - A23||^2
    a = (build_rhat(d, 1) - build_rhat(d, 0)).map(lambda e: substitute(e, bindings))
    c_exact = sum((e * e for e in (embed12(a) - embed23(a)).data), ZERO).eval({})
    assert c_exact == c
    spec = deformation(d)
    k1, k2 = (substitute(k, bindings).eval({}) for k in (spec.K1, spec.K2))
    rows = run_scan(d, bindings, F(-3), F(5, 2), 1001, str(tmp_path / "scan.csv"))
    assert len(rows) == 1001
    for k, fro in rows:
        lam = (k / k1 - 1) * (k / k2 - 1)
        assert fro == math.sqrt(c_exact * k * k * lam * lam), k


def test_scan_evaluates_the_defect_once(tmp_path, monkeypatch):
    calls = []
    real = cli._basis_of

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_basis_of", counting)
    run_scan("pq", _defaults("pq"), F(-3), F(5, 2), 101, str(tmp_path / "scan.csv"))
    assert len(calls) == 1


@pytest.mark.parametrize("name, vectors", [("pq[1,2]+K^2", 4), ("gh[0,3]+K^2", 3)])
def test_scan_matches_reference_on_a_multi_vector_basis(tmp_path, monkeypatch, name, vectors):
    # a K^2 term that breaks the MBE spreads the defect over several basis
    # vectors; the catalog's bases have one
    mutant, d, _ = CORNERS[name]
    _patch(monkeypatch, mutant)
    spec = deformation(d)
    for bindings in (_defaults(d), GOLDEN[d], _benchmark_binding(d, 4101)):
        rhat = cli.build_rhat(spec).map(lambda e, b=bindings: substitute(e, b))
        assert len(cli._basis_of(rhat, spec.id)[0]) == vectors, bindings
        rows, _ = _same(tmp_path, d, bindings, F(-3), F(2), 101)
        # B(K) still vanishes at K = 0, where Rhat = I
        assert rows[60] == (0, 0.0) and rows[0][1] > 0, bindings


def test_the_scan_kernel_is_the_only_defect_kernel():
    for name in ("_braid_defect", "_defect_at", "_defect_coefficients"):
        assert not hasattr(identities, name), name


@pytest.mark.parametrize("shift, kmin", [(3, 0), (1, -3)])  # the second grid meets the pole
def test_scan_refuses_bindings_that_put_k_in_a_denominator(tmp_path, shift, kmin):
    # the library takes any scalar binding; mbraid scan passes only rationals
    out = tmp_path / "scan.csv"
    with pytest.raises(ValueError, match=r"^pq: Rhat\[.*has K in its denominator"):
        run_scan("pq", {"p": sym("K") + shift, "q": 3}, kmin, 2, 21, str(out))
    assert not out.exists()


def test_running_sums_match_horner_up_to_the_benchmark_grid():
    # degrees 0..8 and the empty list, stride 0 and negative strides, steps = 1
    # (one value, where the chain of running sums is cut), steps at the
    # degree from both sides, and grids up to the benchmark's 1001 points
    rng = random.Random(3301)
    for length in range(10):
        for steps in (1, 2, length, length + 1, length + 2, rng.randint(3, 1001), 1001):
            steps = max(steps, 1)
            for stride in (0, -rng.randint(1, 99), rng.randint(1, 99)):
                coeffs = [rng.randint(-50, 50) for _ in range(length)]
                start, scale = rng.randint(-999, 999), rng.randint(1, 60)
                want = [_horner(coeffs, start + stride * i, scale)[0] for i in range(steps)]
                assert list(_on_grid(coeffs, start, stride, scale, steps)) == want, (
                    coeffs, start, stride, scale, steps)


GOLDEN = {"pq": {"p": F(2), "q": F(3)}, "gh": {"g": F(1), "h": F(2)},
          "qh": {"q": F(3), "h": F(5)}}


def _benchmark_binding(d, seed):
    # drawn as the scan workload draws its parameters: n/d, 1 <= n <= 6, 1 <= d <= 3
    rng = random.Random(f"{seed}:{d}")
    return {name: F(rng.randint(1, 6), rng.randint(1, 3)) for name in PARAMS[d]}


@pytest.mark.parametrize("d", PARAMS)
def test_scan_matches_reference_on_the_benchmark_grid(tmp_path, d):
    for bindings in (GOLDEN[d], _benchmark_binding(d, 3302)):
        rows, _ = _same(tmp_path, d, bindings, F(0), F(2), 1001)
        assert rows[-1][0] == 2, bindings


def _scan_f(d, bindings):
    """F(K), the sum of the squared defect entries, built as run_scan builds it."""
    spec = deformation(d)
    rhat = build_rhat(spec).map(lambda e: substitute(e, bindings))
    defect = cli._defect_matrix(cli._basis_of(rhat, spec.id), ONE, sym("K"), ZERO)
    return sum((e * e for e in defect.data), ZERO)


def _constant_denominator(f):
    ((mono, c),) = f.den.terms.items()
    return not any(mono) and type(c) is int and c > 0


def test_the_scan_denominator_is_one_positive_int():
    rng = random.Random(3303)

    def value():
        return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))

    for d in PARAMS:
        for _ in range(6):
            f = _scan_f(d, {name: value() for name in PARAMS[d]})
            assert _constant_denominator(f), (d, str(f))
        # a bound K leaves F constant
        f = _scan_f(d, {**_defaults(d), "K": F(5, 3)})
        assert not f.symbols() and not f.is_zero() and _constant_denominator(f), d
    # the zero F of gh at its braid coupling K = 1
    f = _scan_f("gh", {**_defaults("gh"), "K": F(1)})
    assert f.is_zero() and _constant_denominator(f)


def test_a_scan_makes_no_fraction_per_grid_point(tmp_path, monkeypatch):
    # the rows make K on access; the scan itself builds only a handful
    made = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    rows = run_scan("pq", _defaults("pq"), F(-3), F(5, 2), 1001, str(tmp_path / "scan.csv"))
    assert len(rows) == 1001
    assert len(made) < 16


@pytest.mark.parametrize("d", PARAMS)
@pytest.mark.parametrize("kmin, kmax, steps", [(F(-3), F(5, 2), 1001), (F(-3), F(5, 2), 2)])
def test_scan_rows_read_as_the_reference_list(tmp_path, d, kmin, kmax, steps):
    args = (d, _defaults(d), kmin, kmax, steps)
    rows = run_scan(*args, str(tmp_path / "int.csv"))
    want = ref.run_scan(*args, str(tmp_path / "ref.csv"))
    assert isinstance(rows, Sequence) and not isinstance(rows, list)
    assert len(rows) == len(want) == steps
    assert rows[0] == want[0] and rows[-1] == want[-1]
    rng = random.Random(f"4001:{d}:{steps}")
    for i in [rng.randrange(-steps, steps) for _ in range(20)]:
        assert rows[i] == want[i], i
    for i in (steps, -steps - 1, 10 ** 30):
        with pytest.raises(IndexError):
            rows[i]
    for s in (slice(None), slice(1, None), slice(-2, None), slice(None, None, -1),
              slice(3, 1), slice(0, steps + 5, 7), slice(-steps - 9, 1)):
        got = rows[s]
        assert type(got) is list and got == want[s], s
    assert list(rows) == want
    assert list(reversed(rows)) == want[::-1]
    assert want[-1] in rows and (want[-1][0] + 1, want[-1][1]) not in rows
    assert rows == want and want == rows and rows == rows
    assert rows != want[:-1] and want[:-1] != rows and rows != tuple(want)
    assert all(type(k) is Fraction for k, _ in rows)
    assert repr(rows).startswith(f"ScanRows({steps} rows")
