import argparse
import importlib.util
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from ref_identities import braid_residual

import mbraid
import mbraid.checks as checks
import mbraid.cli as cli
from mbraid.catalog import build_M, build_r, build_rhat, deformation
from mbraid.cli import (MAX_DEPTH, _rational, main, parse_expression,
                        registered_checks, run_scan, run_verify)
from mbraid.ncalgebra import NCPoly, RewriteRule, RewriteSystem
from mbraid.pmatrix import ParamMatrix
from mbraid.plane import phi_poly
from mbraid.rtt import SpanMismatch
from mbraid.scalars import DivisionByZero, UnknownSymbolError, substitute, sym

K = sym("K")
P = sym("p")


def test_public_names_resolve():
    for name in mbraid.__all__:
        assert hasattr(mbraid, name), name


def _bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_bench_entry_points_resolve():
    # the traced benchmark run wraps these names; a rename must fail here too
    tracer = _bench_tracer()
    for entries in tracer.FUNCTIONS.values():
        for module, name in entries:
            assert hasattr(importlib.import_module(f"mbraid.{module}"), name), (module, name)
    for module, cls, method in tracer.METHODS.values():
        owner = getattr(importlib.import_module(f"mbraid.{module}"), cls)
        assert hasattr(owner, method), (module, cls, method)
    # bench/worker.py calls these directly
    for name in ("registered_checks", "run_verify", "run_scan", "parse_expression"):
        assert callable(getattr(cli, name)), name


def test_traced_verify_records_one_span_per_check():
    # the tracer wraps cli.registered_checks, so verify must look it up there
    tracer = _bench_tracer().Tracer()
    tracer.install()
    try:
        assert cli.run_verify("all", stream=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    spans = {name: n for name, n in tracer.summary().items()
             if name.startswith("check.") and name.endswith(".calls")}
    assert spans == {f"check.{scope}.{name}.{d or 'none'}.calls": 1
                     for scope, name, d, _ in registered_checks()}


def test_parse_phi_definition():
    assert parse_expression("eta*x - p*xi*y") == phi_poly("pq")


def test_parse_powers():
    assert parse_expression("x^0") == NCPoly.unit()
    assert parse_expression("x^2") == NCPoly.gen("x") * NCPoly.gen("x")
    two = NCPoly.gen("xi") * NCPoly.gen("eta")
    assert parse_expression("(xi*eta)^2") == two * two
    assert parse_expression("K^2*x") == NCPoly.gen("x").scale(K * K)


def test_parse_commuting_symbols_fold_into_coefficients():
    assert parse_expression("x*K*y") == parse_expression("K*x*y")
    assert parse_expression("2/3*x") == NCPoly.gen("x").scale(Fraction(2, 3))


def test_parse_unary_minus():
    assert parse_expression("-x + x").is_zero()
    assert parse_expression("3 - -2") == NCPoly.unit(5)


def test_parse_syntax_error_carries_position():
    with pytest.raises(SyntaxError) as err:
        parse_expression("x*(")
    assert err.value.offset == 3
    assert "offset 3" in str(err.value)


def test_parse_rejects_unknown_symbols_and_bad_powers():
    with pytest.raises(UnknownSymbolError):
        parse_expression("x*z")
    with pytest.raises(SyntaxError):
        parse_expression("x^(1/2)")


def test_parse_rejects_exponent_above_bound():
    assert parse_expression("x^1000") == NCPoly.from_word(("x",) * 1000)
    with pytest.raises(SyntaxError) as err:
        parse_expression("x^1001")
    assert err.value.offset == 2


def test_parse_rejects_product_above_term_bound():
    assert len(parse_expression("(x+y)^13").coeffs) == 8192
    with pytest.raises(SyntaxError) as err:
        parse_expression("(x+y)^14")
    assert err.value.offset == 6
    with pytest.raises(SyntaxError) as err:
        parse_expression("(x+y)^7*(x+y)^7")
    assert err.value.offset == 7
    # numerator and denominator monomials are bounded apart, so the canonical
    # rendering of a 165-term over a 120-term coefficient still re-parses
    big = NCPoly.gen("x").scale((K + P + sym("q") + 1) ** 8 / (K + sym("g") + sym("h") + 1) ** 7)
    assert parse_expression(str(big)) == big


def test_parse_rejects_nesting_above_depth_bound():
    assert parse_expression("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH) == NCPoly.gen("x")
    assert parse_expression("-" * MAX_DEPTH + "x") == NCPoly.gen("x")
    with pytest.raises(SyntaxError) as err:
        parse_expression("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1))
    assert err.value.offset == MAX_DEPTH
    with pytest.raises(SyntaxError) as err:
        parse_expression("-(" * (MAX_DEPTH // 2) + "-x" + ")" * (MAX_DEPTH // 2))
    assert err.value.offset == MAX_DEPTH
    with pytest.raises(SyntaxError):
        parse_expression("-" * 1000 + "x")


def test_parse_rejects_word_above_length_bound():
    with pytest.raises(SyntaxError) as err:
        parse_expression("(x^1000)^1000")
    assert err.value.offset == 9


def test_parse_division_is_scalar_only():
    assert parse_expression("x/2") == NCPoly.gen("x").scale(Fraction(1, 2))
    assert parse_expression("(K)/(K*p - 1)*x") == NCPoly.gen("x").scale(
        K / (K * P - 1))
    with pytest.raises(SyntaxError):
        parse_expression("x/y")
    with pytest.raises(DivisionByZero):
        parse_expression("x/0")


def test_parse_rejects_zero_denominator_literal():
    for text in ("1/0*x", "2/0"):
        with pytest.raises(SyntaxError) as err:
            parse_expression(text)
        assert "zero denominator" in str(err.value)


def test_parse_reads_only_decimal_digits():
    # '²' is a digit to str.isdigit, but int and Fraction refuse it
    for text, offset in (("x^²", 2), ("²*x", 0)):
        with pytest.raises(SyntaxError) as err:
            parse_expression(text)
        assert str(err.value) == f"unexpected character '²' at offset {offset}"
    assert parse_expression("٣*x") == NCPoly.gen("x").scale(3)


def test_render_parse_round_trip():
    rng = random.Random(7)
    letters = ("a", "b", "c", "d", "x", "y", "xi", "eta")
    syms = [sym(n) for n in ("K", "p", "q", "g", "h")]
    for _ in range(25):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            c = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 4)) * 1
            cf = cli.NCPoly.unit(c).coefficient(())
            for s in rng.sample(syms, rng.randint(0, 2)):
                cf = cf * s ** rng.randint(1, 2)
            coeffs[word] = cf
        p = NCPoly(coeffs)
        assert parse_expression(str(p)) == p, str(p)


def test_rational_flag_parsing():
    assert _rational("2/3") == Fraction(2, 3)
    assert _rational("-7") == Fraction(-7)
    with pytest.raises(argparse.ArgumentTypeError):
        _rational("0.5")
    with pytest.raises(argparse.ArgumentTypeError):
        _rational("1/0")


def test_scan_csv_is_deterministic_and_exact_at_braid_points(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    bindings = {"p": Fraction(2), "q": Fraction(3)}
    rows = run_scan("pq", bindings, 0, 2, 5, str(out1))
    run_scan("pq", bindings, 0, 2, 5, str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "K,residual_fro"
    assert len(lines) == 6
    table = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
    assert table["1"] == 0.0
    assert table["0.5"] > 1e-6


def test_scan_gh_zero_only_at_unit_coupling(tmp_path):
    out = tmp_path / "gh.csv"
    rows = run_scan("gh", {"g": Fraction(1), "h": Fraction(2)}, 0, 2, 3, str(out))
    table = dict((float(k), fro) for k, fro in rows)
    assert table[1.0] == 0.0
    assert table[2.0] > 1e-6


def _scan_oracle(d, bindings, kvals) -> list:
    # the per-entry loop: every substituted entry of the triple-product
    # defect (ref_identities) evaluated at each K
    bound = [substitute(e, bindings) for e in braid_residual(d).data]
    return [(k, math.sqrt(sum((e.eval({"K": k}) ** 2 for e in bound), Fraction(0))))
            for k in kvals]


def _random_rational(rng) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def test_scan_matches_per_entry_oracle(tmp_path):
    rng = random.Random(23)
    params = {"pq": ("p", "q"), "gh": ("g", "h"), "qh": ("q", "h")}
    for d, names in params.items():
        cases = [{names[0]: Fraction(3, 2), names[1]: Fraction(-7, 3)}]
        cases += [{n: _random_rational(rng) for n in names} for _ in range(2)]
        for bindings in cases:
            spec = deformation(d)
            k1, k2 = sorted(substitute(ki, bindings).eval({}) for ki in (spec.K1, spec.K2))
            if k1 == k2:  # gh: K1 = K2 = 1 sits mid-grid
                kmin, kmax, steps, hits = k1 - 1, k1 + 1, 9, (4,)
            else:  # K1 and K2 at a third and two thirds of the grid
                kmin, kmax, steps, hits = 2 * k1 - k2, 2 * k2 - k1, 13, (4, 8)
            rows = run_scan(d, bindings, kmin, kmax, steps, str(tmp_path / "s.csv"))
            want = _scan_oracle(d, bindings, [kmin + (kmax - kmin) * i / (steps - 1)
                                              for i in range(steps)])
            assert rows == want, (d, bindings)
            assert {rows[i][0] for i in hits} == {k1, k2}, (d, bindings)
            assert all(rows[i][1] == 0 for i in hits), (d, bindings)
            # B(K) = lam(K) (Rhat12 - Rhat23) also vanishes at K = 0, where Rhat = I
            assert all(fro > 0 for k, fro in rows if k not in (0, k1, k2)), (d, bindings)


def test_scan_names_a_missing_binding(tmp_path):
    out = tmp_path / "x.csv"
    with pytest.raises(UnknownSymbolError, match="no value bound for 'q'"):
        run_scan("pq", {"p": Fraction(2)}, 0, 1, 3, str(out))
    assert not out.exists()


def test_scan_validates_inputs(tmp_path):
    with pytest.raises(ValueError):
        run_scan("pq", {"p": Fraction(2), "q": Fraction(3)}, 0, 2, 1,
                 str(tmp_path / "x.csv"))


def test_scan_refuses_a_float_binding(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(TypeError, match="'p' must be a scalar, got float"):
        run_scan("pq", {"p": 2.5, "q": 3}, 0, 1, 3, str(path))
    assert not path.exists()


@pytest.mark.parametrize("kmin, kmax, steps, name, got", [
    (0.1, 2, 3, "kmin", "float"), (0, 2.0, 3, "kmax", "float"), ("0", 2, 3, "kmin", "str"),
    (0, None, 3, "kmax", "NoneType"), (0, 2, 3.0, "steps", "float"),
    (0, 2, Fraction(3), "steps", "Fraction"), (0, 2, "3", "steps", "str")])
def test_scan_refuses_an_inexact_grid(tmp_path, monkeypatch, kmin, kmax, steps, name, got):
    # refused before the family is looked up, so before any symbolic work
    def no_symbolic_work(d):
        raise AssertionError("deformation looked up")

    monkeypatch.setattr(cli, "deformation", no_symbolic_work)
    path = tmp_path / "x.csv"
    with pytest.raises(TypeError, match=f"^{name} must be an int(?: or Fraction)?, got {got}$"):
        run_scan("pq", {"p": Fraction(2), "q": Fraction(3)}, kmin, kmax, steps, str(path))
    assert not path.exists()


def test_scan_rejects_steps_above_bound(tmp_path):
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError):
        run_scan("pq", {"p": Fraction(2), "q": Fraction(3)}, 0, 2, 100_001, str(out))
    assert not out.exists()


def test_verify_all_checks_pass():
    buf = io.StringIO()
    assert run_verify("all", stream=buf) == 0
    lines = buf.getvalue().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    total = len(registered_checks())
    assert lines[-1] == f"{total}/{total} checks passed"


@pytest.mark.parametrize("scope", cli._scopes(registered_checks())[1:])
def test_verify_scope_filters_checks(scope):
    # a scoped run decides every verdict its lines share with a line outside
    # it, such as the affine one behind identities:baxterization
    golden = Path(__file__).parent / "golden" / "verify.txt"
    want = [line for line in golden.read_text(encoding="utf-8").splitlines()
            if line.split()[1].startswith(f"{scope}:")]
    buf = io.StringIO()
    assert run_verify(scope, stream=buf) == 0
    assert buf.getvalue().splitlines() == want + [f"{len(want)}/{len(want)} checks passed"]


def test_verify_json_schema():
    buf = io.StringIO()
    assert run_verify("contraction", json_out=True, stream=buf) == 0
    report = json.loads(buf.getvalue())
    assert len(report) == 4
    for entry in report:
        assert set(entry) == {"check", "deformation", "status", "detail"}
        assert entry["status"] == "PASS"


def test_m_factorization_check_rejects_wrong_inputs(monkeypatch):
    assert checks._check_m_factorization(None)[0]
    m, rho = build_M()
    data = list(m.data)
    data[6] = 2 * m[1, 2]
    doubled_m = ParamMatrix(4, 4, data)
    for wrong in ((m, 2 * rho), (doubled_m, rho)):
        monkeypatch.setattr(checks, "build_M", lambda: wrong)
        assert not checks._check_m_factorization(None)[0]
    monkeypatch.setattr(checks, "build_M", build_M)
    monkeypatch.setattr(checks, "build_r", lambda d, k=None: build_r(d, 1))
    assert not checks._check_m_factorization(None)[0]


def test_diamond_check_names_an_unresolved_overlap(monkeypatch):
    assert checks._check_diamond("pq") == (
        True, "no overlap violations to degree 4 at the braid couplings")
    symbolic = checks.build_plane_system("pq")
    monkeypatch.setattr(checks, "build_plane_system", lambda d, k=None: symbolic)
    assert checks._check_diamond("pq") == (
        False, "6 unresolved overlaps at K = 1; first x*eta*xi")
    swap = RewriteSystem("swap", ("x", "y"), [
        RewriteRule(("x", "y"), NCPoly.from_word(("y", "x"))),
        RewriteRule(("y", "x"), NCPoly.from_word(("x", "y")))])
    monkeypatch.setattr(checks, "build_plane_system",
                        lambda d, k=None: SimpleNamespace(rules=swap))
    assert checks._check_diamond("gh") == (False, "no termination order at K = 1")


def test_verify_flags_corrupted_catalog(monkeypatch):
    real = build_rhat
    monkeypatch.setattr(checks, "build_rhat", lambda d, k=None: real(d, k).scale(2))
    buf = io.StringIO()
    assert run_verify("catalog", stream=buf) == 1
    assert "FAIL" in buf.getvalue()


def test_verify_refuses_an_unknown_scope():
    # argparse checks --scope on the command line; this is the check for direct callers
    scopes = ("all", "catalog", "rtt", "identities", "plane", "contraction")
    for json_out in (False, True):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="unknown scope 'identity'") as exc:
            run_verify("identity", json_out=json_out, stream=buf)
        assert all(repr(scope) in str(exc.value) for scope in scopes)
        assert buf.getvalue() == ""


def test_scope_choices_come_from_the_registry():
    ap = cli._build_argparser()
    verbs = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    scope = next(a for a in verbs.choices["verify"]._actions if a.dest == "scope")
    registry = tuple(dict.fromkeys(entry[0] for entry in registered_checks()))
    assert tuple(scope.choices) == ("all", *registry)


def test_main_json_output_is_a_list_of_records(tmp_path, capsys):
    for argv in (["solve-rtt", "--deformation", "gh"],
                 ["scan", "--deformation", "gh", "--g", "2", "--h", "3", "--kmin", "0",
                  "--kmax", "1", "--steps", "3", "--csv", str(tmp_path / "x.csv")],
                 ["plane", "--deformation", "gh", "--K", "1", "--expr", "x*eta"],
                 ["contract"]):
        assert main(argv + ["--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert isinstance(records, list) and records, argv
        for record in records:
            assert set(record) == {"check", "deformation", "status", "detail"}, argv
            assert record["status"] == "PASS", argv


def test_main_solve_rtt_reports_a_span_mismatch(monkeypatch, capsys):
    def mismatch(d):
        raise SpanMismatch(f"{d}: catalog matrix outside the solution span")

    monkeypatch.setattr(cli, "solve_family", mismatch)
    assert main(["solve-rtt", "--deformation", "qh"]) == 1
    assert capsys.readouterr().out == "FAIL qh: catalog matrix outside the solution span\n"
    assert main(["solve-rtt", "--deformation", "qh", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == [{
        "check": "rtt:solver", "deformation": "qh", "status": "FAIL",
        "detail": "qh: catalog matrix outside the solution span"}]


def test_main_plane_trailing_token_is_a_usage_error(capsys):
    assert main(["plane", "--expr", "x)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected ')' at offset 1\n"


def test_main_verify_exit_code(capsys):
    assert main(["verify", "--scope", "contraction"]) == 0
    assert "contraction:matrix" in capsys.readouterr().out


def test_main_solve_rtt(capsys):
    assert main(["solve-rtt", "--deformation", "pq"]) == 0
    out = capsys.readouterr().out
    assert "dimension 2" in out and "basis[1]" in out


def test_main_plane_normal_order(capsys):
    assert main(["plane", "--deformation", "pq", "--K", "1",
                 "--expr", "x*eta"]) == 0
    assert capsys.readouterr().out.strip() == "((1)/(q))*eta*x"


def test_main_plane_usage_errors(capsys):
    assert main(["plane", "--expr", "x*("]) == 2
    assert main(["plane", "--expr", "x*z"]) == 2
    assert main(["plane", "--expr", "a*x"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--deformation", "pq", "--p", "0.5", "--q", "3",
              "--kmin", "0", "--kmax", "1", "--steps", "3", "--csv", "x"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_main_plane_division_by_zero_in_expression(capsys):
    assert main(["plane", "--expr", "x/0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_main_plane_zero_denominator_literal(capsys):
    for expr in ("1/0*x", "2/0"):
        assert main(["plane", "--expr", expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_main_plane_literal_beyond_int_digit_limit(capsys):
    # Python refuses to convert a string of more than 4300 digits to int
    assert main(["plane", "--expr", "1" * 5000 + "*x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_main_plane_superscript_digit_is_a_usage_error(capsys):
    for expr in ("x^²", "²*x"):
        assert main(["plane", "--deformation", "pq", "--expr", expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unexpected character '²'")


def test_main_plane_exponent_beyond_int_digit_limit(capsys):
    assert main(["plane", "--expr", "x^" + "1" * 5000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    # leading zeros do not count towards the length
    assert main(["plane", "--expr", "x^" + "0" * 5000 + "2"]) == 0
    assert capsys.readouterr().out.strip() == "x*x"


def test_main_plane_nesting_above_bound(capsys):
    for expr in ("(" * 330 + "x" + ")" * 330, "-" * 1000 + "x"):
        assert main(["plane", f"--expr={expr}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_main_plane_system_pole_at_coupling(capsys):
    # the gh plane rules divide by 1 - X, which vanishes at K = 1/2
    assert main(["plane", "--deformation", "gh", "--K", "1/2", "--expr", "x*xi"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_main_plane_qh_refuses_a_coupling(capsys):
    # qh has only pure plane rules, and they do not depend on K
    assert main(["plane", "--deformation", "qh", "--K", "1", "--expr", "x*eta"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "only pure sectors" in captured.err
    assert main(["plane", "--deformation", "qh", "--expr", "x*eta"]) == 0
    assert capsys.readouterr().out == "x*eta\n"


def test_main_scan_missing_binding(tmp_path, capsys):
    code = main(["scan", "--deformation", "pq", "--p", "2",
                 "--kmin", "0", "--kmax", "1", "--steps", "3",
                 "--csv", str(tmp_path / "x.csv")])
    assert code == 2
    assert "q" in capsys.readouterr().err


def test_main_scan_unwritable_csv_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing" / "x.csv"):
        code = main(["scan", "--deformation", "pq", "--p", "2", "--q", "3",
                     "--kmin", "0", "--kmax", "1", "--steps", "3",
                     "--csv", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_main_scan_pole_in_binding(tmp_path, capsys):
    # pq entries divide by p
    code = main(["scan", "--deformation", "pq", "--p", "0", "--q", "3",
                 "--kmin", "0", "--kmax", "1", "--steps", "3",
                 "--csv", str(tmp_path / "x.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_main_scan_overflow_writes_no_csv(tmp_path, capsys):
    path = tmp_path / "x.csv"
    code = main(["scan", "--deformation", "pq", "--p", "2", "--q", "3",
                 "--kmin", "0", "--kmax", "1" + "0" * 60, "--steps", "3",
                 "--csv", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not path.exists()


def test_main_plane_step_cap_is_a_usage_error(capsys):
    # every rule of the pq plane at K = 1 that this word meets has one term, so
    # the leftmost reduction rewrites 150 * 150 distinct words, one per y
    # moved past an x, against the plane's cap of 20,000
    assert main(["plane", "--deformation", "pq", "--K", "1", "--expr", "y^150*x^150"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "rewrite steps" in captured.err


_FUZZ_PARAMS = {"pq": ("p", "q"), "gh": ("g", "h"), "qh": ("q", "h")}


def _fuzz_rational(rng, zero_share):
    if rng.random() < zero_share:
        return "0"
    n, d = rng.randint(-6, 6) or 1, rng.randint(1, 4)
    return f"{n}" if d == 1 else f"{n}/{d}"


def _fuzz_expr(rng, letters, depth=0):
    """A random expression over the --expr grammar with at most letters[0]
    generator letters, so that normal-ordering stays small."""
    def factor():
        roll = rng.random()
        if roll < 0.35 and letters[0] > 0:
            letters[0] -= 1
            return rng.choice(("x", "y", "xi", "eta", "a"))
        if roll < 0.55:
            return rng.choice(("K", "p", "q", "g", "h"))
        if roll < 0.75 or depth > 2:
            return _fuzz_rational(rng, 0.1).lstrip("-")
        if roll < 0.85:
            return "-" + factor()
        if roll < 0.93:
            return "(" + _fuzz_expr(rng, letters, depth + 1) + ")"
        return factor() + "^" + str(rng.randint(0, 2))

    def term():
        return "".join([factor()] + [rng.choice("**/") + factor()
                                     for _ in range(rng.randint(0, 2))])

    return "".join([term()] + [rng.choice("+-") + term() for _ in range(rng.randint(0, 2))])


def test_main_fuzz_exits_zero_or_with_a_usage_error(tmp_path, capsys):
    # seeded, so a failing argv reproduces; about a second of runs
    rng = random.Random(1206)
    csv = str(tmp_path / "fuzz.csv")
    for _ in range(250):
        d = rng.choice(tuple(_FUZZ_PARAMS))
        if rng.random() < 0.4:
            argv = ["scan", "--deformation", d]
            argv += [f"--{name}={_fuzz_rational(rng, 0.2)}" for name in _FUZZ_PARAMS[d]
                     if rng.random() < 0.95]
            argv += [f"--kmin={_fuzz_rational(rng, 0.2)}", f"--kmax={_fuzz_rational(rng, 0.2)}",
                     "--steps", str(rng.randint(2, 50)), "--csv", csv]
        else:
            argv = ["plane", "--deformation", d]
            if rng.random() < 0.6:
                argv.append(f"--K={_fuzz_rational(rng, 0.2)}")
            # symbolic K makes long words slow, so it gets fewer letters
            argv.append(f"--expr={_fuzz_expr(rng, [3 if len(argv) == 4 else 2])}")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 or (code == 2 and captured.err.startswith("error: ")), (argv, captured)
