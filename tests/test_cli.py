import argparse
import io
import json
import random
from fractions import Fraction

import pytest

import mbraid.cli as cli
from mbraid.catalog import build_rhat
from mbraid.cli import (UnknownSymbol, _rational, main, parse_expression,
                        registered_checks, run_scan, run_verify)
from mbraid.ncalgebra import NCPoly
from mbraid.plane import phi_poly
from mbraid.scalars import DivisionByZero, sym

K = sym("K")
P = sym("p")


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
    with pytest.raises(UnknownSymbol):
        parse_expression("x*z")
    with pytest.raises(SyntaxError):
        parse_expression("x^(1/2)")


def test_parse_division_is_scalar_only():
    assert parse_expression("x/2") == NCPoly.gen("x").scale(Fraction(1, 2))
    assert parse_expression("(K)/(K*p - 1)*x") == NCPoly.gen("x").scale(
        K / (K * P - 1))
    with pytest.raises(SyntaxError):
        parse_expression("x/y")
    with pytest.raises(DivisionByZero):
        parse_expression("x/0")


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


def test_scan_validates_inputs(tmp_path):
    with pytest.raises(ValueError):
        run_scan("pq", {"p": Fraction(2), "q": Fraction(3)}, 0, 2, 1,
                 str(tmp_path / "x.csv"))


def test_verify_all_checks_pass():
    buf = io.StringIO()
    assert run_verify("all", stream=buf) == 0
    lines = buf.getvalue().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    total = len(registered_checks())
    assert lines[-1] == f"{total}/{total} checks passed"


def test_verify_scope_filters_checks():
    buf = io.StringIO()
    assert run_verify("plane", stream=buf) == 0
    body = buf.getvalue().splitlines()[:-1]
    assert body and all(" plane:" in line for line in body)


def test_verify_json_schema():
    buf = io.StringIO()
    assert run_verify("contraction", json_out=True, stream=buf) == 0
    report = json.loads(buf.getvalue())
    assert len(report) == 4
    for entry in report:
        assert set(entry) == {"check", "deformation", "status", "detail"}
        assert entry["status"] == "PASS"


def test_verify_flags_corrupted_catalog(monkeypatch):
    real = build_rhat
    monkeypatch.setattr(cli, "build_rhat", lambda d, k=None: real(d, k).scale(2))
    buf = io.StringIO()
    assert run_verify("catalog", stream=buf) == 1
    assert "FAIL" in buf.getvalue()


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


def test_main_plane_system_pole_at_coupling(capsys):
    # the gh plane rules divide by 1 - X, which vanishes at K = 1/2
    assert main(["plane", "--deformation", "gh", "--K", "1/2", "--expr", "x*xi"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_main_scan_missing_binding(tmp_path, capsys):
    code = main(["scan", "--deformation", "pq", "--p", "2",
                 "--kmin", "0", "--kmax", "1", "--steps", "3",
                 "--csv", str(tmp_path / "x.csv")])
    assert code == 2
    assert "q" in capsys.readouterr().err
