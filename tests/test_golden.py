"""Byte-for-byte comparison of command output with recorded golden files.

tests/golden/ holds the output of the mbraid command for verify (text and
JSON), contract, solve-rtt per family and a 41-point scan per family.  A
refactor of the arithmetic or of the checks must leave all of it unchanged;
rewrite a file only for an intended change of output, with the command line
that the matching case below runs.
"""

from pathlib import Path

import pytest

from mbraid.cli import main

GOLDEN = Path(__file__).parent / "golden"

STDOUT_CASES = [
    ("verify.txt", ["verify"]),
    ("verify.json", ["verify", "--json"]),
    ("contract.txt", ["contract"]),
    ("solve-rtt-pq.txt", ["solve-rtt", "--deformation", "pq"]),
    ("solve-rtt-gh.txt", ["solve-rtt", "--deformation", "gh"]),
    ("solve-rtt-qh.txt", ["solve-rtt", "--deformation", "qh"]),
]

SCAN_CASES = [
    ("scan-pq.csv", ["--deformation", "pq", "--p", "2", "--q", "3"]),
    ("scan-gh.csv", ["--deformation", "gh", "--g", "1", "--h", "2"]),
    ("scan-qh.csv", ["--deformation", "qh", "--q", "3", "--h", "5"]),
]


@pytest.mark.parametrize("golden, argv", STDOUT_CASES + SCAN_CASES,
                         ids=[name for name, _ in STDOUT_CASES + SCAN_CASES])
def test_output_matches_golden(golden, argv, tmp_path, capsysbinary):
    if golden.endswith(".csv"):
        out = tmp_path / golden
        argv = ["scan", *argv, "--kmin", "0", "--kmax", "2", "--steps", "41",
                "--csv", str(out)]
        assert main(argv) == 0
        produced = out.read_bytes()
    else:
        assert main(argv) == 0
        produced = capsysbinary.readouterr().out
    assert produced == (GOLDEN / golden).read_bytes()
