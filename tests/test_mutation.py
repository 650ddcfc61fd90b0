"""Mutation guard for ``mbraid verify``: corrupt one entry of Rhat, one
group rule or one pure-plane rule, and at least one check must FAIL.

A mutant replaces a builder in every ``mbraid`` module that imported it by
name, the way the benchmark's tracer wraps functions.  Nothing is cleared
between mutants, so a builder that kept a stale result would show here.

Each mutant's FAIL lines, details included, must equal its section of
golden/mutants.txt.  Rewrite that file only for an intended change of what
the checks report, with ``PYTHONPATH=src python tests/test_mutation.py >
tests/golden/mutants.txt``.
"""

import io
import sys
from pathlib import Path

import pytest

import mbraid.catalog as catalog
import mbraid.ncalgebra as ncalgebra
import mbraid.plane as plane
from mbraid.catalog import deformation
from mbraid.cli import run_verify
from mbraid.ncalgebra import NCPoly, RewriteRule, RewriteSystem
from mbraid.pmatrix import ParamMatrix
from mbraid.scalars import sym

P, Q, G, H = sym("p"), sym("q"), sym("g"), sym("h")


def _patch_everywhere(monkeypatch, module, name, make_mutant):
    real = getattr(module, name)
    mutant = make_mutant(real)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mbraid" or mod_name.startswith("mbraid."):
            for attr, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, attr, mutant)


def _extra_term(rules, lhs, word, coeff):
    return [RewriteRule(r.lhs, r.rhs + NCPoly.from_word(word, coeff)) if r.lhs == lhs else r
            for r in rules]


def _rhat_mutant(did, i, j, shift, slope):
    """Rhat[i, j] + shift + slope*K for one family."""
    def make(real):
        def build_rhat(d, k=None):
            m = real(d, k)
            if deformation(d).id != did:
                return m
            data = [m[r, c] for r in range(4) for c in range(4)]
            data[4 * i + j] = data[4 * i + j] + shift + slope * catalog._coupling(k)
            return ParamMatrix(4, 4, data)
        return build_rhat
    return catalog, "build_rhat", make


def _group_mutant(did, lhs, word, coeff):
    def make(real):
        def build_group_system(d):
            s = real(d)
            if getattr(d, "id", d) != did:
                return s
            rules = _extra_term(s.by_lhs.values(), lhs, word, coeff)
            return RewriteSystem(s.name, s.alphabet, rules, s.step_cap)
        return build_group_system
    return ncalgebra, "build_group_system", make


def _plane_mutant(did, lhs, word, coeff):
    """One pure rule, as both plane systems of the family read it."""
    def make(real):
        def _pure_rules(d):
            rules = real(d)
            return _extra_term(rules, lhs, word, coeff) if d == did else rules
        return _pure_rules
    return plane, "_pure_rules", make


MUTANTS = [
    _rhat_mutant("pq", 1, 2, 0, 1),
    _rhat_mutant("pq", 3, 3, 1, 0),
    _rhat_mutant("gh", 0, 1, 0, 2),
    _rhat_mutant("gh", 2, 1, -1, 0),
    _rhat_mutant("qh", 1, 1, 0, 1),
    _rhat_mutant("qh", 0, 3, 1, 0),
    _group_mutant("pq", ("c", "a"), ("a", "d"), 1),
    _group_mutant("pq", ("d", "b"), ("c", "c"), P),
    _group_mutant("gh", ("c", "a"), ("a", "a"), G),
    _group_mutant("gh", ("d", "c"), ("d", "d"), H),
    _group_mutant("qh", ("d", "a"), ("a", "b"), Q),
    _plane_mutant("pq", ("y", "x"), ("x", "x"), 1),
    _plane_mutant("gh", ("y", "x"), ("x", "x"), H),
    _plane_mutant("gh", ("eta", "xi"), ("xi", "eta"), G),
    _plane_mutant("qh", ("eta", "xi"), ("xi", "xi"), Q),
]


GOLDEN = Path(__file__).parent / "golden" / "mutants.txt"


def _verify(scope="all"):
    buf = io.StringIO()
    code = run_verify(scope, stream=buf)
    return code, buf.getvalue().splitlines()


def _fail_lines(lines):
    return [line for line in lines if line.startswith("FAIL ")]


def _golden_sections(text):
    """{mutant index: FAIL lines} from the '# mutant N' sections."""
    sections: dict = {}
    for line in text.splitlines():
        if line.startswith("# mutant "):
            current = sections.setdefault(int(line.removeprefix("# mutant ")), [])
        elif line:
            current.append(line)
    return sections


@pytest.mark.parametrize("index", range(len(MUTANTS)))
def test_every_mutant_fails_a_check(monkeypatch, index):
    _patch_everywhere(monkeypatch, *MUTANTS[index])
    code, lines = _verify()
    assert code == 1
    fails = _fail_lines(lines)
    assert fails
    assert fails == _golden_sections(GOLDEN.read_text(encoding="utf-8"))[index]


@pytest.mark.parametrize("mutant, check", [
    (_group_mutant("pq", ("c", "a"), ("a", "d"), 1), "contraction:group-relations"),
    (_plane_mutant("pq", ("y", "x"), ("x", "x"), 1), "contraction:plane"),
])
def test_contraction_sees_each_mutant_and_forgets_it(monkeypatch, mutant, check):
    # nothing the contraction builds may outlive the rules it was built from
    _patch_everywhere(monkeypatch, *mutant)
    _, lines = _verify("contraction")
    assert any(line.startswith(f"FAIL {check}") for line in lines)
    monkeypatch.undo()
    code, lines = _verify()
    assert lines[-1] == "53/53 checks passed"
    assert code == 0


if __name__ == "__main__":
    # print golden/mutants.txt: each mutant's FAIL lines under '# mutant N'
    patcher = pytest.MonkeyPatch()
    for index, mutant in enumerate(MUTANTS):
        _patch_everywhere(patcher, *mutant)
        print(f"# mutant {index}", *_fail_lines(_verify()[1]), "", sep="\n")
        patcher.undo()
