"""catalog:projectors, identities:baxterization and identities:mbe-r-form
read the verdicts that catalog:hecke, catalog:rhat-affine and identities:mbe
decide, once per family in a pass.

Each of the three lines is compared with its old body, kept in
tests/ref_checks.py, under 159 mutants: the 144 single-entry Rhat mutants
(+ q K, + K^2 and + 1 on each entry of each family), on the mutated family,
and the 15 mutants of tests/test_mutation.py, on every family.  The line
runs alone in a fresh verify pass, and again in a fresh pass after its
partner line has decided the shared verdict.  Both runs must return the
oracle's (ok, detail), or raise the oracle's exception type.

Run as a script, it prints how many of the 144 single-entry mutants each
line fails.
"""

import pytest
import ref_checks
from test_mutation import MUTANTS, _patch_everywhere

import mbraid.catalog as catalog
import mbraid.checks as checks
from mbraid.catalog import DEFORMATIONS, deformation, verify_pass
from mbraid.pmatrix import ParamMatrix
from mbraid.scalars import ONE, sym

Q = sym("q")
SHIFTS = (lambda k: Q * k, lambda k: k * k, lambda k: ONE)

# line: (the line, its partner, the old body)
LINES = {
    "projectors": (checks._check_projectors, checks._check_hecke,
                   ref_checks.check_projectors),
    "baxterization": (checks._check_baxterization, checks._check_rhat_affine,
                      ref_checks.check_baxterization),
    "mbe-r-form": (checks._check_mbe_r_form, checks._check_mbe,
                   ref_checks.check_mbe_r_form),
}


def _entry_mutant(did, index, shift):
    """Rhat with shift(K) added to one entry of one family."""
    def make(real):
        def build_rhat(d, k=None):
            m = real(d, k)
            if deformation(d).id != did:
                return m
            data = list(m.data)
            data[index] = data[index] + shift(catalog._coupling(k))
            return ParamMatrix(4, 4, data)
        return build_rhat
    return catalog, "build_rhat", make


SWEEP = [(_entry_mutant(did, index, shift), (did,))
         for did in DEFORMATIONS for index in range(16) for shift in SHIFTS]


def _outcome(fn, d):
    try:
        return fn(d)
    except Exception as exc:  # a crashed line is compared by exception type
        return type(exc)


def _sweep(line, mutants):
    """(mismatches, oracle FAILs) of one line over (mutant, families) pairs."""
    check, partner, oracle = LINES[line]
    mismatches, fails = [], 0
    for number, (mutant, families) in enumerate(mutants):
        with pytest.MonkeyPatch.context() as patcher:
            _patch_everywhere(patcher, *mutant)
            for d in families:
                want = _outcome(oracle, d)
                fails += isinstance(want, type) or not want[0]  # a crash is a FAIL
                with verify_pass():
                    alone = _outcome(check, d)
                with verify_pass():
                    _outcome(partner, d)
                    after = _outcome(check, d)
                if alone != want or after != want:
                    mismatches.append((number, d, want, alone, after))
    return mismatches, fails


@pytest.mark.parametrize("line, sweep_fails", [("projectors", 141), ("baxterization", 96),
                                               ("mbe-r-form", 141)])
def test_line_matches_its_old_body_on_every_mutant(line, sweep_fails):
    mismatches, fails = _sweep(line, SWEEP)
    assert mismatches == []
    assert fails == sweep_fails
    mismatches, _ = _sweep(line, [(m, DEFORMATIONS) for m in MUTANTS])
    assert mismatches == []


if __name__ == "__main__":
    for line in LINES:
        print(f"{line}: {_sweep(line, SWEEP)[1]} of {len(SWEEP)} single-entry mutants FAIL")
