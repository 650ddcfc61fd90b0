"""The R form of the modified braid equation restates the Rhat form.

For R = P.Rhat, any 4x4 Rhat and any scalar lam,

    R12 R13 R23 - R23 R13 R12 - lam (P(132) R23 - P(123) R12)
        = -P13 (Rhat12 Rhat23 Rhat12 - Rhat23 Rhat12 Rhat23 - lam (Rhat12 - Rhat23))

with P13 = perm_operator((3, 2, 1)), which is invertible.  That is why
identities:mbe-r-form reads the verdict of identities:mbe.  The identity is
checked on the catalog under the 15 mutants of tests/test_mutation.py,
against the Rhat form of tests/ref_identities.py, and on seeded rational
Rhat with rational lam, every product a dense loop.
"""

import io
import json
import random
from fractions import Fraction

import pytest
import ref_identities
import ref_pmatrix as ref
from test_mutation import MUTANTS, _patch_everywhere, _rhat_mutant
from test_perm_moves import _mbe_r_form_by_products

import mbraid.catalog as catalog
import mbraid.identities as identities
from mbraid.catalog import DEFORMATIONS
from mbraid.cli import run_verify
from mbraid.pmatrix import ParamMatrix, perm_apply, perm_operator
from mbraid.scalars import const, sym

K = sym("K")
P13 = (3, 2, 1)


def test_r_form_is_minus_p13_times_rhat_form_under_every_mutant():
    nonzero = set()
    for index, mutant in enumerate(MUTANTS):
        with pytest.MonkeyPatch.context() as patcher:
            _patch_everywhere(patcher, *mutant)
            patcher.setattr(ref_identities, "build_rhat", catalog.build_rhat)
            for d in DEFORMATIONS:
                got = identities.mbe_r_form(d)
                want = -perm_apply(P13, ref_identities.mbe_residual(d))
                assert got.data == want.data, (index, d)
                if not got.is_zero():
                    nonzero.add((index, d))
    # the Rhat mutants that break the MBE of their family (golden/mutants.txt)
    assert nonzero == {(0, "pq"), (1, "pq"), (2, "gh"), (3, "gh"), (4, "qh")}


def _rational(rng):
    return const(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)))


@pytest.mark.parametrize("seed", range(2))
def test_r_form_is_minus_p13_times_rhat_form_for_a_rational_rhat(seed):
    rng = random.Random(f"r-form:{seed}")
    rhat = ParamMatrix(4, 4, [_rational(rng) for _ in range(16)])
    lam = _rational(rng)
    ident = ParamMatrix.identity(2)
    a, b = ref.kron(rhat, ident), ref.kron(ident, rhat)
    braid = ref.sub(ref.matmul(ref.matmul(a, b), a), ref.matmul(ref.matmul(b, a), b))
    rhat_form = ref.sub(braid, ref.scale(ref.sub(a, b), lam))
    assert not rhat_form.is_zero()
    r_form = _mbe_r_form_by_products(ref.matmul(perm_operator((2, 1)), rhat), lam)
    assert r_form.data == ref.neg(ref.matmul(perm_operator(P13), rhat_form)).data


def test_k_in_a_denominator_fails_both_forms_with_one_error(monkeypatch):
    # Rhat[1, 1] + K/(K + 1) for pq
    _patch_everywhere(monkeypatch, *_rhat_mutant("pq", 1, 1, K / (K + 1), 0))
    buf = io.StringIO()
    assert run_verify("identities", json_out=True, stream=buf) == 1
    lines = {r["check"]: r for r in json.loads(buf.getvalue()) if r["deformation"] == "pq"}
    mbe, r_form = lines["identities:mbe"], lines["identities:mbe-r-form"]
    assert mbe["status"] == r_form["status"] == "FAIL"
    assert mbe["detail"] == r_form["detail"]
    assert mbe["detail"].startswith("ValueError: pq: Rhat[1, 1] = ")
    assert "has K in its denominator" in mbe["detail"]
