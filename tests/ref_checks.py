"""Reference bodies of three verify lines for differential tests of
mbraid.checks.

``check_projectors`` and ``check_baxterization`` are ``_check_projectors``
and ``_check_baxterization`` as they were before those lines read the Hecke
and affine verdicts that ``catalog:hecke`` and ``catalog:rhat-affine``
decide: the projector line formed P1 P1, P2 P2 and P1 P2, and the
baxterization line rebuilt Rhat at each braid coupling.
``check_mbe_r_form`` is ``_check_mbe_r_form`` from before it read the MBE
verdict that ``identities:mbe`` decides: it formed both symbolic triple
products of R = P.Rhat through ``identities.mbe_r_form``.  The bodies are
kept verbatim, except that each library function is read from its module
when called, so that a builder patched in every ``mbraid`` module (the way
tests/test_mutation.py patches) reaches the reference too.
"""

from __future__ import annotations

import mbraid.catalog as catalog
import mbraid.identities as identities
from mbraid.pmatrix import ParamMatrix


def check_projectors(d):
    p1, p2 = catalog.projectors(d)
    ident = ParamMatrix.identity(4)
    x = catalog.hecke_X(d)
    ok = (p1 @ p1 == p1 and p2 @ p2 == p2
          and (p1 @ p2).is_zero() and p1 + p2 == ident
          and catalog.build_rhat(d) == p1.scale(x - 1) + p2)
    return ok, "idempotent, orthogonal, complete; Rhat = (X-1)P1 + P2"


def check_baxterization(d):
    return identities.baxterization_check(d), "affine family through both braid couplings"


def check_mbe_r_form(d):
    return identities.mbe_r_form(d).is_zero(), "R-form defect identity holds"
