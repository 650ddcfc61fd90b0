"""Reference mixed plane rules for differential tests of mbraid.plane.

These are the two hand-entered 4-rule tables that build_plane_system used
before it wrote every mixed rule in the one form c (xi^i x^j + w Phi),
kept verbatim: right-hand sides stored pre-expanded, with Phi folded in.
"""

from __future__ import annotations

from mbraid.catalog import _coupling, deformation, hecke_X
from mbraid.ncalgebra import NCPoly, RewriteRule
from mbraid.plane import phi_poly
from mbraid.scalars import ONE, sym


def _word(*names) -> NCPoly:
    return NCPoly.from_word(tuple(names))


def mixed_rules(d, k=None) -> list:
    """The four mixed rules of the pq or gh plane at coupling k."""
    spec = deformation(d)
    k = _coupling(k)
    one_minus_X = 1 - hecke_X(spec, k)
    c = ONE / one_minus_X
    p, q, h = sym("p"), sym("q"), sym("h")
    phi = phi_poly(spec.id)
    if spec.id == "pq":
        mixed = [
            RewriteRule(("x", "xi"), _word("xi", "x").scale(c)),
            RewriteRule(("x", "eta"), (_word("xi", "y") + phi.scale(k / p)).scale(c)),
            RewriteRule(("y", "xi"), (_word("eta", "x") - phi.scale(k * q / p)).scale(c)),
            RewriteRule(("y", "eta"), _word("eta", "y").scale(c)),
        ]
    else:
        mixed = [
            RewriteRule(("x", "xi"), (_word("xi", "x") + phi.scale(k * h)).scale(c)),
            RewriteRule(("x", "eta"), (_word("xi", "y") + phi.scale(k)).scale(c)),
            RewriteRule(("y", "xi"), (_word("eta", "x") - phi.scale(k)).scale(c)),
            RewriteRule(("y", "eta"), _word("eta", "y").scale(c)),
        ]
    return mixed
