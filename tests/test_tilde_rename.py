"""contraction._tilde_rename against the change_of_basis renaming it replaced.

The old renaming substituted each plain letter by the tilde generator
through ncalgebra.change_of_basis; it is kept here as the oracle.  Both
must give equal polynomials with the same text and the same term order.
"""

from mbraid.contraction import TILDE_OF, _tilde_rename
from mbraid.ncalgebra import NCPoly, build_group_system, change_of_basis
from mbraid.plane import build_pure_system, phi_poly


def _old_rename(p: NCPoly) -> NCPoly:
    return change_of_basis(p, {n: NCPoly.gen(t) for n, t in TILDE_OF.items()})


def _polys():
    for did in ("pq", "gh"):
        for system in (build_group_system(did), build_pure_system(did)):
            for lhs, rule in system.by_lhs.items():
                yield rule.rhs
                yield NCPoly.from_word(lhs) - rule.rhs
        yield phi_poly(did)


def test_tilde_rename_matches_change_of_basis():
    polys = list(_polys())
    assert len(polys) == 2 * (2 * (6 + 4) + 1)
    for p in polys:
        new, old = _tilde_rename(p), _old_rename(p)
        assert new == old, str(p)
        assert str(new) == str(old), str(p)
        assert list(new.coeffs) == list(old.coeffs), str(p)

