"""How many scalar operations one ``mbraid verify`` pass spends on a zero
operand, whose result RatFunc's fast paths already know.

The matrix, defect and polynomial kernels skip those operations, so a pass
reaches only the few left in code that does not look for zeros, and the
accumulators of the RTT system, the RTT residual, the RTT span decision, the
braid defect, its basis, coordinates and divisibility, and elimination take
their first write directly, so they reach none.  The
methods are patched on RatFunc itself, the way test_mutation.py patches
functions, so every caller is counted.
"""

import io
import sys
from collections import Counter

from mbraid import identities, pmatrix, rtt
from mbraid.cli import run_scan, run_verify
from mbraid.scalars import RatFunc, as_ratfunc

# products, sums and differences; __rsub__ goes through __sub__
COUNTED = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__")
# a pass at the dense kernels reached 9,203; the zero skips left about 1,400,
# and first writes taken directly, _poly_substitute's included, leave 44 under
# every hash seed tried.  The bound has room for a few more, not for one more
# accumulator that starts at ZERO (vanishes_at_sqrt's would reach 70)
MAX_ZERO_OPERANDS = 60


def test_one_verify_pass_rarely_reaches_a_zero_operand(monkeypatch):
    counts = dict.fromkeys(COUNTED, 0)

    def counting(name, real):
        def counted(self, other):
            o = as_ratfunc(other)
            if o is not None and (self.is_zero() or o.is_zero()):
                counts[name] += 1
            return real(self, other)
        return counted

    for name in COUNTED:
        monkeypatch.setattr(RatFunc, name, counting(name, getattr(RatFunc, name)))
    assert run_verify("all", stream=io.StringIO()) == 0
    assert sum(counts.values()) <= MAX_ZERO_OPERANDS, counts


def test_accumulators_take_their_first_write_directly(monkeypatch, tmp_path):
    """A verify pass reaches every site but _defect_matrix, which only the
    residual builders and the scan call, so they run here too; each site must
    be reached, or its guard would check nothing."""
    sites = {f.__code__: f.__qualname__ for f in (
        rtt._rows, rtt.rtt_residual, rtt._in_span, identities._basis_of,
        identities._defect_coords, identities._defect_matrix,
        identities._lam_divides, pmatrix._rref)}
    operated, reached = Counter(), Counter()

    def counting(real):
        def counted(self, other):
            o = as_ratfunc(other)
            caller = sys._getframe(1).f_code
            if caller in sites and o is not None:
                operated[sites[caller]] += 1
                if self.is_zero() or o.is_zero():
                    reached[sites[caller]] += 1
            return real(self, other)
        return counted

    for name in COUNTED:
        monkeypatch.setattr(RatFunc, name, counting(getattr(RatFunc, name)))
    assert run_verify("all", stream=io.StringIO()) == 0
    for d in ("pq", "gh", "qh"):
        identities.braid_residual(d)
        assert identities.mbe_residual(d).is_zero(), d
    run_scan("pq", {"p": 2, "q": 3}, 0, 2, 5, str(tmp_path / "scan.csv"))
    assert set(operated) == set(sites.values()), operated
    assert not reached, reached
