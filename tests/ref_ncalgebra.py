"""Reference normal ordering for differential tests of mbraid.ncalgebra.

``normal_order`` is the one that mbraid.ncalgebra used before it kept a
table of the leftmost normal forms of single words: a LIFO agenda of
(word, coefficient) pairs, where each popped word is either added to the
output or rewritten once at its leftmost redex, its right-hand terms pushed
with the coefficient multiplied in.  A word that many paths reach is reduced
again on each of them.  It is kept verbatim apart from the ``step_cap``
argument, which overrides the system's cap, so that a word the old loop
needs more than 10,000 steps for can still serve as a reference.
"""

from __future__ import annotations

from mbraid.ncalgebra import NCPoly, RewriteSystem, StepCapExceeded


def normal_order(p: NCPoly, system: RewriteSystem, step_cap=None) -> NCPoly:
    """Fully reduce p, leftmost redex first.  Raises StepCapExceeded if the
    rewrite budget is exhausted."""
    cap = system.step_cap if step_cap is None else step_cap
    out: dict = {}
    agenda = list(p.coeffs.items())
    steps = 0
    while agenda:
        word, coeff = agenda.pop()
        hit = system.find_redex(word)
        if hit is None:
            s = out.get(word)
            out[word] = coeff if s is None else s + coeff
            continue
        steps += 1
        if steps > cap:
            raise StepCapExceeded(f"{system.name}: more than {cap} rewrite steps")
        i, rule = hit
        for rword, rcoef in rule.rhs.coeffs.items():
            agenda.append((word[:i] + rword + word[i + 2:], coeff * rcoef))
    return NCPoly(out)
