"""Seeded inputs for the three workloads.

Every draw comes from a ``random.Random`` seeded with a string built from the
workload seed and the round index, so the same seed gives the same inputs in
every process (string seeds are hashed with SHA-512, not with the per-process
string hash).
"""

from __future__ import annotations

import random
from fractions import Fraction

SCAN_FAMILIES = ("pq", "gh", "qh")
SCAN_PARAMS = {"pq": ("p", "q"), "gh": ("g", "h"), "qh": ("q", "h")}
SCAN_KMIN, SCAN_KMAX, SCAN_STEPS = Fraction(0), Fraction(2), 1001

GROUP_LETTERS = ("a", "b", "c", "d")
PLANE_LETTERS = ("xi", "eta", "x", "y")

# (name, kind, deformation, coupling, coefficient parameters, longest word).
# The coupling is "K" (symbolic), "K1" or "K2" (the braid couplings of the
# deformation), or None for systems without one.  Four systems stop short of
# 5-letter words, because their cost has a tail that a 30 s run cannot sample
# steadily: on the gh group algebra 15 of the 1024 5-letter words exceed the
# library's 10000-step rewrite cap and 4-letter words reach 0.2 s; on the gh
# plane at symbolic K one 5-letter term took 88 s and 4-letter expressions
# 0.6 s; on the pq plane at symbolic K 5-letter expressions took up to 1 s and
# 4-letter ones 0.2 s, against a 1 ms mean; on the gh plane at K1 single
# 5-letter terms take 0.14 s.
REWRITE_SYSTEMS = (
    ("group-pq", "group", "pq", None, ("p", "q"), 5),
    ("group-gh", "group", "gh", None, ("g", "h"), 3),
    ("group-qh", "group", "qh", None, ("q", "h"), 5),
    ("plane-pq-K", "plane", "pq", "K", ("p", "q", "K"), 3),
    ("plane-pq-K1", "plane", "pq", "K1", ("p", "q"), 5),
    ("plane-pq-K2", "plane", "pq", "K2", ("p", "q"), 5),
    ("plane-gh-K", "plane", "gh", "K", ("g", "h", "K"), 3),
    ("plane-gh-K1", "plane", "gh", "K1", ("g", "h"), 4),
    ("pure-qh", "pure", "qh", None, ("q", "h"), 5),
)
REWRITE_BATCH = 270  # expressions per interpreter, 30 per system


def rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tags)))


def small_rational(r: random.Random, top: int, bottom: int) -> Fraction:
    """A positive rational n/d with 1 <= n <= top and 1 <= d <= bottom."""
    return Fraction(r.randint(1, top), r.randint(1, bottom))


def scan_job(seed: int, round_: int, family: str) -> dict:
    """One scan operation: the family and its two seeded parameters."""
    r = rng(seed, "scan", round_, family)
    return {"family": family,
            "bindings": {name: str(small_rational(r, 6, 3))
                         for name in SCAN_PARAMS[family]}}


def rewrite_batch(seed: int, batch: int) -> list:
    """REWRITE_BATCH expressions, the systems taking turns.  Each expression
    is (system name, [(coefficient, parameter, word), ...]) with 1-4 terms,
    words of 2 letters up to the system's longest word, and coefficients that
    are small signed rationals times one parameter."""
    r = rng(seed, "rewrite", batch)
    out = []
    for i in range(REWRITE_BATCH):
        name, kind, _, _, params, longest = REWRITE_SYSTEMS[i % len(REWRITE_SYSTEMS)]
        letters = GROUP_LETTERS if kind == "group" else PLANE_LETTERS
        terms = []
        for _ in range(r.randint(1, 4)):
            coeff = small_rational(r, 9, 5) * r.choice((1, -1))
            word = tuple(r.choice(letters) for _ in range(r.randint(2, longest)))
            terms.append((coeff, r.choice(params), word))
        out.append((name, terms))
    return out


def render(terms) -> str:
    """The expression text handed to the parser."""
    parts = []
    for coeff, param, word in terms:
        body = f"{abs(coeff)}*{param}*{'*'.join(word)}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def rational_point(r: random.Random) -> dict:
    """A rational point for (K, p, q, g, h); callers redraw when a
    denominator vanishes there."""
    return {name: small_rational(r, 13, 7) * r.choice((1, -1))
            for name in ("K", "p", "q", "g", "h")}
