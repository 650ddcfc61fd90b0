"""Free associative algebra over the scalar field, with ordered rewriting.

Words are tuples of generator names; an NCPoly maps words to RatFunc
coefficients and never stores a coefficient that is exactly zero.  A
RewriteSystem orients the defining relations of one algebra so that every
left-hand side is a two-letter descending (or repeated) pair and every
right-hand side is already in normal form.

Reduction is leftmost-innermost, deterministic and linear, so each system
keeps a table of the leftmost normal forms of the single words it has
rewritten.  normal_order is one pass, _sum_of_forms: it sums the input's
coefficients times those forms, and a word missing from the table is
rewritten once (_rewrite, the one-step rewrite every caller shares), its
rewrite summed the same way on an explicit stack and its form stored once
complete.  A system's rules are read-only after construction (by_lhs is a
mapping proxy), so a stored form never goes stale.  Termination and
confluence rest on certificates: termination_order finds a weighted
degree-lex order, with 0/1 weights on the letters, under which every rule
descends, and critical_pairs resolves each overlap ab.bc of two left-hand
sides.  By Bergman's diamond lemma (Adv. Math. 29, 1978) the two together
prove confluence at every degree.  The step cap bounds the number of words
normal_order rewrites in one call, and a word met again while its own form
is being built is a cycle, refused at once.  diamond_check, which reduces
every word up to a fixed degree with two redexes, is kept as an oracle.
"""

from __future__ import annotations

from itertools import product
from types import MappingProxyType
from typing import NamedTuple

from .catalog import deformation, per_pass
from .scalars import ONE, ZERO, RatFunc, as_ratfunc, sym

Word = tuple

GROUP = ("a", "b", "c", "d")
PLANE = ("xi", "eta", "x", "y")


class StepCapExceeded(RuntimeError):
    """normal_order exceeded its rewrite budget."""


class NotLinear(ValueError):
    """change_of_basis image that is not homogeneous of degree one."""


class NCPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {w: c for w, c in coeffs.items() if not c.is_zero()}

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly({})

    @staticmethod
    def unit(c=ONE) -> "NCPoly":
        return NCPoly({(): as_ratfunc(c)})

    @staticmethod
    def gen(name: str) -> "NCPoly":
        return NCPoly({(name,): ONE})

    @staticmethod
    def from_word(word: Word, coeff=ONE) -> "NCPoly":
        return NCPoly({tuple(word): as_ratfunc(coeff)})

    def coefficient(self, word: Word) -> RatFunc:
        return self.coeffs.get(tuple(word), ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((len(w) for w in self.coeffs), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(c == other.coeffs[w] for w, c in self.coeffs.items())

    __hash__ = None

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return NCPoly(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly({w: -c for w, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            out: dict = {}
            for w1, c1 in self.coeffs.items():
                for w2, c2 in other.coeffs.items():
                    w = w1 + w2
                    c = c1 * c2
                    s = out.get(w)
                    out[w] = c if s is None else s + c
            return NCPoly(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "NCPoly":
        s = as_ratfunc(s)
        if s is None:
            return NotImplemented
        return NCPoly({w: s * c for w, c in self.coeffs.items()})

    def map_coeffs(self, fn) -> "NCPoly":
        return NCPoly({w: fn(c) for w, c in self.coeffs.items()})

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w in sorted(self.coeffs, key=lambda w: (len(w), w)):
            parts.append(_term_str(w, self.coeffs[w]))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"NCPoly({self})"


def _term_str(word: Word, c: RatFunc) -> str:
    if not word:
        s = str(c)
        return f"({s})" if " " in s else s
    w = "*".join(word)
    if c == ONE:
        return w
    if c == -1:
        return f"-{w}"
    s = str(c)
    if " " in s or "/" in s:
        s = f"({s})"
    return f"{s}*{w}"


class RewriteRule(NamedTuple):
    lhs: Word
    rhs: NCPoly


class RewriteSystem:
    """Oriented relations of one algebra.  The constructor enforces the shape
    guarantees reduction relies on; it does not prove termination.  by_lhs
    is read-only, and forms maps each reducible word normal_order has met
    to its leftmost normal form, {normal word: coefficient}, words in the
    order a leftmost reduction first reaches them, cancelled ones kept."""

    def __init__(self, name: str, alphabet: tuple, rules: list, step_cap: int = 10000):
        self.name = name
        self.alphabet = alphabet
        self.step_cap = step_cap
        by_lhs = {}
        letters = set(alphabet)
        for rule in rules:
            if len(rule.lhs) != 2:
                raise ValueError(f"rule lhs {rule.lhs} is not a pair of letters")
            if not letters.issuperset(rule.lhs):
                raise ValueError(f"lhs {rule.lhs} not in alphabet of {name}")
            if rule.lhs in by_lhs:
                raise ValueError(f"duplicate rule for {rule.lhs}")
            for w in rule.rhs.coeffs:
                if len(w) > 2:
                    raise ValueError(f"rule {rule.lhs} raises degree")
                if w == rule.lhs:
                    raise ValueError(f"rule {rule.lhs} maps to itself")
                if not letters.issuperset(w):
                    raise ValueError(f"rhs of {rule.lhs} leaves the alphabet")
            by_lhs[rule.lhs] = rule
        self.by_lhs = MappingProxyType(by_lhs)
        self.forms: dict = {}

    def find_redex(self, word: Word):
        """Leftmost redex: (position, rule) or None."""
        for i in range(len(word) - 1):
            rule = self.by_lhs.get(word[i:i + 2])
            if rule is not None:
                return i, rule
        return None


def normal_order(p: NCPoly, system: RewriteSystem) -> NCPoly:
    """Fully reduce p, leftmost redex first: the sum of c * form(w) over its
    terms c*w, each form read from system.forms or built and stored there
    in the same pass (_sum_of_forms).

    Terms are visited last first, and words are kept in the order they are
    first reached, cancelled ones included until the final NCPoly, so the
    result lists its words as a leftmost reduction of p does.  Raises
    StepCapExceeded when more than system.step_cap words are rewritten in
    one call, and at once on a cycle: a word met again while its own form is
    still being built."""
    return NCPoly(_sum_of_forms(system, reversed(p.coeffs.items())))


def _rewrite(word: Word, i: int, rule: RewriteRule) -> dict:
    """One step: word rewritten by rule at position i, {word: coefficient}
    in the order of rule.rhs."""
    head, tail = word[:i], word[i + len(rule.lhs):]
    return {head + rw + tail: rc for rw, rc in rule.rhs.coeffs.items()}


def _sum_of_forms(system: RewriteSystem, terms) -> dict:
    """The sum of coeff * form(word) over an iterator of (word, coeff) terms,
    in one pass.

    A word in system.forms adds its stored form, and a normal word adds
    itself.  Any other word is rewritten once at its leftmost redex; the
    parent's terms and partial sum go on an explicit stack, and the word's
    own rewrite is summed the same way, last rhs term first.  Its sum is
    then stored in system.forms and added into the parent, so a form is
    stored only once it is complete.  Normal words are not stored."""
    forms, cap, find = system.forms, system.step_cap, system.find_redex
    out: dict = {}
    stack: list = []  # (parent's terms, parent's sum, word being built, its coeff)
    building: set = set()
    steps = 0
    while True:
        term = next(terms, None)
        if term is None:  # out is the whole sum, or the form on top of the stack
            if not stack:
                return out
            terms, parent, word, coeff = stack.pop()
            forms[word] = form = out
            building.remove(word)
            out = parent
        else:
            word, coeff = term
            form = forms.get(word)
            if form is None:
                hit = find(word)
                if hit is None:
                    s = out.get(word)
                    out[word] = coeff if s is None else s + coeff
                    continue
                steps += 1
                if steps > cap or word in building:
                    raise StepCapExceeded(f"{system.name}: more than {cap} rewrite steps")
                building.add(word)
                stack.append((terms, out, word, coeff))
                terms, out = reversed(_rewrite(word, *hit).items()), {}
                continue
        for w, c in form.items():
            t = coeff * c
            s = out.get(w)
            out[w] = t if s is None else s + t


def diamond_check(system: RewriteSystem, max_degree: int) -> list:
    """For every word up to max_degree with several redexes, rewrite one step
    each way and reduce fully; report words whose normal forms disagree."""
    violations = []
    for degree in range(2, max_degree + 1):
        for letters in product(system.alphabet, repeat=degree):
            word = tuple(letters)
            redexes = [(i, rule) for i in range(degree - 1)
                       if (rule := system.by_lhs.get(word[i:i + 2])) is not None]
            if len(redexes) < 2:
                continue
            forms = [normal_order(NCPoly(_rewrite(word, i, rule)), system)
                     for i, rule in redexes]
            if any(f != forms[0] for f in forms[1:]):
                violations.append(word)
    return violations


def _order_key(system: RewriteSystem, weights: tuple):
    weight = dict(zip(system.alphabet, weights))
    rank = {letter: i for i, letter in enumerate(system.alphabet)}
    return lambda w: (sum(weight[l] for l in w), len(w), tuple(rank[l] for l in w))


def termination_order(system: RewriteSystem):
    """First weight vector in {0,1}^n over system.alphabet under which every
    rule's right-hand words lie below its left-hand side, or None.

    Words are ordered by (weighted degree, length, letter ranks in alphabet
    order); that order is compatible with concatenation and well-founded, so
    a descending rule table terminates."""
    for weights in product((0, 1), repeat=len(system.alphabet)):
        key = _order_key(system, weights)
        if all(key(w) < key(lhs) for lhs, rule in system.by_lhs.items()
               for w in rule.rhs.coeffs):
            return weights
    return None


def critical_pairs(system: RewriteSystem) -> list:
    """(word, difference) for every overlap abc of left-hand sides ab and bc
    whose two one-step rewrites normal-order to different results, in
    alphabet order of the words."""
    rank = {letter: i for i, letter in enumerate(system.alphabet)}
    overlaps = sorted((ab + bc[1:] for ab in system.by_lhs for bc in system.by_lhs
                       if ab[1] == bc[0]), key=lambda w: [rank[l] for l in w])
    out = []
    for word in overlaps:
        left = NCPoly(_rewrite(word, 0, system.by_lhs[word[:2]]))
        right = NCPoly(_rewrite(word, 1, system.by_lhs[word[1:]]))
        diff = normal_order(left, system) - normal_order(right, system)
        if not diff.is_zero():
            out.append((word, diff))
    return out


def change_of_basis(p: NCPoly, mapping: dict) -> NCPoly:
    """Linear substitution: each mapped generator is replaced by a homogeneous
    degree-one NCPoly; unmapped generators stay themselves."""
    images = {}
    for name, image in mapping.items():
        if image.is_zero() or any(len(w) != 1 for w in image.coeffs):
            raise NotLinear(f"image of {name!r} is not homogeneous of degree one")
        images[name] = image
    out = NCPoly.zero()
    for word, coeff in p.coeffs.items():
        term = NCPoly.unit(coeff)
        for letter in word:
            term = term * images.get(letter, NCPoly.gen(letter))
        out = out + term
    return out


def _rule(lhs: Word, terms: list) -> RewriteRule:
    return RewriteRule(tuple(lhs), NCPoly({tuple(w): as_ratfunc(c) for c, w in terms}))


@per_pass
def build_group_system(d) -> RewriteSystem:
    """Oriented quadratic relations of the 2x2 quantum-group algebra for one
    deformation.  Right-hand sides are stored fully normal-ordered."""
    did = deformation(d).id
    p, q, g, h = sym("p"), sym("q"), sym("g"), sym("h")
    if did == "pq":
        rules = [
            _rule(("b", "a"), [(ONE / q, ("a", "b"))]),
            _rule(("c", "a"), [(p, ("a", "c"))]),
            _rule(("d", "a"), [(ONE, ("a", "d")), (p - q, ("b", "c"))]),
            _rule(("c", "b"), [(p * q, ("b", "c"))]),
            _rule(("d", "b"), [(p, ("b", "d"))]),
            _rule(("d", "c"), [(ONE / q, ("c", "d"))]),
        ]
    elif did == "gh":
        rules = [
            _rule(("b", "a"), [(ONE, ("a", "b")), (-h, ("a", "d")), (h, ("b", "c")),
                               (-h * h, ("a", "c")), (h, ("a", "a"))]),
            _rule(("c", "a"), [(ONE, ("a", "c")), (-g, ("c", "c"))]),
            _rule(("c", "b"), [(ONE, ("b", "c")), (-h, ("a", "c")), (-g, ("c", "d"))]),
            _rule(("d", "a"), [(ONE, ("a", "d")), (h, ("a", "c")), (-g, ("c", "d")),
                               (-g * h, ("c", "c"))]),
            _rule(("d", "b"), [(ONE, ("b", "d")), (g, ("a", "d")), (-g, ("b", "c")),
                               (g * h, ("a", "c")), (-g, ("d", "d"))]),
            _rule(("d", "c"), [(ONE, ("c", "d")), (h, ("c", "c"))]),
        ]
    else:
        rules = [
            _rule(("b", "a"), [(ONE, ("a", "b")), (h, ("c", "d"))]),
            _rule(("c", "a"), [(ONE / q, ("a", "c"))]),
            _rule(("c", "b"), [(ONE / q, ("b", "c"))]),
            _rule(("d", "a"), [(ONE, ("a", "d")), ((1 - q) / q, ("b", "c"))]),
            _rule(("d", "b"), [(-ONE, ("b", "d")), (h / q, ("a", "c"))]),
            _rule(("d", "c"), [(-q, ("c", "d"))]),
            _rule(("c", "c"), []),
            _rule(("d", "d"), [(ONE, ("a", "a")), (-(q + 1) / h, ("b", "b"))]),
        ]
    return RewriteSystem(did, GROUP, rules)
