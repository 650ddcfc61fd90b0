"""The three deformation families and their spectral data.

Each family is a 4x4 matrix R-hat(K) over the exact scalar field, linear in
the coupling K, together with the two eigenvalue parameters K1 and K2 at
which the braid defect degenerates.  Everything downstream (projectors,
K -> K' duality, the triangular point, the factorizing matrix M) is derived
from (K1, K2) here, never hard-coded twice.  M needs s = sqrt(2pq/(p+q)); it
is built with s as the symbol u and checked modulo s^2 - rho.

A verify pass (verify_pass, opened only by cli.run_verify) shares builds:
while one is open, each builder marked @per_pass runs once per family at
symbolic K (coupling omitted, None or sym("K")) and every later such call
returns that same object.  Any other coupling, and every call outside a
pass, builds afresh, so nothing outlives the pass that built it.  Shared
objects are never changed in place.

Basis order is e1(x)e1, e1(x)e2, e2(x)e1, e2(x)e2, first factor most
significant.  R = P.R-hat with P the factor swap perm_operator((2, 1)); the
product exchanges the rows of e1(x)e2 and e2(x)e1 (pmatrix.perm_apply).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps
from typing import NamedTuple

from .pmatrix import ParamMatrix, perm_apply
from .scalars import ONE, ZERO, DivisionByZero, RatFunc, as_ratfunc, sym


class DegenerateX(ArithmeticError):
    """Projectors requested where the two Hecke eigenvalues collide (k = 0)."""


class DeformationSpec(NamedTuple):
    id: str
    K1: RatFunc
    K2: RatFunc


_P = sym("p")
_Q = sym("q")
_G = sym("g")
_H = sym("h")

_SPECS = {
    "pq": DeformationSpec("pq", ONE, _P / _Q),
    "gh": DeformationSpec("gh", ONE, ONE),
    "qh": DeformationSpec("qh", ONE, ONE / _Q),
}

DEFORMATIONS = tuple(_SPECS)


def deformation(d) -> DeformationSpec:
    if isinstance(d, DeformationSpec):
        return d
    spec = _SPECS.get(d)
    if spec is None:
        raise ValueError(f"unknown deformation {d!r}; expected one of {DEFORMATIONS}")
    return spec


def braid_couplings(d) -> tuple:
    """The distinct braid couplings: (K1,) when K1 = K2, else (K1, K2)."""
    spec = deformation(d)
    return (spec.K1,) if spec.K1 == spec.K2 else (spec.K1, spec.K2)


_K = sym("K")
_shared = None  # {(builder, family id): result} while a verify pass is open


@contextmanager
def verify_pass():
    """Share the symbolic-K results of @per_pass builders until the block
    ends; the enclosing pass, or none, is restored on exit."""
    global _shared
    outer, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = outer


def per_pass(build):
    """build(d[, k]) run once per family at symbolic K inside a verify pass."""
    @wraps(build)
    def shared(d, *args, **kwargs):
        k = args[0] if args else kwargs.get("k")
        if _shared is None or (k is not None and k is not _K):
            return build(d, *args, **kwargs)
        key = (build, deformation(d).id)
        if key not in _shared:
            _shared[key] = build(d, *args, **kwargs)
        return _shared[key]
    return shared


def _coupling(k) -> RatFunc:
    if k is None:
        return _K
    out = as_ratfunc(k)
    if out is None:
        raise TypeError(f"coupling must be a scalar, got {type(k).__name__}")
    return out


@per_pass
def build_rhat(d, k=None) -> ParamMatrix:
    """R-hat(K) for one family; K = 0 gives the identity in every family."""
    spec = deformation(d)
    k = _coupling(k)
    if spec.id == "pq":
        rows = [
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, 1 - k, k / _P, ZERO],
            [ZERO, k * _Q, 1 - k * _Q / _P, ZERO],
            [ZERO, ZERO, ZERO, ONE],
        ]
    elif spec.id == "gh":
        rows = [
            [ONE, -_H * k, _H * k, _G * _H * k],
            [ZERO, 1 - k, k, _G * k],
            [ZERO, k, 1 - k, -_G * k],
            [ZERO, ZERO, ZERO, ONE],
        ]
    else:
        rows = [
            [ONE, ZERO, ZERO, k * _H],
            [ZERO, 1 - k, k * _Q, ZERO],
            [ZERO, k, 1 - k * _Q, ZERO],
            [ZERO, ZERO, ZERO, 1 - k * (_Q + 1)],
        ]
    return ParamMatrix.from_rows(rows)


@per_pass
def build_r(d, k=None) -> ParamMatrix:
    """R(K) = P.R-hat(K), the RTT-form matrix."""
    return perm_apply((2, 1), build_rhat(d, k))


@per_pass
def hecke_X(d, k=None) -> RatFunc:
    """The Hecke scalar X with R-hat^2 = X R-hat + (1 - X) I."""
    spec = deformation(d)
    k = _coupling(k)
    return 2 - k / spec.K1 - k / spec.K2


@per_pass
def projectors(d, k=None):
    """Spectral idempotents (P1, P2) with R-hat = (X - 1) P1 + P2."""
    spec = deformation(d)
    k = _coupling(k)
    x = hecke_X(spec, k)
    if (x - 2).is_zero():
        raise DegenerateX(f"{spec.id}: eigenvalues 1 and X - 1 collide at k = {k}")
    rhat = build_rhat(spec, k)
    ident = ParamMatrix.identity(4)
    p1 = (rhat - ident).scale(ONE / (x - 2))
    p2 = (rhat - ident.scale(x - 1)).scale(ONE / (2 - x))
    return p1, p2


def kprime(d, k=None) -> RatFunc:
    """The dual coupling K' = K/(1 - X), with flip21(R(K)) . R(K') = I;
    an involution."""
    spec = deformation(d)
    k = _coupling(k)
    denom = 1 - hecke_X(spec, k)
    if denom.is_zero():
        raise DivisionByZero(f"{spec.id}: K' undefined where K/K1 + K/K2 = 1")
    return k / denom


def triangular_K(d) -> RatFunc:
    """The coupling where R-hat(K)^2 = I (K' = K fixed point)."""
    spec = deformation(d)
    return 2 * spec.K1 * spec.K2 / (spec.K1 + spec.K2)


def build_M():
    """Upper-triangular M with inverse(flip21(M)) . M = R(K*) for the pq
    family at the triangular K*, where s^2 = rho = 2pq/(p+q).  M is built
    over RatFunc with the symbol u standing for s, so the identity holds
    modulo u^2 - rho (see scalars.vanishes_at_sqrt).  Returns (M, rho)."""
    rho = 2 * _P * _Q / (_P + _Q)
    s = sym("u")
    m = (_P - _Q) / (2 * _P * _Q) * s
    rows = [
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, s, m, ZERO],
        [ZERO, ZERO, ONE / s, ZERO],
        [ZERO, ZERO, ZERO, ONE],
    ]
    return ParamMatrix.from_rows(rows), rho
