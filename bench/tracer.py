"""Span tracer for the traced run, installed from outside the library.

Spans are recorded around the library's public functions and class methods
by replacing them with wrappers: a module-level function is replaced in every
``mbraid`` module that imported it by name, and a method on its class.  A
span stores its name, start, end (``perf_counter_ns``) and the index of the
span that was open when it started.  Spans stay in memory, in flat arrays,
until ``write``.  Self time is a span's duration minus the durations of its
direct children; ``.s`` sums only the outermost span of each name, so a
function that calls another of the same group is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# span name -> [(module, function name)], wrapped wherever the module's
# function object was imported
FUNCTIONS = {
    "scalars.substitute": [("scalars", "substitute")],
    "pmatrix.elim": [("pmatrix", "rank"), ("pmatrix", "nullspace"), ("pmatrix", "inverse")],
    "ncalgebra.normal_order": [("ncalgebra", "normal_order")],
    "ncalgebra.diamond_check": [("ncalgebra", "diamond_check")],
    "cli.parse_expression": [("cli", "parse_expression")],
    "cli.run_scan": [("cli", "run_scan")],
    "cli.run_verify": [("cli", "run_verify")],
    "catalog.build": [("catalog", n) for n in ("build_rhat", "build_r", "hecke_X", "projectors",
                                               "kprime", "triangular_K", "build_M")],
    "rtt.rtt_residual": [("rtt", "rtt_residual")],
    "rtt.assemble": [("rtt", "assemble")],
    "rtt.solve_family": [("rtt", "solve_family")],
    "identities.braid_residual": [("identities", "braid_residual")],
    "identities.mbe_residual": [("identities", "mbe_residual")],
    "identities.s_shift_check": [("identities", "s_shift_check")],
    "plane.build": [("plane", "build_plane_system"), ("plane", "build_pure_system")],
    "plane.checks": [("plane", n) for n in ("pure_sector_consistency", "projector_consistency",
                                            "phi_nilpotent", "phi_commutators")],
    "contraction": [("contraction", n) for n in ("frame", "conjugated_matrix", "contract_matrix",
                                                 "group_tilde_system", "plane_tilde_system",
                                                 "contract_group_relations", "contract_plane")],
}

# span name -> (module, class, method)
METHODS = {
    "scalars.poly_mul": ("scalars", "Poly", "__mul__"),
    "scalars.ratfunc_new": ("scalars", "RatFunc", "__init__"),
    "scalars.eval": ("scalars", "RatFunc", "eval"),
    "pmatrix.matmul": ("pmatrix", "ParamMatrix", "__matmul__"),
}

# span name -> counter adding the size of each result
RESULT_SIZES = {
    "scalars.poly_mul": ("scalars.poly_mul.terms_out", lambda r: len(r.terms)),
    "ncalgebra.normal_order": ("ncalgebra.terms_out", lambda r: len(r.coeffs)),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.stack: list = []
        self.open: list = []
        self.counters: dict = {}
        self._patches: list = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.open.append(0)
        return nid

    def span(self, name: str, fn, size=None):
        """fn wrapped so that each call records one span; size(result), if
        given, is added to a counter."""
        nid = self._id(name)
        name_id, parent, outer = self.name_id, self.parent, self.outer
        start, end, stack, open_ = self.start, self.end, self.stack, self.open
        clock = time.perf_counter_ns
        counter, measure = size or (None, None)
        if counter is not None:
            self.counters.setdefault(counter, 0)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(open_[nid] == 0)
            end.append(0)
            open_[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                open_[nid] -= 1
            if counter is not None:
                counters[counter] += measure(result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the library entry points listed above."""
        mods = {name[len("mbraid."):]: mod for name, mod in sys.modules.items()
                if name.startswith("mbraid.")}
        everywhere = list(mods.values()) + [sys.modules["mbraid"]]
        for span_name, targets in FUNCTIONS.items():
            for mod_name, fn_name in targets:
                fn = getattr(mods[mod_name], fn_name)
                traced = self.span(span_name, fn, RESULT_SIZES.get(span_name))
                for mod in everywhere:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, attr, traced)
        for span_name, (mod_name, cls_name, meth) in METHODS.items():
            cls = getattr(mods[mod_name], cls_name)
            self._patch(cls, meth, self.span(span_name, getattr(cls, meth),
                                             RESULT_SIZES.get(span_name)))
        self._count_redexes(mods["ncalgebra"].RewriteSystem)
        self._span_checks(mods["cli"])

    def _count_redexes(self, cls) -> None:
        find = cls.find_redex
        counters = self.counters
        counters["ncalgebra.redex_probes"] = counters["ncalgebra.rewrite_steps"] = 0

        @functools.wraps(find)
        def counted(system, word):
            counters["ncalgebra.redex_probes"] += 1
            hit = find(system, word)
            if hit is not None:
                counters["ncalgebra.rewrite_steps"] += 1
            return hit

        self._patch(cls, "find_redex", counted)

    def _span_checks(self, cli) -> None:
        registered = cli.registered_checks

        @functools.wraps(registered)
        def spanned():
            return [(scope, name, d,
                     self.span(f"check.{scope}.{name}.{d or 'none'}", fn))
                    for scope, name, d, fn in registered()]

        self._patch(cli, "registered_checks", spanned)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def summary(self) -> dict:
        """<span>.calls, <span>.self_s and <span>.s for every span name, plus
        the counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        k = len(self.names)
        calls, self_ns, outer_ns = [0] * k, [0] * k, [0] * k
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_ns[nid] += dur[i] - covered[i]
            if self.outer[i]:
                outer_ns[nid] += dur[i]
        out = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_ns[nid] / 1e9
            out[f"{name}.s"] = outer_ns[nid] / 1e9
        return out

    def write(self, path: str) -> None:
        """All spans as tab-separated rows: index, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name_id[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\n")
