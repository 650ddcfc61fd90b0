"""One benchmark interpreter: set up, run the timed operations, then check
every output against the oracles.

Reads a job (JSON) on standard input and prints one JSON result line.  The
library is imported from ``src/`` of the checkout that holds this file.
Setup ends, and ``ready`` is stamped with ``time.monotonic()`` (a system-wide
clock, so the parent can subtract its own spawn stamp), once the library is
imported and the inputs and rewrite systems are built.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

import mbraid  # noqa: E402
from mbraid import catalog, cli, ncalgebra, plane  # noqa: E402
from mbraid.scalars import SYMBOLS  # noqa: E402

if not Path(mbraid.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"mbraid imported from {mbraid.__file__}, not from {ROOT / 'src'}")

# the (K, p, q, g, h) point printed with the library's sign check
FIXED_POINT = {"K": Fraction(3, 7), "p": Fraction(2), "q": Fraction(3),
               "g": Fraction(5, 2), "h": Fraction(1, 3)}


def ref_loop() -> float:
    """Seconds for a fixed Fraction loop; shows how fast the host ran."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1, 10001):
        a, b = Fraction(i, i + 1), Fraction(i + 2, i + 3)
        total += (a * b + a / b).denominator
    return time.perf_counter() - t0


# -- verify -------------------------------------------------------------------

class Verify:
    def __init__(self, job):
        self.job = job
        self.expected = len(cli.registered_checks())

    def ops(self):
        def op():
            buf = io.StringIO()
            return cli.run_verify("all", stream=buf), buf.getvalue()
        return [op]

    def check(self, outputs) -> list:
        out = []
        for rc, text in filter(None, outputs):
            lines = text.splitlines()
            n = self.expected
            passed = [ln for ln in lines[:-1] if ln.startswith("PASS ")]
            if rc != 0 or len(lines) != n + 1 or len(passed) != n \
                    or lines[-1] != f"{n}/{n} checks passed":
                bad = [ln for ln in lines if not ln.startswith("PASS ")]
                out.append(f"verify: exit {rc}, {len(passed)}/{n} PASS lines; {bad[:3]}")
        r = inputs.rng(self.job["seed"], "verify", self.job["round"])
        for point in (FIXED_POINT, inputs.rational_point(r)):
            for family in inputs.SCAN_FAMILIES:
                rhat = oracle.rhat_at(catalog.build_rhat(family), SYMBOLS, point)
                out += oracle.mbe_hecke_failures(rhat, family, point)
        # the oracle must reject a corrupted Rhat entry
        rhat = oracle.rhat_at(catalog.build_rhat("pq"), SYMBOLS, FIXED_POINT)
        rhat[1][2] += 1
        if not oracle.mbe_hecke_failures(rhat, "pq", FIXED_POINT):
            out.append("oracle accepted a corrupted Rhat entry")
        return out


# -- scan ---------------------------------------------------------------------

class Scan:
    def __init__(self, job):
        self.job = job
        self.family = job["family"]
        self.bindings = {n: Fraction(v) for n, v in job["bindings"].items()}
        self.csv = str(BENCH / "out" / f"scan-{self.family}.csv")

    def ops(self):
        def op():
            return cli.run_scan(self.family, self.bindings, inputs.SCAN_KMIN,
                                inputs.SCAN_KMAX, inputs.SCAN_STEPS, self.csv)
        return [op]

    def check(self, outputs) -> list:
        (rows,) = outputs
        if rows is None:
            return []
        with open(self.csv) as fh:
            text = fh.read()
        r = inputs.rng(self.job["seed"], "scan-check", self.job["round"], self.family)
        sample = [0, inputs.SCAN_STEPS - 1] + [r.randrange(inputs.SCAN_STEPS) for _ in range(8)]
        rhat = catalog.build_rhat(self.family)
        grid = (inputs.SCAN_KMIN, inputs.SCAN_KMAX, inputs.SCAN_STEPS)
        out = oracle.scan_failures(text, rows, rhat, SYMBOLS, self.family,
                                   self.bindings, grid, sample)
        # the oracle must reject one changed digit in a checked row
        lines = text.splitlines()
        lines[sample[-1] + 1] = oracle.corrupt_line(lines[sample[-1] + 1])
        if not oracle.scan_failures("\n".join(lines), rows, rhat, SYMBOLS, self.family,
                                    self.bindings, grid, sample[-1:]):
            out.append(f"{self.family}: oracle accepted a corrupted scan row")
        return out


# -- rewrite ------------------------------------------------------------------

def build_systems() -> dict:
    systems = {}
    for name, kind, d, coupling, _, _ in inputs.REWRITE_SYSTEMS:
        if kind == "group":
            systems[name] = ncalgebra.build_group_system(d)
        elif kind == "pure":
            systems[name] = plane.build_pure_system(d)
        else:
            k = None if coupling == "K" else getattr(catalog.deformation(d), coupling)
            systems[name] = plane.build_plane_system(d, k).rules
    return systems


class Rewrite:
    def __init__(self, job):
        self.job = job
        self.systems = build_systems()
        self.batch = inputs.rewrite_batch(job["seed"], job["round"])
        self.texts = [inputs.render(terms) for _, terms in self.batch]

    def ops(self):
        def op(name, text):
            return lambda: ncalgebra.normal_order(cli.parse_expression(text), self.systems[name])
        return [op(name, text) for (name, _), text in zip(self.batch, self.texts)]

    def _point(self, outputs):
        """A seeded point where no rule or output coefficient has a pole."""
        r = inputs.rng(self.job["seed"], "rewrite-check", self.job["round"])
        coeffs = [c for nf in outputs if nf is not None for c in nf.coeffs.values()]
        for _ in range(100):
            point = inputs.rational_point(r)
            try:
                rules = {name: oracle.numeric_rules(s, SYMBOLS, point)
                         for name, s in self.systems.items()}
                for c in coeffs:
                    oracle.value(c, SYMBOLS, point)
            except ZeroDivisionError:
                continue
            return point, {name: oracle.LeftmostReducer(rs) for name, rs in rules.items()}
        raise ArithmeticError("no pole-free rational point found")

    def check(self, outputs) -> list:
        point, reducers = self._point(outputs)
        out = []
        for (name, terms), nf in zip(self.batch, outputs):
            if nf is not None:
                out += oracle.rewrite_failures(nf, terms, self.systems[name], reducers[name],
                                               SYMBOLS, point, cli.parse_expression)
        out += self._corruptions(outputs, point, reducers)
        return out

    def _corruptions(self, outputs, point, reducers) -> list:
        """The oracle must reject a changed coefficient in a normal form and a
        normal form computed with one rule dropped."""
        out = []
        for (name, terms), text, nf in zip(self.batch, self.texts, outputs):
            system = self.systems[name]
            first = next((w for _, _, w in terms if system.find_redex(w)), None)
            if nf is None or not nf.coeffs or first is None:
                continue
            word, c = next(iter(nf.coeffs.items()))
            bad = ncalgebra.NCPoly({**nf.coeffs, word: c + 1})
            if not oracle.rewrite_failures(bad, terms, system, reducers[name],
                                           SYMBOLS, point, cli.parse_expression):
                out.append(f"{name}: oracle accepted a corrupted normal form")
            _, rule = system.find_redex(first)
            dropped = ncalgebra.RewriteSystem(
                system.name, system.alphabet,
                [r for lhs, r in system.by_lhs.items() if lhs != rule.lhs], system.step_cap)
            nf_dropped = ncalgebra.normal_order(cli.parse_expression(text), dropped)
            if not oracle.rewrite_failures(nf_dropped, terms, system, reducers[name],
                                           SYMBOLS, point, cli.parse_expression):
                out.append(f"{name}: oracle accepted a system with {rule.lhs} dropped")
            return out
        return ["rewrite: no operation to corrupt"]


WORKLOADS = {"verify": Verify, "scan": Scan, "rewrite": Rewrite}


def main() -> None:
    job = json.loads(sys.stdin.read())
    work = WORKLOADS[job["workload"]](job)
    ops = work.ops()
    ready = time.monotonic()
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
        ops = [tracer.span("op", op) for op in ops]
    latencies, outputs, errors = [], [], []
    ref_before = ref_loop()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
            outputs.append(None)
            continue
        latencies.append(time.perf_counter() - t0)
        outputs.append(result)
    if tracer:
        tracer.uninstall()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_after = ref_loop()
    try:
        failures = work.check(outputs)
    except Exception as exc:  # an oracle that cannot finish rejects the run
        failures = [f"oracle raised {type(exc).__name__}: {exc}"]
    result = {"ready": ready, "latencies": latencies, "errors": errors,
              "failed": len(errors), "oracle_failures": failures,
              "rss_kib": rss_kib, "ref_loop_s": [ref_before, ref_after]}
    if tracer:
        result["trace"] = tracer.summary()
        if job.get("trace_path"):
            tracer.write(job["trace_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
