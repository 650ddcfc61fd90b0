#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py [--seed N]

Runs the traced run of every workload twice and requires both runs to be
correct and to give identical counts (``.calls``, ``.terms_out``,
``redex_probes``, ``rewrite_steps``).  Every run also makes each oracle
reject a corrupted answer (a changed Rhat entry, a changed digit in a scan
row, a changed normal-form coefficient and a rewrite system with one rule
dropped) and counts an acceptance as a problem, so a correct run shows that
the oracles are live.  Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import COUNTS  # noqa: E402


def traced_counts(workload: str, seed: int) -> tuple:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=BENCH.parent, timeout=600)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in report["metrics"].items() if k.endswith(COUNTS)}
    return report["correct"], counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args(argv).seed
    ok = True
    for workload in ("verify", "scan", "rewrite"):
        (ok1, first), (ok2, second) = (traced_counts(workload, seed) for _ in range(2))
        differ = sorted(k for k in first if first[k] != second.get(k))
        nonzero = sum(1 for v in first.values() if v)
        print(f"{workload}: correct {ok1}/{ok2}, {nonzero} nonzero counts, "
              f"{len(differ)} differ{': ' + ', '.join(differ) if differ else ''}")
        ok = ok and ok1 and ok2 and not differ
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
