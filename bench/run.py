#!/usr/bin/env python3
"""Benchmark for mbraid: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify|scan|rewrite --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
Each operation runs in a child interpreter (``worker.py``) started with a
fixed ``PYTHONHASHSEED``, one at a time, so the load is one closed-loop
client.  Whole rounds of operations are started until ``--seconds`` have
passed.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs round 0 alternately untraced and traced (at least twice
each) and prints the per-layer metrics.  Every output is checked by the
oracles in ``oracle.py``.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Details go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

WORKER_TIMEOUT_S = 40
# On a shared 2-core host the speed of plain Python arithmetic swings by up to
# 1.8x within seconds (the reference loop in worker.py took 62-115 ms), which
# moved the median of raw verify times by a third between runs.  End-to-end
# times are therefore reported for a host on which that loop takes REF_S.
REF_S = 0.070
COUNTS = (".calls", ".terms_out", "redex_probes", "rewrite_steps")


def round_jobs(workload: str, seed: int, round_: int) -> list:
    """The jobs of one round; each job is one child interpreter."""
    job = {"workload": workload, "seed": seed, "round": round_}
    if workload == "scan":
        return [{**job, **inputs.scan_job(seed, round_, f)} for f in inputs.SCAN_FAMILIES]
    return [job]


def job_ops(job: dict) -> int:
    return inputs.REWRITE_BATCH if job["workload"] == "rewrite" else 1


def spawn(job: dict, trace: bool = False, trace_path=None) -> dict:
    """Run one worker to its end and return its result, with setup_s added."""
    job = {**job, "trace": trace, "trace_path": trace_path}
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, env=env, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        reason = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        result, reason = None, f"timed out after {WORKER_TIMEOUT_S} s"
    if result is None:
        return {"crashed": reason, "failed": job_ops(job), "latencies": [], "errors": [reason],
                "oracle_failures": []}
    result["setup_s"] = result["ready"] - started
    result["job"] = {k: v for k, v in job.items() if k in ("round", "family", "bindings")}
    return result


def measure(workload: str, seed: int, seconds: float) -> list:
    deadline = time.monotonic() + seconds
    results, round_ = [], 0
    while True:
        results += [spawn(job) for job in round_jobs(workload, seed, round_)]
        round_ += 1
        if time.monotonic() >= deadline:
            return results


def end_to_end(results: list, scaled: bool = True) -> dict:
    """The end-to-end metrics.  With ``scaled``, each worker's times are
    multiplied by REF_S over the mean of its reference-loop timings (one just
    before and one just after its operations), which takes out the host's
    speed swings; peak memory is not scaled."""
    ok = [r for r in results if "crashed" not in r]
    factor = [host_factor(r) if scaled else 1.0 for r in ok]
    lat = [t * f for r, f in zip(ok, factor) for t in r["latencies"]]
    return {
        "setup_s": statistics.median(r["setup_s"] * f for r, f in zip(ok, factor)),
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "peak_rss_mib": max(r["rss_kib"] for r in ok) / 1024,
    }


def host_factor(result: dict) -> float:
    return REF_S / statistics.fmean(result["ref_loop_s"])


def _scaled_total(results: list) -> float:
    return sum(sum(r["latencies"]) * host_factor(r) for r in results)


def _merge(summaries: list) -> dict:
    out: dict = {}
    for s in summaries:
        for k, v in s.items():
            out[k] = out.get(k, 0) + v
    return out


def traced(workload: str, seed: int, seconds: float) -> tuple:
    """Round 0 untraced and traced, alternately, until the run length has
    passed and at least twice.  Returns (results, per-layer values, problems)."""
    deadline = time.monotonic() + seconds
    jobs = round_jobs(workload, seed, 0)
    pairs = []
    while len(pairs) < 2 or time.monotonic() < deadline:
        plain = [spawn(job) for job in jobs]
        first = not pairs
        spanned = [spawn(job, True, str(OUT / f"trace-{workload}-{i}.tsv") if first else None)
                   for i, job in enumerate(jobs)]
        pairs.append((plain, spanned))
    results = [r for plain, spanned in pairs for r in plain + spanned]
    if any("crashed" in r or r["failed"] for r in results):
        return results, {}, ["a traced round had failed operations"]
    merged = [_merge(r["trace"] for r in spanned) for _, spanned in pairs]
    problems = []
    for key in merged[0]:
        if key.endswith(COUNTS) and len({m.get(key) for m in merged}) != 1:
            problems.append(f"{key} differs between traced rounds: "
                            f"{[m.get(key) for m in merged]}")
    values = {k: v if k.endswith(COUNTS) else statistics.median(m.get(k, 0) for m in merged)
              for k, v in merged[0].items()}
    plain_s = statistics.median(_scaled_total(p) for p, _ in pairs)
    spanned_s = statistics.median(_scaled_total(s) for _, s in pairs)
    values["trace.overhead_s"] = spanned_s - plain_s
    values["host.ref_loop_s"] = statistics.median(
        x for plain, _ in pairs for r in plain for x in r["ref_loop_s"])
    return results, values, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "scan", "rewrite"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mbraid" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: {ROOT} needs src/mbraid/ and BENCHMARK.json\n")
        return 2
    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)

    if args.trace:
        results, values, problems = traced(args.workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        results = measure(args.workload, args.seed, args.seconds)
        values = end_to_end(results) if any(r.get("latencies") for r in results) else {}
        problems = []
        wanted = spec["end_to_end"]
    problems += [f for r in results for f in r["oracle_failures"]]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    report = {
        "correct": not problems and bool(values),
        "attempted": sum(len(r["latencies"]) + r["failed"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    detail = {"args": vars(args), "problems": problems,
              "unscaled": {} if args.trace or not values else end_to_end(results, False),
              "errors": sorted({e for r in results for e in r["errors"]}),
              "workers": [{k: v for k, v in r.items() if k != "trace"} for r in results],
              **report}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    for line in problems[:20]:
        print(f"problem: {line}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
