"""One round of each benchmark workload, checked by the benchmark's own
oracles (bench/worker.py).  A benchmark run whose outputs an oracle rejects
counts as incorrect, so a change that breaks one fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1401


@pytest.fixture(scope="module")
def worker():
    # the worker puts src/ and bench/ on sys.path to import its helpers
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _run_and_check(work):
    return work.check([op() for op in work.ops()])


def test_verify_round_passes_the_oracle(worker):
    job = {"workload": "verify", "seed": SEED, "round": 0}
    assert _run_and_check(worker.Verify(job)) == []


@pytest.mark.parametrize("family", ["pq", "gh", "qh"])
def test_scan_round_passes_the_oracle(worker, family, tmp_path):
    job = {"workload": "scan", "seed": SEED, "round": 0,
           **worker.inputs.scan_job(SEED, 0, family)}
    work = worker.Scan(job)
    work.csv = str(tmp_path / f"scan-{family}.csv")
    assert _run_and_check(work) == []


def test_rewrite_round_passes_the_oracle(worker):
    job = {"workload": "rewrite", "seed": SEED, "round": 0}
    assert _run_and_check(worker.Rewrite(job)) == []
