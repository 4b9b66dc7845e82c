"""One round of each benchmark workload, then its checks, on seed 1.

perfbench/worker.py and perfbench/gen.py are loaded from the repository by
path, as the benchmark runs them. A change that would make a benchmark
round fail, or its outputs fail the checks, fails here first.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    path = sys.path[:]
    try:  # worker.py puts perfbench/ on sys.path to import refs
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


@pytest.fixture(scope="module")
def perfbench():
    return load("gen"), load("worker")


@pytest.mark.parametrize("workload", ["train", "align", "score"])
def test_round_passes_checks(perfbench, tmp_path, workload):
    gen, worker = perfbench
    inputs, scratch = tmp_path / "inputs", tmp_path / "scratch"
    inputs.mkdir()
    scratch.mkdir()
    gen.GENERATORS[workload](inputs, 1)
    work = worker.WORKLOADS[workload](inputs, scratch)
    work.run_round()
    worker.refs.self_check()
    work.check()
