"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench.checks import rescore_problems  # noqa: E402
from perfbench.layers import PER_LAYER_UNITS  # noqa: E402
from perfbench.run import END_TO_END_UNITS  # noqa: E402
from perfbench.workloads import WORKLOADS, make_dataset  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_dataset_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    a, b = make_dataset(workload, 3), make_dataset(workload, 3)
    other = make_dataset(workload, 4)
    assert np.array_equal(a.genotypes, b.genotypes)
    assert np.array_equal(a.phenotypes, b.phenotypes)
    assert not np.array_equal(a.genotypes, other.genotypes)
    assert a.genotypes.shape == (workload.n_snps, workload.n_samples)
    assert int(a.phenotypes.sum()) == workload.n_samples // 2


def test_mutated_top_k_fails_rescoring():
    from repro.core.search import Epi4TensorSearch, SearchConfig
    from repro.core.solution import Solution
    from repro.datasets import generate_random_dataset

    dataset = generate_random_dataset(12, 200, seed=1)
    top = Epi4TensorSearch(dataset, SearchConfig(block_size=4, top_k=10)).run().top_solutions
    assert rescore_problems(dataset, top, 10) == []

    swapped = [top[1], top[0], *top[2:]]
    nudged = [Solution(score=np.nextafter(top[0].score, np.inf), packed=top[0].packed), *top[1:]]
    wrong_quad = [Solution(score=top[0].score, packed=top[-1].packed), *top[1:]]
    for mutated in (swapped, nudged, wrong_quad, top[:-1]):
        assert rescore_problems(dataset, mutated, 10)


def test_declared_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = _benchmark_json()
    section = spec["per_layer" if trace else "end_to_end"]
    result = _result(
        _run("--workload", "gemm_n32768", "--seed", "7", "--seconds", "1",
             "--trace", str(trace))
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }


def _session_pids(sid: int) -> list[int]:
    """Processes (zombies included) still in session ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_sharded_workload_runs_under_spawn(trace):
    # In a session of its own, so anything it leaves running is found.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "shard4x2_n1024",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    assert _session_pids(proc.pid) == []
    assert proc.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    if not trace:
        # One unsharded run() and one run_sharded() per measured iteration.
        assert result["attempted"] >= 2 and result["attempted"] % 2 == 0
        assert 0 < result["metrics"]["scaling_efficiency"]["value"] < 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("--workload", "gemm_n32768", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
