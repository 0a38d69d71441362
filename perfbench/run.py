"""Wall-clock benchmark of ``Epi4TensorSearch.run()`` and ``run_sharded()``.

Usage, from the repository root::

    python3 perfbench/run.py --workload score_n2048 --seed 7 --seconds 28 --trace 0

``--trace 0`` times untraced searches for ``--seconds`` seconds and prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced searches
and prints the per-layer metrics.  Every search is checked for correctness.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a provenance entry
is also written to ``.perfbench-out/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy is imported so the
# spawned shard workers inherit it (see README.md: the library's default
# oversubscribes the cores once several workers run).
BLAS_THREADS = 1
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]

# The library itself is imported lazily, so a checkout without src/ gets a
# clear error from main() instead of an import traceback.
from perfbench.child import stop_resource_tracker  # noqa: E402
from perfbench.checks import (  # noqa: E402
    digest_problems,
    expected_digest,
    rescore_problems,
)
from perfbench.layers import (  # noqa: E402
    PAPER_SHARES,
    PER_LAYER_UNITS,
    dist_layers,
    dist_probe,
    search_layers,
    search_probe,
    self_times,
)
from perfbench.workloads import (  # noqa: E402
    N_SHARDS,
    SHARD_SLOTS,
    WORKLOADS,
    make_dataset,
    scaled_quads,
    search_config,
)

#: End-to-end metrics and their units (names match BENCHMARK.json).
END_TO_END_UNITS = {
    "wall_s": "s",
    "quads_scaled_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "scaling_efficiency": "ratio",
}
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5


class Run:
    """Search calls of one benchmark run: timings and failures."""

    def __init__(self, workload, seed: int, work_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.config = search_config()
        self.dataset = make_dataset(workload, seed)
        self.attempted = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self._shard_runs = 0

    @property
    def failed(self) -> int:
        return len(self.problems)

    def _check(self, what: str, solutions, digest: str, reference: str | None = None) -> bool:
        problems = rescore_problems(self.dataset, solutions, self.config.top_k)
        problems += digest_problems(
            digest, expected_digest(self.workload.name, self.seed), what
        )
        if reference is not None:
            problems += digest_problems(digest, reference, f"{what} vs unsharded")
        if problems:
            self.problems.append(f"{what}: " + "; ".join(problems))
            return False
        self.digest = digest
        return True

    def _attempt(self, what: str, call):
        """Run one search call; a raised exception counts as a failure."""
        self.attempted += 1
        try:
            return call()
        except Exception:  # noqa: BLE001 - any error is one failed search
            self.problems.append(f"{what} raised:\n{traceback.format_exc()}")
            return None

    def unsharded(self, tracer=None):
        """Time ``run()``; returns ``(wall, result, probe)`` or ``None``."""
        from repro.core.search import Epi4TensorSearch
        from repro.obs.manifest import solutions_digest

        def call():
            search = Epi4TensorSearch(self.dataset, self.config, tracer=tracer)
            probe = search_probe(tracer, search) if tracer is not None else None
            t0 = time.perf_counter()
            with probe or contextlib.nullcontext():
                result = search.run()
            return time.perf_counter() - t0, result, probe

        out = self._attempt("run()", call)
        if out is None:
            return None
        top = out[1].top_solutions
        return out if self._check("run()", top, solutions_digest(top)) else None

    def sharded(self, reference: str | None, tracer=None):
        """Time ``run_sharded()``; returns ``(wall, merged, probe)`` or ``None``."""
        from repro.dist import run_sharded

        out_dir = os.path.join(self.work_dir, f"shards-{self._shard_runs}")
        self._shard_runs += 1

        def call():
            probe = dist_probe(tracer) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                with probe or contextlib.nullcontext():
                    merged = run_sharded(
                        self.dataset, self.config, n_shards=N_SHARDS,
                        out_dir=out_dir, max_procs=SHARD_SLOTS,
                        trace=tracer is not None,
                    )
                return time.perf_counter() - t0, merged, probe
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)

        out = self._attempt("run_sharded()", call)
        if out is None:
            return None
        merged = out[1]
        ok = self._check("run_sharded()", merged.solutions, merged.top_k_sha256, reference)
        return out if ok else None

    def child(self, *args: str, pinned: bool = True) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
        if not pinned:
            for var in PIN_VARS:
                env.pop(var, None)
        return subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def dataset_file(self) -> str:
        from repro.datasets import save_dataset

        path = os.path.join(self.work_dir, "dataset.npz")
        if not os.path.exists(path):
            save_dataset(path, self.dataset)
        return path

    def setup_seconds(self) -> float:
        """Process start to a constructed search, in a fresh interpreter."""
        path = self.dataset_file()
        t0 = time.perf_counter()
        with self.child("setup", path) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup child failed (exit {proc.returncode})")
        return elapsed

    def unpinned_shard(self) -> tuple[float, str | None]:
        """One ``run_sharded`` with the library's default BLAS threads;
        returns its wall and merged ``top_k_sha256``."""
        out_dir = os.path.join(self.work_dir, "shards-unpinned")

        def call():
            try:
                with self.child("shard", self.dataset_file(), out_dir, pinned=False) as proc:
                    out, _ = proc.communicate()
                if proc.returncode != 0:
                    raise RuntimeError(f"unpinned shard child exited {proc.returncode}")
                return json.loads(out.strip().splitlines()[-1])
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)

        out = self._attempt("unpinned run_sharded()", call)
        if out is None:
            return 0.0, None
        return out["wall_s"], out["top_k_sha256"]


def peak_rss_mb() -> float:
    """Max resident set over this process and every child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def measure(run: Run, seconds: float) -> tuple[dict[str, float], dict]:
    """End-to-end metrics, tracing off."""
    setups = [run.setup_seconds() for _ in range(SETUP_REPEATS)]
    walls: list[float] = []
    baselines: list[float] = []
    efficiencies: list[float] = []
    phases: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        if not walls and run.failed >= 3:
            break
        base = run.unsharded()
        if base is not None:
            phases.append(base[1].phase_seconds)
        if run.workload.sharded:
            out = run.sharded(run.digest)
            if out is not None:
                walls.append(out[0])
            if base is not None and out is not None:
                # Paired back to back, so slow spells on a shared host
                # affect both sides of the ratio.
                baselines.append(base[0])
                efficiencies.append(base[0] / (out[0] * SHARD_SLOTS))
        elif base is not None:
            walls.append(base[0])
    if not walls:
        raise RuntimeError("no search succeeded")
    wall = statistics.median(walls)
    efficiency = statistics.median(efficiencies) if run.workload.sharded else 1.0
    metrics = {
        "wall_s": wall,
        "quads_scaled_per_s": scaled_quads(run.workload) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "scaling_efficiency": efficiency,
    }
    detail = {
        "wall_samples": walls,
        "unsharded_wall_samples": baselines,
        "setup_samples": setups,
        "wall_high_percentile": high_percentile(walls),
        "phase_seconds_samples": phases,
    }
    return metrics, detail


def trace(run: Run, seconds: float) -> tuple[dict[str, float], dict, list]:
    """Per-layer metrics: alternate untraced and traced searches."""
    from repro.obs.trace import Tracer

    untraced: list[float] = []
    traced: list[float] = []
    samples: list[dict[str, float]] = []
    tracers: list[Tracer] = []
    deadline = time.perf_counter() + seconds
    # The extra passes come first and count against --seconds; the loop
    # below still makes at least one traced iteration.  Their digests are
    # compared with the unsharded run's once the loop has produced it.
    extra: dict[str, float] = {}
    late: dict[str, str | None] = {}
    if not run.workload.sharded:
        # The coordinator does not run in-process: one traced run_sharded
        # pass over the same dataset measures its layers for this shape.
        out = run.sharded(None, Tracer())
        if out is not None:
            extra.update(dist_layers(out[1], out[2], SHARD_SLOTS))
            late["run_sharded()"] = out[1].top_k_sha256
    extra["dist.unpinned_wall_s"], late["unpinned run_sharded()"] = run.unpinned_shard()
    while not samples or time.perf_counter() < deadline:
        if not samples and run.failed >= 3:
            break
        tracer = Tracer()
        if run.workload.sharded:
            # Search layers from the unsharded run, dist layers and the
            # tracing overhead from the sharded calls.
            base = run.unsharded(tracer)
            pair = (run.sharded(run.digest, tracer), run.sharded(run.digest))
        else:
            # Alternate which goes first so neither side always runs warm.
            if len(samples) % 2:
                plain = run.unsharded()
                base = run.unsharded(tracer)
            else:
                base = run.unsharded(tracer)
                plain = run.unsharded()
            pair = (base, plain)
        if base is None or None in pair:
            continue
        layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        layers.update(search_layers(base[1], base[2]))
        if run.workload.sharded:
            layers.update(dist_layers(pair[0][1], pair[0][2], SHARD_SLOTS))
        traced.append(pair[0][0])
        untraced.append(pair[1][0])
        samples.append(layers)
        tracers.append(tracer)
    if not samples:
        raise RuntimeError("no traced search succeeded")
    for what, digest in late.items():
        if digest is not None:
            run.problems += digest_problems(digest, run.digest, f"{what} vs unsharded")
    metrics = {
        name: statistics.median(s[name] for s in samples) for name in PER_LAYER_UNITS
    }
    metrics.update(extra)
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    per_call: dict[str, float] = {}
    for tracer in tracers:
        for name, value in self_times(tracer.records()).items():
            per_call[name] = per_call.get(name, 0.0) + value / len(tracers)
    detail = {
        "traced_wall_samples": traced,
        "untraced_wall_samples": untraced,
        "self_seconds": per_call,
        "layer_seconds": {k: v for k, v in metrics.items() if PER_LAYER_UNITS[k] == "s"},
    }
    return metrics, detail, tracers


def high_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    p = int(100 * (1 - 10 / n))
    return {"p": p, "value": statistics.quantiles(samples, n=100)[p - 1]}


def blas_info() -> dict:
    """BLAS library name/version from numpy's build config and its thread
    count as the library reports it (``None`` when it cannot be queried)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": threads,
        "pinned_threads": BLAS_THREADS,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(run: Run) -> dict:
    import numpy as np

    return {
        "host_cores": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "workload": dataclasses.asdict(run.workload),
        "seed": run.seed,
        "config": dataclasses.asdict(run.config),
        "top_k_sha256": run.digest,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(ROOT, ".perfbench-work", f"{label}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(work_dir)
    os.makedirs(out_dir, exist_ok=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, work_dir)
        tracers = []
        if args.trace:
            metrics, detail, tracers = trace(run, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, detail = measure(run, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by a concurrent run
            os.rmdir(os.path.dirname(work_dir))

    entry = {
        "provenance": provenance(run),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.problems,
        **detail,
    }
    with open(os.path.join(out_dir, label + ".json"), "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=1, sort_keys=True)
    if tracers:
        with open(os.path.join(out_dir, label + ".trace.jsonl"), "w", encoding="utf-8") as fh:
            for i, tracer in enumerate(tracers):
                for record in tracer.records():
                    fh.write(json.dumps({"call": i, **record.to_dict()}, default=str) + "\n")

    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"perfbench {label}")
    print(f"  provenance {json.dumps(entry['provenance'], sort_keys=True)}")
    for name, value in metrics.items():
        note = ""
        if name in PAPER_SHARES:
            note = f"  (paper §4.5: {PAPER_SHARES[name]:.4f})"
        print(f"  {name:<26} {value:>16.6g} {units[name]}{note}")
    if "wall_samples" in detail:
        print(f"  wall_s samples             {len(detail['wall_samples'])}")
    if "self_seconds" in detail:
        print("  self seconds per traced call:")
        for name, value in detail["self_seconds"].items():
            print(f"    {name:<24} {value:>12.6f} s")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  failed_ratio               {ratio:>16.6g} ({run.failed}/{run.attempted})")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
