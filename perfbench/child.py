"""Child processes the benchmark starts in a fresh interpreter.

``python3 perfbench/child.py setup DATASET``
    Import the library, load the dataset and construct the search (encode,
    lgamma table, memory-fit check), then print ``ready``.  The parent times
    process start to that line as ``setup_s``.

``python3 perfbench/child.py shard DATASET OUT_DIR``
    One ``run_sharded`` call with whatever BLAS thread count the parent's
    environment leaves to the library; prints ``{"wall_s", "top_k_sha256"}``
    as JSON.  The spawned workers re-import this file, hence the guard.

A ``spawn``-context worker makes multiprocessing start a resource-tracker
process that would otherwise outlive its parent; :func:`stop_resource_tracker`
stops it and waits for it before either process exits.
"""

from __future__ import annotations

import json
import sys
import time


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, if it started
    one, and wait until it has exited."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str]) -> int:
    from repro.datasets import load_dataset

    from perfbench.workloads import N_SHARDS, SHARD_SLOTS, search_config

    mode, dataset_path = argv[0], argv[1]
    dataset = load_dataset(dataset_path)
    if mode == "setup":
        from repro.core.search import Epi4TensorSearch

        Epi4TensorSearch(dataset, search_config())
        print("ready", flush=True)
        return 0
    if mode == "shard":
        from repro.dist import run_sharded

        t0 = time.perf_counter()
        merged = run_sharded(
            dataset, search_config(), n_shards=N_SHARDS, out_dir=argv[2],
            max_procs=SHARD_SLOTS,
        )
        wall = time.perf_counter() - t0
        print(json.dumps({"wall_s": wall, "top_k_sha256": merged.top_k_sha256}), flush=True)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        stop_resource_tracker()
    sys.exit(code)
