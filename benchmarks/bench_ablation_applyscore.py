"""Ablation: the levers of the fused ``applyScore`` hot path.

Three configurations of the same workload:

- ``fused``          — mask-first compaction + staged-lgamma scorer, no
  operand cache (every round completes its own third-order tables);
- ``fused+triplets`` — adds the cross-round completed-triplet cache
  (unbounded budget), so each block triple is completed once per sweep;
- ``fused+autotune`` — adds the calibration pass that picks
  ``max_chunk_cells`` on the actual dataset.

Reported per cell: total wall, the ``score``-phase wall, the compaction
ratio, the full3 cache hit rate and the executed score-cell volume.  Hard
bars:

- every cell's ranked top-k digest (``top_k_sha256``) is identical —
  the optimization must not move a single result bit;
- every cell executes exactly the compacted (= unique) score-cell volume;
- the compaction ratio equals the block scheme's unique fraction;
- with the triplet cache on, ``complete_threeway`` executions collapse
  from O(role slots per round) to O(unique block triples).

Results append to ``BENCH_applyscore.json`` next to this file.
Set ``EPI4TENSOR_BENCH_SMALL=1`` for a CI-sized workload.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.obs.manifest import solutions_digest
from repro.datasets import generate_random_dataset
from repro.perfmodel.workload import search_workload, unique_block_triples

from conftest import print_table

_SMALL = os.environ.get("EPI4TENSOR_BENCH_SMALL") == "1"
N_SNPS = 32 if _SMALL else 48
N_SAMPLES = 128 if _SMALL else 256
BLOCK = 8
RESULTS_PATH = Path(__file__).with_name("BENCH_applyscore.json")

CELLS = [
    ("fused", dict(cache_triplets=False)),
    ("fused+triplets", dict(cache_mb=float("inf"))),
    ("fused+autotune", dict(cache_mb=float("inf"), autotune=True)),
]


def _run(ds, extra):
    # prune=False: this ablation's closed-form cell/compaction asserts
    # require the full compacted volume to execute (the bound gate has
    # its own ablation, bench_ablation_pruning.py).
    config = SearchConfig(block_size=BLOCK, top_k=5, prune=False, **extra)
    search = Epi4TensorSearch(ds, config)
    start = time.perf_counter()
    result = search.run()
    wall = time.perf_counter() - start
    return search, result, wall


def test_applyscore_ablation(benchmark):
    ds = generate_random_dataset(N_SNPS, N_SAMPLES, seed=42)

    def sweep():
        return [(label, *_run(ds, extra)) for label, extra in CELLS]

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)

    digests = {label: solutions_digest(r.top_solutions) for label, _, r, _ in runs}
    rows, records = [], []
    for label, search, result, wall in runs:
        m = search.metrics
        score_wall = result.phase_seconds["score"]
        positions = m.total("epi4_applyscore_positions_total")
        valid = m.total("epi4_applyscore_valid_total")
        compaction = valid / positions if positions else None
        full3_exec = m.total("epi4_operand_executed_total", kind="full3")
        full3_srv = m.total("epi4_operand_cache_served_total", kind="full3")
        full3_req = full3_exec + full3_srv
        hit_rate = full3_srv / full3_req if full3_req else 0.0
        rows.append(
            [
                label,
                f"{wall:7.2f}",
                f"{score_wall:7.2f}",
                "-" if compaction is None else f"{100 * compaction:5.1f}%",
                f"{100 * hit_rate:5.1f}%",
                f"{result.counters.score_cells:.2e}",
            ]
        )
        records.append(
            {
                "config": label,
                "wall_seconds": wall,
                "score_phase_seconds": score_wall,
                "compaction_ratio": compaction,
                "full3_executed": full3_exec,
                "full3_cache_served": full3_srv,
                "full3_hit_rate": hit_rate,
                "score_cells_executed": result.counters.score_cells,
                "top_k_sha256": digests[label],
            }
        )

    print_table(
        f"applyScore path ablation (M={N_SNPS}, N={N_SAMPLES}, B={BLOCK})",
        ["config", "wall s", "score s", "compact", "full3 hits", "cells"],
        rows,
    )

    # --- assertions ------------------------------------------------------ #
    # Bit-identity: the optimization may not move a single ranked result.
    assert len(set(digests.values())) == 1, digests

    scheme = runs[0][2].block_scheme
    wl = search_workload(N_SNPS, N_SAMPLES, BLOCK)

    fused_rec, triplets_rec, autotune_rec = records
    # Every cell executes exactly the compacted (= unique) cell volume.
    for rec in records:
        assert rec["score_cells_executed"] == wl.score_cells
        assert rec["compaction_ratio"] == scheme.useful_fraction

    # Cross-round reuse: completions collapse to unique block triples.
    nb = scheme.n_snps // BLOCK
    assert triplets_rec["full3_executed"] == 2 * unique_block_triples(nb)
    assert triplets_rec["full3_executed"] < fused_rec["full3_executed"]
    assert triplets_rec["full3_hit_rate"] > 0.5

    # --- persist --------------------------------------------------------- #
    history = []
    if RESULTS_PATH.exists():
        history = json.loads(RESULTS_PATH.read_text())
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "n_snps": N_SNPS,
            "n_samples": N_SAMPLES,
            "block_size": BLOCK,
            "small": _SMALL,
            "top_k_sha256": next(iter(set(digests.values()))),
            "cells": records,
        }
    )
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")
