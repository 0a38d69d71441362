"""Per-layer attribution measured from outside the program.

:class:`LayerProbe` replaces public layer functions with timed wrappers for
the duration of one traced search, and records a span on the search's own
:class:`~repro.obs.trace.Tracer` around every wrapped call, so the span tree
gives self times.  The remaining per-layer numbers come from the program's
own phase timers and counters in ``SearchResult.metrics``.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Per-layer metrics and their units (names match BENCHMARK.json).
PER_LAYER_UNITS = {
    "encode.s": "s",
    "pairwise.s": "s",
    "combine.s": "s",
    "combine.bit_ops": "count",
    "tensor3.s": "s",
    "tensor4.s": "s",
    "tensor.launches": "count",
    "tensor.ops": "count",
    "tensor4.ops_per_s": "1/s",
    "tensor.bytes_computed": "bytes",
    "operand.requests": "count",
    "operand.executed.combine": "count",
    "operand.executed.sweep3": "count",
    "operand.executed.full3": "count",
    "bound.s": "s",
    "prune.ratio": "ratio",
    "derive.s": "s",
    "complete.s": "s",
    "complete.quads": "count",
    "k2.s": "s",
    "k2.cells": "count",
    "score.s": "s",
    "score.self_s": "s",
    "reduce.s": "s",
    "rounds": "count",
    "loop.self_s": "s",
    "journal.commits": "count",
    "dist.stage_s": "s",
    "dist.spawn_s": "s",
    "dist.shard_imbalance": "ratio",
    "dist.merge_s": "s",
    "dist.unpinned_wall_s": "s",
    "share.tensor": "ratio",
    "share.score": "ratio",
    "trace_overhead": "ratio",
}

#: The paper's §4.5 time breakdown on the GPU, for comparison.
PAPER_SHARES = {"share.tensor": 0.8285, "share.score": 0.0858}

#: Search phases timed inside ``Epi4TensorSearch.run`` (encode runs at
#: construction, outside the run's wall).
_RUN_PHASES = ("pairwise", "combine", "tensor3", "tensor4", "score", "autotune")


class LayerProbe:
    """Timed wrappers around layer entry points.

    Each wrapper is installed when it is added and every one is restored
    when the probe's ``with`` block exits.  ``seconds[name]`` sums the wall
    time of every wrapped call; ``last[name]`` holds the ``(start, end)``
    perf-counter stamps of the latest one; ``bytes_computed`` sums packed
    operand and result bytes of every binary GEMM, computed from the operand
    shapes.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.seconds: dict[str, float] = defaultdict(float)
        self.last: dict[str, tuple[float, float]] = {}
        self.bytes_computed = 0
        self._patches: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def time_calls(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` under layer ``name``."""
        fn = vars(owner)[attr]
        tracer, seconds, last = self.tracer, self.seconds, self.last

        def timed(*args, **kwargs):
            with tracer.span("bench." + name):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    seconds[name] += t1 - t0
                    last[name] = (t0, t1)

        self._patch(owner, attr, timed)

    def count_gemm_bytes(self, engine_cls) -> None:
        """Add each ``matmul_popcount`` call's operand and result bytes."""
        fn = vars(engine_cls)["matmul_popcount"]

        def counted(engine, a, b):
            out = fn(engine, a, b)
            self.bytes_computed += a.data.nbytes + b.data.nbytes + out.nbytes
            return out

        self._patch(engine_cls, "matmul_popcount", counted)

    def __enter__(self) -> "LayerProbe":
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def search_probe(tracer, search) -> LayerProbe:
    """Probe the score-phase layers of one in-process search."""
    import repro.core.apply_score as apply_score
    from repro.core.reduction import TopKReducer
    from repro.scoring.bounds import K2BoundKernel
    from repro.scoring.k2 import StagedK2Kernel

    probe = LayerProbe(tracer)
    probe.time_calls(K2BoundKernel, "quad_bounds", "bound")
    probe.time_calls(apply_score, "complete_threeway", "derive")
    probe.time_calls(apply_score, "complete_quad", "complete")
    probe.time_calls(StagedK2Kernel, "score_flat", "k2")
    probe.time_calls(TopKReducer, "add_round", "reduce")
    probe.count_gemm_bytes(type(search.cluster.gpus[0].engine))
    return probe


def dist_probe(tracer) -> LayerProbe:
    """Probe the coordinator stages of one ``run_sharded`` call."""
    import repro.datasets
    import repro.dist.coordinator as coordinator
    from repro.core.search import Epi4TensorSearch

    probe = LayerProbe(tracer)
    # Inside run_sharded the only construction is the coordinator's probe
    # search, and the dataset is staged with repro.datasets.save_dataset.
    probe.time_calls(Epi4TensorSearch, "__init__", "stage.probe")
    probe.time_calls(repro.datasets, "save_dataset", "stage.save")
    probe.time_calls(coordinator, "merge_shards", "merge")
    return probe


def search_layers(result, probe: LayerProbe) -> dict[str, float]:
    """Per-layer metrics of one traced in-process search."""
    m = result.metrics
    phase = result.phase_seconds
    wall = result.wall_seconds
    s = probe.seconds
    valid = m.total("epi4_applyscore_valid_total")
    pruned = m.total("epi4_prune_quads_total")
    tensor4_ops = m.total("epi4_tensor_ops_total", form="raw", kernel="tensor4")
    score_children = s["bound"] + s["derive"] + s["complete"] + s["k2"] + s["reduce"]
    return {
        "encode.s": phase["encode"],
        "pairwise.s": phase["pairwise"],
        "combine.s": phase["combine"],
        "combine.bit_ops": m.total("epi4_combine_bit_ops_total"),
        "tensor3.s": phase["tensor3"],
        "tensor4.s": phase["tensor4"],
        "tensor.launches": m.total("epi4_gemm_launches_total"),
        "tensor.ops": m.total("epi4_tensor_ops_total", form="raw"),
        "tensor4.ops_per_s": tensor4_ops / phase["tensor4"],
        "tensor.bytes_computed": float(probe.bytes_computed),
        "operand.requests": m.total("epi4_operand_requests_total"),
        "operand.executed.combine": m.total("epi4_operand_executed_total", kind="combine"),
        "operand.executed.sweep3": m.total("epi4_operand_executed_total", kind="sweep"),
        "operand.executed.full3": m.total("epi4_operand_executed_total", kind="full3"),
        "bound.s": s["bound"],
        "prune.ratio": pruned / (valid + pruned),
        "derive.s": s["derive"],
        "complete.s": s["complete"],
        "complete.quads": valid,
        "k2.s": s["k2"],
        "k2.cells": m.total("epi4_score_cells_total"),
        "score.s": phase["score"],
        "score.self_s": phase["score"] - score_children,
        "reduce.s": s["reduce"],
        "rounds": m.total("epi4_rounds_total"),
        "loop.self_s": wall - sum(phase[p] for p in _RUN_PHASES),
        "share.tensor": (phase["tensor3"] + phase["tensor4"]) / wall,
        "share.score": phase["score"] / wall,
    }


def dist_layers(merged, probe: LayerProbe, slots: int) -> dict[str, float]:
    """Per-layer metrics of one traced ``run_sharded`` call.

    The worker stage runs from the end of dataset staging to the start of
    the merge.  Shards are handed to ``slots`` workers in index order as
    slots free up, so replaying that order over each shard's own
    ``wall_seconds`` gives the busiest slot's search time; the rest of the
    worker stage is process spawn, imports, dataset load, construction and
    artifact I/O.
    """
    s = probe.seconds
    walls = [float(a["wall_seconds"]) for a in merged.shards]
    slot_busy = [0.0] * slots
    for w in walls:
        slot_busy[slot_busy.index(min(slot_busy))] += w
    worker_stage = probe.last["merge"][0] - probe.last["stage.save"][1]
    return {
        "dist.stage_s": s["stage.probe"] + s["stage.save"],
        "dist.spawn_s": worker_stage - max(slot_busy),
        "dist.shard_imbalance": max(walls) / (sum(walls) / len(walls)),
        "dist.merge_s": s["merge"],
        "journal.commits": merged.metrics.total("epi4_journal_commits_total"),
    }


def self_times(records) -> dict[str, float]:
    """Summed self time per span name: duration minus child spans."""
    child = defaultdict(float)
    for r in records:
        if r.parent_id is not None:
            child[r.parent_id] += r.duration
    out: dict[str, float] = defaultdict(float)
    for r in records:
        out[r.name] += r.duration - child[r.span_id]
    return dict(sorted(out.items()))
