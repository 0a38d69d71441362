"""Workload definitions and the benchmark's fixed search configuration.

Every workload is a null-phenotype random dataset with half cases, searched
with ``B=8``, ``top_k=10`` and otherwise the default ``SearchConfig``.  The
dataset is a pure function of the workload and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: SNPs per block and ranked solutions kept, for every workload.
BLOCK_SIZE = 8
TOP_K = 10
#: Seed whose ``top_k_sha256`` per workload is pinned in ``digests.json``.
DEFAULT_SEED = 7
#: The sharded workload's plan: shards and concurrent worker processes.
N_SHARDS = 4
SHARD_SLOTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n_snps: int
    n_samples: int
    #: Run through ``repro.dist.run_sharded`` (plus an unsharded baseline).
    sharded: bool


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("score_n2048", n_snps=64, n_samples=2048, sharded=False),
        Workload("gemm_n32768", n_snps=32, n_samples=32768, sharded=False),
        Workload("shard4x2_n1024", n_snps=48, n_samples=1024, sharded=True),
    )
}


def search_config():
    """The configuration every workload searches with."""
    from repro.core.search import SearchConfig

    return SearchConfig(block_size=BLOCK_SIZE, top_k=TOP_K)


def make_dataset(workload: Workload, seed: int):
    """The workload's dataset for ``seed`` (the program sees only this)."""
    from repro.datasets import generate_random_dataset

    return generate_random_dataset(
        workload.n_snps, workload.n_samples, seed=seed
    )


def scaled_quads(workload: Workload) -> int:
    """``C(M, 4) * N``: the numerator of the paper's throughput metric."""
    from math import comb

    return comb(workload.n_snps, 4) * workload.n_samples
