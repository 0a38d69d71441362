"""Correctness checks applied to every search the benchmark times.

A search *fails* when it raises or when any check here returns a problem;
failures count against ``attempted`` in the benchmark result.
"""

from __future__ import annotations

import json
import os
from math import comb

_DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def rescore_problems(dataset, solutions, top_k: int) -> list[str]:
    """Re-score every reported quad from the raw genotypes.

    Each quad must be a sorted 4-tuple of real SNPs, its score must equal the
    brute-force K2 score bit for bit, and the list must be ranked by
    ``(score, packed quad)`` with ``min(top_k, C(M, 4))`` distinct entries.
    Returns one line per problem found (empty when the list is correct).
    """
    from repro.contingency.brute_force import contingency_tables_by_class
    from repro.scoring import K2Score
    from repro.scoring.lgamma_table import LgammaTable

    score = K2Score(LgammaTable.for_samples(dataset.n_samples))
    problems = []
    expected_len = min(top_k, comb(dataset.n_snps, 4))
    if len(solutions) != expected_len:
        problems.append(f"{len(solutions)} solutions reported, expected {expected_len}")
    for rank, sol in enumerate(solutions):
        quad = sol.quad
        if not all(0 <= a < b for a, b in zip(quad, quad[1:])) or quad[3] >= dataset.n_snps:
            problems.append(f"rank {rank}: invalid quad {quad}")
            continue
        t0, t1 = contingency_tables_by_class(dataset, quad)
        expected = float(score(t0, t1))
        if float(sol.score) != expected:
            problems.append(
                f"rank {rank}: quad {quad} reported {float(sol.score)!r}, "
                f"re-scored {expected!r}"
            )
    keys = [(float(s.score), s.packed) for s in solutions]
    if keys != sorted(set(keys)):
        problems.append("solutions are not strictly ranked by (score, quad)")
    return problems


def expected_digest(workload_name: str, seed: int) -> str | None:
    """The pinned ``top_k_sha256`` for this workload and seed, if any."""
    with open(_DIGESTS_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    if seed != pinned["seed"]:
        return None
    return pinned["top_k_sha256"].get(workload_name)


def digest_problems(actual: str, expected: str | None, what: str) -> list[str]:
    """A mismatch against ``expected`` (skipped when nothing is pinned)."""
    if expected is None or actual == expected:
        return []
    return [f"{what}: top_k_sha256 {actual} != expected {expected}"]
