"""Full-grid ``applyScore`` oracle for the test suite.

:func:`apply_score_dense` completes and scores the whole ``B^4 x 81`` grid
of a round, then masks — no compaction, no triplet cache, no bound gate.
It is the round-level reference that :func:`repro.core.apply_score.score_round`
must match bit for bit.  :func:`score_round_dense` wraps it in
``score_round``'s signature so whole-run comparisons can route
:class:`~repro.core.search.Epi4TensorSearch` through it (see the
``dense_score_oracle`` fixture in ``conftest.py``).
"""

from __future__ import annotations

import numpy as np

from repro.contingency.complete import complete_quad
from repro.core.apply_score import (
    DEFAULT_MAX_CHUNK_CELLS,
    RoundOperands,
    RoundScoreStats,
    ScoreMinFn,
    round_validity_mask,
)
from repro.core.threeway import complete_threeway


def score_round_dense(
    operands: RoundOperands,
    pairs: np.ndarray,
    score_min_fn: ScoreMinFn,
    n_real_snps: int,
    *,
    max_chunk_cells: int = DEFAULT_MAX_CHUNK_CELLS,
    **_fused_only,
) -> tuple[np.ndarray, RoundScoreStats]:
    """:func:`apply_score_dense` behind ``score_round``'s signature.

    The fused-path hooks (staged kernel, ``full3`` provider, bound gate)
    are accepted and ignored: the oracle scores every position.
    """
    scores = apply_score_dense(
        operands, pairs, score_min_fn, n_real_snps,
        max_chunk_cells=max_chunk_cells,
    )
    b = operands.block_size
    valid = int(round_validity_mask(operands.offsets, b, n_real_snps).sum())
    return scores, RoundScoreStats(
        positions=b**4,
        valid=valid,
        chunks=0,
        full3_requests=0,
        full3_computed=0,
        full3_cache_hits=0,
    )


def apply_score_dense(
    operands: RoundOperands,
    pairs: np.ndarray,
    score_min_fn: ScoreMinFn,
    n_real_snps: int,
    *,
    max_chunk_cells: int = DEFAULT_MAX_CHUNK_CELLS,
) -> np.ndarray:
    """Legacy dense reference: complete + score the full grid, then mask.

    Kept bit-identical to the pre-fusion implementation; serves as the
    property-test oracle for the compacted path.
    """
    b = operands.block_size
    wo, xo, yo, zo = operands.offsets
    w_idx = np.arange(wo, wo + b)
    x_idx = np.arange(xo, xo + b)
    y_idx = np.arange(yo, yo + b)
    z_idx = np.arange(zo, zo + b)

    # Triplets without a w axis are shared across w chunks: complete once.
    full3_xyz = [
        complete_threeway(operands.corner3_xyz[cls], pairs[cls], x_idx, y_idx, z_idx)
        for cls in (0, 1)
    ]

    cells_per_w = b * b * b * 81
    chunk_w = max(1, min(b, max_chunk_cells // max(cells_per_w, 1)))

    scores = np.empty((b, b, b, b), dtype=np.float64)
    for w0 in range(0, b, chunk_w):
        w1 = min(w0 + chunk_w, b)
        tables = []
        for cls in (0, 1):
            full3_wxy = complete_threeway(
                operands.corner3_wxy[cls][w0:w1], pairs[cls], w_idx[w0:w1], x_idx, y_idx
            )
            full3_wxz = complete_threeway(
                operands.corner3_wxz[cls][w0:w1], pairs[cls], w_idx[w0:w1], x_idx, z_idx
            )
            full3_wyz = complete_threeway(
                operands.corner3_wyz[cls][w0:w1], pairs[cls], w_idx[w0:w1], y_idx, z_idx
            )
            tables.append(
                complete_quad(
                    operands.corner4[cls][w0:w1],
                    full3_wxy[:, :, :, None],   # (Wc, B, B, 1, 3, 3, 3)
                    full3_wxz[:, :, None, :],   # (Wc, B, 1, B, 3, 3, 3)
                    full3_wyz[:, None, :, :],   # (Wc, 1, B, B, 3, 3, 3)
                    full3_xyz[cls][None],       # (1, B, B, B, 3, 3, 3)
                )
            )
        scores[w0:w1] = score_min_fn(tables[0], tables[1], order=4)

    mask = round_validity_mask(operands.offsets, b, n_real_snps)
    scores[~mask] = np.inf
    return scores
