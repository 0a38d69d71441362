"""CUDA-stream concurrency model (paper §4.4/§4.5).

The paper optionally runs multiple evaluation rounds concurrently through
multiple CUDA streams per GPU.  Streams do not change results; they overlap
kernel ramp-up/launch gaps, which "only resulted in significantly improved
performance for datasets with small amounts of samples" — i.e. exactly when
single-GEMM efficiency is low.

:class:`StreamModel` is the performance-model side of that: a saturation
law where ``s`` streams lift the achieved tensor efficiency to
``1 - (1 - eff)^s``, capped at the kernel's speed-of-light fraction.  The
search itself runs its rounds on the calling thread; streams are a
parameter of :func:`repro.perfmodel.model.predict_search` only.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StreamModel:
    """Per-GPU stream configuration.

    Attributes:
        n_streams: concurrent evaluation rounds (1 = serialized rounds, the
            paper's "S" configurations; >1 = "P" configurations).
    """

    n_streams: int = 1

    def __post_init__(self) -> None:
        if self.n_streams < 1:
            raise ValueError(f"n_streams must be >= 1, got {self.n_streams}")

    def effective_efficiency(self, base_efficiency: float, sol_cap: float) -> float:
        """Tensor efficiency after stream overlap.

        Args:
            base_efficiency: single-stream efficiency in ``[0, 1]``.
            sol_cap: the kernel speed-of-light ceiling.
        """
        if not 0.0 <= base_efficiency <= 1.0:
            raise ValueError(
                f"base_efficiency must be in [0, 1], got {base_efficiency}"
            )
        boosted = 1.0 - (1.0 - base_efficiency) ** self.n_streams
        return min(boosted, sol_cap)
