"""Memory-pressure governor: deterministic degradation under OOM.

At the exhaustive scales the paper targets, device allocation failure is
an operational certainty — other tenants, fragmentation, or a workload
tuned right up to the §3.3 memory model's edge.  Aborting a multi-hour
search over a recoverable allocation failure wastes everything computed
so far, so the governor trades *throughput* for *footprint* instead:
every :class:`~repro.device.memory.DeviceMemoryError` (injected via the
``oom`` fault kind or raised for real) steps a deterministic degradation
ladder and the failed iteration is retried at the reduced footprint.

The ladder (cumulative, in order)::

    level 1  shrink the round-operand cache budget to half
    level 2  halve batch_rounds (smaller resident round groups)
    level 3  halve max_chunk_cells (smaller applyScore tiles)
    level 4  disable the cross-round triplet cache

Every knob on the ladder is *result-neutral* — cache capacity, launch
fusion width, score-chunk size and triplet reuse all change how work is
scheduled, never what is computed — so a degraded search stays
bit-identical to the fault-free reference (the equivalence suites pin
each knob individually).  Once the ladder is exhausted (level 4) a
further ``DeviceMemoryError`` propagates: there is nothing left to give
back, and aborting honestly beats thrashing.

Pressure is not permanent: after ``relax_after`` consecutive clean
rounds the governor re-expands one level (restoring the cache budget
when leaving level 1), so a transient squeeze does not tax the rest of
the run.

Observability: the search exports the current level as the
``epi4_pressure_level`` gauge and each ladder transition as
``epi4_pressure_degrade_total`` / ``epi4_pressure_expand_total``
counters, and records a FaultLog incident per step — the property suite
checks ``degrade_total == degrade incidents`` conservation.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.operand_cache import OperandCache
    from repro.obs.metrics import MetricsRegistry

#: Human-readable name of each ladder step; ``LADDER[i]`` is the action
#: taken when escalating from level ``i`` to ``i + 1``.
LADDER = (
    "shrink-operand-cache",
    "halve-batch-rounds",
    "halve-chunk-cells",
    "disable-triplet-cache",
)

#: Floor for the degraded applyScore chunk: one 81-cell table.
MIN_CHUNK_CELLS = 81


class PressureGovernor:
    """Shared, thread-safe degradation ladder for one search run.

    Args:
        relax_after: consecutive clean rounds before one level of
            pressure is released (must be >= 1).
        cache: the search's round-operand cache, resized when the ladder
            crosses level 1 (optional — tests exercise the ladder bare).

    The governor only *decides* footprints; the search consults
    :meth:`effective_batch_rounds` / :meth:`effective_chunk_cells` /
    :meth:`triplets_enabled` at each use site, so a level change takes
    effect from the next round onward without invalidating work in
    flight.
    """

    def __init__(
        self,
        relax_after: int = 64,
        cache: "OperandCache | None" = None,
    ) -> None:
        if relax_after < 1:
            raise ValueError(f"relax_after must be >= 1, got {relax_after}")
        self.relax_after = int(relax_after)
        self._lock = threading.Lock()
        self._level = 0
        self._clean_rounds = 0
        self.degrade_total = 0
        self.expand_total = 0
        self._max_level = 0
        self._cache = cache
        self._cache_base: float | None = (
            cache.capacity_bytes if cache is not None else None
        )

    # ------------------------------------------------------------------ #

    def attach_cache(self, cache: "OperandCache | None") -> None:
        """Adopt the run's operand cache (created after the governor);
        re-applies the current level's budget to the new cache."""
        with self._lock:
            self._cache = cache
            self._cache_base = (
                cache.capacity_bytes if cache is not None else None
            )
            self._apply_cache_budget_locked()

    @property
    def level(self) -> int:
        """Current ladder position (0 = full footprint)."""
        with self._lock:
            return self._level

    @property
    def max_level(self) -> int:
        return len(LADDER)

    def escalate(self) -> str | None:
        """One ladder step down (a ``DeviceMemoryError`` was observed).

        Returns the step name just applied, or ``None`` when the ladder
        is already exhausted — the caller must then propagate the error.
        """
        with self._lock:
            if self._level >= len(LADDER):
                return None
            step = LADDER[self._level]
            self._level += 1
            self._max_level = max(self._max_level, self._level)
            self.degrade_total += 1
            self._clean_rounds = 0
            self._apply_cache_budget_locked()
            return step

    def note_clean_round(self) -> str | None:
        """Record one fault-free round; maybe release one level.

        Returns the step name just *re-expanded*, or ``None`` when
        nothing changed.
        """
        with self._lock:
            if self._level == 0:
                return None
            self._clean_rounds += 1
            if self._clean_rounds < self.relax_after:
                return None
            self._clean_rounds = 0
            self._level -= 1
            self.expand_total += 1
            step = LADDER[self._level]
            self._apply_cache_budget_locked()
            return step

    # ------------------------------------------------------------------ #

    def effective_batch_rounds(self, base: int) -> int:
        """``batch_rounds`` after pressure (halved from level 2 on)."""
        with self._lock:
            if self._level >= 2:
                return max(1, base // 2)
            return base

    def effective_chunk_cells(self, base: int) -> int:
        """``max_chunk_cells`` after pressure (halved from level 3 on)."""
        with self._lock:
            if self._level >= 3:
                return max(MIN_CHUNK_CELLS, base // 2)
            return base

    def triplets_enabled(self, base: bool) -> bool:
        """Whether the cross-round triplet cache stays on (off at 4)."""
        with self._lock:
            return base and self._level < 4

    # ------------------------------------------------------------------ #

    def _apply_cache_budget_locked(self) -> None:
        if self._cache is None or self._cache_base is None:
            return
        target = (
            self._cache_base / 2 if self._level >= 1 else self._cache_base
        )
        self._cache.resize(target)

    def export_metrics(self, registry: MetricsRegistry) -> None:
        """Final-state export (level gauge + transition totals)."""
        with self._lock:
            registry.set_gauge("epi4_pressure_level", float(self._level))
            if self._max_level:
                registry.set_gauge(
                    "epi4_pressure_max_level_reached", float(self._max_level)
                )

    def summary(self) -> dict[str, int]:
        with self._lock:
            return {
                "level": self._level,
                "max_level": self._max_level,
                "degrade_total": self.degrade_total,
                "expand_total": self.expand_total,
            }
