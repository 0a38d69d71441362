"""Structured tracing: nested spans over the search execution.

A :class:`Tracer` records a tree of :class:`SpanRecord` objects — one per
``with tracer.span(...)`` block — capturing wall and monotonic times, tags
and the recording thread.  The search driver emits the taxonomy

    encode                                     (construction-time root span)
    run
    ├── prepare                                (schedule + transfer + cache)
    │   └── pairwise                           (indivPop / pairwPop)
    ├── device[d]                              (one per participating device)
    │   └── outer[wi]                          (one per outer iteration)
    │       ├── combine / tensor3              (loop-invariant operands)
    │       └── round[wi,xi,yi,zi]
    │           ├── combine / tensor4          (yz combine + 4-way GEMM)
    │           ├── derive                     (completion + scoring math)
    │           ├── score                      (applyScore accounting)
    │           └── reduce                     (per-round top-k insert)
    └── reduce                                 (final cross-device reduction)

Sharded workers (``repro.dist``) wrap the whole taxonomy in one extra
root: ``shard[index,count]`` encloses ``run`` so a shard's trace is
attributable to its position in the plan.

Every span gets a deterministic **path**: the parent path joined with the
span's label (name plus identity tags) and a per-parent occurrence index,
e.g. ``run#0/device[0]#0/outer[2]#0/round[2,2,3,3]#0/combine#1``.  Paths
make traces canonically sortable, which is what lets golden tests compare
runs byte-for-byte after normalizing the non-deterministic fields
(timestamps, durations, thread ids, span ids).

The default :data:`NULL_TRACER` is a shared no-op whose ``span`` call
returns a singleton null context manager — the instrumented hot paths stay
within noise of the uninstrumented build (see
``benchmarks/bench_obs_overhead.py``).

This module is dependency-free (stdlib only) and knows nothing about
epistasis: :mod:`repro.core.search` wires it to the loop nest.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "trace_lines",
    "normalize_records",
    "span_tree_shape",
]

#: Tag keys that become part of a span's identity label (and therefore its
#: canonical path).  Everything else is carried as metadata only.
_IDENTITY_TAGS = ("device", "wi", "xi", "yi", "zi", "quad", "index", "count")


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes:
        span_id: unique ordinal within the tracer (assignment order is
            racy under threads — use :attr:`path` for stable identity).
        parent_id: ``span_id`` of the enclosing span (``None`` for roots).
        name: span name (``"round"``, ``"combine"``, ...).
        label: name plus identity tags, e.g. ``"round[0,0,1,1]"``.
        path: canonical slash-joined path from the root, with per-parent
            occurrence indices (``"run#0/device[0]#0/..."``).
        depth: nesting depth (roots are 0).
        tags: all tags passed to :meth:`Tracer.span`.
        thread_id: :func:`threading.get_ident` of the recording thread.
        wall_start: ``time.time()`` at entry (epoch seconds).
        start_monotonic: ``time.perf_counter()`` at entry.
        duration: seconds between entry and exit (monotonic clock).
    """

    span_id: int
    parent_id: int | None
    name: str
    label: str
    path: str
    depth: int
    tags: dict[str, Any]
    thread_id: int
    wall_start: float
    start_monotonic: float
    duration: float

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSONL export)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "label": self.label,
            "path": self.path,
            "depth": self.depth,
            "tags": dict(sorted(self.tags.items())),
            "thread_id": self.thread_id,
            "wall_start": self.wall_start,
            "start_monotonic": self.start_monotonic,
            "duration": self.duration,
        }


def _label_for(name: str, tags: Mapping[str, Any]) -> str:
    """``name[identity-tag-values]`` — the path component of a span."""
    parts = [str(tags[k]) for k in _IDENTITY_TAGS if k in tags]
    return f"{name}[{','.join(parts)}]" if parts else name


class _ActiveSpan:
    """Span context manager while the span is open (one per ``with``)."""

    __slots__ = (
        "_tracer", "name", "label", "tags", "span_id", "parent_id",
        "path", "depth", "_child_counts", "_wall_start", "_t0", "_parent",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        tags: dict[str, Any],
        parent: "_ActiveSpan | None" = None,
    ):
        self._tracer = tracer
        self.name = name
        self.tags = tags
        self.label = _label_for(name, tags)
        self._child_counts: dict[str, int] = {}
        self._parent = parent

    def set_tag(self, key: str, value: Any) -> None:
        """Attach/overwrite a tag while the span is open."""
        self.tags[key] = value

    def _occurrence(self, label: str) -> int:
        # Under the tracer lock: explicit-parent spans (e.g. cross-thread
        # children) may increment a shared parent's child counter
        # concurrently.
        with self._tracer._lock:
            n = self._child_counts.get(label, 0)
            self._child_counts[label] = n + 1
            return n

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        parent = self._parent if self._parent is not None else (
            stack[-1] if stack else None
        )
        if parent is None:
            self.parent_id = None
            self.depth = 0
            occ = tracer._root_occurrence(self.label)
            self.path = f"{self.label}#{occ}"
        else:
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
            occ = parent._occurrence(self.label)
            self.path = f"{parent.path}/{self.label}#{occ}"
        self.span_id = tracer._next_id()
        stack.append(self)
        self._wall_start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        duration = time.perf_counter() - self._t0
        tracer = self._tracer
        stack = tracer._stack()
        assert stack and stack[-1] is self, "span exit out of order"
        stack.pop()
        tracer._record(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                label=self.label,
                path=self.path,
                depth=self.depth,
                tags=self.tags,
                thread_id=threading.get_ident(),
                wall_start=self._wall_start,
                start_monotonic=self._t0,
                duration=duration,
            )
        )


class Tracer:
    """Thread-safe span recorder with per-thread span stacks."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._records: list[SpanRecord] = []
        self._root_counts: dict[str, int] = {}
        self._id = 0

    # -- internal ------------------------------------------------------- #

    def _stack(self) -> list[_ActiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _root_occurrence(self, label: str) -> int:
        with self._lock:
            n = self._root_counts.get(label, 0)
            self._root_counts[label] = n + 1
            return n

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    # -- public --------------------------------------------------------- #

    def span(
        self,
        name: str,
        parent_span: "_ActiveSpan | None" = None,
        **tags: Any,
    ) -> _ActiveSpan:
        """Open a span; use as a context manager.

        ``parent_span`` explicitly parents the span (needed when a child
        opens on a different thread than its parent, or must attach to
        the run span whatever is open); by default the innermost open
        span on the current thread is the parent.
        """
        return _ActiveSpan(self, name, tags, parent=parent_span)

    def current(self) -> _ActiveSpan | None:
        """The innermost open span on *this* thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def records(self) -> list[SpanRecord]:
        """Finished spans in canonical (path-sorted) order."""
        with self._lock:
            return sorted(self._records, key=lambda r: r.path)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._root_counts.clear()
            self._id = 0


class _NullSpan:
    """Singleton no-op span (returned by :class:`NullTracer`)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set_tag(self, key: str, value: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: ``span()`` returns a shared null context manager."""

    enabled = False

    def span(self, name: str, parent_span: Any = None, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def records(self) -> list[SpanRecord]:
        return []

    def clear(self) -> None:
        return None


#: Shared default tracer — near-zero overhead on every instrumented path.
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------- #
# Canonical export / normalization helpers


def normalize_records(records: Iterable[SpanRecord]) -> list[dict[str, Any]]:
    """Strip the non-deterministic fields from span records.

    Timestamps, durations, span/parent/thread ids are zeroed (the *keys*
    are kept so schemas stay checkable); tree structure is preserved
    through ``path``/``depth``.  Two runs of the same deterministic
    workload normalize to identical lists — the golden-trace contract.
    """
    out = []
    for r in sorted(records, key=lambda r: r.path):
        d = r.to_dict()
        d["span_id"] = 0
        d["parent_id"] = 0 if r.parent_id is not None else None
        d["thread_id"] = 0
        d["wall_start"] = 0.0
        d["start_monotonic"] = 0.0
        d["duration"] = 0.0
        out.append(d)
    return out


def trace_lines(
    records: Iterable[SpanRecord], *, normalized: bool = False
) -> list[str]:
    """JSONL lines (canonical key order, path-sorted records)."""
    dicts = (
        normalize_records(records)
        if normalized
        else [r.to_dict() for r in sorted(records, key=lambda r: r.path)]
    )
    return [json.dumps(d, sort_keys=True, separators=(",", ":")) for d in dicts]


def span_tree_shape(records: Iterable[SpanRecord]) -> list[str]:
    """The trace reduced to its shape: sorted span paths only."""
    return [r.path for r in sorted(records, key=lambda r: r.path)]
