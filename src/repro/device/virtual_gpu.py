"""Virtual GPU: real computation, accounted against a modelled device.

A :class:`VirtualGPU` owns a binary tensor engine matched to its spec
(AND+POPC on Ampere models, XOR+POPC + translation on Turing models) and
exposes the paper's kernels (`combine`, `tensorOp_3way`, `tensorOp_4way`)
as launch methods.  Every launch updates :class:`KernelCounters` — raw and
tile-quantized tensor ops, general-purpose work, transferred bytes — which
the performance model later converts into simulated device time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.bitops.bitmatrix import BitMatrix
from repro.bitops.combine import combine_blocks
from repro.device.specs import GPUSpec
from repro.tensor.engine import BinaryTensorEngine, make_engine


@dataclass
class KernelCounters:
    """Accumulated work counters for one device.

    Attributes:
        tensor_ops_raw: fused-op volume of the un-quantized GEMM problems
            (1 fused AND/XOR+POPC = 2 ops, paper convention), split by
            kernel (``tensor4`` / ``tensor3``).
        tensor_ops_padded: same volume after CUTLASS tile quantization —
            what the tensor cores actually execute.
        combine_bit_ops: bitwise AND ops performed by ``combine`` launches
            (general-purpose cores).
        pairwise_ops: plane-dot volume of the ``pairwPop`` precomputation.
        score_cells: contingency-table cells completed + scored.
        transfer_bytes: host-device traffic.
        launches: launch count per kernel name.  A batched tensor launch
            (``matmul_popcount_batch``) counts **once** here however many
            GEMM problems it fuses; ``gemm_problems`` keeps the logical
            problem count, so ``gemm_problems - launches`` is exactly the
            launch overhead the batching pipeline amortized away.
        gemm_problems: logical GEMM problems executed per tensor kernel
            (equals ``launches`` for that kernel when batching is off).
        cache_hits: round-operand cache lookups served without a launch
            (the skipped ``combine``/``tensor3`` work is *not* in the
            tensor-op/bit-op totals — the counters reflect executed work).
        cache_misses: lookups that computed (and launched) for real.
        cache_evictions: cache entries displaced by the byte budget.
        faults_injected: launches this device failed or corrupted under
            fault injection (see :mod:`repro.device.faults`); zero on a
            healthy run.
    """

    tensor_ops_raw: dict[str, int] = field(
        default_factory=lambda: {"tensor4": 0, "tensor3": 0}
    )
    tensor_ops_padded: dict[str, int] = field(
        default_factory=lambda: {"tensor4": 0, "tensor3": 0}
    )

    def _ensure_category(self, kernel: str) -> None:
        self.tensor_ops_raw.setdefault(kernel, 0)
        self.tensor_ops_padded.setdefault(kernel, 0)
    combine_bit_ops: int = 0
    pairwise_ops: int = 0
    score_cells: int = 0
    transfer_bytes: int = 0
    launches: dict[str, int] = field(default_factory=dict)
    gemm_problems: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    faults_injected: int = 0

    def __post_init__(self) -> None:
        # Counters may be shared by more than one host thread; every
        # read-modify-write below goes through this lock.
        self._lock = threading.Lock()

    def record_launch(self, kernel: str) -> None:
        with self._lock:
            self.launches[kernel] = self.launches.get(kernel, 0) + 1

    def record_tensor_launch(
        self, kernel: str, raw_ops: int, padded_ops: int, batch: int = 1
    ) -> None:
        """Account one executed tensor-GEMM launch carrying ``batch``
        fused problems."""
        with self._lock:
            self._ensure_category(kernel)
            self.tensor_ops_raw[kernel] += raw_ops
            self.tensor_ops_padded[kernel] += padded_ops
            self.launches[kernel] = self.launches.get(kernel, 0) + 1
            self.gemm_problems[kernel] = (
                self.gemm_problems.get(kernel, 0) + batch
            )

    def add_work(self, attr: str, amount: int) -> None:
        """Add ``amount`` to one of the scalar work counters, atomically."""
        with self._lock:
            setattr(self, attr, getattr(self, attr) + amount)

    def record_fault(self) -> None:
        """Account one injected launch fault (or output corruption)."""
        with self._lock:
            self.faults_injected += 1

    def record_cache(self, hit: bool, evicted: int = 0) -> None:
        """Account one round-operand cache lookup."""
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            self.cache_evictions += evicted

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of operand lookups served from the cache (0.0 when
        the cache is disabled or never consulted)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_tensor_ops_raw(self) -> int:
        return sum(self.tensor_ops_raw.values())

    @property
    def total_tensor_ops_padded(self) -> int:
        return sum(self.tensor_ops_padded.values())

    def export_metrics(self, registry, device: int | str) -> None:
        """Mirror these counters into a
        :class:`~repro.obs.metrics.MetricsRegistry` as labeled series.

        Every series carries a ``device`` label, so multi-device
        aggregation happens in the registry (grouped, never inferred
        from completion order) — the labeled replacement for summing
        ad-hoc per-device structs.
        """
        dev = str(device)
        for kernel in self.tensor_ops_raw:
            registry.inc(
                "epi4_tensor_ops_total",
                self.tensor_ops_raw[kernel],
                form="raw", kernel=kernel, device=dev,
            )
            registry.inc(
                "epi4_tensor_ops_total",
                self.tensor_ops_padded[kernel],
                form="padded", kernel=kernel, device=dev,
            )
        registry.inc("epi4_combine_bit_ops_total", self.combine_bit_ops, device=dev)
        registry.inc("epi4_pairwise_ops_total", self.pairwise_ops, device=dev)
        registry.inc("epi4_score_cells_total", self.score_cells, device=dev)
        registry.inc("epi4_transfer_bytes_total", self.transfer_bytes, device=dev)
        registry.inc("epi4_faults_injected_total", self.faults_injected, device=dev)
        for kernel, count in self.launches.items():
            registry.inc(
                "epi4_kernel_launches_total", count, kernel=kernel, device=dev
            )
        # Executed tensor-GEMM launches vs logical problems: the gap is the
        # launch volume the batched round pipeline collapsed.
        for kernel in self.tensor_ops_raw:
            registry.inc(
                "epi4_gemm_launches_total",
                self.launches.get(kernel, 0),
                kernel=kernel, device=dev,
            )
            registry.inc(
                "epi4_gemm_problems_total",
                self.gemm_problems.get(kernel, 0),
                kernel=kernel, device=dev,
            )

    def merge(self, other: "KernelCounters") -> None:
        """Accumulate another device's counters into this one."""
        for key in other.tensor_ops_raw:
            self._ensure_category(key)
            self.tensor_ops_raw[key] += other.tensor_ops_raw[key]
            self.tensor_ops_padded[key] += other.tensor_ops_padded[key]
        self.combine_bit_ops += other.combine_bit_ops
        self.pairwise_ops += other.pairwise_ops
        self.score_cells += other.score_cells
        self.transfer_bytes += other.transfer_bytes
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_evictions += other.cache_evictions
        self.faults_injected += other.faults_injected
        for name, count in other.launches.items():
            self.launches[name] = self.launches.get(name, 0) + count
        for name, count in other.gemm_problems.items():
            self.gemm_problems[name] = self.gemm_problems.get(name, 0) + count


class VirtualGPU:
    """One simulated GPU executing real binary-tensor kernels.

    Args:
        spec: hardware model (see :mod:`repro.device.specs`).
        engine: override the tensor engine (defaults to the spec's native
            kind — the paper's Turing runs use XOR+POPC because that is all
            Turing supports).
        mode: engine execution path (``"dense"`` or ``"packed"``).
        device_id: ordinal within a multi-GPU system.
    """

    def __init__(
        self,
        spec: GPUSpec,
        engine: BinaryTensorEngine | None = None,
        mode: str = "dense",
        device_id: int = 0,
    ) -> None:
        self.spec = spec
        self.engine = engine if engine is not None else make_engine(
            spec.native_engine_kind, mode=mode
        )
        if self.engine.native_op == "and" and not spec.supports_and_popc:
            raise ValueError(
                f"{spec.name} ({spec.arch}) has no native AND+POPC; "
                "use an XOR+POPC engine (paper §3.4)"
            )
        self.device_id = device_id
        self.counters = KernelCounters()

    # ------------------------------------------------------------------ #
    # Kernel launches

    def transfer_to_device(self, nbytes: int) -> None:
        """Account a host-to-device (or back) memory transfer."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self.counters.add_work("transfer_bytes", nbytes)
        self.counters.record_launch("transfer")

    def launch_combine(
        self, planes: BitMatrix, first_offset: int, second_offset: int, block_size: int
    ) -> BitMatrix:
        """``combine`` kernel: AND-combine two SNP blocks (CUDA cores)."""
        out = combine_blocks(planes, first_offset, second_offset, block_size)
        self.counters.add_work("combine_bit_ops", out.n_rows * out.n_bits)
        self.counters.record_launch("combine")
        return out

    def launch_pairwise(self, plane_dot_ops: int) -> None:
        """Account the ``pairwPop`` plane-dot volume (CUDA cores)."""
        self.counters.add_work("pairwise_ops", plane_dot_ops)
        self.counters.record_launch("pairwPop")

    def launch_tensor3(
        self,
        combined: BitMatrix,
        class_planes: BitMatrix,
        t_start: int,
        t_stop: int,
        block_size: int,
    ) -> np.ndarray:
        """``tensorOp_3way`` kernel (tensor cores)."""
        # Imported here: repro.core's package __init__ pulls in the search
        # driver, which imports this module — a cycle at import time.
        from repro.core.threeway import tensorop_3way

        out = tensorop_3way(
            self.engine, combined, class_planes, t_start, t_stop, block_size
        )
        self._account_tensor("tensor3")
        return out

    def launch_tensor4(
        self, combined_wx: BitMatrix, combined_yz: BitMatrix, block_size: int
    ) -> np.ndarray:
        """``tensorOp_4way`` kernel (tensor cores)."""
        from repro.core.fourway import tensorop_4way

        out = tensorop_4way(self.engine, combined_wx, combined_yz, block_size)
        self._account_tensor("tensor4")
        return out

    def launch_tensor4_batch(
        self, combined_wx: BitMatrix, combined_yz_list: list[BitMatrix],
        block_size: int,
    ) -> list[np.ndarray]:
        """Batched ``tensorOp_4way``: one ``wx`` operand against a whole
        round group's ``yz`` operands in a single fused launch."""
        from repro.core.fourway import tensorop_4way_batch

        outs = tensorop_4way_batch(
            self.engine, combined_wx, combined_yz_list, block_size
        )
        self._account_tensor("tensor4")
        return outs

    def launch_plane_gemm(
        self, category: str, a: BitMatrix, b: BitMatrix
    ) -> np.ndarray:
        """Generic binary GEMM launch on tensor cores (e.g. second-order
        plane-by-plane corners), accounted under ``category``."""
        out = self.engine.matmul_popcount(a, b)
        self._account_tensor(category)
        return out

    def account_score_cells(self, n_cells: int) -> None:
        """Account ``applyScore`` work: completed + scored table cells."""
        self.counters.add_work("score_cells", n_cells)
        self.counters.record_launch("applyScore")

    # ------------------------------------------------------------------ #

    def _account_tensor(self, kernel: str) -> None:
        # The engine records one GemmShape per matmul launch (the XOR engine
        # records once per raw GEMM, batched calls once per *fused* launch);
        # drain them into the counters: one launch per shape, `batch`
        # logical problems each.
        for shape in self.engine.last_shapes:
            self.counters.record_tensor_launch(
                kernel,
                shape.fused_ops,
                self.spec.tiles.padded_ops(shape.m, shape.n, shape.k_bits),
                batch=shape.batch,
            )
        self.engine.reset_shapes()

    def __repr__(self) -> str:
        return (
            f"VirtualGPU(id={self.device_id}, spec={self.spec.name!r}, "
            f"engine={self.engine.name})"
        )
