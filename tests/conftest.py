"""Shared fixtures and hypothesis profile for the test suite."""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.journal import _read_frame
from repro.datasets import Dataset, generate_random_dataset
from tests.score_oracle import score_round_dense

# Single-core CI-friendly hypothesis profile: enough examples to matter,
# bounded runtime.  A deeper profile is available for scheduled fuzz jobs
# via ``EPI4TENSOR_HYPOTHESIS_PROFILE=deep``.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "deep",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(
    os.environ.get("EPI4TENSOR_HYPOTHESIS_PROFILE", "repro")
)


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """13 SNPs x 240 samples — padding exercised at every block size."""
    return generate_random_dataset(13, 240, seed=7)


@pytest.fixture(scope="session")
def medium_dataset() -> Dataset:
    """24 SNPs x 400 samples — multiple blocks at B=4/8."""
    return generate_random_dataset(24, 400, seed=19)


@pytest.fixture()
def rewind_journal():
    """``rewind(path, n_commits)``: truncate a real run's journal after its
    header plus ``n_commits`` commit frames — the exact on-disk state of a
    crash right after that commit.  Returns the ``wi`` ids kept, in
    commit order."""

    def rewind(path: str | os.PathLike, n_commits: int) -> list[int]:
        with open(path, "rb") as fh:
            data = fh.read()
        kept: list[int] = []
        frame = _read_frame(data, 0)  # the header
        assert frame is not None, f"{path} has no journal header"
        offset = frame[1]
        for _ in range(n_commits):
            frame = _read_frame(data, offset)
            assert frame is not None and frame[0]["type"] == "commit", (
                f"{path} holds fewer than {n_commits} commit frames"
            )
            kept.append(frame[0]["wi"])
            offset = frame[1]
        with open(path, "r+b") as fh:
            fh.truncate(offset)
        return kept

    return rewind


@pytest.fixture()
def dense_score_oracle(monkeypatch):
    """Context manager: searches run inside it score every round through
    the full-grid oracle (:func:`tests.score_oracle.score_round_dense`)
    instead of the fused :func:`~repro.core.apply_score.score_round`."""

    @contextmanager
    def oracle():
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.core.search.score_round", score_round_dense
            )
            yield

    return oracle


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_genotypes(
    rng: np.random.Generator, n_snps: int, n_samples: int
) -> np.ndarray:
    """Uniform random genotype matrix (helper usable from any test)."""
    return rng.integers(0, 3, size=(n_snps, n_samples), dtype=np.int8)
