"""Resume identity and durability helpers shared by the round journal.

The paper's largest single-GPU run takes ~14.5 hours; production use needs
to survive pre-emption.  The natural unit of durable progress is the §3.6
work-division unit — one outer (``Wi``) iteration — which
:class:`~repro.core.journal.RoundJournal` commits one frame at a time.
This module holds what the journal, the shard artifacts and the exporters
share: the shape-based search fingerprint that refuses a resume under a
different dataset/configuration, the domain clause that keeps shards'
fingerprints apart, and the directory fsync that makes atomic renames
survive power loss.
"""

from __future__ import annotations

import os


def fsync_directory(dirpath: str | os.PathLike) -> None:
    """fsync a directory so renames within it survive power loss.

    Best-effort on platforms whose directory handles refuse fsync
    (Windows, some network filesystems): failures are swallowed — the
    rename itself is still atomic, only the power-loss *ordering*
    guarantee is weakened, matching the previous behaviour there.
    """
    try:
        fd = os.open(os.fspath(dirpath), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def search_fingerprint(
    n_snps: int,
    n_real_snps: int,
    n_controls: int,
    n_cases: int,
    block_size: int,
    engine_kind: str,
    score_name: str,
    top_k: int,
    partition: str,
    n_gpus: int,
) -> str:
    """Stable identity of a search's dataset shape + configuration.

    Deliberately shape-based (not content-hashed): hashing a multi-GB
    dataset on every resume would defeat the purpose; the guard catches the
    realistic failure mode (resuming with the wrong file or settings).
    """
    return (
        f"M{n_snps}r{n_real_snps}c{n_controls}k{n_cases}B{block_size}"
        f"E{engine_kind}S{score_name}K{top_k}P{partition}G{n_gpus}"
    )


def domain_clause(nb: int, iterations: "list[int] | tuple[int, ...]") -> str:
    """Fingerprint clause identifying a *restricted* outer-iteration domain.

    A sharded run executes only a subset of the ``nb`` outer (``Wi``)
    iterations; its journal must not be confused with another
    shard's (or with a full run's) even when every other configuration
    clause matches.  The clause digests ``nb`` plus the sorted iteration
    list, so any difference in the domain yields a different fingerprint
    and resume from the wrong file is refused with the standard
    fingerprint-mismatch error.

    An unrestricted domain (all ``nb`` iterations) returns ``""`` so that
    full-run fingerprints are unchanged from previous releases.
    """
    import hashlib

    domain = sorted(int(i) for i in iterations)
    if domain == list(range(nb)):
        return ""
    spec = f"{nb}:" + ",".join(str(i) for i in domain)
    return "+W" + hashlib.sha256(spec.encode("ascii")).hexdigest()[:12]
