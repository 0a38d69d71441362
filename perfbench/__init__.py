"""Wall-clock benchmark of the exhaustive fourth-order search.

Run from the repository root::

    python3 perfbench/run.py --workload score_n2048 --seed 7 --seconds 28 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and what each
per-layer number is expected to move.
"""
