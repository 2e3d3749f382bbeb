"""Exact ATR by exhaustive enumeration (paper Exp-2).

Feasible only on tiny graphs (the paper extracts 150-250-edge
neighbourhood samples); used here to bound greedy's optimality gap in
tests and in the Exp-2-style harness. Combinations go through
:func:`repro.fanout.fan_out`.
"""
from __future__ import annotations

from itertools import combinations

from pyspark.sql import SparkSession

from repro.fanout import fan_out
from repro.truss.local import LocalGraph, TrussState, trussness_gain


def exact_best(
    spark: SparkSession | None,
    g: LocalGraph,
    st: TrussState,
    b: int,
    spark_threshold: int | None = None,
) -> tuple[int, list[int]]:
    """Optimal ``b``-edge anchor set by brute force.

    Returns ``(gain, anchor_ids)`` with deterministic lexicographic
    tie-breaking. A budget above ``m`` is capped at ``m``.
    """
    combos = list(combinations(range(g.m), min(b, g.m)))

    def gain_of(c: tuple[int, ...]) -> int:
        return trussness_gain(g, st, frozenset(c))

    scored = zip(fan_out(spark, combos, gain_of, spark_threshold), combos)
    # ``combinations`` yields combos in lexicographic order and ``max``
    # keeps the first maximum, so ties go to the lexicographically least.
    gain, combo = max(scored, key=lambda t: t[0])
    return gain, list(combo)
