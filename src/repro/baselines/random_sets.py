"""Randomised baselines Rand / Sup / Tur (paper Section IV-A).

Each baseline draws ``b`` anchor edges at random from a pool, repeats
for ``trials`` independent draws, and reports the best trussness gain
seen (the paper uses 2000 trials; our harness scales this down — see
EXPERIMENTS.md):

* **Rand** — pool = all edges;
* **Sup**  — pool = top 20% of edges by support;
* **Tur**  — pool = top 20% of edges by upward-route size.

Evaluating a trial is a full anchored truss decomposition; the trials
go through :func:`repro.fanout.fan_out` (one local-kernel decomposition
per trial, graph in the task closure when they ship to Spark).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.fanout import fan_out
from repro.truss.local import LocalGraph, TrussState, decompose


def top_frac_pool(scores: np.ndarray, frac: float = 0.2) -> np.ndarray:
    """Edge ids of the top ``frac`` fraction by score (at least 1 edge)."""
    m = len(scores)
    k = max(1, int(m * frac))
    return np.argsort(-scores, kind="stable")[:k]


def evaluate_anchor_set(g: LocalGraph, st: TrussState, anchors: frozenset[int]) -> int:
    """``TG(A, G)`` of an arbitrary anchor set by full decomposition."""
    after = decompose(g, anchors)
    keep = np.ones(g.m, dtype=bool)
    keep[list(anchors)] = False
    return int((after.t[keep] - st.t[keep]).sum())


def random_baseline(
    spark: SparkSession | None,
    g: LocalGraph,
    st: TrussState,
    b: int,
    pool: np.ndarray,
    trials: int,
    seed: int = 0,
    spark_threshold: int | None = None,
) -> tuple[int, list[int]]:
    """Best trussness gain over ``trials`` random ``b``-subsets of ``pool``.

    Returns ``(best_gain, best_anchor_ids)``. Deterministic in ``seed``:
    trial ``i`` uses rng ``seed * 10^6 + i`` so the distributed and
    serial paths draw identical sets, and ties go to the lowest trial on
    both. ``spark_threshold`` is passed to :func:`~repro.fanout.fan_out`.
    """
    b_eff = min(b, len(pool))

    def run_trial(i: int) -> tuple[int, list[int]]:
        rng = np.random.default_rng(seed * 1_000_000 + i)
        pick = rng.choice(pool, size=b_eff, replace=False)
        ids = [int(v) for v in pick]
        return evaluate_anchor_set(g, st, frozenset(ids)), ids

    results = fan_out(spark, range(trials), run_trial, spark_threshold)
    best_gain, best_ids = max(results, key=lambda t: t[0])
    return best_gain, best_ids
