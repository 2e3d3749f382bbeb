"""Upward-route sizes (paper Exp-7 / Table IV, and the Tur baseline).

The *upward-route size* of an edge is the number of upward-route
candidate followers it would have as an anchor — the size of the search
space Algorithm 3 actually visits. Table IV reports min / max / sum /
average over all edges; the Tur baseline samples anchors from the top
20% of edges by this size.
"""
from __future__ import annotations

from functools import partial

import numpy as np
from pyspark.sql import SparkSession

from repro.core.followers import upward_candidates
from repro.fanout import fan_out
from repro.truss.local import LocalGraph, TrussState


def route_size(g: LocalGraph, st: TrussState, x: int) -> int:
    """Number of upward-route candidates of edge ``x``."""
    cands, _reads = upward_candidates(g, st, x)
    return sum(len(c) for c in cands.values())


def route_sizes_spark(
    spark: SparkSession | None,
    g: LocalGraph,
    st: TrussState,
    spark_threshold: int | None = None,
) -> np.ndarray:
    """Upward-route size of every edge, fanned out by :func:`fan_out`.

    ``spark_threshold`` is passed to :func:`~repro.fanout.fan_out`; by
    default, and when ``spark`` is ``None``, it runs on the driver.
    """
    return np.array(
        fan_out(spark, range(g.m), partial(route_size, g, st), spark_threshold),
        dtype=np.int64,
    )


def route_stats(sizes: np.ndarray) -> dict[str, float]:
    """Table IV row: min / max / sum / average of the route sizes."""
    return {
        "min": int(sizes.min()) if len(sizes) else 0,
        "max": int(sizes.max()) if len(sizes) else 0,
        "sum": int(sizes.sum()),
        "avg": float(sizes.mean()) if len(sizes) else 0.0,
    }
