"""Greedy anchor selection: BASE, BASE+ and GAS (paper Algorithms 2 & 6).

All three methods run the same outer greedy loop — in each of ``b``
rounds, evaluate the trussness gain of every non-anchored candidate
edge and anchor the best (ties broken by smallest edge id, so all
methods produce identical anchor sets) — and differ only in how a
candidate is evaluated:

* **BASE** re-runs a full truss decomposition of ``G_{A∪{e}}`` per
  candidate (Algorithm 2): ``O(m^{1.5})`` per candidate.
* **BASE+** evaluates a candidate with the upward-route + support-check
  follower kernel (Algorithm 3): only the route neighbourhood is
  visited.
* **GAS** additionally caches each candidate's follower result together
  with its *read-set* and recomputes only candidates whose read edges
  changed ``(t, l, anchored)`` state since they were computed — an
  exact-by-construction realisation of Algorithm 6's reuse rule. The
  paper's truss-component tree is rebuilt each round to report the
  FR / PR / NR reuse statistics of Exp-8 (see DESIGN.md for why the
  executable reuse test is the read-set, not the tree).

Candidate evaluation is the hot loop and is *embarrassingly parallel
across candidates*, so it goes through :func:`repro.fanout.fan_out`:
on the driver by default, or, given a ``spark_threshold`` that a
round's candidate count reaches, as one Spark task per core (graph and
decomposition state in the closure).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from pyspark.sql import SparkSession

from repro.core.followers import FollowerResult, get_followers
from repro.core.tree import build_tree, classify_reuse, expired_nodes, node_signature
from repro.fanout import fan_out, ships
from repro.truss.local import LocalGraph, TrussState, decompose, trussness_gain


@dataclass
class RoundStats:
    """Per-round diagnostics of one greedy iteration."""

    best: int
    gain: int
    evaluated: int
    reused: int
    seconds: float
    reuse_classes: dict[str, int] = field(default_factory=dict)


@dataclass
class GreedyResult:
    """Outcome of a greedy run."""

    method: str
    anchors: list[int]
    rounds: list[RoundStats]
    total_gain: int
    seconds: float
    anchor_edges: list[tuple[int, int]] = field(default_factory=list)


def _eval_followers_local(
    g: LocalGraph, st: TrussState, cand: list[int]
) -> dict[int, FollowerResult]:
    return {e: get_followers(g, st, e) for e in cand}


def _eval_followers_spark(
    spark: SparkSession, g: LocalGraph, st: TrussState, cand: list[int]
) -> dict[int, FollowerResult]:
    """The follower kernel over ``cand`` as one Spark fan-out job."""
    return dict(zip(cand, fan_out(spark, cand, partial(get_followers, g, st), spark_threshold=0)))


def _eval_gains_by_decomp(
    spark: SparkSession | None,
    g: LocalGraph,
    st: TrussState,
    anchors: frozenset[int],
    cand: list[int],
    spark_threshold: int | None = None,
) -> dict[int, int]:
    """BASE candidate evaluation: full decomposition per candidate.

    Each candidate's gain is ``TG(A∪{e})`` by a fresh decomposition,
    against ``st``, the decomposition of ``G_A``.
    """
    gains = fan_out(
        spark, cand, lambda e: trussness_gain(g, st, anchors | {e}), spark_threshold
    )
    return dict(zip(cand, gains))


def _pick_best(gains: dict[int, int]) -> tuple[int, int]:
    """Argmax gain, smallest edge id on ties — shared by all methods."""
    best = min(gains, key=lambda e: (-gains[e], e))
    return best, gains[best]


def run_greedy(
    spark: SparkSession | None,
    g: LocalGraph,
    b: int,
    method: str = "gas",
    spark_threshold: int | None = None,
    track_tree: bool = False,
) -> GreedyResult:
    """Run ``b`` rounds of greedy anchoring with the given method.

    ``method`` in ``{"base", "base+", "gas"}``. ``spark_threshold`` is
    passed to :func:`~repro.fanout.fan_out`: ``None`` (default) keeps
    every round on the driver; a count ``n`` evaluates rounds of fewer
    than ``n`` candidates on the driver and the others on Spark (0
    forces Spark; tests do). With ``spark`` ``None`` every evaluation
    runs on the driver. ``track_tree`` additionally rebuilds the truss
    component tree per round and logs the FR/PR/NR reuse classes (costs
    one tree build per round).
    """
    if method not in {"base", "base+", "gas"}:
        raise ValueError(f"unknown method {method!r}")
    if b < 0:
        raise ValueError(f"budget b must be >= 0, got {b}")
    t_start = time.perf_counter()
    anchors: set[int] = set()
    st = decompose(g, frozenset())
    st0_t = st.t.copy()
    cache: dict[int, FollowerResult] = {}
    rounds: list[RoundStats] = []
    tree = build_tree(g, st) if track_tree else None
    sig = node_signature(tree, st) if track_tree else None

    for _ in range(min(b, g.m)):
        r_start = time.perf_counter()
        cand = [e for e in range(g.m) if e not in anchors]
        if not cand:
            break
        if method == "base":
            gains = _eval_gains_by_decomp(
                spark, g, st, frozenset(anchors), cand, spark_threshold
            )
            evaluated, reused = len(cand), 0
        else:
            if method == "gas":
                stale = [e for e in cand if e not in cache]
            else:
                stale = cand
                cache.clear()
            fresh = (
                _eval_followers_spark(spark, g, st, stale)
                if ships(spark, len(stale), spark_threshold)
                else _eval_followers_local(g, st, stale)
            )
            cache.update(fresh)
            gains = {e: cache[e].gain for e in cand}
            evaluated, reused = len(stale), len(cand) - len(stale)

        best, gain = _pick_best(gains)
        anchors.add(best)
        prev_t, prev_l = st.t.copy(), st.layer.copy()
        st = decompose(g, frozenset(anchors))

        reuse_classes: dict[str, int] = {}
        if track_tree:
            new_tree = build_tree(g, st)
            new_sig = node_signature(new_tree, st)
            es = expired_nodes(sig, new_sig)
            cls = classify_reuse(g, st, new_tree, es)
            for v in cls.values():
                reuse_classes[v] = reuse_classes.get(v, 0) + 1
            tree, sig = new_tree, new_sig

        if method == "gas":
            changed = set(np.flatnonzero((st.t != prev_t) | (st.layer != prev_l)).tolist())
            changed.add(best)
            cache.pop(best, None)
            if changed:
                for e in [e for e, fr in cache.items() if fr.reads & changed]:
                    del cache[e]
        rounds.append(
            RoundStats(
                best=best,
                gain=gain,
                evaluated=evaluated,
                reused=reused,
                seconds=time.perf_counter() - r_start,
                reuse_classes=reuse_classes,
            )
        )

    picked = [r.best for r in rounds]
    keep = np.ones(g.m, dtype=bool)
    keep[picked] = False
    return GreedyResult(
        method=method,
        anchors=picked,
        rounds=rounds,
        total_gain=int((st.t[keep] - st0_t[keep]).sum()),
        seconds=time.perf_counter() - t_start,
        anchor_edges=[g.edge(e) for e in picked],
    )


def get_followers_by_decomp(
    g: LocalGraph, st: TrussState, anchors: frozenset[int], x: int
) -> frozenset[int]:
    """BASE's candidate evaluation: followers via full re-decomposition."""
    after = decompose(g, anchors | {x})
    up = after.t > st.t
    up[[x, *anchors]] = False
    return frozenset(np.flatnonzero(up).tolist())
