"""AKT: anchored k-truss by *vertex* anchoring (Zhang et al., ICDE'18).

The comparison baseline of paper Exp-9 / Table V. For a fixed ``k``,
anchoring a vertex ``v`` keeps every edge incident to ``v`` in the
``k``-truss computation regardless of its support (the anchored
``k``-truss of [2]); AKT greedily selects ``b`` vertices maximising
*its own* objective — the number of ``(k-1)``-trussness edges retained
in the anchored ``k``-truss, protected edges included (Fig. 1 of the
ATR paper: "anchoring vertex v8 ensures that edges (v3,v8) and (v4,v8)
remain in the 4-truss").

The ATR paper then *measures* that choice with its own metric,
trussness gain, where — exactly as Definition 4 sums over ``E \\ A`` —
artificially protected edges (incident to an anchored vertex) do not
count as genuine gain: only edges lifted into the ``k``-truss by
cascaded support do. This objective/metric split is what Table V
reports and is the root of AKT's poor ratios there: AKT's greedy
choice optimises coverage by protection, not global trussness.

Candidate vertices are restricted to endpoints of ``(k-1)``-trussness
edges (as in [2]); marginal gains go through
:func:`repro.fanout.fan_out`.
"""
from __future__ import annotations

from collections import deque

from pyspark.sql import SparkSession

from repro.fanout import fan_out
from repro.truss.local import LocalGraph, TrussState


def anchored_ktruss_counts(
    g: LocalGraph, st: TrussState, k: int, anchored_vertices: frozenset[int]
) -> tuple[int, int]:
    """``(objective, measured_gain)`` of a vertex-anchor set at level ``k``.

    Runs the anchored ``k``-truss fixpoint on the subgraph of edges
    with ``t(e) >= k-1`` (edges below can neither join nor support a
    ``k``-truss, so the restriction is exact). Protected edges
    (incident to an anchored vertex) are never peeled.

    * ``objective``  — all retained ``(k-1)``-trussness edges
      (AKT's own selection criterion, protection included);
    * ``measured_gain`` — retained ``(k-1)``-trussness edges that are
      *not* protected (the ATR paper's trussness-gain measurement).
    """
    t, tri, ends = st.t_list, g.tri, g.edges.tolist()
    live = {e for e in range(g.m) if t[e] >= k - 1}

    def protected(e: int) -> bool:
        u, v = ends[e]
        return u in anchored_vertices or v in anchored_vertices

    # Queue-based peel: support within `live` computed once, then
    # decremented as edges fall — same fixpoint as loop-until-stable
    # but O(m * deg) instead of quadratic.
    sup: dict[int, int] = {}
    for e in live:
        sup[e] = sum(1 for e1, e2 in tri[e] if e1 in live and e2 in live)
    queue = deque(e for e in live if sup[e] < k - 2 and not protected(e))
    queued = set(queue)
    while queue:
        e = queue.popleft()
        queued.discard(e)
        if e not in live or sup[e] >= k - 2 or protected(e):
            continue
        live.discard(e)
        for e1, e2 in tri[e]:
            if e1 in live and e2 in live:
                for p in (e1, e2):
                    sup[p] -= 1
                    if sup[p] < k - 2 and not protected(p) and p not in queued:
                        queue.append(p)
                        queued.add(p)
    frontier = [e for e in live if t[e] == k - 1]
    objective = len(frontier)
    measured = sum(1 for e in frontier if not protected(e))
    return objective, measured


def anchored_ktruss_gain(
    g: LocalGraph, st: TrussState, k: int, anchored_vertices: frozenset[int]
) -> int:
    """Measured (cascade-only) trussness gain of a vertex-anchor set."""
    return anchored_ktruss_counts(g, st, k, anchored_vertices)[1]


def akt_greedy(
    spark: SparkSession | None,
    g: LocalGraph,
    st: TrussState,
    k: int,
    b: int,
    spark_threshold: int | None = None,
    cand_cap: int = 40,
) -> tuple[int, list[int]]:
    """Greedy ``b`` anchor vertices for level ``k``.

    Selection maximises AKT's own objective; the returned gain is the
    ATR-measured (cascade-only) trussness gain of the selected set.
    Returns ``(measured_gain, vertices)``.

    ``cand_cap`` bounds the per-round candidate pool to the vertices
    incident to the most ``(k-1)``-trussness edges — the standard
    frontier-degree pruning; vertices touching few frontier edges
    cannot retain many of them.
    """
    frontier = {e for e in range(g.m) if int(st.t[e]) == k - 1}
    incid: dict[int, int] = {}
    for e in frontier:
        for v in g.edge(e):
            incid[v] = incid.get(v, 0) + 1
    cand_vertices = sorted(
        incid, key=lambda v: (-incid[v], v)
    )[: max(cand_cap, b)]
    anchored: set[int] = set()
    for _ in range(b):
        cands = [v for v in cand_vertices if v not in anchored]
        if not cands:
            break

        def objective_of(v: int) -> int:
            return anchored_ktruss_counts(g, st, k, frozenset(anchored | {v}))[0]

        scored = dict(zip(cands, fan_out(spark, cands, objective_of, spark_threshold)))
        v_best = min(scored, key=lambda v: (-scored[v], v))
        anchored.add(v_best)
    gain = anchored_ktruss_gain(g, st, k, frozenset(anchored))
    return gain, sorted(anchored)


def akt_sweep(
    spark: SparkSession | None,
    g: LocalGraph,
    st: TrussState,
    b: int,
    k_values: list[int] | None = None,
) -> dict[int, int]:
    """AKT measured gain for every ``k`` (default ``3..kmax+1``), Exp-9."""
    ks = k_values or list(range(3, st.kmax + 2))
    return {k: akt_greedy(spark, g, st, k, b)[0] for k in ks}
