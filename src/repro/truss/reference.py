"""Naive, definition-level truss oracle for tests.

Deliberately written from the *definitions* (Definition 2/3) rather
than the peeling kernel, so that :func:`repro.truss.local.decompose`
is checked against an independent code path that reads triangles
through :meth:`~repro.truss.local.LocalGraph.triangles_of`, not the CSR
substrate: ``k``-trusses are computed by fixpoint filtering for each
``k`` separately, trussness is the largest ``k`` whose truss contains
the edge, and layers come from a literal synchronous peel.
"""
from __future__ import annotations

from repro.truss.local import INF_T, LocalGraph


def ktruss_edge_set(
    g: LocalGraph, k: int, anchors: frozenset[int] = frozenset()
) -> set[int]:
    """Edge ids of the (anchored) ``k``-truss of ``g``.

    Iteratively removes non-anchor edges with fewer than ``k-2``
    triangles formed with surviving edges, until stable. Anchored edges
    are retained unconditionally (``sup = +inf``).
    """
    live = set(range(g.m))
    changed = True
    while changed:
        changed = False
        for e in sorted(live):
            if e in anchors:
                continue
            s = sum(
                1
                for _w, e1, e2 in g.triangles_of(e)
                if e1 in live and e2 in live
            )
            if s < k - 2:
                live.discard(e)
                changed = True
    return live


def trussness_naive(
    g: LocalGraph, anchors: frozenset[int] = frozenset()
) -> dict[int, int]:
    """Trussness of every edge by definition; anchors get ``INF_T``."""
    t = {e: 2 for e in range(g.m)}
    k = 3
    while True:
        live = ktruss_edge_set(g, k, anchors)
        if not (live - anchors):
            break
        for e in live:
            t[e] = k
        k += 1
    for e in anchors:
        t[e] = INF_T
    return t


def layers_naive(g: LocalGraph, anchors: frozenset[int] = frozenset()) -> dict[int, int]:
    """Layer ``l(e)`` of every edge by a synchronous peel; anchors get 0.

    For each ``k`` in turn, every round removes *all* live non-anchor
    edges with at most ``k-2`` triangles among live edges, counted
    before any of them is removed; the round index within ``k`` is the
    layer of the edges it removes.
    """
    live = set(range(g.m))

    def live_support(e: int) -> int:
        return sum(1 for _w, e1, e2 in g.triangles_of(e) if e1 in live and e2 in live)

    layer = dict.fromkeys(anchors, 0)
    k = 2
    while live - anchors:
        rnd = 0
        while True:
            batch = {e for e in live - anchors if live_support(e) <= k - 2}
            if not batch:
                break
            rnd += 1
            layer.update(dict.fromkeys(batch, rnd))
            live -= batch
        k += 1
    return layer


def followers_naive(
    g: LocalGraph, x: int, anchors: frozenset[int] = frozenset()
) -> set[int]:
    """``F(x, G_A)`` by brute force: decompose with and without ``x``."""
    before = trussness_naive(g, anchors)
    after = trussness_naive(g, anchors | {x})
    return {
        e
        for e in range(g.m)
        if e != x and e not in anchors and after[e] > before[e]
    }
