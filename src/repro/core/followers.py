"""Follower computation for a single anchor edge (paper Algorithm 3).

Anchoring edge ``x`` (support := +inf) can raise each other edge's
trussness by at most 1 (Lemma 1), so the trussness gain of ``{x}`` is
the number of *followers* ``F(x, G)``. This module computes followers
with the paper's two pruning ideas:

1. **Upward-route candidates** (Lemma 2): only edges reachable from
   ``x``'s neighbour-edges along same-trussness, deletion-order-
   increasing routes can be followers. :func:`upward_candidates`
   enumerates them per trussness level.
2. **Support check**: within each level ``i``, a candidate survives iff
   it keeps ``>= i-1`` *effective triangles* — triangles whose partner
   edges are the anchor, an anchored edge, an edge of trussness ``> i``
   (already in every ``(i+1)``-truss), or another surviving candidate.
   We compute the maximal surviving set by peeling to a fixpoint, which
   is an equivalent batch formulation of Algorithm 3's
   survive/eliminate/Retract bookkeeping (the fixpoint is unique, so
   processing order does not matter).

Every edge whose ``(t, l, anchored)`` state the computation *reads* is
recorded in ``reads`` — the GAS reuse machinery invalidates a cached
result iff one of its read edges changed, which makes result reuse
provably exact.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.truss.local import INF_T, LocalGraph, TrussState


@dataclass
class FollowerResult:
    """Followers of one prospective anchor plus reuse bookkeeping."""

    x: int
    followers: frozenset[int]
    candidates: frozenset[int]  # all upward-route candidates (route edges)
    reads: frozenset[int]  # every edge whose state was consulted

    @property
    def gain(self) -> int:
        """Trussness gain of anchoring ``x`` alone (= #followers, Lemma 1)."""
        return len(self.followers)


def _roots(
    g: LocalGraph, st: TrussState, x: int, reads: set[int]
) -> dict[int, list[int]]:
    """Neighbour-edges of ``x`` satisfying Lemma 2 condition (i), by level.

    Condition (i): ``t(e) > t(x)``, or ``t(e) = t(x)`` and
    ``l(e) > l(x)``. Anchored edges are skipped (they have no trussness
    to gain).
    """
    t, lay = st.t_list, st.layer_list
    tx, lx = t[x], lay[x]
    roots: dict[int, list[int]] = {}
    for pair in g.tri[x]:
        for e in pair:
            # x is never its own partner, so ``reads`` doubles as the seen-set.
            if e in reads:
                continue
            reads.add(e)
            te = t[e]
            if te >= INF_T:
                continue
            if te > tx or (te == tx and lay[e] > lx):
                roots.setdefault(te, []).append(e)
    return roots


def upward_candidates(
    g: LocalGraph, st: TrussState, x: int
) -> tuple[dict[int, set[int]], set[int]]:
    """Upward-route candidate followers of ``x``, grouped by trussness.

    Per level ``i``: search from the level-``i`` roots, expanding from
    edge ``e`` to any neighbour-edge ``e'`` with ``t(e') = i`` and
    ``e < e'`` in deletion order (Definition 7). Returns the per-level
    candidate sets and the read-set of consulted edges.
    """
    t, lay, tri = st.t_list, st.layer_list, g.tri
    reads: set[int] = {x}
    roots = _roots(g, st, x, reads)
    cands: dict[int, set[int]] = {}
    for i, rs in roots.items():
        # Every level-i edge has t = i, so ``e < e'`` reduces to l(e) <= l(e').
        level: set[int] = set(rs)
        stack = list(rs)
        while stack:
            e = stack.pop()
            le = lay[e]
            for e1, e2 in tri[e]:
                if e1 not in level:
                    reads.add(e1)
                    if t[e1] == i and e1 != x and le <= lay[e1]:
                        level.add(e1)
                        stack.append(e1)
                if e2 not in level:
                    reads.add(e2)
                    if t[e2] == i and e2 != x and le <= lay[e2]:
                        level.add(e2)
                        stack.append(e2)
        cands[i] = level
    return cands, reads


def _peel_level(
    g: LocalGraph, st: TrussState, i: int, cand: set[int], fixed: frozenset[int]
) -> set[int]:
    """Maximal subset of level-``i`` candidates passing the support check.

    An edge survives iff it has ``>= i-1`` effective triangles, where a
    partner edge counts iff it has trussness ``> i`` (anchored edges
    included), is itself a surviving candidate, or is in ``fixed``
    (edges held in place, such as the anchor ``x``). Peeling to the
    greatest fixpoint reproduces Algorithm 3's
    survived/eliminated/Retract outcome exactly.

    Each candidate's effective triangles are counted once, against the
    full candidate set; a dropped candidate then decrements each
    surviving partner whose third edge is still effective (the
    support-decrement peel of Wang & Cheng, PVLDB 2012). The peel
    consults only partners of candidates, and :func:`upward_candidates`
    already read every partner of every candidate it expanded, so the
    peel adds nothing to the read-set.
    """
    t, tri = st.t_list, g.tri
    survivors = set(cand)
    need = i - 1
    count: dict[int, int] = {}
    drop: list[int] = []
    for e in survivors:
        s = 0
        for e1, e2 in tri[e]:
            # Anchored edges have t = INF_T > i.
            if (t[e1] > i or e1 in survivors or e1 in fixed) and (
                t[e2] > i or e2 in survivors or e2 in fixed
            ):
                s += 1
        count[e] = s
        if s < need:
            drop.append(e)
    while drop:
        e = drop.pop()
        survivors.discard(e)
        for e1, e2 in tri[e]:
            if e1 in survivors and (t[e2] > i or e2 in survivors or e2 in fixed):
                count[e1] -= 1
                if count[e1] == need - 1:
                    drop.append(e1)
            if e2 in survivors and (t[e1] > i or e1 in survivors or e1 in fixed):
                count[e2] -= 1
                if count[e2] == need - 1:
                    drop.append(e2)
    return survivors


def get_followers(g: LocalGraph, st: TrussState, x: int) -> FollowerResult:
    """``F(x, G_A)`` — the exact follower set of anchoring edge ``x``.

    ``st`` must be the decomposition of the current (possibly already
    anchored) graph; ``x`` must not itself be anchored.
    """
    cands, reads = upward_candidates(g, st, x)
    fixed = frozenset({x})
    followers: set[int] = set()
    all_cands: set[int] = set()
    for i, cand in cands.items():
        all_cands |= cand
        followers |= _peel_level(g, st, i, cand, fixed)
    return FollowerResult(
        x=x,
        followers=frozenset(followers),
        candidates=frozenset(all_cands),
        reads=frozenset(reads),
    )
