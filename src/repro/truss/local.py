"""Local (driver / executor-side) truss kernel.

The ATR algorithms evaluate thousands of candidate anchors per greedy
round, each by a truss decomposition or a follower search. This module
is the one truss substrate they all run on: a graph with stable edge
ids, its triangle incidence, and a synchronous-peeling truss
decomposition (Wang & Cheng, PVLDB 2012) that supports anchored edges
(``sup = +inf``) and reports the layer index ``l(e)`` that the paper's
upward-route machinery needs. The same code runs on the driver and,
when :func:`repro.fanout.fan_out` ships work, inside Spark tasks.

**Triangle-incidence substrate.** :class:`LocalGraph` enumerates every
triangle once, at construction, and stores each edge's partner pairs
``(e1, e2)`` in CSR form: ``tri_pe[tri_ptr[e]:tri_ptr[e+1]]`` are the
pairs of edge ``e``, so ``support()`` is ``diff(tri_ptr)``. These two
numpy arrays (plus the edge array) are all a graph pickles as, which
keeps the Spark task closure small. Each process derives the per-edge
list-of-tuples view :attr:`LocalGraph.tri` from them on first use, with
one shared ``int`` object per edge id; the adjacency dicts are likewise
rebuilt on demand. Every edge kernel (decomposition, follower search,
the truss component tree, AKT's anchored peel) reads triangles from the
substrate. Only :meth:`LocalGraph.triangles_of` still intersects the
adjacency dicts per call: it is the path of the test oracle
:mod:`repro.truss.reference`, which stays independent of the substrate
it checks.

The synchronous-batch semantics (all edges with ``sup <= k-2`` removed
together form one *layer*) are checked in tests against the
definition-level peel :func:`repro.truss.reference.layers_naive`, and
the triangles and support against a DuckDB SQL enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pandas as pd

#: Sentinel trussness of an anchored edge: anchors live in every truss.
INF_T = 1 << 30


def _rows(ptr: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows of the edges ``ids``: ``(row indices, owning edge per row)``."""
    starts = ptr[ids]
    counts = ptr[ids + 1] - starts
    total = int(counts.sum())
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(total, dtype=np.int64) + offsets, np.repeat(ids, counts)


def _mask(m: int, ids) -> np.ndarray:
    """Boolean mask of length ``m``, true at the edge ids ``ids``.

    Raises ``ValueError`` for an id outside ``[0, m)``: numpy would
    wrap a negative id onto another edge and fail on a large one.
    """
    ids = list(ids)
    bad = sorted(i for i in ids if not 0 <= i < m)
    if bad:
        raise ValueError(f"edge ids must lie in [0, {m}), got {bad}")
    out = np.zeros(m, dtype=bool)
    out[ids] = True
    return out


class LocalGraph:
    """Canonical edge list with stable edge ids and its triangle incidence.

    Edge id ``i`` is the row index of the edge in the canonical
    (``src<dst``, sorted, deduped) frame — deterministic for a given
    edge set, which makes greedy tie-breaks and tree-node ids stable.
    """

    #: Attributes derived per process and left out of the pickle.
    _DERIVED = ("tri", "adj", "eid")

    def __init__(self, edges_pdf: pd.DataFrame):
        from repro.graphs.edges import canonical_edges

        pdf = canonical_edges(edges_pdf)
        self.edges: np.ndarray = pdf.to_numpy(dtype=np.int64).reshape(-1, 2)  # (m, 2)
        self.m: int = len(self.edges)
        self.n: int = len(np.unique(self.edges))
        self.tri_ptr, self.tri_pe = self._triangle_incidence()

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in self._DERIVED}

    def _triangle_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge's triangle partner pairs, as CSR ``(tri_ptr, tri_pe)``.

        Triangles are enumerated once, vectorised: each edge is oriented
        from its lower- to its higher-ranked endpoint (rank = degree,
        then id), and each pair of out-edges ``u->v, u->w`` of a vertex
        closes a triangle iff ``{v, w}`` is an edge. Each triangle then
        yields one row per edge. A row's pair is ordered as
        :meth:`triangles_of` yields it — first the partner touching the
        endpoint of smaller degree (``src`` on ties) — and an edge's rows
        are sorted by that first partner, the order ``triangles_of``
        visits them in.
        """
        m = self.m
        verts, vi = np.unique(self.edges, return_inverse=True)
        a, b = vi.reshape(-1, 2).T  # compact endpoints, a < b
        n = len(verts)
        deg = np.bincount(vi.ravel(), minlength=n)
        keys = a * n + b  # sorted, since the edges are
        lo_is_a = (deg[a] < deg[b]) | ((deg[a] == deg[b]) & (a < b))
        lo = np.where(lo_is_a, a, b)
        hi = np.where(lo_is_a, b, a)
        # Out-edges grouped by their low endpoint.
        order = np.argsort(lo, kind="stable")
        lo_s, hi_s = lo[order], hi[order]
        end = np.searchsorted(lo_s, lo_s, side="right")
        # Pair out-edge j with every later out-edge of the same vertex.
        later = end - np.arange(m) - 1
        j = np.repeat(np.arange(m), later)
        k = np.arange(len(j)) - np.repeat(np.cumsum(later) - later, later) + j + 1
        v, w = hi_s[j], hi_s[k]
        vw = np.minimum(v, w) * n + np.maximum(v, w)
        pos = np.searchsorted(keys, vw)
        closed = pos < m
        closed[closed] = keys[pos[closed]] == vw[closed]
        e_uv, e_uw, e_vw = order[j[closed]], order[k[closed]], pos[closed]
        u, v, w = lo_s[j[closed]], v[closed], w[closed]

        def rows(x, y, e_x, e_y):
            # Edge {x, y} with partner e_x touching x and e_y touching y.
            x_first = (deg[x] < deg[y]) | ((deg[x] == deg[y]) & (x < y))
            return np.where(x_first, e_x, e_y), np.where(x_first, e_y, e_x)

        own = np.concatenate([e_uv, e_uw, e_vw])
        p1, p2 = (
            np.concatenate(parts)
            for parts in zip(
                rows(u, v, e_uw, e_vw), rows(u, w, e_uv, e_vw), rows(v, w, e_uv, e_uw)
            )
        )
        srt = np.lexsort((p1, own))
        tri_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(own, minlength=m), out=tri_ptr[1:])
        tri_pe = np.stack([p1[srt], p2[srt]], axis=1).astype(np.int32)
        return tri_ptr, tri_pe

    @cached_property
    def tri(self) -> list[list[tuple[int, int]]]:
        """Per-edge triangle partner pairs: ``tri[e]`` lists ``(e1, e2)``.

        Built from the CSR arrays on first use in each process, one
        edge's slice at a time, so no whole-graph intermediate list is
        held. Every pair refers to one shared ``int`` object per edge id.
        """
        ids = list(range(self.m))
        pe, ptr = self.tri_pe, self.tri_ptr.tolist()
        return [
            [(ids[p], ids[q]) for p, q in pe[ptr[i]:ptr[i + 1]].tolist()]
            for i in range(self.m)
        ]

    @cached_property
    def adj(self) -> dict[int, dict[int, int]]:
        """``adj[u][v]``: id of edge ``{u, v}``, for the dict-lookup path."""
        adj: dict[int, dict[int, int]] = {}
        for i, (u, v) in enumerate(self.edges.tolist()):
            adj.setdefault(u, {})[v] = i
            adj.setdefault(v, {})[u] = i
        return adj

    @cached_property
    def eid(self) -> dict[tuple[int, int], int]:
        """``eid[(u, v)]`` (``u < v``): the edge id of a vertex pair."""
        return {(u, v): i for i, (u, v) in enumerate(self.edges.tolist())}

    # -- basic queries -------------------------------------------------
    def edge(self, i: int) -> tuple[int, int]:
        """The (src, dst) pair of edge id ``i``."""
        u, v = self.edges[i]
        return int(u), int(v)

    def edge_id(self, u: int, v: int) -> int:
        """Edge id for an (unordered) vertex pair."""
        return self.eid[(u, v) if u < v else (v, u)]

    def triangles_of(self, i: int):
        """Yield ``(w, e1, e2)`` for each triangle containing edge ``i``.

        ``e1 = (u, w)`` and ``e2 = (v, w)`` are the partner edge ids.
        This intersects the adjacency dicts on every call; it serves the
        test oracle, while the kernels read :attr:`tri`.
        """
        u, v = self.edge(i)
        au, av = self.adj[u], self.adj[v]
        if len(au) > len(av):
            u, v = v, u
            au, av = av, au
        for w, e1 in au.items():
            e2 = av.get(w)
            if e2 is not None:
                yield w, e1, e2

    def support(self) -> np.ndarray:
        """Initial support ``sup(e, G)`` for every edge, as an array."""
        return np.diff(self.tri_ptr)


@dataclass
class TrussState:
    """Result of a truss decomposition.

    ``t[i]`` is the trussness of edge ``i`` (``INF_T`` for anchors) and
    ``layer[i]`` the 1-based synchronous-peeling round within its
    k-hull (0 for anchors). ``(t[i], layer[i]) <= (t[j], layer[j])``
    encodes the paper's ``e_i < e_j`` deletion-order relation. The
    kernels index the plain-list views ``t_list`` / ``layer_list``,
    built on first use in each process and left out of the pickle.
    """

    t: np.ndarray
    layer: np.ndarray
    anchors: frozenset[int] = field(default_factory=frozenset)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("t_list", "layer_list")}

    @cached_property
    def t_list(self) -> list[int]:
        """``t`` as a list of Python ints."""
        return self.t.tolist()

    @cached_property
    def layer_list(self) -> list[int]:
        """``layer`` as a list of Python ints."""
        return self.layer.tolist()

    @property
    def kmax(self) -> int:
        """Largest finite trussness in the graph (2 if the graph is empty)."""
        finite = self.t[self.t < INF_T]
        return int(finite.max()) if len(finite) else 2


def decompose(g: LocalGraph, anchors: frozenset[int] | set[int] = frozenset()) -> TrussState:
    """Truss decomposition with layers (Algorithm 1 + layer bookkeeping).

    Anchored edges are never removed (``sup = +inf`` abstraction); all
    other edges receive ``t(e) = k`` for the ``k`` at which they are
    peeled, and ``l(e)`` = the synchronous round index within that
    k-hull in which they fall. Deterministic for a given (graph,
    anchors) pair.

    Each round is vectorised over the CSR incidence: the batch's rows
    are gathered, and every surviving partner loses one support per
    triangle the batch destroys. A triangle holding two batch edges is
    charged from the smaller one only.
    """
    anchors = frozenset(anchors)
    m = g.m
    ptr, pe = g.tri_ptr, g.tri_pe
    sup = g.support()
    alive = np.ones(m, dtype=bool)
    free = ~_mask(m, anchors)
    in_batch = np.zeros(m, dtype=bool)
    t = np.full(m, 2, dtype=np.int64)
    layer = np.zeros(m, dtype=np.int64)
    k = 2
    while (alive & free).any():
        rnd = 0
        while True:
            batch = np.flatnonzero(alive & free & (sup <= k - 2))
            if not len(batch):
                break
            rnd += 1
            t[batch] = k
            layer[batch] = rnd
            rows, own = _rows(ptr, batch)
            p1, p2 = pe[rows, 0], pe[rows, 1]
            intact = alive[p1] & alive[p2]
            in_batch[batch] = True
            b1, b2 = in_batch[p1], in_batch[p2]
            hit1 = intact & ~b1 & (~b2 | (own < p2))
            hit2 = intact & ~b2 & (~b1 | (own < p1))
            sup -= np.bincount(np.concatenate([p1[hit1], p2[hit2]]), minlength=m)
            in_batch[batch] = False
            alive[batch] = False
        k += 1
    t[~free] = INF_T
    layer[~free] = 0
    return TrussState(t=t, layer=layer, anchors=anchors)


def trussness_gain(g: LocalGraph, base: TrussState, anchors: frozenset[int] | set[int]) -> int:
    """``TG(A, G)``: total trussness increase of non-anchor edges.

    Computed by a fresh decomposition of ``G_A`` against the trussness
    of the ``base`` state (Definition 4). ``base`` may itself already
    contain anchors (for incremental gains inside the greedy loop);
    edges anchored in either state are excluded from the sum.
    """
    return gain_between(base, decompose(g, frozenset(anchors) | base.anchors))


def gain_between(base: TrussState, after: TrussState) -> int:
    """Trussness increase from ``base`` to ``after`` over edges ``after`` leaves free.

    ``after`` decomposes the same graph with a superset of ``base``'s anchors.
    """
    keep = ~_mask(len(after.t), after.anchors)
    return int((after.t[keep] - base.t[keep]).sum())
