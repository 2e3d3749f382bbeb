"""The CSR triangle-incidence substrate against the dict-intersection path."""
import pickle
from collections import Counter

import pandas as pd
import pytest

from repro.graphs.gen import community_graph, random_graph
from repro.truss.local import LocalGraph, decompose


def _graphs():
    for seed in range(3):
        yield f"rand{seed}", random_graph(n=40, m=180, seed=seed)
        yield (
            f"comm{seed}",
            community_graph(
                n=60, n_cliques=25, clique_max=8, n_noise=20, drop_frac=0.1, seed=seed
            ),
        )
    # An 8-cycle plus a star: bipartite, so no triangles.
    cyc = [(i, (i + 1) % 8) for i in range(8)] + [(20, 21 + i) for i in range(5)]
    yield "triangle_free", pd.DataFrame(cyc, columns=["src", "dst"])
    yield "empty", pd.DataFrame({"src": pd.Series([], dtype="int64"),
                                 "dst": pd.Series([], dtype="int64")})


CASES = list(_graphs())


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_view_equals_dict_path(label, pdf):
    g = LocalGraph(pdf)
    assert len(g.tri) == g.m
    for e in range(g.m):
        want = [(e1, e2) for _w, e1, e2 in g.triangles_of(e)]
        assert Counter(g.tri[e]) == Counter(want), (label, e)


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_support_equals_dict_path(label, pdf):
    g = LocalGraph(pdf)
    sup = g.support()
    assert len(sup) == g.m
    assert [int(s) for s in sup] == [len(list(g.triangles_of(e))) for e in range(g.m)]
    if label == "triangle_free":
        assert g.m > 0 and not sup.any()


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_pickle_carries_arrays_not_views(label, pdf):
    g = LocalGraph(pdf)
    st = decompose(g)
    cold = pickle.dumps((g, st))
    # Build every per-process view and derived dict before pickling again.
    view, t_list, _ = g.tri, st.t_list, (g.adj, g.eid, st.layer_list)
    warm = pickle.dumps((g, st))
    assert len(warm) == len(cold)
    g2, st2 = pickle.loads(warm)
    for attr in ("tri", "adj", "eid"):
        assert attr not in vars(g2)
    assert "t_list" not in vars(st2) and "layer_list" not in vars(st2)
    assert g2.tri == view
    assert st2.t_list == t_list
    assert g2.eid == g.eid
    assert [list(g2.triangles_of(e)) for e in range(g.m)] == [
        list(g.triangles_of(e)) for e in range(g.m)
    ]


def test_view_shares_one_int_per_edge_id():
    g = LocalGraph(community_graph(n=60, n_cliques=25, clique_max=8, seed=1))
    first: dict[int, int] = {}
    for pairs in g.tri:
        for pair in pairs:
            for p in pair:
                assert id(first.setdefault(p, p)) == id(p)
