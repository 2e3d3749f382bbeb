"""Upward-route sizes: serial vs distributed, and Table IV statistics."""
import numpy as np
import pytest

from repro.core.followers import get_followers
from repro.core.routes import route_size, route_sizes_spark, route_stats
from repro.graphs.gen import community_graph
from repro.graphs.toys import truss_ladder
from repro.truss.local import LocalGraph, decompose


def test_route_size_equals_candidate_count():
    g = LocalGraph(truss_ladder())
    st = decompose(g)
    for x in range(g.m):
        assert route_size(g, st, x) == len(get_followers(g, st, x).candidates)


@pytest.mark.parametrize("seed", range(2))
def test_route_sizes_spark_matches_serial(spark, seed):
    g = LocalGraph(
        community_graph(n=40, n_cliques=12, n_noise=10, drop_frac=0.1, seed=seed)
    )
    st = decompose(g)
    dist = route_sizes_spark(spark, g, st, spark_threshold=0)
    serial = np.array([route_size(g, st, x) for x in range(g.m)])
    assert (dist == serial).all()


def test_route_sizes_without_spark_run_on_driver():
    g = LocalGraph(
        community_graph(n=40, n_cliques=12, n_noise=10, drop_frac=0.1, seed=0)
    )
    st = decompose(g)
    serial = np.array([route_size(g, st, x) for x in range(g.m)])
    assert (route_sizes_spark(None, g, st) == serial).all()


def test_route_stats_fields():
    sizes = np.array([0, 2, 4, 10])
    s = route_stats(sizes)
    assert s == {"min": 0, "max": 10, "sum": 16, "avg": 4.0}


def test_route_stats_empty():
    s = route_stats(np.zeros(0, dtype=np.int64))
    assert s["min"] == s["max"] == s["sum"] == 0


def test_routes_zero_for_top_edges():
    """Edges of the deepest hull with no later-deleted neighbours have
    empty routes (paper Table IV: minimal size 0)."""
    from repro.graphs.gen import clique

    g = LocalGraph(clique([0, 1, 2, 3]))
    st = decompose(g)
    sizes = [route_size(g, st, x) for x in range(g.m)]
    # K4 peels in one synchronous round: no edge has a later-order
    # neighbour, so every route is empty.
    assert sizes == [0] * g.m


def test_route_size_monotone_in_noise():
    """Imperfect communities create non-trivial routes."""
    g = LocalGraph(
        community_graph(n=50, n_cliques=20, clique_max=8, n_noise=15, drop_frac=0.12, seed=5)
    )
    st = decompose(g)
    sizes = np.array([route_size(g, st, x) for x in range(g.m)])
    assert sizes.max() > 0
