"""Rand / Sup / Tur random baselines and the AKT vertex baseline."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.akt import (
    akt_greedy,
    akt_sweep,
    anchored_ktruss_counts,
    anchored_ktruss_gain,
)
from repro.baselines.random_sets import (
    evaluate_anchor_set,
    random_baseline,
    top_frac_pool,
)
from repro.core.greedy import run_greedy
from repro.graphs.gen import community_graph
from repro.truss.local import LocalGraph, decompose
from repro.truss.reference import ktruss_edge_set


@pytest.fixture(scope="module")
def graph():
    g = LocalGraph(
        community_graph(n=60, n_cliques=25, clique_max=8, n_noise=20, drop_frac=0.1, seed=2)
    )
    return g, decompose(g)


def test_top_frac_pool():
    scores = np.array([5, 1, 9, 3, 7, 2, 8, 0, 4, 6])
    pool = top_frac_pool(scores, 0.2)
    assert set(pool) == {2, 6}
    assert len(top_frac_pool(np.array([1.0]), 0.2)) == 1


def test_random_baseline_deterministic(graph):
    g, st = graph
    a = random_baseline(None, g, st, 3, np.arange(g.m), trials=20, seed=5)
    b = random_baseline(None, g, st, 3, np.arange(g.m), trials=20, seed=5)
    assert a == b


def test_random_baseline_gain_consistent(graph):
    g, st = graph
    gain, ids = random_baseline(None, g, st, 3, np.arange(g.m), trials=15, seed=1)
    assert gain == evaluate_anchor_set(g, st, frozenset(ids))
    assert len(ids) == 3


def test_random_baseline_more_trials_no_worse(graph):
    g, st = graph
    g5, _ = random_baseline(None, g, st, 3, np.arange(g.m), trials=5, seed=7)
    g30, _ = random_baseline(None, g, st, 3, np.arange(g.m), trials=30, seed=7)
    assert g30 >= g5  # trials are a prefix-extension with the same seeds


def test_random_spark_matches_serial(spark, graph):
    g, st = graph
    serial = random_baseline(None, g, st, 3, np.arange(g.m), trials=12, seed=3)
    dist = random_baseline(spark, g, st, 3, np.arange(g.m), trials=12, seed=3, spark_threshold=0)
    assert serial == dist


def _path_graph(m: int) -> pd.DataFrame:
    return pd.DataFrame({"src": range(m), "dst": range(1, m + 1)})


@pytest.mark.parametrize(
    "pdf,b,trials,seed",
    [(_path_graph(40), 3, 16, 0)]
    + [
        (community_graph(n=40, n_cliques=12, n_noise=10, drop_frac=0.1, seed=1), 1, 12, s)
        for s in range(5)
    ],
    ids=["path40"] + [f"comm1-seed{s}" for s in range(5)],
)
def test_random_spark_breaks_ties_like_driver(spark, pdf, b, trials, seed):
    """Tied best gains go to the lowest trial on both paths."""
    g = LocalGraph(pdf)
    st = decompose(g)
    pool = np.arange(g.m)
    serial = random_baseline(None, g, st, b, pool, trials=trials, seed=seed)
    dist = random_baseline(spark, g, st, b, pool, trials=trials, seed=seed, spark_threshold=0)
    assert dist == serial


def test_greedy_beats_random_baselines(graph):
    """The paper's headline effectiveness claim, at micro scale."""
    g, st = graph
    gas = run_greedy(None, g, 5, "gas", spark_threshold=10**9)
    for seed in (1, 2, 3):
        gain, _ = random_baseline(None, g, st, 5, np.arange(g.m), trials=30, seed=seed)
        assert gas.total_gain >= gain


# ---- AKT ---------------------------------------------------------------

def test_akt_no_anchor_gain_zero(graph):
    """Without anchors the k-truss retains no (k-1)-trussness edge."""
    g, st = graph
    for k in range(3, st.kmax + 1):
        assert anchored_ktruss_gain(g, st, k, frozenset()) == 0


def test_akt_objective_monotone_in_vertices(graph):
    """AKT's own objective (protection included) is monotone; the
    *measured* cascade-only gain need not be (protecting an edge that
    previously counted as a cascade removes it from the measurement)."""
    g, st = graph
    k = 4
    frontier = [e for e in range(g.m) if int(st.t[e]) == k - 1]
    if not frontier:
        pytest.skip("no (k-1)-hull")
    verts = sorted({v for e in frontier for v in g.edge(e)})[:4]
    prev = 0
    acc: set[int] = set()
    for v in verts:
        acc.add(v)
        cur = anchored_ktruss_counts(g, st, k, frozenset(acc))[0]
        assert cur >= prev
        prev = cur


def test_akt_measured_no_more_than_objective(graph):
    g, st = graph
    for k in (3, 4, 5):
        obj, measured = anchored_ktruss_counts(
            g, st, k, frozenset(list(g.vertices())[:3])
        )
        assert 0 <= measured <= obj


def test_akt_anchored_truss_supersets_plain(graph):
    """Anchoring vertices only adds edges to the k-truss."""
    g, st = graph
    k = 4
    plain = ktruss_edge_set(g, k)
    verts = frozenset(list(g.vertices())[:3])
    cand = [e for e in range(g.m) if int(st.t[e]) >= k - 1]
    live = set(cand)
    changed = True
    while changed:
        changed = False
        for e in list(live):
            u, v = g.edge(e)
            if u in verts or v in verts:
                continue
            s = sum(1 for _w, e1, e2 in g.triangles_of(e) if e1 in live and e2 in live)
            if s < k - 2:
                live.discard(e)
                changed = True
    assert plain <= live


def test_akt_greedy_and_sweep(graph):
    g, st = graph
    gain, verts = akt_greedy(None, g, st, k=4, b=3)
    assert gain >= 0 and len(verts) <= 3
    sweep = akt_sweep(None, g, st, b=2, k_values=[3, 4])
    assert set(sweep) == {3, 4}
    assert all(v >= 0 for v in sweep.values())


def test_akt_avg_below_gas(graph):
    """Table V shape: AKT's gain *averaged over k* trails GAS at equal
    budget (the paper's avg_gain row; at micro scale the best single k
    can occasionally edge out GAS, see DESIGN.md)."""
    g, st = graph
    gas = run_greedy(None, g, 3, "gas", spark_threshold=10**9)
    sweep = akt_sweep(None, g, st, b=3)
    avg = sum(sweep.values()) / len(sweep)
    if gas.total_gain > 0:
        assert avg < gas.total_gain


def test_akt_spark_matches_serial(spark, graph):
    g, st = graph
    serial = akt_greedy(None, g, st, k=4, b=2)
    dist = akt_greedy(spark, g, st, k=4, b=2, spark_threshold=0)
    assert serial == dist
