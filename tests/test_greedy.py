"""BASE / BASE+ / GAS equivalence, caching exactness, Spark fan-out."""
import pytest

from repro.core.greedy import get_followers_by_decomp, run_greedy
from repro.graphs.gen import community_graph, random_graph
from repro.graphs.toys import truss_ladder
from repro.truss.local import LocalGraph, decompose, trussness_gain


def _graphs():
    yield "ladder", truss_ladder()
    for seed in range(4):
        yield (
            f"comm{seed}",
            community_graph(
                n=50, n_cliques=20, clique_max=8, n_noise=18, drop_frac=0.1, seed=seed
            ),
        )
    yield "rand", random_graph(n=30, m=85, seed=3)


CASES = list(_graphs())


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_methods_equivalent(label, pdf):
    g = LocalGraph(pdf)
    rb = run_greedy(None, g, 3, "base")
    rp = run_greedy(None, g, 3, "base+")
    rg = run_greedy(None, g, 3, "gas")
    assert rb.anchors == rp.anchors == rg.anchors, label
    assert rb.total_gain == rp.total_gain == rg.total_gain


@pytest.mark.parametrize("label,pdf", CASES[:3], ids=[c[0] for c in CASES[:3]])
def test_round_gains_sum_to_total(label, pdf):
    g = LocalGraph(pdf)
    r = run_greedy(None, g, 4, "gas")
    assert sum(rd.gain for rd in r.rounds) == r.total_gain


def test_gas_reuses_cache():
    g = LocalGraph(
        community_graph(n=60, n_cliques=25, clique_max=8, n_noise=20, drop_frac=0.1, seed=2)
    )
    r = run_greedy(None, g, 3, "gas")
    assert r.rounds[0].reused == 0
    assert any(rd.reused > 0 for rd in r.rounds[1:])


def test_anchors_are_distinct_and_valid():
    g = LocalGraph(truss_ladder())
    r = run_greedy(None, g, 5, "gas")
    assert len(set(r.anchors)) == len(r.anchors)
    assert all(0 <= a < g.m for a in r.anchors)
    assert len(r.anchor_edges) == len(r.anchors)


def test_budget_capped_by_edge_count():
    g = LocalGraph(truss_ladder())
    r = run_greedy(None, g, g.m + 10, "base+")
    assert len(r.anchors) <= g.m


def test_unknown_method_raises():
    g = LocalGraph(truss_ladder())
    with pytest.raises(ValueError):
        run_greedy(None, g, 1, "bogus")


def test_negative_budget_raises():
    g = LocalGraph(truss_ladder())
    for method in ("base", "base+", "gas"):
        with pytest.raises(ValueError):
            run_greedy(None, g, -1, method)


@pytest.fixture(scope="module")
def big_runs():
    """BASE and GAS with ``spark=None`` on a graph above 512 candidates."""
    g = LocalGraph(
        community_graph(n=200, n_cliques=70, clique_max=9, n_noise=60, drop_frac=0.1, seed=0)
    )
    assert g.m >= 512
    return g, {method: run_greedy(None, g, 2, method) for method in ("base", "gas")}


@pytest.mark.parametrize("method", ["base", "gas"])
def test_no_spark_runs_on_driver_above_default_threshold(method, big_runs):
    # m = 581 candidates, more than a fixed fan-out threshold of 512 would
    # keep on the driver; with spark=None every round must still run there
    # and agree with the other method and with the definition of TG.
    g, runs = big_runs
    r = runs[method]
    assert r.anchors == runs["base"].anchors == runs["gas"].anchors
    assert r.total_gain == trussness_gain(g, decompose(g), frozenset(r.anchors))


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_gas_reused_gains_equal_fresh_followers(seed, monkeypatch):
    """Every gain GAS ranks, cached or not, equals a fresh follower count.

    A cached result served after one of its read edges changed would
    show up as a gain that differs from the fresh evaluation on that
    round's state.
    """
    import repro.core.greedy as greedy
    from repro.core.followers import get_followers

    seen: list[dict[int, int]] = []
    pick = greedy._pick_best

    def capture(gains):
        seen.append(dict(gains))
        return pick(gains)

    monkeypatch.setattr(greedy, "_pick_best", capture)
    g = LocalGraph(
        community_graph(n=60, n_cliques=25, clique_max=8, n_noise=20, drop_frac=0.1, seed=seed)
    )
    r = run_greedy(None, g, 5, "gas")
    assert len(seen) == len(r.anchors) == 5
    assert sum(rd.reused for rd in r.rounds) > 0
    for k, gains in enumerate(seen):
        st = decompose(g, frozenset(r.anchors[:k]))
        assert set(gains) == set(range(g.m)) - set(r.anchors[:k])
        for e, gain in gains.items():
            assert gain == get_followers(g, st, e).gain, (seed, k, e)


def test_track_tree_reports_classes():
    g = LocalGraph(
        community_graph(n=40, n_cliques=14, n_noise=10, drop_frac=0.12, seed=4)
    )
    r = run_greedy(None, g, 2, "gas", track_tree=True)
    assert r.rounds[0].reuse_classes  # populated after the first anchoring
    assert set().union(*[set(rd.reuse_classes) for rd in r.rounds]) <= {"FR", "PR", "NR"}


def test_base_followers_by_decomp_matches_kernel():
    from repro.core.followers import get_followers

    g = LocalGraph(community_graph(n=35, n_cliques=12, n_noise=10, drop_frac=0.12, seed=5))
    st = decompose(g)
    for x in range(0, g.m, 4):
        assert get_followers_by_decomp(g, st, frozenset(), x) == get_followers(
            g, st, x
        ).followers


# ---- distributed paths -------------------------------------------------

def test_gas_spark_path_matches_local(spark):
    g = LocalGraph(
        community_graph(n=50, n_cliques=18, n_noise=15, drop_frac=0.1, seed=6)
    )
    local = run_greedy(None, g, 2, "gas")
    dist = run_greedy(spark, g, 2, "gas", spark_threshold=0)
    assert local.anchors == dist.anchors
    assert local.total_gain == dist.total_gain


def test_base_spark_path_matches_local(spark):
    g = LocalGraph(
        community_graph(n=35, n_cliques=12, n_noise=8, drop_frac=0.1, seed=7)
    )
    local = run_greedy(None, g, 2, "base")
    dist = run_greedy(spark, g, 2, "base", spark_threshold=0)
    assert local.anchors == dist.anchors
    assert local.total_gain == dist.total_gain


def test_base_plus_spark_path_matches_local(spark):
    g = LocalGraph(
        community_graph(n=40, n_cliques=15, n_noise=10, drop_frac=0.1, seed=8)
    )
    local = run_greedy(None, g, 2, "base+")
    dist = run_greedy(spark, g, 2, "base+", spark_threshold=0)
    assert local.anchors == dist.anchors
    assert local.total_gain == dist.total_gain
