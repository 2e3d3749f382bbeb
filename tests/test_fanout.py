"""The fan-out helper: same ordered results on every path, and its path choice."""
from functools import partial

import pytest

from repro.core.followers import get_followers
from repro.fanout import fan_out
from repro.graphs.gen import community_graph
from repro.truss.local import LocalGraph, decompose

PATHS = [None, 0, 10**9]  # default (driver), forced Spark, forced driver


def _jobs_run(spark, label: str, call):
    """Run ``call()`` under a fresh job group; return its result and the group's job count."""
    sc = spark.sparkContext
    sc.setJobGroup(label, label)
    try:
        out = call()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(label))


def _square(x: int) -> int:
    return x * x


@pytest.mark.parametrize("threshold", PATHS)
def test_empty_items(spark, threshold):
    assert fan_out(spark, [], _square, threshold) == []
    assert fan_out(None, [], _square, threshold) == []


@pytest.mark.parametrize("threshold", PATHS)
def test_fewer_items_than_cores(spark, threshold):
    assert spark.sparkContext.defaultParallelism >= 2
    assert fan_out(spark, [7], _square, threshold) == [49]
    assert fan_out(spark, (3, 1), _square, threshold) == [9, 1]


def test_followers_identical_and_ordered_on_every_path(spark):
    g = LocalGraph(
        community_graph(n=40, n_cliques=12, n_noise=10, drop_frac=0.1, seed=1)
    )
    st = decompose(g)
    items = list(range(g.m))[::-1]  # not sorted, so order is checked
    want = [get_followers(g, st, e) for e in items]
    fn = partial(get_followers, g, st)
    assert fan_out(None, items, fn) == want
    for threshold in PATHS:
        assert fan_out(spark, items, fn, threshold) == want


def test_default_runs_on_driver(spark):
    out, jobs = _jobs_run(spark, "fanout-default", lambda: fan_out(spark, range(500), _square))
    assert out == [x * x for x in range(500)]
    assert jobs == 0


def test_forced_spark_runs_one_job(spark):
    out, jobs = _jobs_run(
        spark, "fanout-forced", lambda: fan_out(spark, range(50), _square, spark_threshold=0)
    )
    assert out == [x * x for x in range(50)]
    assert jobs == 1
