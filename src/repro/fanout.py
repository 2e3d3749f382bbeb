"""One fan-out helper for every per-item kernel: the driver unless told to ship.

Candidate evaluation in every algorithm (GAS / BASE+ followers, BASE
decompositions, route sizes, random trials, AKT objectives, exact
combinations) is a list of independent items and one pure function.
:func:`fan_out` returns ``[fn(x) for x in items]``, in input order, and
decides where the work runs.

By default the work runs on the driver. A Spark job has a fixed cost
(scheduling, shipping the closure, starting the tasks, decoding the
results) that at the graph sizes this repository runs eats the saving
of the other cores: measured on a 4-core VM with ``local[4]`` (Spark
4.1.2, Python 3.11), a job cost 0.35-0.55 s beyond a quarter of its
driver time, and the first RDD job of a SparkContext about 2 s more,
because Spark starts its RDD Python workers then and each imports the
kernel modules. A caller that knows its work pays for that passes a
``spark_threshold``.

The Spark side is one RDD job with one task per core. Each task gets a
strided chunk ``items[i::n]``, which balances skewed per-item costs
without a cost model; the function and whatever it closes over (graph,
state) ride in the task closure, and results come back as pickled
Python objects, so there is no shuffle and no DataFrame encoding.
"""
from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from pyspark.sql import SparkSession

T = TypeVar("T")
R = TypeVar("R")


def ships(spark: SparkSession | None, n: int, spark_threshold: int | None) -> bool:
    """Whether :func:`fan_out` sends ``n`` items to Spark.

    Only with a session and a given threshold that ``n`` reaches (``0``
    forces Spark); ``spark_threshold=None`` means the driver.
    """
    return spark is not None and spark_threshold is not None and n > 0 and n >= spark_threshold


def fan_out(
    spark: SparkSession | None,
    items: Iterable[T],
    fn: Callable[[T], R],
    spark_threshold: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]``, evaluated on the driver or over Spark.

    Spark runs it when :func:`ships` says so; ``fn`` must then be
    picklable with its closure.
    """
    items = list(items)
    if not ships(spark, len(items), spark_threshold):
        return [fn(x) for x in items]
    sc = spark.sparkContext
    n = min(sc.defaultParallelism, len(items))
    chunks = [items[i::n] for i in range(n)]
    parts = sc.parallelize(chunks, n).map(lambda chunk: [fn(x) for x in chunk]).collect()
    out: list = [None] * len(items)
    for i, part in enumerate(parts):
        out[i::n] = part
    return out
