"""ATR benchmark: GAS, baseline and AKT workloads on a live local Spark.

Usage (from the repository root)::

    python3 atrbench/run.py --workload gas-facebook --seed 0 --seconds 10 --trace 0

One process sets up a ``local[N]`` SparkSession (N = min(4, cpus)), warms
the Python workers, builds the workload's graph, then runs the workload's
cycle of operations until ``--seconds`` have passed (whole cycles, at
least one). Every result is checked. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. With ``--trace 1`` traced cycles alternate with untraced
ones, and the spans are written to ``.atrbench/`` at the end. Lines before it,
starting with ``#``, say the same for a reader. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def say(msg: str) -> None:
    print(f"# {msg}", flush=True)


def code_id() -> str:
    """Git SHA of the checkout, or a hash of ``src/`` where it is not a git work tree."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return "src-sha1:" + h.hexdigest()


def start_spark(cores: int, tmp: pathlib.Path):
    """Pinned local SparkSession; all scratch files go under ``tmp``."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("atrbench")
        .master(f"local[{cores}]")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        # The console progress bar interleaves with stdout.
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def warm_up(spark, cores: int) -> None:
    """One throwaway fan-out, so the Python worker cold start is paid in set-up.

    Its tasks import ``repro``, which proves the executors' import path
    before any measured operation.
    """
    import pandas as pd

    def kernel(batches):
        import repro.core.followers  # noqa: F401

        yield from batches

    df = spark.createDataFrame(pd.DataFrame({"x": range(4 * cores)}))
    n = len(df.repartition(cores).mapInPandas(kernel, schema="x long").toPandas())
    if n != 4 * cores:
        raise RuntimeError(f"warm-up job returned {n} rows")


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def summary(values: list[float]) -> str:
    """Median, maximum and count.

    A run takes a few samples of each operation, too few for any
    percentile above the median to have ten samples beyond it.
    """
    if not values:
        return "n=0"
    return f"median={statistics.median(values):.4f} max={max(values):.4f} n={len(values)}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"atrbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    tmp = ROOT / ".atrbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    # Before pyspark starts the JVM: executors inherit PYTHONPATH, and the
    # driver, the JVM and the Python workers keep their temp files here.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    sys.path.insert(0, str(SRC))
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args: argparse.Namespace, tmp: pathlib.Path) -> int:
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"atrbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"atrbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import pyspark

    cores = min(4, os.cpu_count() or 1)
    t0 = time.perf_counter()
    spark = start_spark(cores, tmp)
    try:
        warm_up(spark, cores)
        spark_s = time.perf_counter() - t0
        sc = spark.sparkContext
        say("env " + json.dumps({
            "nproc": os.cpu_count(), "master": sc.master,
            "defaultParallelism": sc.defaultParallelism,
            "spark": pyspark.__version__, "python": sys.version.split()[0],
            "code": code_id(),
        }))
        say(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
            f"trace {args.trace}: {wl.why}")

        # Set-up is repeated and its median reported; the Spark start and
        # warm-up happen once per process and are added to it.
        graph_s, load_s = [], []
        for _ in range(SETUP_REPEATS):
            t1 = time.perf_counter()
            inputs, load = workloads.prepare(wl, args.seed)
            graph_s.append(time.perf_counter() - t1)
            load_s.append(load)
        setup_s = spark_s + statistics.median(graph_s)
        shapes = "; ".join(
            f"{name} n={inp.g.n} m={inp.g.m} kmax={inp.st.kmax}" for name, inp in inputs.items())
        say(f"setup: spark start + warm-up {spark_s:.4f} s; graph set-up "
            f"{summary(graph_s)}; {shapes}")

        bench = measure.Bench(spark, wl, inputs, args.trace == 1)
        bench.measure(args.seconds)
    finally:
        stop_spark(spark)

    for label, err in bench.errors:
        say(f"CHECK FAILED {label}: {err}")
    attempted, failed = bench.attempted, len(bench.errors)
    for label, vals in bench.samples.items():
        say(f"{label}_s: {summary(vals)}")
    if (rate := bench.trials_per_s()) is not None:
        say(f"trials_per_s = {rate:.6g} 1/s ({workloads.TRIALS} trials per call)")
    say(f"fail_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")

    if args.trace:
        metrics = bench.layer_metrics(statistics.median(load_s))
        for name, reason in sorted(bench.notes.items()):
            say(f"note {name}: {reason}")
        out = ROOT / ".atrbench" / f"spans-{wl.name}-seed{args.seed}.json"
        out.write_text(json.dumps(bench.trace_dump()))
        say(f"spans written to {out.relative_to(ROOT)}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "main_s": (bench.main_s(), "s"),
            "cycle_s": (bench.cycle_s(), "s"),
            "driver_rss_mb": (rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        say(f"metric {name} = {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
