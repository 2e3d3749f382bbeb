"""The measurement loop and the per-layer metrics of the ATR benchmark."""
from __future__ import annotations

import statistics
import time
import traceback

from pyspark import cloudpickle

import workloads
from tracing import JobGroups, Tracer


def install_wrappers(tr: Tracer) -> None:
    """Wrap the calls into each ``repro`` layer that run on the driver."""
    c = tr.counts
    tr.count_method("repro.truss.local.LocalGraph", "triangles_of", "triangles_of_calls")
    tr.span_method("repro.truss.local.LocalGraph", "support", "truss.support")
    for mod in ("repro.truss.local", "repro.core.greedy", "repro.baselines.random_sets"):
        tr.wrap(mod, "decompose", "truss.decompose")

    def followers_done(key: str):
        def on_call(args, out) -> None:
            c[key] += len(out)
            c["followers_reads"] += sum(len(fr.reads) for fr in out.values())
            c["followers_cands"] += sum(len(fr.candidates) for fr in out.values())

        return on_call

    tr.wrap("repro.core.greedy", "_eval_followers_local", "followers",
            followers_done("followers_driver"))
    tr.wrap("repro.core.greedy", "_eval_followers_spark", "fanout",
            followers_done("followers_task"))
    tr.wrap("repro.core.followers", "upward_candidates", "followers.bfs")
    tr.wrap("repro.core.followers", "_peel_level", "followers.peel")
    for fn in ("build_tree", "node_signature", "expired_nodes"):
        tr.wrap("repro.core.greedy", fn, "tree.build")
    tr.wrap("repro.core.greedy", "classify_reuse", "tree.classify")

    def akt_done(args, out) -> None:
        if tr.op == "akt":
            c["akt_levels"] += 1
            c["akt_rounds"] += len(out[1])

    tr.wrap("repro.baselines.akt", "akt_greedy", "akt.level", akt_done)


class Bench:
    """Runs a workload's cycles and keeps samples, check failures and traces."""

    def __init__(self, spark, wl: workloads.Workload, inputs: dict, trace: bool):
        self.spark, self.wl, self.inputs, self.trace = spark, wl, inputs, trace
        self.jobs = JobGroups(spark.sparkContext)
        self.samples: dict[str, list[float]] = {op.label: [] for op in wl.ops}
        self.cycles: dict[bool, list[float]] = {False: [], True: []}
        self.errors: list[tuple[str, str]] = []
        self.attempted = 0
        self.notes: dict[str, str] = {}  # metric or wrap target -> why it is partial
        self.tracers: list[Tracer] = []
        self.layer_runs: list[dict[str, tuple[float, str]]] = []

    # -- running -------------------------------------------------------
    def measure(self, seconds: float) -> None:
        """Whole cycles until ``seconds`` pass, at least one.

        A traced run goes untraced, traced, untraced, then traced and
        untraced pairs while time remains. The first cycle of a fresh
        session runs slower, so the overhead compares the traced cycles
        with the untraced cycles after it.
        """
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            self._cycle(traced=self.trace and k % 2 == 1)
            k += 1
            if time.perf_counter() >= deadline and (not self.trace or (k >= 3 and k % 2 == 1)):
                break

    def _cycle(self, traced: bool) -> None:
        tr = Tracer() if traced else None
        done: dict[str, object] = {}
        walls: dict[str, float] = {}
        fan: dict[str, dict[str, float]] = {}
        t0 = time.perf_counter()
        if tr:
            install_wrappers(tr)
        try:
            for op in self.wl.ops:
                group = self.jobs.start(op.label)
                rec = None
                if tr:
                    tr.op = op.label
                    rec = tr.begin(op.span)
                t1 = time.perf_counter()
                try:
                    done[op.label] = op.run(self.spark, self.inputs[op.dataset], done)
                except Exception:  # one failed operation must not end the run
                    self.errors.append((op.label, "raised:\n" + traceback.format_exc()))
                finally:
                    walls[op.label] = time.perf_counter() - t1
                    if tr:
                        tr.end(rec)
                if tr:
                    fan[op.label] = self.jobs.stats(group, tr.absent)
        finally:
            if tr:
                tr.unwrap()
                tr.op = None
        self.cycles[traced].append(time.perf_counter() - t0)

        # Checks run outside the timed region, with every wrapper removed.
        for op in self.wl.ops:
            self.attempted += 1
            if op.label not in done:
                continue
            try:
                err = op.check(self.inputs[op.dataset], done[op.label], done)
            except Exception:
                err = "check raised:\n" + traceback.format_exc()
            if err:
                self.errors.append((op.label, err))
            elif not traced:
                self.samples[op.label].append(walls[op.label])
        if tr:
            self.tracers.append(tr)
            self.notes.update(tr.absent)
            self.layer_runs.append(self._layers(tr, done, walls, fan))
            self._print_self_times(tr, walls)

    # -- end-to-end ----------------------------------------------------
    def main_s(self) -> float:
        """Median wall of the workload's main operations (0 if none passed)."""
        vals = [v for op in self.wl.ops if op.role == "main" for v in self.samples[op.label]]
        return statistics.median(vals) if vals else 0.0

    def cycle_s(self) -> float:
        """Median wall of an untraced cycle."""
        return statistics.median(self.cycles[False])

    def trials_per_s(self) -> float | None:
        """Random-baseline trials per second, where the workload runs trials."""
        vals = [v for op in self.wl.ops if op.span == "random" for v in self.samples[op.label]]
        return workloads.TRIALS / statistics.median(vals) if vals else None

    # -- per layer -----------------------------------------------------
    def _layers(self, tr: Tracer, done: dict, walls: dict, fan: dict) -> dict:
        c = tr.counts
        tot = tr.totals()

        def total(name: str) -> tuple[int, float]:
            return tot.get(name, (0, 0.0))

        random_ops = [op for op in self.wl.ops if op.span == "random" and op.label in done]
        task_trials = sum(workloads.TRIALS for op in random_ops if fan[op.label]["jobs"] > 0)
        m: dict[str, tuple[float, str]] = {}
        m["truss.decompose_s"] = (total("truss.decompose")[1], "s")
        m["truss.decompose_calls"] = (total("truss.decompose")[0] + task_trials, "count")
        m["truss.support_s"] = (total("truss.support")[1], "s")
        m["truss.triangles_of_calls"] = (c["triangles_of_calls"], "count")

        calls = c["followers_driver"] + c["followers_task"]
        fol_s, bfs_s = total("followers")[1], total("followers.bfs")[1]
        m["followers.calls"] = (calls, "count")
        m["followers.task_calls"] = (c["followers_task"], "count")
        m["followers.s"] = (fol_s, "s")
        m["followers.bfs_s"] = (bfs_s, "s")
        m["followers.peel_s"] = (fol_s - bfs_s, "s")
        m["followers.reads_mean"] = (c["followers_reads"] / calls if calls else 0.0, "count")
        m["followers.cands_mean"] = (c["followers_cands"] / calls if calls else 0.0, "count")

        gas = done.get("gas")
        rounds = gas.rounds if gas is not None else []
        later = rounds[1:]
        seen = sum(r.evaluated + r.reused for r in later)
        m["greedy.rounds"] = (len(rounds), "count")
        m["greedy.evaluated"] = (sum(r.evaluated for r in rounds), "count")
        m["greedy.reused"] = (sum(r.reused for r in rounds), "count")
        m["greedy.reuse_frac"] = (sum(r.reused for r in later) / seen if seen else 0.0, "ratio")
        m["greedy.round1_s"] = (rounds[0].seconds if rounds else 0.0, "s")
        m["greedy.round_s_p50"] = (
            statistics.median(r.seconds for r in later) if later else 0.0, "s")
        m["greedy.self_s"] = (tr.self_times(op="gas").get("greedy", 0.0), "s")

        m["tree.build_s"] = (total("tree.build")[1], "s")
        m["tree.classify_s"] = (total("tree.classify")[1], "s")
        for cls in ("FR", "PR", "NR"):
            m[f"tree.{cls.lower()}"] = (
                sum(r.reuse_classes.get(cls, 0) for r in rounds), "count")

        sizes = done.get("routes")
        if sizes is not None and len(sizes):
            m["routes.edges"] = (len(sizes), "count")
            m["routes.size_sum"] = (int(sizes.sum()), "count")
            m["routes.size_max_over_avg"] = (float(sizes.max() / sizes.mean()), "ratio")
        else:
            for k in ("routes.edges", "routes.size_sum"):
                m[k] = (0, "count")
            m["routes.size_max_over_avg"] = (0.0, "ratio")

        m["random.trials"] = (workloads.TRIALS * len(random_ops), "count")
        m["akt.levels"] = (c["akt_levels"], "count")
        m["akt.rounds"] = (c["akt_rounds"], "count")

        # fanout.s is the driver wall of the fan-out calls: the wrapped
        # _eval_followers_spark, and the benchmark's own route and trial
        # calls when they launched jobs. AKT's fan-out is inline in
        # akt_greedy, so there the Spark job wall stands in for it.
        fan_s = total("fanout")[1]
        for op in self.wl.ops:
            if op.label not in fan:
                continue
            if op.span in ("routes", "random") and fan[op.label]["jobs"] > 0:
                fan_s += walls[op.label]
            elif op.span == "akt":
                fan_s += fan[op.label]["job_s"]
        for key in ("jobs", "tasks", "failed_tasks"):
            m[f"fanout.{key}"] = (sum(f[key] for f in fan.values()), "count")
        m["fanout.s"] = (fan_s, "s")
        m["fanout.job_s"] = (sum(f["job_s"] for f in fan.values()), "s")
        m["fanout.closure_kb"] = (max(
            len(cloudpickle.dumps((inp.g, inp.st))) for inp in self.inputs.values()
        ) / 1024.0, "KiB")

        main = next(op.label for op in self.wl.ops if op.role == "main")
        covered = sum(tr.self_times(op=main).values())
        m["trace.main_accounted_frac"] = (covered / walls[main] if walls[main] else 0.0, "ratio")
        return m

    def _print_self_times(self, tr: Tracer, walls: dict) -> None:
        for op in self.wl.ops:
            st = tr.self_times(op=op.label)
            parts = " ".join(f"{k}={v:.4f}" for k, v in sorted(st.items(), key=lambda kv: -kv[1]))
            print(f"# trace {op.label}: wall={walls[op.label]:.4f} s, self times "
                  f"sum={sum(st.values()):.4f} s: {parts}", flush=True)

    def layer_metrics(self, load_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: medians over the traced cycles, plus overhead."""
        out: dict[str, tuple[float, str]] = {"graphs.load_s": (load_s, "s")}
        for key, (_, unit) in self.layer_runs[0].items():
            out[key] = (statistics.median(r[key][0] for r in self.layer_runs), unit)
        traced, plain = self.cycles[True], self.cycles[False][1:]
        out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        out["trace.overhead_frac"] = (
            out["trace.overhead_s"][0] / statistics.median(plain), "ratio")
        self._notes(out)
        return out

    def _notes(self, out: dict) -> None:
        """Say which numbers stop at the Spark task boundary, and why."""
        tasks = out["followers.task_calls"][0]
        if tasks:
            self.notes["followers.s (task part)"] = (
                f"{tasks:.0f} follower evaluations ran inside Spark tasks, which "
                "cannot be wrapped from the driver; their wall is in fanout.s")
        if out["random.trials"][0]:
            self.notes["truss.decompose_s (task part)"] = (
                "trial decompositions ran inside Spark tasks; they are counted "
                "in truss.decompose_calls and their wall is in fanout.s")
        if out["akt.levels"][0]:
            self.notes["fanout.s (akt)"] = (
                "the AKT fan-out block is inline in akt_greedy; Spark job wall "
                "from the status store stands in for its driver wall")
        self.notes["truss.triangles_of_calls"] = "counts driver-side calls only"
        self.notes["fanout.closure_kb"] = (
            "computed: pickled size of the largest graph and decomposition "
            "state a fan-out closure carries, not a measured transfer")

    def trace_dump(self) -> list[dict]:
        return [tr.dump() for tr in self.tracers]
