"""Spans and counters for the traced run of the ATR benchmark.

The traced run wraps calls into the ``repro`` modules from outside: a
module function is replaced by a :class:`_Wrapped` stand-in, a method
by a counting function, for the length of one traced cycle, and put
back afterwards. Nothing under ``src/`` is edited.

Work that runs inside Spark tasks is out of reach of these wrappers:
Spark pickles the task closure and the executor imports ``repro``
afresh. A :class:`_Wrapped` stand-in therefore pickles as a reference
to the function's dotted path, so a closure that captures one still
runs the unwrapped function on the executor. What a fan-out did is
seen from the driver instead: the inputs it was given, the results it
returned, and the jobs and tasks Spark's status tracker recorded for
the operation's job group.

Spans are kept in memory and written out when the benchmark ends.
"""
from __future__ import annotations

import importlib
import pydoc
import time
from collections import defaultdict


class Tracer:
    """In-memory spans, counters and the list of wrap targets not found."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or None, op label].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------
    def wrap(self, module: str, attr: str, name: str, on_call=None) -> None:
        """Record a span ``name`` around every call of ``module.attr``.

        ``on_call(args, result)`` runs after each call to update counters.
        A target that no longer exists is recorded in :attr:`absent`.
        """
        try:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
        except (ImportError, AttributeError) as exc:
            self.absent[f"{module}.{attr}"] = f"not found ({exc})"
            return
        setattr(mod, attr, _Wrapped(self, name, f"{module}.{attr}", fn, on_call))
        self._undo.append((mod, attr, fn))

    def count_method(self, cls_path: str, attr: str, counter: str) -> None:
        """Count calls of the method ``cls_path.attr`` made on the driver."""
        found = self._method(cls_path, attr)
        if found is None:
            return
        cls, fn = found
        counts = self.counts

        def counted(obj, *args, **kwargs):
            counts[counter] += 1
            return fn(obj, *args, **kwargs)

        setattr(cls, attr, counted)
        self._undo.append((cls, attr, fn))

    def span_method(self, cls_path: str, attr: str, name: str) -> None:
        """Record a span ``name`` around every driver-side call of a method."""
        found = self._method(cls_path, attr)
        if found is None:
            return
        cls, fn = found
        tracer = self

        def spanned(obj, *args, **kwargs):
            rec = tracer.begin(name)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer.end(rec)

        setattr(cls, attr, spanned)
        self._undo.append((cls, attr, fn))

    def _method(self, cls_path: str, attr: str):
        cls = pydoc.locate(cls_path)
        fn = getattr(cls, attr, None) if cls is not None else None
        if fn is None:
            self.absent[f"{cls_path}.{attr}"] = "not found"
            return None
        return cls, fn

    def unwrap(self) -> None:
        """Put every wrapped target back, last wrapped first."""
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- reduction -----------------------------------------------------
    def self_times(self, op: str) -> dict[str, float]:
        """Self time per span name within operation ``op``: duration minus child coverage."""
        child: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec[3] is not None and rec[2] is not None:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans):
            if rec[2] is None or rec[4] != op:
                continue
            out[rec[0]] += (rec[2] - rec[1]) - child[i]
        return out

    def totals(self) -> dict[str, tuple[int, float]]:
        """``(calls, inclusive seconds)`` per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for rec in self.spans:
            if rec[2] is None:
                continue
            out[rec[0]][0] += 1
            out[rec[0]][1] += rec[2] - rec[1]
        return {k: (int(v[0]), float(v[1])) for k, v in out.items()}

    def dump(self) -> dict:
        """The spans and counters as a JSON-ready record."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans
            ],
            "counts": dict(self.counts),
            "absent": dict(self.absent),
        }


class _Wrapped:
    """Stand-in for a module function that records one span per call.

    Pickles as the function's dotted path, so a Spark task closure that
    captures it gets the original function on the executor.
    """

    def __init__(self, tracer: Tracer, name: str, path: str, fn, on_call) -> None:
        self.tracer, self.name, self.path = tracer, name, path
        self.fn, self.on_call = fn, on_call
        self.__wrapped__ = fn
        self.__doc__ = getattr(fn, "__doc__", None)

    def __call__(self, *args, **kwargs):
        rec = self.tracer.begin(self.name)
        try:
            out = self.fn(*args, **kwargs)
        finally:
            self.tracer.end(rec)
        if self.on_call is not None:
            self.on_call(args, out)
        return out

    def __reduce__(self):
        return (pydoc.locate, (self.path,))


class JobGroups:
    """Spark jobs, tasks and job wall time per operation, read from outside.

    Each operation runs under its own job group; afterwards the jobs of
    that group are looked up in the SparkContext status tracker.
    """

    def __init__(self, sc) -> None:
        self.sc = sc
        self.tracker = sc.statusTracker()
        self.n = 0

    def start(self, label: str) -> str:
        self.n += 1
        group = f"atrbench-{self.n}"
        self.sc.setJobGroup(group, label, interruptOnCancel=False)
        return group

    def stats(self, group: str, absent: dict[str, str]) -> dict[str, float]:
        """``jobs``, ``tasks``, ``failed_tasks`` and ``job_s`` of one group."""
        out = {"jobs": 0.0, "tasks": 0.0, "failed_tasks": 0.0, "job_s": 0.0}
        for jid in self.tracker.getJobIdsForGroup(group):
            out["jobs"] += 1
            info = self.tracker.getJobInfo(jid)
            for sid in info.stageIds if info else []:
                stage = self.tracker.getStageInfo(sid)
                if stage is not None:
                    out["tasks"] += stage.numTasks
                    out["failed_tasks"] += stage.numFailedTasks
            out["job_s"] += self._job_seconds(jid, absent)
        return out

    def _job_seconds(self, jid: int, absent: dict[str, str]) -> float:
        # The Python status tracker carries no times; the JVM status store
        # does. It is internal to Spark, so a version without it is
        # reported as absent rather than failing the run.
        try:
            job = self.sc._jsc.sc().statusStore().job(jid)
            start = job.submissionTime().get().getTime()
            end = job.completionTime().get().getTime()
        except Exception as exc:  # py4j errors carry no common base class
            absent["fanout.job_s"] = f"Spark status store unavailable ({type(exc).__name__})"
            return 0.0
        return (end - start) / 1000.0
