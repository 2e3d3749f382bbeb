"""The ATR benchmark's workloads: inputs from a seed, operations and checks.

Each workload is a cycle of operations, each on one dataset, run against
the library's public entry points. The operations with the ``main`` role
give ``main_s``; every operation counts in ``cycle_s`` (see README.md
for what each is on each workload).

Inputs come from ``--seed``. The default seed gives the graphs of
``repro.exp.datasets`` and the random-baseline trial seeds of Table III,
so pinned values apply there. Any other seed hands the library an
isomorphic copy of the same graph under a seeded vertex relabelling
(which changes every edge id, iteration order and tie-break) and
re-seeds the trials. A fresh generator seed would change the amount of
work itself: driver-path GAS on facebook took 17.8 s to 35.4 s across
five generator seeds on a 4-core VM, far wider than any bound a
benchmark can hold.
"""
from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd

from repro.baselines import akt
from repro.baselines.random_sets import random_baseline, top_frac_pool
from repro.core import routes
from repro.core.greedy import run_greedy
from repro.exp.datasets import edge_frame
from repro.truss.local import INF_T, LocalGraph, TrussState, decompose, trussness_gain

DEFAULT_SEED = 0

B_GAS = 10
B_BASEPLUS = 2
B_RANDOM = 20
TRIALS = 64  # per random-baseline call; the library fans out from 64 trials
B_AKT = 3

#: Outputs at the default seed, from the code this benchmark was written
#: against. The GAS gain and the route-size sum are also in
#: results/table5.csv and results/table4.csv; the random-baseline gains
#: equal the 200-trial gains of results/table3.csv.
PINNED = {
    "gas_anchors": [765, 1432, 868, 3491, 828, 24, 2960, 5028, 5094, 5160],
    "gas_gain": 102,
    "google_route_sum": 272770,
    "rand_gain": 5,
    "tur_gain": 50,
    "akt_sweep": {3: 0, 4: 3, 5: 3, 6: 6, 7: 30, 8: 0, 9: 0},
}


def make_frame(dataset: str, seed: int) -> pd.DataFrame:
    """The dataset's edge frame; relabelled by a seeded permutation off the default seed."""
    pdf = edge_frame(dataset)
    if seed == DEFAULT_SEED:
        return pdf
    verts = np.unique(pdf[["src", "dst"]].to_numpy())
    rng = np.random.default_rng([seed, zlib.crc32(dataset.encode())])
    relabel = np.zeros(int(verts.max()) + 1, dtype=np.int64)
    relabel[verts] = verts[rng.permutation(len(verts))]
    return pd.DataFrame(
        {"src": relabel[pdf["src"].to_numpy()], "dst": relabel[pdf["dst"].to_numpy()]}
    )


def trial_seed(base: int, seed: int) -> int:
    """Table III's trial seed ``base`` at the default seed, re-seeded otherwise."""
    return base if seed == DEFAULT_SEED else base + 1000 * seed


@dataclass
class Inputs:
    """One dataset's prepared inputs."""

    g: LocalGraph
    st: TrussState
    seed: int
    _gains: dict = field(default_factory=dict)
    _akt_levels: dict = field(default_factory=dict)

    @property
    def pinned(self) -> bool:
        return self.seed == DEFAULT_SEED

    def gain_of(self, anchors) -> int:
        """``TG(A, G)`` recomputed on the driver, memoised per anchor set."""
        key = frozenset(int(a) for a in anchors)
        if key not in self._gains:
            self._gains[key] = trussness_gain(self.g, self.st, key)
        return self._gains[key]

    def akt_driver_level(self, k: int) -> tuple[int, int]:
        """AKT at level ``k`` on the driver path: its gain, and that gain recomputed."""
        if k not in self._akt_levels:
            gain, verts = akt.akt_greedy(None, self.g, self.st, k, B_AKT)
            self._akt_levels[k] = (
                gain, akt.anchored_ktruss_gain(self.g, self.st, k, frozenset(verts)))
        return self._akt_levels[k]


@dataclass
class Op:
    """One operation of a workload's cycle, on one dataset.

    ``run(spark, inputs, done)`` calls the library; ``check(inputs,
    result, done)`` returns an error message or ``None``. ``done`` maps
    the labels of the cycle's earlier operations to their results.
    ``span`` names the layer the traced run records around the call.
    ``role`` is ``main`` for the operations ``main_s`` reports, else
    ``side``.
    """

    label: str
    dataset: str
    role: str
    span: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    """A named cycle of operations."""

    name: str
    why: str
    ops: list[Op]

    @property
    def datasets(self) -> list[str]:
        return list(dict.fromkeys(op.dataset for op in self.ops))


def _errors(*pairs: tuple[bool, str]) -> str | None:
    bad = [msg for ok, msg in pairs if not ok]
    return "; ".join(bad) if bad else None


# -- gas-facebook --------------------------------------------------------
def _check_gas(inp: Inputs, res, done) -> str | None:
    checks = [
        (len(res.anchors) == B_GAS and len(set(res.anchors)) == B_GAS,
         f"GAS returned anchors {res.anchors}"),
        (res.total_gain == inp.gain_of(res.anchors),
         f"GAS total_gain {res.total_gain} != trussness_gain {inp.gain_of(res.anchors)}"),
    ]
    if inp.pinned:
        checks += [
            (res.anchors == PINNED["gas_anchors"], f"GAS anchors {res.anchors} != pinned"),
            (res.total_gain == PINNED["gas_gain"], f"GAS gain {res.total_gain} != pinned"),
        ]
    return _errors(*checks)


def _check_baseplus(inp: Inputs, res, done) -> str | None:
    gas = done.get("gas")
    return _errors(
        (gas is not None and res.anchors == gas.anchors[:B_BASEPLUS],
         f"BASE+ anchors {res.anchors} != first GAS anchors "
         f"{gas.anchors[:B_BASEPLUS] if gas else None}"),
        (res.total_gain == inp.gain_of(res.anchors),
         f"BASE+ total_gain {res.total_gain} != trussness_gain"),
    )


GAS_FACEBOOK = Workload(
    name="gas-facebook",
    why="GAS with its tree on the densest graph with the longest routes; "
    "the follower kernel, read-set reuse and both fan-out paths run",
    ops=[
        Op("gas", "facebook", "main", "greedy",
           lambda spark, inp, done: run_greedy(spark, inp.g, B_GAS, "gas", track_tree=True),
           _check_gas),
        Op("baseplus", "facebook", "side", "greedy",
           lambda spark, inp, done: run_greedy(spark, inp.g, B_BASEPLUS, "base+"),
           _check_baseplus),
    ],
)


# -- baselines -----------------------------------------------------------
def _check_routes(inp: Inputs, sizes, done) -> str | None:
    # Route sizes depend only on the graph's shape, so the Table IV sum
    # holds for every relabelling.
    return _errors(
        (len(sizes) == inp.g.m and int(sizes.min()) >= 0, "route sizes malformed"),
        (int(sizes.sum()) == PINNED["google_route_sum"],
         f"route size sum {int(sizes.sum())} != {PINNED['google_route_sum']}"),
    )


def _random_op(label: str, base_seed: int) -> Op:
    def run(spark, inp: Inputs, done):
        pool = np.arange(inp.g.m) if label == "rand" else top_frac_pool(done["routes"])
        gain, ids = random_baseline(
            spark, inp.g, inp.st, B_RANDOM, pool, TRIALS, seed=trial_seed(base_seed, inp.seed)
        )
        return gain, ids, pool

    def check(inp: Inputs, res, done) -> str | None:
        gain, ids, pool = res
        checks = [
            (len(ids) == B_RANDOM and set(ids) <= set(int(p) for p in pool),
             f"{label}: ids not a {B_RANDOM}-subset of the pool"),
            (gain == inp.gain_of(ids),
             f"{label}: best gain {gain} != trussness_gain {inp.gain_of(ids)}"),
        ]
        if inp.pinned:
            want = PINNED[f"{label}_gain"]
            checks.append((gain == want, f"{label}: gain {gain} != pinned {want}"))
        return _errors(*checks)

    return Op(label, "google", "main", "random", run, check)


def _widest_level(st: TrussState) -> int:
    """The level k whose (k-1)-trussness frontier is largest (smallest k on ties).

    A property of the graph's shape, so the same for every relabelling.
    """
    t = st.t[st.t < INF_T]
    return max(range(3, st.kmax + 2), key=lambda k: (int((t == k - 1).sum()), -k))


def _check_sweep(inp: Inputs, res, done) -> str | None:
    # The driver path must agree with the Spark path; one level is
    # recomputed on the driver, outside the timed region.
    k = _widest_level(inp.st)
    driver_gain, recomputed = inp.akt_driver_level(k)
    checks = [
        (sorted(res) == list(range(3, inp.st.kmax + 2)), f"AKT levels {sorted(res)}"),
        (all(int(v) >= 0 for v in res.values()), "AKT negative gain"),
        (res.get(k) == driver_gain == recomputed,
         f"AKT k={k}: Spark path {res.get(k)}, driver path {driver_gain}, "
         f"recomputed {recomputed}"),
    ]
    if inp.pinned:
        checks.append((res == PINNED["akt_sweep"], f"AKT sweep {res} != pinned"))
    return _errors(*checks)


BASELINES = Workload(
    name="baselines",
    why="Route sizes and Rand/Tur trials on google (few heavy Spark tasks) and "
    "the AKT sweep on college (about 20 tiny Spark jobs); no follower peel, "
    "GAS cache or tree",
    ops=[
        Op("routes", "google", "side", "routes",
           lambda spark, inp, done: routes.route_sizes_spark(spark, inp.g, inp.st),
           _check_routes),
        _random_op("rand", 1),
        _random_op("tur", 3),
        Op("akt", "college", "side", "akt",
           lambda spark, inp, done: akt.akt_sweep(spark, inp.g, inp.st, B_AKT),
           _check_sweep),
    ],
)

WORKLOADS = {w.name: w for w in (GAS_FACEBOOK, BASELINES)}


def prepare(workload: Workload, seed: int) -> tuple[dict[str, Inputs], float]:
    """Build each dataset's inputs; returns them and the graph-load seconds."""
    out: dict[str, Inputs] = {}
    load_s = 0.0
    for name in workload.datasets:
        t0 = time.perf_counter()
        g = LocalGraph(make_frame(name, seed))
        load_s += time.perf_counter() - t0
        out[name] = Inputs(g=g, st=decompose(g), seed=seed)
    return out, load_s
