"""The local kernel's triangle incidence and support vs a DuckDB oracle.

The SQL side recomputes triangles and support from the raw edge table
by an oriented three-way join, a code path that shares nothing with the
vectorised CSR enumeration in :class:`repro.truss.local.LocalGraph`, so
a lost or duplicated triangle fails the diff — not just "it ran".
"""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.graphs.gen import community_graph, random_graph
from repro.graphs.toys import truss_ladder, two_triangles
from repro.truss.local import LocalGraph

_TRI_SQL = """
WITH tri AS (
  SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
  FROM edges e1
  JOIN edges e2 ON e1.dst = e2.src
  JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst
)
"""

SUPPORT_SQL = (
    _TRI_SQL
    + """
, sides AS (
  SELECT a AS src, b AS dst FROM tri
  UNION ALL SELECT b, c FROM tri
  UNION ALL SELECT a, c FROM tri
), cnt AS (
  SELECT src, dst, count(*) AS sup FROM sides GROUP BY src, dst
)
SELECT e.src AS src, e.dst AS dst, CAST(coalesce(cnt.sup, 0) AS BIGINT) AS sup
FROM edges e LEFT JOIN cnt ON e.src = cnt.src AND e.dst = cnt.dst
"""
)

TRIANGLES_SQL = _TRI_SQL + "SELECT a, b, c FROM tri"


def _graphs():
    yield "two_triangles", two_triangles()
    yield "ladder", truss_ladder()
    for seed in range(3):
        yield f"rand{seed}", random_graph(n=30, m=90, seed=seed)
    yield "comm", community_graph(n=50, n_cliques=15, n_noise=20, seed=4)
    for seed in range(4):
        yield str(seed), random_graph(n=25, m=70, seed=seed)


GRAPHS = list(_graphs())


def _duckdb(sql: str, g: LocalGraph) -> pd.DataFrame:
    """Run ``sql`` over ``g``'s canonical edges, registered as ``edges``."""
    con = duckdb.connect()
    try:
        con.register("edges", pd.DataFrame(g.edges, columns=["src", "dst"]))
        return con.execute(sql).fetchdf()
    finally:
        con.close()


@pytest.mark.parametrize("label,pdf", GRAPHS, ids=[c[0] for c in GRAPHS])
def test_local_support_matches_duckdb_counts(label, pdf):
    """``LocalGraph.support()`` agrees with the SQL oracle on every edge."""
    g = LocalGraph(pdf)
    sql = _duckdb(SUPPORT_SQL, g).sort_values(["src", "dst"])
    assert np.array_equal(sql[["src", "dst"]].to_numpy(), g.edges)
    assert sql["sup"].tolist() == g.support().tolist()


@pytest.mark.parametrize("label,pdf", GRAPHS, ids=[c[0] for c in GRAPHS])
def test_local_triangles_match_duckdb(label, pdf):
    """The triangles rebuilt from ``tri_ptr``/``tri_pe`` are the SQL set."""
    g = LocalGraph(pdf)
    local = set()
    for e in range(g.m):
        for e1, e2 in g.tri_pe[g.tri_ptr[e]:g.tri_ptr[e + 1]].tolist():
            local.add(tuple(sorted({*g.edge(e), *g.edge(e1), *g.edge(e2)})))
    sql = _duckdb(TRIANGLES_SQL, g)
    assert len(sql) == len(local) == g.support().sum() // 3
    assert set(sql.itertuples(index=False, name=None)) == local
