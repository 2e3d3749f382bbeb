"""Edge-list canonicalisation.

Every graph in this repo is an unweighted, undirected simple graph
represented as an edge list with integer vertex ids. The canonical form
used everywhere is:

* columns ``src``, ``dst`` (int64), with ``src < dst`` on every row;
* no self loops, no duplicate rows;
* rows sorted by ``(src, dst)`` so that the *edge id* (the row position
  in the canonical frame) is a deterministic function of the edge set.

Edge ids are load-bearing: the paper's tree structure keys nodes by the
smallest edge id, and our greedy tie-breaks on edge id, so determinism
here makes BASE / BASE+ / GAS produce byte-identical anchor sets.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _vertex_ids(col: pd.Series) -> np.ndarray:
    """A vertex-id column as int64; ids that are not int64 integers raise."""
    if col.dtype.kind in "biu":
        return col.to_numpy(dtype=np.int64)
    vals = col.to_numpy(dtype=np.float64)
    bad = ~np.isfinite(vals) | (vals != np.trunc(vals)) | (np.abs(vals) >= 2.0**63)
    if bad.any():
        raise ValueError(
            f"vertex ids in {col.name!r} must be int64 integers, got {vals[bad][:5].tolist()}"
        )
    return vals.astype(np.int64)


def canonical_edges(pdf: pd.DataFrame) -> pd.DataFrame:
    """Return the canonical (sorted, deduped, src<dst) edge frame.

    Accepts any frame with ``src``/``dst`` columns; self loops are
    dropped and both orientations of the same edge collapse to one row.
    Vertex ids must be integers: a non-finite, fractional or out-of-int64
    id raises ``ValueError`` instead of being truncated.
    """
    src = _vertex_ids(pdf["src"])
    dst = _vertex_ids(pdf["dst"])
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    out = pd.DataFrame({"src": lo[keep], "dst": hi[keep]})
    out = out.drop_duplicates().sort_values(["src", "dst"]).reset_index(drop=True)
    return out
