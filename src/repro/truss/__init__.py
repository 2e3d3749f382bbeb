"""Truss substrate: the local kernel (:mod:`repro.truss.local`) and its test oracle."""
from repro.truss.local import INF_T, LocalGraph, TrussState, decompose  # noqa: F401
