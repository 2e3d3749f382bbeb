"""Shared SparkSession builder for spark-submit entrypoints.

Mirrors the conftest fixture's settings so job runs and test runs
exercise the same execution configuration.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
