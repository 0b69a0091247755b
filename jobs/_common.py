"""Shared helpers for spark-submit job entrypoints.

Each job module exposes ``run(spark, sf=...) -> list[dict]`` (the rows
of the table/figure it reproduces) and prints them via
``repro.core.metrics.print_table``. ``main(run)`` wraps the function
for ``spark-submit jobs/<name>.py [sf]``.
"""
from __future__ import annotations

import sys

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """The one session builder, shared with the test fixture.

    The settings mirror gmsbench's ``SPARK_CONF``, so that jobs, tests
    and the benchmark run one configuration; whether broadcast joins
    stay disabled is for a benchmark change to decide (ROADMAP item 4).
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def main(run) -> None:
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_spark(run.__module__)
    try:
        run(spark, sf=sf)
    finally:
        spark.stop()
