"""Tests for the DuckDB oracle that the graph tests compare against.

The graph reproduction leans on its semantics, so its contract is
pinned here.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


def test_oracle_passes_on_equal_results(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    df = spark.createDataFrame(pdf).groupBy("k").agg(F.sum("v").alias("s"))
    assert_equivalent(df, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_detects_wrong_result(spark):
    pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
    df = spark.createDataFrame(pdf).groupBy("k").agg((F.sum("v") + 1).alias("s"))
    with pytest.raises(AssertionError):
        assert_equivalent(df, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_detects_column_mismatch(spark):
    pdf = pd.DataFrame({"k": [1]})
    df = spark.createDataFrame(pdf).select(F.col("k").alias("wrong"))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(df, "SELECT k FROM t", t=pdf)


def test_oracle_accepts_spark_inputs(spark):
    pdf = pd.DataFrame({"k": [3, 3, 4]})
    sdf = spark.createDataFrame(pdf)
    out = sdf.groupBy("k").agg(F.count("*").alias("c"))
    assert_equivalent(out, "SELECT k, count(*) AS c FROM t GROUP BY k", t=sdf)
