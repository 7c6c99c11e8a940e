"""Tests for the distributed exact-kNN ground truth, oracle-checked."""
import numpy as np
import pandas as pd
import pytest

from repro import datasets
from repro.baselines.exact import exact_knn, exact_knn_arrays
from repro.core.projection import VECTOR_SCHEMA
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def data(spark):
    X = datasets.generate("Audio", n=400)
    Q = datasets.make_queries("Audio", nq=4)
    df = datasets.to_spark(spark, X, partitions=6).cache()
    df.count()
    yield df, X, Q
    df.unpersist()


def test_exact_knn_matches_numpy(data):
    df, X, Q = data
    out = exact_knn(df, Q, 10).toPandas()
    for qi in range(len(Q)):
        d = np.linalg.norm(X - Q[qi][None, :], axis=1)
        order = np.lexsort((np.arange(len(X)), d))[:10]
        grp = out[out["qid"] == qi].sort_values("rank")
        np.testing.assert_array_equal(grp["id"].to_numpy(), order)
        np.testing.assert_allclose(grp["dist"].to_numpy(), np.sort(d)[:10], rtol=1e-9)


def test_exact_knn_duckdb_oracle(data):
    """Full result-equality check against DuckDB list_distance + window."""
    df, X, Q = data
    k = 8
    spark_out = exact_knn(df, Q, k).selectExpr(
        "qid", "id", "round(dist, 6) as dist", "rank"
    )
    vec_pdf = pd.DataFrame({"id": np.arange(len(X), dtype=np.int64), "vec": list(X)})
    q_pdf = pd.DataFrame({"qid": np.arange(len(Q), dtype=np.int64), "qvec": list(Q)})
    assert_equivalent(
        spark_out,
        f"""
        WITH dists AS (
          SELECT q.qid AS qid, v.id AS id,
                 list_distance(v.vec, q.qvec) AS d
          FROM vectors v CROSS JOIN queries q
        ), ranked AS (
          SELECT qid, id, round(d, 6) AS dist,
                 row_number() OVER (PARTITION BY qid ORDER BY d ASC, id ASC) AS rank
          FROM dists
        )
        SELECT qid, id, dist, rank FROM ranked WHERE rank <= {k}
        """,
        vectors=vec_pdf,
        queries=q_pdf,
    )


def test_exact_knn_arrays_sorted(data):
    df, X, Q = data
    res = exact_knn_arrays(df, Q, 12)
    assert len(res) == len(Q)
    for ids, dists in res:
        assert len(ids) == 12
        assert np.all(np.diff(dists) >= -1e-12)


def test_exact_knn_k_larger_than_n(spark):
    X = np.random.default_rng(0).standard_normal((5, 4))
    df = datasets.to_spark(spark, X)
    res = exact_knn_arrays(df, X[:1], k=10)
    assert len(res[0][0]) == 5  # returns everything, no padding


def test_exact_knn_single_query_vector(data):
    df, X, Q = data
    res = exact_knn_arrays(df, Q[0], k=3)
    assert len(res) == 1 and len(res[0][0]) == 3


def test_ties_within_one_partition_break_by_id(spark):
    """More rows than k tie at the k-th distance inside one partition, with
    ids not in row order: the answer is the ``(dist, id)`` sort, not
    whichever tied rows the partition happens to keep."""
    X = np.array([[5.0], [1.0], [-1.0], [1.0], [-1.0], [0.0]])
    ids = np.array([10, 4, 3, 2, 1, 0], dtype=np.int64)
    df = spark.createDataFrame(pd.DataFrame({"id": ids, "vec": list(X)}),
                               schema=VECTOR_SCHEMA).coalesce(1)
    for k in (2, 3, 5):
        got_ids, got_dist = exact_knn_arrays(df, np.zeros((1, 1)), k)[0]
        d = np.abs(X[:, 0])
        order = np.lexsort((ids, d))[:k]
        np.testing.assert_array_equal(got_ids, ids[order])
        np.testing.assert_array_equal(got_dist, d[order])
