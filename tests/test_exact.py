"""Tests for the distributed exact-kNN ground truth, oracle-checked."""
import numpy as np
import pandas as pd
import pytest

from repro import datasets
from repro.baselines.exact import exact_knn_arrays
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
    out = exact_knn_arrays(df, Q, 10)
    assert len(out) == len(Q)
    for qi, (ids, dists) in enumerate(out):
        d = np.linalg.norm(X - Q[qi][None, :], axis=1)
        order = np.lexsort((np.arange(len(X)), d))[:10]
        np.testing.assert_array_equal(ids, order)
        np.testing.assert_allclose(dists, np.sort(d)[:10], rtol=1e-9)


def test_exact_knn_duckdb_oracle(data):
    """Full result-equality check against DuckDB list_distance + window;
    a row's rank is its position in the query's answer."""
    df, X, Q = data
    k = 8
    out = exact_knn_arrays(df, Q, k)
    got = pd.DataFrame({
        "qid": np.repeat(np.arange(len(Q), dtype=np.int64), [len(i) for i, _ in out]),
        "id": np.concatenate([ids for ids, _ in out]),
        "dist": np.concatenate([d for _, d in out]).round(6),
        "rank": np.concatenate([np.arange(1, len(i) + 1) for i, _ in out]),
    })
    vec_pdf = pd.DataFrame({"id": np.arange(len(X), dtype=np.int64), "vec": list(X)})
    q_pdf = pd.DataFrame({"qid": np.arange(len(Q), dtype=np.int64), "qvec": list(Q)})
    assert_equivalent(
        got,
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


@pytest.mark.parametrize("case", ["nan", "inf", "k=0", "k<0", "dim"])
def test_exact_knn_rejects_bad_input_before_spark(case, data, monkeypatch):
    """A non-finite query, k < 1 or a query of the wrong width fails on the
    driver: the distance pass never starts, and no query silently gets an
    empty ground truth or an executor error."""
    df, X, Q = data
    Q, k = Q.copy(), 5
    if case == "nan":
        Q[1, 3] = np.nan
    elif case == "inf":
        Q[0, 0] = -np.inf
    elif case == "dim":
        Q = Q[:, :-1]
    else:
        k = 0 if case == "k=0" else -1

    def fail(*a, **kw):
        raise AssertionError("a Spark job started before input validation")

    monkeypatch.setattr(type(df), "mapInPandas", fail)
    with pytest.raises(ValueError):
        exact_knn_arrays(df, Q, k)
