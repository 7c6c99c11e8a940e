"""Exact kNN ground truth via distributed brute force.

Every accuracy number in the evaluation (overall ratio, recall — Eqs. 11
and 12) is measured against these results. The dataflow is the textbook
two-phase top-k: each partition computes distances to the whole query
batch with one BLAS matmul and emits its local top-k per query
(``mapInPandas``), then a window over ``(qid, dist)`` keeps the global
top-k. Correctness is oracle-checked against DuckDB ``list_distance`` in
``tests/test_exact.py``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType
from pyspark.sql.window import Window

from repro.core.partindex import skip_spark_archive_rereads
from repro.core.pmlsh import _group_by_qid

__all__ = ["exact_knn", "exact_knn_arrays", "TOPK_SCHEMA"]

TOPK_SCHEMA = StructType(
    [
        StructField("qid", LongType(), False),
        StructField("id", LongType(), False),
        StructField("dist", DoubleType(), False),
    ]
)


def exact_knn(vectors: DataFrame, Q: np.ndarray, k: int) -> DataFrame:
    """DataFrame ``(qid, id, dist, rank)`` of the exact kNN of each query.

    Ties beyond rank k are broken by ``id`` so the result is deterministic.
    """
    Qm = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    q_sq = np.einsum("ij,ij->i", Qm, Qm)

    def _local_topk(batches):
        skip_spark_archive_rereads()
        for pdf in batches:
            if len(pdf) == 0:
                continue
            X = np.stack(pdf["vec"].to_numpy())
            x_sq = np.einsum("ij,ij->i", X, X)
            d2 = q_sq[:, None] + x_sq[None, :] - 2.0 * (Qm @ X.T)
            dist = np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
            # every row up to the k-th smallest distance, ties included, so
            # that the window's id tie-break sees all rows that can rank
            kk = min(k, dist.shape[1])
            kth = np.partition(dist, kk - 1, axis=1)[:, kk - 1]
            qid, col = np.nonzero(dist <= kth[:, None])
            ids = pdf["id"].to_numpy(dtype=np.int64)
            yield pd.DataFrame({"qid": qid, "id": ids[col], "dist": dist[qid, col]})

    local = vectors.mapInPandas(_local_topk, schema=TOPK_SCHEMA)
    w = Window.partitionBy("qid").orderBy(F.col("dist").asc(), F.col("id").asc())
    return (
        local.withColumn("rank", F.row_number().over(w))
        .where(F.col("rank") <= k)
    )


def exact_knn_arrays(vectors: DataFrame, Q: np.ndarray, k: int
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact kNN as ``[(ids, dists), ...]`` per query, ranked ascending."""
    pdf = exact_knn(vectors, Q, k).toPandas().sort_values("rank")
    ids = pdf["id"].to_numpy(dtype=np.int64)
    dist = pdf["dist"].to_numpy(dtype=np.float64)
    nq = len(np.atleast_2d(np.asarray(Q)))
    order, bounds = _group_by_qid(pdf["qid"].to_numpy(dtype=np.int64), nq)
    return [(ids[g], dist[g]) for g in np.split(order, bounds[1:-1])]
