"""Exact kNN ground truth via distributed brute force.

Every accuracy number in the evaluation (overall ratio, recall — Eqs. 11
and 12) is measured against these results, and Table 3's LID reads its
distances. The dataflow is the textbook two-phase top-k: each partition
computes distances to the whole query batch with one BLAS matmul and
emits, per query, every row up to its local k-th distance, ties included
(``mapInPandas``); the driver collects those rows once and ranks each
query's by ``(dist, id)`` with the same top-k as the ANN answers
(``repro.core.pmlsh._topk_per_query``). Correctness is oracle-checked
against DuckDB ``list_distance`` in ``tests/test_exact.py``.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.partindex import skip_spark_archive_rereads
from repro.core.pmlsh import (
    CAND_SCHEMA,
    Result,
    _cand_arrays,
    _cross_dist,
    _topk_per_query,
    query_matrix,
)
from repro.core.projection import vector_dim

__all__ = ["exact_knn_arrays"]


def exact_knn_arrays(vectors: DataFrame, Q: np.ndarray, k: int) -> list[Result]:
    """Exact kNN as ``[(ids, dists), ...]`` per query, ranked ascending by
    ``(dist, id)``; a k above the row count returns every row.

    Raises ``ValueError`` on the driver, before the distance pass, for a
    non-finite query, k < 1, empty vectors or a query of another width.
    """
    Q = query_matrix(Q, k, math.inf)
    if Q.shape[1] != (d := vector_dim(vectors)):
        raise ValueError(f"expected dim {d}, got {Q.shape[1]}")

    def _local_topk(batches):
        skip_spark_archive_rereads()
        for pdf in batches:
            if len(pdf) == 0:
                continue
            dist = _cross_dist(Q, np.stack(pdf["vec"].to_numpy()))
            # every row up to the k-th smallest distance, ties included, so
            # that the driver's id tie-break sees all rows that can rank
            kk = min(k, dist.shape[1])
            kth = np.partition(dist, kk - 1, axis=1)[:, kk - 1]
            qid, col = np.nonzero(dist <= kth[:, None])
            ids = pdf["id"].to_numpy(dtype=np.int64)
            yield pd.DataFrame({"qid": qid, "id": ids[col], "dist": dist[qid, col]})

    got = vectors.mapInPandas(_local_topk, schema=CAND_SCHEMA).toPandas()
    return _topk_per_query(*_cand_arrays(got), len(Q), k)[0]
