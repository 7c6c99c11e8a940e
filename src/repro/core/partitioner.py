"""Projected-space data partitioning for the distributed indexes.

PM-LSH's "data partitioning" component (Fig. 2) maps points into the
projected space and divides them into regions. Here the regions are
``n_partitions`` clusters from a sampled k-means in the projected space:
cluster = Spark partition = one PM-tree. Clustered (rather than hashed)
partitions give each partition a tight ball+ring summary, so whole
partitions can be pruned at query time exactly like PM-tree inner nodes.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import IntegerType, StructField, StructType

from repro.core.partindex import skip_spark_archive_rereads
from repro.core.projection import PROJECTED_SCHEMA

__all__ = ["kmeans", "assign_partitions", "ASSIGNED_SCHEMA"]

# StructType.add mutates in place — build from a copy of the field list.
ASSIGNED_SCHEMA = StructType(
    list(PROJECTED_SCHEMA.fields) + [StructField("pid", IntegerType(), False)]
)


def kmeans(sample: np.ndarray, k: int, *, iters: int = 12, seed: int = 0) -> np.ndarray:
    """Plain Lloyd k-means on a driver-side sample; returns (k, m) centers.

    Empty clusters are reseeded from the farthest points so exactly ``k``
    centers come back (a partition per center keeps Spark-side grouping
    deterministic).
    """
    sample = np.asarray(sample, dtype=np.float64)
    g = np.random.default_rng(seed)
    k = min(k, len(sample))
    centers = sample[g.choice(len(sample), size=k, replace=False)]
    for _ in range(iters):
        d2 = (
            np.einsum("ij,ij->i", sample, sample)[:, None]
            - 2.0 * sample @ centers.T
            + np.einsum("ij,ij->i", centers, centers)[None, :]
        )
        assign = np.argmin(d2, axis=1)
        for j in range(k):
            members = sample[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                centers[j] = sample[int(np.argmax(d2.min(axis=1)))]
    return centers


def assign_partitions(projected: DataFrame, centers: np.ndarray) -> DataFrame:
    """Append a ``pid`` column: the nearest k-means center in projected space."""
    C = np.asarray(centers, dtype=np.float64)
    c_sq = np.einsum("ij,ij->i", C, C)

    def _assign(batches):
        skip_spark_archive_rereads()
        for pdf in batches:
            if len(pdf) == 0:
                continue
            P = np.stack(pdf["proj"].to_numpy())
            d2 = np.einsum("ij,ij->i", P, P)[:, None] - 2.0 * P @ C.T + c_sq[None, :]
            pdf = pdf.copy()
            pdf["pid"] = np.argmin(d2, axis=1).astype(np.int32)
            yield pdf

    return projected.mapInPandas(_assign, schema=ASSIGNED_SCHEMA)
