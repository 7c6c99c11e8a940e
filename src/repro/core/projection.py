"""2-stable (Gaussian) LSH projection family.

The paper's hash family (Section 3.2) is ``h*(o) = a . o`` with each
coordinate of ``a`` drawn i.i.d. from N(0, 1); concatenating ``m`` such
functions maps a point into the m-dimensional *projected space*. The
bucketed variant ``h(o) = floor((a . o + b) / w)`` (Eq. 1) is used by the
Multi-Probe baseline.

Both are exposed as vectorized NumPy transforms plus a DataFrame
transform (``mapInPandas``) that appends a ``proj`` array column to a
vector DataFrame with schema ``(id long, vec array<double>)``.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.partindex import skip_spark_archive_rereads

__all__ = ["GaussianProjection", "VECTOR_SCHEMA", "PROJECTED_SCHEMA", "vector_dim"]

VECTOR_SCHEMA = StructType(
    [
        StructField("id", LongType(), False),
        StructField("vec", ArrayType(DoubleType(), False), False),
    ]
)

PROJECTED_SCHEMA = StructType(
    [
        StructField("id", LongType(), False),
        StructField("vec", ArrayType(DoubleType(), False), False),
        StructField("proj", ArrayType(DoubleType(), False), False),
    ]
)


def vector_dim(vectors: DataFrame) -> int:
    """Length of the first ``vec``; ``ValueError`` on an empty DataFrame,
    so that no further Spark job starts on it."""
    first = vectors.select("vec").first()
    if first is None:
        raise ValueError("expected a non-empty vector DataFrame")
    return len(first["vec"])


class GaussianProjection:
    """A fixed set of ``m`` 2-stable hash functions over ``d`` dimensions.

    Deterministic in ``seed`` so driver and executors (which receive the
    small ``(m, d)`` matrix via closure broadcast) agree on the mapping.
    """

    def __init__(self, d: int, m: int = 15, *, seed: int = 7, w: float = 4.0):
        if d <= 0 or m <= 0:
            raise ValueError(f"d and m must be positive, got d={d} m={m}")
        self.d = d
        self.m = m
        self.w = float(w)
        self.seed = seed
        g = np.random.default_rng(seed)
        self.A = g.standard_normal((m, d))  # rows are the vectors a_i
        self.b = g.uniform(0.0, w, size=m)  # offsets for the bucketed h()

    # ---- NumPy-level API -------------------------------------------------
    def project(self, X: np.ndarray) -> np.ndarray:
        """h*(X): map an (n, d) matrix to (n, m) projected coordinates."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.d:
            raise ValueError(f"expected dim {self.d}, got {X.shape[1]}")
        return X @ self.A.T

    def buckets(self, X: np.ndarray) -> np.ndarray:
        """Bucketed compound hash G(X) = floor((h*(X) + b) / w), shape (n, m)."""
        return np.floor((self.project(X) + self.b) / self.w).astype(np.int64)

    # ---- DataFrame-level API --------------------------------------------
    def transform(self, vectors: DataFrame) -> DataFrame:
        """Append ``proj`` (length-m array) to an ``(id, vec)`` DataFrame.

        Runs per-partition via mapInPandas so each Arrow batch is projected
        with one BLAS matmul instead of a per-row UDF call.
        """
        A = self.A

        def _proj(batches):
            skip_spark_archive_rereads()
            for pdf in batches:
                if len(pdf) == 0:
                    continue
                X = np.stack(pdf["vec"].to_numpy())
                P = X @ A.T
                pdf = pdf.copy()
                pdf["proj"] = list(P)
                yield pdf

        return vectors.mapInPandas(_proj, schema=PROJECTED_SCHEMA)
