"""LScan baseline (Section 6.1, competitor 5).

A linear scan that examines a random portion of the points (70% by
default in the paper) and returns the top-k among them. Distributed as a
seeded Bernoulli sample inside each partition followed by the same
two-phase top-k as the exact ground truth — so its cost is a constant
fraction of brute force, and its recall plateaus around the sample rate,
exactly the behaviour Table 4 shows.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.exact import exact_knn_arrays
from repro.core.pmlsh import Result, query_matrix
from repro.core.projection import vector_dim

__all__ = ["LScan"]


class LScan:
    """Materialized random sample of the dataset, queried by brute force."""

    def __init__(self, spark: SparkSession, vectors: DataFrame, *,
                 fraction: float = 0.7, seed: int = 0):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.d = vector_dim(vectors)
        self.sample = vectors.sample(fraction=fraction, seed=seed).cache()
        self.n_sampled = self.sample.count()

    def query_batch(self, Q: np.ndarray, k: int = 50) -> list[Result]:
        Q = query_matrix(Q, k, self.n_sampled)
        if Q.shape[1] != self.d:
            raise ValueError(f"expected dim {self.d}, got {Q.shape[1]}")
        # every sampled point's distance is computed for every query
        self.last_probed = {i: self.n_sampled for i in range(len(Q))}
        return exact_knn_arrays(self.sample, Q, k)
