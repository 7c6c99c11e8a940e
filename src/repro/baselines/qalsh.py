"""QALSH baseline (Huang et al., PVLDB'15) — query-aware LSH.

QALSH keeps one B+-tree per hash function over the raw projection values
``h_j(o) = a_j . o`` and, at query time, *virtually rehashes* by widening
a window of half-width ``w * r / 2`` centred at ``h_j(q)`` for the radius
sequence ``r = r0, c*r0, c^2*r0, ...``. A point becomes a candidate once
it collides (falls in the window) in at least ``l = ceil(alpha * m_q)``
projections; candidates are verified with true distances. Termination:
k candidates within ``c*r``, or ``beta_q * n + k`` candidates verified.

Parameters follow the QALSH paper and are fixed: bucket width
``w = 2.719``, error probability ``delta = 1/e``, false-positive budget
``beta_q = 100/n``, at most 200 hash functions;
``m_q`` and ``alpha`` derived from ``(p1, p2) = (p(1), p(c))`` where
``p(r) = 2*Phi(w/(2r)) - 1`` — QALSH needs O(n log n)-ish many more hash
functions than PM-LSH's 15, which is exactly the space/time critique the
paper levels at it.

Adaptation: the original assumes distances start at r=1 (integer data);
here ``r0`` comes from the dataset's distance distribution (smallest
percentile), which preserves the geometric radius schedule; the rounds
run in PM-LSH's loop (``repro.core.pmlsh.enlarge_radius``), capped at 48.
The windows nest as r grows, so collision counts only rise and each
round's candidates contain the earlier rounds': a round returns every
candidate of each active query at its radius, as PM-LSH's rounds do.
The B+-trees are per-partition sorted column arrays probed with
``searchsorted`` (same O(log n + window) asymptotics, vectorized).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.partindex import PartitionedIndex
from repro.core.pmlsh import (
    CAND_SCHEMA,
    Result,
    _cand_frame,
    _verified,
    build_preamble,
    enlarge_radius,
    query_matrix,
)
from repro.core.projection import GaussianProjection
from repro.costmodel import DistanceDistribution

__all__ = ["QALSH", "qalsh_params"]

W = 2.719        # bucket width
MAX_ROUNDS = 48  # radius rounds before the best-effort answer


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def qalsh_params(n: int, c: float, *, w: float = W,
                 delta: float = 1.0 / math.e, beta_q: float | None = None,
                 m_cap: int = 200) -> tuple[int, int, float]:
    """(m_q, l, beta_q) per the QALSH formulas (capped for practicality)."""
    beta_q = beta_q if beta_q is not None else 100.0 / max(n, 1)
    beta_q = min(max(beta_q, 1e-6), 0.5)
    p1 = 2.0 * _phi(w / 2.0) - 1.0
    p2 = 2.0 * _phi(w / (2.0 * c)) - 1.0
    a = math.sqrt(math.log(2.0 / beta_q))
    b = math.sqrt(math.log(1.0 / delta))
    m_q = math.ceil((a + b) ** 2 / (2.0 * (p1 - p2) ** 2))
    m_q = min(m_q, m_cap)
    alpha = (a * p2 + b * p1) / (a + b)
    l = min(m_q, max(1, math.ceil(alpha * m_q)))
    return m_q, l, beta_q


@dataclass
class QALSH:
    proj: GaussianProjection   # m_q one-dimensional projections
    index: PartitionedIndex
    F: DistanceDistribution
    n: int
    c: float
    m_q: int
    l: int
    beta_q: float

    @classmethod
    def build(cls, spark: SparkSession, vectors: DataFrame, *, c: float = 1.5,
              n_partitions: int = 8, seed: int = 0, sample_size: int = 4096
              ) -> "QALSH":
        pre = build_preamble(
            vectors,
            lambda d, n: GaussianProjection(d, qalsh_params(n, c)[0], seed=seed + 31),
            n_partitions=n_partitions, seed=seed, sample_size=sample_size,
            with_F=True)
        m_q, l, beta_q = qalsh_params(pre.n, c)

        def _build(ids: np.ndarray, H: np.ndarray, X: np.ndarray
                   ) -> tuple[dict, dict]:
            order = np.argsort(H, axis=0, kind="stable")  # per-column B+-tree
            sorted_h = np.take_along_axis(H, order, axis=0)
            return {"sorted_h": sorted_h, "order": order, "X": X, "ids": ids}, {}

        index = PartitionedIndex.build(spark, pre.assigned, _build, name="qalsh")
        return cls(proj=pre.proj, index=index, F=pre.F, n=pre.n,
                   c=c, m_q=m_q, l=l, beta_q=beta_q)

    # ------------------------------------------------------------------
    def r0(self) -> float:
        """Initial radius: a low percentile of the distance distribution."""
        r = self.F.quantile(0.001)
        return max(r, 1e-6)

    def query_batch(self, Q: np.ndarray, k: int = 50) -> list[Result]:
        Q = query_matrix(Q, k, self.n)
        QH = self.proj.project(Q)                     # (nq, m_q)
        l_loc, QV = self.l, Q

        def probe(radii: dict[int, float]) -> pd.DataFrame:
            """One virtual-rehashing round: every point that collides with
            its query in at least ``l`` windows."""

            def _probe(blob: dict, pid: int) -> pd.DataFrame | None:
                sorted_h, order = blob["sorted_h"], blob["order"]
                X, ids = blob["X"], blob["ids"]
                n_i = len(ids)
                parts = []
                for qi, rr in radii.items():
                    half = W * rr / 2.0
                    counts = np.zeros(n_i, dtype=np.int32)
                    for j in range(sorted_h.shape[1]):
                        loq = QH[qi, j] - half
                        hiq = QH[qi, j] + half
                        a = np.searchsorted(sorted_h[:, j], loq, side="left")
                        b = np.searchsorted(sorted_h[:, j], hiq, side="right")
                        if b > a:
                            counts[order[a:b, j]] += 1
                    hit = np.where(counts >= l_loc)[0]
                    if len(hit):
                        parts.append((qi, ids[hit], _verified(X, hit, QV[qi])))
                return _cand_frame(parts)

            return self.index.probe(_probe, schema=CAND_SCHEMA).toPandas()

        results, self.last_probed, _ = enlarge_radius(
            len(Q), k, r0=self.r0(), c=self.c, probe=probe,
            budget=min(self.beta_q * self.n + k, self.n), max_rounds=MAX_ROUNDS)
        return results
