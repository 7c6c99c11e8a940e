"""Multi-Probe LSH baseline (Lv et al., VLDB'07).

Classic bucketed LSH (Eq. 1: ``h(o) = floor((a.o + b)/w)``) with ``L``
tables of ``m_mp`` compound hash functions each, plus *query-directed
probing*: instead of only the query's own bucket, each table probes a
sequence of nearby buckets ordered by the query-to-boundary perturbation
score (the heap-based "shift/expand" generation of perturbation sets
from the original paper). All points in probed buckets are verified with
true distances; the best k are returned.

This is the paper's bucket-granularity competitor: its distance
estimation is bucket-to-bucket, so for the same number of probed points
it ranks candidates worse than PM-LSH's point-to-point estimator —
Table 4 shows that as lower recall, which this implementation preserves.

The bucket width ``w`` must match the data's distance scale; it is the
median of the pairwise distance distribution (the original tunes w per
dataset the same way).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.partindex import PartitionedIndex
from repro.core.pmlsh import (
    CAND_SCHEMA,
    Result,
    _cand_frame,
    _group_by_qid,
    _topk,
    _verified,
    build_preamble,
    query_matrix,
)
from repro.core.projection import GaussianProjection

__all__ = ["MultiProbe", "probe_sequence"]

W_QUANTILE = 0.5  # bucket width w = this quantile of the distance distribution


def probe_sequence(f: np.ndarray, w: float, n_probe: int) -> list[tuple[int, ...]]:
    """Perturbation-set probing sequence for one table.

    ``f`` are the raw (pre-floor) hash values of the query. Returns up to
    ``n_probe + 1`` bucket coordinate tuples, the query's own bucket
    first, then buckets in increasing boundary-distance score (the
    min-heap over shift/expand of sorted single-coordinate perturbations).
    """
    m = len(f)
    base = np.floor(f / w).astype(np.int64)
    x_low = f - base * w
    # all 2m single-coordinate perturbations sorted by squared boundary gap
    perts = sorted(
        [(float(x_low[j] ** 2), j, -1) for j in range(m)]
        + [(float((w - x_low[j]) ** 2), j, +1) for j in range(m)]
    )
    scores = [p[0] for p in perts]

    def total(idx_set: tuple[int, ...]) -> float:
        return sum(scores[i] for i in idx_set)

    def valid(idx_set: tuple[int, ...]) -> bool:
        seen = set()
        for i in idx_set:
            j = perts[i][1]
            if j in seen:
                return False
            seen.add(j)
        return True

    out = [tuple(base)]
    if n_probe <= 0 or m == 0:
        return out
    heap: list[tuple[float, tuple[int, ...]]] = [(scores[0], (0,))]
    emitted = 0
    guard = 0
    while heap and emitted < n_probe and guard < 100 * n_probe:
        guard += 1
        s, idx_set = heapq.heappop(heap)
        last = idx_set[-1]
        if last + 1 < len(perts):
            # shift: replace the max element with its successor
            heapq.heappush(
                heap, (s - scores[last] + scores[last + 1], idx_set[:-1] + (last + 1,))
            )
            # expand: add the successor
            heapq.heappush(heap, (s + scores[last + 1], idx_set + (last + 1,)))
        if valid(idx_set):
            bucket = base.copy()
            for i in idx_set:
                bucket[perts[i][1]] += perts[i][2]
            out.append(tuple(bucket))
            emitted += 1
    return out


@dataclass
class MultiProbe:
    spark: SparkSession
    projections: list[GaussianProjection]   # one per table
    index: PartitionedIndex
    n: int
    w: float
    n_probe: int

    @classmethod
    def build(cls, spark: SparkSession, vectors: DataFrame, *, L: int = 4,
              m_mp: int = 8, n_probe: int = 128, n_partitions: int = 8,
              seed: int = 0, sample_size: int = 4096) -> "MultiProbe":
        # partitioning reuses a cheap projection just to cluster the data
        pre = build_preamble(
            vectors, lambda d, n: GaussianProjection(d, 8, seed=seed + 77),
            n_partitions=n_partitions, seed=seed, sample_size=sample_size,
            with_F=True)
        w = max(pre.F.quantile(W_QUANTILE), 1e-6)
        projections = [
            GaussianProjection(pre.proj.d, m_mp, seed=seed + 1000 + t, w=w)
            for t in range(L)
        ]

        def _build(ids: np.ndarray, P: np.ndarray, X: np.ndarray
                   ) -> tuple[dict, dict]:
            tables = []
            for proj_t in projections:
                B = proj_t.buckets(X)          # (n_i, m_mp) int64
                table: dict[tuple[int, ...], np.ndarray] = {}
                keys = [tuple(row) for row in B]
                by_key: dict[tuple[int, ...], list[int]] = {}
                for i, kk in enumerate(keys):
                    by_key.setdefault(kk, []).append(i)
                for kk, rows in by_key.items():
                    table[kk] = np.asarray(rows, dtype=np.int64)
                tables.append(table)
            return {"tables": tables, "X": X, "ids": ids}, {}

        index = PartitionedIndex.build(spark, pre.assigned, _build, name="multiprobe")
        return cls(spark=spark, projections=projections, index=index, n=pre.n,
                   w=w, n_probe=n_probe)

    # ------------------------------------------------------------------
    def query_batch(self, Q: np.ndarray, k: int = 50) -> list[Result]:
        Q = query_matrix(Q, k, self.n)
        # driver-side probing sequences: tiny (L * n_probe buckets per query)
        plans: dict[int, list[list[tuple[int, ...]]]] = {}
        for qi, q in enumerate(Q):
            per_table = []
            for proj_t in self.projections:
                f = (proj_t.project(q)[0] + proj_t.b)
                per_table.append(probe_sequence(f, proj_t.w, self.n_probe))
            plans[qi] = per_table
        QV = Q

        def _probe(blob: dict, summary: dict, pid: int) -> pd.DataFrame | None:
            tables, X, ids = blob["tables"], blob["X"], blob["ids"]
            parts = []
            for qi, per_table in plans.items():
                rows_acc: list[np.ndarray] = []
                for t, buckets in enumerate(per_table):
                    tab = tables[t]
                    for bk in buckets:
                        hit = tab.get(bk)
                        if hit is not None:
                            rows_acc.append(hit)
                if not rows_acc:
                    continue
                rows = np.unique(np.concatenate(rows_acc))
                parts.append((qi, ids[rows], np.zeros(len(rows)),
                              _verified(X, rows, QV[qi])))
            return _cand_frame(parts)

        got = self.index.probe(_probe, schema=CAND_SCHEMA).toPandas()
        all_ids = got["id"].to_numpy(dtype=np.int64)
        all_dist = got["dist"].to_numpy(dtype=np.float64)
        order, bounds = _group_by_qid(got["qid"].to_numpy(dtype=np.int64), len(Q))
        results = []
        self.last_probed = {}
        for qi in range(len(Q)):
            grp = order[bounds[qi]:bounds[qi + 1]]
            self.last_probed[qi] = len(grp)
            results.append(_topk(all_ids[grp], all_dist[grp], k))
        return results

    def query(self, q: np.ndarray, k: int = 50) -> Result:
        return self.query_batch(np.asarray(q)[None, :], k)[0]
