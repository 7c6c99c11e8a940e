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
    _cand_arrays,
    _topk_per_query,
    _verified,
    build_preamble,
    query_matrix,
)
from repro.core.projection import GaussianProjection

__all__ = ["MultiProbe", "bucket_table", "probe_sequence", "probe_tables"]

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


def _row_keys(B: np.ndarray) -> np.ndarray:
    """One ``np.void`` key per row of the int matrix ``B``: keys are equal
    exactly when rows are, and sort and ``searchsorted`` by their bytes."""
    B = np.ascontiguousarray(B, dtype=np.int64)
    return B.view(np.dtype((np.void, B.itemsize * B.shape[1]))).ravel()


def bucket_table(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One hash table over the rows of the ``(n, m)`` bucket matrix ``B``.

    Returns ``(keys, offsets, rows)``: the distinct bucket rows in key
    order, and CSR offsets such that bucket ``keys[b]`` holds the rows
    ``rows[offsets[b]:offsets[b + 1]]``, in ascending order.
    """
    B = np.asarray(B, dtype=np.int64)
    rows = np.argsort(_row_keys(B), kind="stable")
    key = _row_keys(B)[rows]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return B[rows[starts]], np.append(starts, len(rows)), rows


def probe_tables(tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                 probes: list[tuple[np.ndarray, np.ndarray]], n: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``(qid, row)`` for every row in a bucket that query ``qid`` probes in
    some table, each pair once, sorted by qid and then row. ``tables[t]`` is
    a :func:`bucket_table` over ``n`` rows, and ``probes[t]`` is ``(buckets,
    qid)``: an ``(n_probes, m)`` int matrix and the query of each bucket."""
    pairs = []
    for (keys, offsets, rows), (buckets, qid) in zip(tables, probes):
        keys, want = _row_keys(keys), _row_keys(buckets)
        at = np.searchsorted(keys, want).clip(max=len(keys) - 1)
        found = keys[at] == want
        start = offsets[at[found]]
        count = offsets[at[found] + 1] - start
        # CSR gather: the rows start, ..., start + count - 1 of each found bucket
        idx = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
        pairs.append(np.repeat(qid[found], count) * n + rows[idx])
    return np.divmod(np.unique(np.concatenate(pairs)), n)


@dataclass
class MultiProbe:
    projections: list[GaussianProjection]   # one per table
    index: PartitionedIndex
    n: int
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

        def _build(ids, P, X):
            return {"tables": [bucket_table(p.buckets(X)) for p in projections],
                    "X": X, "ids": ids}, {}

        index = PartitionedIndex.build(spark, pre.assigned, _build, name="multiprobe")
        return cls(projections=projections, index=index, n=pre.n, n_probe=n_probe)

    # ------------------------------------------------------------------
    def query_batch(self, Q: np.ndarray, k: int = 50) -> list[Result]:
        Q = query_matrix(Q, k, self.n)
        # driver-side probing sequences: tiny (L * n_probe buckets per query),
        # stacked per table with the query each bucket belongs to
        probes = []
        for p in self.projections:
            seqs = [probe_sequence(p.project(q)[0] + p.b, p.w, self.n_probe) for q in Q]
            probes.append((np.array([b for seq in seqs for b in seq], dtype=np.int64),
                           np.repeat(np.arange(len(Q)), [len(seq) for seq in seqs])))

        def _probe(blob: dict, pid: int) -> pd.DataFrame:
            ids = blob["ids"]
            qid, rows = probe_tables(blob["tables"], probes, len(ids))
            return pd.DataFrame({"qid": qid, "id": ids[rows],
                                 "dist": _verified(blob["X"], rows, Q[qid])})

        got = self.index.probe(_probe, schema=CAND_SCHEMA).toPandas()
        results, self.last_probed = _topk_per_query(*_cand_arrays(got), len(Q), k)
        return results
