"""Dataset statistics reported in the paper's Table 3: HV, RC, LID.

- **HV** (homogeneity of viewpoints, Ciaccia et al. PODS'98): how similar
  the per-point distance distributions ``F_o(x)`` are across viewpoints
  ``o``. Computed as ``1 - E[ mean_x |F_o1(x) - F_o2(x)| ]`` over sampled
  viewpoint pairs, with CDFs evaluated on a shared grid and x normalized
  to the observed distance range.
- **RC** (relative contrast, He et al. ICML'12): mean distance to a query
  divided by its NN distance, averaged over sampled queries.
- **LID** (local intrinsic dimensionality, Amsaleg et al. KDD'15): MLE
  ``LID(q) = -( (1/k) * sum_i ln(r_i / r_k) )^-1`` from the k smallest
  distances, averaged over sampled queries.

RC needs every distance from a query, so the distance computation fans
out with mapInPandas, and each Arrow batch returns per query only the
sum, count and minimum of its distances, the query's own row left out:
the driver reduces ``batches x queries`` rows, not ``n x queries``.
``pairwise_distances_spark`` is the same fan-out returning every
``(qid, id, dist)`` row. LID needs only each query's nearest distances
and takes them from the exact-kNN ground truth
(``repro.baselines.exact``). HV's small viewpoint-to-reference
matrix is computed on the driver. All three use the same distance kernel
(``repro.core.pmlsh._cross_dist``).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines.exact import exact_knn_arrays
from repro.core.partindex import skip_spark_archive_rereads
from repro.core.pmlsh import CAND_SCHEMA, _cross_dist
from repro.core.projection import vector_dim

__all__ = [
    "pairwise_distances_spark",
    "homogeneity_of_viewpoints",
    "relative_contrast",
    "local_intrinsic_dimensionality",
    "dataset_stats",
]

def _dist_blocks(batches, Q: np.ndarray):
    """Per non-empty Arrow batch of ``(id, vec)`` rows on an executor: its
    ids and the ``(len(Q), batch)`` block of distances to the rows of ``Q``."""
    skip_spark_archive_rereads()
    for pdf in batches:
        if len(pdf):
            yield pdf["id"].to_numpy(), _cross_dist(Q, np.stack(pdf["vec"].to_numpy()))


def pairwise_distances_spark(vectors: DataFrame, Q: np.ndarray) -> DataFrame:
    """Distances from every point in ``vectors`` to every row of ``Q``.

    Returns ``(qid, id, dist)``; the query matrix rides to executors in
    the task closure (small: nq x d).
    """
    Qm = np.asarray(Q, dtype=np.float64)

    def _dist(batches):
        for ids, D in _dist_blocks(batches, Qm):
            nq, nb = D.shape
            yield pd.DataFrame(
                {
                    "qid": np.repeat(np.arange(nq, dtype=np.int64), nb),
                    "id": np.tile(ids, nq),
                    "dist": D.ravel(),
                }
            )

    return vectors.mapInPandas(_dist, schema=CAND_SCHEMA)


def homogeneity_of_viewpoints(vectors: DataFrame, *, n_view: int = 30,
                              n_ref: int = 600, grid: int = 64,
                              seed: int = 11) -> float:
    """HV over ``n_view`` sampled viewpoints and ``n_ref`` reference points."""
    views = _sample_vectors(vectors, n_view, seed)
    refs = _sample_vectors(vectors, n_ref, seed + 1)
    # distances viewpoint -> reference set, computed on the driver (small)
    D = _cross_dist(views, refs)
    hi = float(np.max(D))
    if hi <= 0:
        return 1.0
    xs = np.linspace(0.0, hi, grid)
    cdfs = (D[:, :, None] <= xs[None, None, :]).mean(axis=1)  # (n_view, grid)
    # mean absolute CDF discrepancy over sampled viewpoint pairs
    g = np.random.default_rng(seed + 2)
    idx = g.integers(0, n_view, size=(200, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]
    disc = np.abs(cdfs[idx[:, 0]] - cdfs[idx[:, 1]]).mean(axis=1)
    return float(1.0 - disc.mean())


def relative_contrast(vectors: DataFrame, *, n_query: int = 50,
                      seed: int = 13) -> float:
    """RC = E_q[ mean_o ||q,o|| / min_o ||q,o|| ] with q sampled from D.

    The sampled queries are dataset points, so each query's own row is
    excluded *by id* — a numeric ``dist > 0`` filter is not enough because
    the expanded-square distance of a point to itself lands at ~1e-5, not
    0, and would masquerade as the NN.
    """
    src_ids, Q = _sample_rows(vectors, n_query, seed)

    def _sums(batches):
        # per query, over this batch's rows other than its own: the sum,
        # count and minimum of the distances
        for ids, D in _dist_blocks(batches, Q):
            other = ids[None, :] != src_ids[:, None]
            yield pd.DataFrame({"qid": np.arange(len(Q), dtype=np.int64),
                                "total": np.where(other, D, 0.0).sum(axis=1),
                                "count": other.sum(axis=1),
                                "nearest": np.where(other, D, np.inf).min(axis=1)})

    schema = "qid long, total double, count long, nearest double"
    agg = (vectors.mapInPandas(_sums, schema=schema).toPandas()
           .groupby("qid").agg({"total": "sum", "count": "sum", "nearest": "min"}))
    agg = agg[agg["count"] > 0]
    ratios = agg["total"] / agg["count"] / np.maximum(agg["nearest"], 1e-300)
    return float(np.mean(ratios.to_numpy()))


def local_intrinsic_dimensionality(vectors: DataFrame, *, n_query: int = 50,
                                   k: int = 100, seed: int = 17) -> float:
    """Average MLE LID over sampled queries using each query's kNN distances.

    Like :func:`relative_contrast`, each sampled query's own row is
    excluded by id before taking the k smallest distances, so each query
    asks the exact kNN for k + 1.
    """
    src_ids, Q = _sample_rows(vectors, n_query, seed)
    lids = []
    for src, (ids, dist) in zip(src_ids, exact_knn_arrays(vectors, Q, k + 1)):
        r = dist[ids != src][:k]
        rk = r[-1]
        if rk <= 0:
            continue
        logs = np.log(r / rk)
        denom = np.mean(logs[:-1]) if len(logs) > 1 else -1.0
        if denom < 0:
            lids.append(-1.0 / denom)
    return float(np.mean(lids)) if lids else float("nan")


def dataset_stats(vectors: DataFrame, **kw) -> dict[str, float]:
    """n, d, HV, RC and LID for a vector DataFrame (Table 3 row)."""
    d = vector_dim(vectors)
    n = vectors.count()
    return {
        "n": n,
        "d": d,
        "hv": homogeneity_of_viewpoints(vectors, **kw.get("hv", {})),
        "rc": relative_contrast(vectors, **kw.get("rc", {})),
        "lid": local_intrinsic_dimensionality(vectors, **kw.get("lid", {})),
    }


# ---- helpers -------------------------------------------------------------

def _sample_rows(vectors: DataFrame, n: int, seed: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """~n sampled rows as ``(ids, matrix)`` via Spark-side seeded sampling."""
    total = vectors.count()
    frac = min(1.0, 3.0 * n / max(total, 1))
    rows = vectors.sample(fraction=frac, seed=seed).limit(n).collect()
    if len(rows) < n:  # tiny inputs: take everything
        rows = vectors.limit(n).collect()
    ids = np.array([r["id"] for r in rows], dtype=np.int64)
    return ids, np.stack([np.asarray(r["vec"], dtype=np.float64) for r in rows])


def _sample_vectors(vectors: DataFrame, n: int, seed: int) -> np.ndarray:
    """~n rows of ``vec`` as a matrix (ids discarded)."""
    return _sample_rows(vectors, n, seed)[1]
