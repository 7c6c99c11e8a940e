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

RC needs every distance from a query, so ``pairwise_distances_spark``
fans the distance computation out with mapInPandas and the d=4096
datasets do not serialize through the driver in one piece. LID needs only
each query's nearest distances and takes them from the exact-kNN ground
truth (``repro.baselines.exact``). HV's small viewpoint-to-reference
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

def pairwise_distances_spark(vectors: DataFrame, Q: np.ndarray) -> DataFrame:
    """Distances from every point in ``vectors`` to every row of ``Q``.

    Returns ``(qid, id, dist)``; the query matrix rides to executors in
    the task closure (small: nq x d).
    """
    Qm = np.asarray(Q, dtype=np.float64)

    def _dist(batches):
        skip_spark_archive_rereads()
        for pdf in batches:
            if len(pdf) == 0:
                continue
            D = _cross_dist(Qm, np.stack(pdf["vec"].to_numpy()))
            nq, nb = D.shape
            yield pd.DataFrame(
                {
                    "qid": np.repeat(np.arange(nq, dtype=np.int64), nb),
                    "id": np.tile(pdf["id"].to_numpy(), nq),
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
    dists = pairwise_distances_spark(vectors, Q).toPandas()
    ratios = []
    for qi, grp in dists.groupby("qid"):
        grp = grp[grp["id"] != src_ids[int(qi)]]
        if len(grp):
            ratios.append(grp["dist"].mean() / max(grp["dist"].min(), 1e-300))
    return float(np.mean(ratios))


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
