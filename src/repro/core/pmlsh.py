"""PM-LSH: the paper's framework, distributed over Spark partitions.

Build (Section 4.1, adapted to the distributed dataflow of this repo):

1. project the ``(id, vec)`` DataFrame with ``m`` Gaussian hash functions
   (``GaussianProjection.transform``);
2. partition the projected space with sampled k-means (one Spark
   partition per cluster) — ``repro.core.partitioner``;
3. per partition, build a PM-tree over the projected points with a
   *global* pivot set, and persist ``{tree, ids, X}`` as an index blob
   (``repro.core.partindex``). Each partition also reports a ball+ring
   summary, which the driver uses to plan each query pass: a PM-tree
   node's region one level up, built and tested by ``repro.core.pmtree``.

Query:

- ``(c, k)-ANN`` (Algorithm 2) runs a sequence of projected-space range
  queries ``range(q', t*r)`` with ``r = r_min, c*r_min, ...``; ``t``
  comes from the tunable confidence interval (Eq. 10) and ``r_min`` from
  the distance distribution ``F`` so that ``n*F(r_min) ~= beta*n + k``
  (Section 4.5). ``(r, c)-BC`` (Algorithm 1) is one round of the same
  loop, at radius r with k = 1 and the budget ``beta*n + 1``.
- A range query at a larger radius returns a superset of the one at a
  smaller radius, so each round returns every candidate of each active
  query, and its rows replace that query's earlier ones.
- Queries are processed in *batches*: one Spark pass per radius round
  serves every still-active query, so the driver loop runs O(1) rounds,
  not O(rounds * queries). The driver plans each pass with one vectorised
  region test per partition, which picks the queries whose ball can touch it;
  each probed partition then serves all of its planned queries with one
  PM-tree walk.

Shared by every distributed index in the repo (the baselines import them
from here):

- :func:`build_preamble` — empty check, count, projection, seeded sample,
  k-means partitioning and, where needed, F(x);
- :func:`enlarge_radius` — Algorithm 2's radius-enlarging loop, also
  QALSH's virtual rehashing and, in one round, Algorithm 1;
- :func:`query_matrix` — query-batch validation on the driver;
- :func:`_verified` and :func:`_cand_frame` — the executors' true-distance
  verification and the one candidate frame each partition returns;
- :func:`_cross_dist` — the one expanded-square distance matrix, used by
  exact kNN and the Table 3 statistics;
- :func:`_topk_per_query` — the final ranking of each query's rows, by
  ``(dist, id)``, also the exact-kNN ground truth's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.confidence import ConfidenceInterval
from repro.core.partindex import PartitionedIndex
from repro.core.partitioner import assign_partitions, kmeans
from repro.core.pmtree import (PMTree, _pivot_dists, region, region_touched,
                               select_pivots)
from repro.core.projection import GaussianProjection, vector_dim
from repro.costmodel import DistanceDistribution

__all__ = ["PMLSH", "CAND_SCHEMA", "build_preamble", "query_matrix",
           "enlarge_radius"]

CAND_SCHEMA = StructType(
    [
        StructField("qid", LongType(), False),
        StructField("id", LongType(), False),
        StructField("dist", DoubleType(), False),
    ]
)

NODE_CAPACITY = 16       # PM-tree node capacity
ALPHA1 = 1.0 / math.e    # Eq. 10's true-positive error, as in the paper
R_MIN_SHRINK = 0.9       # r_min is shrunk slightly below F's quantile

Result = tuple[np.ndarray, np.ndarray]


# ---- shared by every index -------------------------------------------------
class Preamble(NamedTuple):
    n: int
    proj: GaussianProjection      # the projection ``assigned`` carries
    sample: np.ndarray            # seeded sample of projected points
    F: DistanceDistribution | None
    assigned: DataFrame           # projected points with their ``pid``


def build_preamble(vectors: DataFrame,
                   make_proj: Callable[[int, int], GaussianProjection], *,
                   n_partitions: int, seed: int, sample_size: int,
                   with_F: bool) -> Preamble:
    """Everything an index build does before its per-partition structure.

    ``make_proj(d, n)`` gives the projection that is both indexed and
    clustered. A seeded driver-side sample of at most ``sample_size``
    points feeds k-means and, if ``with_F``, the distance distribution.
    """
    d = vector_dim(vectors)
    n = vectors.count()
    proj = make_proj(d, n)
    projected = proj.transform(vectors)
    frac = min(1.0, (3.0 * sample_size) / n)
    rows = projected.sample(fraction=frac, seed=seed).limit(sample_size).collect()
    S_proj = np.stack([np.asarray(r["proj"]) for r in rows])
    F = None
    if with_F:
        S_orig = np.stack([np.asarray(r["vec"]) for r in rows])
        F = DistanceDistribution(S_orig, n_pairs=min(200_000, 40 * len(S_orig)),
                                 seed=seed)
    centers = kmeans(S_proj, n_partitions, seed=seed)
    return Preamble(n, proj, S_proj, F, assign_partitions(projected, centers))


def query_matrix(Q: np.ndarray, k: int, n: int) -> np.ndarray:
    """``Q`` as a 2-D float array; rejects non-finite values and k outside [1, n]."""
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim == 1:
        Q = Q[None, :]
    if not np.all(np.isfinite(Q)):
        raise ValueError("queries must be finite (found NaN or inf)")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return Q


def _verified(X: np.ndarray, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """True distances from ``q`` to the points ``X[rows]`` (the paper's
    "point probing"). ``X`` is left unchanged: ``rows`` is made an integer
    index, so the gather is one fresh copy that is then shifted in place."""
    diff = X[np.asarray(rows, dtype=np.intp)]
    diff -= q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _cross_dist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``(len(A), len(B))`` Euclidean distances by the expanded square
    ``|a|^2 + |b|^2 - 2 a.b``: one BLAS matmul for the whole block."""
    d2 = (np.einsum("ij,ij->i", A, A)[:, None] + np.einsum("ij,ij->i", B, B)[None, :]
          - 2.0 * (A @ B.T))
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


def _cand_frame(parts: list[tuple[int, np.ndarray, np.ndarray]]
                ) -> pd.DataFrame | None:
    """One partition's ``CAND_SCHEMA`` frame from its per-query
    ``(qid, ids, dist)`` pieces, in order; None if there are none."""
    if not parts:
        return None
    qids, ids, dist = zip(*parts)
    return pd.DataFrame(
        {
            "qid": np.repeat(np.asarray(qids, dtype=np.int64),
                             [len(a) for a in ids]),
            "id": np.concatenate(ids),
            "dist": np.concatenate(dist),
        }
    )


def _group_by_qid(qid: np.ndarray, nq: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped by query: query i's rows are ``order[bounds[i]:bounds[i+1]]``,
    in their original order."""
    order = np.argsort(qid, kind="stable")
    bounds = np.zeros(nq + 1, dtype=np.intp)
    np.cumsum(np.bincount(qid, minlength=nq), out=bounds[1:])
    return order, bounds


def _topk(ids: np.ndarray, dists: np.ndarray, k: int) -> Result:
    """The k smallest distances, ties broken by ascending id."""
    if len(dists) > k:
        # only rows up to the k-th smallest distance can rank; keeping every
        # row tied with it leaves the id tie-break to the sort below
        keep = ~(dists > np.partition(dists, k - 1)[k - 1])
        ids, dists = ids[keep], dists[keep]
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]


def _cand_arrays(got: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``qid``, ``id`` and ``dist`` columns of a candidate frame."""
    return (got["qid"].to_numpy(dtype=np.int64), got["id"].to_numpy(dtype=np.int64),
            got["dist"].to_numpy(dtype=np.float64))


def _topk_per_query(qid: np.ndarray, ids: np.ndarray, dist: np.ndarray, nq: int,
                    k: int) -> tuple[list[Result], dict[int, int]]:
    """The top-k of each of ``nq`` queries' rows, and the rows per query."""
    order, bounds = _group_by_qid(qid, nq)
    groups = [order[bounds[i]:bounds[i + 1]] for i in range(nq)]
    return ([_topk(ids[g], dist[g], k) for g in groups],
            {i: len(g) for i, g in enumerate(groups)})


def enlarge_radius(nq: int, k: int, *, r0: float, c: float,
                   probe: Callable[[dict], pd.DataFrame], budget: float,
                   max_rounds: int) -> tuple[list[Result], dict[int, int], list[int]]:
    """Algorithm 2's loop for a batch of ``nq`` queries.

    Every active query starts at radius ``r0``. Each round,
    ``probe(radii)`` returns every ``(qid, id, dist)`` candidate of each
    active query at its radius (``radii``: qid -> r). A round's rows
    replace the earlier rows of the queries active in it; finished queries
    keep theirs. A query stops once k candidates lie within ``c * r`` or it
    has ``budget`` candidates; otherwise ``r`` becomes ``c * r``.
    Returns the top-k per query, the candidates verified per query and
    the qids still active when the rounds ran out.
    """
    r = np.full(nq, float(r0))
    active = np.arange(nq)
    qid = np.empty(0, dtype=np.int64)
    ids = np.empty(0, dtype=np.int64)
    dist = np.empty(0, dtype=np.float64)
    for _ in range(max_rounds):
        if not len(active):
            break
        new = _cand_arrays(probe({int(i): float(r[i]) for i in active}))
        if len(qid):  # finished queries keep their rows; active ones' are replaced
            kept = ~np.isin(qid, active)
            new = [np.concatenate((a[kept], b)) for a, b in zip((qid, ids, dist), new)]
        qid, ids, dist = new
        n_cand = np.bincount(qid, minlength=nq)[active]
        close = np.bincount(qid[dist <= c * r[qid]], minlength=nq)[active]
        go_on = (close < k) & (n_cand < budget)
        active = active[go_on]
        r[active] *= c
    # a query still active here hit the round cap: best effort over its candidates
    return (*_topk_per_query(qid, ids, dist, nq, k), active.tolist())


# ---- PM-LSH ----------------------------------------------------------------
def _partition_pruned(summary: dict, qp: np.ndarray, qpiv: np.ndarray,
                      pradius: float) -> bool:
    """True if B(qp, pradius) misses the partition: one-pair ``region_touched``."""
    return not region_touched(summary["ro"], summary["radius"], summary["hr"],
                              qp[None], qpiv[None], np.array([pradius]))[0]


@dataclass
class PMLSH:
    """A built PM-LSH index plus everything needed to answer queries."""

    proj: GaussianProjection
    ci: ConfidenceInterval
    pivots: np.ndarray            # global PM-tree pivots (projected space)
    index: PartitionedIndex
    F: DistanceDistribution       # original-space distance distribution
    n: int
    beta: float

    _index_name = "pmlsh"

    @staticmethod
    def _tree_factory(*, pivots: np.ndarray, seed: int):
        """Per-partition index constructor; R-LSH overrides with an R-tree."""
        return lambda P: PMTree(P, capacity=NODE_CAPACITY, pivots=pivots, seed=seed)

    # ---- construction ----------------------------------------------------
    @classmethod
    def build(cls, spark: SparkSession, vectors: DataFrame, *, m: int = 15,
              c: float = 1.5, n_partitions: int = 8, s: int = 5, seed: int = 0,
              beta: float | None = None, sample_size: int = 4096) -> "PMLSH":
        ci = ConfidenceInterval.derive(m=m, c=c, alpha1=ALPHA1)
        if beta is not None:
            ci = replace(ci, beta=beta)
        pre = build_preamble(
            vectors, lambda d, n: GaussianProjection(d, m, seed=seed),
            n_partitions=n_partitions, seed=seed, sample_size=sample_size,
            with_F=True)
        pivots = select_pivots(pre.sample, s, seed=seed)
        make_tree = cls._tree_factory(pivots=pivots, seed=seed)

        def _build(ids: np.ndarray, P: np.ndarray, X: np.ndarray
                   ) -> tuple[dict, dict]:
            # a PM-tree node's region, with the global pivots whatever the tree
            ro = P.mean(axis=0)
            radius, hr = region(P, _pivot_dists(P, pivots), ro)
            blob = {"tree": make_tree(P), "ids": ids, "X": X}
            return blob, {"ro": ro, "radius": radius, "hr": hr}

        index = PartitionedIndex.build(spark, pre.assigned, _build,
                                       name=cls._index_name)
        return cls(proj=pre.proj, ci=ci, pivots=pivots, index=index,
                   F=pre.F, n=pre.n, beta=ci.beta)

    # ---- helpers ---------------------------------------------------------
    def r_min(self, k: int) -> float:
        """Initial radius: n*F(r) ~= beta*n + k, shrunk slightly (Sec. 4.5)."""
        target = min(0.999, (self.beta * self.n + k) / self.n)
        r = self.F.quantile(target) * R_MIN_SHRINK
        return max(r, 1e-9)

    def _plan(self, QP: dict[int, np.ndarray], radii: dict[int, float]
              ) -> dict[int, list[int]]:
        """``pid -> qids``, in ``radii`` order, of the query balls that can
        touch each partition: one region test per partition for all queries."""
        qids, r = np.array(list(radii)), np.array(list(radii.values()))
        Q = np.stack([QP[qid] for qid in radii])
        QPD = np.linalg.norm(Q[:, None, :] - self.pivots[None], axis=2)
        touched = {pid: region_touched(s["ro"], s["radius"], s["hr"], Q, QPD, r)
                   for pid, s in self.index.summaries.items()}
        return {pid: qids[t].tolist() for pid, t in touched.items() if t.any()}

    def _probe_round(self, QP: dict[int, np.ndarray], QV: dict[int, np.ndarray],
                     radii: dict[int, float]) -> pd.DataFrame:
        """One Spark pass: every candidate of each active query at its radius.

        ``radii`` maps qid -> *projected-space* radius (already t*r). The
        driver plans the pass (:meth:`_plan`); only planned partitions are
        probed, each for its planned queries only, with one tree walk
        (``range_query_batch``) for all of them.
        """
        plan = self._plan(QP, radii)
        if not plan:
            return pd.DataFrame(columns=["qid", "id", "dist"])

        def _probe(blob: dict, pid: int) -> pd.DataFrame | None:
            qids = plan[pid]
            hits = blob["tree"].range_query_batch(
                np.stack([QP[qid] for qid in qids]), [radii[qid] for qid in qids])
            return _cand_frame([(qid, blob["ids"][rows],
                                 _verified(blob["X"], rows, QV[qid]))
                                for qid, (rows, _) in zip(qids, hits) if len(rows)])

        sdf = self.index.probe(_probe, schema=CAND_SCHEMA, pids=list(plan))
        return sdf.toPandas()

    def _enlarge(self, Q: np.ndarray, k: int, *, r0: float, budget: float,
                 max_rounds: int) -> tuple[list[Result], dict[int, int], list[int]]:
        """:func:`enlarge_radius` over this index's probe rounds for the rows
        of ``Q``, each original-space radius r probed at ``t * r``."""
        QP = dict(enumerate(self.proj.project(Q)))
        QV = dict(enumerate(Q))
        return enlarge_radius(
            len(Q), k, r0=r0, c=self.ci.c,
            probe=lambda radii: self._probe_round(
                QP, QV, {i: self.ci.projected_radius(r) for i, r in radii.items()}),
            budget=budget, max_rounds=max_rounds)

    # ---- queries ---------------------------------------------------------
    def query_batch(self, Q: np.ndarray, k: int = 50, *, max_rounds: int = 64
                    ) -> list[Result]:
        """(c,k)-ANN (Algorithm 2) for every row of ``Q``; returns
        ``[(ids, dists), ...]`` ranked ascending, one per query."""
        Q = query_matrix(Q, k, self.n)
        # candidates whose true distances were verified, per query — the
        # hardware-independent cost the paper's timing reflects
        results, self.last_probed, _ = self._enlarge(
            Q, k, r0=self.r_min(k), budget=min(self.beta * self.n + k, self.n),
            max_rounds=max_rounds)
        return results

    def query(self, q: np.ndarray, k: int = 50, **kw) -> Result:
        """Single-query convenience wrapper over ``query_batch``."""
        return self.query_batch(np.asarray(q)[None, :], k, **kw)[0]

    def ball_cover(self, q: np.ndarray, r: float) -> tuple[int, float] | None:
        """(r,c)-BC query (Algorithm 1): a point in B(q, c*r), or None.

        Algorithm 1 is one round of Algorithm 2's loop at radius ``r``,
        with k = 1 and the budget beta*n + 1.
        """
        results, _, unfinished = self._enlarge(
            query_matrix(q, 1, self.n), 1, r0=r, budget=self.beta * self.n + 1,
            max_rounds=1)
        if unfinished:
            return None
        ids, dists = results[0]
        return int(ids[0]), float(dists[0])
