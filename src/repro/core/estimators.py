"""Distance estimators compared in the paper's Fig. 3 (Section 3.2).

Given projected coordinates ``o' = [h*_1(o) .. h*_m(o)]``, estimate the
*original* distance between q and o from the hash-difference vector
``rho = q' - o'``:

- **L2** — the paper's estimator ``r_hat = ||rho||_2 / sqrt(m)`` (Lemma 2,
  unbiased; also the MLE). Ranking by L2 is what PM-LSH's range query does.
- **L1** — ``||rho||_1`` (scaled); a heavier-tailed alternative.
- **QD**  — quantization-distance ranking in the spirit of GQR: distances
  are computed between *bucketed* hash values (floor((h*+b)/w)), i.e. the
  resolution is limited to bucket side w — a bucket-granularity estimator.
- **Rand** — a random score; the no-information floor.

``estimator_study`` reproduces the Fig. 3 experiment: take top-T points
by estimated distance, report recall@k and overall ratio of the best k
among them versus the exact kNN.
"""
from __future__ import annotations

import numpy as np

from repro.core.projection import GaussianProjection
from repro.metrics import overall_ratio, recall

__all__ = ["estimate", "estimator_study", "ESTIMATORS"]

ESTIMATORS = ("L2", "L1", "QD", "Rand")


def estimate(name: str, P: np.ndarray, qp: np.ndarray, *,
             proj: GaussianProjection | None = None, seed: int = 0) -> np.ndarray:
    """Estimated original distances from projected points ``P`` to ``qp``.

    ``P`` is (n, m) projected data, ``qp`` the (m,) projected query. QD
    needs the projection object for its bucket width/offsets.
    """
    m = P.shape[1]
    rho = P - qp[None, :]
    if name == "L2":
        return np.sqrt(np.einsum("ij,ij->i", rho, rho) / m)
    if name == "L1":
        # E|N(0, r^2)| = r * sqrt(2/pi): scale the mean |rho| back to r.
        return np.abs(rho).mean(axis=1) * np.sqrt(np.pi / 2.0)
    if name == "QD":
        if proj is None:
            raise ValueError("QD estimator needs the GaussianProjection")
        w, b = proj.w, proj.b
        bq = np.floor((qp + b) / w)
        bo = np.floor((P + b[None, :]) / w)
        return np.sqrt(np.einsum("ij,ij->i", bo - bq, bo - bq) / m) * w
    if name == "Rand":
        return np.random.default_rng(seed).random(len(P))
    raise ValueError(f"unknown estimator {name!r}")


def estimator_study(X: np.ndarray, Q: np.ndarray, *, m: int = 15, k: int = 100,
                    T_values: tuple[int, ...] = (100, 200, 500, 1000, 2000),
                    seed: int = 0, w: float | None = None
                    ) -> dict[str, dict[int, dict[str, float]]]:
    """Fig. 3 harness: recall/ratio of each estimator at each probe depth T.

    ``w`` (the QD bucket width) defaults to a low percentile of the
    *projected* pairwise distances so buckets are at the granularity real
    bucketed-LSH deployments use — with a vanishing w, QD degenerates to
    L2 and the bucket-granularity cost the paper's Fig. 3 demonstrates
    disappears.
    """
    X = np.asarray(X, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if w is None:
        p0 = GaussianProjection(X.shape[1], m, seed=seed)
        g = np.random.default_rng(seed)
        P0 = p0.project(X[g.choice(len(X), size=min(len(X), 512), replace=False)])
        i = g.integers(0, len(P0), 2000)
        j = g.integers(0, len(P0), 2000)
        pd_sample = np.linalg.norm(P0[i] - P0[j], axis=1)[i != j]
        w = float(np.percentile(pd_sample, 20))
    proj = GaussianProjection(X.shape[1], m, seed=seed, w=w)
    P = proj.project(X)
    # each query's exact distances and each (estimator, query) ranking serve every T
    D = [np.linalg.norm(X - q[None, :], axis=1) for q in Q]
    exact = [np.argsort(d, kind="stable")[:k] for d in D]
    out: dict[str, dict[int, dict[str, float]]] = {e: {} for e in ESTIMATORS}
    for e in ESTIMATORS:
        ranked = [np.argsort(estimate(e, P, proj.project(q)[0], proj=proj,
                                      seed=seed + qi), kind="stable")
                  for qi, q in enumerate(Q)]
        for T in T_values:
            ratios, recalls = [], []
            for d, exact_idx, order in zip(D, exact, ranked):
                cand = order[: min(T, len(X))]
                best = cand[np.argsort(d[cand], kind="stable")[:k]]
                ratios.append(overall_ratio(d[best], d[exact_idx]))
                recalls.append(recall(best, exact_idx, d[best], d[exact_idx]))
            out[e][T] = {"recall": float(np.mean(recalls)),
                         "ratio": float(np.mean(ratios))}
    return out
