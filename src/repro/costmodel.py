"""Node-based cost model for the PM-tree vs R-tree comparison (Table 2).

Implements the paper's Section 4.2:

- ``F(x)`` — the *distance distribution* of a dataset (Eq. 4), estimated
  from sampled point pairs and evaluated by linear interpolation;
- ``G_i(x)`` — per-dimension marginal CDFs of the (projected) data (Eq. 8);
- ``cc_pmtree`` — expected distance computations for a range query on a
  PM-tree (Eqs. 6–7): each node contributes ``N(e) * Pr[e]`` where
  ``Pr[e] = F(e.r + r_q) * prod_i [F(HR_i.max + r_q) - F(HR_i.min - r_q)]``;
- ``cc_rtree`` — the R-tree analogue (Eq. 9) with the ball replaced by an
  isochoric hyper-cube of side ``l = (2 pi^{m/2} / (m Gamma(m/2)))^{1/m} r_q``.
- ``radius_for_fraction`` — the range radius that returns a target
  fraction of the dataset (the paper uses ~8% for Table 2).

The homogeneity assumption (HV close to 1, Table 3) is what licenses
using one global ``F`` for every viewpoint, exactly as in the paper.
"""
from __future__ import annotations

import math

import numpy as np

from repro.baselines.rtree import RTree
from repro.core.pmtree import PMTree

__all__ = [
    "DistanceDistribution",
    "marginal_cdfs",
    "isochoric_cube_side",
    "cc_pmtree",
    "cc_rtree",
    "radius_for_fraction",
]


class DistanceDistribution:
    """Empirical F(x) = Pr[||o_i, o_j|| <= x] from sampled pairs."""

    def __init__(self, X: np.ndarray, *, n_pairs: int = 100_000, seed: int = 0):
        X = np.asarray(X, dtype=np.float64)
        g = np.random.default_rng(seed)
        n = len(X)
        i = g.integers(0, n, n_pairs)
        j = g.integers(0, n, n_pairs)
        keep = i != j
        diffs = X[i[keep]] - X[j[keep]]
        d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        self.sorted = np.sort(d)

    def __call__(self, x) -> np.ndarray | float:
        """F(x); vectorized, clipped to [0, 1], F(x<=0) = 0."""
        xs = np.asarray(x, dtype=np.float64)
        r = np.searchsorted(self.sorted, xs, side="right") / len(self.sorted)
        r = np.where(xs <= 0, 0.0, r)
        return float(r) if np.isscalar(x) else r

    def quantile(self, p: float) -> float:
        """Inverse of F: the distance below which a fraction ``p`` of pairs lie."""
        p = min(max(p, 0.0), 1.0)
        idx = min(len(self.sorted) - 1, int(p * len(self.sorted)))
        return float(self.sorted[idx])


def marginal_cdfs(X: np.ndarray) -> list[np.ndarray]:
    """Per-dimension sorted samples; G_i(x) is evaluated by searchsorted."""
    X = np.asarray(X, dtype=np.float64)
    return [np.sort(X[:, i]) for i in range(X.shape[1])]


def isochoric_cube_side(rq: float, m: int) -> float:
    """Side of the m-cube with the same volume as the radius-``rq`` m-ball."""
    vol_unit_ball = math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)
    return (vol_unit_ball ** (1.0 / m)) * rq


def cc_pmtree(tree: PMTree, rq: float, F: DistanceDistribution) -> float:
    """Expected distance computations of ``range(q, rq)`` (Eqs. 6-7)."""
    rings = np.maximum(0.0, F(tree.hr[:, :, 1] + rq) - F(tree.hr[:, :, 0] - rq))
    pr = F(tree.radius + rq) * np.prod(rings, axis=1)
    return float(np.sum(tree.entries * pr))


def cc_rtree(tree: RTree, rq: float, G: list[np.ndarray]) -> float:
    """Expected distance computations of ``range(q, rq)`` on the R-tree (Eq. 9)."""
    l = isochoric_cube_side(rq, len(G))

    def cdf(x: np.ndarray) -> np.ndarray:
        """``G_i(x[:, i])`` for every node and dimension."""
        return np.stack([np.searchsorted(g, col, side="right") for g, col in zip(G, x.T)],
                        axis=1) / len(G[0])

    sides = np.maximum(0.0, cdf(tree.mbr_hi + l) - cdf(tree.mbr_lo - l))
    return float(np.sum(tree.entries * np.prod(sides, axis=1)))


def radius_for_fraction(F: DistanceDistribution, fraction: float) -> float:
    """Range radius expected to return ``fraction`` of the dataset.

    Under the homogeneity assumption the fraction of points within
    distance r of a typical query is F(r), so invert F at ``fraction``.
    """
    return F.quantile(fraction)
